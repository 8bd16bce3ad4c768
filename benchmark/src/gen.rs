//! Workload inputs, made from `--seed` alone: the `.scn` text a sim
//! workload hands to `Spec::parse`, and the op stream / arrival schedule
//! a live workload sends down the socket. The program under test sees
//! only these.

use std::collections::HashMap;
use std::time::Duration;

use crate::decl::{Workload, DEFAULT_SEED};

/// SplitMix64: the whole of the benchmark's randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Where the frozen spec of a sim workload lives, relative to the repo root.
pub fn frozen_spec_path(w: Workload) -> String {
    format!("benchmark/workloads/{}.scn", w.name())
}

/// The `.scn` text for `seed`: the frozen text with its seed lines
/// rewritten. The default seed leaves the text as committed. `fig6`'s
/// base seed and 20-replicate range shift by `(seed − 7)·1000`
/// (mod 2³² so every `--seed` maps to a valid range).
pub fn scn_text(w: Workload, frozen: &str, seed: u64) -> String {
    if seed == DEFAULT_SEED {
        return frozen.to_string();
    }
    let mut out = String::with_capacity(frozen.len() + 16);
    for line in frozen.lines() {
        let key = line.split('=').next().unwrap_or("").trim();
        match (w, key) {
            (Workload::SimFailoverGrid, "seed" | "seeds") => {
                let base = 1000 + (seed.wrapping_sub(DEFAULT_SEED) % (1 << 32)) * 1000;
                if key == "seed" {
                    out.push_str(&format!("seed = {base}"));
                } else {
                    out.push_str(&format!("seeds = {base}..={}", base + 19));
                }
            }
            (_, "seed") => out.push_str(&format!("seed = {seed}")),
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One generated request: the wire line and the reply it must get.
pub struct Op {
    pub line: String,
    pub expect: String,
}

/// Seeded 50/50 put/get stream over 1 000 keys with 100-byte values,
/// with the model that says what each reply must be: on one FIFO
/// connection a `get` reads the last `put` to its key (read-your-write).
pub struct OpStream {
    rng: Rng,
    model: HashMap<u32, String>,
}

pub const KEYS: u32 = 1_000;
pub const VALUE_BYTES: usize = 100;

impl OpStream {
    pub fn new(seed: u64) -> Self {
        OpStream {
            rng: Rng::new(seed ^ 0x6f70_7374_7265_616d),
            model: HashMap::new(),
        }
    }

    /// A `put` regardless of the mix (the set-up's first acknowledged op).
    pub fn next_put(&mut self) -> Op {
        let key = (self.rng.next_u64() % u64::from(KEYS)) as u32;
        self.put(key)
    }

    fn put(&mut self, key: u32) -> Op {
        let mut value = Vec::with_capacity(VALUE_BYTES);
        while value.len() < VALUE_BYTES {
            value.extend_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        value.truncate(VALUE_BYTES);
        let value = hex(&value);
        let line = format!("put {} {value}\n", key_hex(key));
        self.model.insert(key, value);
        Op {
            line,
            expect: format!("ok {}", hex(b"OK")),
        }
    }

    /// Uniform in `[0, 1)`, from the stream's own generator (the closed
    /// loop's think times).
    pub fn next_unit(&mut self) -> f64 {
        self.rng.next_unit()
    }

    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_u64();
        let key = ((r >> 1) % u64::from(KEYS)) as u32;
        if r & 1 == 0 {
            self.put(key)
        } else {
            let stored = self.model.get(&key).map(String::as_str).unwrap_or("");
            Op {
                line: format!("get {}\n", key_hex(key)),
                expect: format!("ok {stored}").trim_end().to_string(),
            }
        }
    }
}

fn key_hex(key: u32) -> String {
    hex(format!("key{key:04}").as_bytes())
}

/// Due times of an open-loop arrival process at `rate_per_s` over
/// `seconds`: the gaps are the `rate·seconds` quantiles of the
/// exponential distribution (so every seed offers the same number of
/// requests with the same gap histogram) in a seeded random order (so
/// where the bursts fall differs by seed). Taking the whole quantile set
/// instead of sampling it keeps the offered load, and with it the
/// queueing tail, comparable from one seed to the next.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate_per_s * seconds).round() as usize;
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate_per_s)
        .collect();
    let mut rng = Rng::new(seed ^ 0x706f_6973_736f_6e21);
    for i in (1..n).rev() {
        gaps.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut t = 0.0;
    gaps.into_iter()
        .map(|gap| {
            t += gap;
            Duration::from_secs_f64(t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 40.0, 15.0);
        assert_eq!(a, poisson_schedule(7, 40.0, 15.0));
        assert_ne!(a, poisson_schedule(8, 40.0, 15.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times increase");
        assert!(a.last().unwrap().as_secs_f64() < 15.0);
        assert_eq!(a.len(), 600, "rate × seconds arrivals whatever the seed");
        // Exponential gaps: the mean is 1/rate and about 1 − 1/e fall below it.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let short = gaps.iter().filter(|g| **g < 1.0 / 40.0).count() as f64 / gaps.len() as f64;
        assert!(
            (short - 0.632).abs() < 0.01,
            "{short} of the gaps are below the mean"
        );
    }

    #[test]
    fn op_stream_is_seeded_and_models_read_your_write() {
        let lines = |seed| -> Vec<String> {
            let mut s = OpStream::new(seed);
            (0..200).map(|_| s.next_op().line).collect()
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
        let puts = lines(7).iter().filter(|l| l.starts_with("put ")).count();
        assert!(
            (60..=140).contains(&puts),
            "50/50 mix, got {puts} puts of 200"
        );

        let mut s = OpStream::new(1);
        let mut last_put: HashMap<String, String> = HashMap::new();
        for _ in 0..5_000 {
            let op = s.next_op();
            let mut parts = op.line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some("put"), Some(k), Some(v)) => {
                    assert_eq!(v.len(), 2 * VALUE_BYTES);
                    assert_eq!(op.expect, "ok 4f4b");
                    last_put.insert(k.to_string(), v.to_string());
                }
                (Some("get"), Some(k), None) => match last_put.get(k) {
                    Some(v) => assert_eq!(op.expect, format!("ok {v}")),
                    None => assert_eq!(op.expect, "ok"),
                },
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn scn_text_rewrites_only_the_seed_lines() {
        let frozen = "[scenario]\nkind = SC\nseed = 7\n[window]\nrun_s = 300\n";
        assert_eq!(scn_text(Workload::SimSteady, frozen, 7), frozen);
        assert_eq!(
            scn_text(Workload::SimSteady, frozen, 11),
            "[scenario]\nkind = SC\nseed = 11\n[window]\nrun_s = 300\n"
        );
        let fig6 = "seed = 1000\n[grid]\nseeds = 1000..=1019\n";
        assert_eq!(
            scn_text(Workload::SimFailoverGrid, fig6, 9),
            "seed = 3000\n[grid]\nseeds = 3000..=3019\n"
        );
        // Seeds below the default wrap instead of underflowing.
        assert!(scn_text(Workload::SimFailoverGrid, fig6, 0).contains("seeds = "));
    }
}
