//! What one run hands back, and the host probes every workload shares.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Result of one run of one workload: the metric values it measured and
/// the verdict of its output checks.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose outcome was checked (points, ops, end-of-run checks).
    pub attempted: u64,
    /// Of those, how many failed; each has a line in `failures`.
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Host-specific readings printed for the reader but not declared
    /// (wall_s, events_per_s, … of the issue's sizing runs).
    pub info: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records one checked operation; `Err` counts it as failed.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// `VmHWM` of this process, MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds `f` takes, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Nanoseconds per call of `f`: the median over `reps` batches of
/// `iters` calls, so one preempted batch cannot move the figure.
pub fn ns_per_call<T>(iters: u32, reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut batches = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        batches.push(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    stats::median(&batches)
}
