//! The adversarial schedule fuzzer behind `sofb fuzz`.
//!
//! The paper's claim is safety of the four ordering variants under
//! hostile schedules; this module stops hand-writing those schedules.
//! [`fuzz`] takes any base scenario and mutates it along every
//! adversarial axis the testbed can express — crash/mute/delay windows,
//! Byzantine order corruption (via `Protocol::Byz`), partition-shaped
//! simultaneous mutes, the engine's message duplication and reordering
//! faults, client load, and the world seed — runs each mutant without
//! the harness's panicking safety net
//! ([`crate::scenario::run_traced_unchecked`]),
//! and applies the cross-protocol safety [`Oracle`]s to every trace.
//!
//! On a violation, a deterministic delta-debugging [`shrink`] pass
//! minimizes the fault plan, client load, measurement window and seed
//! while the same oracle keeps failing, and the minimal scenario is
//! serialized as a committable `.scn` repro (via
//! [`sofb_spec::emit_spec`]) whose `[meta]` pins the oracle and the
//! `violation` verdict. [`replay`] is the other half of that contract:
//! re-run a pinned spec and assert its verdict still holds — the CI
//! gate over `specs/repros/`.
//!
//! Everything here is deterministic: the mutation stream is a splitmix64
//! function of the fuzz seed and run index, the shrinker is greedy and
//! ordered, and emission is byte-stable — the same invocation always
//! produces the same repro bytes.

use std::fmt;

use sofb_harness::analysis;
use sofb_harness::scenario::{ClientLoad, Scenario, ScenarioError, ScenarioFault};
use sofb_harness::{ProtocolEvent, ProtocolKind};
use sofb_proto::ids::{ProcessId, SeqNo};
use sofb_sim::engine::TimedEvent;
use sofb_sim::time::{SimDuration, SimTime};
use sofb_spec::{emit_spec, EmitError, Spec, Verdict};

use crate::scenario::run_traced_unchecked;

/// A named safety invariant checked against every fuzz run's trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Per-shard total order: no divergent or repeated commit at any
    /// sequence number ([`analysis::check_total_order`]).
    TotalOrder,
    /// Every request commits at exactly one `(shard, sequence)`
    /// ([`analysis::check_exactly_once`]).
    ExactlyOnce,
    /// Test-only weakened oracle: fails when any commit's sequence
    /// number exceeds the cap. Safe protocols violate it under plain
    /// load, which makes the whole find → shrink → emit → replay
    /// pipeline exercisable (and CI-checkable) without a protocol bug.
    CommitCap(u64),
}

impl Oracle {
    /// The default oracle set: the paper's cross-protocol safety
    /// invariants.
    pub fn defaults() -> Vec<Oracle> {
        vec![Oracle::TotalOrder, Oracle::ExactlyOnce]
    }

    /// Parses an oracle name (`total_order`, `exactly_once`,
    /// `commit_cap:N`).
    pub fn parse(name: &str) -> Option<Oracle> {
        match name {
            "total_order" => Some(Oracle::TotalOrder),
            "exactly_once" => Some(Oracle::ExactlyOnce),
            _ => name
                .strip_prefix("commit_cap:")?
                .parse()
                .ok()
                .map(Oracle::CommitCap),
        }
    }

    /// Checks the invariant over one run's trace. `Err` carries the
    /// violation description.
    pub fn check(
        &self,
        scenario: &Scenario,
        events: &[TimedEvent<ProtocolEvent>],
    ) -> Result<(), String> {
        let n = scenario.nodes_per_shard();
        match self {
            Oracle::TotalOrder => {
                // Safety is a per-shard property: each ordering group
                // runs its own sequence space.
                for s in 0..scenario.shards {
                    let shard: Vec<TimedEvent<ProtocolEvent>> = events
                        .iter()
                        .filter(|ev| ev.node / n == s)
                        .cloned()
                        .collect();
                    analysis::check_total_order(&shard).map_err(|e| format!("shard {s}: {e}"))?;
                }
                Ok(())
            }
            Oracle::ExactlyOnce => analysis::check_exactly_once(events, n),
            Oracle::CommitCap(cap) => {
                for ev in events {
                    if let ProtocolEvent::Committed { o, .. } = &ev.event {
                        if o.0 > *cap {
                            return Err(format!(
                                "commit at {o:?} exceeds cap {cap} (node {})",
                                ev.node
                            ));
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Oracle::TotalOrder => write!(f, "total_order"),
            Oracle::ExactlyOnce => write!(f, "exactly_once"),
            Oracle::CommitCap(cap) => write!(f, "commit_cap:{cap}"),
        }
    }
}

/// Budget and oracle selection for one [`fuzz`] campaign.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// How many mutants to generate and run.
    pub runs: usize,
    /// The campaign seed: the entire mutation stream is a function of
    /// it, so one seed reproduces one campaign exactly.
    pub seed: u64,
    /// The oracles applied to every run (empty: [`Oracle::defaults`]).
    pub oracles: Vec<Oracle>,
    /// Stop after this many shrunk violations (0: never stop early).
    pub max_violations: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            runs: 64,
            seed: 1,
            oracles: Vec::new(),
            max_violations: 1,
        }
    }
}

/// One shrunk, reproducible oracle violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The oracle that failed.
    pub oracle: Oracle,
    /// The violation description from the *minimized* scenario's run.
    pub error: String,
    /// The delta-debugged minimal failing scenario.
    pub scenario: Scenario,
    /// The zero-based index of the fuzz run that found it.
    pub run: usize,
}

impl Violation {
    /// Serializes the violation as committable `.scn` repro text with
    /// the oracle and `violation` verdict pinned in `[meta]`.
    pub fn repro_text(&self) -> Result<String, EmitError> {
        emit_spec(
            &format!("fuzz repro: {} violation (run {})", self.oracle, self.run),
            &self.oracle.to_string(),
            Verdict::Violation,
            &self.scenario,
        )
    }

    /// A deterministic repro file name: the oracle plus a hash of the
    /// minimized scenario's repro text.
    pub fn repro_file_name(&self) -> Result<String, EmitError> {
        let text = self.repro_text()?;
        // FNV-1a: tiny, stable, and plenty for a file-name fingerprint.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let oracle = self.oracle.to_string().replace(':', "_");
        Ok(format!("repro_{oracle}_{h:016x}.scn"))
    }
}

/// A finished fuzz campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzSummary {
    /// Mutants actually executed.
    pub executed: usize,
    /// The shrunk violations, in discovery order.
    pub violations: Vec<Violation>,
}

/// The deterministic mutation stream: splitmix64 keyed by campaign seed
/// and run index. Self-contained so fuzz campaigns never perturb (or
/// depend on) the engine's own RNG draws.
struct Rng(u64);

impl Rng {
    fn for_run(seed: u64, run: u64) -> Rng {
        let mut r = Rng(seed ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// A fault window inside the scenario's offered-load phase, in whole
/// milliseconds (the emitter's grammar is ms-aligned).
fn window_ms(rng: &mut Rng, end_ms: u64) -> (u64, u64) {
    let from = rng.below(end_ms);
    let until = from + 1 + rng.below(end_ms.saturating_sub(from).max(1));
    (from, until)
}

/// Builds one mutant: the base scenario plus a fresh world seed and 1–3
/// adversarial mutations. Every mutation stays inside the grammar the
/// repro emitter can express (ms-aligned windows, no link/CPU edits).
fn mutate(base: &Scenario, rng: &mut Rng) -> Scenario {
    let mut s = base.clone();
    s.knobs.seed = rng.next();
    let n = s.nodes_per_shard() as u64;
    let shards = s.shards as u64;
    let end_ms = (s.window.warmup_s + s.window.run_s) * 1000;
    let mutations = 1 + rng.below(3);
    for _ in 0..mutations {
        let process = ProcessId(rng.below(n) as u32);
        let shard = rng.below(shards) as usize;
        match rng.below(8) {
            0 => {
                let at = SimTime::from_ms(rng.below(end_ms));
                s.faults
                    .push(ScenarioFault::crash(process, at).on_shard(shard));
            }
            1 => {
                let (from, until) = window_ms(rng, end_ms);
                s.faults.push(
                    ScenarioFault::mute_until(
                        process,
                        SimTime::from_ms(from),
                        SimTime::from_ms(until),
                    )
                    .on_shard(shard),
                );
            }
            2 => {
                let (from, until) = window_ms(rng, end_ms);
                let extra = SimDuration::from_ms(1 + rng.below(500));
                s.faults.push(
                    ScenarioFault::delay_until(
                        process,
                        SimTime::from_ms(from),
                        SimTime::from_ms(until),
                        extra,
                    )
                    .on_shard(shard),
                );
            }
            3 => {
                let (from, until) = window_ms(rng, end_ms);
                s.faults.push(
                    ScenarioFault::duplicate_until(
                        process,
                        SimTime::from_ms(from),
                        SimTime::from_ms(until),
                    )
                    .on_shard(shard),
                );
            }
            4 => {
                let (from, until) = window_ms(rng, end_ms);
                let jitter = SimDuration::from_ms(1 + rng.below(100));
                s.faults.push(
                    ScenarioFault::reorder_until(
                        process,
                        SimTime::from_ms(from),
                        SimTime::from_ms(until),
                        jitter,
                    )
                    .on_shard(shard),
                );
            }
            5 if matches!(s.kind, ProtocolKind::Sc | ProtocolKind::Scr) => {
                // The Byzantine script: value-domain corruption, lowered
                // onto `Protocol::Byz` by the scenario runner.
                let o = SeqNo(1 + rng.below(32));
                s.faults
                    .push(ScenarioFault::corrupt_order_at(process, o).on_shard(shard));
            }
            5 | 6 => {
                // Partition shape: a minority of f processes of one
                // group go simultaneously silent for one shared window.
                let (from, until) = window_ms(rng, end_ms);
                let start = rng.below(n);
                for i in 0..u64::from(s.knobs.f) {
                    let p = ProcessId(((start + i) % n) as u32);
                    s.faults.push(
                        ScenarioFault::mute_until(
                            p,
                            SimTime::from_ms(from),
                            SimTime::from_ms(until),
                        )
                        .on_shard(shard),
                    );
                }
            }
            _ => {
                // Client-load mutation: perturb one client, or add one.
                if s.clients.is_empty() || rng.below(4) == 0 {
                    s.clients
                        .push(ClientLoad::constant((10 + rng.below(200)) as f64, 100));
                } else {
                    let i = rng.below(s.clients.len() as u64) as usize;
                    if rng.below(2) == 0 {
                        s.clients[i].rate_per_sec = (10 + rng.below(400)) as f64;
                    } else {
                        s.clients[i].population = 1 + rng.below(4) as usize;
                    }
                }
            }
        }
    }
    s
}

/// Runs the scenario without the panicking safety net and returns the
/// chosen oracle's violation, if any. Invalid or unrunnable candidates
/// count as non-failing (the shrinker must never widen into them).
fn failure(scenario: &Scenario, oracle: &Oracle) -> Option<String> {
    if scenario.validate().is_err() {
        return None;
    }
    match run_traced_unchecked(scenario) {
        Ok((_, events)) => oracle.check(scenario, &events).err(),
        Err(_) => None,
    }
}

/// Greedy deterministic delta debugging: repeatedly tries the ordered
/// reduction passes (drop faults, drop clients, halve load, shrink the
/// window, tighten fault windows, small seeds) and keeps any step after
/// which `oracle` still fails, until a full sweep makes no progress.
/// Returns the minimal scenario and its violation description.
pub fn shrink(start: &Scenario, oracle: &Oracle) -> (Scenario, String) {
    let mut cur = start.clone();
    let mut err = failure(&cur, oracle).expect("shrink starts from a failing scenario");
    let accept = |cur: &mut Scenario, err: &mut String, cand: Scenario| -> bool {
        match failure(&cand, oracle) {
            Some(e) => {
                *cur = cand;
                *err = e;
                true
            }
            None => false,
        }
    };
    loop {
        let mut progressed = false;

        // Drop whole faults, front to back.
        let mut i = 0;
        while i < cur.faults.len() {
            let mut cand = cur.clone();
            cand.faults.remove(i);
            if accept(&mut cur, &mut err, cand) {
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Drop whole clients.
        let mut i = 0;
        while i < cur.clients.len() {
            let mut cand = cur.clone();
            cand.clients.remove(i);
            if accept(&mut cur, &mut err, cand) {
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Halve each client's rate and population toward 1.
        for i in 0..cur.clients.len() {
            loop {
                let halved = (cur.clients[i].rate_per_sec / 2.0).floor().max(1.0);
                if halved >= cur.clients[i].rate_per_sec {
                    break;
                }
                let mut cand = cur.clone();
                cand.clients[i].rate_per_sec = halved;
                if accept(&mut cur, &mut err, cand) {
                    progressed = true;
                } else {
                    break;
                }
            }
            loop {
                let halved = (cur.clients[i].population / 2).max(1);
                if halved >= cur.clients[i].population {
                    break;
                }
                let mut cand = cur.clone();
                cand.clients[i].population = halved;
                if accept(&mut cur, &mut err, cand) {
                    progressed = true;
                } else {
                    break;
                }
            }
        }

        // Shrink the measurement window: run toward warmup + 1, drain
        // toward 0.
        loop {
            let span = cur.window.run_s - cur.window.warmup_s;
            if span <= 1 {
                break;
            }
            let mut cand = cur.clone();
            cand.window.run_s = cur.window.warmup_s + (span / 2).max(1);
            if accept(&mut cur, &mut err, cand) {
                progressed = true;
            } else {
                break;
            }
        }
        loop {
            if cur.window.drain_s == 0 {
                break;
            }
            let mut cand = cur.clone();
            cand.window.drain_s = cur.window.drain_s / 2;
            if accept(&mut cur, &mut err, cand) {
                progressed = true;
            } else {
                break;
            }
        }

        // Tighten each fault window: pull `until` toward `from`, and
        // crash instants toward 0 (ms-aligned, like the grammar).
        for i in 0..cur.faults.len() {
            loop {
                use sofb_harness::scenario::ScenarioFaultKind as K;
                let kind = cur.faults[i].kind;
                let cand_kind = match kind {
                    K::Crash { at } if at.as_ns() >= 2_000_000 => {
                        let ms = at.as_ns() / 1_000_000;
                        Some(K::Crash {
                            at: SimTime::from_ms(ms / 2),
                        })
                    }
                    K::Mute {
                        from,
                        until: Some(u),
                    } if shrunken_until(from, u).is_some() => Some(K::Mute {
                        from,
                        until: shrunken_until(from, u),
                    }),
                    K::Delay {
                        from,
                        until: Some(u),
                        extra,
                    } if shrunken_until(from, u).is_some() => Some(K::Delay {
                        from,
                        until: shrunken_until(from, u),
                        extra,
                    }),
                    K::Duplicate {
                        from,
                        until: Some(u),
                    } if shrunken_until(from, u).is_some() => Some(K::Duplicate {
                        from,
                        until: shrunken_until(from, u),
                    }),
                    K::Reorder {
                        from,
                        until: Some(u),
                        jitter,
                    } if shrunken_until(from, u).is_some() => Some(K::Reorder {
                        from,
                        until: shrunken_until(from, u),
                        jitter,
                    }),
                    _ => None,
                };
                let Some(cand_kind) = cand_kind else { break };
                let mut cand = cur.clone();
                cand.faults[i].kind = cand_kind;
                if accept(&mut cur, &mut err, cand) {
                    progressed = true;
                } else {
                    break;
                }
            }
        }

        // Prefer a small, human-auditable world seed. Only strictly
        // smaller seeds are candidates: every pass in this loop must be
        // monotone or the fixpoint sweep would ping-pong forever.
        for seed in 0..4u64 {
            if seed >= cur.knobs.seed {
                break;
            }
            let mut cand = cur.clone();
            cand.knobs.seed = seed;
            if accept(&mut cur, &mut err, cand) {
                progressed = true;
                break;
            }
        }

        if !progressed {
            break;
        }
    }
    (cur, err)
}

/// The midpoint of `[from, until)` in whole milliseconds, if it still
/// leaves a non-empty window.
fn shrunken_until(from: SimTime, until: SimTime) -> Option<SimTime> {
    let from_ms = from.as_ns() / 1_000_000;
    let until_ms = until.as_ns() / 1_000_000;
    let mid = from_ms + (until_ms - from_ms) / 2;
    (mid > from_ms).then(|| SimTime::from_ms(mid))
}

/// Runs one fuzz campaign over mutants of `base`. Each violation is
/// shrunk before it is reported; the summary's scenarios are minimal
/// failing cases ready for [`Violation::repro_text`].
pub fn fuzz(base: &Scenario, opts: &FuzzOptions) -> Result<FuzzSummary, ScenarioError> {
    let oracles = if opts.oracles.is_empty() {
        Oracle::defaults()
    } else {
        opts.oracles.clone()
    };
    let mut summary = FuzzSummary::default();
    for run in 0..opts.runs {
        let mut rng = Rng::for_run(opts.seed, run as u64);
        let mutant = mutate(base, &mut rng);
        if mutant.validate().is_err() {
            // The mutator aims to stay in the valid envelope; anything
            // that escapes it is skipped, not fatal.
            continue;
        }
        let (_, events) = run_traced_unchecked(&mutant)?;
        summary.executed += 1;
        for oracle in &oracles {
            if oracle.check(&mutant, &events).is_err() {
                let (scenario, error) = shrink(&mutant, oracle);
                summary.violations.push(Violation {
                    oracle: oracle.clone(),
                    error,
                    scenario,
                    run,
                });
                break;
            }
        }
        if opts.max_violations > 0 && summary.violations.len() >= opts.max_violations {
            break;
        }
    }
    Ok(summary)
}

/// A failed [`replay`]: the pinned spec did not do what its `[meta]`
/// verdict says.
#[derive(Clone, Debug)]
pub enum ReplayError {
    /// The spec pins no `[meta] verdict`, so there is nothing to assert.
    NoVerdict,
    /// The spec names an oracle [`Oracle::parse`] does not know.
    UnknownOracle(String),
    /// The pinned scenario no longer validates or runs.
    Scenario(ScenarioError),
    /// The run's outcome contradicts the pinned verdict.
    Mismatch {
        /// The verdict the spec pins.
        expected: Verdict,
        /// What actually happened (violation list, or "all oracles
        /// passed").
        detail: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::NoVerdict => {
                write!(f, "spec pins no `[meta] verdict`; nothing to assert")
            }
            ReplayError::UnknownOracle(name) => write!(
                f,
                "unknown oracle `{name}` (expected total_order, exactly_once \
                 or commit_cap:N)"
            ),
            ReplayError::Scenario(e) => write!(f, "{e}"),
            ReplayError::Mismatch { expected, detail } => {
                write!(f, "pinned verdict `{expected}` not reproduced: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Re-runs a pinned spec's base scenario once and asserts its `[meta]`
/// verdict: a `violation` spec must fail its named oracle again, a
/// `pass` spec must satisfy every checked oracle. Returns the verdict's
/// human-readable confirmation. This is what `sofb fuzz --replay` and
/// the CI gate over `specs/repros/` run.
pub fn replay(spec: &Spec) -> Result<String, ReplayError> {
    let verdict = spec.verdict.ok_or(ReplayError::NoVerdict)?;
    let oracles = match &spec.oracle {
        Some(name) => {
            vec![Oracle::parse(name).ok_or_else(|| ReplayError::UnknownOracle(name.clone()))?]
        }
        None => Oracle::defaults(),
    };
    let (_, events) = run_traced_unchecked(&spec.base).map_err(ReplayError::Scenario)?;
    let failures: Vec<String> = oracles
        .iter()
        .filter_map(|o| {
            o.check(&spec.base, &events)
                .err()
                .map(|e| format!("{o}: {e}"))
        })
        .collect();
    match (verdict, failures.is_empty()) {
        (Verdict::Pass, true) => Ok(format!(
            "verdict `pass` reproduced: {} oracle(s) hold",
            oracles.len()
        )),
        (Verdict::Violation, false) => Ok(format!(
            "verdict `violation` reproduced: {}",
            failures.join("; ")
        )),
        (expected, _) => Err(ReplayError::Mismatch {
            expected,
            detail: if failures.is_empty() {
                "all oracles passed".to_string()
            } else {
                failures.join("; ")
            },
        }),
    }
}
