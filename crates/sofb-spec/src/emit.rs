//! Serializing a scenario back into `.scn` text — the repro emitter.
//!
//! The fuzzer's endgame is a *committable* minimal failing case: a spec
//! file under `specs/repros/` that re-parses through [`Spec::parse`] and
//! reproduces the violation bit-identically. [`emit_spec`] is that
//! serializer. It writes every scenario knob explicitly (a repro must
//! not drift when defaults do), pins the oracle and verdict in `[meta]`,
//! and refuses scenarios the grammar cannot express — non-default link
//! or CPU models, sub-millisecond durations — rather than silently
//! rounding them.
//!
//! [`Spec::parse`]: crate::spec::Spec::parse

use std::fmt;
use std::fmt::Write as _;

use sofb_harness::scenario::{Scenario, ScenarioFaultKind};
use sofb_harness::{Arrival, Links};
use sofb_sim::cpu::CpuModel;
use sofb_sim::time::{SimDuration, SimTime};

use crate::spec::Verdict;

/// A scenario that cannot be expressed in the `.scn` grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EmitError {
    /// The scenario overrides the link shape; the grammar has no link
    /// keys, so emitting would silently drop the override.
    NonDefaultLinks,
    /// The scenario overrides the CPU model; the grammar has no CPU
    /// keys.
    NonDefaultCpu,
    /// The named duration is not millisecond-aligned; `.scn` durations
    /// are integral milliseconds and must round-trip exactly.
    SubMillisecond {
        /// Which knob carried the inexpressible duration.
        what: &'static str,
    },
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::NonDefaultLinks => {
                write!(f, "scenario overrides links; specs have no link keys")
            }
            EmitError::NonDefaultCpu => {
                write!(
                    f,
                    "scenario overrides the CPU model; specs have no CPU keys"
                )
            }
            EmitError::SubMillisecond { what } => {
                write!(f, "{what} is not millisecond-aligned")
            }
        }
    }
}

impl std::error::Error for EmitError {}

const NS_PER_MS: u64 = 1_000_000;

fn duration_ms(d: SimDuration, what: &'static str) -> Result<u64, EmitError> {
    if !d.0.is_multiple_of(NS_PER_MS) {
        return Err(EmitError::SubMillisecond { what });
    }
    Ok(d.0 / NS_PER_MS)
}

fn time_ms(t: SimTime, what: &'static str) -> Result<u64, EmitError> {
    if !t.as_ns().is_multiple_of(NS_PER_MS) {
        return Err(EmitError::SubMillisecond { what });
    }
    Ok(t.as_ns() / NS_PER_MS)
}

/// Serializes a single-point scenario as `.scn` text with a pinned
/// `[meta]` oracle and verdict. The output re-parses (through
/// [`Spec::parse`](crate::spec::Spec::parse)) to a spec whose base
/// scenario equals `scenario` — the round-trip the repro tests pin.
pub fn emit_spec(
    title: &str,
    oracle: &str,
    verdict: Verdict,
    scenario: &Scenario,
) -> Result<String, EmitError> {
    if scenario.links != Links::default() {
        return Err(EmitError::NonDefaultLinks);
    }
    if scenario.cpu != CpuModel::default() {
        return Err(EmitError::NonDefaultCpu);
    }

    let mut out = String::new();
    let k = &scenario.knobs;
    let _ = writeln!(out, "[meta]");
    let _ = writeln!(out, "title = {title}");
    let _ = writeln!(out, "oracle = {oracle}");
    let _ = writeln!(out, "verdict = {verdict}");
    let _ = writeln!(out);
    let _ = writeln!(out, "[scenario]");
    let _ = writeln!(out, "kind = {}", scenario.kind);
    let _ = writeln!(out, "f = {}", k.f);
    let _ = writeln!(out, "scheme = {}", k.scheme);
    let _ = writeln!(out, "seed = {}", k.seed);
    let _ = writeln!(
        out,
        "interval_ms = {}",
        duration_ms(k.batching_interval, "interval_ms")?
    );
    let _ = writeln!(out, "batch_max_bytes = {}", k.batch_max_bytes);
    let _ = writeln!(
        out,
        "order_timeout_ms = {}",
        duration_ms(k.order_timeout, "order_timeout_ms")?
    );
    let _ = writeln!(
        out,
        "heartbeat_period_ms = {}",
        duration_ms(k.heartbeat_period, "heartbeat_period_ms")?
    );
    let _ = writeln!(out, "heartbeat_misses = {}", k.heartbeat_misses);
    let _ = writeln!(out, "recovery_beats = {}", k.recovery_beats);
    let _ = writeln!(out, "checkpoint_interval = {}", k.checkpoint_interval);
    let _ = writeln!(out, "backlog_pad = {}", k.backlog_pad);
    let _ = writeln!(
        out,
        "time_checks = {}",
        if k.time_checks { "on" } else { "off" }
    );
    match k.request_timeout {
        None => {
            let _ = writeln!(out, "request_timeout_ms = none");
        }
        Some(d) => {
            let _ = writeln!(
                out,
                "request_timeout_ms = {}",
                duration_ms(d, "request_timeout_ms")?
            );
        }
    }
    let _ = writeln!(out, "shards = {}", scenario.shards);
    // 0 is the programmatic legacy-path default the grammar rejects;
    // omitting the key reproduces it.
    if scenario.world_workers > 0 {
        let _ = writeln!(out, "world_workers = {}", scenario.world_workers);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "[window]");
    let _ = writeln!(out, "warmup_s = {}", scenario.window.warmup_s);
    let _ = writeln!(out, "run_s = {}", scenario.window.run_s);
    let _ = writeln!(out, "drain_s = {}", scenario.window.drain_s);

    for c in &scenario.clients {
        let _ = writeln!(out);
        let _ = writeln!(out, "[client]");
        // `{}` on f64 prints the shortest representation that parses
        // back to the same value — exact round-trip.
        let _ = writeln!(out, "rate = {}", c.rate_per_sec);
        let _ = writeln!(out, "size = {}", c.request_size);
        let _ = writeln!(
            out,
            "arrival = {}",
            match c.arrival {
                Arrival::Constant => "constant",
                Arrival::Poisson => "poisson",
            }
        );
        let _ = writeln!(out, "population = {}", c.population);
    }

    for fault in &scenario.faults {
        let _ = writeln!(out);
        let _ = writeln!(out, "[fault]");
        let window =
            |out: &mut String, from: SimTime, until: Option<SimTime>| -> Result<(), EmitError> {
                writeln!(out, "from_ms = {}", time_ms(from, "fault from_ms")?).ok();
                if let Some(u) = until {
                    writeln!(out, "until_ms = {}", time_ms(u, "fault until_ms")?).ok();
                }
                Ok(())
            };
        match fault.kind {
            ScenarioFaultKind::Crash { at } => {
                let _ = writeln!(out, "kind = crash");
                let _ = writeln!(out, "process = {}", fault.process.0);
                let _ = writeln!(out, "at_ms = {}", time_ms(at, "fault at_ms")?);
            }
            ScenarioFaultKind::Mute { from, until } => {
                let _ = writeln!(out, "kind = mute");
                let _ = writeln!(out, "process = {}", fault.process.0);
                window(&mut out, from, until)?;
            }
            ScenarioFaultKind::Delay { from, until, extra } => {
                let _ = writeln!(out, "kind = delay");
                let _ = writeln!(out, "process = {}", fault.process.0);
                let _ = writeln!(out, "extra_ms = {}", duration_ms(extra, "fault extra_ms")?);
                window(&mut out, from, until)?;
            }
            ScenarioFaultKind::Duplicate { from, until } => {
                let _ = writeln!(out, "kind = duplicate");
                let _ = writeln!(out, "process = {}", fault.process.0);
                window(&mut out, from, until)?;
            }
            ScenarioFaultKind::Reorder {
                from,
                until,
                jitter,
            } => {
                let _ = writeln!(out, "kind = reorder");
                let _ = writeln!(out, "process = {}", fault.process.0);
                let _ = writeln!(
                    out,
                    "jitter_ms = {}",
                    duration_ms(jitter, "fault jitter_ms")?
                );
                window(&mut out, from, until)?;
            }
            ScenarioFaultKind::CorruptOrderAt { o } => {
                let _ = writeln!(out, "kind = corrupt_order");
                let _ = writeln!(out, "process = {}", fault.process.0);
                let _ = writeln!(out, "seq = {}", o.0);
            }
        }
        if fault.shard != 0 {
            let _ = writeln!(out, "shard = {}", fault.shard);
        }
    }

    Ok(out)
}
