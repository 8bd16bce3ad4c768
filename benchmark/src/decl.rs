//! What the benchmark declares: its workloads and every metric by name,
//! unit and direction. `BENCHMARK.json` at the repo root is this table
//! rendered (`run.sh declare`); a self-test keeps the two equal.

use crate::json::{self, Obj};

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 13;

/// Seed of the pinned simulated statistics and of `run.sh` without `--seed`.
pub const DEFAULT_SEED: u64 = 7;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    SimSteady,
    SimFailoverGrid,
    SimSharded,
    LiveClosed,
    LiveOpen,
    LiveFlood,
}

use Workload::*;

impl Workload {
    pub const ALL: [Workload; 6] = [
        SimSteady,
        SimFailoverGrid,
        SimSharded,
        LiveClosed,
        LiveOpen,
        LiveFlood,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SimSteady => "sim_steady",
            SimFailoverGrid => "sim_failover_grid",
            SimSharded => "sim_sharded",
            LiveClosed => "live_closed",
            LiveOpen => "live_open",
            LiveFlood => "live_flood",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sim(self) -> bool {
        matches!(self, SimSteady | SimFailoverGrid | SimSharded)
    }

    /// Why the workload exists (one line, ≤ 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            SimSteady => "Four 300 sim-s fault-free worlds (SC/SCR/BFT/CT): engine dispatch, protocol steps and codec do the work; long enough to show per-event cost that grows with run length.",
            SimFailoverGrid => "Paper Fig. 6, 600 faulted 8 sim-s points: validate/assemble/summarize/render and the fail-over path dominate, engine steady state matters little. The fault-injected run.",
            SimSharded => "2-shard world, 10^5-member Poisson population, 2 world workers: the only path through shard.rs/parallel.rs/population.rs.",
            LiveClosed => "Closed loop, 1 TCP connection, 1 op in flight against an in-process SC f=1 node: the per-op round-trip floor (poll quanta, reply framing, batching wait).",
            LiveOpen => "Open loop, Poisson arrivals at 40 ops/s pipelined on one connection, latency from the due time: queueing and batching wait below saturation.",
            LiveFlood => "32 requests kept in flight on one connection: capacity with concurrency available (today one op per batch tick).",
        }
    }
}

/// Which way a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::*;

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

/// An end-to-end metric: every workload reports it with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// A change smaller than this, in the metric's own unit, is no
    /// change whatever share of the median it is. `BENCHMARK.json` has
    /// no key for it; `run.sh compare` applies it.
    pub floor: f64,
}

/// What a user of either host sees. The driver's contract makes every
/// workload report every metric, so the issue's per-host names are
/// folded (README, "End-to-end metrics"): an *op* is an engine event
/// (sim: `ops_per_s` is the issue's `events_per_s`, `allocs_per_op` its
/// `allocs_per_event`) or an `ok` reply (live); the *request* whose
/// latency is timed is one run of the whole grid (sim: the issue's
/// `wall_s`, in ms) or one op (live). One bound per metric has to fit
/// all six workloads, so each is three times the widest spread seen over
/// ten seeds, rounded up.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.15,
        floor: 0.0,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        floor: 0.0,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        floor: 0.0,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Lower,
        bound: 0.10,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
        floor: 0.0,
    },
];

/// Whether `metric` repeats exactly on `workload` at one seed, so that
/// `run.sh compare` asks for identity instead of applying the bound: the
/// simulator's allocation count per engine event (the issue's exact
/// `allocs_per_event`). Live allocation counts depend on thread timing.
pub fn exact(metric: &str, workload: Workload) -> bool {
    metric == "allocs_per_op" && workload.is_sim()
}

/// A per-layer metric: measured in the traced run of the workload that
/// owns it (`owner`; `None` = every workload) and reported as 0 by the
/// others, whose runs do not exercise or do not time that layer.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub owner: Option<Workload>,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    owner: Workload,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        owner: Some(owner),
    }
}

/// The four ordering variants as metric prefixes, in `ProtocolKind::ALL` order.
pub const VARIANT_PREFIX: [&str; 4] = ["sofb-core.sc", "sofb-core.scr", "sofb-bft", "sofb-ct"];
/// The same four as `runtime.` infixes.
pub const VARIANT_SHORT: [&str; 4] = ["sc", "scr", "bft", "ct"];

pub const PER_LAYER: [PerLayer; 72] = [
    layer("sofb-crypto.sim_sign_ns", "ns", Lower, SimSteady),
    layer("sofb-crypto.sim_verify_ns", "ns", Lower, SimSteady),
    layer("sofb-crypto.digest_ns_100b", "ns", Lower, SimSteady),
    layer("sofb-crypto.rsa1024_sign_us", "us", Lower, SimSteady),
    layer("sofb-crypto.rsa1024_verify_us", "us", Lower, SimSteady),
    layer("sofb-proto.encode_ns", "ns", Lower, SimSteady),
    layer("sofb-proto.encoded_len_ns", "ns", Lower, SimSteady),
    layer("sofb-proto.decode_ns", "ns", Lower, SimSteady),
    layer("sofb-proto.backlog_ns_per_op", "ns", Lower, SimSteady),
    layer("sofb-sim.null_actor_ns_per_event", "ns", Lower, SimSteady),
    layer("sofb-sim.timer_rearm_ns", "ns", Lower, SimSteady),
    layer("sofb-sim.events", "count", Lower, SimSteady),
    layer("sofb-sim.heap_pushes_per_event", "count", Lower, SimSteady),
    layer("sofb-sim.arena_high_water", "count", Lower, SimSteady),
    layer("sofb-sim.timer_cascades", "count", Lower, SimSteady),
    layer("sofb-core.sc.ns_per_event", "ns", Lower, SimSteady),
    layer("sofb-core.scr.ns_per_event", "ns", Lower, SimSteady),
    layer("sofb-bft.ns_per_event", "ns", Lower, SimSteady),
    layer("sofb-ct.ns_per_event", "ns", Lower, SimSteady),
    layer("sofb-core.sc.long_run_slowdown", "ratio", Lower, SimSteady),
    layer("sofb-core.scr.long_run_slowdown", "ratio", Lower, SimSteady),
    layer("sofb-bft.long_run_slowdown", "ratio", Lower, SimSteady),
    layer("sofb-ct.long_run_slowdown", "ratio", Lower, SimSteady),
    layer("sofb-core.sc.order_latency_p50_ms", "ms", Lower, SimSteady),
    layer("sofb-core.sc.order_latency_p99_ms", "ms", Lower, SimSteady),
    layer("sofb-core.sc.throughput_req_s", "1/s", Higher, SimSteady),
    layer("sofb-core.sc.msgs_per_batch", "count", Lower, SimSteady),
    layer("sofb-core.scr.order_latency_p50_ms", "ms", Lower, SimSteady),
    layer("sofb-core.scr.order_latency_p99_ms", "ms", Lower, SimSteady),
    layer("sofb-core.scr.throughput_req_s", "1/s", Higher, SimSteady),
    layer("sofb-core.scr.msgs_per_batch", "count", Lower, SimSteady),
    layer("sofb-bft.order_latency_p50_ms", "ms", Lower, SimSteady),
    layer("sofb-bft.order_latency_p99_ms", "ms", Lower, SimSteady),
    layer("sofb-bft.throughput_req_s", "1/s", Higher, SimSteady),
    layer("sofb-bft.msgs_per_batch", "count", Lower, SimSteady),
    layer("sofb-ct.order_latency_p50_ms", "ms", Lower, SimSteady),
    layer("sofb-ct.order_latency_p99_ms", "ms", Lower, SimSteady),
    layer("sofb-ct.throughput_req_s", "1/s", Higher, SimSteady),
    layer("sofb-ct.msgs_per_batch", "count", Lower, SimSteady),
    layer(
        "sofb-core.sc.failover_ms_mean",
        "ms",
        Lower,
        SimFailoverGrid,
    ),
    layer(
        "sofb-core.scr.failover_ms_mean",
        "ms",
        Lower,
        SimFailoverGrid,
    ),
    layer("sofb-harness.validate_us", "us", Lower, SimFailoverGrid),
    layer("sofb-harness.assemble_us", "us", Lower, SimFailoverGrid),
    layer(
        "sofb-harness.analysis_ns_per_event",
        "ns",
        Lower,
        SimFailoverGrid,
    ),
    layer(
        "sofb-harness.allocs_per_point_outside_run",
        "count",
        Lower,
        SimFailoverGrid,
    ),
    layer("sofb-harness.parallel_speedup", "ratio", Higher, SimSharded),
    layer(
        "sofb-harness.grid_speedup",
        "ratio",
        Higher,
        SimFailoverGrid,
    ),
    layer("sofb-spec.parse_us", "us", Lower, SimFailoverGrid),
    layer("sofb-spec.grid_expand_us", "us", Lower, SimFailoverGrid),
    layer("sofb-spec.render_ms", "ms", Lower, SimFailoverGrid),
    layer("sofb-spec.check_ms", "ms", Lower, SimFailoverGrid),
    layer("sofb-obs.trace_overhead_ratio", "ratio", Lower, SimSteady),
    layer("sofb-obs.records_per_event", "count", Lower, SimSteady),
    layer("sofb-obs.chrome_render_mb_s", "MB/s", Higher, SimSteady),
    layer("sofb-obs.json_parse_mb_s", "MB/s", Higher, SimSteady),
    layer("sofb-app.kv_apply_ns", "ns", Lower, LiveClosed),
    layer("runtime.spawn_ms", "ms", Lower, LiveClosed),
    layer("runtime.sc.submit_to_reply_ms", "ms", Lower, LiveClosed),
    layer("runtime.scr.submit_to_reply_ms", "ms", Lower, LiveClosed),
    layer("runtime.bft.submit_to_reply_ms", "ms", Lower, LiveClosed),
    layer("runtime.ct.submit_to_reply_ms", "ms", Lower, LiveClosed),
    layer("runtime.handle_line_ms", "ms", Lower, LiveClosed),
    layer("runtime.node_drive_us", "us", Lower, LiveClosed),
    layer("runtime.commit_apply_us", "us", Lower, LiveClosed),
    layer("runtime.polls_per_op", "count", Lower, LiveClosed),
    layer("runtime.socket_gap_ms", "ms", Lower, LiveClosed),
    layer("runtime.ops_per_batch", "count", Higher, LiveFlood),
    layer("runtime.call_roundtrip_ms", "ms", Lower, LiveClosed),
    layer("runtime.shutdown_ms", "ms", Lower, LiveClosed),
    layer("runtime.cross_validate_ms", "ms", Lower, LiveClosed),
    layer("loadgen.late_ms_p95", "ms", Lower, LiveOpen),
    PerLayer {
        name: "bench.trace_overhead_ratio",
        unit: "ratio",
        better: Lower,
        owner: None,
    },
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {}",
                Obj::new()
                    .str("name", w.name())
                    .str("why", w.why())
                    .finish()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let o = Obj::new()
                .str("name", m.name)
                .str("unit", m.unit)
                .str("better", m.better.as_str())
                .num("bound", m.bound);
            format!("    {}", o.finish())
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            let o = Obj::new()
                .str("name", m.name)
                .str("unit", m.unit)
                .str("better", m.better.as_str());
            format!("    {}", o.finish())
        })
        .collect();
    let list = |items: &[String]| format!("[\n{}\n  ]", items.join(",\n"));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        json::array(&["\"bash\"".to_string(), "\"benchmark/run.sh\"".to_string()]),
        json::array(&["\"benchmark\"".to_string()]),
        list(&workloads),
        list(&end_to_end),
        list(&per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert!(seen.insert(w.name()));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_declared_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh declare`"
        );
        assert!(committed.len() <= 64 * 1024);
        let doc = json::parse(committed).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.each_ref().map(|m| m.name.to_string())
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.each_ref().map(|m| m.name.to_string())
        );
        assert_eq!(
            json::num_field(&doc, "run_seconds"),
            Some(RUN_SECONDS as f64)
        );
    }
}
