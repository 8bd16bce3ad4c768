//! Sharded-world correctness: seeded sweeps over {2, 4, 8} ordering
//! groups × all four protocol variants through the one multi-shard
//! lowering (`Scenario` with `shards > 1`: an isolated engine per shard,
//! traces merged by `(time, shard)`), asserting the three sharding
//! invariants —
//!
//! 1. **per-shard total order** (each group is a safe total-order
//!    instance of its protocol),
//! 2. **no cross-shard request leakage** (every request commits only in
//!    the shard the router assigned it to), and
//! 3. **exactly-once delivery per request id** (no request is ordered
//!    twice, in one shard or across shards) —
//!
//! plus determinism and the per-shard engine accounting.

use sofbyz::harness::{analysis, ProtocolEvent, ProtocolKind};
use sofbyz::scenario::{run_traced, ClientLoad, Report, RouterPolicy, Scenario, Window};
use sofbyz::sim::engine::TimedEvent;

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// The identical workload every sharded variant is subjected to: one
/// 120 req/s client whose *total* offered load is spread over the
/// shards by the router, stopping at 2 s; the world drains until 6 s.
fn world(kind: ProtocolKind, shards: usize, seed: u64) -> Scenario {
    Scenario::new(kind)
        .seed(seed)
        .interval_ms(80)
        .shards(shards)
        .client(ClientLoad::constant(120.0, 100))
        .window(Window {
            warmup_s: 0,
            run_s: 2,
            drain_s: 4,
        })
}

fn run(s: &Scenario) -> (Report, Vec<TimedEvent<ProtocolEvent>>) {
    run_traced(s).unwrap_or_else(|e| panic!("{e}"))
}

/// Checks the three sharding invariants on one run.
fn check_invariants(name: &str, s: &Scenario) {
    let (report, events) = run(s);
    let shards = s.shards;
    assert_eq!(report.per_shard.len(), shards, "{name}");
    let n = s.nodes_per_shard();

    // (1) Per-shard total order, and every shard made progress.
    let mut total_committed = 0usize;
    for shard in 0..shards {
        let part: Vec<TimedEvent<ProtocolEvent>> = events
            .iter()
            .filter(|e| e.node / n == shard)
            .cloned()
            .collect();
        analysis::check_total_order(&part)
            .unwrap_or_else(|e| panic!("{name} {shards} shards: shard {shard}: {e}"));
        let committed: usize = part
            .iter()
            .filter_map(|e| match &e.event {
                ProtocolEvent::Committed { requests, .. } => Some(*requests),
                _ => None,
            })
            .sum();
        assert!(
            committed > 0,
            "{name} {shards} shards: shard {shard} committed nothing"
        );
        total_committed += committed;
    }
    assert!(
        total_committed >= 100,
        "{name} {shards} shards: only {total_committed} commits"
    );

    // (2) + (3) The shared analysis checkers (the same ones the fuzzer's
    // oracles run): exactly-once commitment per request id, and every
    // commit in the shard the router assigned.
    analysis::check_exactly_once(&events, n)
        .unwrap_or_else(|e| panic!("{name} {shards} shards: {e}"));
    let router = s.router.build(shards).unwrap();
    analysis::check_no_cross_shard_leakage(&events, n, &router)
        .unwrap_or_else(|e| panic!("{name} {shards} shards: {e}"));
    let ordered = events.iter().any(|ev| {
        matches!(&ev.event, ProtocolEvent::Committed { request_ids, .. } if !request_ids.is_empty())
    });
    assert!(ordered, "{name}: no requests ordered at all");
}

#[test]
fn sc_sharded_invariants_hold() {
    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        check_invariants("SC", &world(ProtocolKind::Sc, shards, 51 + i as u64));
    }
}

#[test]
fn scr_sharded_invariants_hold() {
    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        check_invariants("SCR", &world(ProtocolKind::Scr, shards, 61 + i as u64));
    }
}

#[test]
fn bft_sharded_invariants_hold() {
    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        check_invariants("BFT", &world(ProtocolKind::Bft, shards, 71 + i as u64));
    }
}

#[test]
fn ct_sharded_invariants_hold() {
    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        check_invariants("CT", &world(ProtocolKind::Ct, shards, 81 + i as u64));
    }
}

/// The explicit-range policy routes and isolates exactly like the hash
/// policy (same invariants, different key→shard map).
#[test]
fn range_router_isolates_shards_too() {
    let s = world(ProtocolKind::Ct, 4, 91).router(RouterPolicy::EvenRanges);
    check_invariants("CT/ranges", &s);
}

/// Sharded worlds are deterministic end to end: two identical runs
/// realize the identical `(time, node)` observation sequence, and a
/// different seed a different one.
#[test]
fn sharded_world_is_deterministic() {
    let trace = |seed| {
        let (_, events) = run(&world(ProtocolKind::Sc, 4, seed));
        events
            .into_iter()
            .map(|e| (e.time, e.node, e.event))
            .collect::<Vec<_>>()
    };
    assert_eq!(trace(13), trace(13));
    assert_ne!(trace(13), trace(14));
}

/// Per-shard engine accounting: every shard's engine ran, and the
/// per-shard counters sum to the world-wide total.
#[test]
fn shard_stats_aggregate_per_group() {
    let (report, _) = run(&world(ProtocolKind::Ct, 4, 23));
    assert_eq!(report.engine_per_shard.len(), 4);
    for (s, engine) in report.engine_per_shard.iter().enumerate() {
        assert!(engine.events_processed > 0, "shard {s} never ran");
    }
    let sum: u64 = report
        .engine_per_shard
        .iter()
        .map(|e| e.events_processed)
        .sum();
    assert_eq!(sum, report.engine.events_processed);
}
