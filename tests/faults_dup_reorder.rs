//! Engine-level message duplication and reordering faults: the two
//! adversarial axes added for the fuzzer, checked here outside it.
//!
//! The contract has three parts. (1) An inactive window is a perfect
//! no-op: the engine draws no RNG for it, so the trace is bit-identical
//! to the fault-free run — which is what keeps every golden trace and
//! the `BENCH_protocols*.json` gate stable. (2) An active window changes the
//! schedule *deterministically*: same scenario, same trace, every time.
//! (3) Every variant stays safe under both faults (the run's built-in
//! total-order check stays on), flat or sharded-parallel.

use sofbyz::harness::ProtocolKind;
use sofbyz::proto::ids::ProcessId;
use sofbyz::scenario::{run_traced, ClientLoad, ProtocolEvent, Scenario, ScenarioFault, Window};
use sofbyz::sim::engine::TimedEvent;
use sofbyz::sim::time::{SimDuration, SimTime};

fn base(kind: ProtocolKind) -> Scenario {
    Scenario::new(kind)
        .seed(33)
        .interval_ms(80)
        .client(ClientLoad::constant(80.0, 100))
        .window(Window {
            warmup_s: 0,
            run_s: 2,
            drain_s: 3,
        })
}

fn triples(events: Vec<TimedEvent<ProtocolEvent>>) -> Vec<(SimTime, usize, ProtocolEvent)> {
    events
        .into_iter()
        .map(|e| (e.time, e.node, e.event))
        .collect()
}

fn trace_of(s: &Scenario) -> Vec<(SimTime, usize, ProtocolEvent)> {
    let (report, events) = run_traced(s).expect("scenario runs");
    assert!(report.committed_requests() > 0, "vacuous run");
    triples(events)
}

/// Windows that never open draw no randomness and change nothing: the
/// trace with both faults scheduled beyond the horizon is bit-identical
/// to the fault-free trace.
#[test]
fn inactive_dup_and_reorder_windows_are_bit_identical_noops() {
    let plain = base(ProtocolKind::Sc);
    let beyond = SimTime::from_secs(100);
    let further = SimTime::from_secs(101);
    let armed = base(ProtocolKind::Sc)
        .fault(ScenarioFault::duplicate_until(
            ProcessId(0),
            beyond,
            further,
        ))
        .fault(ScenarioFault::reorder_until(
            ProcessId(1),
            beyond,
            further,
            SimDuration::from_ms(20),
        ));
    assert_eq!(trace_of(&plain), trace_of(&armed));
}

/// An active duplication window actually perturbs the schedule — and
/// does so deterministically (same scenario, same trace).
#[test]
fn active_duplicate_window_is_deterministic_and_not_a_noop() {
    let armed = base(ProtocolKind::Sc).fault(ScenarioFault::duplicate_until(
        ProcessId(0),
        SimTime::ZERO,
        SimTime::from_secs(2),
    ));
    let t1 = trace_of(&armed);
    assert_eq!(t1, trace_of(&armed), "duplication replay diverged");
    assert_ne!(
        t1,
        trace_of(&base(ProtocolKind::Sc)),
        "an active duplication window should change the schedule"
    );
}

/// Same contract for reordering: deterministic, and not a no-op while
/// the window is open.
#[test]
fn active_reorder_window_is_deterministic_and_not_a_noop() {
    let armed = base(ProtocolKind::Sc).fault(ScenarioFault::reorder_until(
        ProcessId(0),
        SimTime::ZERO,
        SimTime::from_secs(2),
        SimDuration::from_ms(30),
    ));
    let t1 = trace_of(&armed);
    assert_eq!(t1, trace_of(&armed), "reorder replay diverged");
    assert_ne!(
        t1,
        trace_of(&base(ProtocolKind::Sc)),
        "an active reorder window should change the schedule"
    );
}

/// All four variants run, commit, and stay safe under simultaneous
/// duplication and reordering (`run_traced` keeps the panicking
/// total-order check on).
#[test]
fn every_variant_stays_safe_under_dup_and_reorder() {
    for kind in [
        ProtocolKind::Sc,
        ProtocolKind::Scr,
        ProtocolKind::Bft,
        ProtocolKind::Ct,
    ] {
        let s = base(kind)
            .fault(ScenarioFault::duplicate_until(
                ProcessId(1),
                SimTime::ZERO,
                SimTime::from_secs(2),
            ))
            .fault(ScenarioFault::reorder_until(
                ProcessId(2),
                SimTime::from_ms(500),
                SimTime::from_ms(1500),
                SimDuration::from_ms(10),
            ));
        let (report, _) = run_traced(&s).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(report.committed_requests() > 0, "{kind}: nothing committed");
    }
}

/// Sharded-parallel bit-identity holds with dup/reorder in the fault
/// plan: shard engines replay the faults identically at any worker
/// count.
#[test]
fn dup_and_reorder_run_bit_identical_in_parallel() {
    // Every shard receives a client's rate: halve it so each of the two
    // shards carries the flat world's load.
    let one = base(ProtocolKind::Sc)
        .clients(1, ClientLoad::constant(40.0, 100))
        .shards(2)
        .world_workers(1)
        .fault(
            ScenarioFault::duplicate_until(ProcessId(0), SimTime::ZERO, SimTime::from_secs(2))
                .on_shard(1),
        )
        .fault(
            ScenarioFault::reorder_until(
                ProcessId(1),
                SimTime::ZERO,
                SimTime::from_secs(2),
                SimDuration::from_ms(15),
            )
            .on_shard(0),
        );
    let two = one.clone().world_workers(2);
    let (r1, t1) = run_traced(&one).unwrap();
    let (r2, t2) = run_traced(&two).unwrap();
    assert!(r1.committed_requests() > 0);
    assert_eq!(triples(t1), triples(t2), "parallel traces differ");
    assert_eq!(r1, r2, "parallel reports differ");
}
