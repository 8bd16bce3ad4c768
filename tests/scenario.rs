//! The declarative Scenario layer's integration contract:
//!
//! * **Golden equivalence** — a `shards = 1` scenario realizes the
//!   *bit-identical* `(time, node, kind)` event trace of the legacy flat
//!   `WorldBuilder` deployment, fault plans included, on all four
//!   variants. The scenario layer is a description, not a new code
//!   path.
//! * **Sweep determinism** — the same `SweepGrid` executed with 1 worker
//!   thread and with N worker threads yields identical `GridReport`s
//!   (order and values), for a grid spanning all four variants.
//! * **Typed rejection** — malformed specs come back as `ScenarioError`
//!   values naming the offending field, never as panics, through the
//!   full dispatching runner.

use sofbyz::bft::sim::BftProtocol;
use sofbyz::core::sim::ScProtocol;
use sofbyz::ct::sim::CtProtocol;
use sofbyz::harness::{ClientSpec, FaultSpec, Protocol, ProtocolEvent, ProtocolKind, WorldBuilder};
use sofbyz::proto::ids::ProcessId;
use sofbyz::proto::topology::Variant;
use sofbyz::scenario::{
    self, Axis, ClientLoad, Scenario, ScenarioError, ScenarioFault, SweepGrid, Window,
};
use sofbyz::sim::engine::TimedEvent;
use sofbyz::sim::time::{SimDuration, SimTime};

/// The legacy-path reference: the flat builder driven by hand, exactly
/// as the pre-scenario harness tests drive it.
fn legacy_flat<P: Protocol>(
    seed: u64,
    variant: Option<Variant>,
    fault: Option<(ProcessId, FaultSpec<P::Byz>)>,
) -> Vec<TimedEvent<ProtocolEvent>> {
    let mut b = WorldBuilder::<P>::new(1)
        .seed(seed)
        .batching_interval(SimDuration::from_ms(80))
        .client(ClientSpec {
            rate_per_sec: 120.0,
            request_size: 100,
            stop_at: SimTime::from_secs(2),
        });
    if let Some(v) = variant {
        b = b.variant(v);
    }
    if let Some((p, spec)) = fault {
        b = b.fault(p, spec);
    }
    let mut d = b.build();
    d.start();
    d.run_until(SimTime::from_secs(6));
    d.world.drain_events()
}

/// The same experiment as a declarative scenario: clients stop at
/// `run_s = 2`, the world drains until second 6.
fn equivalent_scenario(kind: ProtocolKind, seed: u64) -> Scenario {
    Scenario::new(kind)
        .seed(seed)
        .interval_ms(80)
        .client(ClientLoad::constant(120.0, 100))
        .window(Window {
            warmup_s: 0,
            run_s: 2,
            drain_s: 4,
        })
}

fn assert_identical(
    name: &str,
    flat: &[TimedEvent<ProtocolEvent>],
    scen: &[TimedEvent<ProtocolEvent>],
) {
    assert!(!flat.is_empty(), "{name}: empty legacy trace");
    assert_eq!(flat.len(), scen.len(), "{name}: trace lengths differ");
    for (i, (a, b)) in flat.iter().zip(scen).enumerate() {
        assert!(
            a.time == b.time && a.node == b.node && a.event == b.event,
            "{name}: traces diverge at event {i}: \
             legacy ({:?}, node {}, {:?}) vs scenario ({:?}, node {}, {:?})",
            a.time,
            a.node,
            a.event,
            b.time,
            b.node,
            b.event
        );
    }
}

/// A one-shard `Scenario` lowers onto the very same flat world the
/// legacy builder assembles: full-trace equality on all four variants.
#[test]
fn one_shard_scenario_is_bit_identical_to_legacy_flat_builder() {
    let seed = 17;
    let cases: [(&str, ProtocolKind, Vec<TimedEvent<ProtocolEvent>>); 4] = [
        (
            "SC",
            ProtocolKind::Sc,
            legacy_flat::<ScProtocol>(seed, Some(Variant::Sc), None),
        ),
        (
            "SCR",
            ProtocolKind::Scr,
            legacy_flat::<ScProtocol>(seed, Some(Variant::Scr), None),
        ),
        (
            "BFT",
            ProtocolKind::Bft,
            legacy_flat::<BftProtocol>(seed, None, None),
        ),
        (
            "CT",
            ProtocolKind::Ct,
            legacy_flat::<CtProtocol>(seed, None, None),
        ),
    ];
    for (name, kind, flat) in &cases {
        let (report, trace) =
            scenario::run_traced(&equivalent_scenario(*kind, seed)).expect("valid scenario");
        assert_identical(name, flat, &trace);
        assert!(
            report.committed_requests() > 0,
            "{name}: scenario run committed nothing"
        );
    }
}

/// The equivalence covers the fault plan: a crash declared in the
/// scenario realizes the legacy builder's exact schedule.
#[test]
fn scenario_fault_plan_matches_legacy_flat_builder() {
    let at = SimTime::from_secs(1);
    let flat = legacy_flat::<CtProtocol>(29, None, Some((ProcessId(2), FaultSpec::crash(at))));
    let s = equivalent_scenario(ProtocolKind::Ct, 29).fault(ScenarioFault::crash(ProcessId(2), at));
    let (_, trace) = scenario::run_traced(&s).expect("valid scenario");
    assert_identical("CT+crash", &flat, &trace);
}

/// One `SweepGrid` spanning all four variants: 1 worker and N workers
/// produce the same `GridReport` — same order, labels, seeds and metric
/// values.
#[test]
fn sweep_grid_is_deterministic_across_worker_counts() {
    let grid = SweepGrid::new(
        Scenario::new(ProtocolKind::Sc)
            .interval_ms(80)
            .client(ClientLoad::constant(120.0, 100))
            .window(Window {
                warmup_s: 0,
                run_s: 2,
                drain_s: 3,
            }),
    )
    .axis(Axis::kinds(&ProtocolKind::ALL))
    .seeds(&[11, 12]);

    let sequential = scenario::run_grid(&grid, 1).expect("grid runs sequentially");
    assert_eq!(sequential.points.len(), 8);
    for p in &sequential.points {
        assert!(
            p.report.committed_requests() > 0,
            "point {:?} committed nothing — the comparison would be vacuous",
            p.labels
        );
    }
    for workers in [2, 4, 8] {
        let parallel = scenario::run_grid(&grid, workers).expect("grid runs in parallel");
        assert!(
            sequential.same_results(&parallel),
            "{workers}-worker grid diverged from the sequential run"
        );
    }
}

/// Malformed specs surface as typed errors from the full runner — no
/// panics, and the message names the offending field.
#[test]
fn runner_rejects_malformed_specs_with_typed_errors() {
    // f = 0 would panic inside Topology::new on the legacy path.
    let err = scenario::run(&equivalent_scenario(ProtocolKind::Sc, 1).f(0)).unwrap_err();
    assert!(
        matches!(err, ScenarioError::InvalidResilience { f: 0, .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("`f`"), "{err}");

    // An empty measurement window.
    let err = scenario::run(&equivalent_scenario(ProtocolKind::Ct, 1).window(Window {
        warmup_s: 2,
        run_s: 2,
        drain_s: 0,
    }))
    .unwrap_err();
    assert!(matches!(err, ScenarioError::EmptyWindow { .. }), "{err:?}");

    // A fault window with until <= from.
    let err = scenario::run(&equivalent_scenario(ProtocolKind::Bft, 1).fault(
        ScenarioFault::mute_until(ProcessId(0), SimTime::from_secs(2), SimTime::from_secs(2)),
    ))
    .unwrap_err();
    assert!(matches!(err, ScenarioError::FaultWindow { .. }), "{err:?}");

    // A grid expansion propagates the failing point's index.
    let grid =
        SweepGrid::new(equivalent_scenario(ProtocolKind::Sc, 1)).axis(Axis::resiliences(&[1, 0]));
    let err = scenario::run_grid(&grid, 2).unwrap_err();
    assert!(
        matches!(err, ScenarioError::GridPoint { index: 1, .. }),
        "{err:?}"
    );
}

/// Lowering a scenario onto the wrong protocol implementation is a
/// typed error too (in release builds as well): the validator's
/// bounds-checks were made against the kind's layout, so a mismatched
/// `run_as` must not reach the builders.
#[test]
fn lowering_onto_the_wrong_protocol_is_rejected() {
    let s = equivalent_scenario(ProtocolKind::Bft, 1);
    let err = s.run_as::<CtProtocol>().unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::ProtocolMismatch {
                kind: ProtocolKind::Bft,
                protocol: "CT"
            }
        ),
        "{err:?}"
    );
}

/// Sharded scenarios run through the same spec: the 2-shard world
/// commits on both shards and reports an exact global rollup.
#[test]
fn sharded_scenario_runs_and_rolls_up() {
    let report = scenario::run(
        &equivalent_scenario(ProtocolKind::Ct, 23)
            .shards(2)
            .clients(2, ClientLoad::constant(80.0, 100)),
    )
    .expect("valid sharded scenario");
    assert_eq!(report.per_shard.len(), 2);
    for (s, shard) in report.per_shard.iter().enumerate() {
        assert!(shard.committed_requests > 0, "shard {s} idle");
    }
    assert!(report.global.p99_ms.is_some());
    assert!(report.aggregate_throughput > 0.0);
}
