//! Checkpointing integration: logs are truncated under sustained load,
//! checkpoint digests agree across replicas, and fail-over still works
//! from a truncated log.

use sofb_core::config::Fault;
use sofb_core::events::ScEvent;
use sofb_core::sim::ScProtocol;
use sofb_harness::{analysis, ClientSpec, FaultSpec, WorldBuilder};
use sofb_proto::ids::{ProcessId, Rank, SeqNo};
use sofb_proto::topology::Variant;
use sofb_sim::time::{SimDuration, SimTime};

fn client(rate: f64, stop_s: u64) -> ClientSpec {
    ClientSpec::new(rate, 100, SimTime::from_secs(stop_s))
}

#[test]
fn checkpoints_stabilize_under_sustained_load() {
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(40))
        .checkpoint_interval(8)
        .client(client(300.0, 4))
        .seed(71)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(8));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();

    let stables: Vec<(usize, SeqNo)> = events
        .iter()
        .filter_map(|e| match e.event {
            ScEvent::CheckpointStable { o } => Some((e.node, o)),
            _ => None,
        })
        .collect();
    assert!(
        stables.len() >= d.n_processes,
        "every process should stabilize at least one checkpoint: {stables:?}"
    );
    // Stable points advance (more than one boundary crossed).
    let max_stable = stables.iter().map(|(_, o)| *o).max().unwrap();
    assert!(max_stable >= SeqNo(16), "stable reached {max_stable:?}");
}

#[test]
fn checkpointing_disabled_emits_nothing() {
    let mut d = WorldBuilder::<ScProtocol>::new(1)
        .batching_interval(SimDuration::from_ms(50))
        .checkpoint_interval(0)
        .client(client(200.0, 2))
        .seed(73)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(4));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    assert!(!events
        .iter()
        .any(|e| matches!(e.event, ScEvent::CheckpointStable { .. })));
}

#[test]
fn failover_after_truncation_still_works() {
    // Enough traffic to cross several checkpoint boundaries before the
    // fault fires; the BackLogs then come from truncated logs.
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(40))
        .checkpoint_interval(8)
        .client(client(300.0, 6))
        .fault(
            ProcessId(0),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(40))),
        )
        .seed(79)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(10));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();

    // Checkpoints stabilized before the fail-over...
    let first_stable = events
        .iter()
        .find(|e| matches!(e.event, ScEvent::CheckpointStable { .. }))
        .expect("checkpoints before the fault");
    let fs = events
        .iter()
        .find(|e| matches!(e.event, ScEvent::FailSignalIssued { .. }))
        .expect("fault detected");
    assert!(first_stable.time < fs.time, "truncation precedes fail-over");
    // ...and the install still succeeds and ordering continues.
    assert!(events
        .iter()
        .any(|e| matches!(e.event, ScEvent::Installed { c: Rank(2) })));
    assert!(events.iter().any(|e| matches!(
        &e.event,
        ScEvent::Committed { c: Rank(2), requests, .. } if *requests > 0
    )));
}

#[test]
fn scr_checkpoints_work_too() {
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .variant(Variant::Scr)
        .batching_interval(SimDuration::from_ms(40))
        .checkpoint_interval(8)
        .client(client(300.0, 4))
        .seed(83)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(8));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(e.event, ScEvent::CheckpointStable { .. })));
}
