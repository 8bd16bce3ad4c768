//! End-to-end protocol tests on the simulator: fail-free ordering,
//! value-domain fail-over, time-domain fail-over, candidate exhaustion to
//! the unpaired coordinator, and the SCR extension.

use sofb_core::config::Fault;
use sofb_core::events::ScEvent;
use sofb_core::sim::ScProtocol;
use sofb_harness::{analysis, ClientSpec, FaultSpec, WorldBuilder};
use sofb_proto::ids::{ProcessId, Rank, SeqNo};
use sofb_proto::topology::{Topology, Variant};
use sofb_sim::time::{SimDuration, SimTime};

fn client(rate: f64, stop_s: u64) -> ClientSpec {
    ClientSpec::new(rate, 100, SimTime::from_secs(stop_s))
}

#[test]
fn failfree_ordering_commits_everywhere() {
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(100.0, 2))
        .seed(7)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(4));
    let events = d.world.drain_events();

    analysis::check_total_order(&events).unwrap();
    // No failures => no fail-signals, no installs beyond rank 1.
    assert!(!events
        .iter()
        .any(|e| matches!(e.event, ScEvent::FailSignalIssued { .. })));
    // Every process commits a healthy prefix.
    let n = d.n_processes;
    let nodes: Vec<usize> = (0..n).collect();
    let prefix = analysis::common_committed_prefix(&events, &nodes).expect("all nodes commit");
    assert!(prefix >= SeqNo(10), "common prefix too short: {prefix:?}");
    // ~100 req/s for 2 s must be fully ordered.
    let latencies = analysis::order_latencies(&events);
    assert!(!latencies.is_empty());
    for (o, ms) in &latencies {
        assert!(*ms < 200.0, "latency at {o:?} is {ms} ms");
    }
}

#[test]
fn failfree_no_duplicate_request_ordering() {
    let mut d = WorldBuilder::<ScProtocol>::new(1)
        .batching_interval(SimDuration::from_ms(40))
        .client(client(200.0, 1))
        .seed(11)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(3));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();

    // The per-sequence batches committed at node 3 (an unpaired replica)
    // must not repeat requests: count total committed requests vs client
    // issuance.
    let committed_reqs: usize = events
        .iter()
        .filter(|e| e.node == 3)
        .filter_map(|e| match &e.event {
            ScEvent::Committed { requests, .. } => Some(*requests),
            _ => None,
        })
        .sum();
    // 200 req/s for 1 s: allow the tail batch to be in flight.
    assert!((190..=200).contains(&committed_reqs), "{committed_reqs}");
}

#[test]
fn value_domain_fault_triggers_failover_and_preserves_safety() {
    // The rank-1 coordinator replica corrupts the digest of its 5th order;
    // its shadow must detect, fail-signal, and rank 2 must take over.
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(100.0, 3))
        .fault(
            ProcessId(0),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(5))),
        )
        .seed(13)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(6));
    let events = d.world.drain_events();

    analysis::check_total_order(&events).unwrap();
    let fs: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.event, ScEvent::FailSignalIssued { pair: Rank(1), .. }))
        .collect();
    assert!(
        !fs.is_empty(),
        "shadow must fail-signal the corrupted order"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ScEvent::StartCertIssued { c: Rank(2), .. })),
        "rank 2 must issue its Start certificate"
    );
    let installed: Vec<usize> = events
        .iter()
        .filter(|e| matches!(e.event, ScEvent::Installed { c: Rank(2) }))
        .map(|e| e.node)
        .collect();
    assert!(
        installed.len() >= Topology::new(d.knobs.f, d.knobs.variant).commit_quorum() - 1,
        "most processes install rank 2: {installed:?}"
    );
    // Ordering continues under the new coordinator.
    let post_install_commits = events
        .iter()
        .any(|e| matches!(&e.event, ScEvent::Committed { c: Rank(2), .. }));
    assert!(post_install_commits, "rank 2 must order new batches");
    // Fail-over latency is measurable.
    let ms = analysis::failover_latency_ms(&events).expect("measurable fail-over");
    assert!(ms > 0.0 && ms < 2_000.0, "fail-over {ms} ms");
}

#[test]
fn time_domain_fault_muted_coordinator_detected() {
    // The rank-1 coordinator goes silent after 3 orders; the shadow's
    // delay estimate expires and it fail-signals (time-domain).
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .order_timeout(SimDuration::from_ms(400))
        .client(client(100.0, 3))
        .fault(
            ProcessId(0),
            FaultSpec::Byzantine(Fault::MuteCoordinatorAt(SeqNo(4))),
        )
        .seed(17)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(6));
    let events = d.world.drain_events();

    analysis::check_total_order(&events).unwrap();
    let fs = events
        .iter()
        .find(|e| {
            matches!(e.event, ScEvent::FailSignalIssued { pair: Rank(1), value_domain }
            if !value_domain)
        })
        .expect("time-domain fail-signal");
    // The shadow (process 5 for f=2) is the detector.
    assert_eq!(fs.node, 5);
    assert!(events
        .iter()
        .any(|e| matches!(e.event, ScEvent::Installed { c: Rank(2) })));
}

#[test]
fn double_failover_reaches_unpaired_candidate() {
    // Both pairs fail in turn; the unpaired candidate (rank f+1 = 3,
    // process 2) must take over and order solo.
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(100.0, 4))
        .fault(
            ProcessId(0),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(3))),
        )
        .fault(
            ProcessId(1),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(8))),
        )
        .seed(19)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(10));
    let events = d.world.drain_events();

    analysis::check_total_order(&events).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(e.event, ScEvent::Installed { c: Rank(3) })));
    assert!(
        events
            .iter()
            .any(|e| matches!(&e.event, ScEvent::Committed { c: Rank(3), .. })),
        "the unpaired coordinator must order new batches"
    );
}

#[test]
fn rubber_stamp_shadow_cannot_break_safety() {
    // A Byzantine shadow that endorses without checking cannot cause
    // divergent commits: the replica is correct, so contents stay valid.
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(100.0, 2))
        .fault(ProcessId(5), FaultSpec::Byzantine(Fault::RubberStamp))
        .seed(23)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(4));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    let latencies = analysis::order_latencies(&events);
    assert!(!latencies.is_empty());
}

#[test]
fn dropped_acks_do_not_break_safety_or_liveness_within_f() {
    // One process drops all its acks (f=2 tolerates it).
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(100.0, 2))
        .fault(ProcessId(3), FaultSpec::Byzantine(Fault::DropAcks))
        .seed(29)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(4));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    // Other nodes still commit.
    let commits = analysis::commits_per_node(&events);
    assert!(commits.get(&2).copied().unwrap_or(0) > 0);
}

#[test]
fn scr_failfree_behaves_like_sc() {
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .variant(Variant::Scr)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(100.0, 2))
        .seed(31)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(4));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    let latencies = analysis::order_latencies(&events);
    assert!(
        latencies.len() >= 10,
        "SCR orders batches: {}",
        latencies.len()
    );
}

#[test]
fn scr_value_fault_view_change() {
    // SCR: coordinator pair 1 suffers a value-domain fault; view change
    // installs pair 2 and ordering continues.
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .variant(Variant::Scr)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(100.0, 4))
        .fault(
            ProcessId(0),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(4))),
        )
        .seed(37)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(8));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(e.event, ScEvent::ViewChanged { .. })));
    assert!(
        events.iter().any(|e| matches!(
            &e.event,
            ScEvent::Committed { c, .. } if *c != Rank(1)
        )),
        "a later pair must order new batches"
    );
}

#[test]
fn deterministic_runs_with_same_seed() {
    let run = |seed: u64| {
        let mut d = WorldBuilder::<ScProtocol>::new(1)
            .batching_interval(SimDuration::from_ms(50))
            .client(client(100.0, 1))
            .seed(seed)
            .build();
        d.start();
        d.run_until(SimTime::from_secs(2));
        let events = d.world.drain_events();
        events
            .iter()
            .filter_map(|e| match &e.event {
                ScEvent::Committed { o, digest, .. } => Some((e.time, e.node, *o, *digest)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn topology_sanity_for_experiments() {
    // The f=2 topologies used throughout §5.
    let sc = Topology::new(2, Variant::Sc);
    assert_eq!(sc.n(), 7);
    let scr = Topology::new(2, Variant::Scr);
    assert_eq!(scr.n(), 8);
}
