//! Failure-injection tests beyond the scripted Byzantine faults: crashes,
//! batching limits, larger deployments, and the SCR Unwilling path.

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
fn crashed_coordinator_replica_detected_by_heartbeats() {
    // Crash p1 (the rank-1 coordinator replica) outright; its shadow's
    // heartbeat window expires (time-domain) and rank 2 takes over.
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(100.0, 4))
        .seed(41)
        .build();
    d.start();
    d.run_until(SimTime::from_ms(700));
    d.world.crash(0);
    d.run_until(SimTime::from_secs(8));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            ScEvent::FailSignalIssued {
                pair: Rank(1),
                value_domain: false
            }
        )),
        "shadow must detect the crash in the time domain"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e.event, ScEvent::Installed { c: Rank(2) })));
    assert!(events.iter().any(|e| matches!(
        &e.event,
        ScEvent::Committed { c: Rank(2), requests, .. } if *requests > 0
    )));
}

#[test]
fn crashed_shadow_detected_by_replica() {
    // Crash the rank-1 shadow (p'1, node 5): the replica stops receiving
    // heartbeats and fail-signals; installation proceeds.
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(100.0, 4))
        .seed(43)
        .build();
    d.start();
    d.run_until(SimTime::from_ms(700));
    d.world.crash(5);
    d.run_until(SimTime::from_secs(8));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    let detector = events
        .iter()
        .find(|e| matches!(e.event, ScEvent::FailSignalIssued { pair: Rank(1), .. }))
        .expect("replica must fail-signal");
    assert_eq!(detector.node, 0, "the surviving pair member detects");
    assert!(events
        .iter()
        .any(|e| matches!(e.event, ScEvent::Installed { c: Rank(2) })));
}

#[test]
fn crash_of_non_coordinator_process_is_tolerated_silently() {
    // An unpaired replica crashing must not trigger any fail-over —
    // quorums are sized for it.
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(100.0, 3))
        .seed(47)
        .build();
    d.start();
    d.run_until(SimTime::from_ms(500));
    d.world.crash(3);
    d.run_until(SimTime::from_secs(5));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    assert!(!events
        .iter()
        .any(|e| matches!(e.event, ScEvent::FailSignalIssued { .. })));
    // Ordering continues.
    let commits_after: usize = events
        .iter()
        .filter(|e| e.time > SimTime::from_secs(1))
        .filter(|e| matches!(e.event, ScEvent::Committed { .. }))
        .count();
    assert!(
        commits_after > 10,
        "commits after the crash: {commits_after}"
    );
}

#[test]
fn batches_respect_the_1kb_cap() {
    let mut d = WorldBuilder::<ScProtocol>::new(1)
        .batching_interval(SimDuration::from_ms(100))
        .client(client(400.0, 2)) // far more than a batch per interval
        .seed(53)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(4));
    let events = d.world.drain_events();
    for ev in &events {
        if let ScEvent::OrderProposed { batch_len, .. } = &ev.event {
            // 100-byte requests, 1 KB cap → at most 10 per batch.
            assert!(*batch_len <= 10, "batch of {batch_len} exceeds the cap");
        }
    }
    analysis::check_total_order(&events).unwrap();
}

#[test]
fn f3_deployment_orders_and_fails_over() {
    // n = 10 (7 replicas + 3 shadows): double fail-over at f = 3.
    let mut d = WorldBuilder::<ScProtocol>::new(3)
        .batching_interval(SimDuration::from_ms(60))
        .client(client(100.0, 4))
        .fault(
            ProcessId(0),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(3))),
        )
        .fault(
            ProcessId(1),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(9))),
        )
        .seed(59)
        .build();
    assert_eq!(d.n_processes, 10);
    d.start();
    d.run_until(SimTime::from_secs(10));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(e.event, ScEvent::Installed { c: Rank(3) })));
    assert!(events.iter().any(|e| matches!(
        &e.event,
        ScEvent::Committed { c: Rank(3), requests, .. } if *requests > 0
    )));
}

#[test]
fn scr_unwilling_candidate_skipped() {
    // SCR: crash pair-2's shadow early so pair 2 goes (and stays) Down;
    // then fail pair 1. The view change reaches pair 2, which must send
    // Unwilling, and pair 3 must end up coordinating.
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .variant(Variant::Scr)
        .batching_interval(SimDuration::from_ms(60))
        .client(client(100.0, 5))
        .fault(
            ProcessId(0),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(6))),
        )
        .seed(61)
        .build();
    d.start();
    d.run_until(SimTime::from_ms(200));
    d.world.crash(6); // p'2 — pair 2 can never be `up` again
    d.run_until(SimTime::from_secs(12));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ScEvent::UnwillingSent { .. })),
        "pair 2 must decline the view"
    );
    assert!(
        events.iter().any(|e| matches!(
            &e.event,
            ScEvent::Committed { c: Rank(3), requests, .. } if *requests > 0
        )),
        "pair 3 must take over ordering"
    );
}

#[test]
fn two_simultaneous_request_streams_interleave_safely() {
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .client(client(120.0, 2))
        .client(client(80.0, 2))
        .seed(67)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(5));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    // All issued requests get ordered: 120*2 + 80*2 = 400 (±batch tails).
    let committed: usize = events
        .iter()
        .filter(|e| e.node == 2)
        .filter_map(|e| match &e.event {
            ScEvent::Committed { requests, .. } => Some(*requests),
            _ => None,
        })
        .sum();
    assert!((380..=400).contains(&committed), "committed {committed}");
}
