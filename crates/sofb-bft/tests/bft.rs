//! End-to-end BFT baseline tests.

use sofb_bft::sim::{BftByz, BftProtocol};
use sofb_core::events::ScEvent;
use sofb_harness::{analysis, ClientSpec, FaultSpec, WorldBuilder};
use sofb_proto::ids::{ProcessId, SeqNo};
use sofb_sim::time::{SimDuration, SimTime};

#[test]
fn failfree_ordering() {
    let mut d = WorldBuilder::<BftProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .client(ClientSpec::new(100.0, 100, SimTime::from_secs(2)))
        .seed(5)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(4));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    let nodes: Vec<usize> = (0..d.n_processes).collect();
    let prefix = analysis::common_committed_prefix(&events, &nodes).expect("all commit");
    assert!(prefix >= SeqNo(10), "prefix {prefix:?}");
}

#[test]
fn latency_exceeds_sc_phase_count() {
    // Sanity on the comparative claim: BFT's n-to-n prepare phase adds
    // verification load, so the fail-free latency should exceed a small
    // floor driven by crypto costs (sign 5 ms + verify rounds).
    let mut d = WorldBuilder::<BftProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(200))
        .client(ClientSpec::new(50.0, 100, SimTime::from_secs(2)))
        .seed(6)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(4));
    let events = d.world.drain_events();
    let lat = analysis::mean_latency_ms(&events, SimTime::from_ms(500)).expect("commits");
    assert!(lat > 10.0, "BFT latency implausibly low: {lat} ms");
    assert!(lat < 500.0, "BFT latency implausibly high: {lat} ms");
}

#[test]
fn mute_primary_triggers_view_change() {
    let mut d = WorldBuilder::<BftProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .request_timeout(SimDuration::from_ms(400))
        .fault(ProcessId(0), FaultSpec::Byzantine(BftByz::MutePrimary))
        .client(ClientSpec::new(100.0, 100, SimTime::from_secs(3)))
        .seed(7)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(8));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ScEvent::ViewChanged { .. })),
        "view change must occur"
    );
    // The new primary (replica 1) orders batches.
    assert!(
        events.iter().any(|e| matches!(
            &e.event,
            ScEvent::Committed { c, .. } if c.0 >= 2
        )),
        "commits must resume in the new view"
    );
}

#[test]
fn deterministic_with_seed() {
    let run = |seed| {
        let mut d = WorldBuilder::<BftProtocol>::new(1)
            .client(ClientSpec::new(100.0, 100, SimTime::from_secs(1)))
            .seed(seed)
            .build();
        d.start();
        d.run_until(SimTime::from_secs(2));
        d.world
            .drain_events()
            .iter()
            .filter(|e| matches!(e.event, ScEvent::Committed { .. }))
            .map(|e| (e.time, e.node))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(3), run(3));
}
