//! Allocation budget of the SC/SCR event path.
//!
//! Runs two worlds through `WorldBuilder` and counts heap allocations
//! per simulated event, world construction excluded:
//!
//! * a fault-free SC world, f = 2, 20 sim-s (steady-state ordering,
//!   heartbeats and checkpoints);
//! * one SCR point shaped like paper Fig. 6 (f = 2, MD5+RSA-1024, 80
//!   req/s, 1 KiB BackLog pad, process 0 corrupting order 4), 8 sim-s
//!   (fail-signal, view change and install on top of the above).
//!
//! Measured this way, the two worlds allocated 1.5147 times per event
//! while the SC/SCR path still built throwaway buffers per event, and
//! 0.3789 times after; both figures are exact and the same in dev and
//! release builds. The budget, 0.45, is well below half the first figure
//! and tight enough that any one of those buffers coming back crosses
//! it. Bringing back one site alone read:
//!
//! | site | per event |
//! |---|---|
//! | commit evidence collected into a `Vec` (`OrderLog::evidence`) | 0.6359 |
//! | heartbeat encoded and MAC'd into fresh vectors (`heartbeat_tick`) | 0.5731 |
//! | checkpoint chain link in a fresh, growing `Encoder` | 0.5626 |
//! | heartbeat encoded into a fresh vector for `verify_mac` | 0.4972 |
//! | batch digest input in a fresh, growing `Encoder` | 0.4678 |
//!
//! The counting allocator is process-global, so this file deliberately
//! holds exactly one `#[test]`.

use sofb_core::config::Fault;
use sofb_core::events::ScEvent;
use sofb_core::sim::ScProtocol;
use sofb_harness::{ClientSpec, Deployment, FaultSpec, WorldBuilder};
use sofb_proto::ids::{ProcessId, SeqNo};
use sofb_proto::topology::Variant;
use sofb_sim::time::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc::new();

/// Allocations per event allowed (see the table above).
const BUDGET_PER_EVENT: f64 = 0.45;

/// Starts and runs `d` to `until`; returns (allocations, events) of the
/// run alone.
fn run_counted(d: &mut Deployment<ScProtocol>, until: SimTime) -> (u64, u64) {
    let a0 = alloc_counter::allocations();
    let e0 = d.world.processed();
    d.start();
    d.run_until(until);
    (alloc_counter::allocations() - a0, d.world.processed() - e0)
}

#[test]
fn sc_event_path_stays_within_allocation_budget() {
    let mut steady = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(100))
        .client(ClientSpec::new(80.0, 100, SimTime::from_secs(20)))
        .seed(7)
        .build();
    let (steady_allocs, steady_events) = run_counted(&mut steady, SimTime::from_secs(20));

    let mut failover = WorldBuilder::<ScProtocol>::new(2)
        .variant(Variant::Scr)
        .batching_interval(SimDuration::from_ms(100))
        .order_timeout(SimDuration::from_ms(1500))
        .backlog_pad(1024)
        .client(ClientSpec::new(80.0, 100, SimTime::from_secs(8)))
        .fault(
            ProcessId(0),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(4))),
        )
        .seed(1000)
        .build();
    let (failover_allocs, failover_events) = run_counted(&mut failover, SimTime::from_secs(8));

    // The fig6-style point must really fail over, or it measures the
    // steady state twice.
    let events = failover.world.drain_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ScEvent::FailSignalIssued { .. })),
        "the corrupted order must be fail-signalled"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ScEvent::ViewChanged { .. })),
        "SCR must change view after the fail-signal"
    );

    let per_event =
        (steady_allocs + failover_allocs) as f64 / (steady_events + failover_events) as f64;
    assert!(
        per_event < BUDGET_PER_EVENT,
        "SC/SCR allocations per event {per_event:.4} exceed the budget {BUDGET_PER_EVENT:.4} \
         (steady {steady_allocs}/{steady_events}, fail-over {failover_allocs}/{failover_events})"
    );
}
