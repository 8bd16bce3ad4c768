//! Cross-protocol harness tests: the identical workload (same client
//! spec, same seed sweep) runs through SC, SCR, BFT and CT via the one
//! generic `WorldBuilder`, and every variant upholds total order — plus
//! one crash-fault and one mute-fault scenario per variant through the
//! uniform `FaultSpec` plan.

use sofbyz::bft::sim::BftProtocol;
use sofbyz::core::sim::ScProtocol;
use sofbyz::ct::sim::CtProtocol;
use sofbyz::harness::{analysis, ClientSpec, FaultSpec, Protocol, ProtocolEvent, WorldBuilder};
use sofbyz::proto::ids::ProcessId;
use sofbyz::proto::topology::Variant;
use sofbyz::sim::engine::TimedEvent;
use sofbyz::sim::time::{SimDuration, SimTime};

const SEEDS: [u64; 3] = [11, 12, 13];

/// The identical workload every variant is subjected to.
fn workload(stop_s: u64) -> ClientSpec {
    ClientSpec {
        rate_per_sec: 120.0,
        request_size: 100,
        stop_at: SimTime::from_secs(stop_s),
    }
}

/// Builds, runs and drains one deployment of `P` — the same code for all
/// four variants, which is the point.
fn run<P: Protocol>(builder: WorldBuilder<P>, until_s: u64) -> Vec<TimedEvent<ProtocolEvent>> {
    let mut d = builder.build();
    d.start();
    d.run_until(SimTime::from_secs(until_s));
    d.world.drain_events()
}

fn committed_requests(events: &[TimedEvent<ProtocolEvent>]) -> usize {
    events
        .iter()
        .filter_map(|e| match &e.event {
            ProtocolEvent::Committed { requests, .. } => Some(*requests),
            _ => None,
        })
        .sum()
}

fn commits_after(events: &[TimedEvent<ProtocolEvent>], t: SimTime) -> usize {
    events
        .iter()
        .filter(|e| e.time > t && matches!(e.event, ProtocolEvent::Committed { .. }))
        .count()
}

fn base<P: Protocol>(seed: u64) -> WorldBuilder<P> {
    WorldBuilder::<P>::new(1)
        .seed(seed)
        .batching_interval(SimDuration::from_ms(80))
        .client(workload(2))
}

#[test]
fn identical_workload_totally_ordered_on_all_four_variants() {
    for seed in SEEDS {
        let runs: [(&str, Vec<TimedEvent<ProtocolEvent>>); 4] = [
            ("SC", run(base::<ScProtocol>(seed).variant(Variant::Sc), 6)),
            (
                "SCR",
                run(base::<ScProtocol>(seed).variant(Variant::Scr), 6),
            ),
            ("BFT", run(base::<BftProtocol>(seed), 6)),
            ("CT", run(base::<CtProtocol>(seed), 6)),
        ];
        for (name, events) in &runs {
            analysis::check_total_order(events)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert!(
                committed_requests(events) >= 100,
                "{name} seed {seed}: only {} requests committed",
                committed_requests(events)
            );
        }
    }
}

/// The online fold and the batch check are one implementation: pushed
/// event by event, `OrderChecker` says about every prefix of a recorded
/// log what `check_total_order` says about that prefix — on the clean log
/// of each variant, and on the same log with one commit's digest
/// corrupted half-way through (same verdict, same text, from the same
/// event on).
#[test]
fn order_checker_matches_the_batch_check_on_every_prefix_of_all_four_variants() {
    fn short<P: Protocol>() -> WorldBuilder<P> {
        WorldBuilder::new(1).seed(11).client(workload(1))
    }
    let logs: [(&str, Vec<TimedEvent<ProtocolEvent>>); 4] = [
        ("SC", run(short::<ScProtocol>().variant(Variant::Sc), 2)),
        ("SCR", run(short::<ScProtocol>().variant(Variant::Scr), 2)),
        ("BFT", run(short::<BftProtocol>(), 2)),
        ("CT", run(short::<CtProtocol>(), 2)),
    ];
    for (name, clean) in logs {
        let mut corrupted = clean.clone();
        let commits: Vec<usize> = (0..clean.len())
            .filter(|&i| matches!(clean[i].event, ProtocolEvent::Committed { .. }))
            .collect();
        assert!(commits.len() >= 8, "{name}: {} commits", commits.len());
        let victim = commits[commits.len() / 2];
        if let ProtocolEvent::Committed { digest, .. } = &mut corrupted[victim].event {
            *digest = sofbyz::proto::request::Digest::new(b"not what the others committed");
        }
        for (label, log) in [("clean", &clean), ("corrupted", &corrupted)] {
            let mut checker = analysis::OrderChecker::default();
            let mut verdict = Ok(());
            for (k, ev) in log.iter().enumerate() {
                let pushed = checker.push(ev);
                if verdict.is_ok() {
                    verdict = pushed;
                }
                assert_eq!(
                    verdict,
                    analysis::check_total_order(&log[..=k]),
                    "{name} {label}: prefix {}",
                    k + 1
                );
            }
            assert_eq!(verdict.is_err(), label == "corrupted", "{name} {label}");
        }
    }
}

#[test]
fn poisson_clients_run_on_every_variant() {
    let spec = workload(2);
    let sc = run(
        WorldBuilder::<ScProtocol>::new(1)
            .seed(5)
            .poisson_client(spec.clone()),
        6,
    );
    let bft = run(
        WorldBuilder::<BftProtocol>::new(1)
            .seed(5)
            .poisson_client(spec.clone()),
        6,
    );
    let ct = run(
        WorldBuilder::<CtProtocol>::new(1)
            .seed(5)
            .poisson_client(spec),
        6,
    );
    for (name, events) in [("SC", sc), ("BFT", bft), ("CT", ct)] {
        analysis::check_total_order(&events).unwrap();
        assert!(
            committed_requests(&events) > 0,
            "{name}: Poisson workload never committed"
        );
    }
}

/// Crash a non-coordinator process at 1 s on each variant: safety must
/// hold and commits must continue (the survivor set still holds a
/// quorum in every layout at f = 1).
#[test]
fn crash_fault_tolerated_by_every_variant() {
    let at = SimTime::from_secs(1);
    let after = at;

    // SC f=1: n=4 (replicas 0..3, shadow 3 of replica 0); crash replica 2
    // (not a candidate member) — quorum n−f=3 survives.
    let sc = run(
        base::<ScProtocol>(21).fault(ProcessId(2), FaultSpec::crash(at)),
        8,
    );
    // SCR f=1: n=5; crash the unpaired replica 2.
    let scr = run(
        base::<ScProtocol>(22)
            .variant(Variant::Scr)
            .fault(ProcessId(2), FaultSpec::crash(at)),
        8,
    );
    // BFT f=1: n=4; crash backup 3 — quorum 2f+1=3 survives.
    let bft = run(
        base::<BftProtocol>(23).fault(ProcessId(3), FaultSpec::crash(at)),
        8,
    );
    // CT f=1: n=3; crash follower 2 — quorum n−f=2 survives.
    let ct = run(
        base::<CtProtocol>(24).fault(ProcessId(2), FaultSpec::crash(at)),
        8,
    );

    for (name, events) in [("SC", sc), ("SCR", scr), ("BFT", bft), ("CT", ct)] {
        analysis::check_total_order(&events).unwrap_or_else(|e| panic!("{name} under crash: {e}"));
        assert!(
            commits_after(&events, after) > 0,
            "{name}: no commits after the crash"
        );
    }
}

/// Mute (silent-but-alive) the same processes instead: the fault-parity
/// case the per-protocol builders previously could not express at all
/// for BFT and CT.
#[test]
fn mute_fault_tolerated_by_every_variant() {
    let from = SimTime::from_secs(1);
    let after = from;

    let sc = run(
        base::<ScProtocol>(31).fault(ProcessId(2), FaultSpec::mute(from)),
        8,
    );
    let bft = run(
        base::<BftProtocol>(33).fault(ProcessId(3), FaultSpec::mute(from)),
        8,
    );
    let ct = run(
        base::<CtProtocol>(34).fault(ProcessId(2), FaultSpec::mute(from)),
        8,
    );

    for (name, events) in [("SC", sc), ("BFT", bft), ("CT", ct)] {
        analysis::check_total_order(&events).unwrap_or_else(|e| panic!("{name} under mute: {e}"));
        assert!(
            commits_after(&events, after) > 0,
            "{name}: no commits after the mute"
        );
    }
}

/// Encodes one protocol observation as a stable small integer (used by
/// the golden-trace hash; new variants must extend, never renumber).
fn event_code(e: &ProtocolEvent) -> u64 {
    match e {
        ProtocolEvent::OrderProposed { o, batch_len, .. } => {
            1 << 56 | o.0 << 24 | *batch_len as u64
        }
        ProtocolEvent::Committed { o, requests, .. } => 2 << 56 | o.0 << 24 | *requests as u64,
        ProtocolEvent::FailSignalIssued { pair, .. } => 3 << 56 | pair.0 as u64,
        ProtocolEvent::StartCertIssued { c, .. } => 4 << 56 | c.0 as u64,
        ProtocolEvent::Installed { c } => 5 << 56 | c.0 as u64,
        ProtocolEvent::ViewChanged { v } => 6 << 56 | v.0,
        ProtocolEvent::UnwillingSent { v } => 7 << 56 | v.0,
        ProtocolEvent::PairRecovered { pair } => 8 << 56 | pair.0 as u64,
        ProtocolEvent::CheckpointStable { o } => 9 << 56 | o.0,
    }
}

/// FNV-1a over the `(time, node, kind)` sequence of a run.
fn trace_hash(events: &[TimedEvent<ProtocolEvent>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in events {
        mix(e.time.as_ns());
        mix(e.node as u64);
        mix(event_code(&e.event));
    }
    h
}

/// Golden event-trace determinism: for a fixed seed, every variant's full
/// `(time, node, kind)` observation sequence is pinned. The constants
/// were captured from the pre-timer-wheel scheduler; the reworked engine
/// must realize the identical schedule bit for bit.
#[test]
fn golden_traces_pinned_on_all_four_variants() {
    let runs: [(&str, u64, Vec<TimedEvent<ProtocolEvent>>); 4] = [
        (
            "SC",
            0xcf21_6aec_ee6d_c287,
            run(base::<ScProtocol>(17).variant(Variant::Sc), 4),
        ),
        (
            "SCR",
            0xc9b7_fb62_788c_b410,
            run(base::<ScProtocol>(17).variant(Variant::Scr), 4),
        ),
        (
            "BFT",
            0xd163_52eb_0e71_cd2c,
            run(base::<BftProtocol>(17), 4),
        ),
        ("CT", 0xcb8f_e52a_03dd_6e21, run(base::<CtProtocol>(17), 4)),
    ];
    for (name, want, events) in &runs {
        assert!(!events.is_empty(), "{name}: empty trace");
        assert_eq!(
            trace_hash(events),
            *want,
            "{name}: golden trace diverged (seed 17)"
        );
    }
}

/// Scheduler- and arena-traffic budget on the benchmark's operating
/// point (f = 2, 100 ms batching, three 100 req/s clients), checked for
/// every variant: with ProcessNext elision and the timer wheel, the
/// binary heap carries little more than one event — the delivery itself
/// — per processed callback, and the generation-indexed event arena's
/// high-water mark stays bounded (slots recycle instead of the slab
/// growing with run length).
fn budget_point<P: Protocol>(variant: Option<Variant>) -> (f64, usize, u64) {
    let stop = SimTime::from_secs(3);
    let mut builder = WorldBuilder::<P>::new(2)
        .seed(7)
        .batching_interval(SimDuration::from_ms(100))
        .time_checks(false);
    if let Some(v) = variant {
        builder = builder.variant(v);
    }
    for _ in 0..3 {
        builder = builder.client(ClientSpec {
            rate_per_sec: 100.0,
            request_size: 100,
            stop_at: stop,
        });
    }
    let mut d = builder.build();
    d.start();
    d.run_until(SimTime::from_secs(4));
    assert!(
        d.world.processed() > 1_000,
        "run too small to be meaningful"
    );
    // The horizon cuts the run mid-flight (heartbeats never stop), so a
    // handful of live arena slots is legitimate; a leak would leave one
    // per delivered message.
    assert!(
        d.world.arena_live() < 64,
        "events leaked in the arena ({} live)",
        d.world.arena_live()
    );
    (
        d.world.heap_pushes_per_callback(),
        d.world.arena_high_water(),
        d.world.processed(),
    )
}

#[test]
fn heap_and_arena_traffic_stay_under_budget_on_every_variant() {
    let sc = budget_point::<ScProtocol>(None);
    let scr = budget_point::<ScProtocol>(Some(Variant::Scr));
    let bft = budget_point::<BftProtocol>(None);
    let ct = budget_point::<CtProtocol>(None);
    for (name, (ratio, high_water, processed)) in
        [("SC", sc), ("SCR", scr), ("BFT", bft), ("CT", ct)]
    {
        assert!(
            ratio < 1.1,
            "{name}: heap pushes per callback {ratio:.3} ≥ 1.1"
        );
        // In-flight events at any instant are a property of the
        // operating point (rates × latency), not of how long the run
        // lasts; a generous constant bound catches slab leaks without
        // pinning the exact number.
        assert!(
            (high_water as u64) < processed / 10,
            "{name}: arena high water {high_water} out of proportion \
             to {processed} callbacks"
        );
        assert!(
            high_water < 4_096,
            "{name}: arena high water {high_water} unbounded"
        );
    }
}

/// A delayed (degraded-uplink) process must never break safety either.
#[test]
fn delay_fault_preserves_safety_on_every_variant() {
    let from = SimTime::from_secs(1);
    let extra = SimDuration::from_ms(40);
    let sc = run(
        base::<ScProtocol>(41).fault(ProcessId(2), FaultSpec::delay(from, extra)),
        8,
    );
    let bft = run(
        base::<BftProtocol>(43).fault(ProcessId(3), FaultSpec::delay(from, extra)),
        8,
    );
    let ct = run(
        base::<CtProtocol>(44).fault(ProcessId(2), FaultSpec::delay(from, extra)),
        8,
    );
    for (name, events) in [("SC", sc), ("BFT", bft), ("CT", ct)] {
        analysis::check_total_order(&events).unwrap_or_else(|e| panic!("{name} under delay: {e}"));
        assert!(committed_requests(&events) > 0, "{name}: nothing committed");
    }
}
