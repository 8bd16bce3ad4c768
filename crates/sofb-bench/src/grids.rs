//! The repo's canonical sweep grids, one constructor per figure or
//! study.
//!
//! The figure binaries print these grids; the `specs/` directory carries
//! one `.scn` counterpart per grid; and the spec-equivalence tests pin
//! that a parsed spec expands to *bit-identical* cells (and, for the
//! cheap grids, bit-identical executed reports). Keeping construction
//! here — out of the binaries — is what lets one definition back all
//! three.

use sofb_crypto::scheme::SchemeId;
use sofb_harness::ProtocolKind;
use sofb_proto::ids::ProcessId;
use sofb_sim::time::{SimDuration, SimTime};
use sofbyz::scenario::{Axis, ClientLoad, ScenarioFault, SweepGrid};

use crate::experiments::{bench_scenario, failover_scenario, sharded_scenario, Window};

/// The fixed scheme most studies use.
pub const SCHEME: SchemeId = SchemeId::Md5Rsa1024;

// --- shared posture ----------------------------------------------------

/// The batching interval the sharded studies fix (ms).
pub const BENCH_INTERVAL_MS: u64 = 100;
/// The world seed the sharded studies fix.
pub const BENCH_SEED: u64 = 7;
/// `million_clients`: resilience (keeps the 2-shard world at 8
/// processes).
pub const BENCH_SHARD_F: u32 = 1;
/// `million_clients`: measurement window.
pub const BENCH_SHARD_WINDOW: Window = Window {
    warmup_s: 2,
    run_s: 8,
    drain_s: 10,
};

// --- figures 4 and 5 ---------------------------------------------------

/// The batching intervals Figures 4 and 5 sweep (ms).
pub const FIG_INTERVALS: [u64; 10] = [40, 60, 80, 100, 150, 200, 250, 300, 400, 500];
/// The protocol kinds Figures 4 and 5 plot.
pub const FIG_KINDS: [ProtocolKind; 3] = [ProtocolKind::Sc, ProtocolKind::Bft, ProtocolKind::Ct];

/// An interval axis whose values also re-seed the world at
/// `seed_base + interval_ms` — the figures' historical seeding.
fn interval_axis_seeded(intervals: &[u64], seed_base: u64, plus_f: bool) -> Axis {
    let mut axis = Axis::new("interval_ms");
    for &ms in intervals {
        axis = axis.value(ms.to_string(), move |s| {
            s.knobs.batching_interval = SimDuration::from_ms(ms);
            s.knobs.seed = seed_base + ms + if plus_f { u64::from(s.knobs.f) } else { 0 };
        });
    }
    axis
}

/// The Figure-4 grid (order latency): scheme × kind × interval, f = 2,
/// seeds tracking the interval from base 42.
pub fn fig4() -> SweepGrid {
    SweepGrid::new(bench_scenario(
        ProtocolKind::Sc,
        2,
        SchemeId::Md5Rsa1024,
        FIG_INTERVALS[0],
        42,
        Window::default(),
    ))
    .axis(Axis::schemes(&SchemeId::PAPER))
    .axis(Axis::kinds(&FIG_KINDS))
    .axis(interval_axis_seeded(&FIG_INTERVALS, 42, false))
}

/// The Figure-5 grid (throughput): the Figure-4 matrix re-seeded from
/// base 142.
pub fn fig5() -> SweepGrid {
    SweepGrid::new(bench_scenario(
        ProtocolKind::Sc,
        2,
        SchemeId::Md5Rsa1024,
        FIG_INTERVALS[0],
        142,
        Window::default(),
    ))
    .axis(Axis::schemes(&SchemeId::PAPER))
    .axis(Axis::kinds(&FIG_KINDS))
    .axis(interval_axis_seeded(&FIG_INTERVALS, 142, false))
}

// --- figure 6 ----------------------------------------------------------

/// The BackLog pads Figure 6 sweeps (KB).
pub const FIG6_PADS_KB: [usize; 5] = [1, 2, 3, 4, 5];
/// Seed replicates per Figure-6 point (the paper averages per point).
pub const FIG6_RUNS: u64 = 20;

/// The Figure-6 grid (fail-over latency): scheme × variant × BackLog
/// pad, replicated across [`FIG6_RUNS`] seeds.
pub fn fig6() -> SweepGrid {
    let seeds: Vec<u64> = (0..FIG6_RUNS).map(|s| 1000 + s).collect();
    let mut pad_axis = Axis::new("backlog_kb");
    for kb in FIG6_PADS_KB {
        pad_axis = pad_axis.value(kb.to_string(), move |s| {
            s.knobs.backlog_pad = kb * 1024;
        });
    }
    SweepGrid::new(failover_scenario(
        sofb_proto::topology::Variant::Sc,
        SchemeId::Md5Rsa1024,
        1024,
        1000,
    ))
    .axis(Axis::schemes(&SchemeId::PAPER))
    .axis(Axis::kinds(&[ProtocolKind::Sc, ProtocolKind::Scr]))
    .axis(pad_axis)
    .seeds(&seeds)
}

// --- f = 3 trend -------------------------------------------------------

/// The batching intervals the f = 3 trend sweeps (ms).
pub const F3_INTERVALS: [u64; 9] = [40, 60, 80, 100, 150, 200, 300, 400, 500];
/// The protocol kinds the f = 3 trend compares.
pub const F3_KINDS: [ProtocolKind; 2] = [ProtocolKind::Sc, ProtocolKind::Bft];

/// The §5 f = 3 trend grid: f × kind × interval under MD5+RSA-1024,
/// seeds tracking interval *and* resilience from base 242.
pub fn f3_sweep() -> SweepGrid {
    SweepGrid::new(bench_scenario(
        ProtocolKind::Sc,
        2,
        SCHEME,
        F3_INTERVALS[0],
        242,
        Window::default(),
    ))
    .axis(Axis::resiliences(&[2, 3]))
    .axis(Axis::kinds(&F3_KINDS))
    .axis(interval_axis_seeded(&F3_INTERVALS, 242, true))
}

// --- message counts ----------------------------------------------------

/// The fixed batching interval of the message-count ablation (ms).
pub const MSG_COUNT_INTERVAL_MS: u64 = 200;
/// The message-count ablation's measurement window.
pub const MSG_COUNT_WINDOW: Window = Window {
    warmup_s: 2,
    run_s: 10,
    drain_s: 20,
};

/// The Figure-3-discussion ablation grid: messages per committed batch,
/// f × kind at a fixed 200 ms interval.
pub fn msg_counts() -> SweepGrid {
    SweepGrid::new(bench_scenario(
        ProtocolKind::Sc,
        2,
        SCHEME,
        MSG_COUNT_INTERVAL_MS,
        7,
        MSG_COUNT_WINDOW,
    ))
    .axis(Axis::resiliences(&[2, 3]))
    .axis(Axis::kinds(&FIG_KINDS))
}

// --- shard sweep -------------------------------------------------------

/// Shard counts the horizontal-scaling sweep visits.
pub const SHARD_SWEEP_COUNTS: [usize; 3] = [1, 2, 4];
/// Per-shard offered load per client (three clients per world): well
/// under saturation, and near it.
pub const SHARD_SWEEP_RATES: [f64; 2] = [60.0, 140.0];
/// The horizontal-scaling sweep's measurement window.
pub const SHARD_SWEEP_WINDOW: Window = Window {
    warmup_s: 2,
    run_s: 8,
    drain_s: 10,
};

/// The horizontal-scaling grid: rate × kind × shard count at f = 1.
pub fn shard_sweep() -> SweepGrid {
    SweepGrid::new(sharded_scenario(
        ProtocolKind::Sc,
        1,
        1,
        SCHEME,
        BENCH_INTERVAL_MS,
        SHARD_SWEEP_RATES[0],
        BENCH_SEED,
        SHARD_SWEEP_WINDOW,
    ))
    .axis(Axis::rates_per_client(&SHARD_SWEEP_RATES))
    .axis(Axis::kinds(&ProtocolKind::ALL))
    .axis(Axis::shard_counts(&SHARD_SWEEP_COUNTS))
}

// --- scenario_sweeps: saturation + GST sensitivity ---------------------

/// The axis values and windows of the `scenario_sweeps` grids — full
/// size for the figures, smoke size for CI.
pub struct SweepShape {
    /// Resiliences of the saturation grid.
    pub saturation_fs: Vec<u32>,
    /// Client counts of the saturation grid.
    pub saturation_counts: Vec<usize>,
    /// Per-client rates of the saturation grid.
    pub saturation_rates: Vec<f64>,
    /// Measurement window of the saturation grid.
    pub saturation_window: Window,
    /// GST positions of the sensitivity grid (ms).
    pub gst_offsets_ms: Vec<u64>,
    /// Measurement window of the sensitivity grid.
    pub gst_window: Window,
}

impl SweepShape {
    /// The full figure-sized grids.
    pub fn full() -> Self {
        SweepShape {
            saturation_fs: vec![2, 3, 4],
            saturation_counts: vec![1, 3, 5],
            saturation_rates: vec![60.0, 120.0, 240.0],
            saturation_window: Window {
                warmup_s: 2,
                run_s: 10,
                drain_s: 20,
            },
            gst_offsets_ms: vec![0, 1_000, 2_000, 3_000, 4_000],
            gst_window: Window {
                warmup_s: 0,
                run_s: 6,
                drain_s: 4,
            },
        }
    }

    /// The CI smoke shape: same axes, drastically fewer values and a
    /// short window — exercises the full grid path on every push.
    pub fn smoke() -> Self {
        SweepShape {
            saturation_fs: vec![2],
            saturation_counts: vec![1, 3],
            saturation_rates: vec![120.0],
            saturation_window: Window {
                warmup_s: 1,
                run_s: 4,
                drain_s: 4,
            },
            gst_offsets_ms: vec![1_000, 3_000],
            gst_window: Window {
                warmup_s: 0,
                run_s: 4,
                drain_s: 3,
            },
        }
    }
}

/// The multi-client saturation grid: f × kind × client count × rate over
/// the standard measurement scenario.
pub fn saturation(shape: &SweepShape) -> SweepGrid {
    SweepGrid::new(bench_scenario(
        ProtocolKind::Sc,
        2,
        SCHEME,
        100,
        7,
        shape.saturation_window,
    ))
    .axis(Axis::resiliences(&shape.saturation_fs))
    .axis(Axis::kinds(&ProtocolKind::ALL))
    .axis(Axis::client_counts(&shape.saturation_counts))
    .axis(Axis::rates_per_client(&shape.saturation_rates))
}

// --- million_clients ---------------------------------------------------

/// `million_clients`: open-loop clients aggregated into one
/// [`ClientPopulation`](sofb_harness::ClientPopulation) per shard world.
pub const MILLION_POPULATION: usize = 100_000;
/// `million_clients`: per-member Poisson rate (aggregate load is
/// `population × rate` per shard under per-shard dealing).
pub const MILLION_RATE_PER_CLIENT: f64 = 0.02;
/// `million_clients`: ordering groups in the world.
pub const MILLION_SHARDS: usize = 2;
/// `million_clients`: swept world-worker counts (the parallel-scaling
/// axis; 1 worker is the determinism anchor).
pub const MILLION_WORLD_WORKERS: [usize; 2] = [1, 2];

/// The `million_clients` grid: a 2-shard world carrying 10⁵ aggregated
/// Poisson clients (2 000 req/s per shard, far past saturation), swept
/// over world-worker counts. The traces are bit-identical along the
/// axis; only the wall clock moves — `benchmark/`'s `sim_sharded`
/// workload times that ratio on the same posture
/// (`sofb-harness.parallel_speedup`).
pub fn million_clients() -> SweepGrid {
    SweepGrid::new(
        bench_scenario(
            ProtocolKind::Sc,
            BENCH_SHARD_F,
            SCHEME,
            BENCH_INTERVAL_MS,
            BENCH_SEED,
            BENCH_SHARD_WINDOW,
        )
        .shards(MILLION_SHARDS)
        .clients(
            1,
            ClientLoad::poisson(MILLION_RATE_PER_CLIENT, 100).population(MILLION_POPULATION),
        ),
    )
    .axis(Axis::world_workers(&MILLION_WORLD_WORKERS))
}

/// Extra pre-GST one-way latency on the coordinator's uplink (~10
/// batching intervals: every pre-GST round crawls).
pub const GST_EXTRA_MS: u64 = 800;

/// The partial-synchrony sensitivity grid: kind × GST position, with a
/// delay-until-GST window scripted on the coordinator.
pub fn gst(shape: &SweepShape) -> SweepGrid {
    let extra = SimDuration::from_ms(GST_EXTRA_MS);
    let mut gst_axis = Axis::new("gst_ms");
    for &ms in &shape.gst_offsets_ms {
        gst_axis = gst_axis.value(ms.to_string(), move |s| {
            s.faults = if ms == 0 {
                Vec::new() // GST at origin: the network is timely throughout.
            } else {
                vec![ScenarioFault::delay_until(
                    ProcessId(0),
                    SimTime::ZERO,
                    SimTime::from_ms(ms),
                    extra,
                )]
            };
        });
    }
    SweepGrid::new(
        bench_scenario(ProtocolKind::Bft, 1, SCHEME, 80, 31, shape.gst_window)
            .clients(1, ClientLoad::constant(120.0, 100)),
    )
    .axis(Axis::kinds(&[ProtocolKind::Bft, ProtocolKind::Ct]))
    .axis(gst_axis)
}
