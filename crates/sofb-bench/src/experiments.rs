//! Experiment runners for the §5 study.
//!
//! Every measurement is a declarative [`Scenario`] executed through the
//! kind-dispatching runner ([`sofbyz::scenario::run`]); sweeps are
//! [`SweepGrid`](sofbyz::scenario::SweepGrid)s over scenario values (the
//! canonical grids live in [`crate::grids`], their data-file
//! counterparts under `specs/`). This module holds the canonical
//! *scenario shapes* the grids patch — the standard measurement posture,
//! the sharded-load posture and the fail-over posture. The PR-4-era
//! deprecated point-function facades (`protocol_point`, `sharded_point`,
//! `failover_point`, …) are gone; build the scenario and read the
//! uniform [`Report`](sofbyz::scenario::Report) instead.

use sofb_crypto::scheme::SchemeId;
use sofb_proto::ids::{ProcessId, SeqNo};
use sofbyz::scenario::{ClientLoad, Scenario, ScenarioFault};
use sofbyz::sim::time::SimDuration;

pub use sofb_harness::scenario::Window;
pub use sofb_harness::{ProtocolEvent, ProtocolKind};

pub use sofbyz::scenario::default_workers;

/// The standard §5 measurement scenario: protocol `kind` at resilience
/// `f` under `scheme`, the paper's offered load (three 100 req/s
/// clients), detection off — the base every flat sweep patches.
pub fn bench_scenario(
    kind: ProtocolKind,
    f: u32,
    scheme: SchemeId,
    interval_ms: u64,
    seed: u64,
    window: Window,
) -> Scenario {
    Scenario::bench(kind)
        .f(f)
        .scheme(scheme)
        .interval_ms(interval_ms)
        .seed(seed)
        .window(window)
}

/// The standard horizontal-scaling scenario: `shards` ordering groups of
/// `kind`, three constant-rate clients at `rate_per_client` requests/s
/// *per shard* (round-robin dealt) — the base every sharded sweep
/// patches.
#[allow(clippy::too_many_arguments)] // one knob per swept dimension
pub fn sharded_scenario(
    kind: ProtocolKind,
    shards: usize,
    f: u32,
    scheme: SchemeId,
    interval_ms: u64,
    rate_per_client: f64,
    seed: u64,
    window: Window,
) -> Scenario {
    bench_scenario(kind, f, scheme, interval_ms, seed, window)
        .shards(shards)
        .clients(3, ClientLoad::constant(rate_per_client, 100))
}

/// The Figure-6 fail-over scenario: a single value-domain fault at the
/// rank-1 coordinator, BackLogs padded to `backlog_pad` bytes, one
/// 80 req/s client over an 8 s run — the base the fail-over sweeps
/// patch. Time-domain detection stays on (`Scenario::new` defaults): the
/// fail-over is the measurement, not noise.
pub fn failover_scenario(
    variant: sofb_proto::topology::Variant,
    scheme: SchemeId,
    backlog_pad: usize,
    seed: u64,
) -> Scenario {
    let kind = match variant {
        sofb_proto::topology::Variant::Sc => ProtocolKind::Sc,
        sofb_proto::topology::Variant::Scr => ProtocolKind::Scr,
    };
    Scenario::new(kind)
        .f(2)
        .scheme(scheme)
        .interval_ms(100)
        .order_timeout(SimDuration::from_ms(1_500))
        .backlog_pad(backlog_pad)
        .seed(seed)
        .window(Window {
            warmup_s: 0,
            run_s: 8,
            drain_s: 0,
        })
        .client(ClientLoad::constant(80.0, 100))
        .fault(ScenarioFault::corrupt_order_at(ProcessId(0), SeqNo(4)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofbyz::scenario::{run, RunScenario};

    const FAST: Window = Window {
        warmup_s: 2,
        run_s: 6,
        drain_s: 10,
    };

    #[test]
    fn sc_scenario_produces_sane_metrics() {
        let r = bench_scenario(ProtocolKind::Sc, 2, SchemeId::Md5Rsa1024, 200, 1, FAST)
            .run()
            .expect("benchmark scenario is valid");
        let lat = r.global.mean_ms.expect("commits in window");
        assert!(lat > 1.0 && lat < 1_000.0, "latency {lat}");
        assert!(
            r.throughput_per_process > 1.0,
            "{}",
            r.throughput_per_process
        );
        assert!(r.msgs_per_batch > 5.0, "msgs/batch {}", r.msgs_per_batch);
    }

    #[test]
    fn ct_flat_and_fast() {
        let r = bench_scenario(ProtocolKind::Ct, 2, SchemeId::NoCrypto, 200, 1, FAST)
            .run()
            .expect("CT scenario is valid");
        let lat = r.global.mean_ms.expect("commits");
        assert!(lat < 20.0, "CT must be fast: {lat} ms");
    }

    #[test]
    fn bft_slower_than_sc_in_steady_state() {
        let sc = bench_scenario(ProtocolKind::Sc, 2, SchemeId::Md5Rsa1024, 300, 2, FAST)
            .run()
            .unwrap();
        let bft = bench_scenario(ProtocolKind::Bft, 2, SchemeId::Md5Rsa1024, 300, 2, FAST)
            .run()
            .unwrap();
        let (sc_l, bft_l) = (sc.global.mean_ms.unwrap(), bft.global.mean_ms.unwrap());
        assert!(
            bft_l > sc_l,
            "paper's headline: BFT steady-state latency ({bft_l}) > SC ({sc_l})"
        );
    }

    /// Averages fail-over latency over seed replicates, as the figures
    /// do (the paper averages 100 experimental results per point).
    fn failover_avg(pad: usize, runs: u64) -> f64 {
        let (mut total, mut n) = (0.0, 0u64);
        for seed in 0..runs {
            let s = failover_scenario(
                sofb_proto::topology::Variant::Sc,
                SchemeId::Md5Rsa1024,
                pad,
                1000 + seed,
            );
            if let Some(ms) = run(&s).expect("fail-over scenario is valid").failover_ms {
                total += ms;
                n += 1;
            }
        }
        assert!(n > 0, "no fail-over measured across {runs} seeds");
        total / n as f64
    }

    #[test]
    fn failover_measurable_and_grows_with_pad() {
        let small = failover_avg(1024, 3);
        let large = failover_avg(5120, 3);
        assert!(small > 0.0);
        assert!(
            large > small,
            "fail-over latency must grow with BackLog size: {small} vs {large}"
        );
    }

    #[test]
    fn all_four_kinds_run_through_one_path() {
        for kind in ProtocolKind::ALL {
            let r = bench_scenario(kind, 1, SchemeId::Md5Rsa1024, 200, 9, FAST)
                .run()
                .expect("scenario is valid");
            assert!(r.global.mean_ms.is_some(), "{kind}: nothing committed");
        }
    }

    /// The headline sharding property: at fixed per-shard offered load,
    /// doubling the shard count must scale SC's aggregate throughput by
    /// ≥ 1.7× (independent groups — near-linear by construction, with
    /// headroom for dealer-seed variation).
    #[test]
    fn sharded_sc_aggregate_throughput_scales() {
        let point = |shards| {
            sharded_scenario(
                ProtocolKind::Sc,
                shards,
                1,
                SchemeId::Md5Rsa1024,
                200,
                100.0,
                5,
                FAST,
            )
            .run()
            .expect("sharded scenario is valid")
        };
        let one = point(1);
        let two = point(2);
        assert!(
            one.aggregate_throughput > 0.0,
            "1-shard world ordered nothing"
        );
        let scale = two.aggregate_throughput / one.aggregate_throughput;
        assert!(
            scale >= 1.7,
            "aggregate throughput scaled only {scale:.2}× from 1 → 2 shards \
             ({:.1} → {:.1} req/s)",
            one.aggregate_throughput,
            two.aggregate_throughput
        );
    }

    /// Every variant runs sharded through the one sharded code path, and
    /// the rollup's global percentiles cover every shard's commits.
    #[test]
    fn all_four_kinds_run_sharded() {
        for kind in ProtocolKind::ALL {
            let r = sharded_scenario(kind, 2, 1, SchemeId::Md5Rsa1024, 200, 60.0, 9, FAST)
                .run()
                .expect("sharded scenario is valid");
            assert_eq!(r.per_shard.len(), 2, "{kind}");
            for (s, sp) in r.per_shard.iter().enumerate() {
                assert!(
                    sp.latency.mean_ms.is_some(),
                    "{kind}: shard {s} committed nothing"
                );
                assert!(sp.throughput_per_process > 0.0, "{kind}: shard {s} idle");
            }
            assert!(
                r.global.p50_ms.is_some() && r.global.p99_ms.is_some(),
                "{kind}"
            );
            assert!(r.aggregate_throughput > 0.0, "{kind}");
            assert!(r.msgs_per_batch > 0.0, "{kind}");
        }
    }
}
