//! # sofb-bench — the §5 evaluation harness
//!
//! Measurements are declarative scenarios ([`experiments`] holds the
//! canonical scenario shapes); every sweep is a `SweepGrid` over
//! scenario values, constructed once in [`grids`] and consumed three
//! ways — by the figure binaries below, by the data-file counterparts
//! under `specs/` (run them with `sofb run specs/<name>.scn`), and by
//! the spec-equivalence tests that pin the two representations
//! bit-identical. One binary per figure or study:
//!
//! | Binary      | Artifact | Output |
//! |-------------|----------------|--------|
//! | `fig4`      | Figure 4 (a,b,c) | order latency vs batching interval, SC/BFT/CT × 3 schemes, f = 2 |
//! | `fig5`      | Figure 5 (a,b,c) | throughput vs batching interval, same matrix |
//! | `fig6`      | Figure 6 | fail-over latency vs BackLog size, SC and SCR × 3 schemes |
//! | `f3_sweep`  | §5 text (f = 3) | the Figure-4 sweep at f = 3 |
//! | `msg_counts`| Fig. 3 discussion | messages per committed batch, SC vs BFT vs CT |
//! | `shard_sweep` | beyond the paper | aggregate throughput and p99 vs shard count, all variants |
//! | `scenario_sweeps` | beyond the paper | multi-client saturation (f = 2..4) and GST-sensitivity grids |
//!
//! The perf-trajectory baselines (`BENCH_protocols.json`,
//! `BENCH_protocols_sharded.json`) have no binary here: they are
//! `sofb run specs/bench_protocols{,_sharded}.scn --out/--check`.
//! Host time is measured by `benchmark/` alone.
//!
//! Run with `--release`; each figure takes a few minutes of wall time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod grids;
