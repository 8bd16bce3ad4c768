//! # sofb-spec — data-driven scenarios
//!
//! A small, dependency-free text format (`.scn`) for describing
//! [`Scenario`](sofb_harness::scenario::Scenario)s and
//! [`SweepGrid`](sofb_harness::scenario::SweepGrid)s, so new experiment
//! grids ship as data files instead of Rust code. The format is
//! line-oriented: `[section]` headers, `key = value` assignments, `#`
//! comments. See `DESIGN.md` ("Spec language") for the full grammar; the
//! shape of a spec is:
//!
//! ```text
//! [meta]
//! title = saturation sweep
//!
//! [scenario]          # the base point every axis patches
//! kind = SC
//! f = 2
//! scheme = MD5+RSA-1024
//! interval_ms = 100
//! seed = 7
//! time_checks = off
//!
//! [window]
//! warmup_s = 2
//! run_s = 10
//! drain_s = 20
//!
//! [client]            # repeatable; `count` stamps copies
//! count = 3
//! rate = 100
//! size = 100
//!
//! [axis]              # repeatable; cartesian product in file order
//! field = kind
//! values = SC, SCR, BFT, CT
//!
//! [axis]
//! field = rate
//! values = 60, 120, 240
//!
//! [smoke]             # optional CI-sized reduction (--smoke)
//! window.run_s = 4
//! axis.rate = 120
//! ```
//!
//! [`Spec::parse`] rejects malformed files with typed, line-numbered
//! [`SpecError`]s; [`Spec::grid`] lowers onto the harness's `SweepGrid`,
//! building exactly the same labelled axis patches the in-code sweeps
//! build (the spec-equivalence tests pin bit-identical expansion). The
//! [`report`] module renders an executed grid as deterministic JSON and
//! re-checks it at 1e-9 — the diff gate the committed
//! `BENCH_protocols{,_sharded}.json` baselines sit behind.
//!
//! This crate sits below the protocol crates on purpose: it knows how to
//! *describe* and *lower* an experiment, not how to run one. Kind →
//! protocol dispatch stays in the umbrella crate (`sofbyz::scenario`),
//! whose `sofb` binary is the runner for these files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod error;
mod parse;
mod spec;

pub mod report;

pub use emit::{emit_spec, EmitError};
pub use error::{SpecError, SpecErrorKind};
pub use spec::{Spec, Verdict};

#[cfg(test)]
mod tests;
