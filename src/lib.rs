//! # sofbyz — Streets of Byzantium: signal-on-fail total order
//!
//! A reproduction of *"A Performance Study on the Signal-On-Fail Approach
//! to Imposing Total Order in the Streets of Byzantium"* (Inayat &
//! Ezhilchelvan, CS-TR-967 / DSN 2006): Byzantine fault-tolerant
//! total-order protocols built on the **signal-on-crash** process
//! abstraction, with the Castro–Liskov BFT and crash-tolerant baselines
//! the paper measures against, a deterministic discrete-event testbed,
//! from-scratch cryptography, and the complete §5 experiment harness.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`crypto`] — bignum, MD5/SHA-1/SHA-256, HMAC, RSA, DSA, the paper's
//!   scheme matrix and a calibrated virtual-time cost model;
//! * [`sim`] — the deterministic simulator (network delay models,
//!   per-node CPU queueing);
//! * [`proto`] — topology, requests, signed envelopes, canonical codec;
//! * [`harness`] — the protocol-agnostic deployment layer: one generic
//!   [`harness::WorldBuilder`], one client actor, one uniform fault plan
//!   ([`harness::FaultSpec`]: crash/mute/delay on every variant) and the
//!   shared observation vocabulary ([`harness::ProtocolEvent`]);
//! * [`core`] — the SC and SCR protocols (the paper's contribution);
//! * [`bft`] — the BFT baseline;
//! * [`ct`] — the crash-tolerant baseline;
//! * [`obs`] — dependency-free observability: span/event tracing with a
//!   zero-cost disabled path, a typed metrics registry and deterministic
//!   [`obs::MetricsSnapshot`]s, and the Chrome trace-event exporter
//!   behind `sofb trace` (load the output in Perfetto);
//! * [`app`] — a deterministic replicated KV service and workloads;
//! * [`spec`] — the `.scn` spec language: scenarios and sweep grids as
//!   data files, with line-numbered parse errors and the diffable
//!   grid-report JSON emitter.
//!
//! Each protocol crate implements [`harness::Protocol`] (SC/SCR:
//! `core::sim::ScProtocol`; BFT: `bft::sim::BftProtocol`; CT:
//! `ct::sim::CtProtocol`), so any variant is constructible through the
//! same generic builder and measured by the same analysis pass
//! ([`harness::analysis`]). On top of it all sits the declarative
//! [`scenario`] layer: one [`scenario::Scenario`] spec and one runner for
//! every experiment, flat or sharded, and the [`scenario::SweepGrid`]
//! engine that turns experiment matrices into data. See `DESIGN.md` for
//! the layer map.
//!
//! # Quickstart
//!
//! A deployment is a declarative [`scenario::Scenario`] value: pick the
//! protocol kind, describe the workload and window, and run — the same
//! four lines deploy SC, SCR, BFT or CT, one ordering group or many.
//!
//! ```
//! use sofbyz::harness::ProtocolKind;
//! use sofbyz::scenario::{ClientLoad, RunScenario, Scenario, Window};
//!
//! // Seven order processes (f = 2): five replicas, two shadows — plus
//! // one 100 req/s client, measured over a 1 s window with 2 s of drain.
//! let report = Scenario::new(ProtocolKind::Sc)
//!     .f(2)
//!     .client(ClientLoad::constant(100.0, 100))
//!     .window(Window { warmup_s: 0, run_s: 1, drain_s: 2 })
//!     .run()
//!     .expect("valid scenarios run; malformed ones are typed errors");
//! assert!(report.committed_requests() > 0);
//! assert!(report.global.mean_ms.is_some());
//! ```
//!
//! Sweeps are [`scenario::SweepGrid`]s — axes over any scenario field,
//! executed in parallel with deterministic output (see
//! [`scenario::run_grid`]). The lower-level [`harness::WorldBuilder`]
//! remains available when a test needs to drive the world directly.
//!
//! Grids also ship as data: every sweep in this repo has a `.scn`
//! counterpart under `specs/`, and the `sofb` binary ([`cli`]) runs
//! them without recompiling —
//!
//! ```sh
//! cargo run --release --bin sofb -- run specs/saturation.scn --smoke
//! cargo run --release --bin sofb -- run specs/fig6.scn --dry-run
//! cargo run --release --bin sofb -- trace specs/bench_protocols.scn --out trace.json
//! cargo run --release --bin sofb -- list specs
//! cargo run --release --bin sofb -- fuzz specs/fuzz_base.scn --smoke
//! ```
//!
//! A spec is the grid: `[scenario]` holds the base point, `[axis]`
//! sections the swept dimensions, `[smoke]` the CI-sized reduction.
//! Malformed files are rejected with line-numbered [`spec::SpecError`]s,
//! and the emitted grid-report JSON is deterministic and diffable at
//! 1e-9 (`sofb run … --check`). See `DESIGN.md` ("Spec language") for
//! the grammar.
//!
//! Schedules nobody wrote also get explored: the [`fuzz`] module (and
//! `sofb fuzz`) mutates any base spec along every adversarial axis —
//! crash/mute/delay windows, Byzantine order corruption,
//! partition-shaped mutes, engine-level message duplication and
//! reordering — checks the cross-protocol safety oracles on every
//! mutant, and delta-debugs any violation down to a minimal `.scn`
//! repro under `specs/repros/` that replays its pinned verdict forever.
//! See `DESIGN.md` ("Fuzzer").
//!
//! The same protocols also run on wall-clock time: the [`runtime`]
//! module hosts them on real threads behind the [`service`] façade's
//! execution core, and `sofb serve <spec.scn>` / `sofb call <addr> <op>`
//! expose the replicated KV over TCP. Every live run records a trace
//! that [`runtime::cross_validate`] replays through the simulator on
//! all four variants, asserting the identical commit order — see
//! `DESIGN.md` ("Live runtime").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod fuzz;
pub mod runtime;
pub mod scenario;
pub mod service;

pub use sofb_app as app;
pub use sofb_bft as bft;
pub use sofb_core as core;
pub use sofb_crypto as crypto;
pub use sofb_ct as ct;
pub use sofb_harness as harness;
pub use sofb_obs as obs;
pub use sofb_proto as proto;
pub use sofb_sim as sim;
pub use sofb_spec as spec;
