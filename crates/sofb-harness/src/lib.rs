//! # sofb-harness — the protocol-agnostic deployment harness
//!
//! One generic layer between the discrete-event simulator (`sofb-sim`)
//! and the protocol implementations (`sofb-core`, `sofb-bft`, `sofb-ct`):
//!
//! * [`protocol::Protocol`] — what a total-order protocol must provide to
//!   be hosted: a wire message type, node construction from shared
//!   [`protocol::Knobs`], a network shape, and a request constructor;
//! * [`builder::WorldBuilder`] — the flat world-assembly code path:
//!   every single-group deployment of every variant (SC, SCR, BFT, CT)
//!   is built here;
//! * [`shard::ShardRouter`] — key-based request routing (hash or
//!   explicit ranges) for multi-shard worlds, whose `S` independent
//!   ordering groups each run in their own engine;
//! * [`client::ClientActor`] — the one synthetic client implementation,
//!   with constant-rate or open-loop Poisson arrivals, multicasting to
//!   its flat world or, as one shard's replica, to the requests routed
//!   there;
//! * [`population::ClientPopulation`] — N open-loop clients aggregated
//!   into one actor by Poisson superposition (aggregate rate N·λ,
//!   per-client ids synthesized deterministically at emission), so a
//!   shard carries 10⁵–10⁶ simulated users at O(1) actor cost;
//! * `parallel` (internal) — the one multi-shard lowering: each shard of
//!   a [`scenario::Scenario`] executes in its own isolated engine, inline
//!   or on worker threads, and the per-shard traces merge into the
//!   realized global schedule by `(time, shard)` (every worker count
//!   realizes the same schedule, bit for bit — see
//!   `Scenario::world_workers`);
//! * [`fault::FaultSpec`] — the uniform fault plan: crash, mute and
//!   delayed faults work on every variant (the engine applies them);
//!   Byzantine scripts remain protocol-specific via
//!   [`protocol::Protocol::Byz`];
//! * [`event::ProtocolEvent`] — the uniform observation vocabulary all
//!   variants emit, which is what lets one analysis module measure every
//!   §5 metric for every protocol;
//! * [`analysis`] — that analysis module: the §5 measurements and the
//!   safety checks, over [`event::ProtocolEvent`] logs of any variant;
//! * [`obs`] — protocol phase spans (`order`, `commit`, milestone
//!   instants) derived deterministically from the observation log, the
//!   harness half of the `sofb-obs` tracing story (the engine half lives
//!   behind `sofb-sim`'s `TraceSink` hooks);
//! * [`scenario`] — the declarative layer on top: a validated
//!   [`scenario::Scenario`] value lowers onto the flat builder or the
//!   per-shard engines and yields a uniform [`scenario::Report`], and a
//!   [`scenario::SweepGrid`] expands axes over any scenario field into a
//!   deterministic, parallel-executed experiment matrix.
//!
//! A protocol crate plugs in by implementing [`protocol::Protocol`]:
//! every deployment of every variant is a [`builder::WorldBuilder`] over
//! one of those impls, so scenario work lands once and applies to all
//! four variants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod client;
pub mod event;
pub mod fault;
pub mod obs;
mod parallel;
pub mod population;
pub mod protocol;
pub mod scenario;
pub mod shard;

pub use builder::{Deployment, WorldBuilder};
pub use client::{Arrival, ClientActor, ClientSpec};
pub use event::ProtocolEvent;
pub use fault::{FaultPlan, FaultSpec};
pub use population::ClientPopulation;
pub use protocol::{Knobs, Links, Protocol, ProtocolKind};
pub use scenario::{
    Axis, ClientLoad, GridPoint, GridReport, LatencySummary, ObservedRun, Report, RouterPolicy,
    Scenario, ScenarioError, ScenarioFault, ScenarioFaultKind, ShardReport, SweepGrid, Window,
};
pub use shard::{RouterConfigError, ShardLoad, ShardRouter};
