//! Running declarative scenarios: the [`ProtocolKind`] →
//! [`Protocol`](sofb_harness::Protocol) dispatch.
//!
//! The [`Scenario`] value and the [`SweepGrid`] engine live in the
//! protocol-agnostic harness layer ([`sofb_harness::scenario`], re-exported
//! here), but mapping a scenario's *kind* onto its concrete protocol
//! implementation requires seeing every protocol crate — which only this
//! umbrella crate does. [`run`] is that dispatch; [`RunScenario`] offers
//! it as the method the tentpole API reads as, `scenario.run()?`; and
//! [`run_grid`] threads it into a grid execution.
//!
//! # Examples
//!
//! ```
//! use sofbyz::scenario::{ClientLoad, RunScenario, Scenario, Window};
//! use sofbyz::harness::ProtocolKind;
//!
//! let report = Scenario::new(ProtocolKind::Ct)
//!     .client(ClientLoad::constant(100.0, 100))
//!     .window(Window { warmup_s: 0, run_s: 1, drain_s: 1 })
//!     .run()
//!     .expect("a valid scenario runs");
//! assert!(report.committed_requests() > 0);
//! ```

use sofb_bft::sim::BftProtocol;
use sofb_core::sim::ScProtocol;
use sofb_ct::sim::CtProtocol;
use sofb_harness::ProtocolKind;
use sofb_obs::TraceConfig;
use sofb_sim::engine::TimedEvent;

pub use sofb_harness::scenario::{
    Axis, ClientLoad, GridCell, GridPoint, GridReport, LatencySummary, ObservedRun, Report,
    Scenario, ScenarioError, ScenarioFault, ScenarioFaultKind, ScenarioPatch, ShardReport,
    SweepGrid, Window,
};
pub use sofb_harness::ProtocolEvent;

/// Validates and runs `scenario` on the protocol its `kind` names,
/// returning the uniform [`Report`].
pub fn run(scenario: &Scenario) -> Result<Report, ScenarioError> {
    match scenario.kind {
        ProtocolKind::Sc | ProtocolKind::Scr => scenario.run_as::<ScProtocol>(),
        ProtocolKind::Bft => scenario.run_as::<BftProtocol>(),
        ProtocolKind::Ct => scenario.run_as::<CtProtocol>(),
    }
}

/// [`run`], additionally returning the raw observation log (what the
/// golden-equivalence tests compare against the legacy builders bit for
/// bit).
#[allow(clippy::type_complexity)]
pub fn run_traced(
    scenario: &Scenario,
) -> Result<(Report, Vec<TimedEvent<ProtocolEvent>>), ScenarioError> {
    match scenario.kind {
        ProtocolKind::Sc | ProtocolKind::Scr => scenario.run_traced_as::<ScProtocol>(),
        ProtocolKind::Bft => scenario.run_traced_as::<BftProtocol>(),
        ProtocolKind::Ct => scenario.run_traced_as::<CtProtocol>(),
    }
}

/// [`run_traced`] without the panicking per-shard safety check: a
/// total-order violation leaves the trace intact for an outside oracle.
/// The fuzzer's runner — everything else should prefer [`run_traced`],
/// whose abort-on-violation is the default safety net.
#[allow(clippy::type_complexity)]
pub fn run_traced_unchecked(
    scenario: &Scenario,
) -> Result<(Report, Vec<TimedEvent<ProtocolEvent>>), ScenarioError> {
    match scenario.kind {
        ProtocolKind::Sc | ProtocolKind::Scr => scenario.run_traced_unchecked_as::<ScProtocol>(),
        ProtocolKind::Bft => scenario.run_traced_unchecked_as::<BftProtocol>(),
        ProtocolKind::Ct => scenario.run_traced_unchecked_as::<CtProtocol>(),
    }
}

/// [`run_traced`], additionally collecting the structured trace: engine
/// dispatch/deliver/fault records plus the derived protocol phase spans,
/// filtered by `config`. The [`ObservedRun`] also carries the
/// per-shard engine counters and the deterministic metrics snapshot —
/// this is what `sofb trace` renders into Chrome trace JSON.
pub fn run_observed(
    scenario: &Scenario,
    config: &TraceConfig,
) -> Result<ObservedRun, ScenarioError> {
    match scenario.kind {
        ProtocolKind::Sc | ProtocolKind::Scr => scenario.run_observed_as::<ScProtocol>(config),
        ProtocolKind::Bft => scenario.run_observed_as::<BftProtocol>(config),
        ProtocolKind::Ct => scenario.run_observed_as::<CtProtocol>(config),
    }
}

/// [`run_observed`] without the panicking per-shard safety check — the
/// observability counterpart of [`run_traced_unchecked`], for tracing
/// runs whose verdict an outside oracle decides.
pub fn run_observed_unchecked(
    scenario: &Scenario,
    config: &TraceConfig,
) -> Result<ObservedRun, ScenarioError> {
    match scenario.kind {
        ProtocolKind::Sc | ProtocolKind::Scr => {
            scenario.run_observed_unchecked_as::<ScProtocol>(config)
        }
        ProtocolKind::Bft => scenario.run_observed_unchecked_as::<BftProtocol>(config),
        ProtocolKind::Ct => scenario.run_observed_unchecked_as::<CtProtocol>(config),
    }
}

/// Executes a [`SweepGrid`] on up to `workers` threads with the
/// kind-dispatching runner — the one-liner every sweep binary uses.
pub fn run_grid(grid: &SweepGrid, workers: usize) -> Result<GridReport, ScenarioError> {
    grid.run_with(workers, run)
}

/// Worker threads for grid execution when the caller has no opinion:
/// enough to overlap sweep points, capped so laptops and CI machines
/// stay responsive. Grid results are identical at any worker count
/// (pinned by the determinism tests), so this only changes wall time.
/// The one definition behind both the sweep binaries and the `sofb`
/// CLI.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1)
}

/// Method-call sugar for [`run`]: `scenario.run()?`.
pub trait RunScenario {
    /// Validates and runs the scenario on the protocol its kind names.
    fn run(&self) -> Result<Report, ScenarioError>;
}

impl RunScenario for Scenario {
    fn run(&self) -> Result<Report, ScenarioError> {
        run(self)
    }
}
