//! Harness glue: the CT [`Protocol`] implementation and the historical
//! [`CtWorldBuilder`] facade.

use sofb_harness::{ClientSpec, Deployment, FaultSpec, Knobs, Protocol, WorldBuilder};
use sofb_proto::ids::ProcessId;
use sofb_proto::request::Request;
use sofb_sim::cpu::CpuModel;
use sofb_sim::engine::{Actor, World};
use sofb_sim::time::{SimDuration, SimTime};

use sofb_core::events::ScEvent;

use crate::messages::CtMsg;
use crate::process::{CtConfig, CtProcess};

pub use sofb_harness::{ShardLoad, ShardRouter};

/// CT tolerates crash faults only, so it has no scripted Byzantine
/// misbehaviours — the uniform crash/mute/delay faults are the whole
/// plan. (Uninhabited: a `FaultSpec::Byzantine` cannot be constructed.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtByz {}

/// The crash-tolerant baseline, as hosted by the generic harness.
#[derive(Debug)]
pub struct CtProtocol;

impl Protocol for CtProtocol {
    type Msg = CtMsg;
    type Byz = CtByz;

    const NAME: &'static str = "CT";

    fn node_count(knobs: &Knobs) -> usize {
        2 * knobs.f as usize + 1
    }

    fn build_nodes(
        knobs: &Knobs,
        _byz: &[(ProcessId, CtByz)],
    ) -> Vec<Box<dyn Actor<Msg = CtMsg, Event = ScEvent>>> {
        (0..Self::node_count(knobs))
            .map(|i| {
                let mut cfg = CtConfig::new(knobs.f, i as u32);
                cfg.batching_interval = knobs.batching_interval;
                cfg.batch_max_bytes = knobs.batch_max_bytes;
                Box::new(CtProcess::new(cfg)) as Box<dyn Actor<Msg = CtMsg, Event = ScEvent>>
            })
            .collect()
    }

    fn request_msg(req: Request) -> CtMsg {
        CtMsg::Request(req)
    }
}

/// Builder for a simulated CT deployment (thin facade over the generic
/// [`WorldBuilder`]).
#[derive(Debug)]
pub struct CtWorldBuilder {
    inner: WorldBuilder<CtProtocol>,
}

impl CtWorldBuilder {
    /// Starts a builder for resilience `f`.
    pub fn new(f: u32) -> Self {
        CtWorldBuilder {
            inner: WorldBuilder::new(f),
        }
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner = self.inner.seed(seed);
        self
    }

    /// Sets the batching interval.
    pub fn batching_interval(mut self, d: SimDuration) -> Self {
        self.inner = self.inner.batching_interval(d);
        self
    }

    /// Overrides the CPU model.
    pub fn cpu(mut self, cpu: CpuModel) -> Self {
        self.inner = self.inner.cpu(cpu);
        self
    }

    /// Installs a uniform fault (crash / mute / delay) on one replica.
    pub fn fault(mut self, p: ProcessId, spec: FaultSpec<CtByz>) -> Self {
        self.inner = self.inner.fault(p, spec);
        self
    }

    /// Adds a client: (rate/s, request size, stop time).
    pub fn client(mut self, rate_per_sec: f64, request_size: usize, stop_at: SimTime) -> Self {
        self.inner = self
            .inner
            .client(ClientSpec::new(rate_per_sec, request_size, stop_at));
        self
    }

    /// Assembles the world; returns it with the replica count.
    pub fn build(self) -> (World<CtMsg, ScEvent>, usize) {
        let deployment: Deployment<CtProtocol> = self.inner.build();
        (deployment.world, deployment.n_processes)
    }
}
