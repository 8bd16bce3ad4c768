//! The single world-assembly code path: [`WorldBuilder`] builds a
//! simulated deployment of *any* [`Protocol`] — order processes, network
//! shape, synthetic clients and fault plan — and returns a running
//! [`Deployment`].

use sofb_crypto::scheme::SchemeId;
use sofb_proto::ids::{ClientId, ProcessId};
use sofb_proto::topology::Variant;
use sofb_sim::cpu::CpuModel;
use sofb_sim::delay::LinkModel;
use sofb_sim::engine::World;
use sofb_sim::time::{SimDuration, SimTime};

use crate::client::{Arrival, ClientActor, ClientSpec};
use crate::event::ProtocolEvent;
use crate::fault::{FaultPlan, FaultSpec};
use crate::population::ClientPopulation;
use crate::protocol::{Knobs, Links, Protocol};
use sofb_sim::engine::Actor;

/// Builder for a complete simulated deployment of protocol `P`.
///
/// # Examples
///
/// Protocol crates provide the `P` implementations, so no example can
/// compile here; the crate-level examples of `sofb-core`, `sofb-bft` and
/// `sofb-ct` assemble, run and check a deployment of each through this
/// builder.
#[derive(Debug)]
pub struct WorldBuilder<P: Protocol> {
    knobs: Knobs,
    links: Links,
    cpu: CpuModel,
    clients: Vec<(ClientSpec, Arrival, usize)>,
    faults: FaultPlan<P::Byz>,
}

impl<P: Protocol> WorldBuilder<P> {
    /// Starts a builder for resilience `f` with the paper's defaults.
    pub fn new(f: u32) -> Self {
        WorldBuilder {
            knobs: Knobs {
                f,
                ..Knobs::default()
            },
            links: Links::default(),
            cpu: CpuModel::default(),
            clients: Vec::new(),
            faults: FaultPlan::new(),
        }
    }

    /// Replaces the full knob set.
    pub fn knobs(mut self, knobs: Knobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Sets the SC layout flavour (ignored by BFT/CT).
    pub fn variant(mut self, variant: Variant) -> Self {
        self.knobs.variant = variant;
        self
    }

    /// Sets the crypto scheme.
    pub fn scheme(mut self, scheme: SchemeId) -> Self {
        self.knobs.scheme = scheme;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.knobs.seed = seed;
        self
    }

    /// Sets the batching interval (the paper sweeps 40–500 ms).
    pub fn batching_interval(mut self, d: SimDuration) -> Self {
        self.knobs.batching_interval = d;
        self
    }

    /// Sets the shadow's proposal-timeliness estimate (SC/SCR).
    pub fn order_timeout(mut self, d: SimDuration) -> Self {
        self.knobs.order_timeout = d;
        self
    }

    /// Pads BackLogs (Figure 6's size sweep; SC/SCR).
    pub fn backlog_pad(mut self, pad: usize) -> Self {
        self.knobs.backlog_pad = pad;
        self
    }

    /// Sets the checkpoint interval (0 disables log truncation; SC/SCR).
    pub fn checkpoint_interval(mut self, every: u64) -> Self {
        self.knobs.checkpoint_interval = every;
        self
    }

    /// Enables/disables time-domain failure detection (SC/SCR).
    pub fn time_checks(mut self, on: bool) -> Self {
        self.knobs.time_checks = on;
        self
    }

    /// Enables BFT view changes with the given request timeout.
    pub fn request_timeout(mut self, d: SimDuration) -> Self {
        self.knobs.request_timeout = Some(d);
        self
    }

    /// Overrides the CPU model of every process node.
    pub fn cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    /// Overrides the asynchronous-network link model.
    pub fn lan_link(mut self, link: LinkModel) -> Self {
        self.links.lan = link;
        self
    }

    /// Overrides the intra-pair link model (SC/SCR).
    pub fn pair_link(mut self, link: LinkModel) -> Self {
        self.links.pair = link;
        self
    }

    /// Adds a constant-rate client.
    pub fn client(mut self, spec: ClientSpec) -> Self {
        self.clients.push((spec, Arrival::Constant, 1));
        self
    }

    /// Adds an open-loop Poisson client.
    pub fn poisson_client(mut self, spec: ClientSpec) -> Self {
        self.clients.push((spec, Arrival::Poisson, 1));
        self
    }

    /// Adds `population` open-loop clients sharing one spec. A
    /// population of 1 is an ordinary [`ClientActor`]; larger counts
    /// are aggregated into a single [`ClientPopulation`] actor.
    ///
    /// # Panics
    ///
    /// Panics if `population` is 0.
    pub fn client_population(
        mut self,
        spec: ClientSpec,
        arrival: Arrival,
        population: usize,
    ) -> Self {
        assert!(population >= 1, "client population must be at least 1");
        self.clients.push((spec, arrival, population));
        self
    }

    /// Installs a fault on one process (crash/mute/delay work on every
    /// variant; Byzantine entries are protocol-specific).
    pub fn fault(mut self, p: ProcessId, spec: FaultSpec<P::Byz>) -> Self {
        self.faults.push(p, spec);
        self
    }

    /// Assembles the world.
    pub fn build(self) -> Deployment<P> {
        let n = P::node_count(&self.knobs);
        let net = P::network(&self.knobs, &self.links);
        let mut world: World<P::Msg, ProtocolEvent> = World::new(net, self.knobs.seed);

        let byz = self.faults.byzantine();
        let nodes = P::build_nodes(&self.knobs, &byz);
        assert_eq!(
            nodes.len(),
            n,
            "{}: node_count/build_nodes mismatch",
            P::NAME
        );
        for actor in nodes {
            world.add_node(actor, self.cpu);
        }

        let mut client_nodes = Vec::with_capacity(self.clients.len());
        // Base ids advance by each entry's population — identical to
        // the historical `ClientId(k)` numbering when every population
        // is 1.
        let mut next_id = 0u32;
        for (spec, arrival, population) in &self.clients {
            let client: Box<dyn Actor<Msg = P::Msg, Event = ProtocolEvent>> = if *population > 1 {
                Box::new(ClientPopulation::new(
                    ClientId(next_id),
                    *population,
                    n,
                    spec,
                    *arrival,
                    self.knobs.seed,
                    P::request_msg,
                ))
            } else {
                Box::new(ClientActor::new(
                    ClientId(next_id),
                    n,
                    spec,
                    *arrival,
                    P::request_msg,
                ))
            };
            client_nodes.push(world.add_node(client, CpuModel::zero()));
            next_id += *population as u32;
        }

        // Engine-level faults apply to order processes only (Byzantine
        // entries were consumed by build_nodes).
        for (p, spec) in self.faults.entries() {
            let node = p.0 as usize;
            assert!(node < n, "fault target {p} outside process set");
            crate::fault::apply_engine_fault(&mut world, node, spec);
        }

        Deployment {
            world,
            n_processes: n,
            client_nodes,
            knobs: self.knobs,
        }
    }
}

/// A built deployment of protocol `P`.
pub struct Deployment<P: Protocol> {
    /// The simulator world (drive with [`Deployment::start`] /
    /// [`Deployment::run_until`], or directly).
    pub world: World<P::Msg, ProtocolEvent>,
    /// Number of order processes (nodes `0..n_processes`).
    pub n_processes: usize,
    /// Node indices of the synthetic clients.
    pub client_nodes: Vec<usize>,
    /// The knob set the deployment was built with.
    pub knobs: Knobs,
}

impl<P: Protocol> Deployment<P> {
    /// Starts all nodes.
    pub fn start(&mut self) {
        self.world.start();
    }

    /// Runs until the given virtual time.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }
}
