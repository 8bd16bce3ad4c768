//! The declarative Scenario API: one validated spec plus one runner for
//! every experiment, flat or sharded.
//!
//! A [`Scenario`] is a plain value describing a complete experiment —
//! protocol kind, resilience, crypto scheme, shard count, client
//! workload (rate, size, arrival process, population),
//! network/CPU models, a fault plan with pre/post-GST windows, the
//! measurement window and the seed. [`Scenario::validate`] rejects
//! malformed specs with typed [`ScenarioError`]s (never a panic);
//! [`Scenario::run_as`] lowers a valid spec — `shards == 1` onto the
//! flat [`WorldBuilder`] path, `shards > 1` onto one isolated engine per
//! shard whose traces merge by `(time, shard)` — runs it and summarizes
//! the observation log into a uniform [`Report`]. A one-shard scenario
//! realizes the *bit-identical* event trace of the legacy flat builder
//! (pinned by the golden-equivalence tests).
//!
//! On top of the spec sits the [`SweepGrid`] engine: declare [`Axis`]
//! values over any scenario field, take the cartesian product, replicate
//! across seeds, and execute the points on worker threads with
//! deterministic result ordering — the same [`GridReport`] regardless of
//! worker count.
//!
//! Dispatching a [`ProtocolKind`] to its concrete [`Protocol`]
//! implementation requires seeing every protocol crate, which sit
//! *above* this one; the umbrella crate (`sofbyz::scenario::run`)
//! provides that dispatch, and sweep drivers thread it in through
//! [`SweepGrid::run_with`].

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sofb_crypto::scheme::SchemeId;
use sofb_obs::{MemSink, MetricsSnapshot, TraceConfig, TraceRecord};
use sofb_proto::ids::{ProcessId, SeqNo};
use sofb_proto::topology::Variant;
use sofb_sim::cpu::CpuModel;
use sofb_sim::delay::LinkModel;
use sofb_sim::engine::TimedEvent;
use sofb_sim::metrics::{EngineCounters, GroupRollup};
use sofb_sim::time::{SimDuration, SimTime};

use crate::analysis;
use crate::builder::WorldBuilder;
use crate::client::{Arrival, ClientSpec};
use crate::event::ProtocolEvent;
use crate::fault::FaultSpec;
use crate::protocol::{Knobs, Links, Protocol, ProtocolKind};

/// Measurement window for one scenario run: clients stop issuing at
/// `run_s`, the world keeps draining until `run_s + drain_s`, and the
/// first `warmup_s` seconds are excluded from measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// Warm-up excluded from measurement (seconds, virtual).
    pub warmup_s: u64,
    /// Total run length (seconds, virtual).
    pub run_s: u64,
    /// Extra drain time after clients stop, so saturated batches still
    /// commit and report their (large) latencies as the paper's
    /// log-scale figures do.
    pub drain_s: u64,
}

impl Default for Window {
    fn default() -> Self {
        Window {
            warmup_s: 4,
            run_s: 14,
            drain_s: 45,
        }
    }
}

impl Window {
    /// Start of the measurement interval.
    pub fn warmup(&self) -> SimTime {
        SimTime::from_secs(self.warmup_s)
    }

    /// End of the measurement interval (clients stop here).
    pub fn end(&self) -> SimTime {
        SimTime::from_secs(self.run_s)
    }

    /// End of the run including the drain period.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.run_s + self.drain_s)
    }
}

/// One synthetic client's workload inside a scenario: the rate, request
/// size, arrival process and population. The stop
/// time is derived from the scenario's [`Window`] — clients always stop
/// where the measurement window ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientLoad {
    /// Requests per second. In a multi-shard world every shard receives
    /// this rate: the client issues at `rate × shards`, dealt
    /// round-robin.
    pub rate_per_sec: f64,
    /// Payload size in bytes.
    pub request_size: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// How many simulated clients this entry stands for. The default 1
    /// deploys one [`ClientActor`](crate::client::ClientActor); larger
    /// counts aggregate into a single
    /// [`ClientPopulation`](crate::population::ClientPopulation) actor
    /// (each member offering `rate_per_sec`), so a world carries
    /// 10⁵–10⁶ simulated users at O(1) actor cost. Must be ≥ 1.
    pub population: usize,
}

impl ClientLoad {
    /// A constant-rate client (the paper's workload).
    pub fn constant(rate_per_sec: f64, request_size: usize) -> Self {
        ClientLoad {
            rate_per_sec,
            request_size,
            arrival: Arrival::Constant,
            population: 1,
        }
    }

    /// An open-loop Poisson client at the same mean rate.
    pub fn poisson(rate_per_sec: f64, request_size: usize) -> Self {
        ClientLoad {
            arrival: Arrival::Poisson,
            ..ClientLoad::constant(rate_per_sec, request_size)
        }
    }

    /// Aggregates this entry into a population of `n` simulated clients
    /// sharing the spec, each offering `rate_per_sec` (see
    /// [`ClientLoad::population`]). Validation rejects 0.
    pub fn population(mut self, n: usize) -> Self {
        self.population = n;
        self
    }
}

/// A protocol-agnostic fault behaviour inside a scenario's fault plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioFaultKind {
    /// Halt the process at the given time.
    Crash {
        /// When the crash takes effect.
        at: SimTime,
    },
    /// Drop every message the process sends within the window
    /// (`until = None`: forever) — the pre-GST silence shape.
    Mute {
        /// When the mute takes effect.
        from: SimTime,
        /// When the mute lifts (`None`: forever).
        until: Option<SimTime>,
    },
    /// Add `extra` one-way latency to every message the process sends
    /// within the window — pre-GST asynchrony that lifts at the Global
    /// Stabilization Time.
    Delay {
        /// When the degradation starts.
        from: SimTime,
        /// When the degradation lifts (`None`: forever).
        until: Option<SimTime>,
        /// Added one-way latency.
        extra: SimDuration,
    },
    /// Transmit every message the process sends within the window twice,
    /// the duplicate under an independently sampled link latency — an
    /// at-least-once transport retrying spuriously.
    Duplicate {
        /// When duplication starts.
        from: SimTime,
        /// When duplication stops (`None`: forever).
        until: Option<SimTime>,
    },
    /// Add a uniformly sampled extra delay in `[0, jitter]` to every
    /// message the process sends within the window — deterministic
    /// message reordering within a known delay bound.
    Reorder {
        /// When the jitter starts.
        from: SimTime,
        /// When the jitter stops (`None`: forever).
        until: Option<SimTime>,
        /// Upper bound of the sampled per-message extra delay.
        jitter: SimDuration,
    },
    /// Value-domain corruption of the order carrying sequence number
    /// `o` — the Figure-6 fail-over trigger. Only SC/SCR script this;
    /// scenarios targeting other kinds are rejected at validation.
    CorruptOrderAt {
        /// The corrupted order's sequence number.
        o: SeqNo,
    },
}

/// One fault plan entry: which process of which shard misbehaves, and
/// how.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioFault {
    /// The targeted ordering group (0 in a flat world).
    pub shard: usize,
    /// The targeted process, shard-relative.
    pub process: ProcessId,
    /// The behaviour.
    pub kind: ScenarioFaultKind,
}

impl ScenarioFault {
    /// A crash of `process` (shard 0) at `at`.
    pub fn crash(process: ProcessId, at: SimTime) -> Self {
        ScenarioFault {
            shard: 0,
            process,
            kind: ScenarioFaultKind::Crash { at },
        }
    }

    /// A mute window `[from, until)` on `process` (shard 0).
    pub fn mute_until(process: ProcessId, from: SimTime, until: SimTime) -> Self {
        ScenarioFault {
            shard: 0,
            process,
            kind: ScenarioFaultKind::Mute {
                from,
                until: Some(until),
            },
        }
    }

    /// A delay window `[from, until)` of `extra` on `process` (shard 0).
    pub fn delay_until(
        process: ProcessId,
        from: SimTime,
        until: SimTime,
        extra: SimDuration,
    ) -> Self {
        ScenarioFault {
            shard: 0,
            process,
            kind: ScenarioFaultKind::Delay {
                from,
                until: Some(until),
                extra,
            },
        }
    }

    /// A duplication window `[from, until)` on `process` (shard 0).
    pub fn duplicate_until(process: ProcessId, from: SimTime, until: SimTime) -> Self {
        ScenarioFault {
            shard: 0,
            process,
            kind: ScenarioFaultKind::Duplicate {
                from,
                until: Some(until),
            },
        }
    }

    /// A reorder window `[from, until)` with jitter bound `jitter` on
    /// `process` (shard 0).
    pub fn reorder_until(
        process: ProcessId,
        from: SimTime,
        until: SimTime,
        jitter: SimDuration,
    ) -> Self {
        ScenarioFault {
            shard: 0,
            process,
            kind: ScenarioFaultKind::Reorder {
                from,
                until: Some(until),
                jitter,
            },
        }
    }

    /// A value-domain corruption of sequence `o` at `process` (shard 0).
    pub fn corrupt_order_at(process: ProcessId, o: SeqNo) -> Self {
        ScenarioFault {
            shard: 0,
            process,
            kind: ScenarioFaultKind::CorruptOrderAt { o },
        }
    }

    /// Re-targets the fault at another shard.
    pub fn on_shard(mut self, shard: usize) -> Self {
        self.shard = shard;
        self
    }
}

/// A rejected scenario: every variant names the offending field so sweep
/// authors can fix the spec without reading the validator.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// `f` is below what the variant's layout needs (every hosted
    /// variant needs `f ≥ 1`).
    InvalidResilience {
        /// The scenario's protocol kind.
        kind: ProtocolKind,
        /// The rejected resilience.
        f: u32,
    },
    /// `window.run_s ≤ window.warmup_s`: nothing would be measured.
    EmptyWindow {
        /// The window's warm-up seconds.
        warmup_s: u64,
        /// The window's run seconds.
        run_s: u64,
    },
    /// `kind` is SC/SCR but `knobs.variant` names the other layout.
    VariantMismatch {
        /// The scenario's protocol kind.
        kind: ProtocolKind,
        /// The conflicting knob value.
        variant: Variant,
    },
    /// `shards` is zero.
    NoShards,
    /// A client's rate is not a positive finite number.
    ClientRate {
        /// Index into `clients`.
        client: usize,
        /// The rejected rate.
        rate: f64,
    },
    /// A client entry's population is zero.
    ClientPopulation {
        /// Index into `clients`.
        client: usize,
    },
    /// A fault targets a shard outside the world.
    FaultShard {
        /// Index into `faults`.
        fault: usize,
        /// The targeted shard.
        shard: usize,
        /// The world's shard count.
        shards: usize,
    },
    /// A fault targets a process outside its shard's process set.
    FaultProcess {
        /// Index into `faults`.
        fault: usize,
        /// The targeted process.
        process: ProcessId,
        /// The shard's process count.
        n: usize,
    },
    /// A windowed fault's `until` does not exceed its `from`.
    FaultWindow {
        /// Index into `faults`.
        fault: usize,
        /// Window start.
        from: SimTime,
        /// Window end (≤ start — the defect).
        until: SimTime,
    },
    /// A fault kind the scenario's protocol kind cannot script (e.g.
    /// `CorruptOrderAt` on BFT/CT).
    UnsupportedFault {
        /// Index into `faults`.
        fault: usize,
        /// The scenario's protocol kind.
        kind: ProtocolKind,
    },
    /// An error raised while expanding or running one grid point,
    /// wrapped with the point's deterministic index.
    GridPoint {
        /// The failing point's index in grid order.
        index: usize,
        /// The underlying error.
        source: Box<ScenarioError>,
    },
    /// A sweep worker thread died before reporting its point's result.
    WorkerLost {
        /// The abandoned point's index in grid order.
        index: usize,
    },
    /// A parallel-world worker thread died before reporting its
    /// shard's result.
    WorldWorkerLost {
        /// The abandoned shard's index.
        shard: usize,
    },
    /// The scenario was lowered onto a protocol implementation whose
    /// layout does not match its `kind` (wrong `run_as::<P>()` call).
    ProtocolMismatch {
        /// The scenario's protocol kind.
        kind: ProtocolKind,
        /// The hosted protocol's display name.
        protocol: &'static str,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::InvalidResilience { kind, f: got } => {
                write!(f, "field `f`: {kind} needs f >= 1, got {got}")
            }
            ScenarioError::EmptyWindow { warmup_s, run_s } => write!(
                f,
                "field `window`: empty measurement window (run_s {run_s} <= warmup_s {warmup_s})"
            ),
            ScenarioError::VariantMismatch { kind, variant } => write!(
                f,
                "field `knobs.variant`: kind {kind} conflicts with variant {variant:?}"
            ),
            ScenarioError::NoShards => write!(f, "field `shards`: a world needs at least 1 shard"),
            ScenarioError::ClientRate { client, rate } => write!(
                f,
                "field `clients[{client}].rate_per_sec`: rate must be positive and finite, got {rate}"
            ),
            ScenarioError::ClientPopulation { client } => write!(
                f,
                "field `clients[{client}].population`: a population needs at least 1 client"
            ),
            ScenarioError::FaultShard {
                fault,
                shard,
                shards,
            } => write!(
                f,
                "field `faults[{fault}].shard`: shard {shard} outside the world's {shards} shard(s)"
            ),
            ScenarioError::FaultProcess { fault, process, n } => write!(
                f,
                "field `faults[{fault}].process`: process {process} outside the shard's {n} process(es)"
            ),
            ScenarioError::FaultWindow { fault, from, until } => write!(
                f,
                "field `faults[{fault}]`: window end {until:?} must exceed start {from:?}"
            ),
            ScenarioError::UnsupportedFault { fault, kind } => write!(
                f,
                "field `faults[{fault}]`: {kind} cannot script value-domain faults"
            ),
            ScenarioError::GridPoint { index, source } => {
                write!(f, "grid point {index}: {source}")
            }
            ScenarioError::WorkerLost { index } => {
                write!(f, "grid point {index}: worker thread died before reporting")
            }
            ScenarioError::WorldWorkerLost { shard } => write!(
                f,
                "shard {shard}: world-worker thread died before reporting"
            ),
            ScenarioError::ProtocolMismatch { kind, protocol } => write!(
                f,
                "field `kind`: {kind} lowered onto protocol {protocol}, whose layout differs"
            ),
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::GridPoint { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A complete, declarative experiment description.
///
/// Construct with [`Scenario::new`] (plain defaults) or
/// [`Scenario::bench`] (the §5 measurement posture), refine with the
/// builder methods or by writing fields directly (every field is
/// public — that is what lets [`Axis`] patches sweep any of them), then
/// [`Scenario::validate`] / [`Scenario::run_as`].
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Which protocol family to deploy.
    pub kind: ProtocolKind,
    /// The shared knob set (resilience, scheme, seed, batching, …);
    /// `knobs.variant` must agree with `kind` for SC/SCR.
    pub knobs: Knobs,
    /// Number of independent ordering groups (1 = the flat world).
    pub shards: usize,
    /// The synthetic client workload.
    pub clients: Vec<ClientLoad>,
    /// The two link classes of the testbed.
    pub links: Links,
    /// CPU model of every order process.
    pub cpu: CpuModel,
    /// The fault plan, `(shard, process)`-addressed.
    pub faults: Vec<ScenarioFault>,
    /// Measurement window (also derives the clients' stop time).
    pub window: Window,
    /// Worker threads that compute a multi-shard scenario's per-shard
    /// engines. A thread count only: 0 (the default, "unset") and 1 both
    /// run the shards inline on the calling thread, larger values on up
    /// to that many threads — every value realizes the identical
    /// schedule, bit for bit. Ignored when `shards == 1`: a flat world
    /// has nothing to split.
    pub world_workers: usize,
}

impl Scenario {
    /// A fail-free single-group scenario of `kind` with the paper's
    /// default knobs and no clients.
    pub fn new(kind: ProtocolKind) -> Self {
        let mut knobs = Knobs::default();
        if let Some(v) = kind.variant() {
            knobs.variant = v;
        }
        Scenario {
            kind,
            knobs,
            shards: 1,
            clients: Vec::new(),
            links: Links::default(),
            cpu: CpuModel::default(),
            faults: Vec::new(),
            window: Window::default(),
            world_workers: 0,
        }
    }

    /// The §5 measurement posture: [`Scenario::new`] plus time-domain
    /// detection off (best case — "no failures and also no suspicions of
    /// failures", so saturation cannot masquerade as a failure) and the
    /// standard offered load (three constant-rate clients × 100 req/s ×
    /// 100-byte requests — enough to fill 1 KB batches at the smallest
    /// swept interval).
    pub fn bench(kind: ProtocolKind) -> Self {
        let mut s = Scenario::new(kind);
        s.knobs.time_checks = false;
        s.clients = vec![ClientLoad::constant(100.0, 100); 3];
        s
    }

    /// Re-targets the scenario at another protocol kind (keeps
    /// `knobs.variant` in sync — what the kind [`Axis`] patches through).
    pub fn set_kind(&mut self, kind: ProtocolKind) {
        self.kind = kind;
        if let Some(v) = kind.variant() {
            self.knobs.variant = v;
        }
    }

    /// Sets the resilience parameter.
    pub fn f(mut self, f: u32) -> Self {
        self.knobs.f = f;
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

    /// Sets the batching interval in milliseconds.
    pub fn interval_ms(mut self, ms: u64) -> Self {
        self.knobs.batching_interval = SimDuration::from_ms(ms);
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

    /// Sets the shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the world-worker thread count (see
    /// [`Scenario::world_workers`]): the shards of a multi-shard world
    /// run on up to that many threads; the result does not depend on it.
    pub fn world_workers(mut self, workers: usize) -> Self {
        self.world_workers = workers;
        self
    }

    /// Appends one client.
    pub fn client(mut self, load: ClientLoad) -> Self {
        self.clients.push(load);
        self
    }

    /// Replaces the client set with `n` copies of `load`.
    pub fn clients(mut self, n: usize, load: ClientLoad) -> Self {
        self.clients = vec![load; n];
        self
    }

    /// Appends one fault plan entry.
    pub fn fault(mut self, fault: ScenarioFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Sets the measurement window.
    pub fn window(mut self, window: Window) -> Self {
        self.window = window;
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

    /// Overrides the CPU model of every process node.
    pub fn cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    /// Order processes per shard for this spec (the kind's layout
    /// formula; cross-checked against `P::node_count` at lowering).
    pub fn nodes_per_shard(&self) -> usize {
        self.kind.node_count(self.knobs.f)
    }

    /// Total requests the client set offers within `[0, run_s]` — the
    /// denominator of delivery-ratio metrics.
    pub fn offered_requests(&self) -> f64 {
        let secs = self.window.run_s as f64;
        self.clients
            .iter()
            .map(|c| c.rate_per_sec * self.shards as f64 * secs * c.population as f64)
            .sum()
    }

    /// Checks the spec, returning the first defect as a typed error that
    /// names the offending field. A `Ok(())` spec never panics inside
    /// the builders it lowers onto.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.knobs.f == 0 {
            return Err(ScenarioError::InvalidResilience {
                kind: self.kind,
                f: self.knobs.f,
            });
        }
        if self.window.run_s <= self.window.warmup_s {
            return Err(ScenarioError::EmptyWindow {
                warmup_s: self.window.warmup_s,
                run_s: self.window.run_s,
            });
        }
        if let Some(v) = self.kind.variant() {
            if self.knobs.variant != v {
                return Err(ScenarioError::VariantMismatch {
                    kind: self.kind,
                    variant: self.knobs.variant,
                });
            }
        }
        if self.shards == 0 {
            return Err(ScenarioError::NoShards);
        }
        for (i, c) in self.clients.iter().enumerate() {
            if !(c.rate_per_sec.is_finite() && c.rate_per_sec > 0.0) {
                return Err(ScenarioError::ClientRate {
                    client: i,
                    rate: c.rate_per_sec,
                });
            }
            if c.population == 0 {
                return Err(ScenarioError::ClientPopulation { client: i });
            }
        }
        let n = self.nodes_per_shard();
        for (i, fault) in self.faults.iter().enumerate() {
            if fault.shard >= self.shards {
                return Err(ScenarioError::FaultShard {
                    fault: i,
                    shard: fault.shard,
                    shards: self.shards,
                });
            }
            if fault.process.0 as usize >= n {
                return Err(ScenarioError::FaultProcess {
                    fault: i,
                    process: fault.process,
                    n,
                });
            }
            match fault.kind {
                ScenarioFaultKind::Mute {
                    from,
                    until: Some(until),
                }
                | ScenarioFaultKind::Delay {
                    from,
                    until: Some(until),
                    ..
                }
                | ScenarioFaultKind::Duplicate {
                    from,
                    until: Some(until),
                }
                | ScenarioFaultKind::Reorder {
                    from,
                    until: Some(until),
                    ..
                } if until <= from => {
                    return Err(ScenarioError::FaultWindow {
                        fault: i,
                        from,
                        until,
                    });
                }
                ScenarioFaultKind::CorruptOrderAt { .. }
                    if !matches!(self.kind, ProtocolKind::Sc | ProtocolKind::Scr) =>
                {
                    return Err(ScenarioError::UnsupportedFault {
                        fault: i,
                        kind: self.kind,
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Lowers one fault entry onto the uniform [`FaultSpec`] of the
    /// hosted protocol (shared with the parallel runner).
    pub(crate) fn lower_fault<P: Protocol>(
        &self,
        index: usize,
        fault: &ScenarioFault,
    ) -> Result<FaultSpec<P::Byz>, ScenarioError> {
        Ok(match fault.kind {
            ScenarioFaultKind::Crash { at } => FaultSpec::Crash { at },
            ScenarioFaultKind::Mute { from, until } => FaultSpec::Mute { from, until },
            ScenarioFaultKind::Delay { from, until, extra } => {
                FaultSpec::Delay { from, until, extra }
            }
            ScenarioFaultKind::Duplicate { from, until } => FaultSpec::Duplicate { from, until },
            ScenarioFaultKind::Reorder {
                from,
                until,
                jitter,
            } => FaultSpec::Reorder {
                from,
                until,
                jitter,
            },
            ScenarioFaultKind::CorruptOrderAt { o } => {
                FaultSpec::Byzantine(P::value_fault(o).ok_or(ScenarioError::UnsupportedFault {
                    fault: index,
                    kind: self.kind,
                })?)
            }
        })
    }

    /// Validates, lowers onto protocol `P`, runs to the window's horizon
    /// and summarizes.
    ///
    /// `P` must be the implementation of the scenario's `kind` — the
    /// umbrella crate's `sofbyz::scenario::run` centralizes that
    /// dispatch. Panics (like every harness runner) if the run violates
    /// total-order safety.
    pub fn run_as<P: Protocol>(&self) -> Result<Report, ScenarioError> {
        self.run_traced_as::<P>().map(|(report, _)| report)
    }

    /// [`Scenario::run_as`], additionally returning the raw observation
    /// log (what the golden-equivalence tests compare bit for bit).
    #[allow(clippy::type_complexity)]
    pub fn run_traced_as<P: Protocol>(
        &self,
    ) -> Result<(Report, Vec<TimedEvent<ProtocolEvent>>), ScenarioError> {
        self.run_traced_with::<P>(true)
    }

    /// [`Scenario::run_traced_as`] without the panicking per-shard
    /// safety check: violations leave the trace intact for an outside
    /// oracle to inspect. This is the fuzzer's entry point — a fuzz run
    /// *wants* the violating trace back, not an abort.
    #[allow(clippy::type_complexity)]
    pub fn run_traced_unchecked_as<P: Protocol>(
        &self,
    ) -> Result<(Report, Vec<TimedEvent<ProtocolEvent>>), ScenarioError> {
        self.run_traced_with::<P>(false)
    }

    /// [`Scenario::run_traced_as`], additionally recording a structured
    /// trace through `config`: engine records (dispatch spans, deliver
    /// and fault instants) plus protocol phase spans derived from the
    /// observation log. The record stream is deterministic — bit-identical
    /// across `world_workers` counts, like the observation log itself.
    pub fn run_observed_as<P: Protocol>(
        &self,
        config: &TraceConfig,
    ) -> Result<ObservedRun, ScenarioError> {
        self.run_observed_with::<P>(true, Some(config))
    }

    /// [`Scenario::run_observed_as`] without the panicking per-shard
    /// safety check (the fuzzer's tracing entry point).
    pub fn run_observed_unchecked_as<P: Protocol>(
        &self,
        config: &TraceConfig,
    ) -> Result<ObservedRun, ScenarioError> {
        self.run_observed_with::<P>(false, Some(config))
    }

    #[allow(clippy::type_complexity)]
    fn run_traced_with<P: Protocol>(
        &self,
        enforce_safety: bool,
    ) -> Result<(Report, Vec<TimedEvent<ProtocolEvent>>), ScenarioError> {
        self.run_observed_with::<P>(enforce_safety, None)
            .map(|run| (run.report, run.events))
    }

    fn run_observed_with<P: Protocol>(
        &self,
        enforce_safety: bool,
        trace: Option<&TraceConfig>,
    ) -> Result<ObservedRun, ScenarioError> {
        self.validate()?;
        // The validation above bounds-checked fault targets against the
        // *kind's* layout; if the caller lowered onto the wrong `P`, that
        // guarantee is void — reject rather than let a builder assert
        // fire (node counts coincide only across genuinely compatible
        // layouts, e.g. SC and BFT at equal f).
        if P::node_count(&self.knobs) != self.nodes_per_shard() {
            return Err(ScenarioError::ProtocolMismatch {
                kind: self.kind,
                protocol: P::NAME,
            });
        }
        // A multi-shard world runs each shard in its own isolated engine
        // (`world_workers` only picks how many threads compute them); a
        // one-shard world is the flat builder's world.
        let mut run = if self.shards > 1 {
            crate::parallel::run_world_parallel::<P>(self, enforce_safety, trace)?
        } else {
            self.run_flat::<P>(enforce_safety, trace)?
        };
        if let Some(cfg) = trace {
            crate::obs::push_phase_records(
                &mut run.records,
                &run.events,
                self.nodes_per_shard(),
                cfg,
            );
        }
        Ok(run)
    }

    /// Lowers a validated one-shard scenario onto [`WorldBuilder`] and
    /// runs it to the window's horizon.
    fn run_flat<P: Protocol>(
        &self,
        enforce_safety: bool,
        trace: Option<&TraceConfig>,
    ) -> Result<ObservedRun, ScenarioError> {
        let stop = self.window.end();
        let mut b = WorldBuilder::<P>::new(self.knobs.f)
            .knobs(self.knobs.clone())
            .cpu(self.cpu)
            .lan_link(self.links.lan.clone())
            .pair_link(self.links.pair.clone());
        for c in &self.clients {
            let spec = ClientSpec::new(c.rate_per_sec, c.request_size, stop);
            b = if c.population > 1 {
                b.client_population(spec, c.arrival, c.population)
            } else {
                match c.arrival {
                    Arrival::Constant => b.client(spec),
                    Arrival::Poisson => b.poisson_client(spec),
                }
            };
        }
        for (i, fault) in self.faults.iter().enumerate() {
            b = b.fault(fault.process, self.lower_fault::<P>(i, fault)?);
        }
        let mut d = b.build();
        if let Some(cfg) = trace {
            d.world.set_trace_sink(Box::new(MemSink::new(cfg.clone())));
        }
        d.start();
        d.run_until(self.window.horizon());
        let events = d.world.drain_events();
        let records = d.world.drain_trace();
        let report = summarize(
            &[&events],
            &events,
            self.window,
            d.world.messages_sent(),
            &[d.world.counters()],
            d.world.metrics(),
            enforce_safety,
        );
        Ok(ObservedRun {
            report,
            events,
            records,
        })
    }
}

/// The full product of one observed scenario run: the measurement
/// report, the raw observation log, and the structured trace records
/// (engine spans/instants followed by derived protocol phase spans).
#[derive(Clone, Debug)]
pub struct ObservedRun {
    /// The same report [`Scenario::run_as`] returns.
    pub report: Report,
    /// The raw observation log (what golden tests compare bit for bit).
    pub events: Vec<TimedEvent<ProtocolEvent>>,
    /// Trace records in deterministic order, node indices world-global.
    pub records: Vec<TraceRecord>,
}

/// Mean / median / tail of one censored order-latency distribution (ms);
/// `None` when nothing committed in the window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Mean order latency.
    pub mean_ms: Option<f64>,
    /// Median order latency.
    pub p50_ms: Option<f64>,
    /// 99th-percentile order latency.
    pub p99_ms: Option<f64>,
}

/// One ordering group's measurements inside a [`Report`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardReport {
    /// The shard's censored order-latency distribution.
    pub latency: LatencySummary,
    /// Committed requests per process per second within the shard.
    pub throughput_per_process: f64,
    /// Requests first-committed inside the measurement window (each
    /// counted once).
    pub committed_requests: usize,
    /// Distinct batches the shard committed over the whole run.
    pub batches: usize,
}

/// The uniform result of one scenario run, flat or sharded: per-shard
/// measurements (one entry for a flat world) plus the cross-shard
/// rollup. Flat runs report the exact numbers the legacy `Point` path
/// reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Per-shard measurements, in shard order.
    pub per_shard: Vec<ShardReport>,
    /// The latency distribution merged exactly across shards (equals
    /// `per_shard[0].latency` for a flat world).
    pub global: LatencySummary,
    /// Committed requests per process per second, world-wide.
    pub throughput_per_process: f64,
    /// Globally ordered requests per second (every request counted once,
    /// at its first commit inside the window).
    pub aggregate_throughput: f64,
    /// Messages transmitted per committed batch, world-wide.
    pub msgs_per_batch: f64,
    /// Fail-over latency (first fail-signal → first Start certificate),
    /// if the run exercised one.
    pub failover_ms: Option<f64>,
    /// Deterministic engine counters of the run (callbacks, heap
    /// traffic, arena high water, virtual horizon) — the numerators of
    /// host-performance rates. Seed-determined, so safe under the
    /// `PartialEq` determinism comparisons this struct participates in.
    pub engine: EngineCounters,
    /// The same counters per engine, before aggregation: one entry per
    /// shard, in shard order (a single entry for a flat world). Lets a
    /// parallel-scaling regression (arena high water, heap traffic) be
    /// attributed to a shard instead of disappearing into the sum.
    pub engine_per_shard: Vec<EngineCounters>,
    /// Deterministic named metrics scraped from the engine(s) — the
    /// counter set of [`sofb_sim::engine::World::metrics`], absorbed
    /// across shard engines with [`MetricsSnapshot::absorb`].
    pub metrics: MetricsSnapshot,
}

impl Report {
    /// Requests first-committed inside the measurement window across all
    /// shards (the delivery-ratio numerator).
    pub fn committed_requests(&self) -> usize {
        self.per_shard.iter().map(|s| s.committed_requests).sum()
    }
}

/// One pass over a shard's commit events: distinct batches committed
/// overall, and the requests first-committed in `[from, to]` (each
/// counted once, at the earliest commit of its sequence number).
fn batches_and_requests_committed(
    events: &[TimedEvent<ProtocolEvent>],
    from: SimTime,
    to: SimTime,
) -> (usize, usize) {
    use std::collections::BTreeMap;
    let mut first: BTreeMap<SeqNo, (SimTime, usize)> = BTreeMap::new();
    for ev in events {
        if let ProtocolEvent::Committed { o, requests, .. } = &ev.event {
            first
                .entry(*o)
                .and_modify(|(t, _)| {
                    if ev.time < *t {
                        *t = ev.time;
                    }
                })
                .or_insert((ev.time, *requests));
        }
    }
    let requests = first
        .values()
        .filter(|(t, _)| *t >= from && *t <= to)
        .map(|(_, r)| r)
        .sum();
    (first.len(), requests)
}

/// The one measurement pass behind every scenario run: per-shard safety
/// check, censored latency distributions, the exact cross-shard rollup
/// and the world-wide counters. Shared with the parallel runner, which
/// feeds it per-shard traces from isolated engines.
pub(crate) fn summarize(
    shard_events: &[&[TimedEvent<ProtocolEvent>]],
    all_events: &[TimedEvent<ProtocolEvent>],
    window: Window,
    messages_sent: u64,
    engines: &[EngineCounters],
    metrics: MetricsSnapshot,
    enforce_safety: bool,
) -> Report {
    let engine = {
        let mut total = EngineCounters::default();
        for e in engines {
            total.absorb(e);
        }
        total
    };
    let warmup = window.warmup();
    let end = window.end();
    let horizon = window.horizon();

    let mut rollup = GroupRollup::new(shard_events.len());
    let mut per_shard = Vec::with_capacity(shard_events.len());
    let mut aggregate_requests = 0usize;
    let mut batches = 0usize;
    for (s, events) in shard_events.iter().enumerate() {
        // Safety is a per-shard property: each group runs its own
        // sequence space, so the total-order check applies within it.
        // Unchecked runs (the fuzzer) skip the abort and apply their own
        // oracles to the returned trace instead.
        if enforce_safety {
            analysis::check_total_order(events)
                .unwrap_or_else(|e| panic!("shard {s}: safety violated: {e}"));
        }
        let lat = analysis::latency_histogram_censored(events, warmup, end, horizon);
        rollup.merge_into(s, &lat);
        let latency = if lat.is_empty() {
            LatencySummary::default()
        } else {
            let ps = lat.percentiles(&[50.0, 99.0]);
            LatencySummary {
                mean_ms: Some(lat.mean()),
                p50_ms: Some(ps[0]),
                p99_ms: Some(ps[1]),
            }
        };
        let (shard_batches, committed) = batches_and_requests_committed(events, warmup, end);
        aggregate_requests += committed;
        batches += shard_batches;
        per_shard.push(ShardReport {
            latency,
            throughput_per_process: analysis::throughput_per_process(events, warmup, end),
            committed_requests: committed,
            batches: shard_batches,
        });
    }

    let window_s = (end - warmup).as_ns() as f64 / 1e9;
    let merged = rollup.merged();
    let global = if merged.is_empty() {
        LatencySummary::default()
    } else {
        let ps = merged.percentiles(&[50.0, 99.0]);
        LatencySummary {
            mean_ms: Some(merged.mean()),
            p50_ms: Some(ps[0]),
            p99_ms: Some(ps[1]),
        }
    };
    Report {
        per_shard,
        global,
        throughput_per_process: analysis::throughput_per_process(all_events, warmup, end),
        aggregate_throughput: aggregate_requests as f64 / window_s,
        msgs_per_batch: if batches == 0 {
            0.0
        } else {
            messages_sent as f64 / batches as f64
        },
        failover_ms: analysis::failover_latency_ms(all_events),
        engine,
        engine_per_shard: engines.to_vec(),
        metrics,
    }
}

/// A patch applied to a scenario by one axis value.
pub type ScenarioPatch = Arc<dyn Fn(&mut Scenario) + Send + Sync>;

/// One labelled value of a sweep axis.
#[derive(Clone)]
pub struct AxisValue {
    label: String,
    patch: ScenarioPatch,
}

/// One sweep dimension: a named list of labelled scenario patches.
///
/// The canned constructors cover the fields the repo sweeps today;
/// adding a new axis is one [`Axis::new`]`/`[`Axis::value`] chain — the
/// patch may write any public [`Scenario`] field (and may read fields
/// written by earlier axes, which are applied first).
#[derive(Clone)]
pub struct Axis {
    name: String,
    values: Vec<AxisValue>,
}

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field(
                "values",
                &self.values.iter().map(|v| &v.label).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Axis {
    /// An empty axis named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Axis {
            name: name.into(),
            values: Vec::new(),
        }
    }

    /// Appends a labelled patch.
    pub fn value(
        mut self,
        label: impl Into<String>,
        patch: impl Fn(&mut Scenario) + Send + Sync + 'static,
    ) -> Self {
        self.values.push(AxisValue {
            label: label.into(),
            patch: Arc::new(patch),
        });
        self
    }

    /// The axis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the axis holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The protocol-kind axis (also re-syncs `knobs.variant`).
    pub fn kinds(kinds: &[ProtocolKind]) -> Self {
        let mut a = Axis::new("kind");
        for &k in kinds {
            a = a.value(k.to_string(), move |s| s.set_kind(k));
        }
        a
    }

    /// The resilience axis.
    pub fn resiliences(fs: &[u32]) -> Self {
        let mut a = Axis::new("f");
        for &f in fs {
            a = a.value(f.to_string(), move |s| s.knobs.f = f);
        }
        a
    }

    /// The crypto-scheme axis.
    pub fn schemes(schemes: &[SchemeId]) -> Self {
        let mut a = Axis::new("scheme");
        for &sc in schemes {
            a = a.value(sc.to_string(), move |s| s.knobs.scheme = sc);
        }
        a
    }

    /// The batching-interval axis (milliseconds).
    pub fn intervals_ms(intervals: &[u64]) -> Self {
        let mut a = Axis::new("interval_ms");
        for &ms in intervals {
            a = a.value(ms.to_string(), move |s| {
                s.knobs.batching_interval = SimDuration::from_ms(ms);
            });
        }
        a
    }

    /// The shard-count axis.
    pub fn shard_counts(shards: &[usize]) -> Self {
        let mut a = Axis::new("shards");
        for &n in shards {
            a = a.value(n.to_string(), move |s| s.shards = n);
        }
        a
    }

    /// The client-count axis: replaces the client set with `n` copies of
    /// its first entry (or the standard 100 req/s constant client when
    /// the set is empty).
    pub fn client_counts(counts: &[usize]) -> Self {
        let mut a = Axis::new("clients");
        for &n in counts {
            a = a.value(n.to_string(), move |s| {
                let proto = s
                    .clients
                    .first()
                    .copied()
                    .unwrap_or_else(|| ClientLoad::constant(100.0, 100));
                s.clients = vec![proto; n];
            });
        }
        a
    }

    /// The per-client offered-load axis: sets every client's rate.
    pub fn rates_per_client(rates: &[f64]) -> Self {
        let mut a = Axis::new("rate");
        for &r in rates {
            a = a.value(format!("{r}"), move |s| {
                for c in &mut s.clients {
                    c.rate_per_sec = r;
                }
            });
        }
        a
    }

    /// The parallel world-worker axis (see [`Scenario::world_workers`]).
    pub fn world_workers(workers: &[usize]) -> Self {
        let mut a = Axis::new("world_workers");
        for &w in workers {
            a = a.value(w.to_string(), move |s| s.world_workers = w);
        }
        a
    }
}

/// One expanded grid point before execution.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Deterministic position in grid order (axes outermost-first,
    /// seeds innermost).
    pub index: usize,
    /// `(axis name, value label)` pairs, in axis order.
    pub labels: Vec<(String, String)>,
    /// The seed this replicate runs under.
    pub seed: u64,
    /// The fully patched scenario.
    pub scenario: Scenario,
}

impl GridCell {
    /// The label this point carries on `axis`, if that axis exists.
    pub fn label(&self, axis: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, v)| v.as_str())
    }
}

/// One executed grid point: the cell plus its [`Report`] and host wall
/// time.
#[derive(Clone, Debug)]
pub struct GridPoint {
    /// Deterministic position in grid order.
    pub index: usize,
    /// `(axis name, value label)` pairs, in axis order.
    pub labels: Vec<(String, String)>,
    /// The seed this replicate ran under.
    pub seed: u64,
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The measurements.
    pub report: Report,
    /// Host wall time of this point (ms) — machine-dependent, excluded
    /// from determinism comparisons.
    pub wall_ms: f64,
}

impl GridPoint {
    /// The label this point carries on `axis`, if that axis exists.
    pub fn label(&self, axis: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, v)| v.as_str())
    }
}

/// The deterministic result of one grid execution: every point, in grid
/// order, regardless of how many worker threads ran it.
#[derive(Clone, Debug)]
pub struct GridReport {
    /// Executed points in grid order.
    pub points: Vec<GridPoint>,
}

impl GridReport {
    /// The points carrying `label` on `axis`, in grid order.
    pub fn points_where<'a>(
        &'a self,
        axis: &'a str,
        label: &'a str,
    ) -> impl Iterator<Item = &'a GridPoint> + 'a {
        self.points
            .iter()
            .filter(move |p| p.label(axis) == Some(label))
    }

    /// True when two executions produced the same points — same order,
    /// labels, seeds and measurement values (host wall time excluded).
    /// The worker-count determinism tests pin this.
    pub fn same_results(&self, other: &GridReport) -> bool {
        self.points.len() == other.points.len()
            && self.points.iter().zip(&other.points).all(|(a, b)| {
                a.index == b.index
                    && a.labels == b.labels
                    && a.seed == b.seed
                    && a.report == b.report
            })
    }
}

/// A declarative sweep: a base [`Scenario`], the [`Axis`] list to take
/// the cartesian product over, and the seed replication set.
///
/// Expansion order is deterministic — axes vary outermost-first in
/// declaration order, seeds innermost — and execution via
/// [`SweepGrid::run_with`] preserves it regardless of worker count.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    base: Scenario,
    axes: Vec<Axis>,
    seeds: Vec<u64>,
}

impl SweepGrid {
    /// A grid over `base` with no axes yet (a single point).
    pub fn new(base: Scenario) -> Self {
        SweepGrid {
            base,
            axes: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Appends a sweep axis (applied after all earlier axes).
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Replicates every point across these seeds (innermost dimension).
    /// Without this, each point runs once under the base scenario's
    /// seed.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Number of points the grid expands to.
    pub fn len(&self) -> usize {
        self.axes.iter().map(Axis::len).product::<usize>() * self.seeds.len().max(1)
    }

    /// True when the grid expands to no points (some axis is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into validated cells in deterministic order.
    pub fn cells(&self) -> Result<Vec<GridCell>, ScenarioError> {
        let mut cells = vec![GridCell {
            index: 0,
            labels: Vec::new(),
            seed: self.base.knobs.seed,
            scenario: self.base.clone(),
        }];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(cells.len() * axis.values.len());
            for cell in &cells {
                for v in &axis.values {
                    let mut c = cell.clone();
                    (v.patch)(&mut c.scenario);
                    c.labels.push((axis.name.clone(), v.label.clone()));
                    next.push(c);
                }
            }
            cells = next;
        }
        if !self.seeds.is_empty() {
            let mut next = Vec::with_capacity(cells.len() * self.seeds.len());
            for cell in &cells {
                for &seed in &self.seeds {
                    let mut c = cell.clone();
                    c.scenario.knobs.seed = seed;
                    c.seed = seed;
                    next.push(c);
                }
            }
            cells = next;
        } else {
            // A patch may have rewritten the seed; keep the record true.
            for c in &mut cells {
                c.seed = c.scenario.knobs.seed;
            }
        }
        for (i, c) in cells.iter_mut().enumerate() {
            c.index = i;
            c.scenario
                .validate()
                .map_err(|e| ScenarioError::GridPoint {
                    index: i,
                    source: Box::new(e),
                })?;
        }
        Ok(cells)
    }

    /// Executes every point through `runner` on up to `workers` threads
    /// and returns the reports in grid order.
    ///
    /// `runner` is the kind-dispatching scenario executor (the umbrella
    /// crate's `sofbyz::scenario::run`, or [`Scenario::run_as`] pinned to
    /// one protocol). Results are index-stamped, so the report is
    /// identical for any worker count; `workers <= 1` runs inline on the
    /// calling thread.
    pub fn run_with<F>(&self, workers: usize, runner: F) -> Result<GridReport, ScenarioError>
    where
        F: Fn(&Scenario) -> Result<Report, ScenarioError> + Sync,
    {
        let cells = self.cells()?;
        let mut slots: Vec<Option<(Report, f64)>> = Vec::new();
        slots.resize_with(cells.len(), || None);
        let mut first_err: Option<(usize, ScenarioError)> = None;

        if workers <= 1 || cells.len() <= 1 {
            for (i, cell) in cells.iter().enumerate() {
                let t0 = Instant::now();
                match runner(&cell.scenario) {
                    Ok(report) => {
                        slots[i] = Some((report, t0.elapsed().as_secs_f64() * 1e3));
                    }
                    Err(e) => {
                        first_err = Some((i, e));
                        break;
                    }
                }
            }
        } else {
            let workers = workers.min(cells.len());
            let next = AtomicUsize::new(0);
            let cells_ref = &cells;
            let runner_ref = &runner;
            type PointResult = (usize, Result<(Report, f64), ScenarioError>);
            let (tx, rx) = crossbeam::channel::bounded::<PointResult>(cells.len());
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells_ref.len() {
                            break;
                        }
                        let t0 = Instant::now();
                        let out = runner_ref(&cells_ref[i].scenario)
                            .map(|r| (r, t0.elapsed().as_secs_f64() * 1e3));
                        if tx.send((i, out)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                // A slow point must never look like a lost worker: keep
                // polling until every result arrived or every sender is
                // gone (a worker that panicked drops its sender; the
                // panic itself re-raises at scope join).
                let mut received = 0;
                while received < cells.len() {
                    use crossbeam::channel::RecvTimeoutError;
                    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
                        Ok((i, Ok(pair))) => {
                            slots[i] = Some(pair);
                            received += 1;
                        }
                        Ok((i, Err(e))) => {
                            if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                                first_err = Some((i, e));
                            }
                            received += 1;
                        }
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            });
        }

        if let Some((index, e)) = first_err {
            return Err(ScenarioError::GridPoint {
                index,
                source: Box::new(e),
            });
        }
        let mut points = Vec::with_capacity(cells.len());
        for (cell, slot) in cells.into_iter().zip(slots) {
            let Some((report, wall_ms)) = slot else {
                return Err(ScenarioError::WorkerLost { index: cell.index });
            };
            points.push(GridPoint {
                index: cell.index,
                labels: cell.labels,
                seed: cell.seed,
                scenario: cell.scenario,
                report,
                wall_ms,
            });
        }
        Ok(GridReport { points })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(Scenario::new(ProtocolKind::Sc).validate(), Ok(()));
        assert_eq!(Scenario::bench(ProtocolKind::Bft).f(2).validate(), Ok(()));
    }

    #[test]
    fn zero_resilience_is_typed_not_a_panic() {
        for kind in ProtocolKind::ALL {
            let err = Scenario::new(kind).f(0).validate().unwrap_err();
            assert_eq!(err, ScenarioError::InvalidResilience { kind, f: 0 });
            assert!(err.to_string().contains("`f`"), "{err}");
        }
    }

    #[test]
    fn empty_window_is_rejected_naming_the_field() {
        let err = Scenario::new(ProtocolKind::Ct)
            .window(Window {
                warmup_s: 5,
                run_s: 5,
                drain_s: 0,
            })
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::EmptyWindow {
                warmup_s: 5,
                run_s: 5
            }
        );
        assert!(err.to_string().contains("`window`"), "{err}");
    }

    #[test]
    fn inverted_fault_window_is_rejected() {
        let err = Scenario::new(ProtocolKind::Bft)
            .fault(ScenarioFault::mute_until(
                ProcessId(0),
                SimTime::from_secs(3),
                SimTime::from_secs(3),
            ))
            .validate()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::FaultWindow { fault: 0, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("faults[0]"), "{err}");
    }

    #[test]
    fn fault_targets_are_bounds_checked() {
        let err = Scenario::new(ProtocolKind::Ct)
            .fault(ScenarioFault::crash(ProcessId(0), SimTime::from_secs(1)).on_shard(2))
            .validate()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::FaultShard { shard: 2, .. }));
        // CT f=1 has n=3: process 3 is out of range.
        let err = Scenario::new(ProtocolKind::Ct)
            .fault(ScenarioFault::crash(ProcessId(3), SimTime::from_secs(1)))
            .validate()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::FaultProcess {
                process: ProcessId(3),
                n: 3,
                ..
            }
        ));
    }

    #[test]
    fn value_domain_faults_only_on_sc_variants() {
        for kind in [ProtocolKind::Bft, ProtocolKind::Ct] {
            let err = Scenario::new(kind)
                .fault(ScenarioFault::corrupt_order_at(ProcessId(0), SeqNo(4)))
                .validate()
                .unwrap_err();
            assert_eq!(err, ScenarioError::UnsupportedFault { fault: 0, kind });
        }
        assert_eq!(
            Scenario::new(ProtocolKind::Scr)
                .fault(ScenarioFault::corrupt_order_at(ProcessId(0), SeqNo(4)))
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn non_positive_client_rates_are_rejected() {
        for rate in [0.0, -2.0, f64::NAN] {
            let err = Scenario::new(ProtocolKind::Sc)
                .client(ClientLoad::constant(100.0, 100))
                .client(ClientLoad::constant(rate, 100))
                .validate()
                .unwrap_err();
            assert!(
                matches!(err, ScenarioError::ClientRate { client: 1, .. }),
                "{rate}: {err:?}"
            );
        }
    }

    #[test]
    fn kind_axis_keeps_variant_in_sync() {
        let grid =
            SweepGrid::new(Scenario::bench(ProtocolKind::Sc)).axis(Axis::kinds(&ProtocolKind::ALL));
        let cells = grid.cells().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[1].scenario.kind, ProtocolKind::Scr);
        assert_eq!(cells[1].scenario.knobs.variant, Variant::Scr);
        assert_eq!(cells[1].label("kind"), Some("SCR"));
    }

    #[test]
    fn expansion_is_axis_major_with_seeds_innermost() {
        let grid = SweepGrid::new(Scenario::bench(ProtocolKind::Sc))
            .axis(Axis::intervals_ms(&[100, 200]))
            .axis(Axis::resiliences(&[1, 2]))
            .seeds(&[7, 8]);
        let cells = grid.cells().unwrap();
        assert_eq!(cells.len(), 8);
        assert_eq!(grid.len(), 8);
        let key = |c: &GridCell| {
            (
                c.label("interval_ms").unwrap().to_string(),
                c.label("f").unwrap().to_string(),
                c.seed,
            )
        };
        assert_eq!(key(&cells[0]), ("100".into(), "1".into(), 7));
        assert_eq!(key(&cells[1]), ("100".into(), "1".into(), 8));
        assert_eq!(key(&cells[2]), ("100".into(), "2".into(), 7));
        assert_eq!(key(&cells[4]), ("200".into(), "1".into(), 7));
        assert_eq!(cells[5].scenario.knobs.seed, 8);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn grid_expansion_surfaces_the_failing_point() {
        let grid =
            SweepGrid::new(Scenario::bench(ProtocolKind::Sc)).axis(Axis::resiliences(&[1, 0]));
        let err = grid.cells().unwrap_err();
        assert!(
            matches!(
                err,
                ScenarioError::GridPoint { index: 1, ref source }
                    if matches!(**source, ScenarioError::InvalidResilience { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn offered_requests_accounts_for_per_shard_load() {
        let flat = Scenario::bench(ProtocolKind::Sc); // 3 × 100 req/s × 14 s
        assert_eq!(flat.offered_requests(), 3.0 * 100.0 * 14.0);
        let sharded = Scenario::bench(ProtocolKind::Sc)
            .shards(4)
            .clients(2, ClientLoad::constant(50.0, 100));
        assert_eq!(sharded.offered_requests(), 2.0 * 50.0 * 4.0 * 14.0);
    }
}
