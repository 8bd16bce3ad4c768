//! The wall-clock runtime: the same sans-io protocol actors, on real
//! threads, real timers and an in-process channel transport — serving
//! the `sofb-app` KV as a long-lived node (`sofb serve`).
//!
//! The paper's implementation ran each order process on its own machine;
//! the discrete-event simulator replaces that for the figure
//! regeneration, but the protocols themselves are plain [`Actor`] state
//! machines and run equally well on real time. Three layers live here:
//!
//! * [`ThreadedHost`] — one OS thread per node, crossbeam channels as
//!   the network, a per-node timer map driven by `Instant`. Protocol
//!   timer delays are stretched by `time_scale`; whatever the crypto
//!   provider actually computes takes however long it takes on the host.
//! * [`LiveService`] — a `ServiceCore` (the same execution bookkeeping
//!   as the simulated [`ReplicatedService`](crate::service::ReplicatedService))
//!   fed by a `ThreadedHost` instead of a simulated world, behind the
//!   kind-erased [`LiveKv`] API ([`spawn_live_kv`] dispatches all four
//!   variants). Every submitted operation and every commit is recorded
//!   in a [`LiveTrace`].
//! * [`serve`]/[`call`] — a newline-delimited TCP request/reply protocol
//!   over `std::net`, the transport behind `sofb serve <spec>` and
//!   `sofb call <addr> <op>`.
//!
//! **Cross-validation invariant:** a live run's trace replayed through
//! the simulator ([`cross_validate`]) must commit the same requests in
//! the same order on *all four* variants. Requests enter each world in
//! recorded submission order (channel FIFO live, timestamped injection
//! simulated), every variant's coordinator drains its backlog in arrival
//! order, and the total-order safety property pins the rest — so one
//! wall-clock run checks the live path against four simulated protocol
//! stacks at once.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sofb_app::kv::{KvOp, KvStore};
use sofb_app::state_machine::StateMachine;
use sofb_bft::sim::BftProtocol;
use sofb_core::sim::ScProtocol;
use sofb_crypto::scheme::SchemeId;
use sofb_ct::sim::CtProtocol;
use sofb_harness::{analysis, Knobs, Protocol, ProtocolEvent, ProtocolKind, WorldBuilder};
use sofb_proto::ids::ClientId;
use sofb_proto::request::{Request, RequestId};
use sofb_sim::cpu::CpuModel;
use sofb_sim::engine::{Actor, Ctx, TimedEvent, TimerRequest, WireSize};
use sofb_sim::time::{SimDuration, SimTime};

use sofb_obs::{MetricsRegistry, MetricsSnapshot};

use crate::service::{CommitLog, ServiceCore, GATEWAY_NODE};

// ---------------------------------------------------------------------------
// Wall-clock profiler
// ---------------------------------------------------------------------------

/// The process-wide live profiler (`sofb serve --profile`): one shared
/// [`MetricsRegistry`] the runtime's hot paths sample wall-clock
/// durations into when enabled. Off by default, and the hooks then cost
/// a single relaxed atomic load — the serve path is unchanged unless the
/// operator asked to be measured.
static PROFILER: OnceLock<MetricsRegistry> = OnceLock::new();
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Turns the live profiler on for the rest of the process: node drive
/// callbacks (`live.node_drive_ns`), wire-command handling
/// (`live.handle_line_ns`, one sample per burst of request lines),
/// commit application (`live.commit_apply_ns`),
/// connection accepts (`live.accepts`), replies that could not be
/// written (`live.reply_write_errors`) and messages lost to a full node
/// channel (`live.dropped_sends`) start sampling into the shared
/// registry.
pub fn enable_profiling() {
    PROFILING.store(true, Ordering::Relaxed);
}

/// Scrapes the live profiler — the same [`MetricsSnapshot`] format the
/// simulator's engine metrics ride in — or `None` when profiling was
/// never enabled.
pub fn profile_snapshot() -> Option<MetricsSnapshot> {
    if PROFILING.load(Ordering::Relaxed) {
        Some(PROFILER.get_or_init(MetricsRegistry::new).snapshot())
    } else {
        None
    }
}

/// Times `f` into the nanosecond histogram `name` when profiling is on;
/// otherwise runs it untouched.
fn prof_time<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if !PROFILING.load(Ordering::Relaxed) {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    PROFILER
        .get_or_init(MetricsRegistry::new)
        .histogram(name)
        .observe(t0.elapsed().as_nanos() as u64);
    out
}

/// Bumps the counter `name` by `n` when profiling is on.
fn prof_count(name: &str, n: u64) {
    if PROFILING.load(Ordering::Relaxed) {
        PROFILER
            .get_or_init(MetricsRegistry::new)
            .counter(name)
            .add(n);
    }
}

/// A boxed actor that may cross threads (what [`ThreadedHost::spawn`]
/// takes; [`ThreadedHost::spawn_with`] lifts the `Send` requirement by
/// building in-thread).
pub type SendActor<M, E> = Box<dyn Actor<Msg = M, Event = E> + Send>;

/// Messages on a node's channel.
enum Input<M> {
    Net { from: usize, msg: M },
    Shutdown,
}

/// A running threaded deployment.
pub struct ThreadedHost<M, E> {
    senders: Vec<Sender<Input<M>>>,
    handles: Vec<thread::JoinHandle<()>>,
    /// The observation sink: each node thread sends what one callback
    /// emitted as one message, so whoever consumes the stream can block
    /// on it. Unbounded — a node thread never waits for its observer.
    events: Receiver<Vec<TimedEvent<E>>>,
}

impl<M, E> ThreadedHost<M, E>
where
    M: Clone + WireSize + Send + std::fmt::Debug + 'static,
    E: Send + std::fmt::Debug + 'static,
{
    /// Spawns one thread per actor. `time_scale` stretches protocol timer
    /// delays (1.0 = as configured; 0.1 = ten times faster wall-clock).
    pub fn spawn(actors: Vec<SendActor<M, E>>, time_scale: f64) -> Self {
        let n = actors.len();
        let stash: Vec<Mutex<Option<SendActor<M, E>>>> =
            actors.into_iter().map(|a| Mutex::new(Some(a))).collect();
        Self::spawn_with(
            n,
            move |idx| {
                let boxed = stash[idx].lock().take().expect("each node is built once");
                boxed as Box<dyn Actor<Msg = M, Event = E>>
            },
            time_scale,
        )
    }

    /// Spawns `n` node threads, each constructing its own actor
    /// in-thread via `factory(idx)`. This is how a [`Protocol`]'s
    /// [`build_nodes`](Protocol::build_nodes) boxes — which are not
    /// `Send` — get onto threads: `build_nodes` is a pure function of
    /// the knobs, so every thread rebuilds the full (deterministic)
    /// node set and keeps only its own.
    pub fn spawn_with<F>(n: usize, factory: F, time_scale: f64) -> Self
    where
        F: Fn(usize) -> Box<dyn Actor<Msg = M, Event = E>> + Send + Sync + 'static,
    {
        let epoch = Instant::now();
        let (sink, events) = unbounded();
        let factory = std::sync::Arc::new(factory);
        let mut senders: Vec<Sender<Input<M>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Input<M>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = bounded(65_536);
            senders.push(tx);
            receivers.push(rx);
        }
        let mut handles = Vec::with_capacity(n);
        for (idx, rx) in receivers.into_iter().enumerate() {
            let peers = senders.clone();
            let sink = sink.clone();
            let build = factory.clone();
            let handle = thread::spawn(move || {
                let mut actor = build(idx);
                let mut rng = StdRng::seed_from_u64(idx as u64 ^ 0x7ead);
                let mut timers: HashMap<u64, Instant> = HashMap::new();
                let now = || SimTime(epoch.elapsed().as_nanos() as u64);

                // Helper: run a callback and dispatch its outputs.
                macro_rules! drive {
                    ($call:expr) => {{
                        let mut local_events: Vec<TimedEvent<E>> = Vec::new();
                        let mut ctx = Ctx::standalone(now(), idx, &mut rng, &mut local_events);
                        prof_time("live.node_drive_ns", || $call(&mut ctx));
                        let outputs = ctx.into_outputs();
                        if !local_events.is_empty() {
                            let _ = sink.send(local_events);
                        }
                        for (to, msg) in outputs.sends {
                            if let Some(tx) = peers.get(to) {
                                if tx.try_send(Input::Net { from: idx, msg }).is_err() {
                                    prof_count("live.dropped_sends", 1);
                                }
                            }
                        }
                        for req in outputs.timers {
                            match req {
                                TimerRequest::Set(delay, tag) => {
                                    let scaled = Duration::from_nanos(
                                        (delay.as_ns() as f64 * time_scale) as u64,
                                    );
                                    timers.insert(tag, Instant::now() + scaled);
                                }
                                TimerRequest::Cancel(tag) => {
                                    timers.remove(&tag);
                                }
                            }
                        }
                    }};
                }

                drive!(|ctx: &mut Ctx<'_, M, E>| actor.on_start(ctx));
                loop {
                    // Fire due timers.
                    let due: Vec<u64> = timers
                        .iter()
                        .filter(|(_, at)| **at <= Instant::now())
                        .map(|(tag, _)| *tag)
                        .collect();
                    for tag in due {
                        timers.remove(&tag);
                        drive!(|ctx: &mut Ctx<'_, M, E>| actor.on_timer(tag, ctx));
                    }
                    // Wait for the next message or timer deadline.
                    let next_deadline = timers.values().min().copied();
                    let timeout = next_deadline
                        .map(|at| at.saturating_duration_since(Instant::now()))
                        .unwrap_or(Duration::from_millis(20))
                        .min(Duration::from_millis(20));
                    match rx.recv_timeout(timeout) {
                        Ok(Input::Net { from, msg }) => {
                            drive!(|ctx: &mut Ctx<'_, M, E>| actor.on_message(from, msg, ctx));
                        }
                        Ok(Input::Shutdown) => break,
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            });
            handles.push(handle);
        }
        ThreadedHost {
            senders,
            handles,
            events,
        }
    }

    /// Injects a message to `to` as if from node `from`. A node whose
    /// channel is full (or gone) loses it; the profiler counts each such
    /// loss, here and between nodes, as `live.dropped_sends`.
    pub fn inject(&self, to: usize, from: usize, msg: M) {
        if let Some(tx) = self.senders.get(to) {
            if tx.try_send(Input::Net { from, msg }).is_err() {
                prof_count("live.dropped_sends", 1);
            }
        }
    }

    /// Blocks until a node thread emits observations or `timeout`
    /// elapses, then returns them with whatever else is already queued.
    pub fn wait_events(&self, timeout: Duration) -> Result<Vec<TimedEvent<E>>, RecvTimeoutError> {
        let mut events = self.events.recv_timeout(timeout)?;
        events.extend(self.events.try_iter().flatten());
        Ok(events)
    }

    /// Stops all node threads and returns any observations not drained
    /// before: with every thread joined the sink has no sender left, so
    /// this reads it to its end.
    pub fn shutdown(self) -> Vec<TimedEvent<E>> {
        for tx in &self.senders {
            let _ = tx.send(Input::Shutdown);
        }
        for h in self.handles {
            let _ = h.join();
        }
        self.events.try_iter().flatten().collect()
    }
}

// ---------------------------------------------------------------------------
// Live replicated service
// ---------------------------------------------------------------------------

/// One operation of a live run, as recorded in a [`LiveTrace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Issuing client id (the service gateway is client 0).
    pub client: u32,
    /// Client sequence number.
    pub seq: u64,
    /// Wall-clock submission offset from the run's start, ns.
    pub at_ns: u64,
    /// The operation payload (shared with the submitted request).
    pub payload: Bytes,
}

/// The recorded delivery trace of a live run: enough to replay the exact
/// workload (ops, payloads, submission offsets) through the simulator
/// and to compare the commit order the live cluster produced.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveTrace {
    /// Protocol variant the live node ran.
    pub kind: ProtocolKind,
    /// Resilience parameter.
    pub f: u32,
    /// Crypto scheme.
    pub scheme: SchemeId,
    /// Batching interval, ns.
    pub interval_ns: u64,
    /// Deterministic seed (drives the dealer in both worlds).
    pub seed: u64,
    /// Submitted operations, in submission order.
    pub ops: Vec<TraceOp>,
    /// Request ids in the order the live cluster committed them
    /// (batches flattened in sequence-number order).
    pub commit_order: Vec<RequestId>,
}

/// What a live node hands back at shutdown.
pub struct LiveRun {
    /// The recorded trace (feed to [`cross_validate`]).
    pub trace: LiveTrace,
    /// Operations executed (exactly once each) by the replica executors.
    pub executed_ops: u64,
    /// Final executed-state digest (audited identical across replicas).
    pub state_digest: Vec<u8>,
}

/// A wall-clock replicated service: protocol `P` on a [`ThreadedHost`],
/// executing state machine `S` through the same `ServiceCore` as the
/// simulated façade, recording a [`LiveTrace`] as it goes.
pub struct LiveService<P: Protocol, S: StateMachine> {
    host: ThreadedHost<P::Msg, ProtocolEvent>,
    core: ServiceCore<S>,
    n: usize,
    kind: ProtocolKind,
    knobs: Knobs,
    epoch: Instant,
    ops: Vec<TraceOp>,
}

impl<P, S> LiveService<P, S>
where
    P: Protocol,
    P::Msg: Send,
    S: StateMachine,
{
    /// Spawns the live cluster: `P::node_count(&knobs)` node threads
    /// (each building its own actor from the deterministic `build_nodes`
    /// set) and `2f+1` service-replica executors.
    pub fn spawn(
        kind: ProtocolKind,
        mut knobs: Knobs,
        make_machine: impl Fn() -> S,
        time_scale: f64,
    ) -> Self {
        if let Some(v) = kind.variant() {
            knobs.variant = v;
        }
        let n = P::node_count(&knobs);
        let replicas = 2 * knobs.f as usize + 1;
        let build_knobs = knobs.clone();
        let host = ThreadedHost::spawn_with(
            n,
            move |idx| P::build_nodes(&build_knobs, &[]).swap_remove(idx),
            time_scale,
        );
        LiveService {
            host,
            core: ServiceCore::new(replicas, make_machine),
            n,
            kind,
            knobs,
            epoch: Instant::now(),
            ops: Vec::new(),
        }
    }

    /// Submits an operation: records it in the trace and multicasts it
    /// to every node, like a client that "directs its requests to all
    /// nodes" (§3).
    pub fn submit(&mut self, op: impl Into<Bytes>) -> RequestId {
        let op = op.into();
        let req = self.core.next_request(op.clone());
        self.ops.push(TraceOp {
            client: req.id.client.0,
            seq: req.id.seq,
            at_ns: self.epoch.elapsed().as_nanos() as u64,
            payload: op,
        });
        for p in 0..self.n {
            self.host
                .inject(p, GATEWAY_NODE, P::request_msg(req.clone()));
        }
        req.id
    }

    /// Audits and stages `events`; when they admitted a new sequence
    /// number, executes the newly gap-free batches and audits the
    /// replicas. A wake-up that carried only echoes of known commits (or
    /// no commit at all) costs the audit and nothing more. Panics on a
    /// total-order violation or replica divergence.
    fn absorb(core: &mut ServiceCore<S>, events: &[TimedEvent<ProtocolEvent>]) {
        if core.stage(events).expect("live ordering safety") {
            prof_time("live.commit_apply_ns", || core.execute_ready());
        }
    }

    /// Blocks on the node threads' observations until `id` has a reply
    /// or `timeout` elapses, and takes that reply: a second wait on the
    /// same `id` finds nothing.
    ///
    /// # Panics
    ///
    /// Panics if the live cluster violated total order or the replica
    /// executors diverged — the invariants the simulator pins, audited
    /// on the live path.
    pub fn wait_reply(&mut self, id: RequestId, timeout: Duration) -> Option<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(r) = self.core.take_reply(id) {
                return Some(r);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let events = self.host.wait_events(remaining).ok()?;
            Self::absorb(&mut self.core, &events);
        }
    }

    /// The executed-state digest (identical across replicas).
    pub fn state_digest(&self) -> Vec<u8> {
        self.core.state_digest()
    }

    /// Operations executed so far.
    pub fn executed_ops(&self) -> u64 {
        self.core.executed_ops()
    }

    /// Stops the cluster and returns the run: waits (bounded) for every
    /// submitted op to commit, joins the node threads, and assembles the
    /// trace.
    pub fn shutdown(mut self) -> LiveRun {
        // Flush: give in-flight batches a chance to commit so the trace
        // closes with ops and commits matching.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.core.executed_ops() < self.ops.len() as u64 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let Ok(events) = self.host.wait_events(remaining) else {
                break;
            };
            Self::absorb(&mut self.core, &events);
        }
        let tail = self.host.shutdown();
        Self::absorb(&mut self.core, &tail);
        let trace = LiveTrace {
            kind: self.kind,
            f: self.knobs.f,
            scheme: self.knobs.scheme,
            interval_ns: self.knobs.batching_interval.as_ns(),
            seed: self.knobs.seed,
            ops: self.ops,
            commit_order: self.core.commit_order(),
        };
        LiveRun {
            trace,
            executed_ops: self.core.executed_ops(),
            state_digest: self.core.state_digest(),
        }
    }
}

/// The kind-erased live-service API the server loop and the CLI drive:
/// a [`LiveService`] over any protocol variant, serving the KV store.
pub trait LiveKv: Send {
    /// Submits an encoded [`KvOp`] for ordering.
    fn submit(&mut self, op: Vec<u8>) -> RequestId;
    /// Blocks until `id` has a reply or `timeout` elapses.
    fn wait_reply(&mut self, id: RequestId, timeout: Duration) -> Option<Vec<u8>>;
    /// The executed-state digest.
    fn state_digest(&self) -> Vec<u8>;
    /// Operations executed so far.
    fn executed_ops(&self) -> u64;
    /// Stops the cluster and returns the recorded run.
    fn shutdown(self: Box<Self>) -> LiveRun;
}

impl<P> LiveKv for LiveService<P, KvStore>
where
    P: Protocol,
    P::Msg: Send,
{
    fn submit(&mut self, op: Vec<u8>) -> RequestId {
        LiveService::submit(self, op)
    }
    fn wait_reply(&mut self, id: RequestId, timeout: Duration) -> Option<Vec<u8>> {
        LiveService::wait_reply(self, id, timeout)
    }
    fn state_digest(&self) -> Vec<u8> {
        LiveService::state_digest(self)
    }
    fn executed_ops(&self) -> u64 {
        LiveService::executed_ops(self)
    }
    fn shutdown(self: Box<Self>) -> LiveRun {
        LiveService::shutdown(*self)
    }
}

/// Spawns a live KV node of the given protocol kind — the
/// [`ProtocolKind`] → [`Protocol`] dispatch for the wall-clock path
/// (the umbrella crate is the only layer that sees all four).
pub fn spawn_live_kv(kind: ProtocolKind, knobs: &Knobs, time_scale: f64) -> Box<dyn LiveKv> {
    let knobs = knobs.clone();
    match kind {
        ProtocolKind::Sc | ProtocolKind::Scr => Box::new(
            LiveService::<ScProtocol, KvStore>::spawn(kind, knobs, KvStore::new, time_scale),
        ),
        ProtocolKind::Bft => Box::new(LiveService::<BftProtocol, KvStore>::spawn(
            kind,
            knobs,
            KvStore::new,
            time_scale,
        )),
        ProtocolKind::Ct => Box::new(LiveService::<CtProtocol, KvStore>::spawn(
            kind,
            knobs,
            KvStore::new,
            time_scale,
        )),
    }
}

// ---------------------------------------------------------------------------
// Trace serialization + cross-validation
// ---------------------------------------------------------------------------

/// A failure in the live layer: a malformed trace, or a replay whose
/// commit order diverged from the live run.
#[derive(Clone, Debug)]
pub enum LiveError {
    /// The trace text is malformed (line-numbered).
    Trace(String),
    /// A simulated replay committed a different order than the live run.
    Mismatch {
        /// The variant whose replay diverged.
        kind: ProtocolKind,
        /// What differed, first divergence included.
        detail: String,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Trace(msg) => write!(f, "live trace: {msg}"),
            LiveError::Mismatch { kind, detail } => {
                write!(f, "cross-validation FAILED on {kind}: {detail}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

const TRACE_HEADER: &str = "sofb-live-trace/v1";

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

fn scheme_token(scheme: SchemeId) -> String {
    scheme.to_string()
}

fn parse_scheme_token(token: &str) -> Option<SchemeId> {
    [
        SchemeId::Md5Rsa1024,
        SchemeId::Md5Rsa1536,
        SchemeId::Sha1Dsa1024,
        SchemeId::Sha256Rsa2048,
        SchemeId::NoCrypto,
    ]
    .into_iter()
    .find(|s| s.to_string() == token)
}

fn parse_kind_token(token: &str) -> Option<ProtocolKind> {
    ProtocolKind::ALL
        .into_iter()
        .find(|k| k.to_string() == token)
}

impl LiveTrace {
    /// Renders the trace as committable text (`sofb-live-trace/v1`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        writeln!(out, "{TRACE_HEADER}").unwrap();
        writeln!(out, "kind {}", self.kind).unwrap();
        writeln!(out, "f {}", self.f).unwrap();
        writeln!(out, "scheme {}", scheme_token(self.scheme)).unwrap();
        writeln!(out, "interval_ns {}", self.interval_ns).unwrap();
        writeln!(out, "seed {}", self.seed).unwrap();
        for op in &self.ops {
            writeln!(
                out,
                "op {} {} {} {}",
                op.client,
                op.seq,
                op.at_ns,
                hex_encode(&op.payload)
            )
            .unwrap();
        }
        for id in &self.commit_order {
            writeln!(out, "commit {} {}", id.client.0, id.seq).unwrap();
        }
        out
    }

    /// Parses a rendered trace.
    pub fn parse(text: &str) -> Result<LiveTrace, LiveError> {
        let err = |line: usize, msg: &str| LiveError::Trace(format!("line {line}: {msg}"));
        let mut lines = text.lines().enumerate();
        let Some((_, TRACE_HEADER)) = lines.next() else {
            return Err(err(1, "missing sofb-live-trace/v1 header"));
        };
        let mut kind = None;
        let mut f = None;
        let mut scheme = None;
        let mut interval_ns = None;
        let mut seed = None;
        let mut ops = Vec::new();
        let mut commit_order = Vec::new();
        for (i, line) in lines {
            let n = i + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_ascii_whitespace();
            match tok.next() {
                Some("kind") => {
                    let t = tok.next().ok_or_else(|| err(n, "kind needs a value"))?;
                    kind = Some(parse_kind_token(t).ok_or_else(|| err(n, "unknown kind"))?);
                }
                Some("f") => {
                    let t = tok.next().ok_or_else(|| err(n, "f needs a value"))?;
                    f = Some(t.parse().map_err(|_| err(n, "f is not an integer"))?);
                }
                Some("scheme") => {
                    let t = tok.next().ok_or_else(|| err(n, "scheme needs a value"))?;
                    scheme = Some(parse_scheme_token(t).ok_or_else(|| err(n, "unknown scheme"))?);
                }
                Some("interval_ns") => {
                    let t = tok
                        .next()
                        .ok_or_else(|| err(n, "interval_ns needs a value"))?;
                    interval_ns = Some(
                        t.parse()
                            .map_err(|_| err(n, "interval_ns is not an integer"))?,
                    );
                }
                Some("seed") => {
                    let t = tok.next().ok_or_else(|| err(n, "seed needs a value"))?;
                    seed = Some(t.parse().map_err(|_| err(n, "seed is not an integer"))?);
                }
                Some("op") => {
                    let mut next = || tok.next().ok_or_else(|| err(n, "op needs 4 fields"));
                    let client = next()?.parse().map_err(|_| err(n, "bad op client"))?;
                    let seq = next()?.parse().map_err(|_| err(n, "bad op seq"))?;
                    let at_ns = next()?.parse().map_err(|_| err(n, "bad op at_ns"))?;
                    let payload =
                        hex_decode(next()?).ok_or_else(|| err(n, "bad op payload hex"))?;
                    ops.push(TraceOp {
                        client,
                        seq,
                        at_ns,
                        payload: payload.into(),
                    });
                }
                Some("commit") => {
                    let mut next = || tok.next().ok_or_else(|| err(n, "commit needs 2 fields"));
                    let client: u32 = next()?.parse().map_err(|_| err(n, "bad commit client"))?;
                    let seq = next()?.parse().map_err(|_| err(n, "bad commit seq"))?;
                    commit_order.push(RequestId {
                        client: ClientId(client),
                        seq,
                    });
                }
                Some(other) => return Err(err(n, &format!("unknown directive `{other}`"))),
                None => {}
            }
        }
        Ok(LiveTrace {
            kind: kind.ok_or_else(|| err(0, "missing kind"))?,
            f: f.ok_or_else(|| err(0, "missing f"))?,
            scheme: scheme.ok_or_else(|| err(0, "missing scheme"))?,
            interval_ns: interval_ns.ok_or_else(|| err(0, "missing interval_ns"))?,
            seed: seed.ok_or_else(|| err(0, "missing seed"))?,
            ops,
            commit_order,
        })
    }
}

/// Replays the trace's workload through a simulated deployment of `P`
/// and returns the commit order the simulator produced.
fn replay_commit_order<P: Protocol>(trace: &LiveTrace, kind: ProtocolKind) -> Vec<RequestId> {
    let mut knobs = Knobs {
        f: trace.f,
        scheme: trace.scheme,
        seed: trace.seed,
        batching_interval: SimDuration(trace.interval_ns.max(1)),
        // The replay is a fault-free world; wall-clock suspicion windows
        // don't map onto it.
        time_checks: false,
        ..Knobs::default()
    };
    if let Some(v) = kind.variant() {
        knobs.variant = v;
    }
    // No modelled CPU: the default model is the paper's 2006 host (1 ms
    // per event, thrashing past 96 queued events), which a trace offered
    // at today's live rate drives into overload for hundreds of simulated
    // seconds — past the drain horizon below. The live nodes paid real
    // costs, not modelled ones; timing moves batch boundaries, never the
    // flattened order.
    let mut d = WorldBuilder::<P>::new(trace.f)
        .knobs(knobs)
        .cpu(CpuModel::zero())
        .build();
    d.start();
    // Inject each op at its recorded wall-clock offset (clamped
    // nondecreasing): the simulated world sees the same workload on the
    // same timeline the live cluster did.
    let mut at = SimTime(0);
    for op in &trace.ops {
        at = SimTime(op.at_ns.max(at.0));
        d.run_until(at);
        let req = Request::new(ClientId(op.client), op.seq, op.payload.clone());
        for p in 0..d.n_processes {
            d.world.inject(p, GATEWAY_NODE, P::request_msg(req.clone()));
        }
    }
    // Drain: generous horizon so every batch commits.
    d.run_until(at + SimDuration::from_secs(30));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).expect("replay ordering safety");
    let mut commits = CommitLog::default();
    for ev in &events {
        commits.push(ev);
    }
    commits.order()
}

/// Replays `trace` through the simulator on **all four** protocol
/// variants and checks each commit order against the live one. Returns
/// the per-variant committed-request counts on success.
///
/// This is the system's cross-validation invariant: the wall-clock
/// executor and the discrete-event simulator are two hosts of the same
/// sans-io state machines, so the same workload must yield the same
/// total order on every variant.
pub fn cross_validate(trace: &LiveTrace) -> Result<Vec<(ProtocolKind, usize)>, LiveError> {
    let mut out = Vec::new();
    for kind in ProtocolKind::ALL {
        let sim_order = match kind {
            ProtocolKind::Sc | ProtocolKind::Scr => replay_commit_order::<ScProtocol>(trace, kind),
            ProtocolKind::Bft => replay_commit_order::<BftProtocol>(trace, kind),
            ProtocolKind::Ct => replay_commit_order::<CtProtocol>(trace, kind),
        };
        if sim_order != trace.commit_order {
            let first = sim_order
                .iter()
                .zip(&trace.commit_order)
                .position(|(a, b)| a != b);
            let detail = match first {
                Some(i) => format!(
                    "first divergence at commit {i}: sim {:?} vs live {:?} \
                     (sim {} commits, live {})",
                    sim_order[i],
                    trace.commit_order[i],
                    sim_order.len(),
                    trace.commit_order.len()
                ),
                None => format!(
                    "lengths differ: sim committed {} requests, live {}",
                    sim_order.len(),
                    trace.commit_order.len()
                ),
            };
            return Err(LiveError::Mismatch { kind, detail });
        }
        out.push((kind, sim_order.len()));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// TCP request/reply transport
// ---------------------------------------------------------------------------

/// Server loop options.
pub struct ServeOptions {
    /// Exit the accept loop after this long (CI smoke runs); `None`
    /// serves until a `shutdown` command arrives.
    pub lifetime: Option<Duration>,
    /// How long requests submitted together may wait for their commits
    /// before each one still uncommitted gets `err timeout`.
    pub reply_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            lifetime: None,
            reply_timeout: Duration::from_secs(10),
        }
    }
}

/// Outcome of a [`serve`] loop.
pub struct ServeOutcome {
    /// The recorded live run.
    pub run: LiveRun,
    /// Calls handled (including reads and the shutdown command).
    pub calls: u64,
}

/// Parses one wire command into an encoded [`KvOp`]; `Ok(None)` is a
/// local read (digest). Wire arguments are hex-encoded bytes.
fn parse_wire_op(parts: &[&str]) -> Result<Option<KvOp>, String> {
    let arg = |i: usize| -> Result<Vec<u8>, String> {
        parts
            .get(i)
            .and_then(|s| hex_decode(s))
            .ok_or_else(|| format!("argument {i} missing or not hex"))
    };
    match parts.first().copied() {
        Some("put") if parts.len() == 3 => Ok(Some(KvOp::Put {
            key: arg(1)?,
            value: arg(2)?,
        })),
        Some("get") if parts.len() == 2 => Ok(Some(KvOp::Get { key: arg(1)? })),
        Some("del") if parts.len() == 2 => Ok(Some(KvOp::Del { key: arg(1)? })),
        Some("cas") if parts.len() == 4 => Ok(Some(KvOp::Cas {
            key: arg(1)?,
            expect: arg(2)?,
            new: arg(3)?,
        })),
        Some("digest") if parts.len() == 1 => Ok(None),
        Some(op) => Err(format!(
            "bad command `{op}`/{} args (expect put K V | get K | del K | cas K E N | digest | shutdown)",
            parts.len().saturating_sub(1)
        )),
        None => Err("empty command".to_string()),
    }
}

/// Longest request line [`serve`] buffers, its `\n` included. A client
/// that sends more without a newline gets `err line too long` and is
/// disconnected.
const MAX_LINE_BYTES: usize = 1 << 20;

/// One line's place in a burst's replies.
enum Slot {
    /// The reply text.
    Ready(String),
    /// A submitted op whose commit is awaited.
    Pending(RequestId),
}

/// What a burst of request lines produced.
struct Burst {
    /// One reply per handled line, each with its `\n`, in line order.
    replies: String,
    /// Lines handled: all of them, or up to and including a `shutdown`.
    lines: u64,
    /// A `shutdown` ended the burst.
    shutdown: bool,
}

/// Handles a burst of request lines: submits every ordered op before
/// waiting on any, then answers each line in order. A `digest` first
/// waits for the ops before it (read-your-write); a `shutdown` is
/// answered after every line before it, and the lines after it are not
/// handled.
fn handle_lines(lines: &[&str], svc: &mut dyn LiveKv, opts: &ServeOptions) -> Burst {
    use sofb_proto::codec::Encode as _;
    let mut slots = Vec::with_capacity(lines.len());
    let mut shutdown = false;
    for line in lines {
        let parts: Vec<&str> = line.split_ascii_whitespace().collect();
        if parts.first().copied() == Some("shutdown") {
            slots.push(Slot::Ready("ok bye".to_string()));
            shutdown = true;
            break;
        }
        match parse_wire_op(&parts) {
            Ok(Some(op)) => slots.push(Slot::Pending(svc.submit(op.to_bytes()))),
            Ok(None) => {
                settle(&mut slots, svc, opts);
                slots.push(Slot::Ready(format!(
                    "ok {}",
                    hex_encode(&svc.state_digest())
                )));
            }
            Err(msg) => slots.push(Slot::Ready(format!("err {msg}"))),
        }
    }
    settle(&mut slots, svc, opts);
    let mut replies = String::new();
    for slot in &slots {
        if let Slot::Ready(text) = slot {
            replies.push_str(text);
            replies.push('\n');
        }
    }
    Burst {
        replies,
        lines: slots.len() as u64,
        shutdown,
    }
}

/// Waits for the pending ops' replies in FIFO order, all against one
/// deadline `reply_timeout` from now (they were submitted together).
fn settle(slots: &mut [Slot], svc: &mut dyn LiveKv, opts: &ServeOptions) {
    let deadline = Instant::now() + opts.reply_timeout;
    for slot in slots {
        if let Slot::Pending(id) = *slot {
            let left = deadline.saturating_duration_since(Instant::now());
            *slot = Slot::Ready(match svc.wait_reply(id, left) {
                Some(reply) => format!("ok {}", hex_encode(&reply)),
                None => "err timeout waiting for commit".to_string(),
            });
        }
    }
}

/// Serves `svc` on `listener` with a newline-delimited request/reply
/// protocol until a `shutdown` command or the configured lifetime, then
/// shuts the cluster down and returns the recorded run.
///
/// One connection is served at a time (the service gateway is a single
/// totally-ordered client); the listener stays nonblocking so the
/// lifetime deadline is honored even while idle. Pipelined requests are
/// served a burst at a time: a complete line plus every further complete
/// line already read into the connection's buffer, all ordered ops
/// submitted before any is waited on, and the replies sent in order in
/// one write.
pub fn serve(
    listener: TcpListener,
    mut svc: Box<dyn LiveKv>,
    opts: &ServeOptions,
) -> std::io::Result<ServeOutcome> {
    listener.set_nonblocking(true)?;
    let deadline = opts.lifetime.map(|d| Instant::now() + d);
    let expired = |deadline: Option<Instant>| deadline.is_some_and(|at| Instant::now() >= at);
    let mut calls = 0u64;
    let mut stop = false;
    while !stop && !expired(deadline) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                prof_count("live.accepts", 1);
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_millis(200)))?;
                let mut reader = BufReader::new(stream.try_clone()?);
                let mut stream = stream;
                // Holds a request line until it is complete: a read that
                // times out mid-line leaves what arrived so far in here.
                let mut line = Vec::new();
                loop {
                    let room = (MAX_LINE_BYTES - line.len()) as u64;
                    match (&mut reader).take(room).read_until(b'\n', &mut line) {
                        Ok(0) => break, // connection closed
                        Ok(_) if line.len() >= MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                            if stream.write_all(b"err line too long\n").is_err() {
                                prof_count("live.reply_write_errors", 1);
                            }
                            break;
                        }
                        Ok(_) => {
                            // The burst: every further complete line the
                            // buffer already holds (no syscall, never
                            // blocks); a partial last line stays buffered.
                            let buffered = reader.buffer();
                            if let Some(end) = buffered.iter().rposition(|&b| b == b'\n') {
                                line.extend_from_slice(&buffered[..=end]);
                                reader.consume(end + 1);
                            }
                            let burst = prof_time("live.handle_line_ns", || {
                                let text = String::from_utf8_lossy(&line);
                                let lines: Vec<&str> = text.lines().map(str::trim).collect();
                                handle_lines(&lines, svc.as_mut(), opts)
                            });
                            line.clear();
                            calls += burst.lines;
                            // Every reply with its newline leaves in one
                            // write: nothing held back for an ACK.
                            if stream.write_all(burst.replies.as_bytes()).is_err() {
                                prof_count("live.reply_write_errors", 1);
                                break;
                            }
                            if burst.shutdown {
                                stop = true;
                                break;
                            }
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            if expired(deadline) {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(ServeOutcome {
        run: svc.shutdown(),
        calls,
    })
}

/// Sends one request line to a live node and returns the raw reply line
/// (`ok …` / `err …`).
pub fn call(addr: SocketAddr, line: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

/// Hex-encodes CLI arguments into a wire line (`put hello world` →
/// `put 68656c6c6f 776f726c64`); `digest` and `shutdown` pass through.
pub fn wire_line(op: &str, args: &[String]) -> String {
    let mut line = op.to_string();
    for a in args {
        line.push(' ');
        line.push_str(&hex_encode(a.as_bytes()));
    }
    line
}

/// Decodes a wire reply: `Ok(payload)` for `ok <hex>`, `Err(msg)` for
/// `err <msg>` or anything malformed.
pub fn decode_reply(reply: &str) -> Result<Vec<u8>, String> {
    if let Some(rest) = reply.strip_prefix("ok") {
        let rest = rest.trim();
        if rest == "bye" || rest.is_empty() {
            return Ok(Vec::new());
        }
        return hex_decode(rest).ok_or_else(|| format!("malformed ok payload `{rest}`"));
    }
    if let Some(msg) = reply.strip_prefix("err ") {
        return Err(msg.to_string());
    }
    Err(format!("malformed reply `{reply}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofb_core::config::ScConfig;
    use sofb_core::messages::{FailSignalPayload, ScMsg};
    use sofb_core::process::ScProcess;
    use sofb_crypto::provider::Dealer;
    use sofb_proto::ids::{ProcessId, Rank};
    use sofb_proto::signed::Signed;
    use sofb_proto::topology::{Candidate, Topology, Variant};

    #[test]
    fn sc_orders_requests_on_real_threads() {
        // f = 1 SC deployment on threads with real (small-key) RSA.
        let topology = Topology::new(1, Variant::Sc);
        let n = topology.n();
        let mut rng = StdRng::seed_from_u64(77);
        let mut providers = Dealer::real(&mut rng, SchemeId::Md5Rsa1024, n, Some(512));
        // Pre-sign fail-signals for the pair.
        let mut presigned: Vec<Option<Signed<FailSignalPayload>>> = vec![None; n];
        for c in 1..=topology.candidate_count() {
            if let Candidate::Pair { replica, shadow } = topology.candidate(Rank(c)) {
                let payload = FailSignalPayload { pair: Rank(c) };
                presigned[replica.0 as usize] = Some(Signed::sign(
                    payload.clone(),
                    &mut providers[shadow.0 as usize],
                ));
                presigned[shadow.0 as usize] =
                    Some(Signed::sign(payload, &mut providers[replica.0 as usize]));
            }
        }
        let mut actors: Vec<
            Box<dyn Actor<Msg = ScMsg, Event = sofb_core::events::ScEvent> + Send>,
        > = Vec::new();
        for (i, provider) in providers.into_iter().enumerate() {
            let mut cfg = ScConfig::new(topology, ProcessId(i as u32), SchemeId::Md5Rsa1024);
            cfg.batching_interval = SimDuration::from_ms(30);
            cfg.time_checks = false;
            actors.push(Box::new(ScProcess::new(
                cfg,
                Box::new(provider),
                presigned[i].take(),
            )));
        }
        let host = ThreadedHost::spawn(actors, 1.0);

        // Send 20 requests to every process.
        for seq in 1..=20u64 {
            let req = Request::new(ClientId(0), seq, vec![0x11u8; 64]);
            for p in 0..n {
                host.inject(p, 900, ScMsg::Request(req.clone()));
            }
            thread::sleep(Duration::from_millis(10));
        }
        thread::sleep(Duration::from_millis(800));
        let events = host.shutdown();

        analysis::check_total_order(&events).expect("total order on threads");
        let commits = analysis::order_latencies(&events);
        assert!(
            !commits.is_empty(),
            "threaded deployment must commit batches (got none)"
        );
    }

    #[test]
    fn threaded_host_counts_sends_dropped_on_a_full_channel() {
        #[derive(Clone, Debug)]
        struct Tick;
        impl WireSize for Tick {
            fn wire_len(&self) -> usize {
                1
            }
        }
        /// Blocks in `on_start` until released, so nothing drains its
        /// channel meanwhile.
        struct Stalled(std::sync::mpsc::Receiver<()>);
        impl Actor for Stalled {
            type Msg = Tick;
            type Event = ();
            fn on_start(&mut self, _: &mut Ctx<'_, Tick, ()>) {
                let _ = self.0.recv();
            }
            fn on_message(&mut self, _: usize, _: Tick, _: &mut Ctx<'_, Tick, ()>) {}
            fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, Tick, ()>) {}
        }

        enable_profiling();
        let dropped = || {
            profile_snapshot()
                .and_then(|s| s.counter("live.dropped_sends"))
                .unwrap_or(0)
        };
        let before = dropped();
        let (release, gate) = std::sync::mpsc::channel();
        let host = ThreadedHost::spawn(vec![Box::new(Stalled(gate)) as SendActor<Tick, ()>], 1.0);
        for _ in 0..65_536 + 100 {
            host.inject(0, 1, Tick);
        }
        release.send(()).expect("node thread waits on the gate");
        host.shutdown();
        let lost = dropped() - before;
        assert!(lost >= 100, "counted {lost} dropped sends");
    }

    #[test]
    fn trace_render_parse_roundtrip() {
        let trace = LiveTrace {
            kind: ProtocolKind::Bft,
            f: 1,
            scheme: SchemeId::Md5Rsa1024,
            interval_ns: 25_000_000,
            seed: 42,
            ops: vec![
                TraceOp {
                    client: 0,
                    seq: 1,
                    at_ns: 12_345,
                    payload: Bytes::from(vec![0xde, 0xad]),
                },
                TraceOp {
                    client: 0,
                    seq: 2,
                    at_ns: 99_999,
                    payload: Bytes::from(vec![0x00]),
                },
            ],
            commit_order: vec![
                RequestId {
                    client: ClientId(0),
                    seq: 1,
                },
                RequestId {
                    client: ClientId(0),
                    seq: 2,
                },
            ],
        };
        let text = trace.render();
        assert!(text.starts_with(TRACE_HEADER));
        let parsed = LiveTrace::parse(&text).expect("roundtrip");
        assert_eq!(parsed, trace);
        // Malformed inputs are typed errors, not panics.
        assert!(LiveTrace::parse("not a trace").is_err());
        assert!(LiveTrace::parse(&text.replace("kind BFT", "kind XX")).is_err());
    }

    #[test]
    fn wire_helpers_roundtrip() {
        assert_eq!(
            wire_line("put", &["hello".into(), "world".into()]),
            "put 68656c6c6f 776f726c64"
        );
        assert_eq!(decode_reply("ok 4f4b"), Ok(b"OK".to_vec()));
        assert_eq!(decode_reply("ok bye"), Ok(Vec::new()));
        assert!(decode_reply("err timeout waiting for commit").is_err());
        assert!(decode_reply("garbage").is_err());
    }
}
