//! A high-level replicated-service façade: submit operations, run the
//! deployment, collect ordered replies.
//!
//! This is what a downstream user of the library actually wants — the §2
//! state-machine-replication story end to end: operations are multicast
//! to every order process, the chosen total-order protocol assigns them
//! a sequence, and a deterministic state machine executes each replica's
//! committed, gap-free prefix. Replies come from the replica executors,
//! which this façade also cross-checks for divergence on every poll.
//!
//! The façade is generic over [`Protocol`], so the same
//! submit/run/poll API (and the same divergence audit) works on SC,
//! SCR, BFT and CT — pick the variant by choosing `P`:
//!
//! ```no_run
//! # use sofbyz::app::kv::KvStore;
//! # use sofbyz::harness::WorldBuilder;
//! # use sofbyz::bft::sim::BftProtocol;
//! # use sofbyz::service::ReplicatedService;
//! let svc = ReplicatedService::new(WorldBuilder::<BftProtocol>::new(1), KvStore::new);
//! ```
//!
//! The execution bookkeeping itself (`ServiceCore`) is shared with the
//! wall-clock runtime ([`crate::runtime`]): the only difference between
//! the simulated service and a live `sofb serve` node is where the
//! commit events come from.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sofb_app::state_machine::{Executor, StateMachine};
use sofb_harness::analysis::OrderChecker;
use sofb_harness::{Deployment, Protocol, ProtocolEvent, WorldBuilder};
use sofb_proto::ids::{ClientId, SeqNo};
use sofb_proto::request::{Request, RequestId};
use sofb_sim::engine::TimedEvent;
use sofb_sim::time::{SimDuration, SimTime};

/// The node id the façade injects requests as — far outside any real
/// node range, like an external client co-located with the processes.
pub(crate) const GATEWAY_NODE: usize = 10_000;

/// The first-commit order of a (live or simulated) event stream, folded
/// one observation at a time: the member list each sequence number was
/// first committed with. Execution reads the gap-free prefix out of it
/// and [`order`](Self::order) flattens it into the run's commit order —
/// the one fold behind a live run's trace and its simulated replays.
#[derive(Default)]
pub(crate) struct CommitLog(BTreeMap<SeqNo, Arc<[RequestId]>>);

impl CommitLog {
    /// Records `ev` if it is the first commit of its sequence number;
    /// says whether it was.
    pub(crate) fn push(&mut self, ev: &TimedEvent<ProtocolEvent>) -> bool {
        let ProtocolEvent::Committed { o, request_ids, .. } = &ev.event else {
            return false;
        };
        match self.0.entry(*o) {
            Entry::Vacant(slot) => {
                slot.insert(request_ids.clone());
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// The member list `o` was first committed with.
    fn get(&self, o: SeqNo) -> Option<&Arc<[RequestId]>> {
        self.0.get(&o)
    }

    /// Request ids in commit order: batches flattened in sequence-number
    /// order.
    pub(crate) fn order(&self) -> Vec<RequestId> {
        self.0
            .values()
            .flat_map(|ids| ids.iter().copied())
            .collect()
    }
}

/// The protocol-independent execution side of a replicated service:
/// request bookkeeping, the session-long total-order audit, gap-free
/// prefix execution on a bank of replica [`Executor`]s, the
/// cross-replica divergence audit, and the reply table. Both the
/// simulated [`ReplicatedService`] and the wall-clock
/// [`crate::runtime::LiveService`] drive one of these; only the source
/// of the [`ProtocolEvent::Committed`] stream differs.
pub(crate) struct ServiceCore<S> {
    client: ClientId,
    next_seq: u64,
    requests: HashMap<RequestId, Request>,
    executors: Vec<Executor<S>>,
    /// Total-order audit over every event staged this session.
    checker: OrderChecker,
    /// Every sequence number's first commit; the executors' next
    /// sequence number marks how far into it execution has come.
    commits: CommitLog,
    replies: HashMap<RequestId, Vec<u8>>,
}

impl<S: StateMachine> ServiceCore<S> {
    /// `replicas` executors, each initialized from `make_machine`.
    pub(crate) fn new(replicas: usize, make_machine: impl Fn() -> S) -> Self {
        ServiceCore {
            client: ClientId(0),
            next_seq: 0,
            requests: HashMap::new(),
            executors: (0..replicas)
                .map(|_| Executor::new(make_machine()))
                .collect(),
            checker: OrderChecker::default(),
            commits: CommitLog::default(),
            replies: HashMap::new(),
        }
    }

    /// Mints the next request carrying `op` and tracks its payload until
    /// it is executed.
    pub(crate) fn next_request(&mut self, op: bytes::Bytes) -> Request {
        self.next_seq += 1;
        let req = Request::new(self.client, self.next_seq, op);
        self.requests.insert(req.id, req.clone());
        req
    }

    /// Audits `events` against everything staged before them and records
    /// the first commit of each sequence number. `Ok(true)` says a new
    /// sequence number was admitted, i.e. [`execute_ready`] may have
    /// work; `Err` is the total-order violation the ordering layer just
    /// committed.
    ///
    /// [`execute_ready`]: Self::execute_ready
    pub(crate) fn stage(&mut self, events: &[TimedEvent<ProtocolEvent>]) -> Result<bool, String> {
        let mut admitted = false;
        for ev in events {
            self.checker.push(ev)?;
            admitted |= self.commits.push(ev);
        }
        Ok(admitted)
    }

    /// Executes every newly gap-free batch on all replica executors,
    /// cross-checks their state digests and forgets the executed
    /// requests' payloads.
    ///
    /// # Panics
    ///
    /// Panics if the replicas diverge — the ordering layer's safety
    /// property rules this out; this is the service-level audit of it.
    pub(crate) fn execute_ready(&mut self) {
        loop {
            let next = self.executors[0].next_seq();
            let Some(ids) = self.commits.get(next) else {
                break;
            };
            let Some(ops) = ids
                .iter()
                .map(|id| self.requests.get(id).map(|r| r.payload.clone()))
                .collect::<Option<Vec<bytes::Bytes>>>()
            else {
                // Should not happen: we are the only client, so we hold
                // every payload. Leave the batch where it is and stop.
                break;
            };
            for id in ids.iter() {
                self.requests.remove(id);
            }
            let mut replica_replies: Option<Vec<Vec<u8>>> = None;
            for ex in &mut self.executors {
                let rs = ex.apply_batch(next, ops.iter()).expect("gap-free prefix");
                replica_replies.get_or_insert(rs);
            }
            // Cross-replica audit.
            let d0 = self.executors[0].machine().state_digest();
            for ex in &self.executors[1..] {
                assert_eq!(ex.machine().state_digest(), d0, "replica state divergence");
            }
            for (id, reply) in ids.iter().zip(replica_replies.unwrap_or_default()) {
                self.replies.insert(*id, reply);
            }
        }
    }

    /// All replies produced so far (replica 0's).
    pub(crate) fn replies(&self) -> &HashMap<RequestId, Vec<u8>> {
        &self.replies
    }

    /// Removes and returns `id`'s reply, if it has one yet.
    pub(crate) fn take_reply(&mut self, id: RequestId) -> Option<Vec<u8>> {
        self.replies.remove(&id)
    }

    /// Request ids in the order the ordering layer committed them.
    pub(crate) fn commit_order(&self) -> Vec<RequestId> {
        self.commits.order()
    }

    /// The executed-state digest (identical across replicas).
    pub(crate) fn state_digest(&self) -> Vec<u8> {
        self.executors[0].machine().state_digest()
    }

    /// Operations executed so far.
    pub(crate) fn executed_ops(&self) -> u64 {
        self.executors[0].applied_ops()
    }

    /// Replica 0's state machine (reads).
    pub(crate) fn machine(&self) -> &S {
        self.executors[0].machine()
    }
}

/// A replicated deterministic service on top of any total-order
/// protocol variant.
///
/// # Examples
///
/// ```
/// use sofbyz::app::kv::{KvOp, KvStore};
/// use sofbyz::core::sim::ScProtocol;
/// use sofbyz::harness::WorldBuilder;
/// use sofbyz::proto::codec::Encode;
/// use sofbyz::service::ReplicatedService;
/// use sofbyz::sim::time::SimDuration;
///
/// let builder = WorldBuilder::<ScProtocol>::new(1);
/// let mut svc = ReplicatedService::new(builder, KvStore::new);
/// let put = KvOp::Put { key: b"k".to_vec(), value: b"v".to_vec() };
/// let id = svc.submit(put.to_bytes());
/// svc.run_for(SimDuration::from_secs(2));
/// let replies = svc.poll_replies();
/// assert_eq!(replies.get(&id).map(Vec::as_slice), Some(&b"OK"[..]));
/// ```
pub struct ReplicatedService<P: Protocol, S> {
    deployment: Deployment<P>,
    core: ServiceCore<S>,
    started: bool,
}

impl<P: Protocol, S: StateMachine> ReplicatedService<P, S> {
    /// Builds the deployment and one executor per service replica
    /// (`2f+1` — a write quorum's worth, enough that the divergence
    /// audit spans a majority), each initialized from `make_machine`.
    pub fn new(builder: WorldBuilder<P>, make_machine: impl Fn() -> S) -> Self {
        let deployment = builder.build();
        let replicas = 2 * deployment.knobs.f as usize + 1;
        ReplicatedService {
            deployment,
            core: ServiceCore::new(replicas, make_machine),
            started: false,
        }
    }

    /// Submits an operation for ordering; returns its request id.
    pub fn submit(&mut self, op: impl Into<bytes::Bytes>) -> RequestId {
        self.ensure_started();
        let req = self.core.next_request(op.into());
        let id = req.id;
        for p in 0..self.deployment.n_processes {
            self.deployment
                .world
                .inject(p, GATEWAY_NODE, P::request_msg(req.clone()));
        }
        id
    }

    /// Advances virtual time by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.ensure_started();
        let until = self.deployment.world.now() + d;
        self.deployment.run_until(until);
    }

    /// Drains commit events, executes newly gap-free batches on every
    /// replica executor, cross-checks replica state digests, and returns
    /// all replies produced so far (replica 0's).
    ///
    /// # Panics
    ///
    /// Panics if replicas diverge (which the ordering layer's safety
    /// property rules out — this is the service-level audit of it) or if
    /// the ordering layer emitted conflicting commits, in this poll or
    /// across any two polls of the session.
    pub fn poll_replies(&mut self) -> &HashMap<RequestId, Vec<u8>> {
        let events = self.deployment.world.drain_events();
        if self.core.stage(&events).expect("ordering layer safety") {
            self.core.execute_ready();
        }
        self.core.replies()
    }

    /// The executed-state digest (identical across replicas).
    pub fn state_digest(&self) -> Vec<u8> {
        self.core.state_digest()
    }

    /// Operations executed so far.
    pub fn executed_ops(&self) -> u64 {
        self.core.executed_ops()
    }

    /// Access to replica 0's state machine (reads).
    pub fn machine(&self) -> &S {
        self.core.machine()
    }

    /// Current virtual time of the deployment.
    pub fn now(&self) -> SimTime {
        self.deployment.world.now()
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            self.deployment.start();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofb_app::kv::{KvOp, KvStore};
    use sofb_bft::sim::BftProtocol;
    use sofb_core::sim::ScProtocol;
    use sofb_ct::sim::CtProtocol;
    use sofb_harness::FaultSpec;
    use sofb_proto::codec::Encode;
    use sofb_proto::ids::{ProcessId, Rank, SeqNo as Sq};
    use sofb_proto::request::Digest;
    use sofb_proto::topology::Variant;

    fn put(k: &str, v: &str) -> Vec<u8> {
        KvOp::Put {
            key: k.into(),
            value: v.into(),
        }
        .to_bytes()
    }

    fn get(k: &str) -> Vec<u8> {
        KvOp::Get { key: k.into() }.to_bytes()
    }

    fn committed(node: usize, o: u64, digest: u8) -> TimedEvent<ProtocolEvent> {
        TimedEvent {
            time: SimTime::from_ms(10),
            node,
            event: ProtocolEvent::Committed {
                c: Rank(1),
                o: Sq(o),
                digest: Digest::new(&[digest]),
                requests: 0,
                request_ids: Vec::new().into(),
                formed_at_ns: 0,
            },
        }
    }

    /// The audit spans the session, not the slice one poll happened to
    /// drain: two nodes committing different digests at one sequence
    /// number are caught even when their commits arrive in two polls.
    #[test]
    fn divergence_split_across_two_stage_calls_is_caught() {
        let mut core = ServiceCore::new(3, KvStore::new);
        assert_eq!(core.stage(&[committed(0, 1, 7)]), Ok(true));
        // The echo of a known commit admits nothing new …
        assert_eq!(core.stage(&[committed(1, 1, 7)]), Ok(false));
        // … and a different digest for the same slot is the violation.
        let err = core.stage(&[committed(2, 1, 8)]).unwrap_err();
        assert!(
            err.contains("divergent commit"),
            "unexpected message: {err}"
        );
        assert_eq!(core.stage(&[committed(0, 2, 9)]), Ok(true));
    }

    /// The gateway keeps no per-op state past execution: an executed
    /// request's payload is dropped, and a taken reply is gone.
    #[test]
    fn executed_requests_are_forgotten() {
        let mut core = ServiceCore::new(3, KvStore::new);
        let a = core.next_request(put("x", "1").into());
        let b = core.next_request(get("x").into());
        assert_eq!(core.requests.len(), 2);
        let mut commit = committed(0, 1, 7);
        if let ProtocolEvent::Committed { request_ids, .. } = &mut commit.event {
            *request_ids = vec![a.id, b.id].into();
        }
        assert_eq!(core.stage(&[commit]), Ok(true));
        core.execute_ready();
        assert_eq!(core.executed_ops(), 2);
        assert!(core.requests.is_empty(), "executed payloads retained");
        assert_eq!(core.take_reply(b.id).as_deref(), Some(&b"1"[..]));
        assert_eq!(core.take_reply(b.id), None);
        assert_eq!(core.replies().len(), 1);
    }

    #[test]
    fn submit_run_reply_roundtrip() {
        let builder = WorldBuilder::<ScProtocol>::new(1)
            .batching_interval(SimDuration::from_ms(50))
            .seed(5);
        let mut svc = ReplicatedService::new(builder, KvStore::new);
        let a = svc.submit(put("x", "1"));
        svc.run_for(SimDuration::from_ms(400));
        let b = svc.submit(get("x"));
        svc.run_for(SimDuration::from_secs(2));
        let replies = svc.poll_replies().clone();
        assert_eq!(replies.get(&a).map(Vec::as_slice), Some(&b"OK"[..]));
        assert_eq!(replies.get(&b).map(Vec::as_slice), Some(&b"1"[..]));
        assert_eq!(svc.executed_ops(), 2);
        assert_eq!(svc.machine().get(b"x").map(Vec::as_slice), Some(&b"1"[..]));
    }

    #[test]
    fn replicas_converge_across_failover() {
        let fault = ScProtocol::value_fault(Sq(3)).expect("SC scripts value faults");
        let builder = WorldBuilder::<ScProtocol>::new(2)
            .batching_interval(SimDuration::from_ms(50))
            .fault(ProcessId(0), FaultSpec::Byzantine(fault))
            .seed(7);
        let mut svc = ReplicatedService::new(builder, KvStore::new);
        for i in 0..40 {
            svc.submit(put(&format!("k{}", i % 5), &format!("v{i}")));
            svc.run_for(SimDuration::from_ms(40));
        }
        svc.run_for(SimDuration::from_secs(4));
        let replies = svc.poll_replies().clone();
        // The fail-over happened and every op still executed exactly once
        // (poll_replies panics on divergence).
        assert_eq!(svc.executed_ops(), 40, "replies: {}", replies.len());
        assert_eq!(replies.len(), 40);
    }

    #[test]
    fn service_over_scr_variant() {
        let builder = WorldBuilder::<ScProtocol>::new(1)
            .variant(Variant::Scr)
            .batching_interval(SimDuration::from_ms(50))
            .seed(9);
        let mut svc = ReplicatedService::new(builder, KvStore::new);
        let id = svc.submit(put("a", "b"));
        svc.run_for(SimDuration::from_secs(2));
        assert!(svc.poll_replies().contains_key(&id));
    }

    /// The satellite fix this PR pins: the façade is no longer SC-only —
    /// BFT and CT get the same submit/run/poll API and divergence audit.
    #[test]
    fn service_over_bft_variant() {
        let builder = WorldBuilder::<BftProtocol>::new(1)
            .batching_interval(SimDuration::from_ms(50))
            .seed(3);
        let mut svc = ReplicatedService::new(builder, KvStore::new);
        let a = svc.submit(put("x", "42"));
        svc.run_for(SimDuration::from_ms(400));
        let b = svc.submit(get("x"));
        svc.run_for(SimDuration::from_secs(2));
        let replies = svc.poll_replies().clone();
        assert_eq!(replies.get(&a).map(Vec::as_slice), Some(&b"OK"[..]));
        assert_eq!(replies.get(&b).map(Vec::as_slice), Some(&b"42"[..]));
        assert_eq!(svc.executed_ops(), 2);
    }

    #[test]
    fn service_over_ct_variant() {
        let builder = WorldBuilder::<CtProtocol>::new(1)
            .batching_interval(SimDuration::from_ms(50))
            .seed(4);
        let mut svc = ReplicatedService::new(builder, KvStore::new);
        let a = svc.submit(put("y", "7"));
        svc.run_for(SimDuration::from_secs(2));
        let replies = svc.poll_replies().clone();
        assert_eq!(replies.get(&a).map(Vec::as_slice), Some(&b"OK"[..]));
    }
}
