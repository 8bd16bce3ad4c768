//! The BFT replica state machine (Castro–Liskov normal case + view change).
//!
//! `n = 3f+1` replicas; the primary of view `v` is replica `(v−1) mod n`.
//! Normal case (Figure 3(b) of the paper): the primary multicasts a signed
//! pre-prepare (1→n); backups multicast prepares (n→n); once a replica
//! holds the pre-prepare and `2f` matching prepares it multicasts a commit
//! (n→n); `2f+1` matching commits commit the batch.
//!
//! Signatures (not MACs) authenticate every protocol message, matching the
//! configuration the paper benchmarks (its crypto-technique axis applies
//! to both protocols).

use std::collections::{BTreeMap, HashSet};

use sofb_crypto::provider::CryptoProvider;
use sofb_crypto::scheme::SchemeId;
use sofb_proto::backlog::RequestPool;
use sofb_proto::ids::{ProcessId, Rank, SeqNo, ViewId};
use sofb_proto::request::{BatchRef, Digest, Request};
use sofb_proto::signed::Signed;
use sofb_sim::engine::{Actor, Ctx};
use sofb_sim::time::{SimDuration, SimTime};

use sofb_core::events::ScEvent;

use crate::messages::{
    BftMsg, CommitPayload, NewViewPayload, PrePreparePayload, PreparePayload, PreparedProof,
    ViewChangePayload,
};

const TIMER_BATCH: u64 = 1;
const TIMER_REQUEST_CHECK: u64 = 2;

/// Configuration of one BFT replica.
#[derive(Clone, Debug)]
pub struct BftConfig {
    /// Resilience (n = 3f+1).
    pub f: u32,
    /// This replica's index (0-based).
    pub me: u32,
    /// Crypto scheme.
    pub scheme: SchemeId,
    /// Batching interval (primary).
    pub batching_interval: SimDuration,
    /// Maximum batch payload bytes.
    pub batch_max_bytes: usize,
    /// Pending-request age that triggers a view change; `None` disables
    /// view changes (the fail-free benchmark setting).
    pub request_timeout: Option<SimDuration>,
    /// If true, this primary stops proposing (crash-style fault used by
    /// view-change tests).
    pub mute_primary: bool,
}

impl BftConfig {
    /// Defaults for replica `me` of a deployment with resilience `f`.
    pub fn new(f: u32, me: u32, scheme: SchemeId) -> Self {
        BftConfig {
            f,
            me,
            scheme,
            batching_interval: SimDuration::from_ms(100),
            batch_max_bytes: 1024,
            request_timeout: None,
            mute_primary: false,
        }
    }

    /// Total replicas.
    pub fn n(&self) -> usize {
        3 * self.f as usize + 1
    }

    /// Commit quorum (`2f+1`).
    pub fn quorum(&self) -> usize {
        2 * self.f as usize + 1
    }
}

#[derive(Default)]
struct SlotState {
    pre_prepare: Option<Signed<PrePreparePayload>>,
    prepares: BTreeMap<ProcessId, Signed<PreparePayload>>,
    commits: BTreeMap<ProcessId, Signed<CommitPayload>>,
    prepared: bool,
    commit_sent: bool,
    committed: bool,
}

/// One BFT replica.
pub struct BftProcess {
    cfg: BftConfig,
    provider: Box<dyn CryptoProvider>,
    v: ViewId,
    next_propose: SeqNo,
    pool: RequestPool<SimTime>,
    slots: BTreeMap<SeqNo, SlotState>,
    last_committed: SeqNo,
    view_changes: BTreeMap<ViewId, BTreeMap<ProcessId, Signed<ViewChangePayload>>>,
    view_change_sent: Option<ViewId>,
    new_view_done: bool,
}

impl BftProcess {
    /// Creates a replica.
    pub fn new(cfg: BftConfig, provider: Box<dyn CryptoProvider>) -> Self {
        BftProcess {
            cfg,
            provider,
            v: ViewId(1),
            next_propose: SeqNo(1),
            pool: RequestPool::default(),
            slots: BTreeMap::new(),
            last_committed: SeqNo(0),
            view_changes: BTreeMap::new(),
            view_change_sent: None,
            new_view_done: true,
        }
    }

    /// The primary of view `v`.
    pub fn primary_of(&self, v: ViewId) -> ProcessId {
        ProcessId(((v.0 - 1) % self.cfg.n() as u64) as u32)
    }

    fn i_am_primary(&self) -> bool {
        self.primary_of(self.v).0 == self.cfg.me
    }

    /// Current view.
    pub fn view(&self) -> ViewId {
        self.v
    }

    /// Last committed sequence number.
    pub fn last_committed(&self) -> SeqNo {
        self.last_committed
    }

    fn multicast(&self, ctx: &mut Ctx<'_, BftMsg, ScEvent>, msg: BftMsg) {
        for p in 0..self.cfg.n() {
            ctx.send(p, msg.clone());
        }
    }

    fn on_request(&mut self, req: Request, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        self.pool.admit(req, ctx.now());
    }

    fn propose_batch(&mut self, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        if !self.i_am_primary() || !self.new_view_done || self.cfg.mute_primary {
            return;
        }
        let members = self.pool.take_batch(self.cfg.batch_max_bytes);
        if members.is_empty() {
            return;
        }
        // Latency origin: the batch tick's fire instant (see sofb-core).
        let formed_at_ns = ctx.fired_at().unwrap_or(ctx.now()).as_ns();
        let input = self
            .pool
            .digest_input(&members)
            .expect("taken from the pool");
        let digest = Digest::new(&self.provider.digest(&input));
        let o = self.next_propose;
        self.next_propose = o.next();
        let payload = PrePreparePayload {
            v: self.v,
            o,
            batch: BatchRef {
                requests: members.into(),
                digest,
            },
            formed_at_ns,
        };
        ctx.emit(ScEvent::OrderProposed {
            o,
            batch_len: payload.batch.len(),
            formed_at_ns,
        });
        let signed = Signed::sign(payload, self.provider.as_mut());
        self.multicast(ctx, BftMsg::PrePrepare(signed));
    }

    fn on_pre_prepare(
        &mut self,
        pp: Signed<PrePreparePayload>,
        ctx: &mut Ctx<'_, BftMsg, ScEvent>,
    ) {
        let p = &pp.payload;
        if p.v != self.v || pp.signer != self.primary_of(self.v) {
            return;
        }
        if !pp.verify(self.provider.as_mut()) {
            return;
        }
        let slot = self.slots.entry(p.o).or_default();
        if let Some(existing) = &slot.pre_prepare {
            if existing.payload.batch.digest != p.batch.digest {
                // Equivocating primary: trigger a view change if enabled.
                self.start_view_change(self.v.next(), ctx);
            }
            return;
        }
        slot.pre_prepare = Some(pp.clone());
        self.pool
            .mark_ordered(pp.payload.batch.requests.iter().copied());

        // Backups multicast prepare; the primary's pre-prepare stands in
        // for its prepare.
        if !self.i_am_primary() {
            let prep = Signed::sign(
                PreparePayload {
                    v: self.v,
                    o: p.o,
                    digest: pp.payload.batch.digest,
                },
                self.provider.as_mut(),
            );
            self.multicast(ctx, BftMsg::Prepare(prep));
        }
        self.advance_slot(p.o, ctx);
    }

    fn on_prepare(&mut self, prep: Signed<PreparePayload>, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        if prep.payload.v != self.v || prep.signer == self.primary_of(self.v) {
            return;
        }
        if !prep.verify(self.provider.as_mut()) {
            return;
        }
        let o = prep.payload.o;
        let slot = self.slots.entry(o).or_default();
        slot.prepares.entry(prep.signer).or_insert(prep);
        self.advance_slot(o, ctx);
    }

    fn on_commit(&mut self, com: Signed<CommitPayload>, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        if com.payload.v != self.v {
            return;
        }
        if !com.verify(self.provider.as_mut()) {
            return;
        }
        let o = com.payload.o;
        let slot = self.slots.entry(o).or_default();
        slot.commits.entry(com.signer).or_insert(com);
        self.advance_slot(o, ctx);
    }

    /// Drives one slot through prepared → commit-sent → committed.
    fn advance_slot(&mut self, o: SeqNo, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        let f = self.cfg.f as usize;
        let quorum = self.cfg.quorum();
        let me = ProcessId(self.cfg.me);
        let Some(slot) = self.slots.get_mut(&o) else {
            return;
        };
        // Only the digest is needed on the hot path (every prepare and
        // commit lands here); the full pre-prepare — request ids
        // included — is read again only on the once-per-slot commit
        // transition below.
        let Some(digest) = slot.pre_prepare.as_ref().map(|pp| pp.payload.batch.digest) else {
            return;
        };

        // prepared: pre-prepare + 2f matching prepares (own included; the
        // primary contributes the pre-prepare itself). `prepares` is
        // keyed by signer and never contains the primary, so the count
        // of matching entries plus one is already the distinct-voter
        // count.
        if !slot.prepared {
            let matching = slot
                .prepares
                .values()
                .filter(|p| p.payload.digest == digest)
                .count();
            if matching + 1 > 2 * f {
                slot.prepared = true;
            }
        }
        if slot.prepared && !slot.commit_sent {
            slot.commit_sent = true;
            let com = Signed::sign(
                CommitPayload {
                    v: self.v,
                    o,
                    digest,
                },
                self.provider.as_mut(),
            );
            // Record own commit directly and multicast to the rest.
            let slot = self.slots.get_mut(&o).expect("slot exists");
            slot.commits.insert(me, com.clone());
            self.multicast(ctx, BftMsg::Commit(com));
        }
        let Some(slot) = self.slots.get_mut(&o) else {
            return;
        };
        if slot.prepared && !slot.committed {
            let votes = slot
                .commits
                .values()
                .filter(|c| c.payload.digest == digest)
                .count();
            if votes >= quorum {
                slot.committed = true;
                if o > self.last_committed {
                    self.last_committed = o;
                }
                let p = &slot.pre_prepare.as_ref().expect("checked above").payload;
                let event = ScEvent::Committed {
                    c: Rank(p.v.0 as u32),
                    o,
                    digest: p.batch.digest,
                    requests: p.batch.len(),
                    request_ids: p.batch.requests.clone(),
                    formed_at_ns: p.formed_at_ns,
                };
                ctx.emit(event);
            }
        }
    }

    // -----------------------------------------------------------------
    // View change
    // -----------------------------------------------------------------

    fn start_view_change(&mut self, v: ViewId, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        if self.view_change_sent.is_some_and(|sent| sent >= v) {
            return;
        }
        self.view_change_sent = Some(v);
        self.new_view_done = false;
        let prepared: Vec<PreparedProof> = self
            .slots
            .values()
            .filter(|s| s.prepared && !s.committed)
            .filter_map(|s| {
                s.pre_prepare.as_ref().map(|pp| PreparedProof {
                    pre_prepare: pp.clone(),
                    prepares: s.prepares.values().cloned().collect(),
                })
            })
            .collect();
        let vc = Signed::sign(
            ViewChangePayload {
                v,
                last_committed: self.last_committed,
                prepared,
            },
            self.provider.as_mut(),
        );
        let me = ProcessId(self.cfg.me);
        self.view_changes
            .entry(v)
            .or_default()
            .insert(me, vc.clone());
        self.multicast(ctx, BftMsg::ViewChange(vc));
        self.maybe_new_view(v, ctx);
    }

    fn on_view_change(
        &mut self,
        vc: Signed<ViewChangePayload>,
        ctx: &mut Ctx<'_, BftMsg, ScEvent>,
    ) {
        let v = vc.payload.v;
        if v <= self.v {
            return;
        }
        if !vc.verify(self.provider.as_mut()) {
            return;
        }
        self.view_changes
            .entry(v)
            .or_default()
            .insert(vc.signer, vc);
        // Join once f+1 replicas vote (a correct replica is among them).
        if self.view_changes[&v].len() > self.cfg.f as usize {
            self.start_view_change(v, ctx);
        }
        self.maybe_new_view(v, ctx);
    }

    fn maybe_new_view(&mut self, v: ViewId, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        if self.primary_of(v).0 != self.cfg.me {
            return;
        }
        let Some(vcs) = self.view_changes.get(&v) else {
            return;
        };
        if vcs.len() < self.cfg.quorum() || self.v >= v {
            return;
        }
        // Install the view locally and re-issue prepared batches.
        let view_changes: Vec<Signed<ViewChangePayload>> = vcs.values().cloned().collect();
        let mut carried: BTreeMap<SeqNo, Signed<PrePreparePayload>> = BTreeMap::new();
        let mut max_committed = SeqNo(0);
        for vc in &view_changes {
            max_committed = max_committed.max(vc.payload.last_committed);
            for proof in &vc.payload.prepared {
                let o = proof.pre_prepare.payload.o;
                carried
                    .entry(o)
                    .or_insert_with(|| proof.pre_prepare.clone());
            }
        }
        let mut pre_prepares: Vec<Signed<PrePreparePayload>> = Vec::new();
        let mut max_o = max_committed;
        for (o, pp) in carried.range(max_committed.next()..) {
            let re_issued = Signed::sign(
                PrePreparePayload {
                    v,
                    o: *o,
                    batch: pp.payload.batch.clone(),
                    formed_at_ns: pp.payload.formed_at_ns,
                },
                self.provider.as_mut(),
            );
            pre_prepares.push(re_issued);
            max_o = (*o).max(max_o);
        }
        let nv = Signed::sign(
            NewViewPayload {
                v,
                view_changes,
                pre_prepares: pre_prepares.clone(),
            },
            self.provider.as_mut(),
        );
        self.enter_view(v, max_o.next(), ctx);
        self.multicast(ctx, BftMsg::NewView(nv));
        for pp in pre_prepares {
            self.on_pre_prepare(pp, ctx);
        }
    }

    fn on_new_view(&mut self, nv: Signed<NewViewPayload>, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        let v = nv.payload.v;
        if v <= self.v || nv.signer != self.primary_of(v) {
            return;
        }
        if !nv.verify(self.provider.as_mut()) {
            return;
        }
        // Check the quorum justification.
        let mut voters = HashSet::new();
        let mut valid = 0usize;
        for vc in &nv.payload.view_changes {
            if vc.payload.v == v && voters.insert(vc.signer) && vc.verify(self.provider.as_mut()) {
                valid += 1;
            }
        }
        if valid < self.cfg.quorum() {
            return;
        }
        let max_o = nv
            .payload
            .pre_prepares
            .iter()
            .map(|pp| pp.payload.o)
            .max()
            .unwrap_or(self.last_committed);
        self.enter_view(v, max_o.next(), ctx);
        for pp in nv.payload.pre_prepares.clone() {
            self.on_pre_prepare(pp, ctx);
        }
    }

    fn enter_view(&mut self, v: ViewId, next_propose: SeqNo, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        self.v = v;
        self.new_view_done = true;
        self.next_propose = next_propose.max(self.next_propose);
        // Abandon uncommitted per-view state (prepares/commits are
        // view-specific).
        for slot in self.slots.values_mut() {
            if !slot.committed {
                slot.prepares.clear();
                slot.commits.clear();
                slot.prepared = false;
                slot.commit_sent = false;
                slot.pre_prepare = None;
            }
        }
        ctx.emit(ScEvent::ViewChanged { v });
        if self.i_am_primary() {
            ctx.set_timer(self.cfg.batching_interval, TIMER_BATCH);
        }
    }
}

impl Actor for BftProcess {
    type Msg = BftMsg;
    type Event = ScEvent;

    fn on_start(&mut self, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        if self.i_am_primary() {
            ctx.set_timer(self.cfg.batching_interval, TIMER_BATCH);
        }
        if let Some(timeout) = self.cfg.request_timeout {
            ctx.set_timer(timeout, TIMER_REQUEST_CHECK);
        }
    }

    fn on_message(&mut self, _from: usize, msg: BftMsg, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        match msg {
            BftMsg::Request(r) => self.on_request(r, ctx),
            BftMsg::PrePrepare(pp) => self.on_pre_prepare(pp, ctx),
            BftMsg::Prepare(p) => self.on_prepare(p, ctx),
            BftMsg::Commit(c) => self.on_commit(c, ctx),
            BftMsg::ViewChange(vc) => self.on_view_change(vc, ctx),
            BftMsg::NewView(nv) => self.on_new_view(nv, ctx),
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, BftMsg, ScEvent>) {
        match tag {
            TIMER_BATCH => {
                self.propose_batch(ctx);
                if self.i_am_primary() {
                    ctx.set_timer(self.cfg.batching_interval, TIMER_BATCH);
                }
            }
            TIMER_REQUEST_CHECK => {
                if let Some(timeout) = self.cfg.request_timeout {
                    let now = ctx.now();
                    let overdue = self
                        .pool
                        .oldest_waiting()
                        .is_some_and(|t| now.since(t) > timeout);
                    if overdue {
                        self.start_view_change(self.v.next(), ctx);
                    }
                    ctx.set_timer(timeout, TIMER_REQUEST_CHECK);
                }
            }
            _ => {}
        }
    }

    fn take_cost_ns(&mut self) -> u64 {
        self.provider.take_cost_ns()
    }
}

impl std::fmt::Debug for BftProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BftProcess")
            .field("me", &self.cfg.me)
            .field("v", &self.v)
            .field("last_committed", &self.last_committed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sofb_crypto::provider::Dealer;
    use sofb_proto::ids::ClientId;
    use sofb_sim::engine::TimedEvent;

    /// Drives one replica callback with a standalone context, returning
    /// (sends, events).
    fn drive<F>(replica: &mut BftProcess, f: F) -> (Vec<(usize, BftMsg)>, Vec<TimedEvent<ScEvent>>)
    where
        F: FnOnce(&mut BftProcess, &mut Ctx<'_, BftMsg, ScEvent>),
    {
        let mut rng = StdRng::seed_from_u64(1);
        let mut events = Vec::new();
        let mut ctx = Ctx::standalone(
            SimTime::ZERO,
            replica.cfg.me as usize,
            &mut rng,
            &mut events,
        );
        f(replica, &mut ctx);
        let outputs = ctx.into_outputs();
        (outputs.sends, events)
    }

    fn deployment(f: u32) -> Vec<BftProcess> {
        let n = 3 * f as usize + 1;
        Dealer::sim(SchemeId::Md5Rsa1024, n, 7)
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let mut cfg = BftConfig::new(f, i as u32, SchemeId::Md5Rsa1024);
                cfg.batching_interval = SimDuration::from_ms(10);
                BftProcess::new(cfg, Box::new(p))
            })
            .collect()
    }

    fn request(seq: u64) -> Request {
        Request::new(ClientId(0), seq, vec![0x55u8; 64])
    }

    /// The pre-prepare the view-1 primary multicasts for request 1.
    fn first_pre_prepare(replicas: &mut [BftProcess]) -> Signed<PrePreparePayload> {
        drive(&mut replicas[0], |r, ctx| r.on_request(request(1), ctx));
        let (sends, _) = drive(&mut replicas[0], |r, ctx| r.propose_batch(ctx));
        sends
            .into_iter()
            .find_map(|(_, m)| match m {
                BftMsg::PrePrepare(pp) => Some(pp),
                _ => None,
            })
            .expect("pre-prepare sent")
    }

    fn prepares(sends: &[(usize, BftMsg)]) -> usize {
        sends
            .iter()
            .filter(|(_, m)| matches!(m, BftMsg::Prepare(_)))
            .count()
    }

    #[test]
    fn primary_rotation() {
        let replicas = deployment(1); // n = 4
        let r = &replicas[0];
        assert_eq!(r.primary_of(ViewId(1)), ProcessId(0));
        assert_eq!(r.primary_of(ViewId(2)), ProcessId(1));
        assert_eq!(r.primary_of(ViewId(4)), ProcessId(3));
        assert_eq!(r.primary_of(ViewId(5)), ProcessId(0));
    }

    #[test]
    fn quorum_sizes() {
        let cfg = BftConfig::new(2, 0, SchemeId::Md5Rsa1024);
        assert_eq!(cfg.n(), 7);
        assert_eq!(cfg.quorum(), 5);
    }

    #[test]
    fn primary_pre_prepares_on_batch_timer() {
        let mut replicas = deployment(1);
        let (_, _) = drive(&mut replicas[0], |r, ctx| {
            r.on_request(request(1), ctx);
        });
        let (sends, events) = drive(&mut replicas[0], |r, ctx| r.propose_batch(ctx));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, ScEvent::OrderProposed { o: SeqNo(1), .. })));
        // Pre-prepare multicast to all 4 replicas.
        let pps = sends
            .iter()
            .filter(|(_, m)| matches!(m, BftMsg::PrePrepare(_)))
            .count();
        assert_eq!(pps, 4);
    }

    #[test]
    fn backup_prepares_on_pre_prepare() {
        let mut replicas = deployment(1);
        let pp = first_pre_prepare(&mut replicas);
        // Backup 1 receives it and multicasts a prepare.
        drive(&mut replicas[1], |r, ctx| r.on_request(request(1), ctx));
        let (sends, _) = drive(&mut replicas[1], |r, ctx| r.on_pre_prepare(pp.clone(), ctx));
        assert_eq!(prepares(&sends), 4);
        // The primary itself does not prepare.
        let (sends, _) = drive(&mut replicas[0], |r, ctx| {
            r.on_pre_prepare(pp, ctx);
        });
        assert_eq!(prepares(&sends), 0);
    }

    #[test]
    fn backup_prepares_before_its_requests_arrive() {
        let mut replicas = deployment(1);
        let pp = first_pre_prepare(&mut replicas);
        // Backup 1 has not seen request 1 yet: the pre-prepare carries
        // only ids and a digest, so it prepares at once.
        let (sends, _) = drive(&mut replicas[1], |r, ctx| r.on_pre_prepare(pp, ctx));
        assert_eq!(prepares(&sends), 4);
        // The request arriving afterwards moves no slot.
        let (sends, events) = drive(&mut replicas[1], |r, ctx| r.on_request(request(1), ctx));
        assert!(sends.is_empty());
        assert!(events.is_empty());
    }

    #[test]
    fn wrong_view_pre_prepare_ignored() {
        let mut replicas = deployment(1);
        let mut pp = first_pre_prepare(&mut replicas);
        pp.payload.v = ViewId(2); // signature no longer matches either
        let (sends, _) = drive(&mut replicas[1], |r, ctx| r.on_pre_prepare(pp, ctx));
        assert!(sends.is_empty());
    }

    #[test]
    fn mute_primary_never_proposes() {
        let mut replicas = deployment(1);
        replicas[0].cfg.mute_primary = true;
        drive(&mut replicas[0], |r, ctx| r.on_request(request(1), ctx));
        let (sends, events) = drive(&mut replicas[0], |r, ctx| r.propose_batch(ctx));
        assert!(sends.is_empty());
        assert!(events.is_empty());
    }
}
