//! The SC/SCR order process: one sans-io state machine per node.
//!
//! A process plays up to three roles simultaneously:
//!
//! * **order process** — receives client requests, acks authenticated
//!   orders in sequence, commits on an `n−f` quorum (normal part, §4.1);
//! * **pair member** — mutually checks its counterpart in the value and
//!   time domains and fail-signals on detection (§3);
//! * **coordinator member** — proposes orders (replica) or endorses them
//!   (shadow) while its candidate rank is installed (§4), and runs the
//!   install part (§4.2) or the SCR view change (§4.4) on coordinator
//!   failure.
//!
//! The state machine is driven through [`sofb_sim::engine::Actor`], so the
//! same code runs under the deterministic simulator and any other host.

use std::collections::{BTreeMap, HashMap, HashSet};

use sofb_crypto::provider::CryptoProvider;
use sofb_proto::backlog::RequestPool;
use sofb_proto::codec::with_encoded;
use sofb_proto::ids::{ProcessId, Rank, SeqNo, ViewId};
use sofb_proto::pool::{BufPool, PooledBuf};
use sofb_proto::request::{BatchRef, Digest, Request};
use sofb_proto::signed::{DoublySigned, Signed};
use sofb_proto::topology::{Candidate, Topology, Variant};
use sofb_sim::engine::{Actor, Ctx};
use sofb_sim::time::SimTime;

use crate::checkpoint::CheckpointTracker;
use crate::config::{Fault, ScConfig};
use crate::events::ScEvent;
use crate::install::compute_new_backlog;
use crate::messages::{
    AckPayload, BackLogPayload, FailSignalMsg, FailSignalPayload, HeartbeatPayload, OrderMsg,
    OrderPayload, ScMsg, StartMsg, StartPayload, StartSigPayload, UnwillingPayload,
    ViewChangePayload,
};
use crate::order_log::OrderLog;

/// Timer tags.
const TIMER_BATCH: u64 = 1;
const TIMER_SHADOW_CHECK: u64 = 2;
const TIMER_HEARTBEAT: u64 = 3;
const TIMER_HB_CHECK: u64 = 4;

/// Operative status of this process's pair (§4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairStatus {
    /// Collaborating normally.
    Up,
    /// Fail-signalled; SCR pairs may recover from here.
    Down,
    /// Fail-signalled on a value-domain failure; never recovers.
    PermanentlyDown,
}

type ScCtx<'a> = Ctx<'a, ScMsg, ScEvent>;

/// One SC/SCR order process.
pub struct ScProcess {
    cfg: ScConfig,
    provider: Box<dyn CryptoProvider>,
    /// The fail-signal supplied at initialization, signed by the
    /// counterpart (§3.2). `None` for unpaired processes.
    presigned_fs: Option<Signed<FailSignalPayload>>,

    // ---- candidate / view state ----
    c: Rank,
    view: ViewId,
    installed: bool,
    halted: bool,
    /// Pairs with rank below this are dumb (set on installation, §4.3).
    dumb_below: Rank,

    // ---- request store ----
    pool: RequestPool<SimTime>,

    // ---- coordinator-replica state ----
    next_propose: SeqNo,
    // ---- shadow state ----
    next_endorse: SeqNo,
    stashed_proposal: Option<Signed<OrderPayload>>,

    // ---- order log ----
    log: OrderLog,
    next_to_ack: SeqNo,
    stashed_orders: Vec<OrderMsg>,

    // ---- pair state ----
    pair_status: Option<PairStatus>,
    hb_send_seq: u64,
    hb_recv_in_window: u32,
    hb_fresh_streak: u32,

    // ---- fail-signal bookkeeping ----
    fail_signalled: BTreeMap<Rank, FailSignalMsg>,
    my_fs_emitted: bool,

    // ---- install state ----
    backlogs: BTreeMap<ProcessId, Signed<BackLogPayload>>,
    start_msg: Option<StartMsg>,
    start_digest: Option<Digest>,
    start_sig_sent: bool,
    start_tuples: BTreeMap<ProcessId, Signed<StartSigPayload>>,
    start_cert: Option<Vec<Signed<StartSigPayload>>>,
    start_cert_issued: bool,
    start_acks: BTreeMap<ProcessId, Digest>,
    start_committed: bool,
    stashed_starts: Vec<StartMsg>,
    stashed_certs: Vec<(Rank, Vec<Signed<StartSigPayload>>)>,

    // ---- SCR view change ----
    view_changes: BTreeMap<ViewId, BTreeMap<ProcessId, Signed<ViewChangePayload>>>,
    unwilling_sent_for: Option<ViewId>,

    // ---- state transfer ----
    fetch_replies: BTreeMap<SeqNo, BTreeMap<ProcessId, OrderMsg>>,

    // ---- checkpointing / log truncation ----
    checkpoints: CheckpointTracker,
}

impl ScProcess {
    /// Creates a process from its configuration, crypto provider, and (for
    /// paired processes) the counterpart-signed fail-signal.
    pub fn new(
        cfg: ScConfig,
        provider: Box<dyn CryptoProvider>,
        presigned_fs: Option<Signed<FailSignalPayload>>,
    ) -> Self {
        let paired = cfg.topology.is_paired(cfg.me);
        assert_eq!(
            paired,
            presigned_fs.is_some(),
            "paired processes need a presigned fail-signal, unpaired must not have one"
        );
        ScProcess {
            provider,
            presigned_fs,
            c: Rank::FIRST,
            view: ViewId(1),
            installed: true,
            halted: false,
            dumb_below: Rank::FIRST,
            pool: RequestPool::default(),
            next_propose: SeqNo(1),
            next_endorse: SeqNo(1),
            stashed_proposal: None,
            log: OrderLog::new(SeqNo(1)),
            next_to_ack: SeqNo(1),
            stashed_orders: Vec::new(),
            pair_status: paired.then_some(PairStatus::Up),
            hb_send_seq: 0,
            hb_recv_in_window: 0,
            hb_fresh_streak: 0,
            fail_signalled: BTreeMap::new(),
            my_fs_emitted: false,
            backlogs: BTreeMap::new(),
            start_msg: None,
            start_digest: None,
            start_sig_sent: false,
            start_tuples: BTreeMap::new(),
            start_cert: None,
            start_cert_issued: false,
            start_acks: BTreeMap::new(),
            start_committed: false,
            stashed_starts: Vec::new(),
            stashed_certs: Vec::new(),
            view_changes: BTreeMap::new(),
            unwilling_sent_for: None,
            fetch_replies: BTreeMap::new(),
            checkpoints: CheckpointTracker::new(cfg.checkpoint_interval),
            cfg,
        }
    }

    // ---------------------------------------------------------------
    // Role helpers
    // ---------------------------------------------------------------

    fn topo(&self) -> &Topology {
        &self.cfg.topology
    }

    fn me(&self) -> ProcessId {
        self.cfg.me
    }

    /// Current coordinator candidate.
    fn coordinator(&self) -> Candidate {
        self.topo().candidate(self.c)
    }

    /// True if this process is the proposing member of the current
    /// candidate.
    fn i_am_proposer(&self) -> bool {
        self.coordinator().proposer() == self.me()
    }

    /// True if this process is the endorsing member of the current
    /// candidate.
    fn i_am_endorser(&self) -> bool {
        self.coordinator().endorser() == Some(self.me())
    }

    /// My own pair's candidate rank, if I am a pair member.
    fn my_pair_rank(&self) -> Option<Rank> {
        self.topo().counterpart(self.me())?;
        self.topo().candidate_rank_of(self.me())
    }

    /// Pairs retired as dumb under the §4.3 optimization (SC only; SCR
    /// pairs can recover so nobody is retired). Retirement happens when a
    /// new coordinator is *installed* ("every time a new coordinator is
    /// installed, the processes of the old coordinator are turned into
    /// 'dumb' processes"), so the count keys on `dumb_below`, not on the
    /// in-flight candidate rank.
    fn retired_pairs(&self) -> u32 {
        match self.topo().variant() {
            Variant::Sc => (self.dumb_below.0 - 1).min(self.topo().f()),
            Variant::Scr => 0,
        }
    }

    /// True if this process may not transmit (member of a retired pair).
    fn is_dumb(&self) -> bool {
        if self.topo().variant() == Variant::Scr {
            return false;
        }
        self.my_pair_rank().is_some_and(|r| r < self.dumb_below)
    }

    /// True if `p` is eligible to contribute to quorums right now.
    fn eligible(&self, p: ProcessId) -> bool {
        if self.topo().variant() == Variant::Scr {
            return true;
        }
        let floor = self.dumb_below;
        match self.topo().candidate_rank_of(p) {
            Some(r) => {
                // The unpaired final candidate is never retired.
                r >= floor || self.topo().candidate(r).endorser().is_none()
            }
            None => true,
        }
    }

    /// Commit quorum for orders under the current candidate.
    fn ack_quorum(&self) -> usize {
        self.topo().effective_quorum(self.retired_pairs())
    }

    /// Quorum of BackLogs needed to install the current candidate (the
    /// pair being replaced is fail-signalled but not yet dumb).
    fn install_quorum(&self) -> usize {
        self.topo().effective_quorum(self.retired_pairs())
    }

    /// IN3/IN4 identifier-signature tuples required (`f−1` at the first
    /// fail-over, shrinking with retirement).
    fn tuples_needed(&self) -> usize {
        self.topo()
            .effective_f(self.retired_pairs())
            .saturating_sub(1)
    }

    // ---------------------------------------------------------------
    // Sending (dumb processes execute but do not transmit, §4.3)
    // ---------------------------------------------------------------

    fn send(&self, ctx: &mut ScCtx<'_>, to: ProcessId, msg: ScMsg) {
        if self.is_dumb() || self.halted {
            return;
        }
        ctx.send(to.0 as usize, msg);
    }

    fn multicast_all(&self, ctx: &mut ScCtx<'_>, msg: ScMsg) {
        if self.is_dumb() || self.halted {
            return;
        }
        for p in self.topo().all() {
            ctx.send(p.0 as usize, msg.clone());
        }
    }

    // ---------------------------------------------------------------
    // Startup
    // ---------------------------------------------------------------

    fn arm_role_timers(&self, ctx: &mut ScCtx<'_>) {
        if self.installed && self.i_am_proposer() {
            ctx.set_timer(self.cfg.batching_interval, TIMER_BATCH);
        }
        if self.installed && self.i_am_endorser() {
            ctx.set_timer(self.cfg.order_timeout, TIMER_SHADOW_CHECK);
        }
    }

    fn arm_pair_timers(&self, ctx: &mut ScCtx<'_>) {
        if self.pair_status.is_some() {
            ctx.set_timer(self.cfg.heartbeat_period, TIMER_HEARTBEAT);
            ctx.set_timer(
                self.cfg
                    .heartbeat_period
                    .saturating_mul(u64::from(self.cfg.heartbeat_misses)),
                TIMER_HB_CHECK,
            );
        }
    }

    // ---------------------------------------------------------------
    // Requests and batching
    // ---------------------------------------------------------------

    fn on_request(&mut self, req: Request, ctx: &mut ScCtx<'_>) {
        if !self.pool.admit(req, ctx.now()) {
            return;
        }
        // A stashed proposal may now be checkable.
        if let Some(p) = self.stashed_proposal.take() {
            self.endorse_proposal(p, ctx);
        }
    }

    /// Coordinator replica: form a batch (≤ `batch_max_bytes`) and propose.
    fn propose_batch(&mut self, ctx: &mut ScCtx<'_>) {
        if !(self.installed && self.i_am_proposer()) || self.halted {
            return;
        }
        if let Fault::MuteCoordinatorAt(at) = self.cfg.fault {
            if self.next_propose >= at {
                return;
            }
        }
        let members = self.pool.take_batch(self.cfg.batch_max_bytes);
        if members.is_empty() {
            return;
        }
        // The paper stamps latency from "the instance the request is
        // batched": the batch tick. Under saturation the tick's firing
        // queues behind crypto work — that queueing is part of the
        // measured latency, so use the fire instant, not the service
        // start.
        let formed_at_ns = ctx.fired_at().unwrap_or(ctx.now()).as_ns();
        let input = self
            .pool
            .digest_input(&members)
            .expect("taken from the pool");
        let mut raw = self.provider.digest(&input);
        if let Fault::CorruptOrderAt(at) = self.cfg.fault {
            if self.next_propose == at {
                // Value-domain fault: flip a digest byte.
                if let Some(b) = raw.first_mut() {
                    *b ^= 0xff;
                }
            }
        }
        let digest = Digest::new(&raw);
        let o = self.next_propose;
        self.next_propose = o.next();
        let payload = OrderPayload {
            c: self.c,
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
        match self.coordinator() {
            Candidate::Pair { shadow, .. } => {
                // Phase 1 (1→1): propose to the shadow for endorsement.
                self.send(ctx, shadow, ScMsg::OrderProposal(signed));
            }
            Candidate::Unpaired(_) => {
                // The trusted final candidate multicasts solo orders
                // (including to itself; its ack follows in a later
                // callback so the order is not held back by it).
                let order = OrderMsg::Solo(signed);
                self.multicast_all(ctx, ScMsg::Order(order));
            }
        }
    }

    /// Shadow: validate the replica's proposal in the value domain and
    /// endorse it (§3.1), or fail-signal.
    fn endorse_proposal(&mut self, proposal: Signed<OrderPayload>, ctx: &mut ScCtx<'_>) {
        if !(self.installed && self.i_am_endorser()) || self.halted {
            return;
        }
        let Some(counterpart) = self.topo().counterpart(self.me()) else {
            return;
        };
        if proposal.signer != counterpart || !proposal.verify(self.provider.as_mut()) {
            return; // not from my replica / forged: ignore
        }
        if self.pair_status != Some(PairStatus::Up) {
            return;
        }
        let rubber_stamp = self.cfg.fault == Fault::RubberStamp;
        if !rubber_stamp {
            // Value-domain checks: correct rank, in-sequence, digest match.
            let p = &proposal.payload;
            if p.c != self.c || p.o != self.next_endorse {
                self.fail_signal(true, ctx);
                return;
            }
            let Some(input) = self.pool.digest_input(&p.batch.requests) else {
                // Requests lag the proposal on the fast pair link; re-check
                // when they arrive. (Not a failure: timeliness of requests
                // is the asynchronous network's business.)
                self.stashed_proposal = Some(proposal);
                return;
            };
            let expected = Digest::new(&self.provider.digest(&input));
            if expected != p.batch.digest {
                // Value-domain failure observed on the counterpart.
                self.fail_signal(true, ctx);
                return;
            }
        }
        self.next_endorse = proposal.payload.o.next();
        self.pool
            .mark_ordered(proposal.payload.batch.requests.iter().copied());
        // Phase 2 (2→n): endorse and multicast. The multicast includes
        // this shadow itself: its own ack (a 28 ms signing under RSA-1024)
        // must happen in a later callback so the Order leaves the NIC as
        // soon as the endorsement is computed.
        let endorsed = DoublySigned::endorse(proposal, self.provider.as_mut());
        let order = OrderMsg::Endorsed(endorsed);
        self.multicast_all(ctx, ScMsg::Order(order));
    }

    // ---------------------------------------------------------------
    // Normal part: N1–N3 (§4.1)
    // ---------------------------------------------------------------

    /// Authenticates an order message against the claimed candidate.
    fn authenticate_order(&mut self, order: &OrderMsg) -> bool {
        let c = order.payload().c;
        if c.0 == 0 || c.0 > self.topo().candidate_count() {
            return false;
        }
        let candidate = self.topo().candidate(c);
        match order {
            OrderMsg::Endorsed(d) => {
                let Candidate::Pair { replica, shadow } = candidate else {
                    return false;
                };
                d.signed_by_pair(replica, shadow) && d.verify(self.provider.as_mut())
            }
            OrderMsg::Solo(s) => {
                let Candidate::Unpaired(p) = candidate else {
                    return false;
                };
                s.signer == p && s.verify(self.provider.as_mut())
            }
        }
    }

    /// Handles an authenticated order: store, then ack everything that is
    /// now in sequence.
    fn accept_order(&mut self, order: OrderMsg, ctx: &mut ScCtx<'_>) {
        let o = order.payload().o;
        self.pool
            .mark_ordered(order.payload().batch.requests.iter().copied());
        if !self.log.store_order(order) {
            return; // duplicate (both pair members multicast)
        }
        self.ack_in_sequence(ctx);
        self.try_commit(o, ctx);
    }

    /// N1: multicast acks for every stored order that is next in sequence.
    fn ack_in_sequence(&mut self, ctx: &mut ScCtx<'_>) {
        // IN1: ordering activity is suspended between a coordinator's
        // fail-signal and the next installation. Acking a stored order
        // during that window would create commit evidence invisible to
        // the BackLog/ViewChange quorum the new coordinator computes its
        // Start from — the resulting commit could collide with start_o.
        if !self.installed {
            return;
        }
        loop {
            let o = self.next_to_ack;
            let Some(rec) = self.log.record(o) else {
                return;
            };
            if rec.acked {
                self.next_to_ack = o.next();
                continue;
            }
            let Some(order) = rec.order.clone() else {
                return;
            };
            self.log.record_mut(o).acked = true;
            self.next_to_ack = o.next();
            // N2 counts "ack or order ... from (n−f) distinct processes":
            // the signatories of the order itself already contribute, so
            // the coordinator pair does not send separate acks for its own
            // orders — each pair member signs once per batch, which is
            // precisely why SC saturates later than BFT (two signings per
            // replica per batch).
            let i_signed_it = order.signatories().any(|s| s == self.me());
            if self.cfg.fault != Fault::DropAcks && !i_signed_it {
                let ack = Signed::sign(AckPayload { order }, self.provider.as_mut());
                self.multicast_all(ctx, ScMsg::Ack(ack));
            }
        }
    }

    fn on_ack(&mut self, ack: Signed<AckPayload>, ctx: &mut ScCtx<'_>) {
        if !ack.verify(self.provider.as_mut()) {
            return;
        }
        let o = ack.payload.o();
        // The embedded order lets lagging processes adopt it (N2 counts
        // "ack or order"). Authenticate it unless we already hold an
        // identical order.
        let already = self
            .log
            .record(o)
            .and_then(|r| r.order.as_ref())
            .is_some_and(|stored| stored.payload().batch.digest == *ack.payload.digest());
        if !already {
            let order = ack.payload.order.clone();
            if self.authenticate_order(&order) && self.installed && order.payload().c == self.c {
                self.accept_order(order, ctx);
            }
        }
        self.log.store_ack(ack);
        self.try_commit(o, ctx);
    }

    /// N2/N3: commit once `n−f` eligible processes support the order.
    fn try_commit(&mut self, o: SeqNo, ctx: &mut ScCtx<'_>) {
        let quorum = self.ack_quorum();
        let topo = *self.topo();
        let floor = self.dumb_below;
        let eligible = move |p: ProcessId| {
            if topo.variant() == Variant::Scr {
                return true;
            }
            match topo.candidate_rank_of(p) {
                Some(r) => r >= floor || topo.candidate(r).endorser().is_none(),
                None => true,
            }
        };
        if self.log.try_commit(o, quorum, eligible) {
            let rec = self.log.record(o).expect("just committed");
            let order = rec.order.as_ref().expect("committed with order");
            let p = order.payload();
            ctx.emit(ScEvent::Committed {
                c: p.c,
                o,
                digest: p.batch.digest,
                requests: p.batch.len(),
                request_ids: p.batch.requests.clone(),
                formed_at_ns: p.formed_at_ns,
            });
            self.drive_checkpoints(ctx);
        }
    }

    // ---------------------------------------------------------------
    // Fail-signalling (§3.2)
    // ---------------------------------------------------------------

    /// Emits this pair's doubly-signed fail-signal.
    fn fail_signal(&mut self, value_domain: bool, ctx: &mut ScCtx<'_>) {
        let Some(presigned) = self.presigned_fs.clone() else {
            return;
        };
        if self.my_fs_emitted {
            // Already signalled; only escalate the status.
            if value_domain {
                self.pair_status = Some(PairStatus::PermanentlyDown);
            }
            return;
        }
        self.my_fs_emitted = true;
        self.pair_status = Some(if value_domain {
            PairStatus::PermanentlyDown
        } else {
            PairStatus::Down
        });
        let pair = presigned.payload.pair;
        let fs = DoublySigned::endorse(presigned, self.provider.as_mut());
        ctx.emit(ScEvent::FailSignalIssued { pair, value_domain });
        self.multicast_all(ctx, ScMsg::FailSignal(fs.clone()));
        self.handle_fail_signal(fs, ctx);
    }

    /// Validates a fail-signal: both signatures from the members of the
    /// claimed pair.
    fn authenticate_fail_signal(&mut self, fs: &FailSignalMsg) -> bool {
        let pair = fs.payload.pair;
        if pair.0 == 0 || pair.0 > self.topo().candidate_count() {
            return false;
        }
        let Candidate::Pair { replica, shadow } = self.topo().candidate(pair) else {
            return false;
        };
        fs.signed_by_pair(replica, shadow) && fs.verify(self.provider.as_mut())
    }

    fn handle_fail_signal(&mut self, fs: FailSignalMsg, ctx: &mut ScCtx<'_>) {
        let pair = fs.payload.pair;
        if self.fail_signalled.contains_key(&pair) {
            return;
        }
        self.fail_signalled.insert(pair, fs.clone());

        // Echo to the first signatory in case the second maliciously
        // omitted to inform its counterpart (§3.2).
        if !fs.signed_by_pair(
            self.me(),
            self.topo().counterpart(self.me()).unwrap_or(self.me()),
        ) {
            self.send(ctx, fs.first, ScMsg::FailSignal(fs.clone()));
        }

        // If my own pair fail-signalled (counterpart emitted it), stop
        // collaborating and broadcast my own copy too.
        if Some(pair) == self.my_pair_rank() && !self.my_fs_emitted {
            if let Some(presigned) = self.presigned_fs.clone() {
                self.my_fs_emitted = true;
                self.pair_status = Some(PairStatus::Down);
                let mine = DoublySigned::endorse(presigned, self.provider.as_mut());
                ctx.emit(ScEvent::FailSignalIssued {
                    pair,
                    value_domain: false,
                });
                self.multicast_all(ctx, ScMsg::FailSignal(mine));
            }
        }

        match self.topo().variant() {
            Variant::Sc => {
                if pair == self.c {
                    self.begin_install(ctx);
                }
            }
            Variant::Scr => {
                if pair == self.topo().view_candidate(self.view) {
                    self.begin_view_change(self.view.next(), ctx);
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // Install part: IN1–IN5 (§4.2)
    // ---------------------------------------------------------------

    /// IN1: advance to the next candidate and multicast BackLog.
    fn begin_install(&mut self, ctx: &mut ScCtx<'_>) {
        // Advance past every fail-signalled candidate (ranks may have
        // fail-signalled out of order).
        let mut next = self.c.next();
        while self.fail_signalled.contains_key(&next) {
            next = next.next();
        }
        if next.0 > self.topo().candidate_count() {
            // Every candidate exhausted — cannot happen with ≤ f faults
            // under assumption 1, but halt defensively.
            self.halted = true;
            return;
        }
        let triggering = self
            .fail_signalled
            .get(&self.c)
            .cloned()
            .expect("install triggered by fail-signal");
        self.c = next;
        self.installed = false;
        self.reset_install_state();
        ctx.cancel_timer(TIMER_BATCH);
        ctx.cancel_timer(TIMER_SHADOW_CHECK);

        let payload = BackLogPayload {
            new_c: self.c,
            fail_signal: triggering,
            max_committed: self.log.max_committed_entry(),
            uncommitted: self.log.acked_uncommitted(),
            pad: vec![0u8; self.cfg.backlog_pad],
        };
        let signed = Signed::sign(payload, self.provider.as_mut());
        self.multicast_all(ctx, ScMsg::BackLog(signed));
    }

    fn reset_install_state(&mut self) {
        self.backlogs.clear();
        self.start_msg = None;
        self.start_digest = None;
        self.start_sig_sent = false;
        self.start_tuples.clear();
        self.start_cert = None;
        self.start_cert_issued = false;
        self.start_acks.clear();
        self.start_committed = false;
    }

    fn on_backlog(&mut self, bl: Signed<BackLogPayload>, ctx: &mut ScCtx<'_>) {
        if bl.payload.new_c != self.c || self.installed {
            // A backlog for a rank we haven't reached: the embedded
            // fail-signal will bring us up to date.
            let fs = bl.payload.fail_signal.clone();
            if self.authenticate_fail_signal(&fs) {
                self.handle_fail_signal(fs, ctx);
            }
            if bl.payload.new_c != self.c || self.installed {
                return;
            }
        }
        if !bl.verify(self.provider.as_mut()) {
            return;
        }
        self.backlogs.insert(bl.signer, bl);
        self.maybe_compute_start(ctx);
    }

    /// IN2 (proposer side): with `n−f` BackLogs, compute the Start.
    fn maybe_compute_start(&mut self, ctx: &mut ScCtx<'_>) {
        if self.installed || self.start_msg.is_some() || self.halted {
            return;
        }
        if !self.i_am_proposer() || self.backlogs.len() < self.install_quorum() {
            return;
        }
        let backlogs: Vec<Signed<BackLogPayload>> = self.backlogs.values().cloned().collect();
        let payloads: Vec<&BackLogPayload> = backlogs.iter().map(|b| &b.payload).collect();
        let f_plus_1 = self
            .topo()
            .effective_f(self.retired_pairs().saturating_sub(1))
            + 1;
        let (new_backlog, start_o) = compute_new_backlog(&payloads, f_plus_1);
        let payload = StartPayload {
            c: self.c,
            start_o,
            new_backlog,
        };
        let signed = Signed::sign(payload, self.provider.as_mut());
        match self.coordinator() {
            Candidate::Pair { shadow, .. } => {
                self.send(
                    ctx,
                    shadow,
                    ScMsg::StartProposal {
                        start: signed,
                        backlogs,
                    },
                );
            }
            Candidate::Unpaired(_) => {
                let start = StartMsg::Solo(signed);
                self.adopt_start(start.clone(), ctx);
                self.multicast_all(ctx, ScMsg::Start(start));
            }
        }
    }

    /// IN2 (endorser side): verify the proposer's Start against the
    /// BackLogs and endorse it.
    fn on_start_proposal(
        &mut self,
        start: Signed<StartPayload>,
        backlogs: Vec<Signed<BackLogPayload>>,
        ctx: &mut ScCtx<'_>,
    ) {
        if self.installed || !self.i_am_endorser() || self.halted {
            return;
        }
        let Some(counterpart) = self.topo().counterpart(self.me()) else {
            return;
        };
        if start.signer != counterpart || !start.verify(self.provider.as_mut()) {
            return;
        }
        if self.cfg.fault != Fault::RubberStamp {
            // Verify the backlog quorum and recompute NewBackLog.
            if backlogs.len() < self.install_quorum() {
                return;
            }
            // In SCR the backlogs arrive as re-wrapped view-change
            // payloads whose signatures were verified on the ViewChange
            // envelope; skip re-verification there (the conflict rule
            // below still checks content against our own set).
            let scr = self.topo().variant() == Variant::Scr;
            let mut senders = HashSet::new();
            for b in &backlogs {
                // Skip re-verifying a backlog identical to one already
                // authenticated on direct receipt (a real implementation
                // caches verification; without this the shadow pays the
                // whole quorum's signature checks twice on the fail-over
                // critical path).
                let already_verified = self
                    .backlogs
                    .get(&b.signer)
                    .is_some_and(|own| own.payload == b.payload && own.sig == b.sig);
                if b.payload.new_c != self.c
                    || !senders.insert(b.signer)
                    || (!scr && !already_verified && !b.verify(self.provider.as_mut()))
                {
                    self.fail_signal(true, ctx);
                    return;
                }
            }
            // Union the proposer's backlogs with those received directly —
            // the §4.2 conflicting-order check ("verification is done
            // using the BackLogs which p'c received directly").
            let mut union: BTreeMap<ProcessId, Signed<BackLogPayload>> = self.backlogs.clone();
            for b in &backlogs {
                union.entry(b.signer).or_insert_with(|| b.clone());
            }
            let union_payloads: Vec<&BackLogPayload> = union.values().map(|b| &b.payload).collect();
            let f_plus_1 = self
                .topo()
                .effective_f(self.retired_pairs().saturating_sub(1))
                + 1;
            let (expected_backlog, expected_o) = {
                let provided: Vec<&BackLogPayload> = backlogs.iter().map(|b| &b.payload).collect();
                compute_new_backlog(&provided, f_plus_1)
            };
            let p = &start.payload;
            let consistent = p.start_o == expected_o
                && p.new_backlog.len() == expected_backlog.len()
                && p.new_backlog
                    .iter()
                    .zip(&expected_backlog)
                    .all(|(a, b)| a.payload().o == b.payload().o);
            // Conflict rule: any chosen order that conflicts across the
            // union must appear in ≥ f+1 backlogs.
            let conflict_ok =
                crate::install::verify_choice(&p.new_backlog, &union_payloads, f_plus_1);
            if !consistent || !conflict_ok {
                self.fail_signal(true, ctx);
                return;
            }
        }
        let endorsed = DoublySigned::endorse(start, self.provider.as_mut());
        let start = StartMsg::Endorsed(endorsed);
        self.adopt_start(start.clone(), ctx);
        self.multicast_all(ctx, ScMsg::Start(start));
    }

    fn authenticate_start(&mut self, start: &StartMsg) -> bool {
        let c = start.payload().c;
        if c.0 == 0 || c.0 > self.topo().candidate_count() {
            return false;
        }
        let candidate = self.topo().candidate(c);
        match start {
            StartMsg::Endorsed(d) => {
                let Candidate::Pair { replica, shadow } = candidate else {
                    return false;
                };
                d.signed_by_pair(replica, shadow) && d.verify(self.provider.as_mut())
            }
            StartMsg::Solo(s) => {
                let Candidate::Unpaired(p) = candidate else {
                    return false;
                };
                s.signer == p && s.verify(self.provider.as_mut())
            }
        }
    }

    /// Stores an authenticated Start and performs IN3 (tuple signing).
    fn adopt_start(&mut self, start: StartMsg, ctx: &mut ScCtx<'_>) {
        if self.start_msg.is_some() || self.halted {
            return;
        }
        let digest = Digest::new(&with_encoded(&start, |bytes| self.provider.digest(bytes)));
        self.start_digest = Some(digest);
        self.start_msg = Some(start.clone());

        let in_coordinator = self.coordinator().contains(self.me());
        if self.tuples_needed() > 0 && !in_coordinator && !self.start_sig_sent {
            // IN3: send an identifier-signature tuple to the pair.
            self.start_sig_sent = true;
            let sig = Signed::sign(
                StartSigPayload {
                    c: self.c,
                    start_digest: digest,
                },
                self.provider.as_mut(),
            );
            let cand = self.coordinator();
            self.send(ctx, cand.proposer(), ScMsg::StartSig(sig.clone()));
            if let Some(endorser) = cand.endorser() {
                self.send(ctx, endorser, ScMsg::StartSig(sig));
            }
        }
        if in_coordinator && self.tuples_needed() == 0 {
            // f = 1: no tuples needed; the pair certifies immediately.
            self.issue_start_cert(ctx);
        }
        // A StartCert may have raced ahead of the Start.
        let stashed = std::mem::take(&mut self.stashed_certs);
        for (c, tuples) in stashed {
            self.on_start_cert(c, tuples, ctx);
        }
        self.maybe_install(ctx);
    }

    fn on_start_sig(&mut self, sig: Signed<StartSigPayload>, ctx: &mut ScCtx<'_>) {
        if sig.payload.c != self.c || !self.coordinator().contains(self.me()) {
            return;
        }
        if Some(&sig.payload.start_digest) != self.start_digest.as_ref() {
            return;
        }
        if self.coordinator().contains(sig.signer) || !sig.verify(self.provider.as_mut()) {
            return;
        }
        self.start_tuples.insert(sig.signer, sig);
        if self.start_tuples.len() >= self.tuples_needed() {
            self.issue_start_cert(ctx);
        }
    }

    /// IN4: the installing pair multicasts the collected tuples. This is
    /// the fail-over latency endpoint of §5 ("the instance the new
    /// coordinator issues a Start message with (f+1) identifier-signature
    /// tuples").
    fn issue_start_cert(&mut self, ctx: &mut ScCtx<'_>) {
        if self.start_cert_issued || self.halted {
            return;
        }
        let Some(start) = &self.start_msg else { return };
        self.start_cert_issued = true;
        let tuples: Vec<Signed<StartSigPayload>> = self.start_tuples.values().cloned().collect();
        ctx.emit(ScEvent::StartCertIssued {
            c: self.c,
            start_o: start.payload().start_o,
        });
        self.start_cert = Some(tuples.clone());
        self.multicast_all(ctx, ScMsg::StartCert { c: self.c, tuples });
        self.maybe_install(ctx);
    }

    fn on_start_cert(
        &mut self,
        c: Rank,
        tuples: Vec<Signed<StartSigPayload>>,
        ctx: &mut ScCtx<'_>,
    ) {
        if c != self.c || self.installed || self.start_cert.is_some() {
            return;
        }
        let Some(digest) = self.start_digest else {
            // Start not yet received (network jitter can reorder the
            // multicast pair); stash and re-validate once it arrives.
            self.stashed_certs.push((c, tuples));
            return;
        };
        let mut seen = HashSet::new();
        let mut valid = 0usize;
        for t in &tuples {
            if t.payload.c == c
                && t.payload.start_digest == digest
                && !self.coordinator().contains(t.signer)
                && seen.insert(t.signer)
                && t.verify(self.provider.as_mut())
            {
                valid += 1;
            }
        }
        if valid < self.tuples_needed() {
            return;
        }
        self.start_cert = Some(tuples);
        self.maybe_install(ctx);
    }

    /// IN5: with an authentic Start and the tuple certificate, install the
    /// new coordinator and run the normal part on the Start itself.
    fn maybe_install(&mut self, ctx: &mut ScCtx<'_>) {
        if self.installed || self.halted {
            return;
        }
        let (Some(start), Some(_)) = (&self.start_msg, &self.start_cert) else {
            return;
        };
        let start = start.clone();
        let start_o = start.payload().start_o;
        self.installed = true;
        if self.topo().variant() == Variant::Sc {
            self.dumb_below = self.c;
        }
        ctx.emit(ScEvent::Installed { c: self.c });

        // Sequencing resumes after the Start.
        self.next_propose = start_o.next();
        self.next_endorse = start_o.next();
        self.arm_role_timers(ctx);

        // N1 for the Start itself: multicast a start-ack.
        let digest = self.start_digest.expect("set with start");
        self.start_acks.insert(self.me(), digest);
        let ack = Signed::sign(
            StartSigPayload {
                c: self.c,
                start_digest: digest,
            },
            self.provider.as_mut(),
        );
        // Start-acks are StartSig messages rebroadcast to everyone (the
        // pair distinguishes them from IN3 tuples by the install state).
        self.multicast_all(ctx, ScMsg::StartSig(ack));
        self.next_to_ack = SeqNo(start_o.0.max(self.next_to_ack.0)).next();
        self.try_commit_start(start.clone(), ctx);

        // Re-process any orders that raced ahead of the installation.
        let stashed = std::mem::take(&mut self.stashed_orders);
        for order in stashed {
            if order.payload().c == self.c {
                self.accept_order(order, ctx);
            }
        }
    }

    fn on_start_ack(&mut self, sig: Signed<StartSigPayload>, ctx: &mut ScCtx<'_>) {
        if sig.payload.c != self.c || self.start_committed {
            return;
        }
        if Some(&sig.payload.start_digest) != self.start_digest.as_ref() {
            return;
        }
        if !sig.verify(self.provider.as_mut()) {
            return;
        }
        self.start_acks.insert(sig.signer, sig.payload.start_digest);
        if let Some(start) = self.start_msg.clone() {
            self.try_commit_start(start, ctx);
        }
    }

    fn try_commit_start(&mut self, start: StartMsg, ctx: &mut ScCtx<'_>) {
        if self.start_committed || !self.installed {
            return;
        }
        if start_voters(&start, &self.start_acks, |p| self.eligible(p)) < self.ack_quorum() {
            return;
        }
        self.start_committed = true;
        let start_o = start.payload().start_o;
        let slot_was_committed = self.log.is_committed(start_o);
        // Claim the start_o slot in the log so no straggler acks for an
        // order the quorum never saw can commit something else there.
        self.log.record_mut(start_o).committed = true;
        // The Start itself occupies `start_o` in the total order (IN5
        // treats it "as an order message with sequence number start_o");
        // surface it as an empty-batch commit so executors see a gapless
        // sequence.
        if !slot_was_committed {
            ctx.emit(ScEvent::Committed {
                c: self.c,
                o: start_o,
                digest: self.start_digest.unwrap_or_default(),
                requests: 0,
                request_ids: Vec::new().into(),
                formed_at_ns: ctx.now().as_ns(),
            });
        }
        // Committing the Start commits every order it carries (IN5).
        for order in &start.payload().new_backlog {
            let o = order.payload().o;
            if self.log.is_committed(o) {
                continue;
            }
            let p = order.payload().clone();
            self.log
                .force_commit(order.clone(), crate::messages::CommitProof::default());
            self.pool.mark_ordered(p.batch.requests.iter().copied());
            ctx.emit(ScEvent::Committed {
                c: p.c,
                o,
                digest: p.batch.digest,
                requests: p.batch.requests.len(),
                request_ids: p.batch.requests.clone(),
                formed_at_ns: p.formed_at_ns,
            });
        }
        // Fetch any committed orders we are still missing (the paper's
        // f+1-agreeing-copies recovery).
        let floor = start
            .payload()
            .new_backlog
            .iter()
            .map(|o| o.payload().o.0)
            .min()
            .unwrap_or(start.payload().start_o.0);
        let mut missing_from: Option<SeqNo> = None;
        for o in (self.log.first().0..floor).map(SeqNo) {
            if !self.log.is_committed(o) {
                missing_from = Some(o);
                break;
            }
        }
        if let Some(from) = missing_from {
            self.multicast_all(ctx, ScMsg::FetchCommitted { from });
        }
        self.drive_checkpoints(ctx);
    }

    // ---------------------------------------------------------------
    // State transfer
    // ---------------------------------------------------------------

    fn on_fetch(&mut self, from: SeqNo, requester: ProcessId, ctx: &mut ScCtx<'_>) {
        for order in self.log.committed_from(from).into_iter().take(64) {
            self.send(ctx, requester, ScMsg::CommittedOrder(order));
        }
    }

    fn on_committed_order(&mut self, order: OrderMsg, sender: ProcessId, ctx: &mut ScCtx<'_>) {
        let o = order.payload().o;
        if self.log.is_committed(o) || !self.authenticate_order(&order) {
            return;
        }
        // f+1 agreeing copies prove some correct process vouches for it.
        let f_plus_1 = self.topo().effective_f(self.retired_pairs()) + 1;
        let entry = self.fetch_replies.entry(o).or_default();
        entry.insert(sender, order);
        let mut counts: HashMap<Digest, usize> = HashMap::new();
        for om in entry.values() {
            *counts.entry(om.payload().batch.digest).or_insert(0) += 1;
        }
        let Some((digest, _)) = counts.into_iter().find(|(_, n)| *n >= f_plus_1) else {
            return;
        };
        let order = entry
            .values()
            .find(|om| om.payload().batch.digest == digest)
            .cloned()
            .expect("counted above");
        self.fetch_replies.remove(&o);
        let p = order.payload().clone();
        self.log
            .force_commit(order, crate::messages::CommitProof::default());
        ctx.emit(ScEvent::Committed {
            c: p.c,
            o,
            digest: p.batch.digest,
            requests: p.batch.requests.len(),
            request_ids: p.batch.requests.clone(),
            formed_at_ns: p.formed_at_ns,
        });
        self.drive_checkpoints(ctx);
    }

    // ---------------------------------------------------------------
    // SCR view change (§4.4)
    // ---------------------------------------------------------------

    fn begin_view_change(&mut self, v: ViewId, ctx: &mut ScCtx<'_>) {
        if v <= self.view && self.installed {
            return;
        }
        if self
            .view_changes
            .get(&v)
            .is_some_and(|m| m.contains_key(&self.me()))
        {
            return;
        }
        let Some(fs) = self.fail_signalled.values().next_back().cloned() else {
            return;
        };
        let backlog = BackLogPayload {
            new_c: self.topo().view_candidate(v),
            fail_signal: fs,
            max_committed: self.log.max_committed_entry(),
            uncommitted: self.log.acked_uncommitted(),
            pad: vec![0u8; self.cfg.backlog_pad],
        };
        let vc = Signed::sign(ViewChangePayload { v, backlog }, self.provider.as_mut());
        let me = self.me();
        self.view_changes
            .entry(v)
            .or_default()
            .insert(me, vc.clone());
        self.multicast_all(ctx, ScMsg::ViewChange(vc));
        self.process_view_change_state(v, ctx);
    }

    fn on_view_change(&mut self, vc: Signed<ViewChangePayload>, ctx: &mut ScCtx<'_>) {
        let v = vc.payload.v;
        if v <= self.view && self.installed {
            return;
        }
        if !vc.verify(self.provider.as_mut()) {
            return;
        }
        self.view_changes
            .entry(v)
            .or_default()
            .insert(vc.signer, vc);
        // Join the view change once f+1 processes vouch for it (at least
        // one correct process saw the fail-signal).
        let f_plus_1 = self.topo().f() as usize + 1;
        if self.view_changes[&v].len() >= f_plus_1 {
            self.begin_view_change(v, ctx);
        }
        self.process_view_change_state(v, ctx);
    }

    fn process_view_change_state(&mut self, v: ViewId, ctx: &mut ScCtx<'_>) {
        let quorum = self.topo().commit_quorum();
        let count = self.view_changes.get(&v).map_or(0, |m| m.len());
        if count < quorum {
            return;
        }
        let candidate = self.topo().view_candidate(v);
        let cand = self.topo().candidate(candidate);
        if !cand.contains(self.me()) {
            // Move to the new view; installation completes via Start.
            if v > self.view {
                self.view = v;
                self.c = candidate;
                self.installed = false;
                self.reset_install_state();
                ctx.emit(ScEvent::ViewChanged { v });
            }
            return;
        }
        // I am a member of the candidate pair for view v.
        if self.pair_status != Some(PairStatus::Up) {
            if self.unwilling_sent_for != Some(v) {
                self.unwilling_sent_for = Some(v);
                if let Some(fs) = self.fail_signalled.get(&candidate).cloned().or_else(|| {
                    self.presigned_fs
                        .clone()
                        .map(|pre| DoublySigned::endorse(pre, self.provider.as_mut()))
                }) {
                    let u = Signed::sign(
                        UnwillingPayload { v, fail_signal: fs },
                        self.provider.as_mut(),
                    );
                    ctx.emit(ScEvent::UnwillingSent { v });
                    self.multicast_all(ctx, ScMsg::Unwilling(u));
                }
            }
            return;
        }
        if v > self.view {
            self.view = v;
            self.c = candidate;
            self.installed = false;
            self.reset_install_state();
            ctx.emit(ScEvent::ViewChanged { v });
        }
        if self.i_am_proposer() && self.start_msg.is_none() {
            // Compute Start from the view-change backlogs (IN2).
            let vcs = &self.view_changes[&v];
            let payloads: Vec<BackLogPayload> =
                vcs.values().map(|s| s.payload.backlog.clone()).collect();
            let payload_refs: Vec<&BackLogPayload> = payloads.iter().collect();
            let f_plus_1 = self.topo().f() as usize + 1;
            let (new_backlog, start_o) = compute_new_backlog(&payload_refs, f_plus_1);
            let payload = StartPayload {
                c: self.c,
                start_o,
                new_backlog,
            };
            let signed = Signed::sign(payload, self.provider.as_mut());
            if let Candidate::Pair { shadow, .. } = cand {
                // Reuse the SC endorsement path: ship the backlogs as
                // signed BackLog messages reconstructed from view changes.
                let backlogs: Vec<Signed<BackLogPayload>> = vcs
                    .values()
                    .map(|s| Signed {
                        payload: s.payload.backlog.clone(),
                        signer: s.signer,
                        sig: PooledBuf::empty(), // shadow revalidates from its own set
                    })
                    .collect();
                self.send(
                    ctx,
                    shadow,
                    ScMsg::StartProposal {
                        start: signed,
                        backlogs,
                    },
                );
            }
        }
    }

    fn on_unwilling(&mut self, u: Signed<UnwillingPayload>, ctx: &mut ScCtx<'_>) {
        if self.topo().variant() != Variant::Scr {
            return;
        }
        let v = u.payload.v;
        let candidate = self.topo().view_candidate(v);
        if !self.topo().candidate(candidate).contains(u.signer) {
            return;
        }
        if !u.verify(self.provider.as_mut()) {
            return;
        }
        // Echo to the pair and move to the next view (§4.4).
        let cand = self.topo().candidate(candidate);
        self.send(ctx, cand.proposer(), ScMsg::Unwilling(u.clone()));
        if let Some(endorser) = cand.endorser() {
            self.send(ctx, endorser, ScMsg::Unwilling(u.clone()));
        }
        self.fail_signalled
            .entry(candidate)
            .or_insert(u.payload.fail_signal.clone());
        self.begin_view_change(v.next(), ctx);
    }

    // ---------------------------------------------------------------
    // Pair heartbeats (time-domain checking and SCR recovery)
    // ---------------------------------------------------------------

    fn on_heartbeat(&mut self, hb: Signed<HeartbeatPayload>) {
        let Some(counterpart) = self.topo().counterpart(self.me()) else {
            return;
        };
        // Heartbeats travel only on the fast pair link and are
        // MAC-authenticated (Assumption 2's MACs) — public-key signatures
        // on a 20 Hz liveness beat would dominate each node's CPU.
        if hb.signer != counterpart
            || !with_encoded(&hb.payload, |bytes| {
                self.provider.verify_mac(counterpart.0, bytes, &hb.sig)
            })
        {
            return;
        }
        self.hb_recv_in_window += 1;
        self.hb_fresh_streak += 1;
    }

    fn heartbeat_tick(&mut self, ctx: &mut ScCtx<'_>) {
        if self.pair_status.is_none() || self.halted {
            return;
        }
        let Some(counterpart) = self.topo().counterpart(self.me()) else {
            return;
        };
        self.hb_send_seq += 1;
        let payload = HeartbeatPayload {
            pair: self.my_pair_rank().unwrap_or(Rank(0)),
            seq: self.hb_send_seq,
        };
        let mut tag = BufPool::take();
        with_encoded(&payload, |bytes| {
            self.provider.mac_into(counterpart.0, bytes, &mut tag)
        });
        let hb = Signed {
            payload,
            signer: self.me(),
            sig: PooledBuf::seal(tag),
        };
        // Heartbeats flow even while Down so SCR pairs can recover; they
        // bypass the dumb-process gag because they never touch the
        // asynchronous network (fast pair link only).
        if !self.halted {
            ctx.send(counterpart.0 as usize, ScMsg::Heartbeat(hb));
        }
        ctx.set_timer(self.cfg.heartbeat_period, TIMER_HEARTBEAT);
    }

    fn heartbeat_check(&mut self, ctx: &mut ScCtx<'_>) {
        if self.pair_status.is_none() || self.halted {
            return;
        }
        let received = self.hb_recv_in_window;
        self.hb_recv_in_window = 0;
        match self.pair_status {
            Some(PairStatus::Up) if received == 0 && self.cfg.time_checks => {
                // Time-domain failure: the counterpart missed the
                // window the delay estimate promised.
                self.hb_fresh_streak = 0;
                self.fail_signal(false, ctx);
            }
            Some(PairStatus::Down)
                if self.topo().variant() == Variant::Scr
                // SCR recovery: sustained fresh heartbeats restore `up`.
                && self.hb_fresh_streak >= self.cfg.recovery_beats =>
            {
                self.pair_status = Some(PairStatus::Up);
                self.my_fs_emitted = false;
                if let Some(pair) = self.my_pair_rank() {
                    ctx.emit(ScEvent::PairRecovered { pair });
                }
            }
            _ => {}
        }
        ctx.set_timer(
            self.cfg
                .heartbeat_period
                .saturating_mul(u64::from(self.cfg.heartbeat_misses)),
            TIMER_HB_CHECK,
        );
    }

    /// Shadow timeliness check: unordered requests older than the delay
    /// estimate mean the coordinator replica is not deciding orders
    /// (time-domain failure, §3.1).
    fn shadow_check(&mut self, ctx: &mut ScCtx<'_>) {
        if self.installed
            && self.i_am_endorser()
            && self.pair_status == Some(PairStatus::Up)
            && !self.halted
        {
            let now = ctx.now();
            let overdue = self.cfg.time_checks
                && self
                    .pool
                    .oldest_waiting()
                    .is_some_and(|t| now.since(t) > self.cfg.order_timeout);
            if overdue {
                self.fail_signal(false, ctx);
                return;
            }
            ctx.set_timer(self.cfg.order_timeout, TIMER_SHADOW_CHECK);
        }
    }

    // ---------------------------------------------------------------
    // Checkpointing (log truncation; see crate::checkpoint)
    // ---------------------------------------------------------------

    /// Chains newly contiguous commits into the running checkpoint digest
    /// and announces at boundaries. Call after any commit.
    fn drive_checkpoints(&mut self, ctx: &mut ScCtx<'_>) {
        if !self.checkpoints.enabled() {
            return;
        }
        loop {
            let next = self.checkpoints.chained_up_to().next();
            if !self.log.is_committed(next) {
                return;
            }
            // Slots claimed by an install Start have no stored order; all
            // correct processes chain them with the empty digest, keeping
            // the running digests aligned.
            let digest = self
                .log
                .record(next)
                .and_then(|r| r.order.as_ref())
                .map(|om| om.payload().batch.digest)
                .unwrap_or_default();
            if let Some(payload) =
                self.checkpoints
                    .chain_commit(next, &digest, self.provider.as_mut())
            {
                // Vote for our own checkpoint and tell everyone.
                let quorum = self.ack_quorum();
                if let Some(stable) = self.checkpoints.record_vote(self.me(), &payload, quorum) {
                    self.stabilize_checkpoint(stable, ctx);
                }
                let signed = Signed::sign(payload, self.provider.as_mut());
                self.multicast_all(ctx, ScMsg::Checkpoint(signed));
            }
        }
    }

    fn on_checkpoint(
        &mut self,
        vote: Signed<crate::checkpoint::CheckpointPayload>,
        ctx: &mut ScCtx<'_>,
    ) {
        if !self.checkpoints.enabled() || !vote.verify(self.provider.as_mut()) {
            return;
        }
        let quorum = self.ack_quorum();
        if let Some(stable) = self
            .checkpoints
            .record_vote(vote.signer, &vote.payload, quorum)
        {
            self.stabilize_checkpoint(stable, ctx);
        }
    }

    fn stabilize_checkpoint(&mut self, stable: SeqNo, ctx: &mut ScCtx<'_>) {
        // Keep the stable boundary record itself: BackLogs still need the
        // max-committed entry with its proof.
        self.log.truncate_below(stable);
        self.fetch_replies = self.fetch_replies.split_off(&stable);
        ctx.emit(ScEvent::CheckpointStable { o: stable });
    }

    // ---------------------------------------------------------------
    // Introspection for tests and harnesses
    // ---------------------------------------------------------------

    /// The current candidate rank.
    pub fn current_rank(&self) -> Rank {
        self.c
    }

    /// The current SCR view.
    pub fn current_view(&self) -> ViewId {
        self.view
    }

    /// True once the current candidate is installed.
    pub fn is_installed(&self) -> bool {
        self.installed
    }

    /// This pair's status, if paired.
    pub fn pair_status(&self) -> Option<PairStatus> {
        self.pair_status
    }

    /// The order log (committed prefix inspection).
    pub fn log(&self) -> &OrderLog {
        &self.log
    }
}

/// Counts the distinct supporters of a Start: the eligible start-ackers,
/// plus the Start's signatories whether eligible or not. Counted, not
/// collected: a signatory adds one unless it was already counted as an
/// eligible acker or repeats the first signatory.
fn start_voters(
    start: &StartMsg,
    start_acks: &BTreeMap<ProcessId, Digest>,
    eligible: impl Fn(ProcessId) -> bool,
) -> usize {
    let counted = |p: ProcessId| start_acks.contains_key(&p) && eligible(p);
    let mut voters = start_acks.keys().filter(|p| eligible(**p)).count();
    let (first, second) = match start {
        StartMsg::Endorsed(d) => (d.first, Some(d.second)),
        StartMsg::Solo(s) => (s.signer, None),
    };
    if !counted(first) {
        voters += 1;
    }
    if second.is_some_and(|p| p != first && !counted(p)) {
        voters += 1;
    }
    voters
}

impl Actor for ScProcess {
    type Msg = ScMsg;
    type Event = ScEvent;

    fn on_start(&mut self, ctx: &mut ScCtx<'_>) {
        self.arm_role_timers(ctx);
        self.arm_pair_timers(ctx);
    }

    fn on_message(&mut self, from: usize, msg: ScMsg, ctx: &mut ScCtx<'_>) {
        if self.halted {
            return;
        }
        let sender = ProcessId(from as u32);
        match msg {
            ScMsg::Request(req) => self.on_request(req, ctx),
            ScMsg::OrderProposal(p) => self.endorse_proposal(p, ctx),
            ScMsg::Order(order) => {
                if !self.authenticate_order(&order) {
                    return;
                }
                let oc = order.payload().c;
                if !self.installed || oc != self.c {
                    if oc >= self.c {
                        // IN1: ignore orders until installation; stash the
                        // ones from the incoming coordinator.
                        self.stashed_orders.push(order);
                    }
                    return;
                }
                self.accept_order(order, ctx);
            }
            ScMsg::Ack(ack) => self.on_ack(ack, ctx),
            ScMsg::FailSignal(fs) => {
                if self.authenticate_fail_signal(&fs) {
                    self.handle_fail_signal(fs, ctx);
                }
            }
            ScMsg::BackLog(bl) => self.on_backlog(bl, ctx),
            ScMsg::StartProposal { start, backlogs } => {
                self.on_start_proposal(start, backlogs, ctx)
            }
            ScMsg::Start(start) => {
                if !self.authenticate_start(&start) {
                    return;
                }
                if start.payload().c != self.c {
                    self.stashed_starts.push(start);
                    return;
                }
                if self.start_msg.is_none() {
                    self.adopt_start(start, ctx);
                } else {
                    self.maybe_install(ctx);
                }
            }
            ScMsg::StartSig(sig) => {
                // Before installation these are IN3 tuples for the pair;
                // after, they are start-acks (N1 on the Start).
                if self.installed || self.start_acks.contains_key(&self.me()) {
                    self.on_start_ack(sig, ctx);
                } else if self.coordinator().contains(self.me()) {
                    self.on_start_sig(sig.clone(), ctx);
                    self.on_start_ack(sig, ctx);
                } else {
                    self.on_start_ack(sig, ctx);
                }
            }
            ScMsg::StartCert { c, tuples } => self.on_start_cert(c, tuples, ctx),
            ScMsg::Heartbeat(hb) => self.on_heartbeat(hb),
            ScMsg::ViewChange(vc) => {
                if self.topo().variant() == Variant::Scr {
                    self.on_view_change(vc, ctx);
                }
            }
            ScMsg::Unwilling(u) => self.on_unwilling(u, ctx),
            ScMsg::FetchCommitted { from } => self.on_fetch(from, sender, ctx),
            ScMsg::CommittedOrder(order) => self.on_committed_order(order, sender, ctx),
            ScMsg::Checkpoint(vote) => self.on_checkpoint(vote, ctx),
        }
        // Drain stashed starts that have become current.
        if !self.stashed_starts.is_empty() && self.start_msg.is_none() {
            let mut stashed = std::mem::take(&mut self.stashed_starts);
            stashed.retain(|s| s.payload().c >= self.c);
            if let Some(pos) = stashed.iter().position(|s| s.payload().c == self.c) {
                let start = stashed.remove(pos);
                self.adopt_start(start, ctx);
            }
            self.stashed_starts = stashed;
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut ScCtx<'_>) {
        if self.halted {
            return;
        }
        match tag {
            TIMER_BATCH => {
                self.propose_batch(ctx);
                if self.installed && self.i_am_proposer() {
                    ctx.set_timer(self.cfg.batching_interval, TIMER_BATCH);
                }
            }
            TIMER_SHADOW_CHECK => self.shadow_check(ctx),
            TIMER_HEARTBEAT => self.heartbeat_tick(ctx),
            TIMER_HB_CHECK => self.heartbeat_check(ctx),
            _ => {}
        }
    }

    fn take_cost_ns(&mut self) -> u64 {
        self.provider.take_cost_ns()
    }
}

impl std::fmt::Debug for ScProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScProcess")
            .field("me", &self.cfg.me)
            .field("c", &self.c)
            .field("view", &self.view)
            .field("installed", &self.installed)
            .field("max_committed", &self.log.max_committed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use sofb_crypto::provider::{Dealer, SimProvider};
    use sofb_crypto::scheme::SchemeId;

    use super::*;
    use crate::messages::StartPayload;

    /// Starts signed by p0 alone, by the pair (p0, p4), and by p0 twice.
    fn starts() -> Vec<StartMsg> {
        let mut provs: Vec<SimProvider> = Dealer::sim(SchemeId::Md5Rsa1024, 5, 3);
        let payload = StartPayload {
            c: Rank(2),
            start_o: SeqNo(7),
            new_backlog: Vec::new(),
        };
        let signed = Signed::sign(payload, &mut provs[0]);
        vec![
            StartMsg::Solo(signed.clone()),
            StartMsg::Endorsed(DoublySigned::endorse(signed.clone(), &mut provs[4])),
            StartMsg::Endorsed(DoublySigned::endorse(signed, &mut provs[0])),
        ]
    }

    /// The quorum count as a set: eligible start-ackers, plus every
    /// signatory of the Start without an eligibility filter.
    fn start_voter_set(
        start: &StartMsg,
        start_acks: &BTreeMap<ProcessId, Digest>,
        eligible: impl Fn(ProcessId) -> bool,
    ) -> usize {
        let mut voters: HashSet<ProcessId> = start_acks
            .keys()
            .copied()
            .filter(|p| eligible(*p))
            .collect();
        match start {
            StartMsg::Endorsed(d) => {
                voters.insert(d.first);
                voters.insert(d.second);
            }
            StartMsg::Solo(s) => {
                voters.insert(s.signer);
            }
        }
        voters.len()
    }

    #[test]
    fn start_voters_counts_an_acking_signatory_once() {
        let [_, pair, _] = &starts()[..] else {
            unreachable!()
        };
        let acks: BTreeMap<ProcessId, Digest> = [ProcessId(0), ProcessId(1)]
            .into_iter()
            .map(|p| (p, Digest::empty()))
            .collect();
        // {p0 (acker and signatory), p1, p4}.
        assert_eq!(start_voters(pair, &acks, |_| true), 3);
        // An ineligible acking signatory still counts as a signatory;
        // an ineligible plain acker does not count at all.
        assert_eq!(start_voters(pair, &acks, |p| p != ProcessId(0)), 3);
        assert_eq!(start_voters(pair, &acks, |p| p != ProcessId(1)), 2);
    }

    #[test]
    fn start_voters_matches_the_voter_set() {
        // Every ack set and eligibility set over p0..p4, for each Start.
        for start in &starts() {
            for ack_mask in 0u32..32 {
                let acks: BTreeMap<ProcessId, Digest> = (0..5)
                    .filter(|i| ack_mask & (1 << i) != 0)
                    .map(|i| (ProcessId(i), Digest::empty()))
                    .collect();
                for eligible_mask in 0u32..32 {
                    let eligible = |p: ProcessId| eligible_mask & (1 << p.0) != 0;
                    assert_eq!(
                        start_voters(start, &acks, eligible),
                        start_voter_set(start, &acks, eligible),
                        "{start:?} acks {ack_mask:05b} eligible {eligible_mask:05b}"
                    );
                }
            }
        }
    }
}
