//! The CT replica: 1→n order, n→n ack, commit on `n−f`.

use std::collections::{BTreeMap, HashSet};

use sofb_proto::backlog::RequestPool;
use sofb_proto::ids::{ProcessId, Rank, SeqNo};
use sofb_proto::request::{BatchRef, Digest};
use sofb_sim::engine::{Actor, Ctx};
use sofb_sim::time::{SimDuration, SimTime};

use sofb_core::events::ScEvent;
use sofb_crypto::digest::DigestAlg;

use crate::messages::{CtMsg, CtOrder};

const TIMER_BATCH: u64 = 1;

/// Configuration of one CT replica.
#[derive(Clone, Debug)]
pub struct CtConfig {
    /// Resilience (n = 2f+1; crash faults only).
    pub f: u32,
    /// This replica's index (0-based); replica 0 coordinates.
    pub me: u32,
    /// Batching interval.
    pub batching_interval: SimDuration,
    /// Maximum batch payload bytes.
    pub batch_max_bytes: usize,
}

impl CtConfig {
    /// Defaults for replica `me` with resilience `f`.
    pub fn new(f: u32, me: u32) -> Self {
        CtConfig {
            f,
            me,
            batching_interval: SimDuration::from_ms(100),
            batch_max_bytes: 1024,
        }
    }

    /// Total replicas (`2f+1`).
    pub fn n(&self) -> usize {
        2 * self.f as usize + 1
    }

    /// Commit quorum (`n−f = f+1`).
    pub fn quorum(&self) -> usize {
        self.n() - self.f as usize
    }
}

#[derive(Default)]
struct Slot {
    order: Option<CtOrder>,
    ackers: HashSet<ProcessId>,
    acked: bool,
    committed: bool,
}

/// One CT replica.
pub struct CtProcess {
    cfg: CtConfig,
    next_propose: SeqNo,
    next_to_ack: SeqNo,
    pool: RequestPool<SimTime>,
    slots: BTreeMap<SeqNo, Slot>,
}

impl CtProcess {
    /// Creates a replica.
    pub fn new(cfg: CtConfig) -> Self {
        CtProcess {
            cfg,
            next_propose: SeqNo(1),
            next_to_ack: SeqNo(1),
            pool: RequestPool::default(),
            slots: BTreeMap::new(),
        }
    }

    fn i_am_coordinator(&self) -> bool {
        self.cfg.me == 0
    }

    fn multicast(&self, ctx: &mut Ctx<'_, CtMsg, ScEvent>, msg: CtMsg) {
        for p in 0..self.cfg.n() {
            ctx.send(p, msg.clone());
        }
    }

    fn propose_batch(&mut self, ctx: &mut Ctx<'_, CtMsg, ScEvent>) {
        if !self.i_am_coordinator() {
            return;
        }
        let members = self.pool.take_batch(self.cfg.batch_max_bytes);
        if members.is_empty() {
            return;
        }
        // Latency origin: the batch tick's fire instant (see sofb-core).
        let formed_at_ns = ctx.fired_at().unwrap_or(ctx.now()).as_ns();
        // CT uses a plain (uncharged) content identifier: the paper's CT
        // incurs no cryptographic overhead, so the simulator bills nothing
        // for this digest.
        let input = self
            .pool
            .digest_input(&members)
            .expect("taken from the pool");
        let digest = Digest::new(&DigestAlg::Sha256.digest(&input));
        let o = self.next_propose;
        self.next_propose = o.next();
        let order = CtOrder {
            o,
            batch: BatchRef {
                requests: members.into(),
                digest,
            },
            formed_at_ns,
        };
        ctx.emit(ScEvent::OrderProposed {
            o,
            batch_len: order.batch.len(),
            formed_at_ns,
        });
        self.accept_order(order.clone(), ProcessId(0), ctx);
        self.multicast(ctx, CtMsg::Order(order));
    }

    fn accept_order(&mut self, order: CtOrder, from: ProcessId, ctx: &mut Ctx<'_, CtMsg, ScEvent>) {
        let o = order.o;
        self.pool.mark_ordered(order.batch.requests.iter().copied());
        let slot = self.slots.entry(o).or_default();
        if slot.order.is_none() {
            slot.order = Some(order);
        }
        // The coordinator's order counts as its ack.
        slot.ackers.insert(from);
        self.ack_in_sequence(ctx);
        self.try_commit(o, ctx);
    }

    fn ack_in_sequence(&mut self, ctx: &mut Ctx<'_, CtMsg, ScEvent>) {
        let me = ProcessId(self.cfg.me);
        loop {
            let o = self.next_to_ack;
            let Some(slot) = self.slots.get_mut(&o) else {
                return;
            };
            if slot.acked {
                self.next_to_ack = o.next();
                continue;
            }
            let Some(order) = slot.order.clone() else {
                return;
            };
            slot.acked = true;
            slot.ackers.insert(me);
            self.next_to_ack = o.next();
            self.multicast(ctx, CtMsg::Ack(order));
        }
    }

    fn on_ack(&mut self, order: CtOrder, from: ProcessId, ctx: &mut Ctx<'_, CtMsg, ScEvent>) {
        let o = order.o;
        let slot = self.slots.entry(o).or_default();
        if slot.order.is_none() {
            slot.order = Some(order);
        }
        slot.ackers.insert(from);
        self.ack_in_sequence(ctx);
        self.try_commit(o, ctx);
    }

    fn try_commit(&mut self, o: SeqNo, ctx: &mut Ctx<'_, CtMsg, ScEvent>) {
        let quorum = self.cfg.quorum();
        let Some(slot) = self.slots.get_mut(&o) else {
            return;
        };
        if slot.committed || slot.order.is_none() || slot.ackers.len() < quorum {
            return;
        }
        slot.committed = true;
        let order = slot.order.as_ref().expect("checked");
        ctx.emit(ScEvent::Committed {
            c: Rank(1),
            o,
            digest: order.batch.digest,
            requests: order.batch.len(),
            request_ids: order.batch.requests.clone(),
            formed_at_ns: order.formed_at_ns,
        });
    }
}

impl Actor for CtProcess {
    type Msg = CtMsg;
    type Event = ScEvent;

    fn on_start(&mut self, ctx: &mut Ctx<'_, CtMsg, ScEvent>) {
        if self.i_am_coordinator() {
            ctx.set_timer(self.cfg.batching_interval, TIMER_BATCH);
        }
    }

    fn on_message(&mut self, from: usize, msg: CtMsg, ctx: &mut Ctx<'_, CtMsg, ScEvent>) {
        let sender = ProcessId(from as u32);
        match msg {
            CtMsg::Request(r) => {
                self.pool.admit(r, ctx.now());
            }
            CtMsg::Order(o) => {
                if sender == ProcessId(0) {
                    self.accept_order(o, sender, ctx);
                }
            }
            CtMsg::Ack(o) => self.on_ack(o, sender, ctx),
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, CtMsg, ScEvent>) {
        if tag == TIMER_BATCH {
            self.propose_batch(ctx);
            if self.i_am_coordinator() {
                ctx.set_timer(self.cfg.batching_interval, TIMER_BATCH);
            }
        }
    }
}

impl std::fmt::Debug for CtProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtProcess")
            .field("me", &self.cfg.me)
            .field("next_to_ack", &self.next_to_ack)
            .finish()
    }
}
