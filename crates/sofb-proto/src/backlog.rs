//! The request intake every order protocol shares: the store of known
//! requests, which of them are still unordered (in arrival order), and
//! batch formation over them.
//!
//! SC/SCR, BFT and CT all take client requests the same way, so each
//! keeps one [`RequestPool`]. The pool owns the request store (id →
//! request) and wraps a [`RequestBacklog`]: an arrival-ordered deque
//! feeding batch formation plus the ordered-id set. The backlog carries
//! the two hot-path subtleties:
//!
//! * **Amortized compaction.** Marking a batch ordered does not sweep
//!   the deque (that sweep, once per accepted order, was a benchmark
//!   hot spot); consumers skip ordered entries instead, and the full
//!   sweep runs only when the deque doubles past its live backlog —
//!   O(1) amortized per request with identical observable behaviour.
//! * **Front-age queries.** Timeliness checks (the SC shadow's
//!   order-timeout, BFT's view-change trigger) ask how long the oldest
//!   *waiting* request has been queued, so already-ordered entries are
//!   popped off the front before reading it.
//!
//! The store is only ever looked up by id, never iterated, so hash order
//! cannot reach a schedule: every loop walks a batch's id list or the
//! arrival deque.

use std::collections::VecDeque;

use crate::fasthash::{IdHashMap, IdHashSet};
use crate::request::{BatchRef, Request, RequestId};

/// Smallest deque length worth sweeping for already-ordered entries.
const COMPACT_MIN: usize = 64;

/// Arrival-ordered backlog of known requests plus the ordered-id set.
///
/// `T` is the per-entry arrival stamp (the simulator's `SimTime`; any
/// copyable stamp works).
#[derive(Clone, Debug)]
pub struct RequestBacklog<T> {
    ordered: IdHashSet<RequestId>,
    unordered: VecDeque<(RequestId, T)>,
    watermark: usize,
}

impl<T> Default for RequestBacklog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RequestBacklog<T> {
    /// An empty backlog.
    pub fn new() -> Self {
        RequestBacklog {
            ordered: IdHashSet::default(),
            unordered: VecDeque::new(),
            watermark: COMPACT_MIN,
        }
    }
}

impl<T: Copy> RequestBacklog<T> {
    /// Queues a newly learned request unless it is already ordered.
    /// (Deduplication against re-delivery is the caller's request store.)
    pub fn note(&mut self, id: RequestId, at: T) {
        if !self.ordered.contains(&id) {
            self.unordered.push_back((id, at));
        }
    }

    /// True if `id` has been ordered.
    pub fn is_ordered(&self, id: &RequestId) -> bool {
        self.ordered.contains(id)
    }

    /// Marks every id of a batch ordered, sweeping the deque only once
    /// it outgrows its watermark.
    pub fn mark_ordered<I: IntoIterator<Item = RequestId>>(&mut self, ids: I) {
        for id in ids {
            self.ordered.insert(id);
        }
        if self.unordered.len() >= self.watermark {
            let ordered = &self.ordered;
            self.unordered.retain(|(id, _)| !ordered.contains(id));
            self.watermark = (self.unordered.len() * 2).max(COMPACT_MIN);
        }
    }

    /// The front entry of the deque, ordered entries included (batch
    /// formation skips and pops those itself via [`Self::is_ordered`]).
    pub fn front(&self) -> Option<(RequestId, T)> {
        self.unordered.front().copied()
    }

    /// Pops the front entry.
    pub fn pop_front(&mut self) -> Option<(RequestId, T)> {
        self.unordered.pop_front()
    }

    /// Arrival stamp of the oldest request still awaiting an order
    /// (already-ordered entries are dropped off the front first, so the
    /// answer never ages a request that was in fact ordered).
    pub fn oldest_waiting(&mut self) -> Option<T> {
        while self
            .unordered
            .front()
            .is_some_and(|(id, _)| self.ordered.contains(id))
        {
            self.unordered.pop_front();
        }
        self.unordered.front().map(|&(_, t)| t)
    }
}

/// The request store plus its [`RequestBacklog`]: one replica's intake.
///
/// `T` is the arrival stamp, as for the backlog.
#[derive(Debug, Default)]
pub struct RequestPool<T> {
    requests: IdHashMap<RequestId, Request>,
    backlog: RequestBacklog<T>,
}

impl<T: Copy> RequestPool<T> {
    /// Stores a newly learned request and queues it (unless already
    /// ordered). Returns false, changing nothing, for a re-delivery.
    pub fn admit(&mut self, req: Request, at: T) -> bool {
        if self.requests.contains_key(&req.id) {
            return false;
        }
        let id = req.id;
        self.requests.insert(id, req);
        self.backlog.note(id, at);
        true
    }

    /// Takes the next batch off the front of the backlog, in arrival
    /// order, skipping already-ordered requests: payloads up to
    /// `max_bytes` in total (a first request larger than that goes
    /// alone). The taken ids are marked ordered.
    pub fn take_batch(&mut self, max_bytes: usize) -> Vec<RequestId> {
        let mut members: Vec<RequestId> = Vec::new();
        let mut bytes = 0usize;
        while let Some((id, _)) = self.backlog.front() {
            if self.backlog.is_ordered(&id) {
                self.backlog.pop_front();
                continue;
            }
            let len = self.requests[&id].payload.len();
            if !members.is_empty() && bytes + len > max_bytes {
                break;
            }
            members.push(id);
            bytes += len;
            self.backlog.pop_front();
            if bytes >= max_bytes {
                break;
            }
        }
        if !members.is_empty() {
            self.backlog.mark_ordered(members.iter().copied());
        }
        members
    }

    /// The bytes a batch of `ids` is digested over
    /// ([`BatchRef::digest_input`]), or `None` while any id is unknown.
    pub fn digest_input(&self, ids: &[RequestId]) -> Option<Vec<u8>> {
        let mut refs: Vec<&Request> = Vec::with_capacity(ids.len());
        for id in ids {
            refs.push(self.requests.get(id)?);
        }
        Some(BatchRef::digest_input(&refs))
    }

    /// Marks every id of a batch ordered (see
    /// [`RequestBacklog::mark_ordered`]).
    pub fn mark_ordered<I: IntoIterator<Item = RequestId>>(&mut self, ids: I) {
        self.backlog.mark_ordered(ids);
    }

    /// Arrival stamp of the oldest request still awaiting an order (see
    /// [`RequestBacklog::oldest_waiting`]).
    pub fn oldest_waiting(&mut self) -> Option<T> {
        self.backlog.oldest_waiting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn id(seq: u64) -> RequestId {
        RequestId {
            client: ClientId(0),
            seq,
        }
    }

    /// Number of requests known but not yet ordered.
    fn waiting_len(b: &RequestBacklog<u64>) -> usize {
        b.unordered
            .iter()
            .filter(|(id, _)| !b.ordered.contains(id))
            .count()
    }

    #[test]
    fn notes_skip_ordered_ids() {
        let mut b: RequestBacklog<u64> = RequestBacklog::new();
        b.mark_ordered([id(1)]);
        b.note(id(1), 10);
        b.note(id(2), 20);
        assert_eq!(waiting_len(&b), 1);
        assert_eq!(b.front(), Some((id(2), 20)));
    }

    #[test]
    fn oldest_waiting_skips_ordered_fronts() {
        let mut b: RequestBacklog<u64> = RequestBacklog::new();
        for i in 0..4 {
            b.note(id(i), i * 10);
        }
        b.mark_ordered([id(0), id(1)]);
        // Deque still holds the ordered fronts (no compaction below the
        // watermark) but age queries must not see them.
        assert_eq!(b.oldest_waiting(), Some(20));
        assert_eq!(waiting_len(&b), 2);
    }

    #[test]
    fn compaction_is_amortized_and_behavior_neutral() {
        let mut b: RequestBacklog<u64> = RequestBacklog::new();
        for i in 0..200 {
            b.note(id(i), i);
        }
        b.mark_ordered((0..150).map(id));
        // Past the watermark the sweep ran: only waiting entries remain.
        assert_eq!(waiting_len(&b), 50);
        assert_eq!(b.unordered.len(), 50);
        assert_eq!(b.oldest_waiting(), Some(150));
    }

    fn req(seq: u64, len: usize) -> Request {
        Request::new(ClientId(0), seq, vec![0xabu8; len])
    }

    #[test]
    fn admit_dedups_without_requeueing() {
        let mut p: RequestPool<u64> = RequestPool::default();
        assert!(p.admit(req(1, 10), 1));
        assert!(!p.admit(req(1, 10), 2));
        assert_eq!(p.oldest_waiting(), Some(1));
        assert_eq!(p.take_batch(1024), vec![id(1)]);
        // Only one copy was queued: nothing is left to take.
        assert_eq!(p.take_batch(1024), Vec::<RequestId>::new());
        assert_eq!(p.oldest_waiting(), None);
    }

    #[test]
    fn take_batch_caps_payload_bytes() {
        let mut p: RequestPool<u64> = RequestPool::default();
        // An oversized first request goes alone.
        p.admit(req(1, 150), 1);
        p.admit(req(2, 40), 2);
        assert_eq!(p.take_batch(100), vec![id(1)]);
        // 40 + 40 fits, a third 40 would go over the cap: stop before it.
        p.admit(req(3, 40), 3);
        p.admit(req(4, 40), 4);
        assert_eq!(p.take_batch(100), vec![id(2), id(3)]);
        // 40 + 60 reaches the cap exactly: stop there, even though the
        // next (empty) request would still fit.
        p.admit(req(5, 60), 5);
        p.admit(req(6, 0), 6);
        assert_eq!(p.take_batch(100), vec![id(4), id(5)]);
        assert_eq!(p.take_batch(100), vec![id(6)]);
        assert_eq!(p.oldest_waiting(), None);
    }

    #[test]
    fn take_batch_skips_ids_ordered_elsewhere() {
        let mut p: RequestPool<u64> = RequestPool::default();
        for seq in 1..=3 {
            p.admit(req(seq, 10), seq);
        }
        // A received proposal ordered request 2 first.
        p.mark_ordered([id(2)]);
        assert_eq!(p.take_batch(1024), vec![id(1), id(3)]);
        // A request admitted after its order never queues.
        p.mark_ordered([id(4)]);
        p.admit(req(4, 10), 4);
        assert_eq!(p.oldest_waiting(), None);
    }

    #[test]
    fn digest_input_needs_every_request() {
        let mut p: RequestPool<u64> = RequestPool::default();
        let (a, b) = (req(1, 8), req(2, 16));
        p.admit(a.clone(), 1);
        p.admit(b.clone(), 2);
        assert_eq!(p.digest_input(&[id(1), id(3)]), None);
        assert_eq!(
            p.digest_input(&[id(2), id(1)]),
            Some(BatchRef::digest_input(&[&b, &a]))
        );
    }
}
