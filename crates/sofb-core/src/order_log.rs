//! The per-process order log: orders seen, acks gathered, commits made.
//!
//! Implements the bookkeeping behind the normal part N1–N3 (§4.1): an
//! order may be committed once `ack`s or `order`s from `n−f` distinct
//! eligible processes support the same `(o, D(m))` binding, and the
//! supporting messages are retained as the *proof of commitment* that
//! later travels in BackLogs.

use std::collections::BTreeMap;

use sofb_proto::ids::{ProcessId, SeqNo};
use sofb_proto::request::Digest;
use sofb_proto::signed::Signed;

use crate::messages::{AckPayload, CommitProof, OrderMsg};

/// State tracked for one sequence number.
#[derive(Clone, Debug, Default)]
pub struct OrderRecord {
    /// The authenticated order, once received.
    pub order: Option<OrderMsg>,
    /// Acks by signer (each with the digest it vouched for).
    pub acks: BTreeMap<ProcessId, Signed<AckPayload>>,
    /// Whether this process has multicast its own ack (N1 done).
    pub acked: bool,
    /// Whether this sequence number is committed (N3 done).
    pub committed: bool,
    /// The retained proof of commitment.
    pub proof: Option<CommitProof>,
}

/// The order log of one process.
#[derive(Clone, Debug)]
pub struct OrderLog {
    records: BTreeMap<SeqNo, OrderRecord>,
    /// The first sequence number (orders below it predate this process's
    /// participation; 1 in normal deployments).
    first: SeqNo,
    max_committed: Option<SeqNo>,
}

impl Default for OrderLog {
    fn default() -> Self {
        Self::new(SeqNo(1))
    }
}

impl OrderLog {
    /// Creates a log whose first expected sequence number is `first`.
    pub fn new(first: SeqNo) -> Self {
        OrderLog {
            records: BTreeMap::new(),
            first,
            max_committed: None,
        }
    }

    /// The record for `o`, creating it if absent.
    pub fn record_mut(&mut self, o: SeqNo) -> &mut OrderRecord {
        self.records.entry(o).or_default()
    }

    /// The record for `o`, if any.
    pub fn record(&self, o: SeqNo) -> Option<&OrderRecord> {
        self.records.get(&o)
    }

    /// Stores an authenticated order; returns `false` if an order was
    /// already present for this sequence number (duplicates are normal:
    /// both pair members multicast).
    pub fn store_order(&mut self, order: OrderMsg) -> bool {
        let o = order.payload().o;
        let rec = self.record_mut(o);
        if rec.order.is_some() {
            return false;
        }
        rec.order = Some(order);
        true
    }

    /// Stores an authenticated ack (idempotent per signer).
    pub fn store_ack(&mut self, ack: Signed<AckPayload>) {
        let o = ack.payload.o();
        let rec = self.record_mut(o);
        rec.acks.entry(ack.signer).or_insert(ack);
    }

    /// Counts distinct eligible processes supporting `(o, digest)`:
    /// ack signers whose ack vouches for `digest`, plus the signatories of
    /// the stored order itself (an `order` counts like an `ack` in N2).
    /// Counted, not collected: `acks` is keyed by signer, so its matches
    /// are distinct, and a signatory adds one unless its own ack already
    /// counted it or it repeats the previous signatory.
    pub fn evidence(
        &self,
        o: SeqNo,
        digest: &Digest,
        eligible: impl Fn(ProcessId) -> bool,
    ) -> usize {
        let Some(rec) = self.records.get(&o) else {
            return 0;
        };
        let vouches = |p: &ProcessId| {
            rec.acks
                .get(p)
                .is_some_and(|a| a.payload.digest() == digest)
        };
        let mut voters = rec
            .acks
            .iter()
            .filter(|(p, a)| a.payload.digest() == digest && eligible(**p))
            .count();
        if let Some(order) = &rec.order {
            if &order.payload().batch.digest == digest {
                let mut previous = None;
                for s in order.signatories() {
                    if eligible(s) && !vouches(&s) && previous != Some(s) {
                        voters += 1;
                    }
                    previous = Some(s);
                }
            }
        }
        voters
    }

    /// Attempts to commit `o`: requires a stored order and `quorum`
    /// eligible supporters of its digest. Returns `true` on the
    /// *transition* to committed (false if already committed or not
    /// ready); the proof is kept in the record.
    pub fn try_commit(
        &mut self,
        o: SeqNo,
        quorum: usize,
        eligible: impl Fn(ProcessId) -> bool,
    ) -> bool {
        let Some(rec) = self.records.get(&o) else {
            return false;
        };
        if rec.committed {
            return false;
        }
        let Some(order) = &rec.order else {
            return false;
        };
        let digest = order.payload().batch.digest;
        if self.evidence(o, &digest, &eligible) < quorum {
            return false;
        }
        let rec = self.records.get_mut(&o).expect("checked above");
        // Sized exactly: the proof is retained until the next stable
        // checkpoint and travels in BackLogs.
        let matching = |a: &&Signed<AckPayload>| a.payload.digest() == &digest;
        let mut acks = Vec::with_capacity(rec.acks.values().filter(matching).count());
        acks.extend(rec.acks.values().filter(matching).cloned());
        rec.proof = Some(CommitProof { acks });
        rec.committed = true;
        if self.max_committed.is_none_or(|m| o > m) {
            self.max_committed = Some(o);
        }
        true
    }

    /// Directly marks `o` committed with the given order (used when a
    /// commitment is adopted from an install's NewBackLog or a state
    /// transfer, where the proof travelled with the message).
    pub fn force_commit(&mut self, order: OrderMsg, proof: CommitProof) {
        let o = order.payload().o;
        let rec = self.record_mut(o);
        rec.order.get_or_insert(order);
        rec.committed = true;
        rec.proof.get_or_insert(proof);
        if self.max_committed.is_none_or(|m| o > m) {
            self.max_committed = Some(o);
        }
    }

    /// Largest committed sequence number.
    pub fn max_committed(&self) -> Option<SeqNo> {
        self.max_committed
    }

    /// The committed order with the largest sequence number, with proof.
    pub fn max_committed_entry(&self) -> Option<(OrderMsg, CommitProof)> {
        let o = self.max_committed?;
        let rec = self.records.get(&o)?;
        Some((rec.order.clone()?, rec.proof.clone().unwrap_or_default()))
    }

    /// True if `o` is committed.
    pub fn is_committed(&self, o: SeqNo) -> bool {
        self.records.get(&o).is_some_and(|r| r.committed)
    }

    /// All acked-but-uncommitted orders (BackLog item (c), §4.2 IN1).
    pub fn acked_uncommitted(&self) -> Vec<OrderMsg> {
        self.records
            .values()
            .filter(|r| r.acked && !r.committed)
            .filter_map(|r| r.order.clone())
            .collect()
    }

    /// Committed orders with sequence number ≥ `from` (state transfer).
    pub fn committed_from(&self, from: SeqNo) -> Vec<OrderMsg> {
        self.records
            .range(from..)
            .filter(|(_, r)| r.committed)
            .filter_map(|(_, r)| r.order.clone())
            .collect()
    }

    /// First sequence number of this log.
    pub fn first(&self) -> SeqNo {
        self.first
    }

    /// Discards every record strictly below `floor` (log truncation at a
    /// stable checkpoint). The commit cursor state is unaffected — only
    /// retained history shrinks.
    pub fn truncate_below(&mut self, floor: SeqNo) {
        self.records = self.records.split_off(&floor);
        if self.first < floor {
            self.first = floor;
        }
    }

    /// Number of retained records (tests assert GC keeps this bounded).
    pub fn retained(&self) -> usize {
        self.records.len()
    }

    /// Sequence numbers with a stored order but no commit yet.
    pub fn pending(&self) -> Vec<SeqNo> {
        self.records
            .iter()
            .filter(|(_, r)| r.order.is_some() && !r.committed)
            .map(|(o, _)| *o)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofb_crypto::provider::{Dealer, SimProvider};
    use sofb_crypto::scheme::SchemeId;
    use sofb_proto::ids::{ClientId, Rank};
    use sofb_proto::request::{BatchRef, RequestId};
    use sofb_proto::signed::DoublySigned;

    use crate::messages::OrderPayload;

    fn providers(n: usize) -> Vec<SimProvider> {
        Dealer::sim(SchemeId::Md5Rsa1024, n, 5)
    }

    fn payload(o: u64, digest: Vec<u8>) -> OrderPayload {
        OrderPayload {
            c: Rank(1),
            o: SeqNo(o),
            batch: BatchRef {
                requests: vec![RequestId {
                    client: ClientId(1),
                    seq: o,
                }]
                .into(),
                digest: Digest::new(&digest),
            },
            formed_at_ns: 0,
        }
    }

    fn order(provs: &mut [SimProvider], o: u64, digest: Vec<u8>) -> OrderMsg {
        let signed = Signed::sign(payload(o, digest), &mut provs[0]);
        // Shadow is the last provider in these tests.
        let n = provs.len();
        OrderMsg::Endorsed(DoublySigned::endorse(signed, &mut provs[n - 1]))
    }

    fn ack(provs: &mut [SimProvider], i: usize, order: &OrderMsg) -> Signed<AckPayload> {
        Signed::sign(
            AckPayload {
                order: order.clone(),
            },
            &mut provs[i],
        )
    }

    #[test]
    fn store_order_dedupes() {
        let mut provs = providers(4);
        let mut log = OrderLog::default();
        let om = order(&mut provs, 1, vec![1]);
        assert!(log.store_order(om.clone()));
        assert!(!log.store_order(om));
    }

    #[test]
    fn commit_requires_order_and_quorum() {
        let mut provs = providers(5);
        let mut log = OrderLog::default();
        let om = order(&mut provs, 1, vec![1]);
        // Acks alone (no stored order) never commit.
        log.store_ack(ack(&mut provs, 1, &om));
        log.store_ack(ack(&mut provs, 2, &om));
        assert!(!log.try_commit(SeqNo(1), 3, |_| true));
        // Storing the order adds its two signatories as evidence.
        log.store_order(om.clone());
        // Evidence: acks {p1, p2} + signatories {p0, p4} = 4.
        assert_eq!(
            log.evidence(SeqNo(1), &om.payload().batch.digest, |_| true),
            4
        );
        assert!(log.try_commit(SeqNo(1), 4, |_| true));
        let proof = log.record(SeqNo(1)).unwrap().proof.as_ref().unwrap();
        assert_eq!(proof.acks.len(), 2);
        assert!(log.is_committed(SeqNo(1)));
        assert_eq!(log.max_committed(), Some(SeqNo(1)));
        // Second commit attempt is a no-op.
        assert!(!log.try_commit(SeqNo(1), 1, |_| true));
    }

    #[test]
    fn evidence_respects_eligibility() {
        let mut provs = providers(5);
        let mut log = OrderLog::default();
        let om = order(&mut provs, 1, vec![1]);
        log.store_order(om.clone());
        log.store_ack(ack(&mut provs, 1, &om));
        let d = &om.payload().batch.digest.clone();
        assert_eq!(log.evidence(SeqNo(1), d, |_| true), 3);
        // Exclude the order signatories (p0 and p4): only p1's ack counts.
        assert_eq!(
            log.evidence(SeqNo(1), d, |p| p != ProcessId(0) && p != ProcessId(4)),
            1
        );
    }

    #[test]
    fn evidence_counts_an_acking_signatory_once() {
        let mut provs = providers(5);
        let mut log = OrderLog::default();
        let om = order(&mut provs, 1, vec![1]);
        log.store_order(om.clone());
        log.store_ack(ack(&mut provs, 0, &om));
        log.store_ack(ack(&mut provs, 1, &om));
        // {p0 (acker and signatory), p1, p4}.
        assert_eq!(log.evidence(SeqNo(1), &Digest::new(&[1]), |_| true), 3);
        // A signatory whose ack vouches for another digest still counts
        // for the order's own digest.
        let mut log = OrderLog::default();
        log.store_order(om);
        let other = order(&mut provs, 1, vec![2]);
        log.store_ack(ack(&mut provs, 0, &other));
        assert_eq!(log.evidence(SeqNo(1), &Digest::new(&[1]), |_| true), 2);
        assert_eq!(log.evidence(SeqNo(1), &Digest::new(&[2]), |_| true), 1);
    }

    #[test]
    fn evidence_counts_a_solo_signatory_once() {
        let mut provs = providers(5);
        let mut log = OrderLog::default();
        let solo = OrderMsg::Solo(Signed::sign(payload(1, vec![1]), &mut provs[0]));
        log.store_order(solo.clone());
        let d = Digest::new(&[1]);
        assert_eq!(log.evidence(SeqNo(1), &d, |_| true), 1);
        log.store_ack(ack(&mut provs, 0, &solo));
        assert_eq!(log.evidence(SeqNo(1), &d, |_| true), 1);
        log.store_ack(ack(&mut provs, 1, &solo));
        assert_eq!(log.evidence(SeqNo(1), &d, |_| true), 2);
    }

    #[test]
    fn evidence_skips_an_ineligible_signatory() {
        let mut provs = providers(5);
        let mut log = OrderLog::default();
        let om = order(&mut provs, 1, vec![1]);
        log.store_order(om.clone());
        log.store_ack(ack(&mut provs, 1, &om));
        log.store_ack(ack(&mut provs, 4, &om));
        let d = Digest::new(&[1]);
        // p4 signed and acked, but is ineligible: {p0, p1}.
        assert_eq!(log.evidence(SeqNo(1), &d, |p| p != ProcessId(4)), 2);
        // A pair whose two signatures are one process counts it once.
        let mut log = OrderLog::default();
        let signed = Signed::sign(payload(1, vec![1]), &mut provs[0]);
        log.store_order(OrderMsg::Endorsed(DoublySigned::endorse(
            signed,
            &mut provs[0],
        )));
        assert_eq!(log.evidence(SeqNo(1), &d, |_| true), 1);
    }

    /// The evidence count as a collected voter list.
    fn evidence_by_collecting(
        log: &OrderLog,
        o: SeqNo,
        digest: &Digest,
        eligible: impl Fn(ProcessId) -> bool,
    ) -> usize {
        let Some(rec) = log.record(o) else {
            return 0;
        };
        let mut voters: Vec<ProcessId> = Vec::new();
        for (signer, ack) in &rec.acks {
            if ack.payload.digest() == digest && eligible(*signer) {
                voters.push(*signer);
            }
        }
        if let Some(order) = &rec.order {
            if &order.payload().batch.digest == digest {
                for s in order.signatories() {
                    if eligible(s) && !voters.contains(&s) {
                        voters.push(s);
                    }
                }
            }
        }
        voters.len()
    }

    #[test]
    fn evidence_matches_the_collected_voters() {
        // Orders signed by the pair (p0, p4), by p0 alone and by p0
        // twice; each of p0..p4 acks digest a, digest b or nothing; every
        // eligibility set; counted for both digests.
        let mut provs = providers(5);
        let orders = [
            order(&mut provs, 1, vec![0xa]),
            OrderMsg::Solo(Signed::sign(payload(1, vec![0xa]), &mut provs[0])),
            OrderMsg::Endorsed(DoublySigned::endorse(
                Signed::sign(payload(1, vec![0xa]), &mut provs[0]),
                &mut provs[0],
            )),
        ];
        let om_b = order(&mut provs, 1, vec![0xb]);
        let acks: Vec<[Signed<AckPayload>; 2]> = (0..5)
            .map(|i| [ack(&mut provs, i, &orders[0]), ack(&mut provs, i, &om_b)])
            .collect();
        let digests = [Digest::new(&[0xa]), Digest::new(&[0xb])];
        for om in &orders {
            for mut votes in 0..3u32.pow(5) {
                let mut log = OrderLog::default();
                log.store_order(om.clone());
                for pair in &acks {
                    if let Some(a) = pair.get((votes % 3) as usize) {
                        log.store_ack(a.clone());
                    }
                    votes /= 3;
                }
                for eligible_mask in 0u32..32 {
                    let eligible = |p: ProcessId| eligible_mask & (1 << p.0) != 0;
                    for d in &digests {
                        assert_eq!(
                            log.evidence(SeqNo(1), d, eligible),
                            evidence_by_collecting(&log, SeqNo(1), d, eligible),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn evidence_distinguishes_digests() {
        let mut provs = providers(5);
        let mut log = OrderLog::default();
        let om_a = order(&mut provs, 1, vec![0xa]);
        let om_b = order(&mut provs, 1, vec![0xb]);
        log.store_order(om_a.clone());
        log.store_ack(ack(&mut provs, 1, &om_b));
        // The conflicting ack does not support digest a.
        assert_eq!(log.evidence(SeqNo(1), &Digest::new(&[0xa]), |_| true), 2);
        assert_eq!(log.evidence(SeqNo(1), &Digest::new(&[0xb]), |_| true), 1);
    }

    #[test]
    fn acked_uncommitted_listing() {
        let mut provs = providers(4);
        let mut log = OrderLog::default();
        let om = order(&mut provs, 3, vec![3]);
        log.store_order(om.clone());
        log.record_mut(SeqNo(3)).acked = true;
        assert_eq!(log.acked_uncommitted().len(), 1);
        log.force_commit(om, CommitProof::default());
        assert!(log.acked_uncommitted().is_empty());
    }

    #[test]
    fn force_commit_and_state_transfer() {
        let mut provs = providers(4);
        let mut log = OrderLog::default();
        for o in [1u64, 2, 3] {
            let om = order(&mut provs, o, vec![o as u8]);
            log.force_commit(om, CommitProof::default());
        }
        assert_eq!(log.max_committed(), Some(SeqNo(3)));
        assert_eq!(log.committed_from(SeqNo(2)).len(), 2);
        let (om, _) = log.max_committed_entry().unwrap();
        assert_eq!(om.payload().o, SeqNo(3));
    }

    #[test]
    fn pending_lists_uncommitted_with_orders() {
        let mut provs = providers(4);
        let mut log = OrderLog::default();
        log.store_order(order(&mut provs, 2, vec![2]));
        assert_eq!(log.pending(), vec![SeqNo(2)]);
    }
}
