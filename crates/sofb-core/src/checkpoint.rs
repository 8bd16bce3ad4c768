//! Checkpointing and order-log truncation.
//!
//! The paper's protocols, like PBFT, cannot keep the whole order log
//! forever: acks and commitment proofs grow without bound. This module
//! adds the standard remedy (PBFT §4.3-style): every `interval` committed
//! sequence numbers a process multicasts a signed checkpoint binding the
//! *contiguous committed prefix* to a running digest; once `n−f` distinct
//! processes vouch for the same `(o, digest)`, the checkpoint is stable
//! and everything below it can be discarded.
//!
//! The running digest chains per-batch digests in sequence order, so two
//! processes agree on a checkpoint digest iff they committed identical
//! prefixes — a cheap cross-replica consistency audit as well as a GC
//! trigger.

use std::collections::BTreeMap;

use sofb_crypto::provider::CryptoProvider;
use sofb_proto::codec::{with_encoded, CodecError, Decode, Decoder, Encode, Encoder};
use sofb_proto::ids::{ProcessId, SeqNo};
use sofb_proto::request::Digest;

/// A checkpoint vote: "I committed every sequence number up to `o`, and
/// the chained digest of that prefix is `digest`".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPayload {
    /// Last sequence number of the checkpointed prefix.
    pub o: SeqNo,
    /// Chained digest over the prefix's batch digests.
    pub digest: Digest,
}

impl Encode for CheckpointPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(b'K');
        self.o.encode(enc);
        self.digest.encode(enc);
    }
}

impl Decode for CheckpointPayload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let t = dec.get_u8()?;
        if t != b'K' {
            return Err(CodecError::BadDiscriminant(t));
        }
        Ok(CheckpointPayload {
            o: SeqNo::decode(dec)?,
            digest: Digest::decode(dec)?,
        })
    }
}

/// One link of the running digest's chain: the bytes digested are
/// `running ‖ o ‖ batch digest`.
struct ChainLink<'a> {
    running: &'a Digest,
    o: SeqNo,
    batch_digest: &'a Digest,
}

impl Encode for ChainLink<'_> {
    fn encode(&self, enc: &mut Encoder) {
        self.running.encode(enc);
        self.o.encode(enc);
        self.batch_digest.encode(enc);
    }
}

/// Per-process checkpoint state: the running prefix digest, collected
/// votes, and the latest stable checkpoint.
#[derive(Debug, Default)]
pub struct CheckpointTracker {
    /// Checkpoint every this many sequence numbers (0 = disabled).
    interval: u64,
    /// The contiguous prefix covered by `running` (chained so far).
    chained_up_to: SeqNo,
    /// Running chained digest.
    running: Digest,
    /// Collected votes per sequence number.
    votes: BTreeMap<SeqNo, BTreeMap<ProcessId, Digest>>,
    /// Latest stable checkpoint.
    stable: Option<(SeqNo, Digest)>,
    /// Last checkpoint this process announced.
    announced: SeqNo,
}

impl CheckpointTracker {
    /// Creates a tracker checkpointing every `interval` sequence numbers.
    pub fn new(interval: u64) -> Self {
        CheckpointTracker {
            interval,
            chained_up_to: SeqNo(0),
            running: Digest::empty(),
            votes: BTreeMap::new(),
            stable: None,
            announced: SeqNo(0),
        }
    }

    /// True if checkpointing is enabled.
    pub fn enabled(&self) -> bool {
        self.interval > 0
    }

    /// The latest stable checkpoint, if any.
    pub fn stable(&self) -> Option<(SeqNo, &Digest)> {
        self.stable.as_ref().map(|(o, d)| (*o, d))
    }

    /// The prefix covered by the running digest.
    pub fn chained_up_to(&self) -> SeqNo {
        self.chained_up_to
    }

    /// Chains the next in-sequence commit into the running digest.
    /// Returns a payload to announce when a checkpoint boundary is hit.
    ///
    /// `o` must be exactly `chained_up_to + 1`; out-of-order calls are the
    /// caller's bug.
    ///
    /// # Panics
    ///
    /// Panics if `o` is not the next sequence number.
    pub fn chain_commit(
        &mut self,
        o: SeqNo,
        batch_digest: &Digest,
        provider: &mut dyn CryptoProvider,
    ) -> Option<CheckpointPayload> {
        assert_eq!(o, self.chained_up_to.next(), "commits must chain in order");
        let link = ChainLink {
            running: &self.running,
            o,
            batch_digest,
        };
        self.running = Digest::new(&with_encoded(&link, |bytes| provider.digest(bytes)));
        self.chained_up_to = o;
        if self.enabled() && o.0.is_multiple_of(self.interval) && o > self.announced {
            self.announced = o;
            return Some(CheckpointPayload {
                o,
                digest: self.running,
            });
        }
        None
    }

    /// Records a (verified) checkpoint vote. Returns the newly stabilized
    /// sequence number when `quorum` distinct processes agree on
    /// `(o, digest)`.
    pub fn record_vote(
        &mut self,
        voter: ProcessId,
        payload: &CheckpointPayload,
        quorum: usize,
    ) -> Option<SeqNo> {
        if self.stable.as_ref().is_some_and(|(s, _)| payload.o <= *s) {
            return None;
        }
        let entry = self.votes.entry(payload.o).or_default();
        entry.insert(voter, payload.digest);
        let agreeing = entry.values().filter(|d| **d == payload.digest).count();
        if agreeing >= quorum {
            self.stable = Some((payload.o, payload.digest));
            // Older vote sets are moot.
            self.votes = self.votes.split_off(&payload.o.next());
            return Some(payload.o);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofb_crypto::provider::{Dealer, SimProvider};
    use sofb_crypto::scheme::SchemeId;

    fn provider() -> SimProvider {
        Dealer::sim(SchemeId::Md5Rsa1024, 1, 1).remove(0)
    }

    fn d(b: u8) -> Digest {
        Digest::new(&[b])
    }

    #[test]
    fn chaining_is_order_sensitive() {
        let mut p = provider();
        let mut a = CheckpointTracker::new(2);
        let mut b = CheckpointTracker::new(2);
        a.chain_commit(SeqNo(1), &d(1), &mut p);
        let ca = a.chain_commit(SeqNo(2), &d(2), &mut p).expect("boundary");
        b.chain_commit(SeqNo(1), &d(2), &mut p);
        let cb = b.chain_commit(SeqNo(2), &d(1), &mut p).expect("boundary");
        assert_ne!(
            ca.digest, cb.digest,
            "different prefixes, different digests"
        );
    }

    #[test]
    fn identical_prefixes_agree() {
        let mut p = provider();
        let mut a = CheckpointTracker::new(3);
        let mut b = CheckpointTracker::new(3);
        for o in 1..=3u64 {
            let da = a.chain_commit(SeqNo(o), &d(o as u8), &mut p);
            let db = b.chain_commit(SeqNo(o), &d(o as u8), &mut p);
            assert_eq!(da, db);
        }
    }

    #[test]
    fn boundary_announcements_only() {
        let mut p = provider();
        let mut t = CheckpointTracker::new(2);
        assert!(t.chain_commit(SeqNo(1), &d(1), &mut p).is_none());
        assert!(t.chain_commit(SeqNo(2), &d(2), &mut p).is_some());
        assert!(t.chain_commit(SeqNo(3), &d(3), &mut p).is_none());
        assert!(t.chain_commit(SeqNo(4), &d(4), &mut p).is_some());
    }

    #[test]
    fn disabled_tracker_never_announces() {
        let mut p = provider();
        let mut t = CheckpointTracker::new(0);
        for o in 1..=8u64 {
            assert!(t.chain_commit(SeqNo(o), &d(o as u8), &mut p).is_none());
        }
        assert!(!t.enabled());
    }

    #[test]
    #[should_panic(expected = "must chain in order")]
    fn out_of_order_chaining_panics() {
        let mut p = provider();
        let mut t = CheckpointTracker::new(2);
        t.chain_commit(SeqNo(2), &d(2), &mut p);
    }

    #[test]
    fn votes_stabilize_at_quorum() {
        let mut t = CheckpointTracker::new(2);
        let payload = CheckpointPayload {
            o: SeqNo(4),
            digest: d(9),
        };
        assert!(t.record_vote(ProcessId(0), &payload, 3).is_none());
        assert!(t.record_vote(ProcessId(1), &payload, 3).is_none());
        // Duplicate voter does not advance the count.
        assert!(t.record_vote(ProcessId(1), &payload, 3).is_none());
        assert_eq!(t.record_vote(ProcessId(2), &payload, 3), Some(SeqNo(4)));
        assert_eq!(t.stable().map(|(o, _)| o), Some(SeqNo(4)));
        // Older/equal checkpoints are ignored once stable.
        assert!(t.record_vote(ProcessId(3), &payload, 1).is_none());
    }

    #[test]
    fn divergent_votes_do_not_stabilize() {
        let mut t = CheckpointTracker::new(2);
        let good = CheckpointPayload {
            o: SeqNo(2),
            digest: d(1),
        };
        let bad = CheckpointPayload {
            o: SeqNo(2),
            digest: d(2),
        };
        assert!(t.record_vote(ProcessId(0), &good, 2).is_none());
        assert!(t.record_vote(ProcessId(1), &bad, 2).is_none());
        // A third vote agreeing with `good` stabilizes it.
        assert_eq!(t.record_vote(ProcessId(2), &good, 2), Some(SeqNo(2)));
    }

    #[test]
    fn payload_codec_roundtrip() {
        let p = CheckpointPayload {
            o: SeqNo(64),
            digest: d(7),
        };
        assert_eq!(CheckpointPayload::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn signed_checkpoint_verifies() {
        use sofb_proto::signed::Signed;
        let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 2, 5);
        let p = CheckpointPayload {
            o: SeqNo(8),
            digest: d(3),
        };
        let s = Signed::sign(p, &mut provs[0]);
        assert!(s.verify(&mut provs[1]));
    }
}
