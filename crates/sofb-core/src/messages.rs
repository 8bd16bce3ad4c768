//! Wire messages of the SC/SCR order protocols.
//!
//! Message taxonomy (paper sections in parentheses):
//!
//! * [`OrderPayload`] — `order<c, o, D(m)>` (§4), batched (§4.3);
//! * [`AckPayload`] — the N1 ack, carrying the order it acknowledges;
//! * [`FailSignalPayload`] — the pre-supplied fail-signal (§3.2);
//! * [`BackLogPayload`] / [`StartPayload`] / [`StartSigPayload`] — the
//!   install part IN1–IN5 (§4.2);
//! * [`HeartbeatPayload`] — intra-pair timeliness checking (§3.1, §4.4);
//! * [`ViewChangePayload`] / [`UnwillingPayload`] — the SCR extension
//!   (§4.4).
//!
//! Every payload has a canonical encoding ([`Encode`]) so signatures are
//! reproducible, and the top-level [`ScMsg`] reports its encoded length as
//! its simulated wire size.

use sofb_proto::codec::{CodecError, Decode, Decoder, Encode, Encoder};
use sofb_proto::ids::{ProcessId, Rank, SeqNo, ViewId};
use sofb_proto::request::{BatchRef, Digest, Request, RequestId};
use sofb_proto::signed::{DoublySigned, Signed};
use sofb_sim::engine::WireSize;

use crate::checkpoint::CheckpointPayload;

/// An order decision `order<c, o, D(m)>`, extended with the member request
/// ids (batching, §4.3) and the batch-formation timestamp (the latency
/// measurement origin, §5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderPayload {
    /// Coordinator candidate rank that issued the order.
    pub c: Rank,
    /// The assigned sequence number.
    pub o: SeqNo,
    /// The ordered batch (request ids + digest).
    pub batch: BatchRef,
    /// Virtual time at which the coordinator formed the batch
    /// (nanoseconds; measurement metadata, included under the signature).
    pub formed_at_ns: u64,
}

impl Encode for OrderPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(b'O');
        self.c.encode(enc);
        self.o.encode(enc);
        self.batch.encode(enc);
        enc.put_u64(self.formed_at_ns);
    }
}

impl Decode for OrderPayload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        expect_tag(dec, b'O')?;
        Ok(OrderPayload {
            c: Rank::decode(dec)?,
            o: SeqNo::decode(dec)?,
            batch: BatchRef::decode(dec)?,
            formed_at_ns: dec.get_u64()?,
        })
    }
}

/// An order as it travels: endorsed by a pair, or solo-signed by the
/// unpaired `(f+1)`-th candidate (SC only; trusted by SC2 exhaustion).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderMsg {
    /// Doubly-signed by the coordinator pair.
    Endorsed(DoublySigned<OrderPayload>),
    /// Singly-signed by the final unpaired candidate.
    Solo(Signed<OrderPayload>),
}

impl OrderMsg {
    /// The order content.
    pub fn payload(&self) -> &OrderPayload {
        match self {
            OrderMsg::Endorsed(d) => &d.payload,
            OrderMsg::Solo(s) => &s.payload,
        }
    }

    /// The processes whose signatures the message carries: the pair's
    /// two signers in signing order, or the one solo signer.
    pub fn signatories(&self) -> impl Iterator<Item = ProcessId> {
        let (first, second) = match self {
            OrderMsg::Endorsed(d) => (d.first, Some(d.second)),
            OrderMsg::Solo(s) => (s.signer, None),
        };
        std::iter::once(first).chain(second)
    }
}

impl Encode for OrderMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            OrderMsg::Endorsed(d) => {
                enc.put_u8(0);
                d.encode(enc);
            }
            OrderMsg::Solo(s) => {
                enc.put_u8(1);
                s.encode(enc);
            }
        }
    }
}

impl Decode for OrderMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(OrderMsg::Endorsed(DoublySigned::decode(dec)?)),
            1 => Ok(OrderMsg::Solo(Signed::decode(dec)?)),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
}

/// The N1 acknowledgement; per the paper it "also contains the received
/// order" so that an ack can stand in for the order at lagging processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AckPayload {
    /// The acknowledged order.
    pub order: OrderMsg,
}

impl AckPayload {
    /// The acknowledged sequence number.
    pub fn o(&self) -> SeqNo {
        self.order.payload().o
    }

    /// The acknowledged batch digest.
    pub fn digest(&self) -> &Digest {
        &self.order.payload().batch.digest
    }
}

impl Encode for AckPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(b'A');
        self.order.encode(enc);
    }
}

impl Decode for AckPayload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        expect_tag(dec, b'A')?;
        Ok(AckPayload {
            order: OrderMsg::decode(dec)?,
        })
    }
}

/// The fail-signal content each paired process is supplied with at
/// initialization, signed by its counterpart (§3.2). The detector
/// double-signs it on emission, so the doubly-signed fail-signal proves one
/// member of the pair judged the pair broken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailSignalPayload {
    /// The candidate rank of the pair that is fail-signalling.
    pub pair: Rank,
}

impl Encode for FailSignalPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(b'F');
        self.pair.encode(enc);
    }
}

impl Decode for FailSignalPayload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        expect_tag(dec, b'F')?;
        Ok(FailSignalPayload {
            pair: Rank::decode(dec)?,
        })
    }
}

/// A doubly-signed fail-signal.
pub type FailSignalMsg = DoublySigned<FailSignalPayload>;

/// Commitment proof: the `n−f` distinct acks/orders retained at N3.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CommitProof {
    /// The retained acks (order signatories may substitute for acks).
    pub acks: Vec<Signed<AckPayload>>,
}

impl Encode for CommitProof {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_seq(&self.acks);
    }
}

impl Decode for CommitProof {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(CommitProof {
            acks: dec.get_seq()?,
        })
    }
}

/// The IN1 BackLog: the triggering fail-signal, the sender's maximum
/// committed order with proof, and its acked-but-uncommitted orders.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackLogPayload {
    /// The rank being installed (after IN1's increment).
    pub new_c: Rank,
    /// The fail-signal that triggered the installation.
    pub fail_signal: FailSignalMsg,
    /// The committed order with the largest sequence number, with proof.
    pub max_committed: Option<(OrderMsg, CommitProof)>,
    /// Acked but uncommitted orders.
    pub uncommitted: Vec<OrderMsg>,
    /// Experiment knob: padding to sweep BackLog size (Figure 6).
    pub pad: Vec<u8>,
}

impl Encode for BackLogPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(b'B');
        self.new_c.encode(enc);
        self.fail_signal.encode(enc);
        match &self.max_committed {
            None => enc.put_u8(0),
            Some((order, proof)) => {
                enc.put_u8(1);
                order.encode(enc);
                proof.encode(enc);
            }
        }
        enc.put_seq(&self.uncommitted);
        enc.put_bytes(&self.pad);
    }
}

impl Decode for BackLogPayload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        expect_tag(dec, b'B')?;
        let new_c = Rank::decode(dec)?;
        let fail_signal = FailSignalMsg::decode(dec)?;
        let max_committed = match dec.get_u8()? {
            0 => None,
            1 => Some((OrderMsg::decode(dec)?, CommitProof::decode(dec)?)),
            d => return Err(CodecError::BadDiscriminant(d)),
        };
        let uncommitted = dec.get_seq()?;
        let pad = dec.get_bytes()?;
        Ok(BackLogPayload {
            new_c,
            fail_signal,
            max_committed,
            uncommitted,
            pad,
        })
    }
}

/// The IN2 Start message content: the new coordinator's `NewBackLog` and
/// the sequence number `start_o` the Start itself is committed under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StartPayload {
    /// The installing rank.
    pub c: Rank,
    /// Sequence number of the Start message itself.
    pub start_o: SeqNo,
    /// Orders carried over (max-committed order first if any, then
    /// uncommitted orders above it).
    pub new_backlog: Vec<OrderMsg>,
}

impl Encode for StartPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(b'S');
        self.c.encode(enc);
        self.start_o.encode(enc);
        enc.put_seq(&self.new_backlog);
    }
}

impl Decode for StartPayload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        expect_tag(dec, b'S')?;
        Ok(StartPayload {
            c: Rank::decode(dec)?,
            start_o: SeqNo::decode(dec)?,
            new_backlog: dec.get_seq()?,
        })
    }
}

/// A Start as it travels (endorsed by the new pair, or solo from the
/// unpaired final candidate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StartMsg {
    /// Doubly-signed by the installing pair.
    Endorsed(DoublySigned<StartPayload>),
    /// Singly-signed by the unpaired final candidate.
    Solo(Signed<StartPayload>),
}

impl StartMsg {
    /// The start content.
    pub fn payload(&self) -> &StartPayload {
        match self {
            StartMsg::Endorsed(d) => &d.payload,
            StartMsg::Solo(s) => &s.payload,
        }
    }
}

impl Encode for StartMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            StartMsg::Endorsed(d) => {
                enc.put_u8(0);
                d.encode(enc);
            }
            StartMsg::Solo(s) => {
                enc.put_u8(1);
                s.encode(enc);
            }
        }
    }
}

impl Decode for StartMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(StartMsg::Endorsed(DoublySigned::decode(dec)?)),
            1 => Ok(StartMsg::Solo(Signed::decode(dec)?)),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
}

/// The IN3 identifier-signature tuple: a process's signature over the
/// Start it accepted, addressed to the installing pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StartSigPayload {
    /// The installing rank.
    pub c: Rank,
    /// Digest of the Start's canonical encoding.
    pub start_digest: Digest,
}

impl Encode for StartSigPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(b'T');
        self.c.encode(enc);
        self.start_digest.encode(enc);
    }
}

impl Decode for StartSigPayload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        expect_tag(dec, b'T')?;
        Ok(StartSigPayload {
            c: Rank::decode(dec)?,
            start_digest: Digest::decode(dec)?,
        })
    }
}

/// Intra-pair heartbeat for timeliness checking (and SCR recovery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeartbeatPayload {
    /// The pair's candidate rank.
    pub pair: Rank,
    /// Monotone heartbeat counter.
    pub seq: u64,
}

impl Encode for HeartbeatPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(b'H');
        self.pair.encode(enc);
        enc.put_u64(self.seq);
    }
}

impl Decode for HeartbeatPayload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        expect_tag(dec, b'H')?;
        Ok(HeartbeatPayload {
            pair: Rank::decode(dec)?,
            seq: dec.get_u64()?,
        })
    }
}

/// SCR view-change vote: the proposed view plus the voter's backlog
/// (§4.4 reuses "the view-change part of BFT" with the SC backlog
/// contents standing in for BFT's P sets).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewChangePayload {
    /// The proposed view.
    pub v: ViewId,
    /// The voter's backlog (max committed + uncommitted orders).
    pub backlog: BackLogPayload,
}

impl Encode for ViewChangePayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(b'V');
        self.v.encode(enc);
        self.backlog.encode(enc);
    }
}

impl Decode for ViewChangePayload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        expect_tag(dec, b'V')?;
        Ok(ViewChangePayload {
            v: ViewId::decode(dec)?,
            backlog: BackLogPayload::decode(dec)?,
        })
    }
}

/// SCR `Unwilling(v)`: the candidate pair for view `v` declines (its pair
/// status is not `up`), attaching its fail-signal as evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnwillingPayload {
    /// The declined view.
    pub v: ViewId,
    /// The pair's fail-signal.
    pub fail_signal: FailSignalMsg,
}

impl Encode for UnwillingPayload {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(b'U');
        self.v.encode(enc);
        self.fail_signal.encode(enc);
    }
}

impl Decode for UnwillingPayload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        expect_tag(dec, b'U')?;
        Ok(UnwillingPayload {
            v: ViewId::decode(dec)?,
            fail_signal: FailSignalMsg::decode(dec)?,
        })
    }
}

/// The complete SC/SCR message set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScMsg {
    /// A client request (clients multicast to all processes).
    Request(Request),
    /// Coordinator replica → its shadow: proposed order (1-signed).
    OrderProposal(Signed<OrderPayload>),
    /// Endorsed (or solo) order, multicast to all.
    Order(OrderMsg),
    /// N1 ack.
    Ack(Signed<AckPayload>),
    /// Doubly-signed fail-signal (also used as the echo).
    FailSignal(FailSignalMsg),
    /// IN1 backlog.
    BackLog(Signed<BackLogPayload>),
    /// IN2: new coordinator replica → its shadow, with the backlogs used.
    StartProposal {
        /// The 1-signed Start.
        start: Signed<StartPayload>,
        /// The `n−f` backlogs the Start was computed from.
        backlogs: Vec<Signed<BackLogPayload>>,
    },
    /// IN2 output: endorsed (or solo) Start, multicast to all.
    Start(StartMsg),
    /// IN3 identifier-signature tuple, sent to the installing pair.
    StartSig(Signed<StartSigPayload>),
    /// IN4: the installing pair's multicast of `f−1` collected tuples.
    StartCert {
        /// The installing rank.
        c: Rank,
        /// The collected tuples.
        tuples: Vec<Signed<StartSigPayload>>,
    },
    /// Intra-pair heartbeat.
    Heartbeat(Signed<HeartbeatPayload>),
    /// SCR view-change vote.
    ViewChange(Signed<ViewChangePayload>),
    /// SCR unwilling-candidate notice (also used as the echo).
    Unwilling(Signed<UnwillingPayload>),
    /// State transfer: ask for committed orders from `from` upward.
    FetchCommitted {
        /// First sequence number wanted.
        from: SeqNo,
    },
    /// State transfer reply: a committed order.
    CommittedOrder(OrderMsg),
    /// Checkpoint vote (log truncation; see [`crate::checkpoint`]).
    Checkpoint(Signed<CheckpointPayload>),
}

impl Encode for ScMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ScMsg::Request(r) => {
                enc.put_u8(0);
                r.encode(enc);
            }
            ScMsg::OrderProposal(s) => {
                enc.put_u8(1);
                s.encode(enc);
            }
            ScMsg::Order(o) => {
                enc.put_u8(2);
                o.encode(enc);
            }
            ScMsg::Ack(a) => {
                enc.put_u8(3);
                a.encode(enc);
            }
            ScMsg::FailSignal(f) => {
                enc.put_u8(4);
                f.encode(enc);
            }
            ScMsg::BackLog(b) => {
                enc.put_u8(5);
                b.encode(enc);
            }
            ScMsg::StartProposal { start, backlogs } => {
                enc.put_u8(6);
                start.encode(enc);
                enc.put_seq(backlogs);
            }
            ScMsg::Start(s) => {
                enc.put_u8(7);
                s.encode(enc);
            }
            ScMsg::StartSig(s) => {
                enc.put_u8(8);
                s.encode(enc);
            }
            ScMsg::StartCert { c, tuples } => {
                enc.put_u8(9);
                c.encode(enc);
                enc.put_seq(tuples);
            }
            ScMsg::Heartbeat(h) => {
                enc.put_u8(10);
                h.encode(enc);
            }
            ScMsg::ViewChange(v) => {
                enc.put_u8(11);
                v.encode(enc);
            }
            ScMsg::Unwilling(u) => {
                enc.put_u8(12);
                u.encode(enc);
            }
            ScMsg::FetchCommitted { from } => {
                enc.put_u8(13);
                from.encode(enc);
            }
            ScMsg::CommittedOrder(o) => {
                enc.put_u8(14);
                o.encode(enc);
            }
            ScMsg::Checkpoint(c) => {
                enc.put_u8(15);
                c.encode(enc);
            }
        }
    }
}

impl Decode for ScMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(match dec.get_u8()? {
            0 => ScMsg::Request(Request::decode(dec)?),
            1 => ScMsg::OrderProposal(Signed::decode(dec)?),
            2 => ScMsg::Order(OrderMsg::decode(dec)?),
            3 => ScMsg::Ack(Signed::decode(dec)?),
            4 => ScMsg::FailSignal(FailSignalMsg::decode(dec)?),
            5 => ScMsg::BackLog(Signed::decode(dec)?),
            6 => ScMsg::StartProposal {
                start: Signed::decode(dec)?,
                backlogs: dec.get_seq()?,
            },
            7 => ScMsg::Start(StartMsg::decode(dec)?),
            8 => ScMsg::StartSig(Signed::decode(dec)?),
            9 => ScMsg::StartCert {
                c: Rank::decode(dec)?,
                tuples: dec.get_seq()?,
            },
            10 => ScMsg::Heartbeat(Signed::decode(dec)?),
            11 => ScMsg::ViewChange(Signed::decode(dec)?),
            12 => ScMsg::Unwilling(Signed::decode(dec)?),
            13 => ScMsg::FetchCommitted {
                from: SeqNo::decode(dec)?,
            },
            14 => ScMsg::CommittedOrder(OrderMsg::decode(dec)?),
            15 => ScMsg::Checkpoint(Signed::decode(dec)?),
            d => return Err(CodecError::BadDiscriminant(d)),
        })
    }
}

impl WireSize for ScMsg {
    fn wire_len(&self) -> usize {
        // Canonical encoding length plus a small transport header.
        self.encoded_len() + 28
    }
}

/// Convenience constructor for the batch reference used by orders.
pub fn make_batch_ref(requests: &[&Request], digest: Digest) -> BatchRef {
    BatchRef {
        requests: requests.iter().map(|r| r.id).collect(),
        digest,
    }
}

/// Looks up the member requests of a batch in a request store, if all are
/// present.
pub fn resolve_batch<'a>(
    batch: &BatchRef,
    store: &'a std::collections::HashMap<RequestId, Request>,
) -> Option<Vec<&'a Request>> {
    batch.requests.iter().map(|id| store.get(id)).collect()
}

fn expect_tag(dec: &mut Decoder<'_>, tag: u8) -> Result<(), CodecError> {
    let got = dec.get_u8()?;
    if got != tag {
        return Err(CodecError::BadDiscriminant(got));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofb_crypto::provider::Dealer;
    use sofb_crypto::scheme::SchemeId;
    use sofb_proto::ids::ClientId;

    fn sample_order_payload() -> OrderPayload {
        OrderPayload {
            c: Rank(1),
            o: SeqNo(5),
            batch: BatchRef {
                requests: vec![RequestId {
                    client: ClientId(1),
                    seq: 1,
                }]
                .into(),
                digest: Digest::new(&[1, 2, 3, 4]),
            },
            formed_at_ns: 123_456,
        }
    }

    #[test]
    fn order_payload_roundtrip() {
        let p = sample_order_payload();
        assert_eq!(OrderPayload::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn all_message_variants_roundtrip() {
        let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 4, 9);
        let op = sample_order_payload();
        let signed_order = Signed::sign(op.clone(), &mut provs[0]);
        let endorsed = DoublySigned::endorse(signed_order.clone(), &mut provs[1]);
        let order = OrderMsg::Endorsed(endorsed.clone());
        let fs_inner = Signed::sign(FailSignalPayload { pair: Rank(1) }, &mut provs[1]);
        let fs = DoublySigned::endorse(fs_inner, &mut provs[0]);
        let backlog = BackLogPayload {
            new_c: Rank(2),
            fail_signal: fs.clone(),
            max_committed: Some((order.clone(), CommitProof::default())),
            uncommitted: vec![order.clone()],
            pad: vec![0; 64],
        };
        let start = StartPayload {
            c: Rank(2),
            start_o: SeqNo(6),
            new_backlog: vec![order.clone()],
        };

        let msgs = vec![
            ScMsg::Request(Request::new(ClientId(1), 1, &b"x"[..])),
            ScMsg::OrderProposal(signed_order.clone()),
            ScMsg::Order(order.clone()),
            ScMsg::Ack(Signed::sign(
                AckPayload {
                    order: order.clone(),
                },
                &mut provs[2],
            )),
            ScMsg::FailSignal(fs.clone()),
            ScMsg::BackLog(Signed::sign(backlog.clone(), &mut provs[2])),
            ScMsg::StartProposal {
                start: Signed::sign(start.clone(), &mut provs[1]),
                backlogs: vec![Signed::sign(backlog.clone(), &mut provs[3])],
            },
            ScMsg::Start(StartMsg::Endorsed(DoublySigned::endorse(
                Signed::sign(start.clone(), &mut provs[1]),
                &mut provs[0],
            ))),
            ScMsg::StartSig(Signed::sign(
                StartSigPayload {
                    c: Rank(2),
                    start_digest: Digest::new(&[9]),
                },
                &mut provs[3],
            )),
            ScMsg::StartCert {
                c: Rank(2),
                tuples: vec![],
            },
            ScMsg::Heartbeat(Signed::sign(
                HeartbeatPayload {
                    pair: Rank(1),
                    seq: 3,
                },
                &mut provs[0],
            )),
            ScMsg::ViewChange(Signed::sign(
                ViewChangePayload {
                    v: ViewId(2),
                    backlog: backlog.clone(),
                },
                &mut provs[2],
            )),
            ScMsg::Unwilling(Signed::sign(
                UnwillingPayload {
                    v: ViewId(2),
                    fail_signal: fs,
                },
                &mut provs[1],
            )),
            ScMsg::FetchCommitted { from: SeqNo(3) },
            ScMsg::CommittedOrder(order),
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(ScMsg::from_bytes(&bytes).unwrap(), m, "{m:?}");
            assert_eq!(m.wire_len(), bytes.len() + 28);
        }
    }

    #[test]
    fn ack_payload_accessors() {
        let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 2, 9);
        let signed = Signed::sign(sample_order_payload(), &mut provs[0]);
        let order = OrderMsg::Endorsed(DoublySigned::endorse(signed, &mut provs[1]));
        let ack = AckPayload { order };
        assert_eq!(ack.o(), SeqNo(5));
        assert_eq!(ack.digest().as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn order_msg_signatories() {
        let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 2, 9);
        let signed = Signed::sign(sample_order_payload(), &mut provs[0]);
        let solo = OrderMsg::Solo(signed.clone());
        assert_eq!(solo.signatories().collect::<Vec<_>>(), vec![ProcessId(0)]);
        let endorsed = OrderMsg::Endorsed(DoublySigned::endorse(signed, &mut provs[1]));
        assert_eq!(
            endorsed.signatories().collect::<Vec<_>>(),
            vec![ProcessId(0), ProcessId(1)]
        );
    }

    #[test]
    fn backlog_pad_inflates_size() {
        let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 2, 9);
        let fs_inner = Signed::sign(FailSignalPayload { pair: Rank(1) }, &mut provs[1]);
        let fs = DoublySigned::endorse(fs_inner, &mut provs[0]);
        let small = BackLogPayload {
            new_c: Rank(2),
            fail_signal: fs.clone(),
            max_committed: None,
            uncommitted: vec![],
            pad: vec![],
        };
        let big = BackLogPayload {
            pad: vec![0; 4096],
            ..small.clone()
        };
        assert_eq!(big.encoded_len(), small.encoded_len() + 4096);
    }

    #[test]
    fn corrupted_buffer_rejected() {
        let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 2, 9);
        let m = ScMsg::OrderProposal(Signed::sign(sample_order_payload(), &mut provs[0]));
        let mut bytes = m.to_bytes();
        bytes[0] = 200; // bogus discriminant
        assert!(ScMsg::from_bytes(&bytes).is_err());
    }
}
