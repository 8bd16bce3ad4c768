//! Client requests, batches and digests.

use std::sync::Arc;

use bytes::Bytes;

use crate::codec::{CodecError, Decode, Decoder, Encode, Encoder};
use crate::ids::ClientId;

/// Longest digest any supported scheme produces (SHA-256).
pub const MAX_DIGEST_LEN: usize = 32;

/// A message digest (algorithm chosen by the deployment's scheme).
///
/// Stored inline — digests are at most [`MAX_DIGEST_LEN`] bytes, and
/// order messages carrying them are cloned once per multicast hop, so an
/// inline copy beats a heap buffer on the simulator's hottest path.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest {
    len: u8,
    bytes: [u8; MAX_DIGEST_LEN],
}

impl Digest {
    /// Wraps raw digest bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`MAX_DIGEST_LEN`] — no supported
    /// digest algorithm produces more than 32 bytes.
    pub fn new(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= MAX_DIGEST_LEN, "digest too long");
        let mut d = Digest {
            len: bytes.len() as u8,
            bytes: [0; MAX_DIGEST_LEN],
        };
        d.bytes[..bytes.len()].copy_from_slice(bytes);
        d
    }

    /// An empty digest (placeholder before computation).
    pub fn empty() -> Self {
        Digest::default()
    }

    /// The digest bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Short hex rendering for logs.
    pub fn short_hex(&self) -> String {
        self.as_slice()
            .iter()
            .take(6)
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

impl From<Vec<u8>> for Digest {
    fn from(bytes: Vec<u8>) -> Self {
        Digest::new(&bytes)
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", self.short_hex())
    }
}

impl Encode for Digest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.as_slice());
    }
}

impl Decode for Digest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let bytes = dec.get_bytes()?;
        if bytes.len() > MAX_DIGEST_LEN {
            return Err(CodecError::LengthOverflow);
        }
        Ok(Digest::new(&bytes))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "D({})", self.short_hex())
    }
}

/// A unique request identifier: issuing client plus client-local sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId {
    /// The issuing client.
    pub client: ClientId,
    /// Client-local sequence number.
    pub seq: u64,
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

impl Encode for RequestId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.client.0);
        enc.put_u64(self.seq);
    }
}

impl Decode for RequestId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let client = ClientId(dec.get_u32()?);
        let seq = dec.get_u64()?;
        Ok(RequestId { client, seq })
    }
}

/// A client request (`m` in the paper). Clients "direct their requests to
/// all nodes" (§3), so the order messages carry only `D(m)` and request
/// ids, never the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Operation payload (opaque to the ordering layer).
    pub payload: Bytes,
}

impl Request {
    /// Creates a request.
    pub fn new(client: ClientId, seq: u64, payload: impl Into<Bytes>) -> Self {
        Request {
            id: RequestId { client, seq },
            payload: payload.into(),
        }
    }
}

impl Encode for Request {
    fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        enc.put_bytes(&self.payload);
    }
}

impl Decode for Request {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let id = RequestId::decode(dec)?;
        let payload = Bytes::from(dec.get_bytes()?);
        Ok(Request { id, payload })
    }
}

/// An ordered batch reference: the request ids a coordinator grouped into
/// one sequence number, plus the digest binding their contents.
///
/// The digest is computed over the concatenated canonical encodings of the
/// member requests, in id order as listed.
///
/// The member list is shared (`Arc`): order and ack messages embed the
/// batch reference and are cloned once per multicast hop, so the clone
/// must be a reference-count bump, not a copy of a hundred request ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchRef {
    /// Member request ids, in coordinator order.
    pub requests: Arc<[RequestId]>,
    /// Digest over the members' canonical encodings.
    pub digest: Digest,
}

impl BatchRef {
    /// Builds the byte string the batch digest is computed over, in one
    /// allocation of exactly its length.
    pub fn digest_input(requests: &[&Request]) -> Vec<u8> {
        let len = 4 + requests.iter().map(|r| r.encoded_len()).sum::<usize>();
        let mut enc = Encoder::reuse(Vec::with_capacity(len));
        enc.put_u32(requests.len() as u32);
        for r in requests {
            r.encode(&mut enc);
        }
        enc.into_bytes()
    }

    /// Number of member requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the batch has no members.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

impl Encode for BatchRef {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_seq(&self.requests);
        self.digest.encode(enc);
    }
}

impl Decode for BatchRef {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let requests = dec.get_seq::<RequestId>()?.into();
        let digest = Digest::decode(dec)?;
        Ok(BatchRef { requests, digest })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = Request::new(ClientId(3), 17, &b"set x=1"[..]);
        let bytes = r.to_bytes();
        assert_eq!(Request::from_bytes(&bytes).unwrap(), r);
    }

    #[test]
    fn request_id_ordering() {
        let a = RequestId {
            client: ClientId(1),
            seq: 5,
        };
        let b = RequestId {
            client: ClientId(1),
            seq: 6,
        };
        let c = RequestId {
            client: ClientId(2),
            seq: 0,
        };
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "cl1#5");
    }

    #[test]
    fn batch_digest_input_is_canonical() {
        let r1 = Request::new(ClientId(1), 1, &b"a"[..]);
        let r2 = Request::new(ClientId(1), 2, &b"b"[..]);
        let fwd = BatchRef::digest_input(&[&r1, &r2]);
        let rev = BatchRef::digest_input(&[&r2, &r1]);
        assert_ne!(fwd, rev, "order must be significant");
        assert_eq!(fwd, BatchRef::digest_input(&[&r1, &r2]));
    }

    #[test]
    fn batch_digest_input_is_sized_exactly() {
        let r1 = Request::new(ClientId(1), 1, &b"a"[..]);
        let r2 = Request::new(ClientId(2), 7, &[0xab; 10][..]);
        let input = BatchRef::digest_input(&[&r1, &r2]);
        // The count, then each request's canonical encoding.
        let mut expected = 2u32.to_le_bytes().to_vec();
        expected.extend(r1.to_bytes());
        expected.extend(r2.to_bytes());
        assert_eq!(input, expected);
        assert_eq!(input.capacity(), input.len());
    }

    #[test]
    fn batch_ref_roundtrip() {
        let b = BatchRef {
            requests: vec![
                RequestId {
                    client: ClientId(1),
                    seq: 1,
                },
                RequestId {
                    client: ClientId(2),
                    seq: 9,
                },
            ]
            .into(),
            digest: Digest::new(&[1, 2, 3]),
        };
        assert_eq!(BatchRef::from_bytes(&b.to_bytes()).unwrap(), b);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn digest_display() {
        let d = Digest::new(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03]);
        assert_eq!(d.to_string(), "D(deadbeef0102)");
        assert_eq!(Digest::empty().to_string(), "D()");
    }
}
