//! # sofb-proto — shared protocol types
//!
//! Types common to the SC/SCR protocols ([`sofb-core`]), the BFT baseline,
//! the CT baseline and the application layer:
//!
//! * [`ids`] — typed identifiers (`ProcessId`, `Rank`, `SeqNo`, `ViewId`);
//! * [`topology`] — the §2 process layout: replicas, shadows, pairs,
//!   coordinator candidates, effective quorums under the dumb-process
//!   optimization;
//! * [`request`] — client requests, request ids, batches and digests;
//! * [`backlog`] — the request pool every replica takes requests through:
//!   store, dedup and batch formation;
//! * [`codec`] — the canonical binary encoding signatures are computed
//!   over;
//! * [`signed`] — singly- and doubly-signed envelopes (§3's endorsement
//!   format).
//!
//! [`sofb-core`]: ../sofb_core/index.html
//!
//! # Examples
//!
//! ```
//! use sofb_proto::topology::{Topology, Variant};
//! use sofb_proto::ids::Rank;
//!
//! let t = Topology::new(2, Variant::Sc);
//! let c1 = t.candidate(Rank::FIRST);
//! assert!(c1.endorser().is_some(), "first candidate is a pair");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backlog;
pub mod codec;
pub mod fasthash;
pub mod ids;
pub mod pool;
pub mod request;
pub mod signed;
pub mod topology;

pub use codec::{CodecError, Decode, Decoder, Encode, Encoder};
pub use ids::{ClientId, ProcessId, Rank, SeqNo, ViewId};
pub use pool::{BufPool, PooledBuf};
pub use request::{BatchRef, Digest, Request, RequestId};
pub use signed::{DoublySigned, Signed};
pub use topology::{Candidate, Topology, Variant};
