//! Message-size guard: the simulator keeps every in-flight message by
//! value in its event arena, so the size of each protocol's message enum
//! multiplies into the resident memory of an overloaded world.
//!
//! Measured on a prototype that made `PooledBuf` (every signature and
//! MAC tag) a fat `Arc<[u8]>` instead of a thin 8-byte pointer: `ScMsg`
//! grew from 240 to 280 bytes, and the benchmark's 2-shard
//! `sim_sharded` world, whose collapsed shard queues millions of
//! messages, rose from 1 276 to 1 450 MB peak RSS (+14 %, against the
//! benchmark's 15 % bound); a one-worker copy of that spec under
//! `sofb run` rose from 672 to 767 MB. A buffer type that replaces
//! `PooledBuf` must stay one pointer wide, and a message change that
//! grows an enum past its bound must say what it costs in RSS.

use std::mem::size_of;

use sofbyz::bft::messages::BftMsg;
use sofbyz::core::messages::ScMsg;
use sofbyz::ct::messages::CtMsg;
use sofbyz::proto::pool::PooledBuf;

#[test]
fn message_enums_stay_within_their_measured_sizes() {
    assert_eq!(size_of::<PooledBuf>(), 8, "PooledBuf must stay one pointer");
    let sizes = [
        ("ScMsg", size_of::<ScMsg>(), 240),
        ("BftMsg", size_of::<BftMsg>(), 104),
        ("CtMsg", size_of::<CtMsg>(), 80),
    ];
    for (name, size, bound) in sizes {
        assert!(
            size <= bound,
            "{name} is {size} B, above its {bound} B bound"
        );
    }
}
