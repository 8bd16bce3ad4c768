//! Harness glue: the BFT [`Protocol`] implementation.
//!
//! The client actor, world assembly and fault plan all come from the
//! generic harness (`sofb-harness`), so a BFT deployment is exactly an SC
//! deployment with a different `Protocol` parameter — the
//! apples-to-apples property the paper's §5 comparisons rely on.

use sofb_crypto::provider::Dealer;
use sofb_harness::{Knobs, Protocol};
use sofb_proto::ids::ProcessId;
use sofb_proto::request::Request;
use sofb_sim::engine::Actor;

use sofb_core::events::ScEvent;

use crate::messages::BftMsg;
use crate::process::{BftConfig, BftProcess};

/// Scripted BFT misbehaviours expressible through the uniform
/// [`FaultSpec`](sofb_harness::FaultSpec) plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BftByz {
    /// The replica stops proposing when primary (it still acks and
    /// commits — the classic view-change trigger).
    MutePrimary,
}

/// The Castro–Liskov BFT baseline, as hosted by the generic harness.
#[derive(Debug)]
pub struct BftProtocol;

impl Protocol for BftProtocol {
    type Msg = BftMsg;
    type Byz = BftByz;

    const NAME: &'static str = "BFT";

    fn node_count(knobs: &Knobs) -> usize {
        3 * knobs.f as usize + 1
    }

    fn build_nodes(
        knobs: &Knobs,
        byz: &[(ProcessId, BftByz)],
    ) -> Vec<Box<dyn Actor<Msg = BftMsg, Event = ScEvent>>> {
        let n = Self::node_count(knobs);
        let providers = Dealer::sim(knobs.scheme, n, knobs.seed ^ 0xbf7);
        providers
            .into_iter()
            .enumerate()
            .map(|(i, provider)| {
                let mut cfg = BftConfig::new(knobs.f, i as u32, knobs.scheme);
                cfg.batching_interval = knobs.batching_interval;
                cfg.batch_max_bytes = knobs.batch_max_bytes;
                cfg.request_timeout = knobs.request_timeout;
                cfg.mute_primary = byz
                    .iter()
                    .any(|(p, b)| p.0 as usize == i && *b == BftByz::MutePrimary);
                Box::new(BftProcess::new(cfg, Box::new(provider)))
                    as Box<dyn Actor<Msg = BftMsg, Event = ScEvent>>
            })
            .collect()
    }

    fn request_msg(req: Request) -> BftMsg {
        BftMsg::Request(req)
    }
}
