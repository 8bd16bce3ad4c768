//! Harness glue: the CT [`Protocol`] implementation.

use sofb_harness::{Knobs, Protocol};
use sofb_proto::ids::ProcessId;
use sofb_proto::request::Request;
use sofb_sim::engine::Actor;

use sofb_core::events::ScEvent;

use crate::messages::CtMsg;
use crate::process::{CtConfig, CtProcess};

/// CT tolerates crash faults only, so it has no scripted Byzantine
/// misbehaviours — the uniform crash/mute/delay faults are the whole
/// plan. (Uninhabited: a `FaultSpec::Byzantine` cannot be constructed.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtByz {}

/// The crash-tolerant baseline, as hosted by the generic harness.
#[derive(Debug)]
pub struct CtProtocol;

impl Protocol for CtProtocol {
    type Msg = CtMsg;
    type Byz = CtByz;

    const NAME: &'static str = "CT";

    fn node_count(knobs: &Knobs) -> usize {
        2 * knobs.f as usize + 1
    }

    fn build_nodes(
        knobs: &Knobs,
        _byz: &[(ProcessId, CtByz)],
    ) -> Vec<Box<dyn Actor<Msg = CtMsg, Event = ScEvent>>> {
        (0..Self::node_count(knobs))
            .map(|i| {
                let mut cfg = CtConfig::new(knobs.f, i as u32);
                cfg.batching_interval = knobs.batching_interval;
                cfg.batch_max_bytes = knobs.batch_max_bytes;
                Box::new(CtProcess::new(cfg)) as Box<dyn Actor<Msg = CtMsg, Event = ScEvent>>
            })
            .collect()
    }

    fn request_msg(req: Request) -> CtMsg {
        CtMsg::Request(req)
    }
}
