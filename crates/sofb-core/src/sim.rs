//! Harness glue: the SC/SCR [`Protocol`] implementation.
//!
//! Deployment assembly itself — clients, network, fault scheduling — is
//! the generic [`sofb_harness::WorldBuilder`]; this module contributes
//! only what is SC-specific: the paper's testbed shape (a LAN everywhere
//! plus fast dedicated intra-pair links, §2), the trusted dealer's
//! pre-signed fail-signals (§3.2), and per-process `ScConfig` synthesis.

use sofb_crypto::provider::{CryptoProvider, Dealer};
use sofb_harness::{Knobs, Links, Protocol};
use sofb_proto::ids::{ProcessId, Rank};
use sofb_proto::signed::Signed;
use sofb_proto::topology::{Candidate, Topology};
use sofb_sim::delay::NetworkModel;
use sofb_sim::engine::Actor;

use crate::config::{Fault, ScConfig};
use crate::events::ScEvent;
use crate::messages::{FailSignalPayload, ScMsg};
use crate::process::ScProcess;

/// The SC/SCR protocol, as hosted by the generic harness.
///
/// `Knobs::variant` selects between the SC (`n = 3f+1`) and SCR
/// (`n = 3f+2`) layouts; scripted Byzantine misbehaviours are the
/// protocol's [`Fault`] scripts.
#[derive(Debug)]
pub struct ScProtocol;

impl Protocol for ScProtocol {
    type Msg = ScMsg;
    type Byz = Fault;

    const NAME: &'static str = "SC";

    fn node_count(knobs: &Knobs) -> usize {
        Topology::new(knobs.f, knobs.variant).n()
    }

    fn network(knobs: &Knobs, links: &Links) -> NetworkModel {
        // LAN everywhere, fast dedicated links within pairs.
        let topology = Topology::new(knobs.f, knobs.variant);
        let mut net = NetworkModel::uniform(links.lan.clone());
        for c in 1..=topology.candidate_count() {
            if let Candidate::Pair { replica, shadow } = topology.candidate(Rank(c)) {
                net = net.with_bidi_link(replica.0 as usize, shadow.0 as usize, links.pair.clone());
            }
        }
        net
    }

    fn build_nodes(
        knobs: &Knobs,
        byz: &[(ProcessId, Fault)],
    ) -> Vec<Box<dyn Actor<Msg = ScMsg, Event = ScEvent>>> {
        let topology = Topology::new(knobs.f, knobs.variant);
        let n = topology.n();

        // The trusted dealer hands out providers; counterparts pre-sign
        // each other's fail-signals (§3.2).
        let mut providers = Dealer::sim(knobs.scheme, n, knobs.seed ^ 0x5107);
        let mut presigned: Vec<Option<Signed<FailSignalPayload>>> = vec![None; n];
        for c in 1..=topology.candidate_count() {
            if let Candidate::Pair { replica, shadow } = topology.candidate(Rank(c)) {
                let payload = FailSignalPayload { pair: Rank(c) };
                presigned[replica.0 as usize] = Some(Signed::sign(
                    payload.clone(),
                    &mut providers[shadow.0 as usize],
                ));
                presigned[shadow.0 as usize] =
                    Some(Signed::sign(payload, &mut providers[replica.0 as usize]));
                // Pre-signing must not bill the simulation clock.
                providers[replica.0 as usize].take_cost_ns();
                providers[shadow.0 as usize].take_cost_ns();
            }
        }

        providers
            .into_iter()
            .enumerate()
            .map(|(i, provider)| {
                let me = ProcessId(i as u32);
                let fault = byz
                    .iter()
                    .find(|(p, _)| *p == me)
                    .map(|(_, f)| f.clone())
                    .unwrap_or_default();
                let cfg = ScConfig {
                    topology,
                    me,
                    scheme: knobs.scheme,
                    batching_interval: knobs.batching_interval,
                    batch_max_bytes: knobs.batch_max_bytes,
                    order_timeout: knobs.order_timeout,
                    heartbeat_period: knobs.heartbeat_period,
                    heartbeat_misses: knobs.heartbeat_misses,
                    recovery_beats: knobs.recovery_beats,
                    checkpoint_interval: knobs.checkpoint_interval,
                    backlog_pad: knobs.backlog_pad,
                    time_checks: knobs.time_checks,
                    fault,
                };
                let process = ScProcess::new(cfg, Box::new(provider), presigned[i].take());
                Box::new(process) as Box<dyn Actor<Msg = ScMsg, Event = ScEvent>>
            })
            .collect()
    }

    fn request_msg(req: sofb_proto::request::Request) -> ScMsg {
        ScMsg::Request(req)
    }

    fn value_fault(o: sofb_proto::ids::SeqNo) -> Option<Fault> {
        // The Figure-6 trigger: the coordinator corrupts the order
        // carrying sequence `o`, and its shadow fail-signals on the
        // value-domain check. This is what lets declarative scenarios
        // express the fail-over sweeps.
        Some(Fault::CorruptOrderAt(o))
    }
}
