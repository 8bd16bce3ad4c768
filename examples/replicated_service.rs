//! The high-level service API: a replicated key-value store where you
//! submit operations and collect totally-ordered replies — the paper's §2
//! state-machine-replication story, end to end, including a Byzantine
//! fail-over in the middle of the workload.
//!
//! ```sh
//! cargo run --release --example replicated_service
//! ```

use sofbyz::app::kv::{KvOp, KvStore};
use sofbyz::core::sim::ScProtocol;
use sofbyz::harness::{FaultSpec, Protocol, WorldBuilder};
use sofbyz::proto::codec::Encode;
use sofbyz::proto::ids::{ProcessId, SeqNo};
use sofbyz::service::ReplicatedService;
use sofbyz::sim::time::SimDuration;

fn main() {
    // f = 2 SC deployment whose rank-1 coordinator will corrupt its 4th
    // batch; the service layer never notices beyond a latency blip.
    // (Swap `ScProtocol` for `BftProtocol`/`CtProtocol` — the façade is
    // generic over the variant.)
    let fault = ScProtocol::value_fault(SeqNo(4)).expect("SC scripts value faults");
    let builder = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(50))
        .fault(ProcessId(0), FaultSpec::Byzantine(fault))
        .seed(11);
    let mut bank = ReplicatedService::new(builder, KvStore::new);

    // Open three accounts, then transfer between them.
    for (acct, amount) in [("alice", "100"), ("bob", "50"), ("carol", "0")] {
        bank.submit(
            KvOp::Put {
                key: acct.into(),
                value: amount.into(),
            }
            .to_bytes(),
        );
        bank.run_for(SimDuration::from_ms(60));
    }
    // A compare-and-swap models a guarded transfer.
    let cas = bank.submit(
        KvOp::Cas {
            key: "alice".into(),
            expect: "100".into(),
            new: "70".into(),
        }
        .to_bytes(),
    );
    bank.run_for(SimDuration::from_ms(60));
    let credit = bank.submit(
        KvOp::Put {
            key: "carol".into(),
            value: "30".into(),
        }
        .to_bytes(),
    );

    // Keep the workload going through the injected fault.
    for i in 0..30 {
        bank.submit(
            KvOp::Put {
                key: format!("audit-{i}").into_bytes(),
                value: format!("entry {i}").into_bytes(),
            }
            .to_bytes(),
        );
        bank.run_for(SimDuration::from_ms(40));
    }
    bank.run_for(SimDuration::from_secs(4));

    let replies = bank.poll_replies().clone();
    println!("Streets of Byzantium — replicated service (with mid-run fail-over)");
    println!(
        "  ops executed (each exactly once) : {}",
        bank.executed_ops()
    );
    println!(
        "  CAS transfer reply               : {:?}",
        replies.get(&cas).map(|r| r == &[1u8])
    );
    println!(
        "  credit acknowledged              : {}",
        replies.contains_key(&credit)
    );
    println!(
        "  alice = {:?}, carol = {:?}",
        bank.machine()
            .get(b"alice")
            .map(|v| String::from_utf8_lossy(v).into_owned()),
        bank.machine()
            .get(b"carol")
            .map(|v| String::from_utf8_lossy(v).into_owned()),
    );
    println!(
        "  replica state digest             : {} (audited identical on all {} replicas)",
        bank.state_digest()[..8]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<String>(),
        5,
    );
    assert_eq!(bank.executed_ops(), 35, "every op executed exactly once");
}
