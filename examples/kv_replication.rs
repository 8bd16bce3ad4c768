//! Replicated key-value service: run a generated KV workload through the
//! SC order protocol and execute the committed batches on the service's
//! replica executors, whose state digests the façade compares after
//! every batch.
//!
//! This is the end-to-end state-machine-replication story of §2: order
//! first, execute deterministically, compare states.
//!
//! ```sh
//! cargo run --release --example kv_replication
//! ```

use sofbyz::app::kv::KvStore;
use sofbyz::app::workload::{KvMix, KvWorkload};
use sofbyz::core::sim::ScProtocol;
use sofbyz::harness::WorldBuilder;
use sofbyz::proto::codec::Encode;
use sofbyz::proto::ids::ClientId;
use sofbyz::service::ReplicatedService;
use sofbyz::sim::time::SimDuration;

const OPS: usize = 200;

fn main() {
    let mix = KvMix {
        read_ratio: 0.3,
        key_space: 50,
        value_size: 32,
    };
    let mut gen = KvWorkload::new(ClientId(0), mix, 7);

    // SC with f = 1: n = 4 order processes, 2f+1 = 3 audited executors.
    let builder = WorldBuilder::<ScProtocol>::new(1)
        .batching_interval(SimDuration::from_ms(50))
        .seed(3);
    let mut svc = ReplicatedService::new(builder, KvStore::new);
    let ids: Vec<_> = (0..OPS)
        .map(|_| {
            let id = svc.submit(gen.next_op().to_bytes());
            svc.run_for(SimDuration::from_ms(5));
            id
        })
        .collect();
    svc.run_for(SimDuration::from_secs(9));

    // Executes the committed prefix on every executor; panics if their
    // state digests differ.
    let replies = svc.poll_replies();
    let answered = ids.iter().filter(|id| replies.contains_key(id)).count();

    println!("Streets of Byzantium — replicated KV service");
    println!("  ops submitted      : {OPS}");
    println!("  ops executed       : {}", svc.executed_ops());
    println!("  keys stored        : {}", svc.machine().len());
    println!(
        "  state digest       : {} (identical on all 3 executors)",
        svc.state_digest()[..8]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<String>()
    );
    assert_eq!(svc.executed_ops(), OPS as u64, "every op executed once");
    assert_eq!(answered, OPS, "every submitted op has a reply");
}
