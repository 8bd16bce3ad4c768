//! Quickstart: order client requests with the SC protocol and inspect
//! latency, throughput and safety.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sofbyz::core::sim::ScProtocol;
use sofbyz::harness::{analysis, ClientSpec, WorldBuilder};
use sofbyz::sim::time::{SimDuration, SimTime};

fn main() {
    // f = 2: five service replicas, two of them paired with shadows
    // (n = 3f+1 = 7 order processes), MD5 digests + RSA-1024 signatures.
    let mut deployment = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(100))
        .client(ClientSpec {
            rate_per_sec: 100.0,
            request_size: 100,
            stop_at: SimTime::from_secs(5),
        })
        .seed(1)
        .build();

    deployment.start();
    deployment.run_until(SimTime::from_secs(8));
    let events = deployment.world.drain_events();

    analysis::check_total_order(&events).expect("total order must hold");

    let latencies = analysis::order_latencies(&events);
    let mean =
        analysis::mean_latency_ms(&events, SimTime::from_secs(1)).expect("batches committed");
    let throughput =
        analysis::throughput_per_process(&events, SimTime::from_secs(1), SimTime::from_secs(8));

    println!("Streets of Byzantium — SC protocol quickstart");
    println!("  processes            : {}", deployment.n_processes);
    println!("  batches committed    : {}", latencies.len());
    println!("  mean order latency   : {mean:.2} ms");
    println!("  throughput/process   : {throughput:.1} requests/s");
    println!("  safety               : total order verified across all nodes");
}
