//! Fail-over demo: inject a value-domain fault into the rank-1
//! coordinator replica and watch the signal-on-crash machinery hand
//! control to the rank-2 pair.
//!
//! ```sh
//! cargo run --release --example failover_demo
//! ```

use sofbyz::core::config::Fault;
use sofbyz::core::events::ScEvent;
use sofbyz::core::sim::ScProtocol;
use sofbyz::harness::{analysis, ClientSpec, FaultSpec, WorldBuilder};
use sofbyz::proto::ids::{ProcessId, SeqNo};
use sofbyz::sim::time::{SimDuration, SimTime};

fn main() {
    let mut deployment = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(100))
        // Process 0 (the rank-1 coordinator replica) will corrupt the
        // digest of its 5th order — a value-domain Byzantine fault.
        .fault(
            ProcessId(0),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(5))),
        )
        // Offered load below batch capacity so the post-fail-over backlog
        // drains; the shadow's delay estimate then stays comfortably met.
        .order_timeout(sofbyz::sim::time::SimDuration::from_ms(2_000))
        .client(ClientSpec {
            rate_per_sec: 70.0,
            request_size: 100,
            stop_at: SimTime::from_secs(5),
        })
        .seed(2)
        .build();

    deployment.start();
    deployment.run_until(SimTime::from_secs(8));
    let events = deployment.world.drain_events();

    analysis::check_total_order(&events).expect("safety holds across the fail-over");

    println!("Streets of Byzantium — fail-over timeline\n");
    for ev in &events {
        match &ev.event {
            ScEvent::FailSignalIssued { pair, value_domain } => println!(
                "  {:>10}  node {} fail-signals pair {pair} ({})",
                ev.time.to_string(),
                ev.node,
                if *value_domain {
                    "value-domain"
                } else {
                    "time-domain"
                }
            ),
            ScEvent::StartCertIssued { c, start_o } => println!(
                "  {:>10}  node {} issues Start certificate for {c} (start_o = {start_o})",
                ev.time.to_string(),
                ev.node
            ),
            ScEvent::Installed { c } => println!(
                "  {:>10}  node {} installs coordinator {c}",
                ev.time.to_string(),
                ev.node
            ),
            _ => {}
        }
    }
    let failover = analysis::failover_latency_ms(&events).expect("fail-over measured");
    let commits = analysis::order_latencies(&events).len();
    println!("\n  fail-over latency : {failover:.2} ms (fail-signal → Start certificate)");
    println!("  batches committed : {commits} (ordering continued under rank 2)");
}
