//! Cross-crate integration tests: the full stack (crypto → sim → proto →
//! protocols → app) through the public umbrella API.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sofbyz::app::kv::{KvOp, KvStore};
use sofbyz::app::state_machine::{Executor, StateMachine};
use sofbyz::core::config::Fault;
use sofbyz::core::events::ScEvent;
use sofbyz::core::messages::ScMsg;
use sofbyz::core::sim::ScProtocol;
use sofbyz::crypto::provider::{CryptoProvider, Dealer};
use sofbyz::crypto::scheme::SchemeId;
use sofbyz::harness::{analysis, ClientSpec, FaultSpec, WorldBuilder};
use sofbyz::proto::codec::Encode;
use sofbyz::proto::ids::{ClientId, ProcessId, SeqNo};
use sofbyz::proto::request::{Request, RequestId};
use sofbyz::proto::topology::Variant;
use sofbyz::sim::time::{SimDuration, SimTime};

#[test]
fn all_three_schemes_order_correctly() {
    for scheme in SchemeId::PAPER {
        let mut d = WorldBuilder::<ScProtocol>::new(2)
            .scheme(scheme)
            .batching_interval(SimDuration::from_ms(100))
            .client(ClientSpec::new(50.0, 100, SimTime::from_secs(2)))
            .seed(77)
            .build();
        d.start();
        d.run_until(SimTime::from_secs(6));
        let events = d.world.drain_events();
        analysis::check_total_order(&events).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(
            analysis::order_latencies(&events).len() >= 5,
            "{scheme}: too few commits"
        );
    }
}

#[test]
fn sc_with_real_rsa_signatures_outside_simulator() {
    // The protocol envelope types work with genuine RSA signatures too —
    // the simulator's keyed tags are a substitution only for speed.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut provs = Dealer::real(&mut rng, SchemeId::Md5Rsa1024, 3, Some(512));
    use sofbyz::proto::signed::{DoublySigned, Signed};
    let order = sofbyz::core::messages::OrderPayload {
        c: sofbyz::proto::ids::Rank(1),
        o: SeqNo(1),
        batch: sofbyz::proto::request::BatchRef::default(),
        formed_at_ns: 0,
    };
    let signed = Signed::sign(order, &mut provs[0]);
    let endorsed = DoublySigned::endorse(signed, &mut provs[1]);
    assert!(endorsed.verify(&mut provs[2]));
    let mut forged = endorsed.clone();
    forged.payload.o = SeqNo(2);
    assert!(!forged.verify(&mut provs[2]));
}

#[test]
fn ordered_kv_replicas_converge_under_failover() {
    // Order a KV workload while the coordinator misbehaves mid-run; every
    // correct process executes its own committed log, and all of them
    // must converge to identical state.
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .batching_interval(SimDuration::from_ms(60))
        .fault(
            ProcessId(0),
            FaultSpec::Byzantine(Fault::CorruptOrderAt(SeqNo(6))),
        )
        .seed(9)
        .build();
    d.start();
    let n = d.n_processes;
    // Inject structured KV requests, keeping each one's payload.
    let mut payloads: HashMap<RequestId, Vec<u8>> = HashMap::new();
    for i in 0..60u64 {
        let op = KvOp::Put {
            key: format!("k{}", i % 7).into_bytes(),
            value: format!("v{i}").into_bytes(),
        };
        d.run_until(SimTime::from_ms(20 * i));
        let req = Request::new(ClientId(0), i + 1, op.to_bytes());
        payloads.insert(req.id, op.to_bytes());
        for p in 0..n {
            d.world.inject(p, 999, ScMsg::Request(req.clone()));
        }
    }
    d.run_until(SimTime::from_secs(12));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ScEvent::Installed { .. })),
        "fail-over must have occurred"
    );

    // Each process's own schedule: sequence number → the members it
    // committed there.
    let mut logs: Vec<BTreeMap<SeqNo, Arc<[RequestId]>>> = vec![BTreeMap::new(); n];
    for ev in &events {
        if let ScEvent::Committed { o, request_ids, .. } = &ev.event {
            logs[ev.node].insert(*o, request_ids.clone());
        }
    }
    // Every process but the faulty coordinator executes its log up to
    // the prefix all of them committed.
    let correct: Vec<usize> = (1..n).collect();
    let prefix = analysis::common_committed_prefix(&events, &correct).expect("all commit");
    let in_prefix: usize = logs[1].range(..=prefix).map(|(_, ids)| ids.len()).sum();
    assert_eq!(in_prefix, payloads.len(), "prefix {prefix:?} misses ops");
    let digests: Vec<Vec<u8>> = correct
        .iter()
        .map(|&p| {
            let mut ex = Executor::new(KvStore::new());
            for (o, ids) in logs[p].range(..=prefix) {
                ex.apply_batch(*o, ids.iter().map(|id| &payloads[id]))
                    .unwrap_or_else(|e| panic!("process {p}: {e}"));
            }
            assert_eq!(ex.applied_ops(), in_prefix as u64, "process {p}");
            ex.machine().state_digest()
        })
        .collect();
    assert!(
        digests.iter().all(|d| *d == digests[0]),
        "replicas diverged"
    );
}

#[test]
fn scr_recovers_from_transient_partition_of_pair_link() {
    // SCR under partial synchrony: before GST the pair link is slow
    // enough to trip the heartbeat estimate (a false, time-domain
    // suspicion); after GST the pair recovers (3(b)(i): estimates become
    // accurate eventually).
    use sofbyz::sim::delay::{DelayModel, LinkModel};
    use sofbyz::sim::time::SimDuration as D;
    let slow_then_fast = LinkModel {
        delay: DelayModel::PartialSync {
            before: Box::new(DelayModel::Constant(D::from_ms(400))),
            after: Box::new(DelayModel::Constant(D::from_us(50))),
            gst: SimTime::from_secs(2),
        },
        per_byte_ns: 8,
    };
    let mut d = WorldBuilder::<ScProtocol>::new(2)
        .variant(Variant::Scr)
        .batching_interval(SimDuration::from_ms(100))
        .pair_link(slow_then_fast)
        .client(ClientSpec::new(50.0, 100, SimTime::from_secs(6)))
        .seed(21)
        .build();
    d.start();
    d.run_until(SimTime::from_secs(10));
    let events = d.world.drain_events();
    analysis::check_total_order(&events).unwrap();
    // False suspicion before GST...
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            ScEvent::FailSignalIssued {
                value_domain: false,
                ..
            }
        )),
        "pre-GST heartbeat misses must trigger a (false) fail-signal"
    );
    // ...and recovery afterwards.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, ScEvent::PairRecovered { .. })),
        "pairs must recover after GST"
    );
}

#[test]
fn provider_costs_flow_into_virtual_time() {
    // A deployment under the expensive RSA-1536 scheme must exhibit
    // higher order latency than RSA-1024, because the provider charges
    // more virtual signing time.
    let run = |scheme| {
        let mut d = WorldBuilder::<ScProtocol>::new(1)
            .scheme(scheme)
            .batching_interval(SimDuration::from_ms(200))
            .client(ClientSpec::new(50.0, 100, SimTime::from_secs(3)))
            .seed(33)
            .build();
        d.start();
        d.run_until(SimTime::from_secs(6));
        let events = d.world.drain_events();
        analysis::mean_latency_ms(&events, SimTime::from_secs(1)).unwrap()
    };
    let cheap = run(SchemeId::Md5Rsa1024);
    let pricey = run(SchemeId::Md5Rsa1536);
    assert!(
        pricey > cheap * 1.5,
        "RSA-1536 ({pricey:.1} ms) must cost well over RSA-1024 ({cheap:.1} ms)"
    );
}

#[test]
fn umbrella_reexports_compose() {
    // Spot-check that the façade exposes the substrates coherently.
    let t = sofbyz::proto::topology::Topology::new(2, Variant::Sc);
    assert_eq!(t.n(), 7);
    let mut kv = KvStore::new();
    let reply = StateMachine::apply(
        &mut kv,
        &KvOp::Put {
            key: b"x".to_vec(),
            value: b"y".to_vec(),
        }
        .to_bytes(),
    );
    assert_eq!(reply, b"OK");
    let mut provs = Dealer::sim(SchemeId::Sha1Dsa1024, 2, 3);
    let sig = provs[0].sign(b"m");
    assert!(provs[1].verify(0, b"m", &sig));
}

// ---------------------------------------------------------------------------
// Live (wall-clock) runtime: serve/call round trips and the
// trace-replay cross-validation invariant.
// ---------------------------------------------------------------------------

use sofbyz::harness::{Knobs, ProtocolKind};
use sofbyz::runtime::{self, spawn_live_kv, LiveTrace, ServeOptions};
use std::net::TcpListener;
use std::time::Duration;

fn live_knobs() -> Knobs {
    Knobs {
        batching_interval: SimDuration::from_ms(15),
        // Wall-clock suspicion windows are tuned for the simulated
        // timeline; a loaded CI host would trip them spuriously.
        time_checks: false,
        ..Knobs::default()
    }
}

#[test]
fn live_serve_call_shutdown_round_trip_on_every_variant() {
    for kind in ProtocolKind::ALL {
        let svc = spawn_live_kv(kind, &live_knobs(), 1.0);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            runtime::serve(listener, svc, &ServeOptions::default()).expect("serve loop")
        });

        let t = Duration::from_secs(20);
        let put = runtime::call(
            addr,
            &runtime::wire_line("put", &["k".into(), "v1".into()]),
            t,
        )
        .expect("put call");
        assert_eq!(
            runtime::decode_reply(&put).as_deref(),
            Ok(&b"OK"[..]),
            "{kind}: put reply was {put:?}"
        );
        let get =
            runtime::call(addr, &runtime::wire_line("get", &["k".into()]), t).expect("get call");
        assert_eq!(
            runtime::decode_reply(&get).as_deref(),
            Ok(&b"v1"[..]),
            "{kind}: get reply was {get:?}"
        );
        let bad = runtime::call(addr, "frobnicate", t).expect("bad call");
        assert!(
            bad.starts_with("err "),
            "{kind}: bad op must err, got {bad:?}"
        );
        let bye = runtime::call(addr, "shutdown", t).expect("shutdown call");
        assert_eq!(bye, "ok bye", "{kind}");

        let outcome = server.join().expect("server thread");
        assert_eq!(outcome.calls, 4, "{kind}");
        assert_eq!(outcome.run.trace.kind, kind);
        assert_eq!(outcome.run.trace.ops.len(), 2, "{kind}: put + get recorded");
        assert_eq!(
            outcome.run.trace.commit_order.len(),
            2,
            "{kind}: both ops committed before shutdown"
        );
        assert_eq!(outcome.run.executed_ops, 2, "{kind}");
    }
}

#[test]
fn live_trace_cross_validates_against_all_four_simulated_variants() {
    let mut svc = spawn_live_kv(ProtocolKind::Sc, &live_knobs(), 1.0);
    let mut ids = Vec::new();
    for i in 0..8u8 {
        let op = KvOp::Put {
            key: format!("k{i}").into_bytes(),
            value: vec![i],
        };
        ids.push(svc.submit(op.to_bytes()));
        std::thread::sleep(Duration::from_millis(3));
    }
    for id in ids {
        assert!(
            svc.wait_reply(id, Duration::from_secs(20)).is_some(),
            "live op must commit"
        );
    }
    let run = svc.shutdown();
    assert_eq!(run.trace.ops.len(), 8);
    assert_eq!(run.trace.commit_order.len(), 8);

    // The invariant: the recorded workload replayed through the
    // simulator commits identically on all four variants.
    let per_variant = runtime::cross_validate(&run.trace).expect("live/sim commit orders agree");
    assert_eq!(per_variant.len(), 4);
    assert!(per_variant.iter().all(|(_, commits)| *commits == 8));

    // And it is a real check: a reordered trace must be rejected, and it
    // survives the text round trip.
    let mut tampered = LiveTrace::parse(&run.trace.render()).expect("trace text round-trips");
    assert_eq!(tampered, run.trace);
    tampered.commit_order.swap(0, 1);
    assert!(
        runtime::cross_validate(&tampered).is_err(),
        "tampered commit order must fail cross-validation"
    );
}

/// A trace offered faster than the default modelled CPU (1 ms per event)
/// can serve — here 2 s at 2 000 ops/s, a pipelined live client's pace —
/// still replays to completion inside the drain horizon on every variant.
#[test]
fn a_flood_trace_cross_validates_on_all_four_variants() {
    use sofbyz::runtime::TraceOp;
    const OPS: u64 = 4_000;
    let ops: Vec<TraceOp> = (1..=OPS)
        .map(|seq| TraceOp {
            client: 0,
            seq,
            at_ns: seq * 500_000,
            payload: KvOp::Put {
                key: format!("k{}", seq % 100).into_bytes(),
                value: vec![0xab; 100],
            }
            .to_bytes()
            .into(),
        })
        .collect();
    let commit_order = ops
        .iter()
        .map(|op| RequestId {
            client: ClientId(op.client),
            seq: op.seq,
        })
        .collect();
    let knobs = live_knobs();
    let trace = LiveTrace {
        kind: ProtocolKind::Sc,
        f: 1,
        scheme: knobs.scheme,
        interval_ns: knobs.batching_interval.as_ns(),
        seed: 7,
        ops,
        commit_order,
    };
    let per_variant = runtime::cross_validate(&trace).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(per_variant.len(), 4);
    assert!(
        per_variant
            .iter()
            .all(|(_, commits)| *commits == OPS as usize),
        "{per_variant:?}"
    );
}

/// A live SC node behind `runtime::serve` on an ephemeral port.
fn live_node() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<runtime::ServeOutcome>,
) {
    let svc = spawn_live_kv(ProtocolKind::Sc, &live_knobs(), 1.0);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        runtime::serve(listener, svc, &ServeOptions::default()).expect("serve loop")
    });
    (addr, server)
}

/// Shuts the node down over its own protocol and returns what it recorded.
fn stop_live_node(
    addr: std::net::SocketAddr,
    server: std::thread::JoinHandle<runtime::ServeOutcome>,
) -> runtime::ServeOutcome {
    let bye = runtime::call(addr, "shutdown", Duration::from_secs(20)).expect("shutdown call");
    assert_eq!(bye, "ok bye");
    server.join().expect("server thread")
}

#[test]
fn serve_keeps_a_line_that_straddles_the_read_timeout() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, server) = live_node();
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    // `put k v`, cut mid-line for longer than the server's 200 ms read
    // timeout: the first half must still be there when the rest arrives.
    conn.write_all(b"put 6b ").expect("first half");
    std::thread::sleep(Duration::from_millis(350));
    conn.write_all(b"76\n").expect("second half");
    let mut reply = String::new();
    BufReader::new(&conn)
        .read_line(&mut reply)
        .expect("reply line");
    assert_eq!(reply, "ok 4f4b\n");
    drop(conn);
    let outcome = stop_live_node(addr, server);
    assert_eq!(outcome.run.executed_ops, 1);
}

#[test]
fn serve_sends_each_reply_as_one_segment() {
    use std::io::{Read, Write};
    let (addr, server) = live_node();
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut buf = [0u8; 4096];
    for i in 0..20u8 {
        let line = runtime::wire_line("put", &["k".into(), format!("v{i}")]);
        conn.write_all(format!("{line}\n").as_bytes())
            .expect("request");
        // One read, not a read loop: the whole reply — newline included —
        // has to arrive together, or a client pays a delayed-ACK round
        // for the terminator of every reply.
        let n = conn.read(&mut buf).expect("reply");
        assert_eq!(
            std::str::from_utf8(&buf[..n]),
            Ok("ok 4f4b\n"),
            "request {i}: first read returned {n} bytes"
        );
    }
    drop(conn);
    let outcome = stop_live_node(addr, server);
    assert_eq!(outcome.calls, 21);
    assert_eq!(outcome.run.executed_ops, 20);
}

/// 32 pipelined lines in one write are one burst: every ordered op is
/// submitted before any is waited on, and each line gets its reply in
/// place — read-your-write values, the bad command's `err`, a `digest`
/// that has seen every op before it.
#[test]
fn serve_answers_a_pipelined_burst_in_order() {
    use std::io::{BufRead, BufReader, Write};
    const BAD: usize = 10;
    const LINES: usize = 32;
    let (addr, server) = live_node();
    // What one FIFO client must read back: the node's replies are a
    // local store's, applied in line order.
    let mut model = KvStore::new();
    let mut request = String::new();
    let mut want: Vec<Option<Vec<u8>>> = Vec::new();
    for i in 0..LINES {
        let key = format!("k{}", (i / 2) % 3);
        let (line, reply) = if i == BAD {
            ("frobnicate".to_string(), None)
        } else if i == LINES - 1 {
            ("digest".to_string(), Some(model.state_digest()))
        } else if i % 2 == 0 {
            let value = format!("v{i}");
            let op = KvOp::Put {
                key: key.clone().into_bytes(),
                value: value.clone().into_bytes(),
            };
            (
                runtime::wire_line("put", &[key, value]),
                Some(model.apply_op(&op)),
            )
        } else {
            let op = KvOp::Get {
                key: key.clone().into_bytes(),
            };
            (runtime::wire_line("get", &[key]), Some(model.apply_op(&op)))
        };
        request.push_str(&line);
        request.push('\n');
        want.push(reply);
    }
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    conn.write_all(request.as_bytes()).expect("burst");
    let mut reader = BufReader::new(&conn);
    for (i, want) in want.iter().enumerate() {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply line");
        let got = runtime::decode_reply(reply.trim_end());
        match want {
            Some(bytes) => assert_eq!(got.as_ref(), Ok(bytes), "line {i}: {reply:?}"),
            None => assert!(reply.starts_with("err bad command"), "line {i}: {reply:?}"),
        }
    }
    drop(reader);
    drop(conn);
    let outcome = stop_live_node(addr, server);
    let ordered = LINES as u64 - 2;
    assert_eq!(
        outcome.calls,
        LINES as u64 + 1,
        "the burst's lines + shutdown"
    );
    assert_eq!(outcome.run.executed_ops, ordered);
    let trace = &outcome.run.trace;
    assert_eq!(trace.ops.len() as u64, ordered);
    let first = trace.ops.first().expect("ops").at_ns;
    let last = trace.ops.last().expect("ops").at_ns;
    assert!(
        last - first < trace.interval_ns,
        "ops were submitted {} ns apart: not before any wait",
        last - first
    );
}

/// A `shutdown` mid-burst is answered after every line before it; the
/// lines after it are not handled.
#[test]
fn serve_answers_a_burst_before_its_shutdown() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, server) = live_node();
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let put = |v: &str| runtime::wire_line("put", &["k".into(), v.into()]);
    let get = runtime::wire_line("get", &["k".into()]);
    let burst = format!("{}\n{get}\nshutdown\n{}\n{get}\n", put("v1"), put("v2"));
    conn.write_all(burst.as_bytes()).expect("burst");
    // Everything up to the server's hang-up.
    let replies: Vec<String> = BufReader::new(&conn)
        .lines()
        .map(|l| l.expect("reply line"))
        .collect();
    assert_eq!(replies, ["ok 4f4b", "ok 7631", "ok bye"]);
    let outcome = server.join().expect("server thread");
    assert_eq!(outcome.calls, 3);
    assert_eq!(outcome.run.trace.ops.len(), 2);
    assert_eq!(outcome.run.executed_ops, 2);
}

/// A client that never sends a newline cannot grow the server's memory
/// past one maximal line: it gets `err line too long` and is
/// disconnected, and the next client is served.
#[test]
fn serve_refuses_an_oversized_line_and_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, server) = live_node();
    let conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut writer = conn.try_clone().expect("clone");
    // The server stops reading at its cap, so the rest of the 2 MiB may
    // never be taken: write from a second thread and let it fail.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'a'; 2 << 20]);
    });
    let mut reader = BufReader::new(&conn);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply line");
    assert_eq!(reply, "err line too long\n");
    // Then the server hangs up: end of stream, or a reset if it closed
    // with part of the flood unread.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "after the refusal: {rest:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }
    drop(reader);
    drop(conn);
    flood.join().expect("writer thread");
    let t = Duration::from_secs(20);
    let put = runtime::call(
        addr,
        &runtime::wire_line("put", &["k".into(), "v".into()]),
        t,
    )
    .expect("put call");
    assert_eq!(runtime::decode_reply(&put).as_deref(), Ok(&b"OK"[..]));
    let outcome = stop_live_node(addr, server);
    assert_eq!(outcome.run.executed_ops, 1);
    assert_eq!(outcome.calls, 2, "put + shutdown");
}

#[test]
fn serve_survives_a_client_that_closes_without_reading() {
    use std::io::Write;
    let (addr, server) = live_node();
    let t = Duration::from_secs(20);
    {
        let mut rude = std::net::TcpStream::connect(addr).expect("connect");
        let line = runtime::wire_line("put", &["k".into(), "v".into()]);
        rude.write_all(format!("{line}\n").as_bytes())
            .expect("request");
        // Gone before the reply is written: whatever the server's write
        // meets, it ends that connection and nothing else.
    }
    let get = runtime::call(addr, &runtime::wire_line("get", &["k".into()]), t).expect("get call");
    assert_eq!(runtime::decode_reply(&get).as_deref(), Ok(&b"v"[..]));
    let outcome = stop_live_node(addr, server);
    let run = &outcome.run;
    assert_eq!(
        (
            run.trace.ops.len(),
            run.trace.commit_order.len(),
            run.executed_ops
        ),
        (2, 2, 2),
        "submitted / committed / executed"
    );
}

#[test]
fn wait_reply_honours_its_deadline_while_blocked() {
    let mut svc = spawn_live_kv(ProtocolKind::Sc, &live_knobs(), 1.0);
    let never_submitted = RequestId {
        client: ClientId(0),
        seq: 9_999,
    };
    let timeout = Duration::from_millis(60);
    let t0 = std::time::Instant::now();
    assert_eq!(svc.wait_reply(never_submitted, timeout), None);
    let waited = t0.elapsed();
    assert!(
        waited >= timeout && waited < timeout + Duration::from_millis(50),
        "waited {waited:?} on a {timeout:?} timeout"
    );
    // The wait consumed nothing it should not have: the node still serves.
    let id = svc.submit(
        KvOp::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        }
        .to_bytes(),
    );
    assert_eq!(
        svc.wait_reply(id, Duration::from_secs(20)).as_deref(),
        Some(&b"OK"[..])
    );
    assert_eq!(svc.shutdown().executed_ops, 1);
}
