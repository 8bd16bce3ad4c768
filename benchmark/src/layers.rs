//! Single-layer measurements that no workload span can isolate: each
//! layer timed alone, from outside, through its public functions. The
//! traced run of the owning workload calls these.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sofbyz::app::kv::{KvOp, KvStore};
use sofbyz::core::messages::{OrderMsg, OrderPayload, ScMsg};
use sofbyz::core::sim::ScProtocol;
use sofbyz::crypto::provider::{CryptoProvider, Dealer};
use sofbyz::crypto::scheme::SchemeId;
use sofbyz::harness::ProtocolKind;
use sofbyz::obs::{chrome, json as obs_json, TraceConfig};
use sofbyz::proto::backlog::RequestBacklog;
use sofbyz::proto::codec::{Decode, Encode};
use sofbyz::proto::ids::{ClientId, Rank, SeqNo};
use sofbyz::proto::request::{BatchRef, Digest, RequestId};
use sofbyz::proto::signed::{DoublySigned, Signed};
use sofbyz::scenario::{self, GridReport, Scenario};
use sofbyz::sim::cpu::CpuModel;
use sofbyz::sim::delay::{DelayModel, LinkModel, NetworkModel};
use sofbyz::sim::engine::{Actor, Ctx, WireSize, World};
use sofbyz::sim::time::SimDuration;
use sofbyz::spec::{report as spec_report, Spec};

use alloc_counter::allocations;

use crate::common::{ns_per_call, timed, Outcome};
use crate::gen::OpStream;
use crate::sim;

/// `sofb-crypto`: the simulated provider the sim workloads sign with
/// (a keyed tag oracle plus the `timing` cost model), and real
/// RSA-1024 beside it, which is on no measured path today.
pub fn crypto(out: &mut Outcome) {
    let msg = [0x5au8; 100];
    let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 2, 1);
    let (signer, verifier) = provs.split_at_mut(1);
    let (signer, verifier): (&mut dyn CryptoProvider, &mut dyn CryptoProvider) =
        (&mut signer[0], &mut verifier[0]);
    let sig = signer.sign(&msg);
    assert!(verifier.verify(0, &msg, &sig), "sim signature verifies");
    out.set(
        "sofb-crypto.sim_sign_ns",
        ns_per_call(20_000, 9, || signer.sign(&msg)),
    );
    out.set(
        "sofb-crypto.sim_verify_ns",
        ns_per_call(20_000, 9, || verifier.verify(0, &msg, &sig)),
    );
    out.set(
        "sofb-crypto.digest_ns_100b",
        ns_per_call(20_000, 9, || signer.digest(&msg)),
    );

    let mut rng = StdRng::seed_from_u64(1);
    let mut real = Dealer::real(&mut rng, SchemeId::Md5Rsa1024, 1, None);
    let real: &mut dyn CryptoProvider = &mut real[0];
    let sig = real.sign(&msg);
    assert!(real.verify(0, &msg, &sig), "RSA-1024 signature verifies");
    out.set(
        "sofb-crypto.rsa1024_sign_us",
        ns_per_call(3, 5, || real.sign(&msg)) / 1e3,
    );
    out.set(
        "sofb-crypto.rsa1024_verify_us",
        ns_per_call(30, 5, || real.verify(0, &msg, &sig)) / 1e3,
    );
}

/// A doubly-signed order message carrying a 10-request batch: the
/// message the SC hot path encodes, sizes and decodes most.
fn order_message() -> ScMsg {
    let mut provs = Dealer::sim(SchemeId::Md5Rsa1024, 4, 1);
    let payload = OrderPayload {
        c: Rank(1),
        o: SeqNo(9),
        batch: BatchRef {
            requests: (0..10)
                .map(|seq| RequestId {
                    client: ClientId(1),
                    seq,
                })
                .collect(),
            digest: Digest::new(&[7u8; 16]),
        },
        formed_at_ns: 123,
    };
    let signed = Signed::sign(payload, &mut provs[0]);
    ScMsg::Order(OrderMsg::Endorsed(DoublySigned::endorse(
        signed,
        &mut provs[1],
    )))
}

/// `sofb-proto`: the codec on one order message, and the request
/// backlog's note → pop → mark-ordered cycle per request.
pub fn proto(out: &mut Outcome) {
    let msg = order_message();
    let bytes = msg.to_bytes();
    assert!(ScMsg::from_bytes(&bytes).is_ok(), "order message decodes");
    out.set(
        "sofb-proto.encode_ns",
        ns_per_call(20_000, 9, || msg.to_bytes()),
    );
    out.set(
        "sofb-proto.encoded_len_ns",
        ns_per_call(20_000, 9, || msg.wire_len()),
    );
    out.set(
        "sofb-proto.decode_ns",
        ns_per_call(20_000, 9, || ScMsg::from_bytes(&bytes)),
    );

    const BATCH: u64 = 10;
    const BATCHES: u64 = 10_000;
    let per_backlog = ns_per_call(1, 7, || {
        let mut backlog: RequestBacklog<u64> = RequestBacklog::new();
        for b in 0..BATCHES {
            let ids = (b * BATCH..(b + 1) * BATCH).map(|seq| RequestId {
                client: ClientId(1),
                seq,
            });
            for id in ids.clone() {
                backlog.note(id, b);
            }
            for _ in 0..BATCH {
                black_box(backlog.pop_front());
            }
            backlog.mark_ordered(ids);
            black_box(backlog.oldest_waiting());
        }
        backlog
    });
    out.set(
        "sofb-proto.backlog_ns_per_op",
        per_backlog / (BATCH * BATCHES) as f64,
    );
}

#[derive(Clone, Copy, Debug)]
struct Ping(u64);

impl WireSize for Ping {
    fn wire_len(&self) -> usize {
        64
    }
}

const TICK: u64 = 7;

/// Ping-pong with a periodic timer: every beat touches the network
/// heap, the timer wheel and the arena (as `benches/event_path.rs`).
struct Echo {
    peer: usize,
    initiate: bool,
}

impl Actor for Echo {
    type Msg = Ping;
    type Event = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, ()>) {
        if self.initiate {
            ctx.send(self.peer, Ping(0));
        }
        ctx.set_timer(SimDuration::from_us(350), TICK);
    }

    fn on_message(&mut self, _from: usize, msg: Ping, ctx: &mut Ctx<'_, Ping, ()>) {
        ctx.send(self.peer, Ping(msg.0 + 1));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Ping, ()>) {
        ctx.set_timer(SimDuration::from_us(350), tag);
    }
}

/// Timer-only actor: one wheel pop and one wheel push per step.
struct Metronome;

impl Actor for Metronome {
    type Msg = Ping;
    type Event = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, ()>) {
        ctx.set_timer(SimDuration::from_us(50), TICK);
    }

    fn on_message(&mut self, _from: usize, _msg: Ping, _ctx: &mut Ctx<'_, Ping, ()>) {}

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Ping, ()>) {
        ctx.set_timer(SimDuration::from_us(50), tag);
    }
}

fn ns_per_step(world: &mut World<Ping, ()>) -> f64 {
    const STEPS: u32 = 10_000;
    world.start();
    for _ in 0..STEPS {
        assert!(world.step(), "the world never idles");
    }
    ns_per_call(STEPS, 21, || world.step())
}

/// `sofb-sim`: engine cost per event with actors that do nothing.
pub fn engine(out: &mut Outcome) {
    let net = NetworkModel::uniform(LinkModel {
        delay: DelayModel::Constant(SimDuration::from_us(100)),
        per_byte_ns: 10,
    });
    let mut echo: World<Ping, ()> = World::new(net, 0xbe5c);
    echo.add_node(
        Box::new(Echo {
            peer: 1,
            initiate: true,
        }),
        CpuModel::zero(),
    );
    echo.add_node(
        Box::new(Echo {
            peer: 0,
            initiate: false,
        }),
        CpuModel::zero(),
    );
    out.set("sofb-sim.null_actor_ns_per_event", ns_per_step(&mut echo));

    let mut metronome: World<Ping, ()> =
        World::new(NetworkModel::uniform(LinkModel::lan_100mbit()), 0x71c7);
    metronome.add_node(Box::new(Metronome), CpuModel::zero());
    out.set("sofb-sim.timer_rearm_ns", ns_per_step(&mut metronome));
}

/// `sofb-obs`: what `sofb trace` costs over a plain run on a 25 sim-s
/// point, and the exporter/parser throughput on that run's records.
pub fn obs(out: &mut Outcome, base: &Scenario) {
    let mut point = base.clone();
    point.window.run_s = 25;
    let plain_s = (0..3)
        .map(|_| timed(|| scenario::run(&point).expect("plain point runs")).0)
        .fold(f64::INFINITY, f64::min);
    let mut observed = None;
    let observed_s = (0..3)
        .map(|_| {
            let (s, run) = timed(|| scenario::run_observed(&point, &TraceConfig::default()));
            observed = Some(run.expect("observed point runs"));
            s
        })
        .fold(f64::INFINITY, f64::min);
    let run = observed.expect("three observed runs");
    out.set("sofb-obs.trace_overhead_ratio", observed_s / plain_s);
    out.set(
        "sofb-obs.records_per_event",
        run.records.len() as f64 / run.report.engine.events_processed as f64,
    );
    let (render_s, text) = timed(|| chrome::render(&run.records));
    let mb = text.len() as f64 / 1e6;
    out.set("sofb-obs.chrome_render_mb_s", mb / render_s);
    let (parse_s, parsed) = timed(|| obs_json::parse(&text));
    assert!(parsed.is_ok(), "the exporter's output parses");
    out.set("sofb-obs.json_parse_mb_s", mb / parse_s);
}

/// `sofb-spec`: parse, grid expansion, and rendering / re-checking the
/// executed 600-point grid.
pub fn spec(
    out: &mut Outcome,
    text: &str,
    report: &GridReport,
    rendered: &str,
    meta: spec_report::ReportMeta<'_>,
) {
    out.set(
        "sofb-spec.parse_us",
        ns_per_call(20, 9, || Spec::parse(text).expect("parsed before")) / 1e3,
    );
    let spec = Spec::parse(text).expect("parsed before");
    let expand = || {
        let grid = spec.grid(false).expect("lowered before");
        grid.cells().expect("expanded before")
    };
    out.set("sofb-spec.grid_expand_us", ns_per_call(3, 7, expand) / 1e3);
    out.set(
        "sofb-spec.render_ms",
        ns_per_call(3, 7, || spec_report::render(report, meta)) / 1e6,
    );
    out.set(
        "sofb-spec.check_ms",
        ns_per_call(3, 7, || {
            spec_report::check(rendered, rendered).expect("a report equals itself")
        }) / 1e6,
    );
}

/// `sofb-harness`: what a point pays outside its `run_until` —
/// validation, world assembly, and the analysis pass over its log — on
/// a fault-free SC point, as host time and as allocator calls.
pub fn harness(out: &mut Outcome, point: &Scenario) {
    assert_eq!(point.kind, ProtocolKind::Sc, "the grid's first point is SC");
    out.set(
        "sofb-harness.validate_us",
        ns_per_call(200, 9, || black_box(point).validate().expect("valid point")) / 1e3,
    );
    out.set(
        "sofb-harness.assemble_us",
        ns_per_call(5, 9, || sim::assemble::<ScProtocol>(point)) / 1e3,
    );

    // Allocations are exact, so one instrumented point is the figure.
    let a0 = allocations();
    point.validate().expect("valid point");
    let mut d = sim::assemble::<ScProtocol>(point);
    let outside_before = allocations() - a0;
    d.start();
    d.run_until(point.window.horizon());
    let a1 = allocations();
    let log = d.world.drain_events();
    sim::analyse(point, &log).expect("the point is safe");
    drop(d);
    let outside = outside_before + (allocations() - a1);
    out.set("sofb-harness.allocs_per_point_outside_run", outside as f64);

    let analysis_ns = ns_per_call(3, 9, || sim::analyse(point, &log));
    out.set(
        "sofb-harness.analysis_ns_per_event",
        analysis_ns / log.len().max(1) as f64,
    );
}

/// A wire line of the op stream as the `KvOp` the server decodes it to.
pub fn kv_op(line: &str) -> KvOp {
    let unhex = |s: &str| -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("generated hex"))
            .collect()
    };
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("put"), Some(k), Some(v)) => KvOp::Put {
            key: unhex(k),
            value: unhex(v),
        },
        (Some("get"), Some(k), None) => KvOp::Get { key: unhex(k) },
        other => unreachable!("the op stream emits put and get only, got {other:?}"),
    }
}

/// `sofb-app`: `KvStore::apply_op` on the live op mix.
pub fn app(out: &mut Outcome, seed: u64) {
    let mut stream = OpStream::new(seed);
    let ops: Vec<KvOp> = (0..10_000).map(|_| kv_op(&stream.next_op().line)).collect();
    let mut store = KvStore::new();
    let per_pass = ns_per_call(1, 9, || {
        for op in &ops {
            black_box(store.apply_op(op));
        }
    });
    out.set("sofb-app.kv_apply_ns", per_pass / ops.len() as f64);
}
