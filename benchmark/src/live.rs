//! The live-host workloads: a load generator on one TCP connection
//! against an in-process node started with the same `spawn_live_kv` +
//! `runtime::serve` calls `sofb serve` makes (SC, f = 1, 15 ms batching
//! interval — the `specs/live_kv.scn` knobs), on `127.0.0.1:0`.
//!
//! The generator is one process, at most two threads, one connection,
//! one `write_all` per request and OS-default socket options.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sofbyz::harness::{Knobs, ProtocolKind};
use sofbyz::obs::MetricValue;
use sofbyz::runtime::{self, ServeOptions, ServeOutcome};
use sofbyz::sim::time::SimDuration;

use alloc_counter::allocations;

use crate::common::{peak_rss_mb, timed, Outcome};
use crate::decl::{Workload, VARIANT_SHORT};
use crate::gen::{self, Op, OpStream};
use crate::spans::{Recorder, IN_FLIGHT, MAIN};
use crate::{layers, stats};

/// Batching interval of the live node, ms.
const INTERVAL_MS: u64 = 15;
/// Open-loop arrival rate, ops/s (≈ 0.6 of the node's capacity).
const OPEN_RATE: f64 = 40.0;
/// Seed of the open loop's arrival schedule. The schedule is part of the
/// workload, like its rate: `--seed` varies what is sent, not when.
/// Between schedules the queueing tail (p95) differs by up to 30 %,
/// between runs on one schedule by 2 %; a yardstick needs the latter.
const OPEN_SCHEDULE_SEED: u64 = 7;
/// Requests `live_flood` keeps in flight.
const FLOOD_WINDOW: usize = 32;
/// A reply later than this is a failed op.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Closed-loop traffic discarded before the measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Set-up repeats per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// A `live_open` run whose generator ran later than this (p95) is invalid.
const MAX_LATE_MS: f64 = 2.0;

fn knobs(seed: u64) -> Knobs {
    Knobs {
        f: 1,
        seed,
        batching_interval: SimDuration::from_ms(INTERVAL_MS),
        time_checks: false,
        ..Knobs::default()
    }
}

/// A running in-process node.
struct Node {
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<ServeOutcome>>,
    spawn_s: f64,
}

fn start_node(kind: ProtocolKind, seed: u64) -> std::io::Result<Node> {
    let (spawn_s, svc) = timed(|| runtime::spawn_live_kv(kind, &knobs(seed), 1.0));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = thread::spawn(move || runtime::serve(listener, svc, &ServeOptions::default()));
    Ok(Node {
        addr,
        server,
        spawn_s,
    })
}

/// The one client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// One request, one reply.
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.recv()
    }
}

/// Stops the node over its own protocol and returns what it recorded.
fn stop_node(node: Node, mut conn: Conn) -> Result<ServeOutcome, String> {
    let bye = conn
        .call("shutdown\n")
        .map_err(|e| format!("shutdown: {e}"))?;
    if bye != "ok bye" {
        return Err(format!("shutdown answered `{bye}`"));
    }
    node.server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serve: {e}"))
}

/// One timed request of a load loop.
struct Sample {
    seq: u64,
    /// When latency starts: the send (closed, flood) or the due time (open).
    from: Instant,
    sent: Instant,
    done: Instant,
}

/// What a load loop did.
#[derive(Default)]
struct Load {
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
    window_s: f64,
    allocs: u64,
}

impl Load {
    fn ok(&self) -> u64 {
        self.samples.len() as u64
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.done.duration_since(s.from).as_secs_f64() * 1e3)
            .collect()
    }

    /// Books one reply against the request it answers.
    fn settle(
        &mut self,
        seq: u64,
        from: Instant,
        sent: Instant,
        expect: &str,
        reply: std::io::Result<String>,
    ) {
        let done = Instant::now();
        match reply {
            Ok(r) if r == expect => self.samples.push(Sample {
                seq,
                from,
                sent,
                done,
            }),
            Ok(r) => {
                let cut = |s: &str| s.chars().take(24).collect::<String>();
                self.failures.push(format!(
                    "op {seq}: expected `{}…`, got `{}…`",
                    cut(expect),
                    cut(&r)
                ));
            }
            Err(e) => self.failures.push(format!("op {seq}: no reply ({e})")),
        }
    }
}

/// Closed loop: one op in flight; the next request leaves a think time
/// after the previous reply arrived. The think time is seeded, uniform
/// over one batching interval: without it the loop phase-locks to the
/// node's batch tick and the kernel's timer tick, settles into one of
/// several limit cycles 4 ms apart, and p50 reads 48, 52 or 56 ms
/// depending on the run rather than on the code.
fn closed_loop(conn: &mut Conn, ops: &mut OpStream, seq: &mut u64, window: Duration) -> Load {
    let mut load = Load::default();
    let a0 = allocations();
    let t0 = Instant::now();
    while t0.elapsed() < window && load.failures.is_empty() {
        thread::sleep(Duration::from_secs_f64(
            ops.next_unit() * INTERVAL_MS as f64 / 1e3,
        ));
        let Op { line, expect } = ops.next_op();
        *seq += 1;
        load.attempted += 1;
        let sent = Instant::now();
        let reply = conn.call(&line);
        load.settle(*seq, sent, sent, &expect, reply);
    }
    load.window_s = t0.elapsed().as_secs_f64();
    load.allocs = allocations() - a0;
    load
}

/// Window bookkeeping of `live_flood`: which requests are in flight, in
/// the order their replies will arrive.
struct InFlight<T> {
    limit: usize,
    queue: VecDeque<T>,
}

impl<T> InFlight<T> {
    fn new(limit: usize) -> Self {
        InFlight {
            limit,
            queue: VecDeque::with_capacity(limit),
        }
    }

    fn has_room(&self) -> bool {
        self.queue.len() < self.limit
    }

    fn sent(&mut self, item: T) {
        assert!(self.has_room(), "window of {} overrun", self.limit);
        self.queue.push_back(item);
    }

    /// The request the next reply answers (replies are FIFO).
    fn replied(&mut self) -> Option<T> {
        self.queue.pop_front()
    }
}

/// Flood: `FLOOD_WINDOW` requests kept in flight; a reply makes room
/// for the next request until the window closes, then the rest drain.
fn flood_loop(conn: &mut Conn, ops: &mut OpStream, seq: &mut u64, window: Duration) -> Load {
    let mut load = Load::default();
    let mut in_flight: InFlight<(u64, Instant, String)> = InFlight::new(FLOOD_WINDOW);
    let a0 = allocations();
    let t0 = Instant::now();
    loop {
        while in_flight.has_room() && t0.elapsed() < window && load.failures.is_empty() {
            let Op { line, expect } = ops.next_op();
            *seq += 1;
            load.attempted += 1;
            let sent = Instant::now();
            if let Err(e) = conn.writer.write_all(line.as_bytes()) {
                load.failures.push(format!("op {seq}: send failed ({e})"));
                break;
            }
            in_flight.sent((*seq, sent, expect));
        }
        let Some((seq, sent, expect)) = in_flight.replied() else {
            break;
        };
        let reply = conn.recv();
        let lost = reply.is_err();
        load.settle(seq, sent, sent, &expect, reply);
        if lost {
            // The stream is broken: what is still in flight is lost too.
            break;
        }
    }
    load.window_s = t0.elapsed().as_secs_f64();
    load.allocs = allocations() - a0;
    load
}

/// Open loop: a writer thread sends on the Poisson schedule whatever
/// the replies do; this thread reads replies in FIFO order and times
/// each from its *due* time.
fn open_loop(conn: &mut Conn, ops: &mut OpStream, seq: &mut u64, window: Duration) -> Load {
    let schedule = gen::poisson_schedule(OPEN_SCHEDULE_SEED, OPEN_RATE, window.as_secs_f64());
    let mut load = Load::default();
    let mut writer = match conn.writer.try_clone() {
        Ok(w) => w,
        Err(e) => {
            load.attempted = 1;
            load.failures.push(format!("clone of the connection: {e}"));
            return load;
        }
    };
    let first_seq = *seq;
    *seq += schedule.len() as u64;
    load.attempted = schedule.len() as u64;
    let a0 = allocations();
    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel::<(u64, Instant, Instant, String)>();
    thread::scope(|scope| {
        scope.spawn(move || {
            for (i, offset) in schedule.into_iter().enumerate() {
                let Op { line, expect } = ops.next_op();
                let due = t0 + offset;
                thread::sleep(due.saturating_duration_since(Instant::now()));
                let sent = Instant::now();
                if writer.write_all(line.as_bytes()).is_err()
                    || tx
                        .send((first_seq + 1 + i as u64, due, sent, expect))
                        .is_err()
                {
                    return;
                }
            }
        });
        for (seq, due, sent, expect) in rx {
            let reply = conn.recv();
            let lost = reply.is_err();
            load.settle(seq, due, sent, &expect, reply);
            if lost {
                break;
            }
        }
    });
    load.window_s = t0.elapsed().as_secs_f64();
    load.allocs = allocations() - a0;
    load
}

fn load_loop(
    w: Workload,
    conn: &mut Conn,
    ops: &mut OpStream,
    seq: &mut u64,
    window: Duration,
) -> Load {
    match w {
        Workload::LiveClosed => closed_loop(conn, ops, seq, window),
        Workload::LiveOpen => open_loop(conn, ops, seq, window),
        Workload::LiveFlood => flood_loop(conn, ops, seq, window),
        _ => unreachable!("live workloads only"),
    }
}

/// p95 of how late the generator sent against its schedule, ms.
fn late_ms_p95(load: &Load) -> f64 {
    let late: Vec<f64> = load
        .samples
        .iter()
        .map(|s| s.sent.duration_since(s.from).as_secs_f64() * 1e3)
        .collect();
    stats::percentile(&late, 95.0)
}

/// Books a load loop into the run's verdict: every op sent without a
/// correct reply is a failed op.
fn absorb(out: &mut Outcome, load: &Load) {
    let failed = load.attempted - load.ok();
    out.attempted += load.attempted;
    out.failed += failed;
    out.failures.extend(load.failures.iter().cloned());
    if failed > 0 && load.failures.is_empty() {
        out.failures
            .push(format!("{failed} op(s) sent without a reply"));
    }
}

/// A node with its connection, set up to the first acknowledged `put`.
struct Session {
    node: Node,
    conn: Conn,
    ops: OpStream,
    /// Ops sent on this node so far.
    seq: u64,
}

fn open_session(seed: u64) -> Result<Session, String> {
    let node = start_node(ProtocolKind::Sc, seed).map_err(|e| format!("start node: {e}"))?;
    let mut conn = Conn::open(node.addr).map_err(|e| format!("connect: {e}"))?;
    let mut ops = OpStream::new(seed);
    let Op { line, expect } = ops.next_put();
    let reply = conn.call(&line).map_err(|e| format!("first put: {e}"))?;
    if reply != expect {
        return Err(format!("first put answered `{reply}`"));
    }
    Ok(Session {
        node,
        conn,
        ops,
        seq: 1,
    })
}

/// What shutting a session down cost and what its node recorded.
#[derive(Default)]
struct Closed {
    shutdown_s: f64,
    cross_validate_s: f64,
    /// Submission offset of every op, in submission order.
    submitted_at_ns: Vec<u64>,
}

/// Shuts the session's node down and checks what it recorded: every op
/// sent was submitted, committed and executed exactly once, and the
/// live commit order replays identically through the simulator on all
/// four variants.
fn close_session(s: Session, out: &mut Outcome) -> Closed {
    let sent = s.seq;
    let (shutdown_s, outcome) = timed(|| stop_node(s.node, s.conn));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            out.check("shutdown", Err(e));
            return Closed::default();
        }
    };
    let run = &outcome.run;
    let counts = (
        run.trace.ops.len() as u64,
        run.trace.commit_order.len() as u64,
        run.executed_ops,
    );
    out.check(
        "shutdown accounting",
        if counts == (sent, sent, sent) {
            Ok(())
        } else {
            Err(format!(
                "sent {sent}, submitted/committed/executed {counts:?}"
            ))
        },
    );
    let (cross_validate_s, verdict) = timed(|| runtime::cross_validate(&run.trace));
    out.check(
        "cross-validation",
        verdict.map(|_| ()).map_err(|e| e.to_string()),
    );
    Closed {
        shutdown_s,
        cross_validate_s,
        submitted_at_ns: run.trace.ops.iter().map(|op| op.at_ns).collect(),
    }
}

fn end_to_end(out: &mut Outcome, load: &Load) {
    let lat = load.latencies_ms();
    out.set("ops_per_s", load.ok() as f64 / load.window_s);
    out.set("latency_p50_ms", stats::percentile(&lat, 50.0));
    out.set("latency_p95_ms", stats::percentile(&lat, 95.0));
    out.set(
        "allocs_per_op",
        load.allocs as f64 / load.ok().max(1) as f64,
    );
    out.info.push(("ok_replies", load.ok() as f64, "count"));
    out.info.push(("window_s", load.window_s, "s"));
    if let Some(p) = stats::highest_supported_percentile(lat.len()) {
        out.info.push(("highest_supported_percentile", p, "%"));
    }
}

/// The tracing-off run.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut session = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = session.take() {
            close_session(previous, &mut out);
        }
        let (s, opened) = timed(|| open_session(seed));
        match opened {
            Ok(opened) => session = Some(opened),
            Err(e) => {
                out.check("set-up", Err(e));
                return out;
            }
        }
        setups.push(s);
    }
    let mut s = session.expect("SETUP_REPEATS is positive");

    let warm = closed_loop(&mut s.conn, &mut s.ops, &mut s.seq, WARMUP);
    absorb(&mut out, &warm);
    let load = load_loop(
        w,
        &mut s.conn,
        &mut s.ops,
        &mut s.seq,
        Duration::from_secs_f64(seconds),
    );
    let rss = peak_rss_mb();
    absorb(&mut out, &load);
    if w == Workload::LiveOpen {
        let late = late_ms_p95(&load);
        out.info.push(("late_ms_p95", late, "ms"));
        out.check(
            "generator lateness",
            if late <= MAX_LATE_MS {
                Ok(())
            } else {
                Err(format!("p95 {late:.3} ms > {MAX_LATE_MS} ms"))
            },
        );
    }
    close_session(s, &mut out);

    out.set("setup_s", stats::median(&setups));
    out.set("peak_rss_mb", rss);
    end_to_end(&mut out, &load);
    out
}

fn summary_mean(snapshot: &sofbyz::obs::MetricsSnapshot, name: &str) -> (u64, f64) {
    match snapshot.get(name) {
        Some(MetricValue::Summary { count, sum, .. }) if *count > 0 => {
            (*count, *sum as f64 / *count as f64)
        }
        _ => (0, 0.0),
    }
}

/// Median in-process `submit` → `wait_reply` time on one variant, ms.
fn submit_to_reply_ms(kind: ProtocolKind, seed: u64, out: &mut Outcome) -> f64 {
    const OPS: usize = 40;
    let mut svc = runtime::spawn_live_kv(kind, &knobs(seed), 1.0);
    let mut ops = OpStream::new(seed);
    let mut ms = Vec::with_capacity(OPS);
    for _ in 0..OPS {
        let op = layers::kv_op(&ops.next_op().line);
        let t0 = Instant::now();
        let id = svc.submit(sofbyz::proto::codec::Encode::to_bytes(&op));
        out.attempted += 1;
        match svc.wait_reply(id, REPLY_TIMEOUT) {
            Some(_) => ms.push(t0.elapsed().as_secs_f64() * 1e3),
            None => out.fail(format!("{kind}: in-process op got no reply")),
        }
    }
    let run = svc.shutdown();
    out.check(
        "in-process accounting",
        if run.executed_ops == OPS as u64 {
            Ok(())
        } else {
            Err(format!("{kind}: executed {}", run.executed_ops))
        },
    );
    stats::median(&ms)
}

/// Median connect-per-op round trip (what `sofb call` does), ms.
fn call_roundtrip_ms(seed: u64, out: &mut Outcome) -> f64 {
    const CALLS: usize = 20;
    let node = match start_node(ProtocolKind::Sc, seed) {
        Ok(n) => n,
        Err(e) => {
            out.check("call node", Err(e.to_string()));
            return 0.0;
        }
    };
    let mut ops = OpStream::new(seed);
    let mut ms = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let Op { line, expect } = ops.next_op();
        let t0 = Instant::now();
        let reply = runtime::call(node.addr, line.trim_end(), REPLY_TIMEOUT);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.check(
            "call",
            match reply {
                Ok(r) if r == expect => Ok(()),
                Ok(r) => Err(format!("answered `{r}`")),
                Err(e) => Err(e.to_string()),
            },
        );
    }
    let bye = runtime::call(node.addr, "shutdown", REPLY_TIMEOUT);
    out.check(
        "call node shutdown",
        bye.map(|_| ()).map_err(|e| e.to_string()),
    );
    let _ = node.server.join();
    stats::median(&ms)
}

/// Ops per committed batch, estimated from the node's own record: the
/// `LiveTrace` stamps every submission but not the batch it joined, so
/// submissions less than a third of the batching interval apart are
/// taken to share a batch tick and a longer gap to start a new batch.
fn ops_per_batch(submitted_at_ns: &[u64]) -> f64 {
    let gap = INTERVAL_MS * 1_000_000 / 3;
    let batches = 1 + submitted_at_ns
        .windows(2)
        .filter(|w| w[1] - w[0] > gap)
        .count();
    submitted_at_ns.len() as f64 / batches as f64
}

/// The traced run: half the window untraced for reference, half with
/// the runtime's profiler on and a span per request, plus the
/// per-layer measurements this workload owns.
pub fn run_traced(w: Workload, seed: u64, seconds: f64, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let half = Duration::from_secs_f64(seconds / 2.0);

    let setup = rec.begin("setup", None);
    let opened = open_session(seed);
    rec.end(setup);
    let mut s = match opened {
        Ok(s) => s,
        Err(e) => {
            out.check("set-up", Err(e));
            return out;
        }
    };
    let warm = closed_loop(&mut s.conn, &mut s.ops, &mut s.seq, WARMUP);
    absorb(&mut out, &warm);
    let reference = load_loop(w, &mut s.conn, &mut s.ops, &mut s.seq, half);
    absorb(&mut out, &reference);

    if w == Workload::LiveClosed {
        out.set("runtime.spawn_ms", s.node.spawn_s * 1e3);
        for (kind, short) in ProtocolKind::ALL.into_iter().zip(VARIANT_SHORT) {
            let ms = submit_to_reply_ms(kind, seed, &mut out);
            out.set(format!("runtime.{short}.submit_to_reply_ms"), ms);
        }
        let ms = call_roundtrip_ms(seed, &mut out);
        out.set("runtime.call_roundtrip_ms", ms);
        layers::app(&mut out, seed);
    }

    runtime::enable_profiling();
    let root = rec.begin("workload", None);
    let measure = rec.begin("loadgen.measure", None);
    let traced = load_loop(w, &mut s.conn, &mut s.ops, &mut s.seq, half);
    let track = if w == Workload::LiveClosed {
        MAIN
    } else {
        IN_FLIGHT
    };
    for sample in &traced.samples {
        rec.closed(
            "runtime.request",
            sample.from,
            sample.done,
            sample.seq,
            track,
        );
    }
    rec.end(measure);
    rec.end(root);
    let profile = runtime::profile_snapshot().expect("profiling was just enabled");
    absorb(&mut out, &traced);
    rec.count("ok_replies", traced.ok());

    let closed = close_session(s, &mut out);

    let per_op = |l: &Load| l.window_s / l.ok().max(1) as f64;
    out.set(
        "bench.trace_overhead_ratio",
        per_op(&traced) / per_op(&reference),
    );
    let lat = traced.latencies_ms();
    out.info.push((
        "traced_ops_per_s",
        traced.ok() as f64 / traced.window_s,
        "1/s",
    ));
    out.info
        .push(("traced_latency_p50_ms", stats::percentile(&lat, 50.0), "ms"));
    match w {
        Workload::LiveClosed => {
            let (lines, handle_ns) = summary_mean(&profile, "live.handle_line_ns");
            let (_, drive_ns) = summary_mean(&profile, "live.node_drive_ns");
            let (polls, apply_ns) = summary_mean(&profile, "live.commit_apply_ns");
            out.set("runtime.handle_line_ms", handle_ns / 1e6);
            out.set("runtime.node_drive_us", drive_ns / 1e3);
            out.set("runtime.commit_apply_us", apply_ns / 1e3);
            out.set("runtime.polls_per_op", polls as f64 / lines.max(1) as f64);
            out.set(
                "runtime.socket_gap_ms",
                stats::percentile(&lat, 50.0) - handle_ns / 1e6,
            );
            out.set("runtime.shutdown_ms", closed.shutdown_s * 1e3);
            out.set("runtime.cross_validate_ms", closed.cross_validate_s * 1e3);
        }
        Workload::LiveOpen => out.set("loadgen.late_ms_p95", late_ms_p95(&traced)),
        Workload::LiveFlood => {
            // The traced window's ops are the last ones the node saw.
            let all = &closed.submitted_at_ns;
            let window = &all[all.len().saturating_sub(traced.attempted as usize)..];
            out.set("runtime.ops_per_batch", ops_per_batch(window));
        }
        _ => unreachable!("live workloads only"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_of_32_admits_32_and_frees_in_fifo_order() {
        let mut w: InFlight<u32> = InFlight::new(FLOOD_WINDOW);
        for i in 0..32 {
            assert!(w.has_room());
            w.sent(i);
        }
        assert!(!w.has_room());
        assert_eq!(w.replied(), Some(0));
        assert!(w.has_room());
        w.sent(32);
        assert!(!w.has_room());
        let rest: Vec<u32> = std::iter::from_fn(|| w.replied()).collect();
        assert_eq!(rest, (1..=32).collect::<Vec<_>>());
        assert_eq!(w.replied(), None);
    }

    #[test]
    #[should_panic(expected = "window of 2 overrun")]
    fn window_refuses_a_send_past_its_limit() {
        let mut w: InFlight<u8> = InFlight::new(2);
        w.sent(1);
        w.sent(2);
        w.sent(3);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let load = Load {
            samples: vec![
                // Sent on time, answered 20 ms later.
                Sample {
                    seq: 1,
                    from: t0 + ms(100),
                    sent: t0 + ms(100),
                    done: t0 + ms(120),
                },
                // Due at 110 but sent 5 ms late: the wait counts.
                Sample {
                    seq: 2,
                    from: t0 + ms(110),
                    sent: t0 + ms(115),
                    done: t0 + ms(140),
                },
            ],
            ..Load::default()
        };
        let lat = load.latencies_ms();
        assert!(
            (lat[0] - 20.0).abs() < 1e-9 && (lat[1] - 30.0).abs() < 1e-9,
            "{lat:?}"
        );
        assert!((late_ms_p95(&load) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ops_per_batch_groups_submissions_within_a_tick() {
        let ms = |v: &[u64]| v.iter().map(|m| m * 1_000_000).collect::<Vec<u64>>();
        // One submission per 15 ms tick: one op per batch.
        assert_eq!(ops_per_batch(&ms(&[15, 30, 45])), 1.0);
        // Two ticks, three submissions each.
        assert_eq!(ops_per_batch(&ms(&[15, 15, 16, 30, 31, 31])), 3.0);
        assert_eq!(ops_per_batch(&[]), 0.0);
    }
}
