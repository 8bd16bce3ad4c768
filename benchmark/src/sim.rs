//! The simulator-host workloads: a frozen `.scn` grid run through the
//! same calls `sofb run` makes (`Spec::parse` → `Spec::grid` →
//! `scenario::run_grid` on one grid worker → `report::render`).
//!
//! An untraced run measures whole passes of the grid for `--seconds`
//! and checks every pass; a traced run replaces the single `run_grid`
//! call by its public stages with a span around each, and measures the
//! per-layer metrics its workload owns.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use sofbyz::bft::sim::BftProtocol;
use sofbyz::core::sim::ScProtocol;
use sofbyz::ct::sim::CtProtocol;
use sofbyz::harness::{
    analysis, ClientSpec, Deployment, Protocol, ProtocolEvent, ProtocolKind, WorldBuilder,
};
use sofbyz::scenario::{self, GridCell, GridReport, Report, Scenario, ScenarioError, SweepGrid};
use sofbyz::sim::engine::TimedEvent;
use sofbyz::spec::{report as spec_report, Spec};

use alloc_counter::allocations;

use crate::common::{nproc, peak_rss_mb, timed, Outcome};
use crate::decl::{Workload, DEFAULT_SEED, VARIANT_PREFIX};
use crate::spans::Recorder;
use crate::{gen, layers, pins, stats};

/// Set-up repeats per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 101;

type Log = Vec<TimedEvent<ProtocolEvent>>;

/// A workload's grid, ready to run.
pub struct Prepared {
    pub text: String,
    pub spec: Spec,
    pub grid: SweepGrid,
    pub cells: Vec<GridCell>,
}

impl Prepared {
    fn meta<'a>(&'a self, spec_name: &'a str) -> spec_report::ReportMeta<'a> {
        spec_report::ReportMeta {
            spec: spec_name,
            title: self.spec.title.as_deref(),
            smoke: false,
        }
    }
}

/// The set-up a user of `sofb run` pays before the first point runs:
/// read the spec, parse it, lower it to a grid and expand the cells.
pub fn prepare(w: Workload, seed: u64) -> Result<Prepared, String> {
    let path = gen::frozen_spec_path(w);
    let frozen = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let text = gen::scn_text(w, &frozen, seed);
    let spec = Spec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let grid = spec.grid(false).map_err(|e| format!("{path}: {e}"))?;
    let cells = grid.cells().map_err(|e| format!("{path}: {e}"))?;
    Ok(Prepared {
        text,
        spec,
        grid,
        cells,
    })
}

fn median_setup(w: Workload, seed: u64) -> Result<(f64, Prepared), String> {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (s, p) = timed(|| prepare(w, seed));
        samples.push(s);
        last = Some(p?);
    }
    Ok((stats::median(&samples), last.expect("at least one set-up")))
}

/// The safety oracles over one point's observation log: total order
/// within each ordering group, every request committed exactly once.
fn oracles(s: &Scenario, log: &[TimedEvent<ProtocolEvent>]) -> Result<(), String> {
    let per_shard = s.nodes_per_shard();
    if s.shards == 1 {
        analysis::check_total_order(log)?;
    } else {
        // Only commits bear on total order; the rest of a sharded
        // world's log is far larger and need not be copied.
        for shard in 0..s.shards {
            let part: Log = log
                .iter()
                .filter(|e| matches!(e.event, ProtocolEvent::Committed { .. }))
                .filter(|e| e.node / per_shard == shard)
                .cloned()
                .collect();
            analysis::check_total_order(&part).map_err(|e| format!("shard {shard}: {e}"))?;
        }
    }
    analysis::check_exactly_once(log, per_shard)
}

/// One pass of the grid with the oracles applied to every point's log.
/// Doubles as the warm-up pass; its report is what measured passes and
/// the pins are compared against.
fn verified_pass(p: &Prepared, out: &mut Outcome) -> Option<GridReport> {
    let broken: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let runner = |s: &Scenario| -> Result<Report, ScenarioError> {
        let (report, log) = scenario::run_traced(s)?;
        if let Err(e) = oracles(s, &log) {
            broken.lock().expect("oracle list").push(e);
        }
        Ok(report)
    };
    out.attempted += p.cells.len() as u64;
    let pass = catch_unwind(AssertUnwindSafe(|| p.grid.run_with(1, runner)));
    for e in broken.into_inner().expect("oracle list") {
        out.fail(format!("oracle: {e}"));
    }
    match pass {
        Ok(Ok(report)) => Some(report),
        Ok(Err(e)) => {
            out.fail(format!("verification pass: {e}"));
            None
        }
        Err(_) => {
            out.fail("verification pass panicked (safety violated inside the run)".to_string());
            None
        }
    }
}

/// One measured pass: what `wall_s` times.
struct Pass {
    wall_s: f64,
    allocs: u64,
    report: GridReport,
    rendered: String,
}

fn measured_pass(p: &Prepared, spec_name: &str, workers: usize) -> Result<Pass, String> {
    let pass = catch_unwind(AssertUnwindSafe(|| {
        let a0 = allocations();
        let t0 = Instant::now();
        let report = scenario::run_grid(&p.grid, workers)?;
        let rendered = spec_report::render(&report, p.meta(spec_name));
        let wall_s = t0.elapsed().as_secs_f64();
        Ok::<Pass, ScenarioError>(Pass {
            wall_s,
            allocs: allocations() - a0,
            report,
            rendered,
        })
    }));
    match pass {
        Ok(Ok(pass)) => Ok(pass),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("pass panicked (safety violated inside the run)".to_string()),
    }
}

/// The size of one pass in ops: engine events processed (an exact count).
fn engine_events(r: &GridReport) -> u64 {
    r.points
        .iter()
        .map(|p| p.report.engine.events_processed)
        .sum()
}

/// Checks the default seed's statistics against the committed pin.
fn check_pins(w: Workload, seed: u64, reference: &GridReport, out: &mut Outcome) {
    if seed != DEFAULT_SEED {
        return;
    }
    let path = pins::path(w, seed);
    let result = std::fs::read_to_string(&path)
        .map_err(|e| format!("{path}: {e}"))
        .and_then(|pinned| pins::check(&pinned, &pins::render(w, seed, reference)));
    out.check("pinned simulated statistics", result);
}

/// The tracing-off run: end-to-end metrics over whole passes.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, p) = match median_setup(w, seed) {
        Ok(x) => x,
        Err(e) => {
            out.check("set-up", Err(e));
            return out;
        }
    };
    let spec_name = gen::frozen_spec_path(w);
    let Some(reference) = verified_pass(&p, &mut out) else {
        return out;
    };
    check_pins(w, seed, &reference, &mut out);

    let mut passes: Vec<Pass> = Vec::new();
    let t0 = Instant::now();
    loop {
        out.attempted += p.cells.len() as u64;
        match measured_pass(&p, &spec_name, 1) {
            Ok(pass) => {
                // Run-twice identity: same seed, same simulated results.
                if !pass.report.same_results(&reference) {
                    out.fail(format!(
                        "pass {} differs from the verified pass",
                        passes.len() + 1
                    ));
                }
                passes.push(pass);
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
        // Stop at the whole number of passes nearest to `seconds`.
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / passes.len() as f64 >= seconds {
            break;
        }
    }
    let rss = peak_rss_mb();

    let events = engine_events(&reference) as f64;
    // Medians over passes: a disturbance of the host that lasts part of
    // one pass is voted out instead of averaged in.
    let over = |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let wall_s = over(&|pass| pass.wall_s);
    out.set("setup_s", setup_s);
    out.set("ops_per_s", over(&|pass| events / pass.wall_s));
    // The request a user of `sofb run` waits for is the whole grid. A
    // run holds 3 to 12 of them, which supports a median and no
    // percentile beyond it, so both latency names carry that median.
    out.set("latency_p50_ms", wall_s * 1e3);
    out.set("latency_p95_ms", wall_s * 1e3);
    out.set("allocs_per_op", over(&|pass| pass.allocs as f64 / events));
    out.set("peak_rss_mb", rss);
    // The same readings under the issue's simulator-only names.
    out.info = vec![
        ("passes", passes.len() as f64, "count"),
        ("points_per_pass", p.cells.len() as f64, "count"),
        ("events_per_pass", events, "count"),
        ("wall_s", wall_s, "s"),
        ("events_per_s", out.metrics["ops_per_s"], "1/s"),
        ("allocs_per_event", out.metrics["allocs_per_op"], "count"),
    ];
    out
}

/// `run.sh repin`: the pin text for the default seed, after the oracles.
pub fn pin_text(w: Workload) -> Result<String, String> {
    let p = prepare(w, DEFAULT_SEED)?;
    let mut out = Outcome::default();
    let reference = verified_pass(&p, &mut out);
    match (reference, out.failures.first()) {
        (Some(r), None) => Ok(pins::render(w, DEFAULT_SEED, &r)),
        (_, Some(e)) => Err(e.clone()),
        (None, None) => Err("verification pass produced no report".to_string()),
    }
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// The flat-world lowering `Scenario::run_as` performs, through the
/// public builder: what makes a fault-free single-shard point
/// reproducible stage by stage from outside.
pub fn assemble<P: Protocol>(s: &Scenario) -> Deployment<P> {
    let stop = s.window.end();
    let mut b = WorldBuilder::<P>::new(s.knobs.f)
        .knobs(s.knobs.clone())
        .cpu(s.cpu)
        .lan_link(s.links.lan.clone())
        .pair_link(s.links.pair.clone());
    for c in &s.clients {
        let spec = ClientSpec::new(c.rate_per_sec, c.request_size, stop);
        b = b.client_population(spec, c.arrival, c.population);
    }
    b.build()
}

/// The measurement pass `summarize` makes over a log, through the
/// public `analysis` functions.
pub fn analyse(s: &Scenario, log: &[TimedEvent<ProtocolEvent>]) -> Result<(), String> {
    oracles(s, log)?;
    let (warmup, end) = (s.window.warmup(), s.window.end());
    black_box(analysis::order_latencies(log));
    black_box(analysis::latency_histogram_censored(
        log,
        warmup,
        end,
        s.window.horizon(),
    ));
    black_box(analysis::throughput_per_process(log, warmup, end));
    black_box(analysis::failover_latency_ms(log));
    Ok(())
}

/// What one staged point did.
struct Staged {
    events: u64,
    log_len: usize,
    run_s: f64,
}

fn staged_as<P: Protocol>(
    rec: &mut Recorder,
    s: &Scenario,
    i: u64,
    run_span: &'static str,
) -> Result<Staged, String> {
    let span = rec.begin("sofb-harness.validate", Some(i));
    s.validate().map_err(|e| e.to_string())?;
    rec.end(span);
    let span = rec.begin("sofb-harness.assemble", Some(i));
    let mut d = assemble::<P>(s);
    d.start();
    rec.end(span);
    let span = rec.begin(run_span, Some(i));
    d.run_until(s.window.horizon());
    let run_s = rec.end(span);
    let span = rec.begin("sofb-harness.analysis", Some(i));
    let log = d.world.drain_events();
    analyse(s, &log)?;
    rec.end(span);
    Ok(Staged {
        events: d.world.processed(),
        log_len: log.len(),
        run_s,
    })
}

fn variant_index(kind: ProtocolKind) -> usize {
    ProtocolKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("ALL lists every kind")
}

/// Runs one point under spans: stage by stage where the lowering is
/// reproducible through `WorldBuilder` (fault-free, single shard), and
/// as one span around `scenario::run_traced` plus a separately timed
/// analysis elsewhere.
fn staged_point(rec: &mut Recorder, s: &Scenario, i: u64) -> Result<Staged, String> {
    let point = rec.begin("point", Some(i));
    let staged = if s.faults.is_empty() && s.shards == 1 {
        match s.kind {
            ProtocolKind::Sc => staged_as::<ScProtocol>(rec, s, i, "sofb-core.sc.run_until"),
            ProtocolKind::Scr => staged_as::<ScProtocol>(rec, s, i, "sofb-core.scr.run_until"),
            ProtocolKind::Bft => staged_as::<BftProtocol>(rec, s, i, "sofb-bft.run_until"),
            ProtocolKind::Ct => staged_as::<CtProtocol>(rec, s, i, "sofb-ct.run_until"),
        }
    } else {
        let span = rec.begin("sofb-harness.run_traced", Some(i));
        let traced = catch_unwind(AssertUnwindSafe(|| scenario::run_traced(s)))
            .map_err(|_| "run_traced panicked (safety violated)".to_string())
            .and_then(|r| r.map_err(|e| e.to_string()));
        let run_s = rec.end(span);
        traced.and_then(|(report, log)| {
            let span = rec.begin("sofb-harness.analysis", Some(i));
            analyse(s, &log)?;
            rec.end(span);
            Ok(Staged {
                events: report.engine.events_processed,
                log_len: log.len(),
                run_s,
            })
        })
    };
    rec.end(point);
    staged
}

/// The traced run: a discarded warm-up pass and an untraced reference
/// pass (the same code the end-to-end run times), then the grid again
/// point by point under spans, then the per-layer measurements this
/// workload owns.
pub fn run_traced(w: Workload, seed: u64, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let spec_name = gen::frozen_spec_path(w);

    let span = rec.begin("setup", None);
    let inner = rec.begin("sofb-spec.parse+grid", None);
    let prepared = prepare(w, seed);
    rec.end(inner);
    rec.end(span);
    let p = match prepared {
        Ok(p) => p,
        Err(e) => {
            out.check("set-up", Err(e));
            return out;
        }
    };
    let cells = &p.cells;

    // The first pass of a process runs cold (about a fifth slower here):
    // discarded, so the overhead ratio compares two warm passes.
    out.attempted += 2 * p.cells.len() as u64;
    let reference =
        match measured_pass(&p, &spec_name, 1).and_then(|_| measured_pass(&p, &spec_name, 1)) {
            Ok(pass) => pass,
            Err(e) => {
                out.fail(e);
                return out;
            }
        };
    check_pins(w, seed, &reference.report, &mut out);

    let root = rec.begin("workload", None);
    let mut staged = Vec::with_capacity(cells.len());
    for cell in cells {
        out.attempted += 1;
        match staged_point(rec, &cell.scenario, cell.index as u64) {
            Ok(st) => {
                // The traced pass must have done the untraced pass's work.
                let want = reference.report.points[cell.index]
                    .report
                    .engine
                    .events_processed;
                if st.events != want {
                    out.fail(format!(
                        "point {}: traced pass processed {} events, untraced {want}",
                        cell.index, st.events
                    ));
                }
                rec.count("points", 1);
                rec.count("engine_events", st.events);
                rec.count("observed_events", st.log_len as u64);
                staged.push(st);
            }
            Err(e) => out.fail(format!("point {}: {e}", cell.index)),
        }
    }
    let span = rec.begin("sofb-spec.render", None);
    black_box(spec_report::render(&reference.report, p.meta(&spec_name)));
    rec.end(span);
    let traced_wall_s = rec.end(root);

    out.set(
        "bench.trace_overhead_ratio",
        traced_wall_s / reference.wall_s,
    );
    out.info = vec![
        ("untraced_wall_s", reference.wall_s, "s"),
        ("traced_wall_s", traced_wall_s, "s"),
    ];
    if staged.len() == cells.len() {
        match w {
            Workload::SimSteady => steady_layers(&mut out, rec, cells, &staged, &reference),
            Workload::SimFailoverGrid => grid_layers(&mut out, &p, &spec_name, &reference),
            Workload::SimSharded => sharded_layers(&mut out, &cells[0].scenario, &reference),
            _ => unreachable!("sim::run_traced runs sim workloads"),
        }
    }
    out
}

/// `sim_steady` owns the engine, codec, crypto and per-variant layers.
fn steady_layers(
    out: &mut Outcome,
    rec: &mut Recorder,
    cells: &[GridCell],
    staged: &[Staged],
    reference: &Pass,
) {
    const STAT: [&str; 4] = [
        "order_latency_p50_ms",
        "order_latency_p99_ms",
        "throughput_req_s",
        "msgs_per_batch",
    ];
    // Per variant: host ns per engine event over the 300 sim-s point,
    // the same over a 30 sim-s twin, and the exact simulated statistics.
    let span = rec.begin("long_run_reference", None);
    for (cell, st) in cells.iter().zip(staged) {
        let v = VARIANT_PREFIX[variant_index(cell.scenario.kind)];
        let long = st.run_s * 1e9 / st.events as f64;
        out.set(format!("{v}.ns_per_event"), long);
        let mut short = cell.scenario.clone();
        short.window.run_s = 30;
        // Two short runs, the faster kept: a 0.1 s timing is easily disturbed.
        let short_ns = (0..2)
            .filter_map(|_| staged_point(rec, &short, cell.index as u64).ok())
            .map(|s| s.run_s * 1e9 / s.events as f64)
            .fold(f64::INFINITY, f64::min);
        out.set(format!("{v}.long_run_slowdown"), long / short_ns);

        let r = &reference.report.points[cell.index].report;
        let stats = [
            r.global.p50_ms.unwrap_or(0.0),
            r.global.p99_ms.unwrap_or(0.0),
            r.aggregate_throughput,
            r.msgs_per_batch,
        ];
        for (suffix, value) in STAT.iter().zip(stats) {
            out.set(format!("{v}.{suffix}"), value);
        }
    }
    rec.end(span);

    let reports = || reference.report.points.iter().map(|p| &p.report);
    let events = engine_events(&reference.report) as f64;
    let heap: u64 = reports().map(|r| r.engine.heap_pushes).sum();
    out.set("sofb-sim.events", events);
    out.set("sofb-sim.heap_pushes_per_event", heap as f64 / events);
    out.set(
        "sofb-sim.arena_high_water",
        reports()
            .map(|r| r.engine.arena_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set(
        "sofb-sim.timer_cascades",
        reports()
            .map(|r| r.metrics.counter("engine.timer_cascades").unwrap_or(0))
            .sum::<u64>() as f64,
    );

    let span = rec.begin("layer_microbenchmarks", None);
    layers::crypto(out);
    layers::proto(out);
    layers::engine(out);
    layers::obs(out, &cells[0].scenario);
    rec.end(span);
}

/// `sim_failover_grid` owns the per-point overhead layers: spec,
/// harness assembly and analysis, grid fan-out, and the fail-over path.
fn grid_layers(out: &mut Outcome, p: &Prepared, spec_name: &str, reference: &Pass) {
    for (kind, name) in [
        (ProtocolKind::Sc, "sofb-core.sc.failover_ms_mean"),
        (ProtocolKind::Scr, "sofb-core.scr.failover_ms_mean"),
    ] {
        let ms: Vec<f64> = reference
            .report
            .points
            .iter()
            .filter(|pt| pt.scenario.kind == kind)
            .filter_map(|pt| pt.report.failover_ms)
            .collect();
        out.set(name, ms.iter().sum::<f64>() / ms.len().max(1) as f64);
    }

    // Grid fan-out: the same grid on every core against the one-worker
    // reference pass.
    out.attempted += p.cells.len() as u64;
    match measured_pass(p, spec_name, nproc()) {
        Ok(wide) => {
            if !wide.report.same_results(&reference.report) {
                out.fail(format!("grid on {} workers differs from 1 worker", nproc()));
            }
            out.set("sofb-harness.grid_speedup", reference.wall_s / wide.wall_s);
        }
        Err(e) => out.fail(e),
    }

    layers::spec(
        out,
        &p.text,
        &reference.report,
        &reference.rendered,
        p.meta(spec_name),
    );
    // The fault-free twin of the grid's first point: what every one of
    // the 600 points pays outside its `run_until`.
    let mut twin = reference.report.points[0].scenario.clone();
    twin.faults.clear();
    layers::harness(out, &twin);
}

/// `sim_sharded` owns the conservative-PDES speed-up: the same world on
/// one world worker against the reference pass's two.
fn sharded_layers(out: &mut Outcome, base: &Scenario, reference: &Pass) {
    let serial = base.clone().world_workers(1);
    out.attempted += 1;
    let (wall_s, report) = timed(|| catch_unwind(AssertUnwindSafe(|| scenario::run(&serial))));
    match report {
        Ok(Ok(r)) if r == reference.report.points[0].report => {
            out.set("sofb-harness.parallel_speedup", wall_s / reference.wall_s);
        }
        Ok(Ok(_)) => out.fail("1 world worker and 2 produced different reports".to_string()),
        Ok(Err(e)) => out.fail(e.to_string()),
        Err(_) => out.fail("1-world-worker run panicked".to_string()),
    }
}
