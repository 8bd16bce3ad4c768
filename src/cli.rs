//! The `sofb` command line: run data-driven scenario specs.
//!
//! ```sh
//! sofb run specs/saturation.scn --smoke       # run the CI-sized grid, JSON to stdout
//! sofb run specs/fig6.scn --out FIG6.json     # run and write the grid report
//! sofb run specs/fig6.scn --check FIG6.json   # regenerate and diff at 1e-9
//! sofb run specs/fig6.scn --dry-run           # parse + validate + expand only
//! sofb trace specs/fig6.scn --out trace.json  # Perfetto-loadable span trace
//! sofb list specs                             # validate and summarize a spec directory
//! ```
//!
//! The logic lives here (not in `src/bin/sofb.rs`) so the error paths
//! are unit-testable: every failure — unreadable file, spec defect,
//! scenario defect, drifted check — is a typed [`CliError`] whose
//! `Display` names the file and (for spec defects) the line, and the
//! binary exits non-zero with that message. Nothing in this module
//! panics on bad input.
//!
//! This command lives in the umbrella crate because running a spec
//! needs the `ProtocolKind` → `Protocol` dispatch, which only the
//! umbrella sees (the protocol crates sit above `sofb-harness` and
//! `sofb-spec`).

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

use sofb_obs::{chrome, json, summary, write_atomic, TraceConfig};
use sofb_spec::report::{self, ReportMeta};
use sofb_spec::{Spec, SpecError};

use crate::fuzz::{self, FuzzOptions, Oracle};
use crate::runtime;
use crate::scenario::{default_workers, run_grid, run_observed, ScenarioError};

/// A failed `sofb` invocation. The binary prints the `Display` form and
/// exits non-zero (2 for usage errors, 1 for everything else).
#[derive(Clone, Debug)]
pub enum CliError {
    /// The arguments do not form a valid invocation.
    Usage(String),
    /// A file or directory could not be read or written.
    Io {
        /// The path that failed.
        path: String,
        /// The operating system's complaint.
        error: String,
    },
    /// The spec file is malformed (line-numbered).
    Spec {
        /// The spec file.
        path: String,
        /// The line-numbered defect.
        error: SpecError,
    },
    /// The spec parsed but lowers onto an invalid scenario, or the run
    /// itself failed (field-named).
    Scenario {
        /// The spec file.
        path: String,
        /// The field-named defect.
        error: ScenarioError,
    },
    /// `--check` found drift beyond the 1e-9 tolerance.
    CheckFailed {
        /// The committed report compared against.
        path: String,
        /// The drift list.
        detail: String,
    },
    /// `sofb list` found invalid specs.
    InvalidSpecs {
        /// How many files failed.
        count: usize,
        /// One `path: error` line per failure.
        detail: String,
    },
    /// A live (`serve`/`call`) invocation failed: an unservable spec, a
    /// rejected wire command, or a cross-validation mismatch.
    Live {
        /// What was being attempted (spec path or node address).
        context: String,
        /// What went wrong.
        detail: String,
    },
    /// `sofb fuzz` found oracle violations (each one shrunk and written
    /// as a repro spec before this is returned).
    FuzzViolations {
        /// How many shrunk violations were found.
        count: usize,
        /// One `oracle: error (repro path)` line per violation.
        detail: String,
    },
    /// `sofb fuzz --replay` could not reproduce a repro spec's pinned
    /// verdict.
    Replay {
        /// The repro spec.
        path: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Io { path, error } => write!(f, "{path}: {error}"),
            CliError::Spec { path, error } => write!(f, "{path}: {error}"),
            CliError::Scenario { path, error } => write!(f, "{path}: {error}"),
            CliError::CheckFailed { path, detail } => {
                write!(f, "check FAILED against {path}:\n{detail}")
            }
            CliError::InvalidSpecs { count, detail } => {
                write!(f, "{count} invalid spec(s):\n{detail}")
            }
            CliError::Live { context, detail } => write!(f, "{context}: {detail}"),
            CliError::FuzzViolations { count, detail } => {
                write!(f, "fuzz found {count} violation(s):\n{detail}")
            }
            CliError::Replay { path, detail } => write!(f, "{path}: {detail}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Spec { error, .. } => Some(error),
            CliError::Scenario { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// The usage text `sofb` prints on argument errors and `sofb help`.
pub const USAGE: &str = "\
sofb — run data-driven scenario specs (.scn)

USAGE:
    sofb run <spec.scn> [--smoke] [--dry-run] [--workers N] [--world-workers N]
                        [--out FILE] [--check FILE] [--profile]
    sofb trace <spec.scn> [--out FILE] [--format chrome|summary]
                          [--world-workers N]
    sofb serve <spec.scn> [--addr A] [--for-ms N] [--time-scale X]
                          [--trace FILE] [--cross-validate] [--profile]
    sofb call <addr> <op> [args…]
    sofb fuzz <base.scn> [--runs N] [--seed S] [--smoke] [--oracle NAME]
                         [--out-dir DIR]
    sofb fuzz --replay <repro.scn>
    sofb list [dir]          (default dir: specs; recurses, skipping bad/)
    sofb help

run flags:
    --smoke        apply the spec's [smoke] reduction (CI-sized grid)
    --dry-run      parse, validate and expand only; print the point labels
    --workers N    grid worker threads (default: min(cores, 4); results identical)
    --world-workers N
                   threads that run a multi-shard point's per-shard engines
                   (overrides the spec's `world_workers`; unset runs them
                   inline, like 1; results identical at any count)
    --out FILE     write the grid-report JSON to FILE instead of stdout
                   (written atomically: temp file + rename)
    --check FILE   regenerate and compare against FILE at 1e-9 (wall excluded)
                   (--out and --check are mutually exclusive)
    --profile      print each point's engine metrics snapshot to stderr

trace — run the spec's base scenario once with structured tracing on
(engine dispatch/deliver/fault records plus derived protocol phase
spans) and emit the trace; the spec's [trace] section, if any, supplies
the node/phase/sample filters:
    --out FILE     write the trace to FILE (atomically) instead of stdout
    --format F     chrome (default): Chrome trace-event JSON, loadable in
                   Perfetto — one process per node, spans nested by
                   causality, instant events for faults;
                   summary: an aligned per-phase count/busy-time table
    --world-workers N
                   shard worker threads; the emitted trace is bit-identical
                   at any count

serve — run the spec's protocol on wall-clock threads, serving the KV
store over TCP (single-shard, fault-free specs only; [client] load is
replaced by real calls):
    --addr A           listen address (default: 127.0.0.1:4780)
    --for-ms N         serve for N ms, then shut down (default: until a
                       `sofb call <addr> shutdown`)
    --time-scale X     stretch protocol timer delays by X (default: 1.0)
    --trace FILE       write the recorded live trace (sofb-live-trace/v1;
                       written atomically)
    --cross-validate   after shutdown, replay the recorded trace through
                       the simulator on all four variants and fail unless
                       every commit order matches the live run
    --profile          sample wall-clock timings (node drive callbacks,
                       wire-command handling, commit application) and
                       print the metrics snapshot at shutdown

call — one request against a serving node; plain-text arguments are
hex-encoded on the wire:
    sofb call 127.0.0.1:4780 put alice 100
    ops: put K V | get K | del K | cas K EXPECT NEW | digest | shutdown

fuzz — mutate the spec's base scenario along every adversarial axis
(crash/mute/delay windows, Byzantine order corruption, partition-shaped
mutes, message duplication/reordering, client load, seed), check the
safety oracles on every run, and shrink + emit any violation as a repro
spec:
    --runs N       mutants to generate and run (default: 64)
    --seed S       campaign seed; one seed reproduces one campaign
                   exactly (default: 1)
    --smoke        CI-sized budget (caps --runs at 8)
    --oracle NAME  check one oracle instead of the default two
                   (total_order, exactly_once, commit_cap:N)
    --out-dir DIR  where shrunk repros are written (default: specs/repros)
    --replay       re-run the repro spec once and assert its pinned
                   [meta] verdict (excludes every other flag)";

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        error: e.to_string(),
    })
}

/// One parsed `sofb run` invocation.
struct RunArgs {
    spec_path: String,
    smoke: bool,
    dry_run: bool,
    workers: usize,
    world_workers: Option<usize>,
    out: Option<String>,
    check: Option<String>,
    profile: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, CliError> {
    let mut run = RunArgs {
        spec_path: String::new(),
        smoke: false,
        dry_run: false,
        workers: default_workers(),
        world_workers: None,
        out: None,
        check: None,
        profile: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => run.smoke = true,
            "--dry-run" => run.dry_run = true,
            "--workers" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--workers needs a value"))?;
                run.workers = v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    usage_err(format!("--workers: `{v}` is not a positive integer"))
                })?;
            }
            "--world-workers" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--world-workers needs a value"))?;
                run.world_workers =
                    Some(v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        usage_err(format!("--world-workers: `{v}` is not a positive integer"))
                    })?);
            }
            "--out" => {
                run.out = Some(
                    it.next()
                        .ok_or_else(|| usage_err("--out needs a file path"))?
                        .clone(),
                );
            }
            "--check" => {
                run.check = Some(
                    it.next()
                        .ok_or_else(|| usage_err("--check needs a file path"))?
                        .clone(),
                );
            }
            "--profile" => run.profile = true,
            flag if flag.starts_with('-') => {
                return Err(usage_err(format!("unknown flag `{flag}`")));
            }
            path if run.spec_path.is_empty() => run.spec_path = path.to_string(),
            extra => return Err(usage_err(format!("unexpected extra argument `{extra}`"))),
        }
    }
    if run.spec_path.is_empty() {
        return Err(usage_err("sofb run needs a spec file"));
    }
    if run.dry_run && (run.out.is_some() || run.check.is_some()) {
        return Err(usage_err("--dry-run excludes --out and --check"));
    }
    if run.out.is_some() && run.check.is_some() {
        // One verifies against a committed file, the other replaces it —
        // honoring both would either gate against a file being rewritten
        // or silently drop one flag.
        return Err(usage_err("--out and --check are mutually exclusive"));
    }
    Ok(run)
}

/// Output renderings `sofb trace` knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TraceFormat {
    /// Chrome trace-event JSON (Perfetto-loadable).
    Chrome,
    /// Aligned per-phase count/busy-time table.
    Summary,
}

/// One parsed `sofb trace` invocation.
struct TraceArgs {
    spec_path: String,
    out: Option<String>,
    format: TraceFormat,
    world_workers: Option<usize>,
}

fn parse_trace_args(args: &[String]) -> Result<TraceArgs, CliError> {
    let mut tr = TraceArgs {
        spec_path: String::new(),
        out: None,
        format: TraceFormat::Chrome,
        world_workers: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                tr.out = Some(
                    it.next()
                        .ok_or_else(|| usage_err("--out needs a file path"))?
                        .clone(),
                );
            }
            "--format" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--format needs a value"))?;
                tr.format = match v.as_str() {
                    "chrome" => TraceFormat::Chrome,
                    "summary" => TraceFormat::Summary,
                    other => {
                        return Err(usage_err(format!(
                            "--format: `{other}` is not a format (chrome, summary)"
                        )))
                    }
                };
            }
            "--world-workers" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--world-workers needs a value"))?;
                tr.world_workers =
                    Some(v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        usage_err(format!("--world-workers: `{v}` is not a positive integer"))
                    })?);
            }
            flag if flag.starts_with('-') => {
                return Err(usage_err(format!("unknown flag `{flag}`")));
            }
            path if tr.spec_path.is_empty() => tr.spec_path = path.to_string(),
            extra => return Err(usage_err(format!("unexpected extra argument `{extra}`"))),
        }
    }
    if tr.spec_path.is_empty() {
        return Err(usage_err("sofb trace needs a spec file"));
    }
    Ok(tr)
}

fn trace_cmd(args: TraceArgs) -> Result<String, CliError> {
    let spec = load_spec(&args.spec_path)?;
    let scenario_err = |error: ScenarioError| CliError::Scenario {
        path: args.spec_path.clone(),
        error,
    };
    // Trace the base point of the grid (one run, not a sweep), with the
    // spec's [trace] filters if declared — forced on: asking for a trace
    // overrides `enable = off`.
    let mut scenario = spec.base.clone();
    if let Some(w) = args.world_workers {
        scenario.world_workers = w;
    }
    scenario.validate().map_err(scenario_err)?;
    let cfg = TraceConfig {
        enabled: true,
        ..spec.trace.clone().unwrap_or_default()
    };
    let run = run_observed(&scenario, &cfg).map_err(scenario_err)?;
    let nodes: std::collections::BTreeSet<usize> = run.records.iter().map(|r| r.node).collect();
    let rendered = match args.format {
        TraceFormat::Chrome => {
            let text = chrome::render(&run.records);
            // Self-check before anything is written: the emitter promises
            // Perfetto-loadable JSON, so a parse failure here is a bug
            // worth failing loudly on, not a file to debug in a viewer.
            if let Err(e) = json::parse(&text) {
                return Err(CliError::Live {
                    context: args.spec_path.clone(),
                    detail: format!("emitted chrome trace is not valid JSON: {e}"),
                });
            }
            text
        }
        TraceFormat::Summary => summary::render(&run.records),
    };
    eprintln!(
        "traced {} record(s) on {} node(s) ({} committed request(s))",
        run.records.len(),
        nodes.len(),
        run.report.committed_requests()
    );
    match &args.out {
        Some(out_path) => {
            write_atomic(Path::new(out_path), rendered.as_bytes()).map_err(|e| CliError::Io {
                path: out_path.clone(),
                error: e.to_string(),
            })?;
            Ok(format!(
                "wrote {out_path} ({} records, {} nodes)\n",
                run.records.len(),
                nodes.len()
            ))
        }
        None => Ok(rendered),
    }
}

/// One parsed `sofb serve` invocation.
struct ServeArgs {
    spec_path: String,
    addr: String,
    for_ms: Option<u64>,
    time_scale: f64,
    trace: Option<String>,
    cross_validate: bool,
    profile: bool,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut serve = ServeArgs {
        spec_path: String::new(),
        addr: "127.0.0.1:4780".to_string(),
        for_ms: None,
        time_scale: 1.0,
        trace: None,
        cross_validate: false,
        profile: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                serve.addr = it
                    .next()
                    .ok_or_else(|| usage_err("--addr needs a value"))?
                    .clone();
            }
            "--for-ms" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--for-ms needs a value"))?;
                serve.for_ms =
                    Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        usage_err(format!("--for-ms: `{v}` is not a positive integer"))
                    })?);
            }
            "--time-scale" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--time-scale needs a value"))?;
                serve.time_scale = v
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x > 0.0)
                    .ok_or_else(|| {
                        usage_err(format!("--time-scale: `{v}` is not a positive number"))
                    })?;
            }
            "--trace" => {
                serve.trace = Some(
                    it.next()
                        .ok_or_else(|| usage_err("--trace needs a file path"))?
                        .clone(),
                );
            }
            "--cross-validate" => serve.cross_validate = true,
            "--profile" => serve.profile = true,
            flag if flag.starts_with('-') => {
                return Err(usage_err(format!("unknown flag `{flag}`")));
            }
            path if serve.spec_path.is_empty() => serve.spec_path = path.to_string(),
            extra => return Err(usage_err(format!("unexpected extra argument `{extra}`"))),
        }
    }
    if serve.spec_path.is_empty() {
        return Err(usage_err("sofb serve needs a spec file"));
    }
    Ok(serve)
}

fn serve(args: ServeArgs) -> Result<String, CliError> {
    let spec = load_spec(&args.spec_path)?;
    let live_err = |detail: String| CliError::Live {
        context: args.spec_path.clone(),
        detail,
    };
    // A live node is one ordering group with no scripted adversary; the
    // spec's [client] load is replaced by whatever actually calls in.
    if spec.base.shards != 1 {
        return Err(live_err(format!(
            "field `shards`: a live node serves one ordering group, spec declares {}",
            spec.base.shards
        )));
    }
    if !spec.base.faults.is_empty() {
        return Err(live_err(format!(
            "field `faults`: a live node cannot script its {} fault(s); serve fault-free specs",
            spec.base.faults.len()
        )));
    }
    let kind = spec.base.kind;
    let knobs = spec.base.knobs.clone();
    let listener = std::net::TcpListener::bind(&args.addr).map_err(|e| CliError::Io {
        path: args.addr.clone(),
        error: e.to_string(),
    })?;
    let addr = listener.local_addr().map_err(|e| CliError::Io {
        path: args.addr.clone(),
        error: e.to_string(),
    })?;
    if args.profile {
        runtime::enable_profiling();
    }
    let svc = runtime::spawn_live_kv(kind, &knobs, args.time_scale);
    eprintln!(
        "serving {kind} (f={}, scheme {}) on {addr}{}…",
        knobs.f,
        knobs.scheme,
        match args.for_ms {
            Some(ms) => format!(" for {ms} ms"),
            None => " until `shutdown`".to_string(),
        }
    );
    let opts = runtime::ServeOptions {
        lifetime: args.for_ms.map(std::time::Duration::from_millis),
        ..runtime::ServeOptions::default()
    };
    let outcome = runtime::serve(listener, svc, &opts).map_err(|e| CliError::Io {
        path: addr.to_string(),
        error: e.to_string(),
    })?;

    let mut out = String::new();
    writeln!(out, "served {} call(s) on {kind}", outcome.calls).unwrap();
    writeln!(
        out,
        "ops submitted/committed/executed: {}/{}/{}",
        outcome.run.trace.ops.len(),
        outcome.run.trace.commit_order.len(),
        outcome.run.executed_ops
    )
    .unwrap();
    let digest = &outcome.run.state_digest;
    writeln!(
        out,
        "state digest: {}",
        digest
            .iter()
            .take(8)
            .map(|b| format!("{b:02x}"))
            .collect::<String>()
    )
    .unwrap();
    if let Some(trace_path) = &args.trace {
        write_atomic(Path::new(trace_path), outcome.run.trace.render().as_bytes()).map_err(
            |e| CliError::Io {
                path: trace_path.clone(),
                error: e.to_string(),
            },
        )?;
        writeln!(out, "trace written to {trace_path}").unwrap();
    }
    if let Some(snapshot) = runtime::profile_snapshot() {
        writeln!(out, "profile: {}", snapshot.render_json()).unwrap();
    }
    if args.cross_validate {
        let per_variant =
            runtime::cross_validate(&outcome.run.trace).map_err(|e| live_err(e.to_string()))?;
        let summary = per_variant
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(" ");
        writeln!(
            out,
            "cross-validation passed: live commit order reproduced on {summary}"
        )
        .unwrap();
    }
    Ok(out)
}

fn call(args: &[String]) -> Result<String, CliError> {
    let [addr_text, op, op_args @ ..] = args else {
        return Err(usage_err("sofb call needs an address and an operation"));
    };
    let addr: std::net::SocketAddr = addr_text
        .parse()
        .map_err(|_| usage_err(format!("`{addr_text}` is not an ip:port address")))?;
    let line = runtime::wire_line(op, op_args);
    let reply = runtime::call(addr, &line, std::time::Duration::from_secs(30)).map_err(|e| {
        CliError::Io {
            path: addr_text.clone(),
            error: e.to_string(),
        }
    })?;
    let payload = runtime::decode_reply(&reply).map_err(|detail| CliError::Live {
        context: addr_text.clone(),
        detail,
    })?;
    // Replies are application bytes (KV values, "OK", CAS booleans, state
    // digests); print printable ones as text, the rest as hex.
    let text = String::from_utf8_lossy(&payload);
    if !payload.is_empty() && text.chars().all(|c| c.is_ascii_graphic() || c == ' ') {
        Ok(format!("{text}\n"))
    } else {
        Ok(payload
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<String>()
            + "\n")
    }
}

/// One parsed `sofb fuzz` invocation.
struct FuzzArgs {
    spec_path: String,
    runs: usize,
    seed: u64,
    smoke: bool,
    oracle: Option<String>,
    out_dir: String,
    replay: bool,
}

fn parse_fuzz_args(args: &[String]) -> Result<FuzzArgs, CliError> {
    let defaults = FuzzOptions::default();
    let mut fz = FuzzArgs {
        spec_path: String::new(),
        runs: defaults.runs,
        seed: defaults.seed,
        smoke: false,
        oracle: None,
        out_dir: "specs/repros".to_string(),
        replay: false,
    };
    let mut budget_flags = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--runs" => {
                let v = it.next().ok_or_else(|| usage_err("--runs needs a value"))?;
                fz.runs =
                    v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        usage_err(format!("--runs: `{v}` is not a positive integer"))
                    })?;
                budget_flags = true;
            }
            "--seed" => {
                let v = it.next().ok_or_else(|| usage_err("--seed needs a value"))?;
                fz.seed = v
                    .parse::<u64>()
                    .map_err(|_| usage_err(format!("--seed: `{v}` is not an integer")))?;
                budget_flags = true;
            }
            "--smoke" => {
                fz.smoke = true;
                budget_flags = true;
            }
            "--oracle" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--oracle needs a name"))?;
                // Parse now so a typo fails before any simulation runs.
                Oracle::parse(v).ok_or_else(|| {
                    usage_err(format!(
                        "--oracle: `{v}` is not an oracle \
                         (total_order, exactly_once, commit_cap:N)"
                    ))
                })?;
                fz.oracle = Some(v.clone());
                budget_flags = true;
            }
            "--out-dir" => {
                fz.out_dir = it
                    .next()
                    .ok_or_else(|| usage_err("--out-dir needs a directory"))?
                    .clone();
                budget_flags = true;
            }
            "--replay" => fz.replay = true,
            flag if flag.starts_with('-') => {
                return Err(usage_err(format!("unknown flag `{flag}`")));
            }
            path if fz.spec_path.is_empty() => fz.spec_path = path.to_string(),
            extra => return Err(usage_err(format!("unexpected extra argument `{extra}`"))),
        }
    }
    if fz.spec_path.is_empty() {
        return Err(usage_err("sofb fuzz needs a spec file"));
    }
    if fz.replay && budget_flags {
        // A replay re-runs exactly what the repro pins; a budget or
        // oracle flag alongside it would silently mean nothing.
        return Err(usage_err("--replay excludes every other fuzz flag"));
    }
    if fz.smoke {
        fz.runs = fz.runs.min(8);
    }
    Ok(fz)
}

fn fuzz_cmd(args: FuzzArgs) -> Result<String, CliError> {
    let spec = load_spec(&args.spec_path)?;
    if args.replay {
        let confirmation = fuzz::replay(&spec).map_err(|e| CliError::Replay {
            path: args.spec_path.clone(),
            detail: e.to_string(),
        })?;
        return Ok(format!("{}: {confirmation}\n", args.spec_path));
    }

    let scenario_err = |error: ScenarioError| CliError::Scenario {
        path: args.spec_path.clone(),
        error,
    };
    spec.base.validate().map_err(scenario_err)?;
    let opts = FuzzOptions {
        runs: args.runs,
        seed: args.seed,
        // Validated during parsing; re-parse is infallible here.
        oracles: args
            .oracle
            .as_deref()
            .and_then(Oracle::parse)
            .into_iter()
            .collect(),
        max_violations: 1,
    };
    eprintln!(
        "fuzzing {}: {} run(s), seed {}…",
        args.spec_path, opts.runs, opts.seed
    );
    let summary = fuzz::fuzz(&spec.base, &opts).map_err(scenario_err)?;
    if summary.violations.is_empty() {
        return Ok(format!(
            "fuzz: {} run(s) on {}, no violations\n",
            summary.executed, args.spec_path
        ));
    }

    // Every violation is already shrunk; persist each as a committable
    // repro spec before reporting the campaign as failed.
    std::fs::create_dir_all(&args.out_dir).map_err(|e| CliError::Io {
        path: args.out_dir.clone(),
        error: e.to_string(),
    })?;
    let mut detail = Vec::new();
    for violation in &summary.violations {
        let emit_err = |e: sofb_spec::EmitError| CliError::Io {
            path: args.out_dir.clone(),
            error: format!("cannot emit repro: {e}"),
        };
        let text = violation.repro_text().map_err(emit_err)?;
        let name = violation.repro_file_name().map_err(emit_err)?;
        let path = format!("{}/{name}", args.out_dir.trim_end_matches('/'));
        write_atomic(Path::new(&path), text.as_bytes()).map_err(|e| CliError::Io {
            path: path.clone(),
            error: e.to_string(),
        })?;
        detail.push(format!(
            "{}: {} (run {}, repro {path})",
            violation.oracle, violation.error, violation.run
        ));
    }
    Err(CliError::FuzzViolations {
        count: summary.violations.len(),
        detail: detail.join("\n"),
    })
}

/// Executes an invocation (everything after the program name) and
/// returns the text destined for stdout. Progress notes go to stderr
/// directly; all failures are typed, never panics.
pub fn execute(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("run") => run(parse_run_args(&args[1..])?),
        Some("trace") => trace_cmd(parse_trace_args(&args[1..])?),
        Some("serve") => serve(parse_serve_args(&args[1..])?),
        Some("call") => call(&args[1..]),
        Some("fuzz") => fuzz_cmd(parse_fuzz_args(&args[1..])?),
        Some("list") => match args.len() {
            1 => list("specs"),
            2 => list(&args[1]),
            _ => Err(usage_err("sofb list takes at most one directory")),
        },
        Some("help") | Some("--help") | Some("-h") | None => Ok(format!("{USAGE}\n")),
        Some(other) => Err(usage_err(format!("unknown command `{other}`"))),
    }
}

fn load_spec(path: &str) -> Result<Spec, CliError> {
    let text = read_file(path)?;
    Spec::parse(&text).map_err(|error| CliError::Spec {
        path: path.to_string(),
        error,
    })
}

fn run(args: RunArgs) -> Result<String, CliError> {
    let mut spec = load_spec(&args.spec_path)?;
    if let Some(w) = args.world_workers {
        // Patch the base point before grid expansion so the override
        // reaches every cell (an explicit `world_workers` axis still
        // patches over it, exactly like any other base field).
        spec.base.world_workers = w;
    }
    let scenario_err = |error: ScenarioError| CliError::Scenario {
        path: args.spec_path.clone(),
        error,
    };
    let spec_err = |error: SpecError| CliError::Spec {
        path: args.spec_path.clone(),
        error,
    };
    let grid = spec.grid(args.smoke).map_err(spec_err)?;
    // Expansion validates every point (typed, field-named) before any
    // simulation starts — this is the whole --dry-run path, and the
    // fail-fast for real runs.
    let cells = grid.cells().map_err(scenario_err)?;

    if args.dry_run {
        let mut out = String::new();
        writeln!(out, "spec: {}", args.spec_path).unwrap();
        if let Some(title) = &spec.title {
            writeln!(out, "title: {title}").unwrap();
        }
        let axes: Vec<&str> = spec.axis_names().collect();
        if !axes.is_empty() {
            writeln!(out, "axes: {}", axes.join(" × ")).unwrap();
        }
        writeln!(
            out,
            "points: {}{}",
            cells.len(),
            if args.smoke { " (smoke)" } else { "" }
        )
        .unwrap();
        for cell in &cells {
            let labels = cell
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            writeln!(out, "  {:>4}  {}  seed={}", cell.index, labels, cell.seed).unwrap();
        }
        return Ok(out);
    }

    eprintln!(
        "running {} point(s) on {} worker(s)…",
        cells.len(),
        args.workers
    );
    let report = run_grid(&grid, args.workers).map_err(scenario_err)?;
    if args.profile {
        // Per-point engine metrics, in the same deterministic snapshot
        // format `sofb serve --profile` emits — to stderr so the report
        // JSON on stdout stays machine-consumable.
        eprintln!("profile: per-point engine metrics");
        for p in &report.points {
            eprintln!("  point {:>3}: {}", p.index, p.report.metrics.render_json());
        }
    }
    // The header names the spec by file name only: `report::check`
    // compares it textually, and one committed report must check clean
    // however the path to the spec was typed.
    let spec_name = Path::new(&args.spec_path)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or(&args.spec_path);
    let rendered = report::render(
        &report,
        ReportMeta {
            spec: spec_name,
            title: spec.title.as_deref(),
            smoke: args.smoke,
        },
    );

    if let Some(committed_path) = &args.check {
        let committed = read_file(committed_path)?;
        return match report::check(&committed, &rendered) {
            Ok(()) => Ok(format!(
                "check passed: regenerated metrics match {committed_path}\n"
            )),
            Err(detail) => Err(CliError::CheckFailed {
                path: committed_path.clone(),
                detail,
            }),
        };
    }
    if let Some(out_path) = &args.out {
        write_atomic(Path::new(out_path), rendered.as_bytes()).map_err(|e| CliError::Io {
            path: out_path.clone(),
            error: e.to_string(),
        })?;
        return Ok(format!("wrote {out_path}\n"));
    }
    Ok(rendered)
}

/// Collects every `.scn` file under `dir`, recursing into
/// subdirectories — except ones named `bad`, which hold the
/// deliberately-malformed fixtures the rejection tests own.
fn collect_specs(dir: &Path, paths: &mut Vec<String>) -> Result<(), CliError> {
    let entries = std::fs::read_dir(dir).map_err(|e| CliError::Io {
        path: dir.display().to_string(),
        error: e.to_string(),
    })?;
    for entry in entries.filter_map(|e| e.ok()) {
        let p = entry.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "bad") {
                continue;
            }
            collect_specs(&p, paths)?;
        } else if p.extension().is_some_and(|x| x == "scn") && p.is_file() {
            if let Some(s) = p.to_str() {
                paths.push(s.to_string());
            }
        }
    }
    Ok(())
}

/// Validates every `.scn` file under `dir` — recursively, so committed
/// fuzz repros in `specs/repros/` are covered too (full expansion of
/// the full-size and, where declared, smoke grids) — and summarizes
/// them. Any invalid spec makes the whole listing an error — this is
/// the CI spec gate.
fn list(dir: &str) -> Result<String, CliError> {
    let mut paths: Vec<String> = Vec::new();
    collect_specs(Path::new(dir), &mut paths)?;
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Io {
            path: dir.to_string(),
            error: "no .scn files found".to_string(),
        });
    }

    let mut out = String::new();
    let mut failures = Vec::new();
    writeln!(out, "{:<40} {:>7} {:>7}  title", "spec", "points", "smoke").unwrap();
    for path in &paths {
        let validated = load_spec(path).and_then(|spec| {
            let full = spec
                .grid(false)
                .map_err(|error| CliError::Spec {
                    path: path.clone(),
                    error,
                })?
                .cells()
                .map_err(|error| CliError::Scenario {
                    path: path.clone(),
                    error,
                })?
                .len();
            let smoke = if spec.has_smoke() {
                let n = spec
                    .grid(true)
                    .map_err(|error| CliError::Spec {
                        path: path.clone(),
                        error,
                    })?
                    .cells()
                    .map_err(|error| CliError::Scenario {
                        path: path.clone(),
                        error,
                    })?
                    .len();
                n.to_string()
            } else {
                "-".to_string()
            };
            Ok((spec, full, smoke))
        });
        match validated {
            Ok((spec, full, smoke)) => {
                // Paths are shown relative to the listed directory so
                // nested specs (`repros/…`) stay distinguishable.
                let name = Path::new(path)
                    .strip_prefix(dir)
                    .ok()
                    .and_then(|n| n.to_str())
                    .unwrap_or(path);
                writeln!(
                    out,
                    "{:<40} {:>7} {:>7}  {}",
                    name,
                    full,
                    smoke,
                    spec.title.as_deref().unwrap_or("")
                )
                .unwrap();
            }
            Err(e) => failures.push(e.to_string()),
        }
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(CliError::InvalidSpecs {
            count: failures.len(),
            detail: failures.join("\n"),
        })
    }
}
