//! The repo's benchmark: three simulator workloads, three live-TCP
//! workloads, end-to-end metrics with tracing off and a per-layer traced
//! run. `benchmark/README.md` says what each number means; `run.sh`
//! builds this binary and passes its arguments through.
//!
//! ```text
//! sofb-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's call)
//! sofb-benchmark set     [--seed N] [--out F]    every workload, tracing off
//! sofb-benchmark trace   [--seed N]              every workload, traced
//! sofb-benchmark compare A.json B.json
//! sofb-benchmark repin | declare
//! ```

mod common;
mod decl;
mod gen;
mod json;
mod layers;
mod live;
mod pins;
mod set;
mod sim;
mod spans;
mod stats;

use std::process::ExitCode;

use common::Outcome;
use decl::{Workload, END_TO_END, PER_LAYER};
use json::Obj;
use spans::{Recorder, MAIN};

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc::new();

/// Where traced runs and full sets write their files.
pub const OUT_DIR: &str = "benchmark/out";

/// Arguments of one run.
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// `--key value` pairs after the subcommand.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses `args`, refusing any flag not in `known`.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .filter(|name| known.contains(name))
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{name} {v}` is not a valid number")),
        }
    }
}

fn run_args(flags: &Flags) -> Result<RunArgs, String> {
    let name = flags.get("workload").ok_or("`--workload` is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let seconds: f64 = flags.number("seconds", decl::RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("`--seconds` must be at least 1".to_string());
    }
    Ok(RunArgs {
        workload,
        seed: flags.number("seed", decl::DEFAULT_SEED)?,
        seconds,
        trace: flags.number::<u8>("trace", 0)? != 0,
    })
}

/// Layer of a span name: everything before its last dot.
fn layer_of(span: &str) -> &str {
    span.rsplit_once('.').map_or("bench", |(layer, _)| layer)
}

/// Writes the traced run's spans and its per-layer summary, and checks
/// that the self times of the workload's span tree account for the
/// traced wall time.
fn write_trace(args: &RunArgs, rec: &Recorder, out: &mut Outcome) {
    let w = args.workload.name();
    let spans = rec.spans();
    let selfs = spans::self_times(spans);
    // The tree under the `workload` root, on the driving thread.
    let mut in_tree = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_tree[i] =
            s.track == MAIN && (s.name == "workload" || s.parent.is_some_and(|p| in_tree[p]));
    }
    let root = spans.iter().position(|s| s.name == "workload");
    let traced_wall_ms = root.map_or(0.0, |r| (spans[r].end_ns - spans[r].start_ns) as f64 / 1e6);
    let self_sum_ms: f64 = selfs
        .iter()
        .zip(&in_tree)
        .filter(|(_, inside)| **inside)
        .map(|(ns, _)| *ns as f64 / 1e6)
        .sum();
    out.check(
        "span self times sum to the traced wall",
        if traced_wall_ms > 0.0 && (self_sum_ms - traced_wall_ms).abs() <= 0.05 * traced_wall_ms {
            Ok(())
        } else {
            Err(format!(
                "self times {self_sum_ms:.3} ms vs traced wall {traced_wall_ms:.3} ms"
            ))
        },
    );

    let mut layer_self = std::collections::BTreeMap::<&str, f64>::new();
    for ((s, ns), inside) in spans.iter().zip(&selfs).zip(&in_tree) {
        if *inside {
            *layer_self.entry(layer_of(s.name)).or_insert(0.0) += *ns as f64 / 1e6;
        }
    }
    let mut by_name = Obj::new();
    for (name, (calls, total_ms, self_ms)) in spans::by_name(spans, MAIN) {
        let row = Obj::new()
            .num("calls", calls as f64)
            .num("total_ms", total_ms)
            .num("self_ms", self_ms);
        by_name = by_name.raw(name, &row.finish());
    }
    let mut layers = Obj::new();
    for (layer, ms) in &layer_self {
        layers = layers.num(layer, *ms);
    }
    let mut counts = Obj::new();
    for (name, n) in rec.counts() {
        counts = counts.num(name, *n as f64);
    }
    let mut metrics = Obj::new();
    for (name, v) in &out.metrics {
        metrics = metrics.num(name, *v);
    }
    let summary = Obj::new()
        .str("workload", w)
        .num("seed", args.seed as f64)
        .num("traced_wall_ms", traced_wall_ms)
        .num("self_sum_ms", self_sum_ms)
        .raw("layer_self_ms", &layers.finish())
        .raw("spans", &by_name.finish())
        .raw("counts", &counts.finish())
        .raw("metrics", &metrics.finish())
        .finish();
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{OUT_DIR}/trace-{w}.json"), spans::chrome_json(rec)))
        .and_then(|()| std::fs::write(format!("{OUT_DIR}/layers-{w}.json"), summary + "\n"));
    out.check(
        "trace files",
        written.map_err(|e| format!("{OUT_DIR}: {e}")),
    );
}

/// One run: measure, check, print every metric by name with its unit,
/// and end with the result line.
fn run_once(args: &RunArgs) -> ExitCode {
    let w = args.workload;
    let mut out = match (args.trace, w.is_sim()) {
        (false, true) => sim::run(w, args.seed, args.seconds),
        (false, false) => live::run(w, args.seed, args.seconds),
        (true, sim) => {
            let mut rec = Recorder::new();
            let mut out = if sim {
                sim::run_traced(w, args.seed, &mut rec)
            } else {
                live::run_traced(w, args.seed, args.seconds, &mut rec)
            };
            write_trace(args, &rec, &mut out);
            out
        }
    };

    // Declared metrics of this mode; a per-layer metric another
    // workload owns reads 0 here.
    let declared: Vec<(&str, &str, bool)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.owner.is_none_or(|o| o == w)))
            .collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, true)).collect()
    };
    for name in out.metrics.keys() {
        assert!(
            declared.iter().any(|(n, _, mine)| n == name && *mine),
            "`{name}` is not declared for {}",
            w.name()
        );
    }
    let missing: Vec<&str> = declared
        .iter()
        .filter(|(n, _, mine)| *mine && !out.metrics.contains_key(*n))
        .map(|(n, _, _)| *n)
        .collect();

    println!(
        "# {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &out.info {
        println!("# {name} {value} {unit}");
    }
    for f in out.failures.iter().take(20) {
        println!("# FAILED {f}");
    }
    if !missing.is_empty() {
        eprintln!(
            "{}: no result: the run ended before measuring {}",
            w.name(),
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let mut metrics = Obj::new();
    for (name, unit, mine) in &declared {
        let value = if *mine { out.metrics[*name] } else { 0.0 };
        if *mine {
            println!("{name} {value} {unit}");
        }
        metrics = metrics.raw(
            name,
            &Obj::new().num("value", value).str("unit", unit).finish(),
        );
    }
    if out.attempted == 0 {
        out.check("any operation attempted", Err("none".to_string()));
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        Obj::new()
            .bool("correct", correct)
            .num("attempted", out.attempted as f64)
            .num("failed", out.failed as f64)
            .raw("metrics", &metrics.finish())
            .finish()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => {
            let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
            Ok(run_once(&run_args(&flags)?))
        }
        None | Some("set") => {
            let rest = args.get(1..).unwrap_or(&[]);
            set::full_set(&Flags::parse(rest, &["seed", "out"])?)
        }
        Some("trace") => set::traced_set(&Flags::parse(&args[1..], &["seed"])?),
        Some("compare") => match &args[1..] {
            [a, b] => set::compare(a, b),
            _ => Err("compare needs two result files".to_string()),
        },
        Some("repin") => set::repin(),
        Some("declare") => {
            print!("{}", decl::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!(
            "unknown command `{other}` (set | trace | compare A B | repin | declare)"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("sofb-benchmark: {e}");
        ExitCode::from(2)
    })
}
