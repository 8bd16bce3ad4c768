//! Whole sets of runs: `run.sh` (every workload, tracing off),
//! `run.sh trace` (every workload traced, per-layer numbers merged),
//! `run.sh compare A B`, and `run.sh repin`.
//!
//! Each run is a fresh child process of this binary — clean allocator,
//! thread-local pools, `VmHWM` and live-profiler statics — and each child
//! warms up and repeats inside itself (see `sim::run`, `live::run`), so
//! a set is a few children per workload, not many.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::decl::{self, Better, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::json::{self, Obj, Value};
use crate::{common, pins, sim, stats, Flags, OUT_DIR};

/// Measured runs per workload in a full set. Like the run length
/// (`RUN_SECONDS`) a constant: two sets compare only if measured alike.
const RUNS: usize = 3;

/// The parsed result line of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(w: Workload, seed: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("# FAILED")) {
        eprintln!("{}: {line}", w.name());
    }
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|_| {
        format!(
            "{}: run ended with {} and no result line",
            w.name(),
            output.status
        )
    })?;
    let metrics = match doc.get("metrics") {
        Some(Value::Obj(map)) => map
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), json::num_field(v, "value")?)))
            .collect(),
        _ => return Err(format!("{}: result line without metrics", w.name())),
    };
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        attempted: json::num_field(&doc, "attempted").unwrap_or(0.0) as u64,
        failed: json::num_field(&doc, "failed").unwrap_or(0.0) as u64,
        metrics,
    })
}

fn host() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    Obj::new()
        .num("nproc", common::nproc() as f64)
        .str("kernel", kernel.trim())
        .finish()
}

/// `v` to five significant digits: the metrics span µs set-ups to
/// millions of ops per second.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return v.to_string();
    }
    let decimals = (4 - v.abs().log10().floor() as i32).clamp(0, 12);
    format!("{v:.*}", decimals as usize)
}

/// One metric of one workload over the runs of a set.
fn metric_json(unit: &str, values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    Obj::new()
        .str("unit", unit)
        .raw("values", &json::numbers(values))
        .num("median", stats::median(values))
        .num("q1", q1)
        .num("q3", q3)
        .num("samples", values.len() as f64)
        .finish()
}

/// One workload's entry of a set file: its verdict and its metrics.
fn workload_entry(runs: usize, verdict: &ChildResult, metrics: Obj) -> String {
    Obj::new()
        .num("runs", runs as f64)
        .bool("correct", verdict.correct)
        .num("attempted", verdict.attempted as f64)
        .num("failed", verdict.failed as f64)
        .raw("metrics", &metrics.finish())
        .finish()
}

/// Writes a set file (`result.json`, `layers.json`): what `compare` reads.
fn write_set(path: &str, seed: u64, workloads: Obj) -> Result<(), String> {
    let doc = Obj::new()
        .str("schema", "sofb-benchmark-set/v1")
        .raw("host", &host())
        .num("seed", seed as f64)
        .num("seconds", RUN_SECONDS as f64)
        .raw("workloads", &workloads.finish())
        .finish();
    write_out(path, &(doc + "\n"))
}

fn exit_code(all_correct: bool) -> ExitCode {
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_out(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// `run.sh [set]`: every workload with tracing off, every metric
/// printed by name with its unit, outputs checked, result written.
pub fn full_set(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.number("seed", DEFAULT_SEED)?;
    let out_path = flags
        .get("out")
        .map_or(format!("{OUT_DIR}/result.json"), str::to_string);
    let mut all_correct = true;
    let mut workloads = Obj::new();
    for w in Workload::ALL {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed, mut correct) = (0, 0, true);
        for run in 1..=RUNS {
            eprintln!("{} run {run}/{RUNS} …", w.name());
            let r = run_child(w, seed, false)?;
            attempted += r.attempted;
            failed += r.failed;
            correct &= r.correct;
            for m in &END_TO_END {
                values.entry(m.name).or_default().push(r.metrics[m.name]);
            }
        }
        all_correct &= correct;
        println!(
            "{} — {RUNS} runs, seed {seed}, {RUN_SECONDS} s each",
            w.name()
        );
        let mut metrics = Obj::new();
        for m in &END_TO_END {
            let v = &values[m.name];
            let (q1, q3) = stats::quartiles(v);
            println!(
                "  {:<16} {:>14} {:<6} q1 {}  q3 {}  spread {:.1} % (bound {:.0} %)",
                m.name,
                sig(stats::median(v)),
                m.unit,
                sig(q1),
                sig(q3),
                100.0 * stats::spread(v),
                100.0 * m.bound
            );
            metrics = metrics.raw(m.name, &metric_json(m.unit, v));
        }
        println!(
            "  {:<16} {:>14.6} ratio   ({failed} of {attempted}){}",
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            if correct { "" } else { "  ← CHECKS FAILED" }
        );
        let totals = ChildResult {
            correct,
            attempted,
            failed,
            metrics: BTreeMap::new(),
        };
        workloads = workloads.raw(w.name(), &workload_entry(RUNS, &totals, metrics));
    }
    write_set(&out_path, seed, workloads)?;
    println!("wrote {out_path}");
    Ok(exit_code(all_correct))
}

/// `run.sh trace`: every workload once under spans; per-layer metrics
/// collected from the workloads that own them into `layers.json`.
pub fn traced_set(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.number("seed", DEFAULT_SEED)?;
    let mut all_correct = true;
    let mut workloads = Obj::new();
    for w in Workload::ALL {
        eprintln!("{} traced …", w.name());
        let r = run_child(w, seed, true)?;
        all_correct &= r.correct;
        println!(
            "{} — traced, seed {seed}{}",
            w.name(),
            if r.correct { "" } else { "  ← CHECKS FAILED" }
        );
        let mut metrics = Obj::new();
        for m in PER_LAYER.iter().filter(|m| m.owner.is_none_or(|o| o == w)) {
            let v = r.metrics[m.name];
            println!("  {:<44} {:>16} {}", m.name, sig(v), m.unit);
            metrics = metrics.raw(m.name, &metric_json(m.unit, &[v]));
        }
        // Where the traced wall time went, by layer of the span.
        let summary = std::fs::read_to_string(format!("{OUT_DIR}/layers-{}.json", w.name()))
            .ok()
            .and_then(|text| json::parse(&text).ok());
        if let Some(Value::Obj(layers)) = summary.as_ref().and_then(|s| s.get("layer_self_ms")) {
            let total: f64 = layers.values().filter_map(Value::as_f64).sum();
            for (layer, ms) in layers {
                let ms = ms.as_f64().unwrap_or(0.0);
                println!(
                    "  self time {:<34} {:>12.3} ms  {:>5.1} %",
                    layer,
                    ms,
                    100.0 * ms / total
                );
            }
        }
        workloads = workloads.raw(w.name(), &workload_entry(1, &r, metrics));
    }
    let path = format!("{OUT_DIR}/layers.json");
    write_set(&path, seed, workloads)?;
    println!("wrote {path} and {OUT_DIR}/trace-<workload>.json");
    Ok(exit_code(all_correct))
}

/// How `compare` judges one metric on one workload.
#[derive(Clone, Copy)]
pub struct Rule {
    pub better: Better,
    /// Share of A's median by which B may be worse; `None` = no bound
    /// (per-layer metrics), compared for identity only.
    pub bound: Option<f64>,
    /// A change below this, in the metric's unit, is no change.
    pub floor: f64,
    /// The metric repeats exactly: any increase is a regression.
    pub exact: bool,
}

fn declared(name: &str, workload: &str) -> Option<Rule> {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return Some(Rule {
            better: m.better,
            bound: Some(m.bound),
            floor: m.floor,
            exact: Workload::from_name(workload).is_some_and(|w| decl::exact(name, w)),
        });
    }
    PER_LAYER.iter().find(|m| m.name == name).map(|m| Rule {
        better: m.better,
        bound: None,
        floor: 0.0,
        exact: false,
    })
}

/// How B's median compares with A's: `(worse_by, verdict)`, `worse_by`
/// the share of A's median by which B is worse (negative = better).
pub fn verdict(rule: Rule, a: &[f64], b: &[f64]) -> (f64, &'static str) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = match rule.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let worse_by = if worse == 0.0 { 0.0 } else { worse / ma.abs() };
    let Some(bound) = rule.bound else {
        return (worse_by, if worse == 0.0 { "identical" } else { "differs" });
    };
    if rule.exact {
        let word = match worse.total_cmp(&0.0) {
            std::cmp::Ordering::Equal => "identical",
            std::cmp::Ordering::Greater => "REGRESSION",
            std::cmp::Ordering::Less => "improved",
        };
        return (worse_by, word);
    }
    // What may change before it counts, in the metric's unit.
    let allowed = |median: f64| (bound * median.abs()).max(rule.floor);
    let iqr = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        q3 - q1
    };
    let word = if iqr(a) > allowed(ma) || iqr(b) > allowed(mb) {
        "unresolved"
    } else if worse > allowed(ma) {
        "REGRESSION"
    } else if worse < -allowed(ma) {
        "improved"
    } else {
        "unchanged"
    };
    (worse_by, word)
}

/// One workload's entry of a set file, as `compare` reads it.
struct SetEntry {
    runs: u64,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Vec<f64>>,
}

/// A set file: how it was measured, and what each workload measured.
struct SetFile {
    seed: u64,
    seconds: f64,
    workloads: BTreeMap<String, SetEntry>,
}

fn load_set(path: &str) -> Result<SetFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!(
            "{path}: no `workloads` object (not a set or layers file)"
        ));
    };
    let field =
        |v: &Value, key: &str| json::num_field(v, key).ok_or_else(|| format!("{path}: no `{key}`"));
    let mut out = BTreeMap::new();
    for (w, entry) in workloads {
        let Some(Value::Obj(metrics)) = entry.get("metrics") else {
            return Err(format!("{path}: {w} has no `metrics`"));
        };
        let metrics = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), json::nums_field(m, "values")?)))
            .collect();
        let entry = SetEntry {
            runs: field(entry, "runs")? as u64,
            attempted: field(entry, "attempted")? as u64,
            failed: field(entry, "failed")? as u64,
            metrics,
        };
        out.insert(w.clone(), entry);
    }
    Ok(SetFile {
        seed: field(&doc, "seed")? as u64,
        seconds: field(&doc, "seconds")?,
        workloads: out,
    })
}

/// Names in `b` that `a` lacks, so nothing B measured goes unreported.
fn only_in<'a, T>(b: &'a BTreeMap<String, T>, a: &BTreeMap<String, T>) -> Vec<&'a str> {
    b.keys()
        .filter(|k| !a.contains_key(*k))
        .map(String::as_str)
        .collect()
}

/// `run.sh compare A.json B.json`: per metric × workload, medians,
/// quartiles and the change against the metric's bound; `unresolved`
/// (not `unchanged`) where the run-to-run spread exceeds the bound;
/// `failed_share` compared for any increase. Refuses two files measured
/// differently. Exits non-zero on a regression.
pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    if (a.seed, a.seconds) != (b.seed, b.seconds) {
        return Err(format!(
            "measured differently: {a_path} at seed {} for {} s, {b_path} at seed {} for {} s",
            a.seed, a.seconds, b.seed, b.seconds
        ));
    }
    let mut regressions = 0;
    println!(
        "{:<18} {:<44} {:>13} {:>23} {:>13} {:>23} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse by", "bound"
    );
    for (w, ea) in &a.workloads {
        let Some(eb) = b.workloads.get(w) else {
            println!("{w:<18} only in {a_path}");
            continue;
        };
        if ea.runs != eb.runs {
            return Err(format!(
                "measured differently: {w} has {} run(s) in {a_path}, {} in {b_path}",
                ea.runs, eb.runs
            ));
        }
        for (name, va) in &ea.metrics {
            let (Some(vb), Some(rule)) = (eb.metrics.get(name), declared(name, w)) else {
                println!("{w:<18} {name:<44} only in {a_path} or not declared");
                continue;
            };
            let (worse_by, word) = verdict(rule, va, vb);
            regressions += usize::from(word == "REGRESSION");
            let range = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                format!("{}..{}", sig(q1), sig(q3))
            };
            println!(
                "{w:<18} {name:<44} {:>13} {:>23} {:>13} {:>23} {:>8.2}% {:>7}  {word}",
                sig(stats::median(va)),
                range(va),
                sig(stats::median(vb)),
                range(vb),
                100.0 * worse_by,
                match rule.bound {
                    Some(_) if rule.exact => "exact".to_string(),
                    Some(x) => format!("{:.0}%", 100.0 * x),
                    None => "-".to_string(),
                },
            );
        }
        for name in only_in(&eb.metrics, &ea.metrics) {
            println!("{w:<18} {name:<44} only in {b_path}");
        }
        // The issue's `failed_share`: any increase is a regression.
        let share = |e: &SetEntry| e.failed as f64 / e.attempted.max(1) as f64;
        let word = match share(eb).total_cmp(&share(ea)) {
            std::cmp::Ordering::Greater => "REGRESSION",
            std::cmp::Ordering::Less => "improved",
            std::cmp::Ordering::Equal => "identical",
        };
        regressions += usize::from(word == "REGRESSION");
        println!(
            "{w:<18} {:<44} {:>13} {:>23} {:>13} {:>23} {:>9} {:>7}  {word}",
            "failed_share",
            sig(share(ea)),
            format!("{} of {}", ea.failed, ea.attempted),
            sig(share(eb)),
            format!("{} of {}", eb.failed, eb.attempted),
            "",
            "any",
        );
    }
    for w in only_in(&b.workloads, &a.workloads) {
        println!("{w:<18} only in {b_path}");
    }
    Ok(exit_code(regressions == 0))
}

/// `run.sh repin`: re-runs the sim workloads at the default seed,
/// rewrites `benchmark/expected/` and prints what changed, so a
/// deliberate model change is one reviewed commit.
pub fn repin() -> Result<ExitCode, String> {
    for w in Workload::ALL.into_iter().filter(|w| w.is_sim()) {
        let path = pins::path(w, DEFAULT_SEED);
        let fresh = sim::pin_text(w).map_err(|e| format!("{}: {e}", w.name()))?;
        let old = std::fs::read_to_string(&path).unwrap_or_default();
        if old == fresh {
            println!("{path}: unchanged");
            continue;
        }
        let (old_lines, new_lines): (Vec<&str>, Vec<&str>) =
            (old.lines().collect(), fresh.lines().collect());
        println!("{path}: {} → {} lines", old_lines.len(), new_lines.len());
        for i in 0..old_lines.len().max(new_lines.len()) {
            let (o, n) = (old_lines.get(i), new_lines.get(i));
            if o != n {
                if let Some(o) = o {
                    println!("-{o}");
                }
                if let Some(n) = n {
                    println!("+{n}");
                }
            }
        }
        write_out(&path, &fresh)?;
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounded(better: Better, bound: f64) -> Rule {
        Rule {
            better,
            bound: Some(bound),
            floor: 0.0,
            exact: false,
        }
    }

    #[test]
    fn verdict_says_unresolved_when_the_spread_exceeds_the_bound() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [8.0, 12.0, 10.0, 14.0, 6.0];
        let lower = bounded(Better::Lower, 0.10);
        assert_eq!(verdict(lower, &steady, &steady).1, "unchanged");
        assert_eq!(verdict(lower, &steady, &slower).1, "REGRESSION");
        assert_eq!(verdict(lower, &slower, &steady).1, "improved");
        // A higher-is-better metric reads the same pair the other way.
        assert_eq!(
            verdict(bounded(Better::Higher, 0.10), &steady, &slower).1,
            "improved"
        );
        assert_eq!(verdict(lower, &steady, &noisy).1, "unresolved");
        let (worse_by, _) = verdict(lower, &steady, &slower);
        assert!((worse_by - 0.15).abs() < 1e-9);
        // Unbounded (per-layer, exact) metrics compare for identity.
        let unbounded = Rule {
            bound: None,
            ..lower
        };
        assert_eq!(verdict(unbounded, &[3.0], &[3.0]).1, "identical");
        assert_eq!(verdict(unbounded, &[3.0], &[4.0]).1, "differs");
        // A median of 0 on A does not hide what B reads.
        assert_eq!(verdict(lower, &[0.0], &[4.0]).1, "REGRESSION");
        assert_eq!(verdict(lower, &[0.0], &[0.0]).1, "unchanged");
    }

    #[test]
    fn verdict_applies_the_absolute_floor_and_the_exact_rule() {
        // `setup_s`: 6 µs against 9 µs is +50 % and under the 0.05 s floor.
        let setup = declared("setup_s", "sim_steady").expect("declared");
        assert_eq!(setup.floor, 0.05);
        let (worse_by, word) = verdict(setup, &[6e-6, 6e-6, 9e-6], &[9e-6, 9e-6, 6e-6]);
        assert!((worse_by - 0.5).abs() < 1e-9);
        assert_eq!(word, "unchanged");
        // Past the floor the relative bound decides again.
        assert_eq!(verdict(setup, &[0.30; 3], &[0.36; 3]).1, "unchanged");
        assert_eq!(verdict(setup, &[0.30; 3], &[0.40; 3]).1, "REGRESSION");
        // The simulator's allocations per event repeat exactly: +1 % is
        // inside the declared bound and still a regression.
        let sim = declared("allocs_per_op", "sim_steady").expect("declared");
        assert!(sim.exact);
        assert_eq!(verdict(sim, &[0.4973; 3], &[0.4973; 3]).1, "identical");
        assert_eq!(verdict(sim, &[0.4973; 3], &[0.5023; 3]).1, "REGRESSION");
        assert_eq!(verdict(sim, &[0.4973; 3], &[0.4900; 3]).1, "improved");
        // On the socket thread timing moves the count: the bound applies.
        let live = declared("allocs_per_op", "live_closed").expect("declared");
        assert!(!live.exact);
        assert_eq!(verdict(live, &[264.0; 3], &[266.0; 3]).1, "unchanged");
    }
}
