//! Pinned simulated statistics: `benchmark/expected/<workload>.seed7.json`.
//!
//! Simulated (sim-time) statistics are outputs to be checked, not
//! speeds: a host-side change must leave them identical. The pin holds
//! only what the modelled deployment did — commits, throughput, order
//! latency, messages per batch, fail-over latency — and none of the
//! engine's host-side counters (heap pushes, arena high water), which an
//! optimisation may legitimately move.

use sofbyz::scenario::GridReport;

use crate::decl::Workload;
use crate::json::{self, Obj, Value};

/// Drift beyond this (relative to the larger of 1 and the value) fails.
pub const TOLERANCE: f64 = 1e-9;

pub fn path(w: Workload, seed: u64) -> String {
    format!("benchmark/expected/{}.seed{seed}.json", w.name())
}

fn opt(o: Obj, key: &str, v: Option<f64>) -> Obj {
    match v {
        Some(x) => o.num(key, x),
        None => o.raw(key, "null"),
    }
}

/// Renders the simulated statistics of `report`, one point per line.
pub fn render(w: Workload, seed: u64, report: &GridReport) -> String {
    let points: Vec<String> = report
        .points
        .iter()
        .map(|p| {
            let labels: Vec<String> = p.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let r = &p.report;
            let mut o = Obj::new()
                .str("labels", &labels.join(" "))
                .num("seed", p.seed as f64)
                .num("committed_requests", r.committed_requests() as f64)
                .num("aggregate_throughput", r.aggregate_throughput)
                .num("throughput_per_process", r.throughput_per_process)
                .num("msgs_per_batch", r.msgs_per_batch);
            o = opt(o, "latency_mean_ms", r.global.mean_ms);
            o = opt(o, "latency_p50_ms", r.global.p50_ms);
            o = opt(o, "latency_p99_ms", r.global.p99_ms);
            o = opt(o, "failover_ms", r.failover_ms);
            format!("  {}", o.finish())
        })
        .collect();
    format!(
        "{{\"schema\":\"sofb-benchmark-pins/v1\",\"workload\":\"{}\",\"seed\":{seed},\"points\":[\n{}\n]}}\n",
        w.name(),
        points.join(",\n")
    )
}

fn diff(path: &str, want: &Value, got: &Value, out: &mut Vec<String>) {
    match (want, got) {
        (Value::Num(a), Value::Num(b)) => {
            if (a - b).abs() > TOLERANCE * a.abs().max(1.0) {
                out.push(format!("{path}: pinned {a} vs now {b}"));
            }
        }
        (Value::Arr(a), Value::Arr(b)) if a.len() == b.len() => {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                diff(&format!("{path}[{i}]"), x, y, out);
            }
        }
        (Value::Obj(a), Value::Obj(b)) if a.keys().eq(b.keys()) => {
            for (k, x) in a {
                diff(&format!("{path}.{k}"), x, &b[k], out);
            }
        }
        (a, b) if a == b => {}
        _ => out.push(format!("{path}: shape or value differs")),
    }
}

/// Compares a pin file's text against the statistics a run produced.
pub fn check(pinned: &str, current: &str) -> Result<(), String> {
    let want = json::parse(pinned).map_err(|e| format!("pin file: {e}"))?;
    let got = json::parse(current).map_err(|e| format!("rendered pins: {e}"))?;
    let mut drifts = Vec::new();
    diff("$", &want, &got, &mut drifts);
    if drifts.is_empty() {
        return Ok(());
    }
    let shown: Vec<&str> = drifts.iter().take(5).map(String::as_str).collect();
    Err(format!(
        "{} simulated statistic(s) drifted: {}",
        drifts.len(),
        shown.join("; ")
    ))
}
