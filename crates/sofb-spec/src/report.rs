//! The diffable `GridReport` JSON emitter and its 1e-9 check gate —
//! the writer and the checker of `BENCH_protocols{,_sharded}.json`: a
//! fixed-width deterministic rendering, with host wall time carried for
//! humans but excluded from comparisons.

use std::fmt::Write as _;

use sofb_harness::scenario::GridReport;

/// Metric drift beyond this fails [`check`].
pub const TOLERANCE: f64 = 1e-9;

/// What the emitter stamps into the report header.
#[derive(Clone, Copy, Debug)]
pub struct ReportMeta<'a> {
    /// The spec file the grid came from (`sofb run` passes its file name).
    pub spec: &'a str,
    /// The spec's `[meta]` title, if any.
    pub title: Option<&'a str>,
    /// Whether the `[smoke]` reduction was applied.
    pub smoke: bool,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.3}"),
        _ => "null".to_string(),
    }
}

/// Renders a grid report as deterministic JSON: every point in grid
/// order with its labels, seed and measurements. Identical grids render
/// to identical text on any machine — only `wall_ms` varies, and
/// [`check`] excludes it.
pub fn render(report: &GridReport, meta: ReportMeta<'_>) -> String {
    let mut body = String::new();
    writeln!(body, "{{").unwrap();
    writeln!(body, "  \"schema\": \"sofbyz-grid-report/v1\",").unwrap();
    writeln!(body, "  \"spec\": {},", json_str(meta.spec)).unwrap();
    match meta.title {
        Some(t) => writeln!(body, "  \"title\": {},", json_str(t)).unwrap(),
        None => writeln!(body, "  \"title\": null,").unwrap(),
    }
    writeln!(body, "  \"smoke\": {},", meta.smoke).unwrap();
    writeln!(body, "  \"points\": [").unwrap();
    for (i, p) in report.points.iter().enumerate() {
        writeln!(body, "    {{").unwrap();
        writeln!(body, "      \"index\": {},", p.index).unwrap();
        let labels = p
            .labels
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(body, "      \"labels\": {{{labels}}},").unwrap();
        writeln!(body, "      \"seed\": {},", p.seed).unwrap();
        writeln!(
            body,
            "      \"kind\": {},",
            json_str(&p.scenario.kind.to_string())
        )
        .unwrap();
        writeln!(body, "      \"shards\": {},", p.scenario.shards).unwrap();
        writeln!(
            body,
            "      \"committed_requests\": {},",
            p.report.committed_requests()
        )
        .unwrap();
        writeln!(
            body,
            "      \"throughput_req_per_proc_s\": {:.3},",
            p.report.throughput_per_process
        )
        .unwrap();
        writeln!(
            body,
            "      \"aggregate_throughput_req_s\": {:.3},",
            p.report.aggregate_throughput
        )
        .unwrap();
        writeln!(body, "      \"latency_ms\": {{").unwrap();
        writeln!(
            body,
            "        \"mean\": {},",
            json_num(p.report.global.mean_ms)
        )
        .unwrap();
        writeln!(
            body,
            "        \"p50\": {},",
            json_num(p.report.global.p50_ms)
        )
        .unwrap();
        writeln!(
            body,
            "        \"p99\": {}",
            json_num(p.report.global.p99_ms)
        )
        .unwrap();
        writeln!(body, "      }},").unwrap();
        writeln!(
            body,
            "      \"msgs_per_batch\": {:.3},",
            p.report.msgs_per_batch
        )
        .unwrap();
        writeln!(
            body,
            "      \"failover_ms\": {},",
            json_num(p.report.failover_ms)
        )
        .unwrap();
        // Per-engine scheduler/arena traffic, before aggregation: one row
        // per isolated engine (per shard on the parallel path; a single
        // row otherwise). Deterministic integers, compared exactly by
        // `check` — a parallel-scaling regression names its shard.
        writeln!(body, "      \"engine_shards\": [").unwrap();
        let engines = &p.report.engine_per_shard;
        for (s, e) in engines.iter().enumerate() {
            writeln!(
                body,
                "        {{\"shard\": {s}, \"arena_high_water\": {}, \"heap_pushes\": {}}}{}",
                e.arena_high_water,
                e.heap_pushes,
                if s + 1 < engines.len() { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(body, "      ],").unwrap();
        writeln!(body, "      \"wall_ms\": {:.1}", p.wall_ms).unwrap();
        writeln!(
            body,
            "    }}{}",
            if i + 1 < report.points.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(body, "  ]").unwrap();
    writeln!(body, "}}").unwrap();
    body
}

/// The keys whose values are compared numerically (with [`TOLERANCE`])
/// rather than textually — measurement outputs that are stable to 1e-9
/// but could in principle re-format.
const METRIC_KEYS: [&str; 7] = [
    "throughput_req_per_proc_s",
    "aggregate_throughput_req_s",
    "mean",
    "p50",
    "p99",
    "msgs_per_batch",
    "failover_ms",
];

fn metric_value(line: &str) -> Option<(&'static str, f64)> {
    let line = line.trim();
    for key in METRIC_KEYS {
        if let Some(rest) = line.strip_prefix(&format!("\"{key}\": ")) {
            let raw = rest.trim_end_matches(',');
            if raw == "null" {
                return Some((key, f64::NAN));
            }
            if let Ok(v) = raw.parse::<f64>() {
                return Some((key, v));
            }
        }
    }
    None
}

fn is_wall(line: &str) -> bool {
    line.trim_start().starts_with("\"wall_ms\":")
}

/// The `{…}` of a `"labels": {…},` line — what names a point in a drift.
fn point_labels(line: &str) -> Option<&str> {
    let rest = line.trim().strip_prefix("\"labels\": ")?;
    Some(rest.trim_end_matches(','))
}

/// Compares a regenerated report against a committed one: metric lines
/// numerically within [`TOLERANCE`] (`null` matches `null`), every other
/// line textually, `wall_ms` excluded. Returns the drift list on
/// failure, each drift prefixed with the labels of the point it sits in.
pub fn check(committed: &str, regenerated: &str) -> Result<(), String> {
    let want: Vec<&str> = committed.lines().filter(|l| !is_wall(l)).collect();
    let got: Vec<&str> = regenerated.lines().filter(|l| !is_wall(l)).collect();
    if want.is_empty() {
        return Err("committed report is empty".to_string());
    }
    if want.len() != got.len() {
        return Err(format!(
            "line count mismatch: committed {} vs regenerated {} (wall_ms excluded)",
            want.len(),
            got.len()
        ));
    }
    let mut drifts = Vec::new();
    // The committed report's last `"labels":` line: the point a drift
    // below it belongs to (none while still in the header).
    let mut labels = None;
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        labels = point_labels(w).or(labels);
        let point = || labels.map_or(String::new(), |l| format!("point {l} "));
        match (metric_value(w), metric_value(g)) {
            (Some((wk, wv)), Some((gk, gv))) if wk == gk => {
                let same = (wv.is_nan() && gv.is_nan()) || (wv - gv).abs() <= TOLERANCE;
                if !same {
                    drifts.push(format!(
                        "  line {}: {}{wk}: committed {wv} vs regenerated {gv}",
                        i + 1,
                        point()
                    ));
                }
            }
            _ => {
                // Wall-stripped structural lines must match exactly:
                // labels, seeds, shapes, counts.
                if w.trim_end() != g.trim_end() {
                    drifts.push(format!(
                        "  line {}: {}committed `{}` vs regenerated `{}`",
                        i + 1,
                        point(),
                        w.trim(),
                        g.trim()
                    ));
                }
            }
        }
    }
    if drifts.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} line(s) drifted beyond {TOLERANCE}:\n{}",
            drifts.len(),
            drifts.join("\n")
        ))
    }
}
