//! The `specs/` directory is not documentation — it is the same grids.
//!
//! Every committed `.scn` file with an in-code constructor in
//! `sofb_bench::grids` must expand to *bit-identical* cells (labels,
//! seeds, fully patched scenarios) as that constructor; and for the
//! cheap grids the executed spec-driven `GridReport` must equal the
//! in-code grid's report exactly (measurement values compared at full
//! precision, host wall time excluded). A spec drifting from its grid —
//! or a grid from its spec — fails here, not in a figure three PRs
//! later.

use sofb_bench::grids;
use sofb_spec::Spec;
use sofbyz::scenario::{run_grid, SweepGrid};

fn load(name: &str) -> Spec {
    let path = format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Spec::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Same cells: order, labels, seeds and fully patched scenarios.
fn assert_cells_eq(name: &str, spec_grid: &SweepGrid, code_grid: &SweepGrid) {
    let a = spec_grid.cells().expect("spec grid expands");
    let b = code_grid.cells().expect("in-code grid expands");
    assert_eq!(a.len(), b.len(), "{name}: cell counts differ");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.labels, y.labels, "{name}: labels differ at {}", x.index);
        assert_eq!(x.seed, y.seed, "{name}: seeds differ at {}", x.index);
        assert_eq!(
            x.scenario, y.scenario,
            "{name}: scenarios differ at {}",
            x.index
        );
    }
}

fn assert_spec_matches(name: &str, code_grid: &SweepGrid) {
    let spec = load(name);
    assert_cells_eq(name, &spec.grid(false).expect("spec lowers"), code_grid);
}

#[test]
fn fig4_spec_matches_in_code_grid() {
    assert_spec_matches("fig4.scn", &grids::fig4());
}

#[test]
fn fig5_spec_matches_in_code_grid() {
    assert_spec_matches("fig5.scn", &grids::fig5());
}

#[test]
fn fig6_spec_matches_in_code_grid() {
    assert_spec_matches("fig6.scn", &grids::fig6());
}

#[test]
fn f3_sweep_spec_matches_in_code_grid() {
    assert_spec_matches("f3_sweep.scn", &grids::f3_sweep());
}

#[test]
fn msg_counts_spec_matches_in_code_grid() {
    assert_spec_matches("msg_counts.scn", &grids::msg_counts());
}

#[test]
fn shard_sweep_spec_matches_in_code_grid() {
    assert_spec_matches("shard_sweep.scn", &grids::shard_sweep());
}

#[test]
fn million_clients_spec_matches_in_code_grid() {
    assert_spec_matches("million_clients.scn", &grids::million_clients());
}

#[test]
fn saturation_spec_matches_in_code_grids() {
    let spec = load("saturation.scn");
    assert_cells_eq(
        "saturation (full)",
        &spec.grid(false).unwrap(),
        &grids::saturation(&grids::SweepShape::full()),
    );
    assert_cells_eq(
        "saturation (smoke)",
        &spec.grid(true).unwrap(),
        &grids::saturation(&grids::SweepShape::smoke()),
    );
}

#[test]
fn gst_spec_matches_in_code_grids() {
    let spec = load("gst_sensitivity.scn");
    assert_cells_eq(
        "gst (full)",
        &spec.grid(false).unwrap(),
        &grids::gst(&grids::SweepShape::full()),
    );
    assert_cells_eq(
        "gst (smoke)",
        &spec.grid(true).unwrap(),
        &grids::gst(&grids::SweepShape::smoke()),
    );
}

// --- executed-report equivalence (the acceptance gate) -----------------
//
// Cell equality already proves the grids are the same data; these two
// run both sides end to end and compare the measured reports, pinning
// the whole spec → parse → lower → run → report pipeline. Chosen for
// run cost: the smoke-sized scenario_sweeps grids. (The two
// bench_protocols specs have no in-code twin: their executed output is
// pinned by the committed BENCH_protocols*.json baselines, tests/cli.rs.)

fn assert_runs_identically(name: &str, spec_grid: &SweepGrid, code_grid: &SweepGrid) {
    let spec_report = run_grid(spec_grid, 2).expect("spec grid runs");
    let code_report = run_grid(code_grid, 2).expect("in-code grid runs");
    assert!(
        spec_report.same_results(&code_report),
        "{name}: spec-driven report differs from the in-code grid's"
    );
}

#[test]
fn saturation_smoke_spec_runs_identically() {
    let spec = load("saturation.scn");
    assert_runs_identically(
        "saturation.scn --smoke",
        &spec.grid(true).unwrap(),
        &grids::saturation(&grids::SweepShape::smoke()),
    );
}

#[test]
fn gst_smoke_spec_runs_identically() {
    let spec = load("gst_sensitivity.scn");
    assert_runs_identically(
        "gst_sensitivity.scn --smoke",
        &spec.grid(true).unwrap(),
        &grids::gst(&grids::SweepShape::smoke()),
    );
}
