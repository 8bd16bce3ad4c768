//! The `sofb` CLI contract: bad input is a typed, line-numbered error —
//! never a panic, never a zero exit — and the dry-run/check/list
//! surfaces behave as documented.

use sofbyz::cli::{execute, CliError};
use sofbyz::spec::report;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn dry_run_of_bad_specs_reports_line_numbered_errors() {
    let path = repo_path("specs/bad/unknown_key.scn");
    let err = execute(&args(&["run", &path, "--dry-run"])).unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(err, CliError::Spec { ref error, .. } if error.line == 9),
        "{msg}"
    );
    assert!(msg.contains("line 9"), "{msg}");
    assert!(msg.contains("colour"), "{msg}");

    let path = repo_path("specs/bad/inverted_fault_window.scn");
    let err = execute(&args(&["run", &path, "--dry-run"])).unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(err, CliError::Spec { ref error, .. } if error.line == 15),
        "{msg}"
    );
    assert!(msg.contains("must exceed"), "{msg}");
}

#[test]
fn dry_run_prints_every_point_label() {
    let path = repo_path("specs/saturation.scn");
    let out = execute(&args(&["run", &path, "--dry-run", "--smoke"])).unwrap();
    assert!(out.contains("points: 8 (smoke)"), "{out}");
    assert!(out.contains("axes: f × kind × clients × rate"), "{out}");
    assert!(out.contains("f=2 kind=SC clients=1 rate=120"), "{out}");
    assert!(out.contains("f=2 kind=CT clients=3 rate=120"), "{out}");

    // Full-size expansion of the same spec: 108 points.
    let out = execute(&args(&["run", &path, "--dry-run"])).unwrap();
    assert!(out.contains("points: 108"), "{out}");
}

#[test]
fn missing_file_and_usage_defects_are_typed() {
    let err = execute(&args(&["run", "specs/does_not_exist.scn"])).unwrap_err();
    assert!(matches!(err, CliError::Io { .. }), "{err}");

    let err = execute(&args(&["run"])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");

    let err = execute(&args(&["run", "x.scn", "--workers", "zero"])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");

    // Zero threads is rejected at parse time for both worker pools —
    // before the spec file is even opened (x.scn does not exist).
    for flag in ["--workers", "--world-workers"] {
        let err = execute(&args(&["run", "x.scn", flag, "0"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{flag} 0: {err}");
    }
    let err = execute(&args(&["run", "x.scn", "--world-workers", "zero"])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    let err = execute(&args(&["run", "x.scn", "--world-workers"])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");

    // --out replaces the file --check would verify against: rejected
    // rather than silently dropping one of them.
    let err = execute(&args(&[
        "run", "x.scn", "--out", "a.json", "--check", "b.json",
    ]))
    .unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");

    let err = execute(&args(&["frobnicate"])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");

    // No command at all prints usage successfully.
    let out = execute(&[]).unwrap();
    assert!(out.contains("USAGE"), "{out}");
}

#[test]
fn list_validates_the_committed_spec_directory() {
    let out = execute(&args(&["list", &repo_path("specs")])).unwrap();
    for name in [
        "bench_protocols.scn",
        "bench_protocols_sharded.scn",
        "f3_sweep.scn",
        "fig4.scn",
        "fig5.scn",
        "fig6.scn",
        "gst_sensitivity.scn",
        "million_clients.scn",
        "msg_counts.scn",
        "saturation.scn",
        "shard_sweep.scn",
        "fuzz_base.scn",
    ] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
    // The listing recurses, so the committed fuzz repros are validated
    // too (shown relative to the listed directory).
    assert!(out.contains("repros/"), "{out}");
    // The deliberately broken fixtures live in `bad/`, which the
    // recursion skips — they belong to the rejection tests…
    assert!(!out.contains("unknown_key.scn"), "{out}");

    // …but a listing of the bad directory itself fails typed.
    let err = execute(&args(&["list", &repo_path("specs/bad")])).unwrap_err();
    assert!(
        matches!(err, CliError::InvalidSpecs { count: 2, .. }),
        "{err}"
    );
    let msg = err.to_string();
    assert!(msg.contains("line 9"), "{msg}");
    assert!(msg.contains("line 15"), "{msg}");
}

#[test]
fn report_check_accepts_identity_and_rejects_drift() {
    // A tiny grid run end to end through the emitter: the rendered
    // report must check against itself, and a perturbed metric must be
    // rejected with the drifted key and the point's labels named.
    let spec_text = "[scenario]\n\
                     kind = CT\n\
                     f = 1\n\
                     scheme = no-crypto\n\
                     [window]\n\
                     warmup_s = 0\n\
                     run_s = 2\n\
                     drain_s = 2\n\
                     [client]\n\
                     rate = 50\n\
                     [axis]\n\
                     field = seed\n\
                     values = 42, 43\n";
    let spec = sofbyz::spec::Spec::parse(spec_text).unwrap();
    let grid = spec.grid(false).unwrap();
    let report = sofbyz::scenario::run_grid(&grid, 1).unwrap();
    let meta = report::ReportMeta {
        spec: "inline.scn",
        title: None,
        smoke: false,
    };
    let rendered = report::render(&report, meta);
    assert!(report::check(&rendered, &rendered).is_ok());

    // Wall time is machine-dependent and must be excluded.
    let rewalled = rendered.replace("\"wall_ms\": ", "\"wall_ms\": 9");
    assert!(report::check(&rendered, &rewalled).is_ok());

    let drifted = rendered.replacen("\"msgs_per_batch\": ", "\"msgs_per_batch\": 9", 1);
    let err = report::check(&rendered, &drifted).unwrap_err();
    assert!(
        err.contains("point {\"seed\": \"42\"} msgs_per_batch: committed"),
        "{err}"
    );

    // Structural drift (a seed change) is also a failure — and a drift
    // in the second point is named by the second point's labels.
    let reseeded = rendered.replacen("\"seed\": 43,", "\"seed\": 44,", 1);
    let err = report::check(&rendered, &reseeded).unwrap_err();
    assert!(
        err.contains("point {\"seed\": \"43\"} committed `\"seed\": 43,`"),
        "{err}"
    );
    assert!(!err.contains("{\"seed\": \"42\"}"), "{err}");
}

/// The two committed perf-trajectory baselines and the specs they are
/// the `sofb run … --out` output of.
const BENCH_BASELINES: [(&str, &str); 2] = [
    ("specs/bench_protocols.scn", "BENCH_protocols.json"),
    (
        "specs/bench_protocols_sharded.scn",
        "BENCH_protocols_sharded.json",
    ),
];

fn assert_checks_clean(spec: &str, baseline_rel: &str) {
    let baseline = repo_path(baseline_rel);
    let out = execute(&args(&["run", spec, "--check", &baseline]))
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    assert!(out.contains("check passed"), "{spec}: {out}");
}

#[test]
fn committed_bench_baselines_regenerate() {
    // The 1e-9 sim gate, in tier-1: each spec's executed grid must
    // re-render to its committed baseline (wall time excluded).
    for (spec_rel, baseline_rel) in BENCH_BASELINES {
        assert_checks_clean(&repo_path(spec_rel), baseline_rel);
    }
}

#[test]
fn run_check_is_blind_to_how_the_spec_path_was_typed() {
    // One committed report checks clean whether the spec is named by a
    // bare relative path, a `./` path (tests run from the package root)
    // or an absolute one: the header carries the file name only.
    let (spec_rel, baseline_rel) = BENCH_BASELINES[1];
    assert_checks_clean(spec_rel, baseline_rel);
    assert_checks_clean(&format!("./{spec_rel}"), baseline_rel);
    assert_checks_clean(&repo_path(spec_rel), baseline_rel);
}

#[test]
fn serve_and_call_usage_defects_are_typed() {
    for bad in [
        vec!["serve"],
        vec!["serve", "x.scn", "--for-ms", "0"],
        vec!["serve", "x.scn", "--time-scale", "nope"],
        vec!["serve", "x.scn", "--bogus"],
        vec!["call"],
        vec!["call", "127.0.0.1:1"],
        vec!["call", "not-an-addr", "get", "k"],
    ] {
        let err = execute(&args(&bad)).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
    }
    // A call against nothing listening is an Io error (exit 1), not a panic.
    let err = execute(&args(&["call", "127.0.0.1:9", "get", "k"])).unwrap_err();
    assert!(matches!(err, CliError::Io { .. }), "{err}");
}

#[test]
fn serve_rejects_sharded_and_faulted_specs() {
    let dir = std::env::temp_dir();
    let sharded = dir.join("sofb_cli_test_sharded.scn");
    std::fs::write(&sharded, "[scenario]\nkind = SC\nf = 1\nshards = 2\n").unwrap();
    let err = execute(&args(&["serve", sharded.to_str().unwrap()])).unwrap_err();
    assert!(matches!(err, CliError::Live { .. }), "{err}");
    assert!(err.to_string().contains("shards"), "{err}");

    let faulted = dir.join("sofb_cli_test_faulted.scn");
    std::fs::write(
        &faulted,
        "[scenario]\nkind = SC\nf = 1\n[fault]\nprocess = 0\nkind = corrupt_order\nseq = 4\n",
    )
    .unwrap();
    let err = execute(&args(&["serve", faulted.to_str().unwrap()])).unwrap_err();
    assert!(matches!(err, CliError::Live { .. }), "{err}");
    assert!(err.to_string().contains("fault"), "{err}");
}

#[test]
fn usage_text_documents_the_live_commands() {
    let out = execute(&args(&["help"])).unwrap();
    for needle in [
        "sofb serve",
        "sofb call",
        "--cross-validate",
        "--time-scale",
    ] {
        assert!(out.contains(needle), "usage text missing `{needle}`");
    }
}

#[test]
fn fuzz_usage_defects_are_typed() {
    for bad in [
        vec!["fuzz"],
        vec!["fuzz", "x.scn", "--runs", "0"],
        vec!["fuzz", "x.scn", "--runs", "many"],
        vec!["fuzz", "x.scn", "--runs"],
        vec!["fuzz", "x.scn", "--seed", "nope"],
        vec!["fuzz", "x.scn", "--oracle", "bogus"],
        vec!["fuzz", "x.scn", "--oracle", "commit_cap:x"],
        // `no_leakage` names no oracle, and `--oracles` is no flag.
        vec!["fuzz", "x.scn", "--oracle", "no_leakage"],
        vec!["fuzz", "x.scn", "--oracles", "no_leakage"],
        vec!["fuzz", "x.scn", "--oracle"],
        vec!["fuzz", "x.scn", "--out-dir"],
        vec!["fuzz", "x.scn", "--bogus"],
        vec!["fuzz", "x.scn", "extra.scn"],
        // A replay re-runs exactly what the repro pins; campaign flags
        // alongside it would silently mean nothing.
        vec!["fuzz", "x.scn", "--replay", "--runs", "4"],
        vec!["fuzz", "x.scn", "--replay", "--oracle", "total_order"],
    ] {
        let err = execute(&args(&bad)).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
    }
    // Flags parse before files open: a typed Io error, never a panic.
    let err = execute(&args(&["fuzz", "specs/does_not_exist.scn", "--replay"])).unwrap_err();
    assert!(matches!(err, CliError::Io { .. }), "{err}");
}

#[test]
fn fuzz_replay_rejects_specs_without_a_pinned_verdict() {
    // Any ordinary spec parses but pins no [meta] verdict — replaying
    // it has nothing to assert, and says so as a typed error.
    let path = repo_path("specs/fuzz_base.scn");
    let err = execute(&args(&["fuzz", &path, "--replay"])).unwrap_err();
    assert!(matches!(err, CliError::Replay { .. }), "{err}");
    assert!(err.to_string().contains("verdict"), "{err}");
}

#[test]
fn fuzz_replay_reproduces_the_committed_repros() {
    let dir = repo_path("specs/repros");
    let mut replayed = 0;
    for entry in std::fs::read_dir(&dir).expect("specs/repros exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "scn") {
            continue;
        }
        let out = execute(&args(&["fuzz", path.to_str().unwrap(), "--replay"]))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(out.contains("reproduced"), "{out}");
        replayed += 1;
    }
    assert!(replayed >= 1, "no committed repros found under {dir}");
}
