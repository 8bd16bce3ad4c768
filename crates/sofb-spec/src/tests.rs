//! Parser unit tests: every scenario field and canned axis round-trips
//! to the exact in-code construction, and the rejection matrix pins the
//! reported line numbers.

use sofb_crypto::scheme::SchemeId;
use sofb_harness::scenario::{Axis, ClientLoad, Scenario, ScenarioFault, SweepGrid, Window};
use sofb_harness::{ProtocolKind, ScenarioFaultKind};
use sofb_proto::ids::{ProcessId, SeqNo};
use sofb_sim::time::{SimDuration, SimTime};

use sofb_sim::cpu::CpuModel;

use crate::{emit_spec, EmitError, Spec, SpecError, SpecErrorKind, Verdict};

/// Two grids expand to the same cells: same order, labels, seeds and
/// fully patched scenarios.
fn assert_cells_eq(spec_grid: &SweepGrid, code_grid: &SweepGrid) {
    let a = spec_grid.cells().expect("spec grid expands");
    let b = code_grid.cells().expect("in-code grid expands");
    assert_eq!(a.len(), b.len(), "cell counts differ");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.index, y.index);
        assert_eq!(x.labels, y.labels, "labels differ at index {}", x.index);
        assert_eq!(x.seed, y.seed, "seeds differ at index {}", x.index);
        assert_eq!(
            x.scenario, y.scenario,
            "scenarios differ at index {}",
            x.index
        );
    }
}

fn parse(text: &str) -> Spec {
    Spec::parse(text).expect("spec parses")
}

fn parse_err(text: &str) -> SpecError {
    Spec::parse(text).expect_err("spec must be rejected")
}

// --- scenario-field round-trips ---------------------------------------

#[test]
fn every_scenario_field_round_trips() {
    let spec = parse(
        "[scenario]\n\
         kind = SCR\n\
         f = 3\n\
         scheme = SHA1+DSA-1024\n\
         seed = 99\n\
         interval_ms = 250\n\
         batch_max_bytes = 2048\n\
         order_timeout_ms = 1500\n\
         heartbeat_period_ms = 75\n\
         heartbeat_misses = 6\n\
         recovery_beats = 5\n\
         checkpoint_interval = 128\n\
         backlog_pad = 4096\n\
         time_checks = off\n\
         request_timeout_ms = 900\n\
         shards = 2\n\
         world_workers = 3\n\
         [window]\n\
         warmup_s = 1\n\
         run_s = 9\n\
         drain_s = 3\n\
         [client]\n\
         count = 2\n\
         rate = 55.5\n\
         size = 256\n\
         arrival = poisson\n\
         load = per_shard\n\
         population = 4\n\
         [client]\n\
         rate = 10\n",
    );
    let mut want = Scenario::new(ProtocolKind::Scr)
        .f(3)
        .scheme(SchemeId::Sha1Dsa1024)
        .seed(99)
        .interval_ms(250)
        .order_timeout(SimDuration::from_ms(1_500))
        .backlog_pad(4096)
        .time_checks(false)
        .request_timeout(SimDuration::from_ms(900))
        .shards(2)
        .world_workers(3)
        .window(Window {
            warmup_s: 1,
            run_s: 9,
            drain_s: 3,
        })
        .clients(2, ClientLoad::poisson(55.5, 256).population(4))
        .client(ClientLoad::constant(10.0, 100));
    want.knobs.batch_max_bytes = 2048;
    want.knobs.heartbeat_period = SimDuration::from_ms(75);
    want.knobs.heartbeat_misses = 6;
    want.knobs.recovery_beats = 5;
    want.knobs.checkpoint_interval = 128;
    assert_eq!(spec.base, want);
    assert_eq!(spec.base.validate(), Ok(()));
}

#[test]
fn every_fault_kind_round_trips() {
    let spec = parse(
        "[scenario]\n\
         kind = SC\n\
         shards = 2\n\
         [fault]\n\
         process = 1\n\
         kind = crash\n\
         at_ms = 3000\n\
         [fault]\n\
         process = 2\n\
         kind = mute\n\
         from_ms = 1000\n\
         until_ms = 2500\n\
         [fault]\n\
         shard = 1\n\
         process = 0\n\
         kind = delay\n\
         until_ms = 4000\n\
         extra_ms = 800\n\
         [fault]\n\
         process = 0\n\
         kind = corrupt_order\n\
         seq = 4\n\
         [fault]\n\
         process = 1\n\
         kind = duplicate\n\
         from_ms = 200\n\
         until_ms = 900\n\
         [fault]\n\
         process = 2\n\
         kind = reorder\n\
         from_ms = 100\n\
         until_ms = 600\n\
         jitter_ms = 40\n\
         [fault]\n\
         process = 3\n\
         kind = mute\n\
         from_ms = 500\n",
    );
    assert_eq!(
        spec.base.faults,
        vec![
            ScenarioFault::crash(ProcessId(1), SimTime::from_secs(3)),
            ScenarioFault::mute_until(ProcessId(2), SimTime::from_ms(1000), SimTime::from_ms(2500)),
            ScenarioFault::delay_until(
                ProcessId(0),
                SimTime::ZERO,
                SimTime::from_ms(4000),
                SimDuration::from_ms(800),
            )
            .on_shard(1),
            ScenarioFault::corrupt_order_at(ProcessId(0), SeqNo(4)),
            ScenarioFault::duplicate_until(
                ProcessId(1),
                SimTime::from_ms(200),
                SimTime::from_ms(900),
            ),
            ScenarioFault::reorder_until(
                ProcessId(2),
                SimTime::from_ms(100),
                SimTime::from_ms(600),
                SimDuration::from_ms(40),
            ),
            // An open-ended mute: from 500 ms, forever.
            ScenarioFault {
                shard: 0,
                process: ProcessId(3),
                kind: ScenarioFaultKind::Mute {
                    from: SimTime::from_ms(500),
                    until: None,
                },
            },
        ]
    );
}

#[test]
fn defaults_match_scenario_new() {
    let spec = parse("[scenario]\nkind = BFT\n");
    assert_eq!(spec.base, Scenario::new(ProtocolKind::Bft));
    assert!(!spec.has_smoke());
    assert_eq!(spec.len(false), 1);
}

// --- canned-axis round-trips ------------------------------------------

const BASE: &str = "[scenario]\n\
                    kind = SC\n\
                    f = 2\n\
                    time_checks = off\n\
                    [client]\n\
                    count = 3\n\
                    rate = 100\n";

fn base_scenario() -> Scenario {
    Scenario::bench(ProtocolKind::Sc).f(2)
}

fn spec_grid(axis_lines: &str) -> SweepGrid {
    parse(&format!("{BASE}{axis_lines}"))
        .grid(false)
        .expect("grid lowers")
}

#[test]
fn kind_axis_round_trips() {
    assert_cells_eq(
        &spec_grid("[axis]\nfield = kind\nvalues = SC, SCR, BFT, CT\n"),
        &SweepGrid::new(base_scenario()).axis(Axis::kinds(&ProtocolKind::ALL)),
    );
}

#[test]
fn resilience_axis_round_trips() {
    assert_cells_eq(
        &spec_grid("[axis]\nfield = f\nvalues = 2, 3, 4\n"),
        &SweepGrid::new(base_scenario()).axis(Axis::resiliences(&[2, 3, 4])),
    );
}

#[test]
fn scheme_axis_round_trips() {
    assert_cells_eq(
        &spec_grid("[axis]\nfield = scheme\nvalues = MD5+RSA-1024, MD5+RSA-1536, SHA1+DSA-1024\n"),
        &SweepGrid::new(base_scenario()).axis(Axis::schemes(&SchemeId::PAPER)),
    );
}

#[test]
fn interval_axis_round_trips() {
    assert_cells_eq(
        &spec_grid("[axis]\nfield = interval_ms\nvalues = 40, 100, 500\n"),
        &SweepGrid::new(base_scenario()).axis(Axis::intervals_ms(&[40, 100, 500])),
    );
}

#[test]
fn shard_axis_round_trips() {
    assert_cells_eq(
        &spec_grid("[axis]\nfield = shards\nvalues = 1, 2, 4\n"),
        &SweepGrid::new(base_scenario()).axis(Axis::shard_counts(&[1, 2, 4])),
    );
}

#[test]
fn client_count_axis_round_trips() {
    assert_cells_eq(
        &spec_grid("[axis]\nfield = clients\nvalues = 1, 3, 5\n"),
        &SweepGrid::new(base_scenario()).axis(Axis::client_counts(&[1, 3, 5])),
    );
}

#[test]
fn rate_axis_round_trips() {
    assert_cells_eq(
        &spec_grid("[axis]\nfield = rate\nvalues = 60, 120.5, 240\n"),
        &SweepGrid::new(base_scenario()).axis(Axis::rates_per_client(&[60.0, 120.5, 240.0])),
    );
}

#[test]
fn backlog_axis_with_name_and_scale_round_trips() {
    let mut pad_axis = Axis::new("backlog_kb");
    for kb in [1usize, 3, 5] {
        pad_axis = pad_axis.value(kb.to_string(), move |s| {
            s.knobs.backlog_pad = kb * 1024;
        });
    }
    assert_cells_eq(
        &spec_grid(
            "[axis]\nfield = backlog_pad\nname = backlog_kb\nscale = 1024\nvalues = 1, 3, 5\n",
        ),
        &SweepGrid::new(base_scenario()).axis(pad_axis),
    );
}

#[test]
fn seed_axis_round_trips() {
    let mut seed_axis = Axis::new("seed");
    for v in [5u64, 6, 7] {
        seed_axis = seed_axis.value(v.to_string(), move |s| s.knobs.seed = v);
    }
    assert_cells_eq(
        &spec_grid("[axis]\nfield = seed\nvalues = 5, 6, 7\n"),
        &SweepGrid::new(base_scenario()).axis(seed_axis),
    );
}

#[test]
fn gst_axis_round_trips() {
    let extra = SimDuration::from_ms(800);
    let mut gst_axis = Axis::new("gst_ms");
    for ms in [0u64, 1000, 3000] {
        gst_axis = gst_axis.value(ms.to_string(), move |s| {
            s.faults = if ms == 0 {
                Vec::new()
            } else {
                vec![ScenarioFault::delay_until(
                    ProcessId(0),
                    SimTime::ZERO,
                    SimTime::from_ms(ms),
                    extra,
                )]
            };
        });
    }
    assert_cells_eq(
        &spec_grid("[axis]\nfield = gst_ms\nvalues = 0, 1000, 3000\nextra_ms = 800\n"),
        &SweepGrid::new(base_scenario()).axis(gst_axis),
    );
}

#[test]
fn dup_axis_round_trips() {
    let mut dup_axis = Axis::new("dup_ms");
    for ms in [0u64, 2000] {
        dup_axis = dup_axis.value(ms.to_string(), move |s| {
            s.faults = if ms == 0 {
                Vec::new()
            } else {
                vec![ScenarioFault::duplicate_until(
                    ProcessId(1),
                    SimTime::ZERO,
                    SimTime::from_ms(ms),
                )]
            };
        });
    }
    assert_cells_eq(
        &spec_grid("[axis]\nfield = dup_ms\nvalues = 0, 2000\nprocess = 1\n"),
        &SweepGrid::new(base_scenario()).axis(dup_axis),
    );
}

#[test]
fn reorder_axis_round_trips() {
    let jitter = SimDuration::from_ms(40);
    let mut reorder_axis = Axis::new("reorder_ms");
    for ms in [0u64, 1500] {
        reorder_axis = reorder_axis.value(ms.to_string(), move |s| {
            s.faults = if ms == 0 {
                Vec::new()
            } else {
                vec![ScenarioFault::reorder_until(
                    ProcessId(2),
                    SimTime::ZERO,
                    SimTime::from_ms(ms),
                    jitter,
                )]
            };
        });
    }
    assert_cells_eq(
        &spec_grid("[axis]\nfield = reorder_ms\nvalues = 0, 1500\nprocess = 2\njitter_ms = 40\n"),
        &SweepGrid::new(base_scenario()).axis(reorder_axis),
    );
}

#[test]
fn interval_axis_with_seed_coupling_round_trips() {
    let mut interval_axis = Axis::new("interval_ms");
    for ms in [40u64, 100] {
        interval_axis = interval_axis.value(ms.to_string(), move |s| {
            s.knobs.batching_interval = SimDuration::from_ms(ms);
            s.knobs.seed = 242 + ms + u64::from(s.knobs.f);
        });
    }
    // The f axis runs first, so the coupling reads the patched f.
    assert_cells_eq(
        &spec_grid(
            "[axis]\nfield = f\nvalues = 2, 3\n\
             [axis]\nfield = interval_ms\nvalues = 40, 100\nseed = 242 + value + f\n",
        ),
        &SweepGrid::new(base_scenario())
            .axis(Axis::resiliences(&[2, 3]))
            .axis(interval_axis),
    );
}

#[test]
fn world_workers_axis_round_trips() {
    assert_cells_eq(
        &spec_grid("[axis]\nfield = world_workers\nvalues = 1, 2, 4\n"),
        &SweepGrid::new(base_scenario()).axis(Axis::world_workers(&[1, 2, 4])),
    );
}

#[test]
fn grid_seeds_replicate_points() {
    let spec = parse(&format!(
        "{BASE}[axis]\nfield = kind\nvalues = SC, CT\n[grid]\nseeds = 1000..=1002, 2000\n"
    ));
    let code = SweepGrid::new(base_scenario())
        .axis(Axis::kinds(&[ProtocolKind::Sc, ProtocolKind::Ct]))
        .seeds(&[1000, 1001, 1002, 2000]);
    assert_cells_eq(&spec.grid(false).unwrap(), &code);
    assert_eq!(spec.len(false), 8);
}

// --- smoke reduction --------------------------------------------------

#[test]
fn smoke_overrides_window_axes_and_seeds() {
    let spec = parse(&format!(
        "{BASE}[axis]\nfield = kind\nvalues = SC, SCR, BFT, CT\n\
         [axis]\nfield = rate\nvalues = 60, 120, 240\n\
         [grid]\nseeds = 1..=5\n\
         [smoke]\nwindow.warmup_s = 1\nwindow.run_s = 4\naxis.kind = SC\naxis.rate = 120\nseeds = 1\n"
    ));
    assert!(spec.has_smoke());
    assert_eq!(spec.len(false), 60);
    assert_eq!(spec.len(true), 1);
    let mut reduced = base_scenario();
    reduced.window.warmup_s = 1;
    reduced.window.run_s = 4;
    let code = SweepGrid::new(reduced)
        .axis(Axis::kinds(&[ProtocolKind::Sc]))
        .axis(Axis::rates_per_client(&[120.0]))
        .seeds(&[1]);
    assert_cells_eq(&spec.grid(true).unwrap(), &code);
    // The full-size grid is untouched by the smoke section.
    assert_eq!(spec.grid(false).unwrap().cells().unwrap().len(), 60);
}

#[test]
fn smoke_without_section_is_a_typed_error() {
    let spec = parse(BASE);
    let err = spec.grid(true).unwrap_err();
    assert_eq!(err.kind, SpecErrorKind::NoSmokeSection);
    assert!(err.to_string().contains("[smoke]"), "{err}");
}

// --- rejection matrix (line numbers pinned) ---------------------------

#[test]
fn unknown_key_names_the_line() {
    let err = parse_err("[scenario]\nkind = SC\ncolour = mauve\n");
    assert_eq!(err.line, 3);
    assert_eq!(
        err.kind,
        SpecErrorKind::UnknownKey {
            section: "scenario".into(),
            key: "colour".into()
        }
    );
    assert!(err.to_string().starts_with("line 3:"), "{err}");
}

#[test]
fn bad_enum_values_name_the_line() {
    let err = parse_err("[scenario]\nkind = PAXOS\n");
    assert_eq!(err.line, 2);
    assert!(
        matches!(err.kind, SpecErrorKind::BadValue { ref key, .. } if key == "kind"),
        "{err:?}"
    );

    let err = parse_err("[scenario]\nkind = SC\nscheme = ROT13\n");
    assert_eq!(err.line, 3);
    assert!(
        matches!(err.kind, SpecErrorKind::BadValue { ref key, .. } if key == "scheme"),
        "{err:?}"
    );

    let err = parse_err("[scenario]\nkind = SC\n[client]\nrate = 9\narrival = bursty\n");
    assert_eq!(err.line, 5);
    assert!(
        matches!(err.kind, SpecErrorKind::BadValue { ref key, .. } if key == "arrival"),
        "{err:?}"
    );

    // Per-shard dealing is the only load semantics: `load` accepts only
    // `per_shard`, and the shard router is gone, so its key is unknown.
    for value in ["global", "bogus"] {
        let err = parse_err(&format!(
            "[scenario]\nkind = SC\nshards = 2\n[client]\nrate = 9\nload = {value}\n"
        ));
        assert_eq!(err.line, 6);
        assert!(
            matches!(err.kind, SpecErrorKind::BadValue { ref key, .. } if key == "load"),
            "{err:?}"
        );
        assert!(err.to_string().starts_with("line 6:"), "{err}");
        assert!(err.to_string().contains("`load`"), "{err}");
    }
    for value in ["hash", "nearest"] {
        let err = parse_err(&format!("[scenario]\nkind = SC\nrouter = {value}\n"));
        assert_eq!(err.line, 3);
        assert_eq!(
            err.kind,
            SpecErrorKind::UnknownKey {
                section: "scenario".into(),
                key: "router".into()
            }
        );
        assert!(err.to_string().starts_with("line 3:"), "{err}");
        assert!(err.to_string().contains("router"), "{err}");
    }
}

/// Zero workers/members is the programmatic "unset" sentinel, never a
/// spec value: both reject at parse with the offending line.
#[test]
fn zero_world_workers_and_zero_population_are_rejected() {
    const POSITIVE: &str = "a positive worker count (>= 1)";
    let err = parse_err("[scenario]\nkind = SC\nshards = 2\nworld_workers = 0\n");
    assert_eq!(err.line, 4);
    assert!(
        matches!(err.kind, SpecErrorKind::BadValue { ref key, expected, .. }
            if key == "world_workers" && expected == POSITIVE),
        "{err:?}"
    );
    // The axis, and its `[smoke]` override, obey the key's rule.
    for (text, line) in [
        (
            "[scenario]\nkind = SC\nshards = 2\n[axis]\nfield = world_workers\nvalues = 0, 1\n",
            6,
        ),
        (
            "[scenario]\nkind = SC\nshards = 2\n[axis]\nfield = world_workers\nvalues = 1, 2\n\
             [smoke]\naxis.world_workers = 0\n",
            8,
        ),
    ] {
        let err = parse_err(text);
        assert_eq!(err.line, line, "{err:?}");
        assert!(
            matches!(err.kind, SpecErrorKind::BadValue { expected, .. } if expected == POSITIVE),
            "{err:?}"
        );
    }

    let err = parse_err("[scenario]\nkind = SC\n[client]\nrate = 9\npopulation = 0\n");
    assert_eq!(err.line, 5);
    assert!(
        matches!(err.kind, SpecErrorKind::BadValue { ref key, .. } if key == "population"),
        "{err:?}"
    );
}

#[test]
fn duplicate_section_names_both_lines() {
    let err = parse_err("[scenario]\nkind = SC\n\n[scenario]\nkind = CT\n");
    assert_eq!(err.line, 4);
    assert_eq!(
        err.kind,
        SpecErrorKind::DuplicateSection {
            section: "scenario".into(),
            first_line: 1
        }
    );
    assert!(err.to_string().contains("line 1"), "{err}");
}

#[test]
fn inverted_fault_window_names_the_until_line() {
    let err = parse_err(
        "[scenario]\nkind = BFT\n[fault]\nprocess = 0\nkind = mute\nfrom_ms = 3000\nuntil_ms = 2000\n",
    );
    assert_eq!(err.line, 7);
    assert_eq!(
        err.kind,
        SpecErrorKind::InvertedFaultWindow {
            from_ms: 3000,
            until_ms: 2000
        }
    );
}

#[test]
fn duplicate_key_names_both_lines() {
    let err = parse_err("[scenario]\nkind = SC\nf = 2\nf = 3\n");
    assert_eq!(err.line, 4);
    assert_eq!(
        err.kind,
        SpecErrorKind::DuplicateKey {
            key: "f".into(),
            first_line: 3
        }
    );
}

#[test]
fn section_headers_allow_trailing_comments_but_values_stay_verbatim() {
    let spec = parse("[scenario]  # the base point\nkind = SC\n");
    assert_eq!(spec.base.kind, ProtocolKind::Sc);
    // Junk after the `]` that is not a comment stays malformed.
    let err = parse_err("[scenario] extra\nkind = SC\n");
    assert_eq!(err.kind, SpecErrorKind::MalformedLine);
    // No inline comments on key lines: the value runs to end of line.
    let err = parse_err("[scenario]\nkind = SC # the fast one\n");
    assert!(
        matches!(err.kind, SpecErrorKind::BadValue { ref key, .. } if key == "kind"),
        "{err:?}"
    );
}

#[test]
fn lexical_defects_name_the_line() {
    let err = parse_err("kind = SC\n");
    assert_eq!(err.line, 1);
    assert_eq!(
        err.kind,
        SpecErrorKind::KeyOutsideSection { key: "kind".into() }
    );

    let err = parse_err("[banquet]\n");
    assert_eq!(err.line, 1);
    assert_eq!(
        err.kind,
        SpecErrorKind::UnknownSection {
            section: "banquet".into()
        }
    );

    let err = parse_err("[scenario]\nkind = SC\njust some words\n");
    assert_eq!(err.line, 3);
    assert_eq!(err.kind, SpecErrorKind::MalformedLine);
}

#[test]
fn missing_required_keys_name_the_section_line() {
    let err = parse_err("[scenario]\nf = 2\n");
    assert_eq!(err.line, 1);
    assert_eq!(
        err.kind,
        SpecErrorKind::MissingKey {
            section: "scenario".into(),
            key: "kind"
        }
    );

    let err = parse_err("[scenario]\nkind = SC\n[client]\nsize = 100\n");
    assert_eq!(err.line, 3);
    assert_eq!(
        err.kind,
        SpecErrorKind::MissingKey {
            section: "client".into(),
            key: "rate"
        }
    );

    let err = parse_err("[scenario]\nkind = SC\n[axis]\nvalues = 1, 2\n");
    assert_eq!(err.line, 3);
    assert_eq!(
        err.kind,
        SpecErrorKind::MissingKey {
            section: "axis".into(),
            key: "field"
        }
    );

    let err = Spec::parse("").unwrap_err();
    assert_eq!(err.kind, SpecErrorKind::MissingScenarioSection);
}

#[test]
fn inapplicable_keys_are_rejected() {
    let err = parse_err("[scenario]\nkind = SC\n[axis]\nfield = kind\nvalues = SC\nscale = 4\n");
    assert_eq!(err.line, 6);
    assert!(
        matches!(err.kind, SpecErrorKind::KeyNotApplicable { ref key, .. } if key == "scale"),
        "{err:?}"
    );

    let err = parse_err(
        "[scenario]\nkind = SC\n[fault]\nprocess = 0\nkind = crash\nat_ms = 100\nextra_ms = 5\n",
    );
    assert_eq!(err.line, 7);
    assert!(
        matches!(err.kind, SpecErrorKind::KeyNotApplicable { ref key, .. } if key == "extra_ms"),
        "{err:?}"
    );

    // `jitter_ms` belongs to `reorder` faults (and the `reorder_ms`
    // axis) only.
    let err = parse_err(
        "[scenario]\nkind = SC\n[fault]\nprocess = 0\nkind = mute\nfrom_ms = 1\njitter_ms = 5\n",
    );
    assert_eq!(err.line, 7);
    assert!(
        matches!(err.kind, SpecErrorKind::KeyNotApplicable { ref key, .. } if key == "jitter_ms"),
        "{err:?}"
    );
    let err = parse_err(
        "[scenario]\nkind = SC\n[axis]\nfield = dup_ms\nvalues = 0, 100\njitter_ms = 5\n",
    );
    assert_eq!(err.line, 6);
    assert!(
        matches!(err.kind, SpecErrorKind::KeyNotApplicable { ref key, .. } if key == "jitter_ms"),
        "{err:?}"
    );

    // A `reorder` without its jitter bound is missing a required key.
    let err = parse_err("[scenario]\nkind = SC\n[fault]\nprocess = 0\nkind = reorder\n");
    assert_eq!(err.line, 3);
    assert_eq!(
        err.kind,
        SpecErrorKind::MissingKey {
            section: "fault".into(),
            key: "jitter_ms"
        }
    );
    let err = parse_err("[scenario]\nkind = SC\n[axis]\nfield = reorder_ms\nvalues = 100\n");
    assert_eq!(err.line, 3);
    assert_eq!(
        err.kind,
        SpecErrorKind::MissingKey {
            section: "axis".into(),
            key: "jitter_ms"
        }
    );
}

// --- [meta] oracle/verdict and the repro emitter ----------------------

#[test]
fn meta_oracle_and_verdict_round_trip() {
    let spec = parse(
        "[meta]\ntitle = minimal repro\noracle = total_order\nverdict = violation\n\
         [scenario]\nkind = SC\n",
    );
    assert_eq!(spec.title.as_deref(), Some("minimal repro"));
    assert_eq!(spec.oracle.as_deref(), Some("total_order"));
    assert_eq!(spec.verdict, Some(Verdict::Violation));

    let spec = parse("[meta]\nverdict = pass\n[scenario]\nkind = SC\n");
    assert_eq!(spec.verdict, Some(Verdict::Pass));
    assert_eq!(spec.oracle, None);

    let err = parse_err("[meta]\nverdict = maybe\n[scenario]\nkind = SC\n");
    assert_eq!(err.line, 2);
    assert!(
        matches!(err.kind, SpecErrorKind::BadValue { ref key, .. } if key == "verdict"),
        "{err:?}"
    );
}

#[test]
fn emitted_spec_round_trips() {
    let mut s = Scenario::new(ProtocolKind::Scr)
        .f(2)
        .scheme(SchemeId::Sha1Dsa1024)
        .seed(77)
        .interval_ms(250)
        .time_checks(false)
        .request_timeout(SimDuration::from_ms(900))
        .shards(2)
        .world_workers(2)
        .window(Window {
            warmup_s: 1,
            run_s: 5,
            drain_s: 7,
        })
        .client(ClientLoad::poisson(55.5, 256).population(3))
        .client(ClientLoad::constant(10.0, 100));
    s.faults = vec![
        ScenarioFault::crash(ProcessId(1), SimTime::from_secs(3)),
        ScenarioFault::mute_until(ProcessId(2), SimTime::from_ms(1000), SimTime::from_ms(2500)),
        ScenarioFault::delay_until(
            ProcessId(0),
            SimTime::ZERO,
            SimTime::from_ms(4000),
            SimDuration::from_ms(800),
        )
        .on_shard(1),
        ScenarioFault::duplicate_until(ProcessId(1), SimTime::from_ms(200), SimTime::from_ms(900)),
        ScenarioFault::reorder_until(
            ProcessId(2),
            SimTime::from_ms(100),
            SimTime::from_ms(600),
            SimDuration::from_ms(40),
        ),
        ScenarioFault::corrupt_order_at(ProcessId(0), SeqNo(4)),
        // An open-ended mute exercises the omitted `until_ms`.
        ScenarioFault {
            shard: 0,
            process: ProcessId(3),
            kind: ScenarioFaultKind::Mute {
                from: SimTime::from_ms(500),
                until: None,
            },
        },
    ];
    let text = emit_spec("minimal repro", "total_order", Verdict::Violation, &s)
        .expect("expressible scenario emits");
    let spec = parse(&text);
    assert_eq!(spec.base, s, "emitted spec re-parses to the same scenario");
    assert_eq!(spec.title.as_deref(), Some("minimal repro"));
    assert_eq!(spec.oracle.as_deref(), Some("total_order"));
    assert_eq!(spec.verdict, Some(Verdict::Violation));
    // A repro is a single-point spec: no axes, one cell.
    assert_eq!(spec.len(false), 1);
    // Emission is deterministic: same scenario, same bytes.
    assert_eq!(
        text,
        emit_spec("minimal repro", "total_order", Verdict::Violation, &s).unwrap()
    );
}

#[test]
fn inexpressible_scenarios_are_emit_errors() {
    let base = Scenario::new(ProtocolKind::Sc);

    let mut sub_ms = base.clone();
    sub_ms.knobs.batching_interval = SimDuration::from_us(500);
    assert_eq!(
        emit_spec("t", "o", Verdict::Pass, &sub_ms),
        Err(EmitError::SubMillisecond {
            what: "interval_ms"
        })
    );

    let mut cpu = base.clone();
    cpu.cpu = CpuModel::zero();
    assert_eq!(
        emit_spec("t", "o", Verdict::Pass, &cpu),
        Err(EmitError::NonDefaultCpu)
    );
}

#[test]
fn empty_and_malformed_lists_are_rejected() {
    let err = parse_err("[scenario]\nkind = SC\n[axis]\nfield = f\nvalues =\n");
    assert_eq!(err.line, 5);
    assert_eq!(
        err.kind,
        SpecErrorKind::EmptyValues {
            key: "values".into()
        }
    );

    let err = parse_err("[scenario]\nkind = SC\n[grid]\nseeds = 9..=3\n");
    assert_eq!(err.line, 4);
    assert!(
        matches!(err.kind, SpecErrorKind::BadValue { ref key, .. } if key == "seeds"),
        "{err:?}"
    );

    // A whole-key-space "range" is a typo, not 2^64 replicates to
    // materialize; and an overflowing seed expression is rejected at
    // parse, not wrapped at patch time.
    let err = parse_err("[scenario]\nkind = SC\n[grid]\nseeds = 0..=18446744073709551615\n");
    assert_eq!(err.line, 4);
    assert!(
        matches!(err.kind, SpecErrorKind::BadValue { ref key, .. } if key == "seeds"),
        "{err:?}"
    );
    let err = parse_err(
        "[scenario]\nkind = SC\n[axis]\nfield = interval_ms\nvalues = 40\n\
         seed = 18446744073709551615 + 1 + value\n",
    );
    assert_eq!(err.line, 6);
    assert!(
        matches!(err.kind, SpecErrorKind::BadValue { ref key, .. } if key == "seed"),
        "{err:?}"
    );
}

#[test]
fn smoke_overriding_unknown_axis_is_rejected() {
    let err = parse_err(&format!(
        "{BASE}[axis]\nfield = kind\nvalues = SC\n[smoke]\naxis.interval_ms = 40\n"
    ));
    assert_eq!(err.line, 12);
    assert_eq!(
        err.kind,
        SpecErrorKind::UnknownAxisRef {
            name: "interval_ms".into()
        }
    );
}

#[test]
fn duplicate_axis_names_are_rejected() {
    let err = parse_err(
        "[scenario]\nkind = SC\n[axis]\nfield = f\nvalues = 1, 2\n[axis]\nfield = f\nvalues = 3\n",
    );
    assert_eq!(err.line, 6);
    assert_eq!(err.kind, SpecErrorKind::DuplicateAxis { name: "f".into() });
}

#[test]
fn spec_error_is_a_std_error_with_display() {
    let err: Box<dyn std::error::Error> = Box::new(parse_err("[scenario]\nkind = SC\nf = no\n"));
    let msg = err.to_string();
    assert!(msg.contains("line 3"), "{msg}");
    assert!(msg.contains("`f`"), "{msg}");
}

// --- [trace] section ---------------------------------------------------

#[test]
fn trace_section_round_trips() {
    let spec = parse(
        "[scenario]\nkind = SC\n[trace]\nenable = on\nnodes = 0, 2\nphases = order, commit\nsample = 10\n",
    );
    let trace = spec.trace.expect("trace config parsed");
    assert!(trace.enabled);
    assert_eq!(trace.nodes, Some(vec![0, 2]));
    assert_eq!(
        trace.phases,
        Some(vec!["order".to_string(), "commit".to_string()])
    );
    assert_eq!(trace.sample, 10);

    // Defaults: an empty section is the permissive config, and a spec
    // without the section carries none at all.
    let spec = parse("[scenario]\nkind = SC\n[trace]\n");
    assert_eq!(spec.trace, Some(sofb_obs::TraceConfig::default()));
    assert_eq!(parse("[scenario]\nkind = SC\n").trace, None);

    let spec = parse("[scenario]\nkind = SC\n[trace]\nenable = off\n");
    assert!(!spec.trace.expect("parsed").enabled);
}

#[test]
fn trace_section_rejects_bad_values() {
    let err = parse_err("[scenario]\nkind = SC\n[trace]\nsample = 0\n");
    assert_eq!(err.line, 4);
    let err = parse_err("[scenario]\nkind = SC\n[trace]\nnodes = ,\n");
    assert_eq!(err.line, 4);
    let err = parse_err("[scenario]\nkind = SC\n[trace]\nphases =\n");
    assert_eq!(err.line, 4);
    let err = parse_err("[scenario]\nkind = SC\n[trace]\nbogus = 1\n");
    assert_eq!(err.line, 4);
    assert_eq!(
        err.kind,
        SpecErrorKind::UnknownKey {
            section: "trace".into(),
            key: "bogus".into(),
        }
    );
    // Singleton: a second [trace] section names both lines.
    let err = parse_err("[scenario]\nkind = SC\n[trace]\n[trace]\n");
    assert_eq!(err.line, 4);
    assert_eq!(
        err.kind,
        SpecErrorKind::DuplicateSection {
            section: "trace".into(),
            first_line: 3,
        }
    );
}
