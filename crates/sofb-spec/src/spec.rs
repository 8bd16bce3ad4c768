//! The typed spec model and its lowering onto [`Scenario`]/[`SweepGrid`].
//!
//! [`Spec::parse`] turns a `.scn` file into a validated [`Spec`]: a base
//! scenario, the declared sweep axes (file order — which is patch order),
//! the seed replication set and the optional `[smoke]` reduction.
//! [`Spec::grid`] lowers it onto the harness's [`SweepGrid`], building
//! exactly the same labelled axis patches the in-code sweeps build — the
//! spec-equivalence tests pin that a spec-driven grid expands to
//! bit-identical cells.

use std::fmt;

use sofb_crypto::scheme::SchemeId;
use sofb_harness::scenario::{Axis, ClientLoad, Scenario, ScenarioFault, SweepGrid};
use sofb_harness::{Arrival, ProtocolKind};
use sofb_obs::TraceConfig;
use sofb_proto::ids::{ProcessId, SeqNo};
use sofb_sim::time::{SimDuration, SimTime};

use crate::error::{SpecError, SpecErrorKind};
use crate::parse::{split_sections, RawEntry, RawSection};

/// A parsed, internally consistent `.scn` spec.
///
/// What it holds is plain data: lowering through [`Spec::grid`] and then
/// [`SweepGrid::cells`] (or any runner) revalidates through
/// [`Scenario::validate`], so a `Spec` in hand still cannot smuggle a
/// malformed point past the harness.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The `[meta]` title, if the spec carries one.
    pub title: Option<String>,
    /// The `[meta]` oracle name, if the spec pins one — which fuzz
    /// oracle a repro under `specs/repros/` was minimized against.
    pub oracle: Option<String>,
    /// The `[meta]` pinned verdict, if the spec carries one — what
    /// `sofb fuzz --replay` asserts when re-running the spec.
    pub verdict: Option<Verdict>,
    /// The fully assembled base scenario every axis patches.
    pub base: Scenario,
    /// The `[trace]` section, if the spec carries one: how `sofb trace`
    /// (and any observed run of this spec) filters its structured trace.
    /// Grid lowering ignores it — tracing never perturbs measurements.
    pub trace: Option<TraceConfig>,
    axes: Vec<AxisSpec>,
    seeds: Vec<u64>,
    smoke: Option<Smoke>,
}

/// The pinned outcome of a repro spec (`[meta] verdict = …`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The spec must run clean under its oracle.
    Pass,
    /// The spec must deterministically violate its oracle.
    Violation,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass => write!(f, "pass"),
            Verdict::Violation => write!(f, "violation"),
        }
    }
}

/// The swept scenario fields an `[axis]` section can name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AxisField {
    Kind,
    F,
    Scheme,
    IntervalMs,
    Shards,
    Clients,
    Rate,
    BacklogPad,
    Seed,
    GstMs,
    DupMs,
    ReorderMs,
    WorldWorkers,
}

impl AxisField {
    fn from_key(value: &str) -> Option<Self> {
        Some(match value {
            "kind" => AxisField::Kind,
            "f" => AxisField::F,
            "scheme" => AxisField::Scheme,
            "interval_ms" => AxisField::IntervalMs,
            "shards" => AxisField::Shards,
            "clients" => AxisField::Clients,
            "rate" => AxisField::Rate,
            "backlog_pad" => AxisField::BacklogPad,
            "seed" => AxisField::Seed,
            "gst_ms" => AxisField::GstMs,
            "dup_ms" => AxisField::DupMs,
            "reorder_ms" => AxisField::ReorderMs,
            "world_workers" => AxisField::WorldWorkers,
            _ => return None,
        })
    }

    /// The default axis (label) name — what the canned in-code axes use.
    fn default_name(self) -> &'static str {
        match self {
            AxisField::Kind => "kind",
            AxisField::F => "f",
            AxisField::Scheme => "scheme",
            AxisField::IntervalMs => "interval_ms",
            AxisField::Shards => "shards",
            AxisField::Clients => "clients",
            AxisField::Rate => "rate",
            AxisField::BacklogPad => "backlog_pad",
            AxisField::Seed => "seed",
            AxisField::GstMs => "gst_ms",
            AxisField::DupMs => "dup_ms",
            AxisField::ReorderMs => "reorder_ms",
            AxisField::WorldWorkers => "world_workers",
        }
    }

    fn is_int(self) -> bool {
        !matches!(self, AxisField::Kind | AxisField::Scheme | AxisField::Rate)
    }
}

/// A typed axis value list (the type follows the axis field).
#[derive(Clone, Debug)]
enum Values {
    Kinds(Vec<ProtocolKind>),
    Schemes(Vec<SchemeId>),
    Ints(Vec<u64>),
    Floats(Vec<f64>),
}

impl Values {
    fn len(&self) -> usize {
        match self {
            Values::Kinds(v) => v.len(),
            Values::Schemes(v) => v.len(),
            Values::Ints(v) => v.len(),
            Values::Floats(v) => v.len(),
        }
    }
}

/// A seed-coupling expression: `base [+ value] [+ f]` — the spec form of
/// the figure sweeps' historical seeding, where the world seed tracks
/// the swept value (and, for the f = 3 sweep, the resilience written by
/// an earlier axis).
#[derive(Clone, Copy, Debug)]
struct SeedExpr {
    base: u64,
    plus_value: bool,
    plus_f: bool,
}

impl SeedExpr {
    fn parse(entry: &RawEntry) -> Result<Self, SpecError> {
        let mut e = SeedExpr {
            base: 0,
            plus_value: false,
            plus_f: false,
        };
        let mut any = false;
        for term in entry.value.split('+') {
            let term = term.trim();
            any = true;
            match term {
                "value" => e.plus_value = true,
                "f" => e.plus_f = true,
                _ => {
                    let t: u64 = term.parse().map_err(|_| bad_value(entry, SEED_EXPR))?;
                    e.base = e
                        .base
                        .checked_add(t)
                        .ok_or_else(|| bad_value(entry, SEED_EXPR))?;
                }
            }
        }
        if !any {
            return Err(bad_value(entry, SEED_EXPR));
        }
        Ok(e)
    }

    fn eval(&self, value: u64, f: u32) -> u64 {
        // Saturate rather than wrap: a seed near u64::MAX is still a
        // valid (if eccentric) seed, and patches must never panic.
        self.base
            .saturating_add(if self.plus_value { value } else { 0 })
            .saturating_add(if self.plus_f { u64::from(f) } else { 0 })
    }
}

const SEED_EXPR: &str = "a seed expression (`+`-separated integers, `value`, `f`)";

const WORLD_WORKERS: &str = "a positive worker count (>= 1)";

/// One `[axis]` section, lowered lazily so `[smoke]` can substitute the
/// value list while keeping the field, name, scale and seed coupling.
#[derive(Clone, Debug)]
struct AxisSpec {
    name: String,
    field: AxisField,
    values: Values,
    /// Multiplier applied to integer values before they hit the field
    /// (labels keep the raw value) — `backlog_pad` in KB, for example.
    scale: u64,
    seed: Option<SeedExpr>,
    /// `gst_ms`/`dup_ms`/`reorder_ms` only: the faulted process.
    process: u32,
    /// `gst_ms` only: the extra pre-GST one-way latency.
    extra_ms: u64,
    /// `reorder_ms` only: the per-message jitter bound.
    jitter_ms: u64,
}

impl AxisSpec {
    /// Builds the harness [`Axis`] over `values` (the spec's own list,
    /// or the smoke replacement).
    fn build(&self, values: &Values) -> Axis {
        let mut a = Axis::new(self.name.clone());
        match values {
            Values::Kinds(kinds) => {
                for &k in kinds {
                    a = a.value(k.to_string(), move |s| s.set_kind(k));
                }
            }
            Values::Schemes(schemes) => {
                for &sc in schemes {
                    a = a.value(sc.to_string(), move |s| s.knobs.scheme = sc);
                }
            }
            Values::Floats(rates) => {
                for &r in rates {
                    a = a.value(format!("{r}"), move |s| {
                        for c in &mut s.clients {
                            c.rate_per_sec = r;
                        }
                    });
                }
            }
            Values::Ints(ints) => {
                let (field, scale, seed) = (self.field, self.scale, self.seed);
                let (process, extra_ms, jitter_ms) = (self.process, self.extra_ms, self.jitter_ms);
                for &v in ints {
                    a = a.value(v.to_string(), move |s| {
                        apply_int_axis(
                            field,
                            v.saturating_mul(scale),
                            process,
                            extra_ms,
                            jitter_ms,
                            s,
                        );
                        if let Some(e) = seed {
                            s.knobs.seed = e.eval(v, s.knobs.f);
                        }
                    });
                }
            }
        }
        a
    }
}

/// Writes one integer axis value into its scenario field — mirroring the
/// canned in-code axes patch for patch.
fn apply_int_axis(
    field: AxisField,
    v: u64,
    process: u32,
    extra_ms: u64,
    jitter_ms: u64,
    s: &mut Scenario,
) {
    match field {
        AxisField::F => s.knobs.f = v as u32,
        AxisField::IntervalMs => s.knobs.batching_interval = SimDuration::from_ms(v),
        AxisField::Shards => s.shards = v as usize,
        AxisField::Clients => {
            let proto = s
                .clients
                .first()
                .copied()
                .unwrap_or_else(|| ClientLoad::constant(100.0, 100));
            s.clients = vec![proto; v as usize];
        }
        AxisField::BacklogPad => s.knobs.backlog_pad = v as usize,
        AxisField::Seed => s.knobs.seed = v,
        AxisField::WorldWorkers => s.world_workers = v as usize,
        AxisField::GstMs => {
            // GST at origin means the network is timely throughout; any
            // later GST scripts a delay-until-GST window on the chosen
            // process, replacing the fault plan.
            s.faults = if v == 0 {
                Vec::new()
            } else {
                vec![ScenarioFault::delay_until(
                    ProcessId(process),
                    SimTime::ZERO,
                    SimTime::from_ms(v),
                    SimDuration::from_ms(extra_ms),
                )]
            };
        }
        AxisField::DupMs => {
            // 0 means no duplication; any later bound scripts a
            // duplicate window `[0, v)` on the chosen process, replacing
            // the fault plan (the gst_ms convention).
            s.faults = if v == 0 {
                Vec::new()
            } else {
                vec![ScenarioFault::duplicate_until(
                    ProcessId(process),
                    SimTime::ZERO,
                    SimTime::from_ms(v),
                )]
            };
        }
        AxisField::ReorderMs => {
            s.faults = if v == 0 {
                Vec::new()
            } else {
                vec![ScenarioFault::reorder_until(
                    ProcessId(process),
                    SimTime::ZERO,
                    SimTime::from_ms(v),
                    SimDuration::from_ms(jitter_ms),
                )]
            };
        }
        AxisField::Kind | AxisField::Scheme | AxisField::Rate => {
            unreachable!("non-integer axis fields never reach apply_int_axis")
        }
    }
}

/// The `[smoke]` reduction: scenario/window overrides (re-applied over
/// the base), replacement value lists for named axes, and an optional
/// replacement seed set.
#[derive(Clone, Debug)]
struct Smoke {
    entries: Vec<RawEntry>,
    axis_values: Vec<(usize, Values)>,
    seeds: Option<Vec<u64>>,
}

impl Spec {
    /// Parses a spec file. The error names the offending line.
    pub fn parse(text: &str) -> Result<Spec, SpecError> {
        let sections = split_sections(text)?;
        check_singletons(&sections)?;

        let scenario_section = sections
            .iter()
            .find(|s| s.name == "scenario")
            .ok_or_else(|| SpecError::new(0, SpecErrorKind::MissingScenarioSection))?;
        let mut base = build_base_scenario(scenario_section)?;
        if let Some(window) = sections.iter().find(|s| s.name == "window") {
            apply_window_section(&mut base, window)?;
        }
        for client in sections.iter().filter(|s| s.name == "client") {
            let (load, count) = build_client(client)?;
            base.clients.extend(std::iter::repeat_n(load, count));
        }
        for fault in sections.iter().filter(|s| s.name == "fault") {
            base.faults.push(build_fault(fault)?);
        }

        let mut axes = Vec::new();
        for section in sections.iter().filter(|s| s.name == "axis") {
            let axis = build_axis(section)?;
            if axes.iter().any(|a: &AxisSpec| a.name == axis.name) {
                return Err(SpecError::new(
                    section.line,
                    SpecErrorKind::DuplicateAxis { name: axis.name },
                ));
            }
            axes.push(axis);
        }

        let mut seeds = Vec::new();
        if let Some(grid) = sections.iter().find(|s| s.name == "grid") {
            for e in &grid.entries {
                match e.key.as_str() {
                    "seeds" => seeds = parse_seed_list(e)?,
                    _ => return Err(unknown_key(grid, e)),
                }
            }
        }

        let mut title = None;
        let mut oracle = None;
        let mut verdict = None;
        if let Some(meta) = sections.iter().find(|s| s.name == "meta") {
            for e in &meta.entries {
                match e.key.as_str() {
                    "title" => title = Some(e.value.clone()),
                    "oracle" => oracle = Some(e.value.clone()),
                    "verdict" => {
                        verdict = Some(match e.value.to_ascii_lowercase().as_str() {
                            "pass" => Verdict::Pass,
                            "violation" => Verdict::Violation,
                            _ => return Err(bad_value(e, "`pass` or `violation`")),
                        })
                    }
                    _ => return Err(unknown_key(meta, e)),
                }
            }
        }

        let smoke = sections
            .iter()
            .find(|s| s.name == "smoke")
            .map(|s| build_smoke(s, &base, &axes))
            .transpose()?;

        let trace = sections
            .iter()
            .find(|s| s.name == "trace")
            .map(build_trace)
            .transpose()?;

        Ok(Spec {
            title,
            oracle,
            verdict,
            base,
            trace,
            axes,
            seeds,
            smoke,
        })
    }

    /// True when the spec carries a `[smoke]` reduction.
    pub fn has_smoke(&self) -> bool {
        self.smoke.is_some()
    }

    /// The declared axis names, in file (= patch) order.
    pub fn axis_names(&self) -> impl Iterator<Item = &str> {
        self.axes.iter().map(|a| a.name.as_str())
    }

    /// Number of points the lowered grid expands to.
    pub fn len(&self, smoke: bool) -> usize {
        let axis_len = |i: usize, a: &AxisSpec| {
            if smoke {
                if let Some(sm) = &self.smoke {
                    if let Some((_, vals)) = sm.axis_values.iter().find(|(j, _)| *j == i) {
                        return vals.len();
                    }
                }
            }
            a.values.len()
        };
        let points: usize = self
            .axes
            .iter()
            .enumerate()
            .map(|(i, a)| axis_len(i, a))
            .product();
        let seeds = if smoke {
            self.smoke
                .as_ref()
                .and_then(|sm| sm.seeds.as_ref())
                .unwrap_or(&self.seeds)
                .len()
        } else {
            self.seeds.len()
        };
        points * seeds.max(1)
    }

    /// True when the grid expands to no points.
    pub fn is_empty(&self, smoke: bool) -> bool {
        self.len(smoke) == 0
    }

    /// Lowers the spec onto a [`SweepGrid`]. With `smoke`, the
    /// `[smoke]` overrides are applied first (an error if the spec
    /// declares none).
    pub fn grid(&self, smoke: bool) -> Result<SweepGrid, SpecError> {
        let mut base = self.base.clone();
        let mut values: Vec<&Values> = self.axes.iter().map(|a| &a.values).collect();
        let mut seeds = &self.seeds;
        if smoke {
            let sm = self
                .smoke
                .as_ref()
                .ok_or_else(|| SpecError::new(0, SpecErrorKind::NoSmokeSection))?;
            // Entries were validated against a clone of the base at parse
            // time, so re-application cannot fail; propagate anyway
            // rather than unwrap.
            for e in &sm.entries {
                apply_smoke_entry(&mut base, e)?;
            }
            for (i, vals) in &sm.axis_values {
                values[*i] = vals;
            }
            if let Some(s) = &sm.seeds {
                seeds = s;
            }
        }
        let mut grid = SweepGrid::new(base);
        for (axis, vals) in self.axes.iter().zip(values) {
            grid = grid.axis(axis.build(vals));
        }
        if !seeds.is_empty() {
            grid = grid.seeds(seeds);
        }
        Ok(grid)
    }
}

fn check_singletons(sections: &[RawSection]) -> Result<(), SpecError> {
    for name in ["meta", "scenario", "window", "grid", "smoke", "trace"] {
        let mut seen: Option<usize> = None;
        for s in sections.iter().filter(|s| s.name == name) {
            if let Some(first_line) = seen {
                return Err(SpecError::new(
                    s.line,
                    SpecErrorKind::DuplicateSection {
                        section: name.to_string(),
                        first_line,
                    },
                ));
            }
            seen = Some(s.line);
        }
    }
    Ok(())
}

fn unknown_key(section: &RawSection, entry: &RawEntry) -> SpecError {
    SpecError::new(
        entry.line,
        SpecErrorKind::UnknownKey {
            section: section.name.clone(),
            key: entry.key.clone(),
        },
    )
}

fn bad_value(entry: &RawEntry, expected: &'static str) -> SpecError {
    SpecError::new(
        entry.line,
        SpecErrorKind::BadValue {
            key: entry.key.clone(),
            value: entry.value.clone(),
            expected,
        },
    )
}

fn parse_u64(entry: &RawEntry) -> Result<u64, SpecError> {
    entry
        .value
        .parse()
        .map_err(|_| bad_value(entry, "a non-negative integer"))
}

fn parse_u32(entry: &RawEntry) -> Result<u32, SpecError> {
    entry
        .value
        .parse()
        .map_err(|_| bad_value(entry, "a non-negative integer"))
}

fn parse_usize(entry: &RawEntry) -> Result<usize, SpecError> {
    entry
        .value
        .parse()
        .map_err(|_| bad_value(entry, "a non-negative integer"))
}

fn parse_f64(entry: &RawEntry) -> Result<f64, SpecError> {
    entry
        .value
        .parse()
        .map_err(|_| bad_value(entry, "a number"))
}

fn parse_bool(entry: &RawEntry) -> Result<bool, SpecError> {
    match entry.value.to_ascii_lowercase().as_str() {
        "on" | "true" | "yes" => Ok(true),
        "off" | "false" | "no" => Ok(false),
        _ => Err(bad_value(entry, "one of on/off/true/false")),
    }
}

fn parse_kind(entry: &RawEntry, token: &str) -> Result<ProtocolKind, SpecError> {
    ProtocolKind::ALL
        .into_iter()
        .find(|k| k.to_string().eq_ignore_ascii_case(token.trim()))
        .ok_or_else(|| bad_value(entry, "a protocol kind (SC, SCR, BFT, CT)"))
}

/// Every scheme the crypto crate defines, by its display name.
const SCHEMES: [SchemeId; 5] = [
    SchemeId::Md5Rsa1024,
    SchemeId::Md5Rsa1536,
    SchemeId::Sha1Dsa1024,
    SchemeId::Sha256Rsa2048,
    SchemeId::NoCrypto,
];

fn parse_scheme(entry: &RawEntry, token: &str) -> Result<SchemeId, SpecError> {
    SCHEMES
        .into_iter()
        .find(|s| s.to_string().eq_ignore_ascii_case(token.trim()))
        .ok_or_else(|| {
            bad_value(
                entry,
                "a crypto scheme (MD5+RSA-1024, MD5+RSA-1536, SHA1+DSA-1024, \
                 SHA256+RSA-2048, no-crypto)",
            )
        })
}

/// Splits a comma-separated value list into trimmed non-empty tokens.
/// Lowers a `[trace]` section onto a [`TraceConfig`]:
///
/// ```text
/// [trace]
/// enable = on          # default on; off parses but filters everything
/// nodes  = 0, 1, 2     # optional: keep only these global node indices
/// phases = order, commit  # optional: keep only these record names
/// sample = 10          # optional: keep every 10th dispatch/deliver
/// ```
fn build_trace(section: &RawSection) -> Result<TraceConfig, SpecError> {
    let mut config = TraceConfig::default();
    for e in &section.entries {
        match e.key.as_str() {
            "enable" => config.enabled = parse_bool(e)?,
            "nodes" => {
                let mut nodes = Vec::new();
                for t in split_list(&e.value) {
                    nodes.push(
                        t.parse::<usize>()
                            .map_err(|_| bad_value(e, "a list of node indices"))?,
                    );
                }
                if nodes.is_empty() {
                    return Err(bad_value(e, "a non-empty list of node indices"));
                }
                config.nodes = Some(nodes);
            }
            "phases" => {
                let phases: Vec<String> = split_list(&e.value)
                    .into_iter()
                    .map(str::to_string)
                    .collect();
                if phases.is_empty() {
                    return Err(bad_value(e, "a non-empty list of record names"));
                }
                config.phases = Some(phases);
            }
            "sample" => {
                let sample = parse_u64(e)?;
                if sample == 0 {
                    return Err(bad_value(e, "a positive sampling interval (>= 1)"));
                }
                config.sample = sample;
            }
            _ => return Err(unknown_key(section, e)),
        }
    }
    Ok(config)
}

fn split_list(value: &str) -> Vec<&str> {
    value
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .collect()
}

/// A seed list is a replication factor, not a key space: anything past
/// this is a typo (`0..=18446744073709551615`) that must not OOM the
/// parser materializing it.
const MAX_SEEDS: u64 = 65_536;

fn parse_seed_list(entry: &RawEntry) -> Result<Vec<u64>, SpecError> {
    const EXPECTED: &str =
        "a seed list (integers and `lo..=hi` ranges, comma-separated; at most 65536 seeds)";
    let mut seeds = Vec::new();
    for tok in split_list(&entry.value) {
        if let Some((lo, hi)) = tok.split_once("..=") {
            let lo = lo.parse::<u64>().map_err(|_| bad_value(entry, EXPECTED))?;
            let hi = hi.parse::<u64>().map_err(|_| bad_value(entry, EXPECTED))?;
            if hi < lo || hi - lo >= MAX_SEEDS {
                return Err(bad_value(entry, EXPECTED));
            }
            seeds.extend(lo..=hi);
        } else {
            seeds.push(tok.parse::<u64>().map_err(|_| bad_value(entry, EXPECTED))?);
        }
        if seeds.len() as u64 > MAX_SEEDS {
            return Err(bad_value(entry, EXPECTED));
        }
    }
    if seeds.is_empty() {
        return Err(SpecError::new(
            entry.line,
            SpecErrorKind::EmptyValues {
                key: entry.key.clone(),
            },
        ));
    }
    Ok(seeds)
}

/// Applies one `[scenario]` key. `Ok(false)` means the key is not a
/// scenario key (the caller decides whether that is an error).
fn apply_scenario_key(s: &mut Scenario, entry: &RawEntry) -> Result<bool, SpecError> {
    match entry.key.as_str() {
        "kind" => s.set_kind(parse_kind(entry, &entry.value)?),
        "f" => s.knobs.f = parse_u32(entry)?,
        "scheme" => s.knobs.scheme = parse_scheme(entry, &entry.value)?,
        "seed" => s.knobs.seed = parse_u64(entry)?,
        "interval_ms" => s.knobs.batching_interval = SimDuration::from_ms(parse_u64(entry)?),
        "batch_max_bytes" => s.knobs.batch_max_bytes = parse_usize(entry)?,
        "order_timeout_ms" => s.knobs.order_timeout = SimDuration::from_ms(parse_u64(entry)?),
        "heartbeat_period_ms" => s.knobs.heartbeat_period = SimDuration::from_ms(parse_u64(entry)?),
        "heartbeat_misses" => s.knobs.heartbeat_misses = parse_u32(entry)?,
        "recovery_beats" => s.knobs.recovery_beats = parse_u32(entry)?,
        "checkpoint_interval" => s.knobs.checkpoint_interval = parse_u64(entry)?,
        "backlog_pad" => s.knobs.backlog_pad = parse_usize(entry)?,
        "time_checks" => s.knobs.time_checks = parse_bool(entry)?,
        "request_timeout_ms" => {
            s.knobs.request_timeout = if entry.value.eq_ignore_ascii_case("none") {
                None
            } else {
                Some(SimDuration::from_ms(parse_u64(entry)?))
            }
        }
        "shards" => s.shards = parse_usize(entry)?,
        "world_workers" => {
            // 0 is the programmatic "unset" default and stays
            // unreachable from specs, same as from the CLI flag.
            s.world_workers = match parse_usize(entry)? {
                0 => return Err(bad_value(entry, WORLD_WORKERS)),
                w => w,
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Applies one `window.`-prefixed or bare window key to the scenario's
/// window. `Ok(false)` means the key is not a window key.
fn apply_window_key(s: &mut Scenario, entry: &RawEntry) -> Result<bool, SpecError> {
    let key = entry.key.strip_prefix("window.").unwrap_or(&entry.key);
    match key {
        "warmup_s" => s.window.warmup_s = parse_u64(entry)?,
        "run_s" => s.window.run_s = parse_u64(entry)?,
        "drain_s" => s.window.drain_s = parse_u64(entry)?,
        _ => return Ok(false),
    }
    Ok(true)
}

fn build_base_scenario(section: &RawSection) -> Result<Scenario, SpecError> {
    let kind_entry = section.require("kind")?;
    let kind = parse_kind(kind_entry, &kind_entry.value)?;
    let mut s = Scenario::new(kind);
    // A spec's client set is what its [client] sections say, nothing
    // implicit: start from the empty set (Scenario::new already does).
    for e in &section.entries {
        if !apply_scenario_key(&mut s, e)? {
            return Err(unknown_key(section, e));
        }
    }
    Ok(s)
}

/// `[window]` sections use the bare keys (`warmup_s = 2`).
fn apply_window_section(s: &mut Scenario, section: &RawSection) -> Result<(), SpecError> {
    for e in &section.entries {
        if !apply_window_key(s, e)? {
            return Err(unknown_key(section, e));
        }
    }
    Ok(())
}

fn build_client(section: &RawSection) -> Result<(ClientLoad, usize), SpecError> {
    let mut load = ClientLoad::constant(0.0, 100);
    let mut count = 1usize;
    let mut have_rate = false;
    for e in &section.entries {
        match e.key.as_str() {
            "count" => count = parse_usize(e)?,
            "rate" => {
                load.rate_per_sec = parse_f64(e)?;
                have_rate = true;
            }
            "size" => load.request_size = parse_usize(e)?,
            "arrival" => {
                load.arrival = match e.value.to_ascii_lowercase().as_str() {
                    "constant" => Arrival::Constant,
                    "poisson" => Arrival::Poisson,
                    _ => return Err(bad_value(e, "`constant` or `poisson`")),
                }
            }
            // Per-shard dealing is the only semantics; the key stays
            // accepted (and sets nothing) because committed specs say it.
            "load" => {
                if !e.value.eq_ignore_ascii_case("per_shard") {
                    return Err(bad_value(e, "`per_shard`"));
                }
            }
            "population" => {
                load.population = match parse_usize(e)? {
                    0 => return Err(bad_value(e, "a positive client population (>= 1)")),
                    p => p,
                }
            }
            _ => return Err(unknown_key(section, e)),
        }
    }
    if !have_rate {
        return Err(section.require("rate").unwrap_err());
    }
    Ok((load, count))
}

fn build_fault(section: &RawSection) -> Result<ScenarioFault, SpecError> {
    let kind_entry = section.require("kind")?;
    let process = ProcessId(parse_u32(section.require("process")?)?);
    let shard = match section.get("shard") {
        Some(e) => parse_usize(e)?,
        None => 0,
    };
    // Which keys each fault kind reads; anything else in the section is
    // rejected as not applicable so a typo cannot silently drop a knob.
    let (allowed, reason): (&[&str], &'static str) = match kind_entry.value.as_str() {
        "crash" => (&["at_ms"], "a `crash` fault takes only `at_ms`"),
        "mute" => (
            &["from_ms", "until_ms"],
            "a `mute` fault takes only `from_ms`/`until_ms`",
        ),
        "delay" => (
            &["from_ms", "until_ms", "extra_ms"],
            "a `delay` fault takes only `from_ms`/`until_ms`/`extra_ms`",
        ),
        "duplicate" => (
            &["from_ms", "until_ms"],
            "a `duplicate` fault takes only `from_ms`/`until_ms`",
        ),
        "reorder" => (
            &["from_ms", "until_ms", "jitter_ms"],
            "a `reorder` fault takes only `from_ms`/`until_ms`/`jitter_ms`",
        ),
        "corrupt_order" => (&["seq"], "a `corrupt_order` fault takes only `seq`"),
        _ => {
            return Err(bad_value(
                kind_entry,
                "a fault kind (crash, mute, delay, duplicate, reorder, corrupt_order)",
            ))
        }
    };
    for e in &section.entries {
        let common = matches!(e.key.as_str(), "kind" | "process" | "shard");
        if !common && !allowed.contains(&e.key.as_str()) {
            if matches!(
                e.key.as_str(),
                "at_ms" | "from_ms" | "until_ms" | "extra_ms" | "jitter_ms" | "seq"
            ) {
                return Err(SpecError::new(
                    e.line,
                    SpecErrorKind::KeyNotApplicable {
                        key: e.key.clone(),
                        reason,
                    },
                ));
            }
            return Err(unknown_key(section, e));
        }
    }
    let window = |section: &RawSection| -> Result<(SimTime, Option<SimTime>), SpecError> {
        let from_ms = match section.get("from_ms") {
            Some(e) => parse_u64(e)?,
            None => 0,
        };
        let until = match section.get("until_ms") {
            Some(e) => {
                let until_ms = parse_u64(e)?;
                if until_ms <= from_ms {
                    return Err(SpecError::new(
                        e.line,
                        SpecErrorKind::InvertedFaultWindow { from_ms, until_ms },
                    ));
                }
                Some(SimTime::from_ms(until_ms))
            }
            None => None,
        };
        Ok((SimTime::from_ms(from_ms), until))
    };
    let fault = match kind_entry.value.as_str() {
        "crash" => {
            let at = SimTime::from_ms(parse_u64(section.require("at_ms")?)?);
            ScenarioFault::crash(process, at)
        }
        "mute" => {
            let (from, until) = window(section)?;
            ScenarioFault {
                shard: 0,
                process,
                kind: sofb_harness::scenario::ScenarioFaultKind::Mute { from, until },
            }
        }
        "delay" => {
            let extra = SimDuration::from_ms(parse_u64(section.require("extra_ms")?)?);
            let (from, until) = window(section)?;
            ScenarioFault {
                shard: 0,
                process,
                kind: sofb_harness::scenario::ScenarioFaultKind::Delay { from, until, extra },
            }
        }
        "duplicate" => {
            let (from, until) = window(section)?;
            ScenarioFault {
                shard: 0,
                process,
                kind: sofb_harness::scenario::ScenarioFaultKind::Duplicate { from, until },
            }
        }
        "reorder" => {
            let jitter = SimDuration::from_ms(parse_u64(section.require("jitter_ms")?)?);
            let (from, until) = window(section)?;
            ScenarioFault {
                shard: 0,
                process,
                kind: sofb_harness::scenario::ScenarioFaultKind::Reorder {
                    from,
                    until,
                    jitter,
                },
            }
        }
        "corrupt_order" => {
            ScenarioFault::corrupt_order_at(process, SeqNo(parse_u64(section.require("seq")?)?))
        }
        _ => unreachable!("kind validated above"),
    };
    Ok(fault.on_shard(shard))
}

fn build_axis(section: &RawSection) -> Result<AxisSpec, SpecError> {
    let field_entry = section.require("field")?;
    let field = AxisField::from_key(&field_entry.value).ok_or_else(|| {
        bad_value(
            field_entry,
            "an axis field (kind, f, scheme, interval_ms, shards, clients, rate, \
             backlog_pad, seed, gst_ms, dup_ms, reorder_ms, world_workers)",
        )
    })?;
    let values_entry = section.require("values")?;
    let values = parse_axis_values(field, values_entry)?;
    let mut axis = AxisSpec {
        name: field.default_name().to_string(),
        field,
        values,
        scale: 1,
        seed: None,
        process: 0,
        extra_ms: 0,
        jitter_ms: 0,
    };
    for e in &section.entries {
        match e.key.as_str() {
            "field" | "values" => {}
            "name" => axis.name = e.value.clone(),
            "scale" => {
                if !field.is_int() {
                    return Err(SpecError::new(
                        e.line,
                        SpecErrorKind::KeyNotApplicable {
                            key: e.key.clone(),
                            reason: "`scale` applies only to integer-valued axes",
                        },
                    ));
                }
                axis.scale = parse_u64(e)?;
            }
            "seed" => {
                if !field.is_int() || field == AxisField::Seed {
                    return Err(SpecError::new(
                        e.line,
                        SpecErrorKind::KeyNotApplicable {
                            key: e.key.clone(),
                            reason: "seed coupling applies only to integer-valued axes \
                                     other than `seed` itself",
                        },
                    ));
                }
                axis.seed = Some(SeedExpr::parse(e)?);
            }
            "process" => {
                if !matches!(
                    field,
                    AxisField::GstMs | AxisField::DupMs | AxisField::ReorderMs
                ) {
                    return Err(SpecError::new(
                        e.line,
                        SpecErrorKind::KeyNotApplicable {
                            key: e.key.clone(),
                            reason: "`process` applies only to the fault-window axes \
                                     (`gst_ms`, `dup_ms`, `reorder_ms`)",
                        },
                    ));
                }
                axis.process = parse_u32(e)?;
            }
            "extra_ms" => {
                if field != AxisField::GstMs {
                    return Err(SpecError::new(
                        e.line,
                        SpecErrorKind::KeyNotApplicable {
                            key: e.key.clone(),
                            reason: "`extra_ms` applies only to the `gst_ms` axis",
                        },
                    ));
                }
                axis.extra_ms = parse_u64(e)?;
            }
            "jitter_ms" => {
                if field != AxisField::ReorderMs {
                    return Err(SpecError::new(
                        e.line,
                        SpecErrorKind::KeyNotApplicable {
                            key: e.key.clone(),
                            reason: "`jitter_ms` applies only to the `reorder_ms` axis",
                        },
                    ));
                }
                axis.jitter_ms = parse_u64(e)?;
            }
            _ => return Err(unknown_key(section, e)),
        }
    }
    if field == AxisField::GstMs && section.get("extra_ms").is_none() {
        return Err(section.require("extra_ms").unwrap_err());
    }
    if field == AxisField::ReorderMs && section.get("jitter_ms").is_none() {
        return Err(section.require("jitter_ms").unwrap_err());
    }
    Ok(axis)
}

fn parse_axis_values(field: AxisField, entry: &RawEntry) -> Result<Values, SpecError> {
    let tokens = split_list(&entry.value);
    if tokens.is_empty() {
        return Err(SpecError::new(
            entry.line,
            SpecErrorKind::EmptyValues {
                key: entry.key.clone(),
            },
        ));
    }
    Ok(match field {
        AxisField::Kind => Values::Kinds(
            tokens
                .iter()
                .map(|t| parse_kind(entry, t))
                .collect::<Result<_, _>>()?,
        ),
        AxisField::Scheme => Values::Schemes(
            tokens
                .iter()
                .map(|t| parse_scheme(entry, t))
                .collect::<Result<_, _>>()?,
        ),
        AxisField::Rate => Values::Floats(
            tokens
                .iter()
                .map(|t| {
                    t.parse::<f64>()
                        .map_err(|_| bad_value(entry, "a number list"))
                })
                .collect::<Result<_, _>>()?,
        ),
        _ => Values::Ints(
            tokens
                .iter()
                .map(|t| match t.parse::<u64>() {
                    // The `world_workers` key's rule holds for its axis.
                    Ok(0) if field == AxisField::WorldWorkers => {
                        Err(bad_value(entry, WORLD_WORKERS))
                    }
                    Ok(v) => Ok(v),
                    Err(_) => Err(bad_value(entry, "an integer list")),
                })
                .collect::<Result<_, _>>()?,
        ),
    })
}

/// Applies one validated `[smoke]` entry (scenario or `window.` key) to
/// the base scenario.
fn apply_smoke_entry(s: &mut Scenario, entry: &RawEntry) -> Result<(), SpecError> {
    if entry.key.starts_with("window.") {
        if apply_window_key(s, entry)? {
            return Ok(());
        }
    } else if apply_scenario_key(s, entry)? {
        return Ok(());
    }
    Err(SpecError::new(
        entry.line,
        SpecErrorKind::UnknownKey {
            section: "smoke".to_string(),
            key: entry.key.clone(),
        },
    ))
}

fn build_smoke(
    section: &RawSection,
    base: &Scenario,
    axes: &[AxisSpec],
) -> Result<Smoke, SpecError> {
    let mut smoke = Smoke {
        entries: Vec::new(),
        axis_values: Vec::new(),
        seeds: None,
    };
    // Validate scenario/window overrides now, against a scratch copy, so
    // `--smoke` failures surface at load with their line numbers.
    let mut scratch = base.clone();
    for e in &section.entries {
        if let Some(axis_name) = e.key.strip_prefix("axis.") {
            let Some((i, axis)) = axes.iter().enumerate().find(|(_, a)| a.name == axis_name) else {
                return Err(SpecError::new(
                    e.line,
                    SpecErrorKind::UnknownAxisRef {
                        name: axis_name.to_string(),
                    },
                ));
            };
            let values = parse_axis_values(axis.field, e)?;
            smoke.axis_values.push((i, values));
        } else if e.key == "seeds" {
            smoke.seeds = Some(parse_seed_list(e)?);
        } else {
            apply_smoke_entry(&mut scratch, e)?;
            smoke.entries.push(e.clone());
        }
    }
    Ok(smoke)
}
