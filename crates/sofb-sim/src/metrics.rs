//! Measurement helpers for the experiment harness.

/// A sample collection with summary statistics.
///
/// # Examples
///
/// ```
/// use sofb_sim::metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.mean(), 2.5);
/// // Nearest-rank: the smallest sample covering at least 25% of the
/// // data — ⌈0.25·4⌉ = 1st of the sorted samples.
/// assert_eq!(h.percentile(25.0), 1.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `v` is not NaN: `total_cmp` sorts NaN after
    /// every number, so one poisoned sample would silently become the
    /// max — `percentile(100.0)` (and any rank near it) would return
    /// NaN without a trace. Catch it where it enters instead.
    pub fn record(&mut self, v: f64) {
        debug_assert!(!v.is_nan(), "Histogram::record: NaN sample");
        self.samples.push(v);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample (0 for an empty histogram).
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample (0 for an empty histogram).
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The `p`-th percentile (0 for an empty histogram).
    ///
    /// True nearest-rank: the smallest sample such that at least `p`% of
    /// all samples are ≤ it — rank `⌈p/100 · n⌉` of the sorted samples
    /// (`p = 0` yields the minimum, `p = 100` the maximum). Earlier
    /// versions computed a rounded linear-interpolation index
    /// (`(p/100 · (n−1)).round()`), which disagrees with nearest-rank by
    /// up to one sample and is what the docs never promised.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        self.percentiles(&[p])[0]
    }

    /// Several percentiles at once, sorting the samples a single time
    /// (nearest-rank, like [`Histogram::percentile`]).
    ///
    /// The sort is total (`f64::total_cmp`), so NaN samples — which
    /// should not be recorded, but must not panic — order after every
    /// number instead of aborting the comparison.
    ///
    /// # Panics
    ///
    /// Panics if any requested percentile is outside `[0, 100]`.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<f64> {
        for p in ps {
            assert!((0.0..=100.0).contains(p), "percentile out of range");
        }
        if self.samples.is_empty() {
            return ps.iter().map(|_| 0.0).collect();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        ps.iter()
            .map(|p| {
                // Multiply before dividing: p·n is exact for the usual
                // integer-valued percentiles, so ⌈·⌉ cannot pick up a
                // ulp of error (0.2·5 ≠ 1.0 in binary, 20·5/100 is).
                let rank = (p * n as f64 / 100.0).ceil() as usize;
                sorted[rank.clamp(1, n) - 1]
            })
            .collect()
    }

    /// Sample standard deviation (0 with fewer than two samples).
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / (self.samples.len() - 1) as f64;
        var.sqrt()
    }

    /// All samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Folds another histogram's samples into this one (cross-group
    /// rollups: per-shard latency distributions merge into one global
    /// distribution whose percentiles are exact, not averaged).
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Per-group sample collection with a cross-group rollup: one
/// [`Histogram`] per group (e.g. one ordering shard) plus an exact
/// merged view for global percentiles.
///
/// # Examples
///
/// ```
/// use sofb_sim::metrics::GroupRollup;
///
/// let mut r = GroupRollup::new(2);
/// r.record(0, 1.0);
/// r.record(1, 9.0);
/// assert_eq!(r.group(1).mean(), 9.0);
/// assert_eq!(r.merged().count(), 2);
/// assert_eq!(r.merged().percentile(100.0), 9.0);
/// ```
#[derive(Clone, Debug)]
pub struct GroupRollup {
    groups: Vec<Histogram>,
}

impl GroupRollup {
    /// An empty rollup over `groups` groups.
    pub fn new(groups: usize) -> Self {
        GroupRollup {
            groups: vec![Histogram::new(); groups],
        }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Records a sample for one group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn record(&mut self, group: usize, v: f64) {
        self.groups[group].record(v);
    }

    /// Folds a whole histogram into one group (e.g. a shard's censored
    /// latency distribution computed elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn merge_into(&mut self, group: usize, h: &Histogram) {
        self.groups[group].merge(h);
    }

    /// One group's distribution.
    pub fn group(&self, group: usize) -> &Histogram {
        &self.groups[group]
    }

    /// The exact cross-group distribution (all samples of all groups),
    /// from which global p50/p99 are computed.
    pub fn merged(&self) -> Histogram {
        let mut all = Histogram::new();
        for g in &self.groups {
            all.merge(g);
        }
        all
    }
}

/// One (x, y) point of an experiment series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Swept parameter value (e.g. batching interval in ms).
    pub x: f64,
    /// Measured value (e.g. mean latency in ms).
    pub y: f64,
}

/// A named series of experiment points, printable as a table column.
#[derive(Clone, Debug)]
pub struct Series {
    /// Display name (e.g. "SC", "BFT", "CT").
    pub name: String,
    /// Measured points, in sweep order.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(SeriesPoint { x, y });
    }

    /// The y value at a given x (exact match), if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
    }
}

/// Renders aligned columns for a set of series sharing x values.
///
/// The output mirrors the paper's figure data: one row per x, one column
/// per series.
pub fn render_table(x_label: &str, y_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# y = {y_label}\n"));
    out.push_str(&format!("{:>12}", x_label));
    for s in series {
        out.push_str(&format!(" {:>14}", s.name));
    }
    out.push('\n');
    let xs: Vec<f64> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.x).collect())
        .unwrap_or_default();
    for x in xs {
        out.push_str(&format!("{x:>12.1}"));
        for s in series {
            match s.y_at(x) {
                Some(y) => out.push_str(&format!(" {y:>14.3}")),
                None => out.push_str(&format!(" {:>14}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Deterministic engine-level counters of one finished run.
///
/// Every field is a function of the seed and the scenario alone —
/// identical across hosts and safe to compare bit-for-bit in
/// determinism tests. Host-dependent *rates* (events per wall-second,
/// …) are `benchmark/`'s business, which pairs these with wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Actor callbacks dispatched over the run.
    pub events_processed: u64,
    /// Network-heap pushes (scheduler traffic; wheel and instant-queue
    /// events excluded).
    pub heap_pushes: u64,
    /// Event-arena occupancy high-water mark — the peak number of
    /// in-flight message payloads, i.e. the run's event-memory
    /// footprint in slots.
    pub arena_high_water: usize,
    /// Virtual time reached, ns.
    pub sim_ns: u64,
}

impl EngineCounters {
    /// Folds another engine's counters into this one — the merge step
    /// when several isolated worlds make up one logical run (parallel
    /// shard execution). Work totals sum; arena high-water marks sum
    /// too, because the worlds are live concurrently, so their peak
    /// event-memory footprints add; virtual time takes the maximum,
    /// since every world runs to the same horizon.
    pub fn absorb(&mut self, other: &EngineCounters) {
        self.events_processed += other.events_processed;
        self.heap_pushes += other.heap_pushes;
        self.arena_high_water += other.arena_high_water;
        self.sim_ns = self.sim_ns.max(other.sim_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [10.0, 20.0, 30.0, 40.0, 50.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 30.0);
        assert_eq!(h.min(), 10.0);
        assert_eq!(h.max(), 50.0);
        assert_eq!(h.percentile(0.0), 10.0);
        assert_eq!(h.percentile(50.0), 30.0);
        assert_eq!(h.percentile(100.0), 50.0);
        assert!((h.std_dev() - 15.811).abs() < 0.01);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.std_dev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_validates() {
        Histogram::new().percentile(101.0);
    }

    /// Nearest-rank pinned on known sample sets: rank = ⌈p/100·n⌉,
    /// 1-indexed into the sorted samples (p0 → minimum).
    #[test]
    fn percentiles_are_true_nearest_rank() {
        // n = 4, inserted out of order.
        let mut h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            h.record(v);
        }
        assert_eq!(
            h.percentiles(&[0.0, 25.0, 50.0, 99.0, 100.0]),
            vec![1.0, 1.0, 2.0, 4.0, 4.0]
        );

        // n = 5: p50 must be the 3rd sample (⌈2.5⌉), p20 exactly the 1st
        // (⌈1.0⌉ — the rounded-linear-index formula returned the 2nd).
        let mut h = Histogram::new();
        for v in [10.0, 20.0, 30.0, 40.0, 50.0] {
            h.record(v);
        }
        assert_eq!(h.percentile(20.0), 10.0);
        assert_eq!(h.percentile(50.0), 30.0);
        assert_eq!(h.percentile(60.0), 30.0);
        assert_eq!(h.percentile(60.1), 40.0);
        assert_eq!(h.percentile(99.0), 50.0);

        // n = 100: p99 is the 99th of 100 (the old formula's
        // round(0.99·99) = 98 → 99th as well, but p50 differed).
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(99.0), 99.0);
        assert_eq!(h.percentile(99.1), 100.0);
        assert_eq!(h.percentile(0.0), 1.0);
    }

    /// A stray NaN sample (possible in release builds, where `record`'s
    /// debug assert is compiled out) must not panic the sort; it
    /// totals-orders last.
    #[test]
    fn percentile_sort_is_nan_safe() {
        let mut h = Histogram::new();
        h.record(2.0);
        h.samples.push(f64::NAN); // bypass the debug assert in `record`
        h.record(1.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(50.0), 2.0);
        assert!(h.percentile(100.0).is_nan());
    }

    #[test]
    fn histogram_merge_concatenates_samples() {
        let mut a = Histogram::new();
        a.record(1.0);
        a.record(2.0);
        let mut b = Histogram::new();
        b.record(10.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 10.0);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 3);
    }

    /// Rollup percentiles are exact over the union of the groups, not an
    /// average of per-group percentiles.
    #[test]
    fn group_rollup_merged_is_exact() {
        let mut r = GroupRollup::new(3);
        for v in [1.0, 2.0, 3.0] {
            r.record(0, v);
        }
        for v in [100.0, 200.0, 300.0] {
            r.record(1, v);
        }
        // Group 2 stays empty: it must not perturb the rollup.
        assert_eq!(r.group_count(), 3);
        assert!(r.group(2).is_empty());
        assert_eq!(r.group(0).mean(), 2.0);
        let merged = r.merged();
        assert_eq!(merged.count(), 6);
        assert_eq!(merged.percentile(50.0), 3.0);
        assert_eq!(merged.percentile(100.0), 300.0);

        let mut h = Histogram::new();
        h.record(1000.0);
        r.merge_into(2, &h);
        assert_eq!(r.merged().count(), 7);
    }

    #[test]
    fn series_and_table() {
        let mut a = Series::new("SC");
        a.push(40.0, 25.0);
        a.push(100.0, 24.0);
        let mut b = Series::new("BFT");
        b.push(40.0, 60.0);
        b.push(100.0, 46.0);
        assert_eq!(a.y_at(40.0), Some(25.0));
        assert_eq!(a.y_at(41.0), None);
        let table = render_table("interval_ms", "latency_ms", &[a, b]);
        assert!(table.contains("SC"));
        assert!(table.contains("BFT"));
        assert!(table.contains("40.0"));
        assert!(table.contains("60.000"));
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    #[cfg(debug_assertions)]
    fn record_rejects_nan() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
    }

    /// Infinities are not NaN: they sort correctly and surface loudly in
    /// any report, so `record` lets them through.
    #[test]
    fn record_accepts_infinity() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(f64::INFINITY);
        assert_eq!(h.percentile(100.0), f64::INFINITY);
        assert_eq!(h.percentile(50.0), 1.0);
    }
}
