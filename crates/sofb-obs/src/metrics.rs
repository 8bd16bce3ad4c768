//! Named metrics: a live registry for the wall-clock runtime and a
//! deterministic snapshot that rides in simulation reports.
//!
//! The registry side ([`MetricsRegistry`]) is thread-safe and cheap to
//! update: handles are `Arc<AtomicU64>` so hot loops touch no locks. The
//! snapshot side ([`MetricsSnapshot`]) is a plain sorted map of values;
//! simulation code usually builds snapshots directly (one per engine) and
//! merges them across shard engines with [`MetricsSnapshot::absorb`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One scraped metric value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic count; merges by summing.
    Counter(u64),
    /// Point-in-time level; merges by taking the max.
    Gauge(f64),
    /// Distribution summary; merges component-wise.
    Summary {
        /// Number of observations.
        count: u64,
        /// Sum of all observations.
        sum: u64,
        /// Smallest observation (meaningless when `count == 0`).
        min: u64,
        /// Largest observation.
        max: u64,
    },
}

impl MetricValue {
    fn absorb(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                if *b > *a {
                    *a = *b;
                }
            }
            (
                MetricValue::Summary {
                    count,
                    sum,
                    min,
                    max,
                },
                MetricValue::Summary {
                    count: c2,
                    sum: s2,
                    min: m2,
                    max: x2,
                },
            ) => {
                if *count == 0 || (*c2 > 0 && *m2 < *min) {
                    *min = *m2;
                }
                *count += c2;
                *sum += s2;
                if *x2 > *max {
                    *max = *x2;
                }
            }
            // Mixed kinds under one name is a programming error; keep the
            // left value rather than panicking inside a report merge.
            (_, _) => {}
        }
    }
}

/// A deterministic, mergeable scrape of named metrics. Iteration order is
/// the sorted name order (`BTreeMap`), so rendering is stable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a counter value, replacing any previous entry.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.entries
            .insert(name.to_string(), MetricValue::Counter(value));
    }

    /// Set a gauge value, replacing any previous entry.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.entries
            .insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Insert a pre-built value under `name`.
    pub fn set(&mut self, name: &str, value: MetricValue) {
        self.entries.insert(name.to_string(), value);
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Look up any value by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Iterate entries in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge `other` into `self`: counters sum, gauges max, summaries
    /// merge component-wise. Names only in `other` are copied over.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.entries {
            match self.entries.get_mut(name) {
                Some(mine) => mine.absorb(value),
                None => {
                    self.entries.insert(name.clone(), *value);
                }
            }
        }
    }

    /// Render as a deterministic JSON object, names sorted. Gauges print
    /// with up to three decimal places (trailing zeros trimmed), so the
    /// output is byte-stable for equal inputs.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            match value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge(v) => out.push_str(&render_f64(*v)),
                MetricValue::Summary {
                    count,
                    sum,
                    min,
                    max,
                } => {
                    out.push_str(&format!(
                        "{{\"count\":{count},\"sum\":{sum},\"min\":{min},\"max\":{max}}}"
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

/// Fixed-point rendering of a gauge: up to 3 decimals, trimmed.
fn render_f64(v: f64) -> String {
    let s = format!("{v:.3}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// Handle to a registered counter; clone-cheap, lock-free to update.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a registered gauge; stores f64 bits in an atomic.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct HistogramState {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Handle to a registered histogram (summary-only: count/sum/min/max —
/// enough for rate and mean derivations without bucket bookkeeping).
#[derive(Clone, Debug)]
pub struct HistogramHandle(Arc<Mutex<HistogramState>>);

impl HistogramHandle {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let mut st = self.0.lock().expect("histogram lock");
        if st.count == 0 || v < st.min {
            st.min = v;
        }
        if v > st.max {
            st.max = v;
        }
        st.count += 1;
        st.sum += v;
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<Mutex<HistogramState>>>,
}

/// A live, thread-safe registry of named metrics for the wall-clock
/// runtime (`sofb serve --profile`). Registration takes a lock; updates
/// through the returned handles do not.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry lock");
        let cell = inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// Register (or look up) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry lock");
        let cell = inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())));
        Gauge(Arc::clone(cell))
    }

    /// Register (or look up) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut inner = self.inner.lock().expect("registry lock");
        let cell = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(HistogramState::default())));
        HistogramHandle(Arc::clone(cell))
    }

    /// Scrape every registered metric into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry lock");
        let mut snap = MetricsSnapshot::new();
        for (name, cell) in &inner.counters {
            snap.set_counter(name, cell.load(Ordering::Relaxed));
        }
        for (name, cell) in &inner.gauges {
            snap.set_gauge(name, f64::from_bits(cell.load(Ordering::Relaxed)));
        }
        for (name, cell) in &inner.histograms {
            let st = cell.lock().expect("histogram lock");
            snap.set(
                name,
                MetricValue::Summary {
                    count: st.count,
                    sum: st.sum,
                    min: st.min,
                    max: st.max,
                },
            );
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_update_and_scrape() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        reg.gauge("depth").set(2.5);
        let h = reg.histogram("lat");
        h.observe(10);
        h.observe(30);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits"), Some(5));
        assert_eq!(snap.get("depth"), Some(&MetricValue::Gauge(2.5)));
        assert_eq!(
            snap.get("lat"),
            Some(&MetricValue::Summary {
                count: 2,
                sum: 40,
                min: 10,
                max: 30
            })
        );
        // Re-registering the same name returns the same cell.
        reg.counter("hits").inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn snapshot_absorb_merges_by_kind() {
        let mut a = MetricsSnapshot::new();
        a.set_counter("n", 2);
        a.set_gauge("g", 1.0);
        a.set(
            "h",
            MetricValue::Summary {
                count: 1,
                sum: 5,
                min: 5,
                max: 5,
            },
        );
        let mut b = MetricsSnapshot::new();
        b.set_counter("n", 3);
        b.set_gauge("g", 0.5);
        b.set(
            "h",
            MetricValue::Summary {
                count: 2,
                sum: 4,
                min: 1,
                max: 3,
            },
        );
        b.set_counter("only_b", 7);
        a.absorb(&b);
        assert_eq!(a.counter("n"), Some(5));
        assert_eq!(a.get("g"), Some(&MetricValue::Gauge(1.0)));
        assert_eq!(
            a.get("h"),
            Some(&MetricValue::Summary {
                count: 3,
                sum: 9,
                min: 1,
                max: 5
            })
        );
        assert_eq!(a.counter("only_b"), Some(7));
    }

    #[test]
    fn render_json_is_sorted_and_stable() {
        let mut s = MetricsSnapshot::new();
        s.set_counter("b", 1);
        s.set_gauge("a", 1.25);
        s.set(
            "c",
            MetricValue::Summary {
                count: 1,
                sum: 2,
                min: 2,
                max: 2,
            },
        );
        let json = s.render_json();
        assert_eq!(
            json,
            "{\"a\":1.25,\"b\":1,\"c\":{\"count\":1,\"sum\":2,\"min\":2,\"max\":2}}"
        );
        assert!(crate::json::parse(&json).is_ok());
    }
}
