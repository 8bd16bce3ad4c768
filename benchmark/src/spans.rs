//! The benchmark's own tracing: spans recorded in memory around each
//! call into a layer (name, start, end, parent span, request id) plus
//! counts at the same boundaries, written out when the run ends as
//! Chrome trace-event JSON (load it in Perfetto).
//!
//! A span's self time is its duration minus the part of that interval
//! its child spans cover. Spans on [`MAIN`] form one tree under the
//! workload's root span, so their self times sum to the root's duration;
//! spans on [`IN_FLIGHT`] are pipelined requests, which overlap each
//! other and are left out of that sum.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{self, Obj};

/// Track of the thread that drives the workload.
pub const MAIN: u32 = 0;
/// Track of pipelined (overlapping) requests.
pub const IN_FLIGHT: u32 = 1;

/// One closed span; times are ns since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Grid point index (sim) or op sequence (live) the span belongs to.
    pub request: Option<u64>,
    pub track: u32,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct Open(usize);

/// In-memory span and count store of one traced run.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// ns since the epoch for an instant taken by the caller.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span on the main track under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.at(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
            track: MAIN,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `open` (and anything left open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = self.at(Instant::now());
        while let Some(idx) = self.stack.pop() {
            self.spans[idx].end_ns = now;
            if idx == open.0 {
                break;
            }
        }
        (now - self.spans[open.0].start_ns) as f64 / 1e9
    }

    /// Records an already-measured span (a request timed by the load
    /// generator) under the innermost open span.
    pub fn closed(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
        track: u32,
    ) {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.stack.last().copied(),
            request: Some(request),
            track,
        });
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

/// Self time of every span, ns: duration minus the union of its
/// children's intervals (clipped to the span). Children on another
/// track do not count against their parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].track == s.track {
                let lo = s.start_ns.max(spans[p].start_ns);
                let hi = s.end_ns.min(spans[p].end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name on one track: calls, total ms, self ms.
pub fn by_name(spans: &[Span], track: u32) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.track == track {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
            e.2 += self_ns as f64 / 1e6;
        }
    }
    out
}

/// Renders the run as Chrome trace-event JSON: one complete (`X`) event
/// per span with its parent and request id as args, one counter (`C`)
/// event per count.
pub fn chrome_json(rec: &Recorder) -> String {
    let mut events = Vec::with_capacity(rec.spans.len() + rec.counts.len());
    for (i, s) in rec.spans.iter().enumerate() {
        let mut args = Obj::new().num("span", i as f64);
        if let Some(p) = s.parent {
            args = args.num("parent", p as f64);
        }
        if let Some(r) = s.request {
            args = args.num("request", r as f64);
        }
        events.push(
            Obj::new()
                .str("name", s.name)
                .str("ph", "X")
                .num("ts", s.start_ns as f64 / 1e3)
                .num("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                .num("pid", 1.0)
                .num("tid", f64::from(s.track))
                .raw("args", &args.finish())
                .finish(),
        );
    }
    let end = rec.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    for (name, n) in &rec.counts {
        events.push(
            Obj::new()
                .str("name", name)
                .str("ph", "C")
                .num("ts", end as f64 / 1e3)
                .num("pid", 1.0)
                .raw("args", &Obj::new().num("count", *n as f64).finish())
                .finish(),
        );
    }
    Obj::new()
        .raw("traceEvents", &json::array(&events))
        .str("displayTimeUnit", "ms")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>, track: u32) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: None,
            track,
        }
    }

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let spans = vec![
            span(0, 100, None, MAIN),     // root
            span(10, 40, Some(0), MAIN),  // child a
            span(30, 60, Some(0), MAIN),  // child b overlaps a: union 10..60
            span(15, 20, Some(1), MAIN),  // grandchild
            span(90, 130, Some(0), MAIN), // runs past its parent: clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
    }

    #[test]
    fn a_tree_on_one_track_sums_to_its_root() {
        let spans = vec![
            span(0, 1_000, None, MAIN),
            span(0, 400, Some(0), MAIN),
            span(400, 900, Some(0), MAIN),
            span(450, 500, Some(2), MAIN),
            span(600, 800, Some(2), MAIN),
            // Pipelined requests overlap and live on their own track.
            span(0, 700, Some(0), IN_FLIGHT),
            span(100, 900, Some(0), IN_FLIGHT),
        ];
        let selfs = self_times(&spans);
        let main: u64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.track == MAIN)
            .map(|(_, t)| *t)
            .sum();
        assert_eq!(main, 1_000);
        // In-flight children take nothing from the root's self time.
        assert_eq!(selfs[0], 100);
    }

    #[test]
    fn recorder_nests_and_renders_parseable_chrome_json() {
        let mut rec = Recorder::new();
        let root = rec.begin("workload", None);
        let inner = rec.begin("point", Some(3));
        rec.count("events", 42);
        rec.end(inner);
        let t = Instant::now();
        rec.closed("request", t, t, 9, IN_FLIGHT);
        rec.end(root);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[2].parent, Some(0));
        let doc = sofbyz::obs::json::parse(&chrome_json(&rec)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("request")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(events[3].get("ph").unwrap().as_str(), Some("C"));
    }
}
