//! Event-log analysis: the §5 measurements and the safety checks used by
//! tests and sweep runners.
//!
//! The functions here consume the uniform [`ProtocolEvent`] observation
//! log, so one measurement pass covers every hosted variant (SC, SCR,
//! BFT, CT).

use std::collections::{BTreeMap, HashMap};

use sofb_proto::ids::SeqNo;
use sofb_proto::request::{Digest, RequestId};
use sofb_sim::engine::TimedEvent;
use sofb_sim::metrics::Histogram;
use sofb_sim::time::SimTime;

use crate::event::ProtocolEvent;
use crate::shard::ShardRouter;

/// Order latency per sequence number: batch formation (`formed_at_ns`,
/// stamped by the coordinator) to the *first* process committing it —
/// exactly the paper's latency definition (§5).
pub fn order_latencies(events: &[TimedEvent<ProtocolEvent>]) -> BTreeMap<SeqNo, f64> {
    let mut first_commit: BTreeMap<SeqNo, (SimTime, u64)> = BTreeMap::new();
    for ev in events {
        if let ProtocolEvent::Committed {
            o,
            formed_at_ns,
            requests,
            ..
        } = &ev.event
        {
            // Install Starts commit as empty batches; they carry no
            // client-visible ordering work and are excluded from latency.
            if *requests == 0 {
                continue;
            }
            first_commit
                .entry(*o)
                .and_modify(|(t, _)| {
                    if ev.time < *t {
                        *t = ev.time;
                    }
                })
                .or_insert((ev.time, *formed_at_ns));
        }
    }
    first_commit
        .into_iter()
        .map(|(o, (t, formed))| (o, (t.as_ns().saturating_sub(formed)) as f64 / 1e6))
        .collect()
}

/// Mean order latency (ms) for batches *formed* in `[from, to]` —
/// commits may land later (the harness runs a drain period so saturated
/// batches still report their latency, as the paper's log-scale figures
/// do).
pub fn mean_latency_between(
    events: &[TimedEvent<ProtocolEvent>],
    from: SimTime,
    to: SimTime,
) -> Option<f64> {
    let mut h = Histogram::new();
    let mut first_commit: BTreeMap<SeqNo, (SimTime, u64)> = BTreeMap::new();
    for ev in events {
        if let ProtocolEvent::Committed {
            o, formed_at_ns, ..
        } = &ev.event
        {
            first_commit
                .entry(*o)
                .and_modify(|(t, _)| {
                    if ev.time < *t {
                        *t = ev.time;
                    }
                })
                .or_insert((ev.time, *formed_at_ns));
        }
    }
    for (t, formed) in first_commit.values() {
        if SimTime(*formed) >= from && SimTime(*formed) <= to {
            h.record((t.as_ns().saturating_sub(*formed)) as f64 / 1e6);
        }
    }
    (!h.is_empty()).then(|| h.mean())
}

/// Censored mean order latency (ms): every batch *proposed* with a
/// formation instant in `[from, to]` contributes either its true
/// first-commit latency or, if it never committed before `horizon`, the
/// lower bound `horizon − formed`. Deeply saturated sweep points thus
/// report finite (run-length-scaled) values instead of dropping out, the
/// way the paper's log-scale saturation points do.
pub fn mean_latency_censored(
    events: &[TimedEvent<ProtocolEvent>],
    from: SimTime,
    to: SimTime,
    horizon: SimTime,
) -> Option<f64> {
    let h = latency_histogram_censored(events, from, to, horizon);
    (!h.is_empty()).then(|| h.mean())
}

/// The full censored order-latency distribution (ms) for batches formed
/// in `[from, to]` — the same censoring rule as
/// [`mean_latency_censored`], but exposing the whole histogram so
/// harnesses can report medians and tail percentiles.
pub fn latency_histogram_censored(
    events: &[TimedEvent<ProtocolEvent>],
    from: SimTime,
    to: SimTime,
    horizon: SimTime,
) -> Histogram {
    let mut formed: BTreeMap<SeqNo, u64> = BTreeMap::new();
    for ev in events {
        if let ProtocolEvent::OrderProposed {
            o, formed_at_ns, ..
        } = &ev.event
        {
            formed.entry(*o).or_insert(*formed_at_ns);
        }
    }
    let mut first_commit: BTreeMap<SeqNo, SimTime> = BTreeMap::new();
    for ev in events {
        if let ProtocolEvent::Committed { o, .. } = &ev.event {
            let e = first_commit.entry(*o).or_insert(ev.time);
            if ev.time < *e {
                *e = ev.time;
            }
        }
    }
    let mut h = Histogram::new();
    for (o, f) in &formed {
        if SimTime(*f) < from || SimTime(*f) > to {
            continue;
        }
        let end = first_commit.get(o).copied().unwrap_or(horizon);
        h.record((end.as_ns().saturating_sub(*f)) as f64 / 1e6);
    }
    h
}

/// Mean order latency (ms) over commits in `[warmup, end]`, excluding the
/// warm-up transient.
pub fn mean_latency_ms(events: &[TimedEvent<ProtocolEvent>], warmup: SimTime) -> Option<f64> {
    let mut h = Histogram::new();
    let mut first_commit: BTreeMap<SeqNo, (SimTime, u64)> = BTreeMap::new();
    for ev in events {
        if let ProtocolEvent::Committed {
            o, formed_at_ns, ..
        } = &ev.event
        {
            first_commit
                .entry(*o)
                .and_modify(|(t, _)| {
                    if ev.time < *t {
                        *t = ev.time;
                    }
                })
                .or_insert((ev.time, *formed_at_ns));
        }
    }
    for (t, formed) in first_commit.values() {
        if SimTime(*formed) >= warmup {
            h.record((t.as_ns().saturating_sub(*formed)) as f64 / 1e6);
        }
    }
    (!h.is_empty()).then(|| h.mean())
}

/// Committed requests per process (node → count), the basis of the
/// throughput metric ("messages committed by an order process per
/// second").
pub fn commits_per_node(events: &[TimedEvent<ProtocolEvent>]) -> HashMap<usize, usize> {
    let mut out: HashMap<usize, usize> = HashMap::new();
    for ev in events {
        if let ProtocolEvent::Committed { requests, .. } = &ev.event {
            *out.entry(ev.node).or_insert(0) += requests;
        }
    }
    out
}

/// Throughput in requests committed per process per second, averaged over
/// processes that committed anything, within `[warmup, end]`.
pub fn throughput_per_process(
    events: &[TimedEvent<ProtocolEvent>],
    warmup: SimTime,
    end: SimTime,
) -> f64 {
    let mut per_node: HashMap<usize, usize> = HashMap::new();
    for ev in events {
        if ev.time < warmup || ev.time > end {
            continue;
        }
        if let ProtocolEvent::Committed { requests, .. } = &ev.event {
            *per_node.entry(ev.node).or_insert(0) += requests;
        }
    }
    if per_node.is_empty() {
        return 0.0;
    }
    let window_s = (end - warmup).as_ns() as f64 / 1e9;
    let total: usize = per_node.values().sum();
    total as f64 / per_node.len() as f64 / window_s
}

/// Fail-over latency (ms): first fail-signal issuance to the first
/// Start-with-tuples issuance (§5's definition).
pub fn failover_latency_ms(events: &[TimedEvent<ProtocolEvent>]) -> Option<f64> {
    let fs_at = events.iter().find_map(|ev| {
        matches!(ev.event, ProtocolEvent::FailSignalIssued { .. }).then_some(ev.time)
    })?;
    let cert_at = events.iter().find_map(|ev| match ev.event {
        ProtocolEvent::StartCertIssued { .. } if ev.time >= fs_at => Some(ev.time),
        _ => None,
    })?;
    Some((cert_at - fs_at).as_ns() as f64 / 1e6)
}

/// The total-order safety check as an online fold: [`push`](Self::push)
/// each observation as it arrives and the first violating commit is
/// reported the moment it is seen. [`check_total_order`] is this fold
/// over a recorded log; the live gateway and the service façades keep one
/// for the whole session instead of re-reading the log on every poll.
#[derive(Default)]
pub struct OrderChecker {
    /// The digest each sequence number was first committed with.
    bindings: HashMap<SeqNo, Digest>,
    /// What each node committed at each sequence number.
    per_node_seen: HashMap<(usize, SeqNo), Digest>,
}

impl OrderChecker {
    /// Audits one observation against everything pushed before it: no two
    /// processes commit different digests at the same sequence number,
    /// and no process commits the same sequence number twice. Events
    /// other than commits pass through.
    pub fn push(&mut self, ev: &TimedEvent<ProtocolEvent>) -> Result<(), String> {
        let ProtocolEvent::Committed { o, digest, .. } = &ev.event else {
            return Ok(());
        };
        if let Some(prev) = self.per_node_seen.get(&(ev.node, *o)) {
            if prev != digest {
                return Err(format!(
                    "node {} committed {o:?} twice with different digests",
                    ev.node
                ));
            }
            return Ok(());
        }
        self.per_node_seen.insert((ev.node, *o), *digest);
        match self.bindings.get(o) {
            None => {
                self.bindings.insert(*o, *digest);
            }
            Some(prev) if prev == digest => {}
            Some(prev) => {
                return Err(format!(
                    "divergent commit at {o:?}: {} vs {} (node {})",
                    prev.short_hex(),
                    digest.short_hex(),
                    ev.node
                ));
            }
        }
        Ok(())
    }
}

/// Verifies total-order safety: no two processes commit different digests
/// at the same sequence number, and no process commits the same sequence
/// number twice.
pub fn check_total_order(events: &[TimedEvent<ProtocolEvent>]) -> Result<(), String> {
    let mut checker = OrderChecker::default();
    events.iter().try_for_each(|ev| checker.push(ev))
}

/// Verifies exactly-once commit: every request id is bound to exactly one
/// `(shard, sequence number)` across the whole trace. Nodes of one shard
/// re-announcing the same binding is the normal replication echo; the
/// same request surfacing under a second sequence number or on a second
/// shard is a double commit. `nodes_per_shard` maps a global node index
/// to its ordering group (shard `= node / nodes_per_shard`; pass the
/// world size for a flat world).
pub fn check_exactly_once(
    events: &[TimedEvent<ProtocolEvent>],
    nodes_per_shard: usize,
) -> Result<(), String> {
    let mut bindings: HashMap<RequestId, (usize, SeqNo)> = HashMap::new();
    for ev in events {
        if let ProtocolEvent::Committed { o, request_ids, .. } = &ev.event {
            let shard = ev.node / nodes_per_shard;
            for rid in request_ids.iter() {
                match bindings.get(rid) {
                    None => {
                        bindings.insert(*rid, (shard, *o));
                    }
                    Some(&(s, seq)) if s == shard && seq == *o => {}
                    Some(&(s, seq)) => {
                        return Err(format!(
                            "request {rid:?} committed twice: shard {s} at {seq:?} \
                             vs shard {shard} at {o:?} (node {})",
                            ev.node
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Verifies shard isolation: every committed request landed on the shard
/// the router assigns it to. A commit elsewhere means client traffic
/// leaked across ordering-group boundaries.
pub fn check_no_cross_shard_leakage(
    events: &[TimedEvent<ProtocolEvent>],
    nodes_per_shard: usize,
    router: &ShardRouter,
) -> Result<(), String> {
    for ev in events {
        if let ProtocolEvent::Committed { o, request_ids, .. } = &ev.event {
            let shard = ev.node / nodes_per_shard;
            for rid in request_ids.iter() {
                let expected = router.route_request(rid.client, rid.seq);
                if expected != shard {
                    return Err(format!(
                        "request {rid:?} routed to shard {expected} but committed \
                         at {o:?} on shard {shard} (node {})",
                        ev.node
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The largest sequence number committed by every one of `nodes` (liveness
/// floor), if all of them committed anything.
pub fn common_committed_prefix(
    events: &[TimedEvent<ProtocolEvent>],
    nodes: &[usize],
) -> Option<SeqNo> {
    let mut max_per_node: HashMap<usize, SeqNo> = HashMap::new();
    for ev in events {
        if let ProtocolEvent::Committed { o, .. } = &ev.event {
            let e = max_per_node.entry(ev.node).or_insert(*o);
            if *o > *e {
                *e = *o;
            }
        }
    }
    nodes
        .iter()
        .map(|n| max_per_node.get(n).copied())
        .min()
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofb_proto::ids::{ClientId, Rank};

    fn committed(
        node: usize,
        t_ms: u64,
        o: u64,
        digest: u8,
        formed_ms: u64,
    ) -> TimedEvent<ProtocolEvent> {
        TimedEvent {
            time: SimTime::from_ms(t_ms),
            node,
            event: ProtocolEvent::Committed {
                c: Rank(1),
                o: SeqNo(o),
                digest: Digest::new(&[digest]),
                requests: 2,
                request_ids: Vec::new().into(),
                formed_at_ns: SimTime::from_ms(formed_ms).as_ns(),
            },
        }
    }

    #[test]
    fn latency_uses_first_commit() {
        let events = vec![
            committed(0, 30, 1, 1, 10),
            committed(1, 25, 1, 1, 10),
            committed(2, 40, 1, 1, 10),
        ];
        let lat = order_latencies(&events);
        assert_eq!(lat[&SeqNo(1)], 15.0);
    }

    #[test]
    fn mean_latency_respects_warmup() {
        let events = vec![committed(0, 20, 1, 1, 10), committed(0, 200, 2, 2, 150)];
        let m = mean_latency_ms(&events, SimTime::from_ms(100)).unwrap();
        assert_eq!(m, 50.0);
        assert!(mean_latency_ms(&events, SimTime::from_ms(1_000)).is_none());
    }

    #[test]
    fn throughput_counts_requests() {
        let events = vec![committed(0, 500, 1, 1, 400), committed(1, 600, 1, 1, 400)];
        // 2 requests per commit, one commit per node, over 1 s window.
        let tput = throughput_per_process(&events, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(tput, 2.0);
    }

    #[test]
    fn safety_checker_catches_divergence() {
        let ok = vec![committed(0, 10, 1, 7, 5), committed(1, 12, 1, 7, 5)];
        assert!(check_total_order(&ok).is_ok());
        let bad = vec![committed(0, 10, 1, 7, 5), committed(1, 12, 1, 8, 5)];
        assert!(check_total_order(&bad).is_err());
    }

    /// Commit of `rids` at `(node, o)` — the shape the fuzz-oracle
    /// mutation tests corrupt.
    fn committed_rids(node: usize, o: u64, rids: &[(u32, u64)]) -> TimedEvent<ProtocolEvent> {
        let ids: Vec<RequestId> = rids
            .iter()
            .map(|&(c, s)| RequestId {
                client: ClientId(c),
                seq: s,
            })
            .collect();
        TimedEvent {
            time: SimTime::from_ms(10),
            node,
            event: ProtocolEvent::Committed {
                c: Rank(1),
                o: SeqNo(o),
                digest: Digest::new(&[o as u8]),
                requests: ids.len(),
                request_ids: ids.into(),
                formed_at_ns: SimTime::from_ms(5).as_ns(),
            },
        }
    }

    // A checker that can't fail is not a fuzz oracle: each corrupted
    // trace below must trip exactly the invariant it violates.

    #[test]
    fn safety_checker_catches_per_node_double_commit() {
        let bad = vec![committed(0, 10, 1, 7, 5), committed(0, 12, 1, 8, 5)];
        let err = check_total_order(&bad).unwrap_err();
        assert!(err.contains("twice"), "unexpected message: {err}");
    }

    /// The verdict after pushing each event in turn: `Ok` until the first
    /// violation, that violation from then on — what `check_total_order`
    /// says about the same prefix.
    fn pushed_verdicts(events: &[TimedEvent<ProtocolEvent>]) -> Vec<Result<(), String>> {
        let mut checker = OrderChecker::default();
        let mut verdict = Ok(());
        events
            .iter()
            .map(|ev| {
                let pushed = checker.push(ev);
                if verdict.is_ok() {
                    verdict = pushed;
                }
                verdict.clone()
            })
            .collect()
    }

    #[test]
    fn order_checker_agrees_with_the_batch_check_on_every_prefix() {
        let clean = vec![
            committed(0, 10, 1, 7, 5),
            committed(1, 12, 1, 7, 5),
            committed(0, 20, 2, 9, 15),
            // A node re-announcing what it already committed is an echo.
            committed(0, 21, 2, 9, 15),
        ];
        let divergent = vec![
            committed(0, 10, 1, 7, 5),
            committed(1, 12, 1, 8, 5),
            committed(2, 13, 1, 7, 5),
        ];
        let twice = vec![
            committed(0, 10, 1, 7, 5),
            committed(0, 12, 1, 8, 5),
            committed(1, 13, 1, 7, 5),
        ];
        for (log, fails_at) in [(&clean, None), (&divergent, Some(2)), (&twice, Some(2))] {
            let pushed = pushed_verdicts(log);
            for k in 1..=log.len() {
                assert_eq!(pushed[k - 1], check_total_order(&log[..k]), "prefix {k}");
                assert_eq!(pushed[k - 1].is_err(), fails_at.is_some_and(|at| k >= at));
            }
        }
        // Same error text as the batch check always produced.
        let text = |log: &[TimedEvent<ProtocolEvent>]| pushed_verdicts(log).pop().unwrap();
        assert_eq!(
            text(&divergent),
            Err(format!(
                "divergent commit at {:?}: {} vs {} (node 1)",
                SeqNo(1),
                Digest::new(&[7]).short_hex(),
                Digest::new(&[8]).short_hex()
            ))
        );
        assert_eq!(
            text(&twice),
            Err(format!(
                "node 0 committed {:?} twice with different digests",
                SeqNo(1)
            ))
        );
    }

    #[test]
    fn exactly_once_accepts_replication_echo() {
        // Both nodes of shard 0 announce the same binding: the normal
        // replicated-commit shape, not a violation.
        let ok = vec![
            committed_rids(0, 1, &[(0, 0), (0, 1)]),
            committed_rids(1, 1, &[(0, 0), (0, 1)]),
        ];
        assert!(check_exactly_once(&ok, 4).is_ok());
    }

    #[test]
    fn exactly_once_catches_double_commit() {
        // The same request surfaces again under a second sequence number.
        let bad = vec![
            committed_rids(0, 1, &[(0, 0)]),
            committed_rids(0, 2, &[(0, 0)]),
        ];
        let err = check_exactly_once(&bad, 4).unwrap_err();
        assert!(err.contains("committed twice"), "unexpected message: {err}");
        // … or on a second shard (nodes 0 and 4 with 4 nodes per shard).
        let bad = vec![
            committed_rids(0, 1, &[(0, 0)]),
            committed_rids(4, 1, &[(0, 0)]),
        ];
        assert!(check_exactly_once(&bad, 4).is_err());
    }

    #[test]
    fn leakage_checker_catches_wrong_shard_commit() {
        let router = ShardRouter::hash(2);
        // Route each request to its proper shard: a clean two-shard trace.
        let (mine, theirs): (Vec<_>, Vec<_>) = (0..8u64)
            .map(|s| (0u32, s))
            .partition(|&(c, s)| router.route_request(ClientId(c), s) == 0);
        let ok = vec![committed_rids(0, 1, &mine), committed_rids(4, 1, &theirs)];
        assert!(check_no_cross_shard_leakage(&ok, 4, &router).is_ok());
        // Swap the shards: every commit now sits on the wrong group.
        let bad = vec![committed_rids(0, 1, &theirs), committed_rids(4, 1, &mine)];
        let err = check_no_cross_shard_leakage(&bad, 4, &router).unwrap_err();
        assert!(err.contains("routed to shard"), "unexpected message: {err}");
    }

    #[test]
    fn failover_interval() {
        let events = vec![
            TimedEvent {
                time: SimTime::from_ms(100),
                node: 5,
                event: ProtocolEvent::FailSignalIssued {
                    pair: Rank(1),
                    value_domain: true,
                },
            },
            TimedEvent {
                time: SimTime::from_ms(130),
                node: 1,
                event: ProtocolEvent::StartCertIssued {
                    c: Rank(2),
                    start_o: SeqNo(4),
                },
            },
        ];
        assert_eq!(failover_latency_ms(&events), Some(30.0));
        assert_eq!(failover_latency_ms(&events[..1]), None);
    }

    #[test]
    fn common_prefix() {
        let events = vec![committed(0, 10, 3, 1, 5), committed(1, 10, 2, 1, 5)];
        assert_eq!(common_committed_prefix(&events, &[0, 1]), Some(SeqNo(2)));
        assert_eq!(common_committed_prefix(&events, &[0, 1, 2]), None);
    }
}
