//! The one synthetic client implementation shared by every protocol.
//!
//! Clients in the paper "direct their requests to all nodes" (§3); this
//! actor multicasts fixed-size requests to the first `n` nodes of its
//! world at a configured offered load, either at a constant interval (the
//! paper's workload, and the reproducible default) or with open-loop
//! Poisson arrivals (exponential inter-arrival times) for burstier
//! scenarios.

use std::fmt;
use std::ops::Range;

use rand::Rng;

use bytes::Bytes;
use sofb_proto::ids::ClientId;
use sofb_proto::request::Request;
use sofb_sim::engine::{Actor, Ctx, WireSize};
use sofb_sim::time::{SimDuration, SimTime};

use crate::event::ProtocolEvent;

/// Timer tag used by the client actor.
const TIMER_CLIENT: u64 = 100;

/// The arrival process of a synthetic client.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Arrival {
    /// One request every `1/rate` seconds (deterministic, the default).
    #[default]
    Constant,
    /// Open-loop Poisson arrivals with mean rate `rate` (exponential
    /// inter-arrival times drawn from the world's seeded RNG).
    Poisson,
}

/// Specification of one synthetic client.
#[derive(Clone, Debug)]
pub struct ClientSpec {
    /// Requests per second.
    pub rate_per_sec: f64,
    /// Payload size in bytes.
    pub request_size: usize,
    /// Stop issuing at this virtual time.
    pub stop_at: SimTime,
}

impl ClientSpec {
    /// A spec issuing `rate_per_sec` requests of `request_size` bytes
    /// until `stop_at`.
    pub fn new(rate_per_sec: f64, request_size: usize, stop_at: SimTime) -> Self {
        ClientSpec {
            rate_per_sec,
            request_size,
            stop_at,
        }
    }
}

/// Where a client's requests go: one flat ordering group, or one
/// shard's slice of a multi-shard schedule (each shard is its own
/// engine).
#[derive(Clone, Debug)]
pub(crate) enum Destinations {
    /// The flat world: every request is multicast to nodes `0..n`.
    Flat {
        /// Number of order processes.
        n: usize,
    },
    /// One shard's view of a multi-shard client: the actor walks the
    /// full multi-shard request schedule (so sequence numbers agree
    /// across shards) but materializes only the requests dealt to its
    /// own shard, whose order processes are local nodes `0..n`. Every
    /// shard engine hosts one such replica; together they partition the
    /// client's global schedule.
    ///
    /// Dealing is round-robin on the sequence number, so every shard
    /// receives the spec's rate and, under [`Arrival::Constant`], a
    /// constant-interval arrival process. Under [`Arrival::Poisson`]
    /// the *aggregate* process is Poisson at `rate × S`, but each shard
    /// then sees Erlang-`S` inter-arrivals (mean rate `rate`, lower
    /// variance than Poisson).
    Slice {
        /// Order processes of the owning shard (local nodes `0..n`).
        n: usize,
        /// The owning shard's index.
        shard: usize,
        /// Total shard count of the logical world.
        shards: usize,
    },
}

impl Destinations {
    /// The local node range a request with sequence number `seq`
    /// multicasts to — `None` when the request is dealt to a different
    /// shard of a [`Destinations::Slice`] world and is skipped (the
    /// sequence number is still consumed, keeping the schedule aligned
    /// across shard replicas).
    pub(crate) fn targets(&self, seq: u64) -> Option<Range<usize>> {
        match *self {
            Destinations::Flat { n } => Some(0..n),
            Destinations::Slice { n, shard, shards } => {
                ((seq - 1) as usize % shards == shard).then_some(0..n)
            }
        }
    }
}

/// A synthetic client, generic over the hosted protocol's message type:
/// each request is wrapped through `wrap` (the protocol's
/// request-constructor) and multicast to one ordering group — the whole
/// world in the flat case, or its own shard's engine when the request is
/// dealt there.
pub struct ClientActor<M> {
    id: ClientId,
    dest: Destinations,
    /// Shared request payload prototype: every request this client issues
    /// carries the same bytes, so each send clones a refcount instead of
    /// allocating `request_size` bytes on the event hot path.
    payload: Bytes,
    mean_interval: SimDuration,
    stop_at: SimTime,
    arrival: Arrival,
    next_seq: u64,
    wrap: fn(Request) -> M,
}

impl<M> ClientActor<M> {
    /// Creates a client for a world whose order processes are nodes
    /// `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if the spec's rate is not positive.
    pub fn new(
        id: ClientId,
        n: usize,
        spec: &ClientSpec,
        arrival: Arrival,
        wrap: fn(Request) -> M,
    ) -> Self {
        assert!(spec.rate_per_sec > 0.0, "client rate must be positive");
        ClientActor {
            id,
            dest: Destinations::Flat { n },
            payload: Bytes::from(vec![0xabu8; spec.request_size]),
            // Nearest-ns, not truncation: a truncated interval runs the
            // comb fast by up to 1 ns per tick, which accumulates into
            // spurious extra arrivals over long horizons (and must agree
            // with `ClientPopulation`'s tick for the union equivalence).
            mean_interval: SimDuration((1e9 / spec.rate_per_sec).round() as u64),
            stop_at: spec.stop_at,
            arrival,
            next_seq: 0,
            wrap,
        }
    }

    /// Creates one shard's replica of a multi-shard client: the full
    /// request schedule is walked (identical sequence numbering on
    /// every shard), but only requests dealt to `shard` are multicast,
    /// to the local nodes `0..n` of that shard's engine. Every shard
    /// receives the spec's rate: the client issues at `rate × shards`,
    /// dealt round-robin (see [`Destinations::Slice`]).
    ///
    /// # Panics
    ///
    /// Panics if the spec's rate is not positive or if `shard` is out
    /// of range.
    pub(crate) fn new_slice(
        id: ClientId,
        n: usize,
        shard: usize,
        shards: usize,
        spec: &ClientSpec,
        arrival: Arrival,
        wrap: fn(Request) -> M,
    ) -> Self {
        assert!(spec.rate_per_sec > 0.0, "client rate must be positive");
        assert!(shard < shards, "slice shard index out of range");
        ClientActor {
            id,
            dest: Destinations::Slice { n, shard, shards },
            payload: Bytes::from(vec![0xabu8; spec.request_size]),
            mean_interval: SimDuration((1e9 / (spec.rate_per_sec * shards as f64)).round() as u64),
            stop_at: spec.stop_at,
            arrival,
            next_seq: 0,
            wrap,
        }
    }

    fn next_interval(&self, ctx: &mut Ctx<'_, M, ProtocolEvent>) -> SimDuration {
        match self.arrival {
            Arrival::Constant => self.mean_interval,
            Arrival::Poisson => {
                // Exact inverse-CDF exponential sampling: for `u` uniform
                // in [0, 1), `1−u` lies in (0, 1] and `−ln(1−u)` is
                // exponential with mean 1 — no truncation. (The previous
                // version capped `−ln(u)` at 100× the mean *and* floored
                // `u` at ε, skewing the measured offered load below
                // `rate_per_sec`; see the seeded mean-rate test.)
                let u: f64 = ctx.rng().gen_range(0.0..1.0);
                let ns = -(1.0 - u).ln() * self.mean_interval.as_ns() as f64;
                SimDuration((ns.round() as u64).max(1))
            }
        }
    }
}

impl<M> fmt::Debug for ClientActor<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientActor")
            .field("id", &self.id)
            .field("dest", &self.dest)
            .field("arrival", &self.arrival)
            .finish()
    }
}

impl<M: Clone + WireSize + fmt::Debug> Actor for ClientActor<M> {
    type Msg = M;
    type Event = ProtocolEvent;

    fn on_start(&mut self, ctx: &mut Ctx<'_, M, ProtocolEvent>) {
        let d = self.next_interval(ctx);
        ctx.set_timer(d, TIMER_CLIENT);
    }

    fn on_message(&mut self, _from: usize, _msg: M, _ctx: &mut Ctx<'_, M, ProtocolEvent>) {
        // Clients ignore replies in this harness; commitment is observed
        // through the processes' events.
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, M, ProtocolEvent>) {
        if tag != TIMER_CLIENT || ctx.now() >= self.stop_at {
            return;
        }
        self.next_seq += 1;
        if let Some(targets) = self.dest.targets(self.next_seq) {
            let req = Request::new(self.id, self.next_seq, self.payload.clone());
            ctx.multicast(targets, (self.wrap)(req));
        }
        let d = self.next_interval(ctx);
        ctx.set_timer(d, TIMER_CLIENT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sofb_sim::engine::TimerRequest;

    #[derive(Clone, Debug)]
    struct Raw(#[allow(dead_code)] Request);

    impl WireSize for Raw {
        fn wire_len(&self) -> usize {
            100
        }
    }

    /// Drives the client actor's timer loop standalone (no world) and
    /// returns (requests issued, virtual seconds elapsed).
    fn drive(arrival: Arrival, rate: f64, secs: u64, seed: u64) -> (u64, f64) {
        let stop = SimTime::from_secs(secs);
        let spec = ClientSpec::new(rate, 100, stop);
        let mut client: ClientActor<Raw> = ClientActor::new(ClientId(0), 1, &spec, arrival, Raw);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut now = SimTime::ZERO;
        let mut requests = 0u64;
        loop {
            let mut ctx = Ctx::standalone(now, 0, &mut rng, &mut events);
            if now == SimTime::ZERO {
                client.on_start(&mut ctx);
            } else {
                client.on_timer(TIMER_CLIENT, &mut ctx);
            }
            let out: sofb_sim::engine::CtxOutputs<Raw> = ctx.into_outputs();
            requests += out.sends.len() as u64;
            let Some(TimerRequest::Set(d, TIMER_CLIENT)) = out.timers.first() else {
                break;
            };
            now += *d;
            if now >= stop {
                break;
            }
        }
        (requests, stop.as_secs_f64())
    }

    /// The measured offered load of the Poisson arrival process must hit
    /// the spec: exact inverse-CDF sampling carries no truncation bias.
    #[test]
    fn poisson_measured_rate_matches_spec() {
        for (seed, rate) in [(7u64, 100.0f64), (8, 250.0), (9, 40.0)] {
            let secs = 2_000;
            let (requests, elapsed) = drive(Arrival::Poisson, rate, secs, seed);
            let measured = requests as f64 / elapsed;
            let err = (measured - rate).abs() / rate;
            assert!(
                err < 0.02,
                "seed {seed}: measured {measured:.2} req/s vs spec {rate} (err {:.2}%)",
                err * 100.0
            );
        }
    }

    /// Constant arrivals are exact by construction — the same harness
    /// must report the spec rate to the request.
    #[test]
    fn constant_measured_rate_is_exact() {
        let (requests, elapsed) = drive(Arrival::Constant, 100.0, 100, 1);
        let measured = requests as f64 / elapsed;
        assert!((measured - 100.0).abs() < 0.5, "measured {measured}");
    }
}
