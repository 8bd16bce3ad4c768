//! Per-node CPU service model.
//!
//! Each simulated node processes events serially (one CPU, as on the
//! paper's single-core Pentium IV machines). Handling an event costs a
//! fixed dispatch overhead, a per-byte marshalling cost, and whatever
//! virtual crypto cost the protocol accrued through its
//! `CryptoProvider` during the callback.
//!
//! The **overload penalty** models the thrash the paper observes past the
//! saturation point ("throughput ... starts dropping down", §5): once a
//! node's input queue exceeds `overload_threshold`, every event costs an
//! extra factor proportional to the excess (standing in for JVM garbage
//! collection and buffer pressure on the original testbed; see DESIGN.md).

/// CPU cost parameters for one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuModel {
    /// Fixed dispatch cost per handled event (scheduling, deserialization
    /// setup), nanoseconds.
    pub per_event_ns: u64,
    /// Marshalling cost per message byte, nanoseconds.
    pub per_byte_ns: u64,
    /// Queue length beyond which the overload penalty applies.
    pub overload_threshold: usize,
    /// Extra cost fraction per excess queued event
    /// (`cost *= 1 + frac * excess`).
    pub overload_penalty: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        // 2006-era Java server process over RMI/TCP: ~1 ms per message
        // dispatch (deserialization, object churn), ~50 ns/B copy. With
        // it the crypto-free CT baseline orders a batch in about four such
        // events: `sofb run specs/fig4.scn` reads a CT p50 of 4.03 ms at
        // every batching interval.
        CpuModel {
            per_event_ns: 1_000_000,
            per_byte_ns: 50,
            overload_threshold: 96,
            overload_penalty: 0.005,
        }
    }
}

impl CpuModel {
    /// A free CPU (useful for protocol-logic unit tests where only the
    /// ordering of events matters).
    pub fn zero() -> Self {
        CpuModel {
            per_event_ns: 0,
            per_byte_ns: 0,
            overload_threshold: usize::MAX,
            overload_penalty: 0.0,
        }
    }

    /// Service time for one event of `msg_len` bytes with `extra_ns` of
    /// accrued crypto cost, given the current input queue length.
    pub fn service_ns(&self, msg_len: usize, extra_ns: u64, queue_len: usize) -> u64 {
        let base = self.per_event_ns + self.per_byte_ns * msg_len as u64 + extra_ns;
        if queue_len > self.overload_threshold {
            let excess = (queue_len - self.overload_threshold) as f64;
            (base as f64 * (1.0 + self.overload_penalty * excess)) as u64
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_cost_components() {
        let cpu = CpuModel {
            per_event_ns: 100,
            per_byte_ns: 2,
            overload_threshold: 10,
            overload_penalty: 0.1,
        };
        assert_eq!(cpu.service_ns(50, 0, 0), 200);
        assert_eq!(cpu.service_ns(0, 1_000, 0), 1_100);
    }

    #[test]
    fn overload_penalty_applies_past_threshold() {
        let cpu = CpuModel {
            per_event_ns: 1_000,
            per_byte_ns: 0,
            overload_threshold: 10,
            overload_penalty: 0.5,
        };
        assert_eq!(cpu.service_ns(0, 0, 10), 1_000);
        // 5 excess events: 1 + 0.5*5 = 3.5x.
        assert_eq!(cpu.service_ns(0, 0, 15), 3_500);
    }

    #[test]
    fn zero_model_is_free() {
        let cpu = CpuModel::zero();
        assert_eq!(cpu.service_ns(10_000, 0, 1_000_000), 0);
    }
}
