//! Network accounting for the distributed graph store.
//!
//! `bgl-store` executes RPCs for real (actual neighbor lists and feature
//! bytes move between partition servers and workers); this module converts
//! those message sizes into *simulated wire time* and keeps per-flow traffic
//! statistics — the quantities behind Table 3 (sampling time per epoch) and
//! Fig. 14 (feature retrieving time).

use crate::devices::LinkSpec;
use crate::SimTime;
use serde::{Deserialize, Serialize};

/// Cumulative traffic counters for one direction of one flow.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct TrafficStats {
    pub messages: u64,
    pub bytes: u64,
    /// Total simulated wire time spent by these messages.
    pub wire_time: SimTime,
}

/// A network model: one link spec per locality class.
///
/// * `local` — sampler colocated with the store server (intra-process);
/// * `remote` — cross-server traffic over the NIC.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NetworkModel {
    pub local: LinkSpec,
    pub remote: LinkSpec,
}

impl NetworkModel {
    /// The paper's fabric: colocated samplers talk through shared memory,
    /// cross-server traffic rides the 100 Gbps NIC.
    pub fn paper_fabric() -> Self {
        NetworkModel { local: LinkSpec::loopback(), remote: LinkSpec::nic_100g() }
    }

    /// Cost of a message of `bytes` between `src` and `dst` servers.
    pub fn message_time(&self, src: usize, dst: usize, bytes: usize) -> SimTime {
        if src == dst {
            self.local.transfer_time(bytes)
        } else {
            self.remote.transfer_time(bytes)
        }
    }
}

/// Reliability counters for a fault-tolerant data path: retries, failovers,
/// circuit-breaker activity, degraded deliveries, and recovery time. Kept
/// next to [`TrafficLedger`] so robustness rides the same report path as
/// traffic accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessStats {
    /// Request attempts repeated after a transient failure.
    pub retries: u64,
    /// Requests rerouted from a primary server to a replica.
    pub failovers: u64,
    /// Requests dropped in flight (fault injection).
    pub drops: u64,
    /// Response frames that failed their integrity check.
    pub corrupt_frames: u64,
    /// Per-request retry budgets exhausted within the batch deadline.
    pub deadline_misses: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Half-open probes sent through a cooling-down breaker.
    pub breaker_probes: u64,
    /// Feature batches that fell back to zero rows (graceful degradation).
    pub degraded_batches: u64,
    /// Individual feature rows served as zeros.
    pub degraded_rows: u64,
    /// Requests re-routed after a `NotOwner` hint (stale owner map chased
    /// a migrated node; the hint redirected it instead of hanging).
    pub redirects: u64,
    /// Simulated time spent waiting in retry backoff.
    pub backoff_time: SimTime,
    /// Simulated time from a breaker opening until it closed again.
    pub recovery_time: SimTime,
}

// Registered as `store.*` by the cluster and as `exec.store.*` by the
// executor at join; the two simulated-time fields publish as nanoseconds.
bgl_obs::ledger!(RobustnessStats {
    retries,
    failovers,
    drops,
    corrupt_frames,
    deadline_misses,
    breaker_opens,
    breaker_probes,
    degraded_batches,
    degraded_rows,
    redirects,
    backoff_time = "backoff_ns",
    recovery_time = "recovery_ns",
});

impl RobustnessStats {
    /// Whether any fault was observed at all.
    pub fn any_faults(&self) -> bool {
        *self != RobustnessStats::default()
    }
}

/// Exponential backoff for attempt `attempt` (0-based): `base << attempt`,
/// saturating, capped at `cap`. Charged to the simulated clock so retries
/// cost virtual time exactly like wire traffic does.
pub fn exponential_backoff(base: SimTime, cap: SimTime, attempt: u32) -> SimTime {
    base.saturating_mul(1u64.checked_shl(attempt).unwrap_or(SimTime::MAX)).min(cap)
}

/// Mutable traffic ledger, separating local and remote flows.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TrafficLedger {
    pub local: TrafficStats,
    pub remote: TrafficStats,
}

// Registered as `store.wire.*` by the cluster. Simulated `wire_time` is
// charged to the clock by the caller and is not a published counter.
bgl_obs::ledger!(TrafficLedger {
    local.bytes = "wire.local_bytes",
    local.messages = "wire.local_messages",
    remote.bytes = "wire.remote_bytes",
    remote.messages = "wire.remote_messages",
});

impl TrafficLedger {
    /// Record one message and return its simulated wire time.
    pub fn record(
        &mut self,
        model: &NetworkModel,
        src: usize,
        dst: usize,
        bytes: usize,
    ) -> SimTime {
        self.record_scaled(model, src, dst, bytes, 1.0)
    }

    /// Record one message whose wire time is stretched by `latency_mult`
    /// (slow-server fault injection): the bytes on the wire are unchanged,
    /// but the time charged to the clock grows.
    pub fn record_scaled(
        &mut self,
        model: &NetworkModel,
        src: usize,
        dst: usize,
        bytes: usize,
        latency_mult: f64,
    ) -> SimTime {
        let base = model.message_time(src, dst, bytes);
        let t = (base as f64 * latency_mult.max(0.0)).round() as SimTime;
        let stats = if src == dst { &mut self.local } else { &mut self.remote };
        stats.messages += 1;
        stats.bytes += bytes as u64;
        stats.wire_time += t;
        t
    }

    /// Total bytes moved across both classes.
    pub fn total_bytes(&self) -> u64 {
        self.local.bytes + self.remote.bytes
    }

    /// Fraction of bytes that crossed servers.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.remote.bytes as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_obs::Ledger;

    #[test]
    fn local_is_cheaper_than_remote() {
        let net = NetworkModel::paper_fabric();
        let bytes = 10 << 20;
        assert!(net.message_time(0, 0, bytes) < net.message_time(0, 1, bytes));
    }

    #[test]
    fn ledger_classifies_flows() {
        let net = NetworkModel::paper_fabric();
        let mut ledger = TrafficLedger::default();
        ledger.record(&net, 0, 0, 1000);
        ledger.record(&net, 0, 1, 3000);
        assert_eq!(ledger.local.messages, 1);
        assert_eq!(ledger.remote.messages, 1);
        assert_eq!(ledger.total_bytes(), 4000);
        assert!((ledger.remote_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn scaled_record_stretches_time_not_bytes() {
        let net = NetworkModel::paper_fabric();
        let mut a = TrafficLedger::default();
        let mut b = TrafficLedger::default();
        let t1 = a.record(&net, 0, 1, 4096);
        let t4 = b.record_scaled(&net, 0, 1, 4096, 4.0);
        assert_eq!(t4, t1 * 4);
        assert_eq!(a.remote.bytes, b.remote.bytes);
        assert_eq!(b.remote.wire_time, t4);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let b0 = exponential_backoff(50_000, 5_000_000, 0);
        let b1 = exponential_backoff(50_000, 5_000_000, 1);
        let b2 = exponential_backoff(50_000, 5_000_000, 2);
        assert_eq!(b0, 50_000);
        assert_eq!(b1, 100_000);
        assert_eq!(b2, 200_000);
        assert_eq!(exponential_backoff(50_000, 5_000_000, 20), 5_000_000);
        // Saturation, not overflow, at absurd attempt counts.
        assert_eq!(exponential_backoff(50_000, SimTime::MAX, 90), SimTime::MAX);
    }

    #[test]
    fn robustness_stats_merge_and_default() {
        let mut a = RobustnessStats::default();
        assert!(!a.any_faults());
        let b = RobustnessStats { retries: 2, failovers: 1, backoff_time: 100, ..Default::default() };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.retries, 4);
        assert_eq!(a.failovers, 2);
        assert_eq!(a.backoff_time, 200);
        assert!(a.any_faults());
    }
}
