//! Cache statistics: hit ratios and amortized overhead.
//!
//! [`CacheStats`] is the cache's ledger — the front-ends bump it and every
//! caller (the executor's report, `bgl-bench`, the figures) reads it. Its
//! field table below is the only other place the fields are spelled:
//! merging, deltas, the shard threads' `AtomicLedger<CacheStats>` and the
//! `cache.*` registry mirror all derive from it.

use bgl_obs::Ledger;
use serde::{Deserialize, Serialize};

/// Cumulative counters for the two-level cache engine.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Hits served by the querying worker's own GPU shard.
    pub gpu_local_hits: u64,
    /// Hits served by another GPU's shard (P2P copy over NVLink).
    pub gpu_peer_hits: u64,
    /// Hits served by the CPU cache level.
    pub cpu_hits: u64,
    /// Misses fetched from the graph store.
    pub misses: u64,
    /// Feature bytes fetched from the store (miss traffic).
    pub miss_bytes: u64,
    /// Simulated cache-operation time (lookups + updates), nanoseconds.
    pub overhead_ns: u64,
    /// Number of batches processed.
    pub batches: u64,
    /// Resident rows dropped by explicit `invalidate` calls (ingest-driven
    /// coherence, not capacity eviction).
    pub invalidations: u64,
}

impl CacheStats {
    /// Total queries.
    pub fn total(&self) -> u64 {
        self.gpu_local_hits + self.gpu_peer_hits + self.cpu_hits + self.misses
    }

    /// Overall hit ratio (any cache level).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.misses as f64 / total as f64
    }

    /// GPU-level hit ratio (local + peer), the ratio Fig. 5 plots.
    pub fn gpu_hit_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.gpu_local_hits + self.gpu_peer_hits) as f64 / total as f64
    }

    /// Amortized simulated overhead per batch in milliseconds — the y-axis
    /// of Fig. 5a.
    pub fn overhead_ms_per_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.overhead_ns as f64 / self.batches as f64 / 1e6
    }

    /// Field-wise `self - earlier` (saturating): what accumulated between
    /// two snapshots of the monotonic totals. Inherent so callers need not
    /// import [`Ledger`] (`bgl-bench` calls it without).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        Ledger::delta_since(self, earlier)
    }
}

// Registered as `cache.{engine,queue}.*` by the two front-ends.
bgl_obs::ledger!(CacheStats {
    gpu_local_hits,
    gpu_peer_hits,
    cpu_hits,
    misses,
    miss_bytes,
    overhead_ns,
    batches,
    invalidations,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = CacheStats {
            gpu_local_hits: 50,
            gpu_peer_hits: 25,
            cpu_hits: 15,
            misses: 10,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.9).abs() < 1e-12);
        assert!((s.gpu_hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.overhead_ms_per_batch(), 0.0);
    }

    #[test]
    fn delta_since_subtracts_fieldwise() {
        let now = CacheStats { misses: 10, gpu_local_hits: 7, ..Default::default() };
        let earlier = CacheStats { misses: 4, gpu_local_hits: 7, ..Default::default() };
        let d = now.delta_since(&earlier);
        assert_eq!(d.misses, 6);
        assert_eq!(d.gpu_local_hits, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats { misses: 1, batches: 1, ..Default::default() };
        let b = CacheStats { misses: 2, batches: 3, overhead_ns: 10, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.misses, 3);
        assert_eq!(a.batches, 4);
        assert_eq!(a.overhead_ns, 10);
    }
}
