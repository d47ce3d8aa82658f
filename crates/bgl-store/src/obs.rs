//! bgl-obs bindings for the store cluster and its disk tier.
//!
//! The typed ledgers stay where they are counted and read — the cluster's
//! [`RobustnessStats`] and [`TrafficLedger`], the tier's [`BufPoolStats`],
//! [`WalStats`] and [`PagerStats`]; each names its fields once beside its
//! declaration. The two bundles here only hold one [`Mirror`] per ledger
//! plus what has no ledger behind it: the registry handle for spans, the
//! recovery event counter and the WAL fsync histogram. A default
//! (unattached) bundle is inert.

use crate::bufpool::BufPoolStats;
use crate::pager::PagerStats;
use crate::wal::WalStats;
use bgl_obs::{Counter, Histogram, Mirror, Registry};
use bgl_sim::network::{RobustnessStats, TrafficLedger};

/// `store.*` and `store.wire.*`: the cluster's two ledgers.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    obs: Registry,
    robustness: Mirror<RobustnessStats>,
    wire: Mirror<TrafficLedger>,
}

impl StoreMetrics {
    pub fn attach(reg: &Registry) -> Self {
        StoreMetrics {
            obs: reg.clone(),
            robustness: Mirror::attach(reg, "store"),
            wire: Mirror::attach(reg, "store"),
        }
    }

    /// Registry handle, for spans around store operations.
    pub fn registry(&self) -> &Registry {
        &self.obs
    }

    /// Publish whatever accumulated since the previous call.
    pub fn publish(&mut self, rob: &RobustnessStats, ledger: &TrafficLedger) {
        self.robustness.publish(rob);
        self.wire.publish(ledger);
    }
}

/// `store.disk.*`: the tier's three ledgers, the recovery event counter
/// and the WAL fsync-latency histogram.
#[derive(Debug, Default)]
pub struct DiskMetrics {
    pool: Mirror<BufPoolStats>,
    wal: Mirror<WalStats>,
    pager: Mirror<PagerStats>,
    recoveries: Counter,
    fsync_ns: Histogram,
}

impl DiskMetrics {
    pub fn attach(reg: &Registry) -> Self {
        DiskMetrics {
            pool: Mirror::attach(reg, "store.disk"),
            wal: Mirror::attach(reg, "store.disk"),
            pager: Mirror::attach(reg, "store.disk"),
            recoveries: reg.counter("store.disk.recoveries"),
            fsync_ns: reg.histogram("store.disk.wal_fsync_ns"),
        }
    }

    /// The histogram WAL fsyncs record into.
    pub fn fsync_histogram(&self) -> Histogram {
        self.fsync_ns.clone()
    }

    /// Count one recovery (open-with-replay) event.
    pub fn count_recovery(&self) {
        self.recoveries.incr();
    }

    /// Publish whatever accumulated since the previous call.
    pub fn publish(&mut self, pool: &BufPoolStats, wal: &WalStats, pager: &PagerStats) {
        self.pool.publish(pool);
        self.wal.publish(wal);
        self.pager.publish(pager);
    }
}
