//! The ingest coordinator: applies churn to a live cluster and keeps the
//! derived state honest.
//!
//! One [`IngestCoordinator::apply`] call drives a single [`ChurnOp`]
//! end-to-end through the ordering the design doc (§10) pins down:
//!
//! 1. **Store first.** The mutation is broadcast write-all through
//!    [`StoreCluster`], which journals WAL-first on every server. Nothing
//!    below happens unless the store acked.
//! 2. **Placement.** Node arrivals are placed by the [`OnlineAssigner`]
//!    *before* the store call (the store needs the owner), which is safe
//!    because a failed broadcast aborts the whole apply and the logical
//!    map is only grown on success.
//! 3. **Cache invalidation.** Feature updates drop the row from every
//!    attached cache level — after the store commit, so a concurrent
//!    refill can only ever re-admit the new row.
//!
//! Periodically ([`IngestConfig::remerge_period`] applied ops) the
//! coordinator runs [`IngestCoordinator::remerge`]: compact every
//! in-process server's delta, run the assigner's local refinement over the
//! dirty nodes, repair the proximity-aware training order incrementally,
//! and drain up to [`IngestConfig::moves_per_period`] of the refinement's
//! moves through the store's crash-safe migration protocol so the physical
//! placement follows the logical map (DESIGN.md §10). Everything is
//! counted in `ingest.*` and `migrate.*` metric sets.

use crate::assign::OnlineAssigner;
use crate::churn::ChurnOp;
use crate::migrate::MigrationPlanner;
use crate::reorder::incremental_po_reorder;
use bgl_cache::FeatureCacheEngine;
use bgl_graph::{Csr, NodeId};
use bgl_obs::{Histogram, Mirror, Registry};
use bgl_partition::metrics::{balance_ratio, edge_cut_fraction};
use bgl_partition::{Partition, Partitioner};
use bgl_store::{StoreCluster, StoreError};
use std::sync::Arc;

/// Knobs for the coordinator.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Applied ops between re-merge passes; 0 disables periodic merging
    /// (callers can still invoke [`IngestCoordinator::remerge`] manually).
    pub remerge_period: usize,
    /// Capacity slack for the online assigner (≥ 1.0).
    pub capacity_slack: f64,
    /// Physical migrations drained per re-merge pass — the rate limit on
    /// the [`MigrationPlanner`] that moves bytes after the refinement pass
    /// moves the logical map. 0 disables physical migration (logical-only,
    /// the pre-migration behavior).
    pub moves_per_period: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { remerge_period: 64, capacity_slack: 1.1, moves_per_period: 8 }
    }
}

/// What the coordinator did, counted here; `attach_metrics` mirrors it
/// into `ingest.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Mutations the store acked (edges inserted, nodes appended, rows
    /// updated).
    pub applied: u64,
    /// Idempotent rejections (duplicate edges).
    pub rejected: u64,
    /// Cache rows dropped by invalidation.
    pub invalidations: u64,
    /// Nodes the refinement pass moved to another logical partition.
    pub reassignments: u64,
    /// Re-merge passes run.
    pub remerges: u64,
}

bgl_obs::ledger!(IngestReport { applied, rejected, invalidations, reassignments, remerges });

/// Post-churn partition quality, measured against a from-scratch
/// repartition of the same merged graph.
#[derive(Clone, Copy, Debug)]
pub struct ChurnQuality {
    /// Edge-cut fraction of the online (streamed + refined) map.
    pub online_cut: f64,
    /// Edge-cut fraction of the from-scratch repartition.
    pub scratch_cut: f64,
    /// Balance ratio (max/mean) of the online map.
    pub online_balance: f64,
    /// Balance ratio of the from-scratch repartition.
    pub scratch_balance: f64,
}

/// Applies [`ChurnOp`]s to a [`StoreCluster`], maintaining the logical
/// partition map, the feature cache, and the training order as it goes.
pub struct IngestCoordinator {
    assigner: OnlineAssigner,
    planner: MigrationPlanner,
    config: IngestConfig,
    applied_since_merge: usize,
    report: IngestReport,
    mirror: Mirror<IngestReport>,
    /// Simulated nanoseconds per applied op, as reported by the store's
    /// network model (`ingest.apply_latency_ns`).
    apply_latency_ns: Histogram,
}

impl IngestCoordinator {
    /// Seed from the offline partition the cluster was built with.
    pub fn new(partition: &Partition, config: IngestConfig) -> Self {
        IngestCoordinator {
            assigner: OnlineAssigner::new(partition, config.capacity_slack),
            planner: MigrationPlanner::new(config.moves_per_period),
            config,
            applied_since_merge: 0,
            report: IngestReport::default(),
            mirror: Mirror::default(),
            apply_latency_ns: Histogram::noop(),
        }
    }

    /// Mirror the `ingest.*` and `migrate.*` counters into `reg`.
    pub fn attach_metrics(&mut self, reg: &Registry) {
        self.mirror = Mirror::attach(reg, "ingest");
        self.apply_latency_ns = reg.histogram("ingest.apply_latency_ns");
        self.planner.attach_metrics(reg);
    }

    pub fn report(&self) -> IngestReport {
        self.report
    }

    pub fn assigner(&self) -> &OnlineAssigner {
        &self.assigner
    }

    /// The migration planner driving physical rebalancing (read access,
    /// for its `migrate.*` report and backlog depth).
    pub fn planner(&self) -> &MigrationPlanner {
        &self.planner
    }

    /// True when enough ops have been applied that the caller should run
    /// [`IngestCoordinator::remerge`].
    pub fn remerge_due(&self) -> bool {
        self.config.remerge_period > 0
            && self.applied_since_merge >= self.config.remerge_period
    }

    /// Apply one op through the cluster. `cache` (when attached) is kept
    /// coherent with feature updates. Returns the store-acked apply count
    /// for the op (0 when it was a pure duplicate).
    pub fn apply(
        &mut self,
        cluster: &mut StoreCluster,
        cache: Option<&mut FeatureCacheEngine>,
        op: &ChurnOp,
    ) -> Result<u64, StoreError> {
        let from = cluster.worker_location();
        let applied = match op {
            ChurnOp::AddEdge { u, v } => {
                let (applied, rejected, elapsed) =
                    cluster.ingest_add_edges(&[(*u, *v)], from)?;
                self.record(applied as u64, rejected as u64, elapsed);
                applied as u64
            }
            ChurnOp::AddNode { neighbors, row } => {
                // Score first, commit after the broadcast acked — a failed
                // store call must not grow the logical map.
                let owner = self.assigner.choose(neighbors);
                let (id, elapsed) = cluster.ingest_add_node(owner, row, from)?;
                self.assigner.admit(owner);
                let mut applied = 1u64; // the node itself
                let mut rejected = 0u64;
                let mut total_elapsed = elapsed;
                if !neighbors.is_empty() {
                    let edges: Vec<(NodeId, NodeId)> =
                        neighbors.iter().map(|&n| (id, n)).collect();
                    let (a, r, e2) = cluster.ingest_add_edges(&edges, from)?;
                    applied += a as u64;
                    rejected += r as u64;
                    total_elapsed += e2;
                }
                self.record(applied, rejected, total_elapsed);
                applied
            }
            ChurnOp::UpdateFeature { v, row } => {
                let (applied, elapsed) = cluster.update_features(&[*v], row, from)?;
                self.record(applied as u64, 0, elapsed);
                if let Some(cache) = cache {
                    self.report.invalidations += cache.invalidate(&[*v]);
                }
                applied as u64
            }
        };
        self.mirror.publish(&self.report);
        Ok(applied)
    }

    fn record(&mut self, applied: u64, rejected: u64, elapsed: bgl_sim::SimTime) {
        self.report.applied += applied;
        self.report.rejected += rejected;
        if applied > 0 {
            self.applied_since_merge += 1;
            self.apply_latency_ns.record(elapsed);
        }
    }

    /// Run the re-merge pass: compact every in-process server's delta into
    /// a fresh base CSR, refine the logical map over the dirty nodes, and
    /// incrementally repair `train_order` (train nodes whose neighborhoods
    /// changed, plus `added_train` newcomers). Returns the merged graph
    /// from server 0, or `None` for a fully remote cluster — re-merging is
    /// sampling-semantics-preserving, so remote servers may compact on
    /// their own schedule without a control frame.
    ///
    /// Equivalent to [`IngestCoordinator::remerge_with_cache`] with no
    /// cache attached: physical migrations still drain, but there are no
    /// cache entries to invalidate.
    pub fn remerge(
        &mut self,
        cluster: &mut StoreCluster,
        train_order: &mut Vec<NodeId>,
        added_train: &[NodeId],
    ) -> Option<Arc<Csr>> {
        self.remerge_with_cache(cluster, None, train_order, added_train)
    }

    /// [`IngestCoordinator::remerge`], plus the physical follow-through:
    /// the refinement pass's moves are queued on the [`MigrationPlanner`]
    /// and up to [`IngestConfig::moves_per_period`] of them drain through
    /// the store's crash-safe migration protocol, with commit-first
    /// invalidation of `cache` for every committed move.
    pub fn remerge_with_cache(
        &mut self,
        cluster: &mut StoreCluster,
        cache: Option<&mut FeatureCacheEngine>,
        train_order: &mut Vec<NodeId>,
        added_train: &[NodeId],
    ) -> Option<Arc<Csr>> {
        let mut merged: Option<Arc<Csr>> = None;
        let mut dirty: Vec<NodeId> = Vec::new();
        for i in 0..cluster.num_servers() {
            let Some(server) = cluster.in_process_server(i) else {
                continue;
            };
            if merged.is_none() {
                dirty = server.dirty_nodes();
            }
            let m = server.remerge();
            if merged.is_none() {
                merged = Some(m);
            }
        }
        self.applied_since_merge = 0;
        self.report.remerges += 1;
        if let Some(g) = &merged {
            let moves = self.assigner.refine_moves(g, &dirty);
            self.report.reassignments += moves.len() as u64;
            incremental_po_reorder(g, train_order, &dirty, added_train);
            // The logical map moved; now the bytes follow, rate-limited so
            // rebalance traffic stays a bounded tax on the period.
            self.planner.plan(&moves);
            self.planner.drain(cluster, cache);
        }
        self.mirror.publish(&self.report);
        merged
    }

    /// Measure the online map against a from-scratch repartition of the
    /// merged graph by `scratch` (typically the partitioner that built the
    /// base map). The bench's churn experiment pins bands on these.
    pub fn quality(&self, merged: &Csr, scratch: &dyn Partitioner) -> ChurnQuality {
        let online = self.assigner.partition();
        let fresh = scratch.partition(merged, &[], self.assigner.k());
        ChurnQuality {
            online_cut: edge_cut_fraction(merged, &online),
            scratch_cut: edge_cut_fraction(merged, &fresh),
            online_balance: balance_ratio(&online.sizes()),
            scratch_balance: balance_ratio(&fresh.sizes()),
        }
    }
}
