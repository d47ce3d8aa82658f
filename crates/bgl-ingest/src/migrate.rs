//! The migration planner: rate-limited physical data movement behind the
//! logical refinement pass.
//!
//! [`crate::assign::OnlineAssigner::refine_moves`] improves the *logical*
//! partition map; [`MigrationPlanner`] makes the bytes follow. Every move
//! the refinement pass emits is queued on a backlog, and each re-merge
//! period drains at most [`MigrationPlanner::moves_per_period`] of them
//! through [`bgl_store::StoreCluster::migrate_node`] — the crash-safe
//! four-phase protocol (prepare → copy → commit → tombstone). Bounding the
//! drain keeps rebalancing traffic a small, predictable tax on each period
//! instead of a thundering herd after a churn burst; the backlog carries
//! the rest forward.
//!
//! Failure handling follows the protocol's abort rule:
//!
//! * a move that fails *before* its commit point is confirmed aborted by
//!   [`bgl_store::StoreCluster::repair_migration`] and **dropped** — the
//!   old owner stayed authoritative, nothing drifted, and a later
//!   refinement pass re-discovers the move if it still pays;
//! * a move that fails *after* its commit point is repaired forward by the
//!   same call (the idempotent commit broadcast + tombstone re-drive) and
//!   counts as committed;
//! * a move whose repair is itself *ambiguous* (the repair RPC failed, so
//!   neither outcome is confirmed) is parked on a pending-repairs queue
//!   and retried first on every later drain — dropping it could strand a
//!   half-broadcast commit, which would leave server owner views diverged
//!   forever. Repairs are idempotent, so retrying until the fault clears
//!   is always safe.
//!
//! Cache invalidation is **commit-first** (DESIGN.md §10): the migrated
//! node's cache entry is dropped only after the protocol reports the new
//! owner authoritative. Right up to the commit the cached bytes are valid
//! — source and destination hold identical rows — so invalidating earlier
//! would only cost hits, and invalidating an *aborted* move is skipped
//! entirely.
//!
//! Everything is accounted under `migrate.*` metrics: planned / committed
//! / aborted / repaired / skipped counters, copied payload bytes, and
//! per-phase simulated-latency histograms.

use bgl_cache::FeatureCacheEngine;
use bgl_graph::NodeId;
use bgl_obs::{Histogram, Mirror, Registry};
use bgl_store::{Migration, StoreCluster};
use std::collections::VecDeque;

/// `migrate.*_ns`: per-phase simulated latencies of committed moves. Inert
/// by default, like every other metric set in the repo.
#[derive(Clone, Debug, Default)]
struct MigrateMetricSet {
    prepare_ns: Histogram,
    copy_ns: Histogram,
    commit_ns: Histogram,
    tombstone_ns: Histogram,
    total_ns: Histogram,
}

impl MigrateMetricSet {
    fn attach(reg: &Registry) -> Self {
        MigrateMetricSet {
            prepare_ns: reg.histogram("migrate.prepare_ns"),
            copy_ns: reg.histogram("migrate.copy_ns"),
            commit_ns: reg.histogram("migrate.commit_ns"),
            tombstone_ns: reg.histogram("migrate.tombstone_ns"),
            total_ns: reg.histogram("migrate.total_ns"),
        }
    }
}

/// What the planner did, counted here; `attach_metrics` mirrors it into
/// `migrate.*` at the end of each [`MigrationPlanner::drain`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrateReport {
    /// Moves the refinement pass queued on the backlog.
    pub planned: u64,
    /// Moves that ended with the new owner authoritative everywhere —
    /// including the [`MigrateReport::repaired`] subset, which got there
    /// via the forward-repair path.
    pub committed: u64,
    /// Moves that failed before their commit point: the old owner stayed
    /// authoritative and the move was dropped from the backlog.
    pub aborted: u64,
    /// Committed moves that needed [`StoreCluster::repair_migration`] to
    /// finish (the first drive failed after the commit point).
    pub repaired: u64,
    /// Ambiguous-repair deferrals: the repair RPC itself failed, so the
    /// move was parked for the next drain. Counts events, not moves — one
    /// move can requeue several times before the fault clears.
    pub requeued: u64,
    /// Backlog entries that were already satisfied (or moot) at drain
    /// time: the node sat on the destination already, or left the map.
    pub skipped: u64,
    /// Payload bytes shipped to destination replica chains during copy.
    pub copy_bytes: u64,
    /// Cache rows dropped by commit-first invalidation.
    pub invalidations: u64,
}

bgl_obs::ledger!(MigrateReport {
    planned,
    committed,
    aborted,
    repaired,
    requeued,
    skipped,
    copy_bytes,
    invalidations,
});

/// Queues the refinement pass's logical moves and drains a bounded number
/// of them per re-merge period through the store's crash-safe migration
/// protocol. Owned by the [`crate::IngestCoordinator`]; usable standalone
/// by benches and chaos tests.
#[derive(Debug)]
pub struct MigrationPlanner {
    backlog: VecDeque<(NodeId, u32, u32)>,
    /// Moves whose repair came back ambiguous (`Err`): retried before any
    /// backlog entry on every drain until they confirm either outcome.
    repairs: VecDeque<(NodeId, u32, u32)>,
    /// Physical moves per [`MigrationPlanner::drain`] call; 0 disables
    /// physical migration entirely (the pre-PR-10 logical-only behavior).
    moves_per_period: usize,
    metrics: MigrateMetricSet,
    report: MigrateReport,
    mirror: Mirror<MigrateReport>,
}

impl MigrationPlanner {
    pub fn new(moves_per_period: usize) -> Self {
        MigrationPlanner {
            backlog: VecDeque::new(),
            repairs: VecDeque::new(),
            moves_per_period,
            metrics: MigrateMetricSet::default(),
            report: MigrateReport::default(),
            mirror: Mirror::default(),
        }
    }

    /// Mirror the `migrate.*` counters and histograms into `reg`.
    pub fn attach_metrics(&mut self, reg: &Registry) {
        self.metrics = MigrateMetricSet::attach(reg);
        self.mirror = Mirror::attach(reg, "migrate");
    }

    pub fn report(&self) -> MigrateReport {
        self.report
    }

    /// Moves queued but not yet drained.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Moves parked with an ambiguous repair, awaiting the next drain.
    /// Non-zero means some server's owner view may still be behind a
    /// half-broadcast commit — drain again once the fault clears.
    pub fn pending_repairs(&self) -> usize {
        self.repairs.len()
    }

    pub fn moves_per_period(&self) -> usize {
        self.moves_per_period
    }

    /// Queue the refinement pass's `(node, from, to)` moves.
    pub fn plan(&mut self, moves: &[(NodeId, u32, u32)]) {
        if self.moves_per_period == 0 {
            return; // physical migration disabled; don't grow a dead queue
        }
        self.backlog.extend(moves.iter().copied());
        self.report.planned += moves.len() as u64;
    }

    /// Drain up to `moves_per_period` backlog entries through the
    /// migration protocol against `cluster`, invalidating `cache` entries
    /// commit-first. Returns the number of moves committed this call.
    ///
    /// Never propagates a migration failure: pre-commit failures abort
    /// cleanly (old owner authoritative) and post-commit failures are
    /// repaired forward; either way the cluster is left consistent and the
    /// drain moves on to the next entry.
    pub fn drain(
        &mut self,
        cluster: &mut StoreCluster,
        mut cache: Option<&mut FeatureCacheEngine>,
    ) -> usize {
        let mut committed = 0usize;
        let mut budget = self.moves_per_period;

        // Ambiguous repairs go first: a move stuck after its commit point
        // may be holding server owner views apart, so converging it beats
        // starting new movement. Each retry spends budget like a move.
        let mut parked = std::mem::take(&mut self.repairs);
        while budget > 0 {
            let Some((node, source, to)) = parked.pop_front() else {
                break;
            };
            budget -= 1;
            match cluster.repair_migration(node, source, to) {
                Ok(true) => {
                    self.repair_committed();
                    committed += 1;
                    self.invalidate(node, &mut cache);
                }
                Ok(false) => self.report.aborted += 1,
                Err(_) => self.requeue(node, source, to),
            }
        }
        self.repairs.extend(parked); // budget ran out before the queue did

        while budget > 0 {
            let Some((node, _from, to)) = self.backlog.pop_front() else {
                break;
            };
            budget -= 1;
            // Route by the authoritative owner at drain time, not the
            // queued `from` — chained moves and aborted predecessors can
            // both stale it between plan and drain.
            let source = match cluster.owner_of(node) {
                Ok(s) => s as u32,
                Err(_) => {
                    self.skip();
                    continue;
                }
            };
            if source == to {
                self.skip();
                continue;
            }
            let done = match cluster.migrate_node(node, to) {
                Ok(m) => {
                    self.commit(&m);
                    true
                }
                Err(_) => match cluster.repair_migration(node, source, to) {
                    Ok(true) => {
                        self.repair_committed();
                        true
                    }
                    // A confirmed abort: the old owner stayed
                    // authoritative, the move is dropped, and a later
                    // refinement pass re-plans it if it still pays.
                    Ok(false) => {
                        self.report.aborted += 1;
                        false
                    }
                    // Ambiguous: the repair RPC itself failed, so the
                    // commit may or may not have landed — and if it did,
                    // its broadcast may be partial. Park the move and
                    // retry the (idempotent) repair next drain.
                    Err(_) => {
                        self.requeue(node, source, to);
                        false
                    }
                },
            };
            if done {
                committed += 1;
                // Commit-first invalidation: only now is the entry
                // allowed to go (and a refill is guaranteed to read the
                // new owner's — identical — bytes).
                self.invalidate(node, &mut cache);
            }
        }
        self.mirror.publish(&self.report);
        committed
    }

    fn repair_committed(&mut self) {
        self.report.repaired += 1;
        self.report.committed += 1;
    }

    fn requeue(&mut self, node: NodeId, source: u32, to: u32) {
        self.repairs.push_back((node, source, to));
        self.report.requeued += 1;
    }

    fn invalidate(&mut self, node: NodeId, cache: &mut Option<&mut FeatureCacheEngine>) {
        if let Some(cache) = cache.as_deref_mut() {
            self.report.invalidations += cache.invalidate(&[node]);
        }
    }

    fn commit(&mut self, m: &Migration) {
        self.report.committed += 1;
        self.report.copy_bytes += m.copy_bytes;
        self.metrics.prepare_ns.record(m.phase_times[0]);
        self.metrics.copy_ns.record(m.phase_times[1]);
        self.metrics.commit_ns.record(m.phase_times[2]);
        self.metrics.tombstone_ns.record(m.phase_times[3]);
        self.metrics.total_ns.record(m.total_time());
    }

    fn skip(&mut self) {
        self.report.skipped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_cache::{FeatureCacheEngine, PolicyKind};
    use bgl_graph::FeatureStore;
    use bgl_obs::Ledger;
    use bgl_partition::{Partitioner, RoundRobinPartitioner};
    use bgl_sim::network::NetworkModel;
    use std::sync::Arc;

    const DIM: usize = 2;

    fn setup(k: usize) -> StoreCluster {
        let g = Arc::new(bgl_graph::generate::barabasi_albert(80, 3, 7));
        let mut f = FeatureStore::zeros(80, DIM);
        for v in 0..80u32 {
            f.row_mut(v).copy_from_slice(&[v as f32, v as f32 + 0.5]);
        }
        let p = RoundRobinPartitioner.partition(&g, &[], k);
        StoreCluster::new(g, Arc::new(f), &p, NetworkModel::paper_fabric(), 3)
    }

    #[test]
    fn drain_rate_limits_and_carries_the_backlog_forward() {
        let mut cluster = setup(3);
        let mut planner = MigrationPlanner::new(2);
        // Round-robin: v % 3 owns v. Five moves, two per period.
        let moves: Vec<(bgl_graph::NodeId, u32, u32)> =
            (0..5u32).map(|i| (i, i % 3, (i + 1) % 3)).collect();
        planner.plan(&moves);
        assert_eq!(planner.backlog_len(), 5);
        assert_eq!(planner.drain(&mut cluster, None), 2);
        assert_eq!(planner.backlog_len(), 3);
        assert_eq!(planner.drain(&mut cluster, None), 2);
        assert_eq!(planner.drain(&mut cluster, None), 1);
        assert_eq!(planner.backlog_len(), 0);
        let r = planner.report();
        assert_eq!((r.planned, r.committed, r.aborted, r.skipped), (5, 5, 0, 0));
        assert!(r.copy_bytes > 0);
        for (v, _, to) in moves {
            assert_eq!(cluster.owner_of(v).unwrap(), to as usize, "node {v}");
        }
    }

    #[test]
    fn committed_move_invalidates_cache_after_the_flip() {
        let mut cluster = setup(2);
        let v: bgl_graph::NodeId = 3; // owned by server 1
        let mut cache = FeatureCacheEngine::new(1, DIM, 16, 0, PolicyKind::Lru, &[]);
        let w = cluster.worker_location();
        let (rows, _) = cluster.fetch_features(&[v], w).unwrap();
        cache.fetch_batch(0, &[v], &mut |_| rows.to_vec());

        let reg = Registry::enabled();
        let mut planner = MigrationPlanner::new(4);
        planner.attach_metrics(&reg);
        planner.plan(&[(v, 1, 0)]);
        assert_eq!(planner.drain(&mut cluster, Some(&mut cache)), 1);
        let r = planner.report();
        assert_eq!(r.committed, 1);
        assert_eq!(r.invalidations, 1, "commit-first invalidation dropped the row");
        assert_eq!(cluster.owner_of(v).unwrap(), 0);
        // A refill reads the new owner's identical bytes.
        let (fresh, _) = cluster.fetch_features(&[v], w).unwrap();
        assert_eq!(fresh.to_vec(), vec![3.0, 3.5]);

        // The drain published the whole report; each phase recorded once.
        assert!(r.planned == 1 && r.copy_bytes > 0);
        let counters: std::collections::BTreeMap<_, _> =
            reg.counters().into_iter().collect();
        for (field, value) in MigrateReport::FIELDS.iter().zip(r.to_array()) {
            assert_eq!(counters[&format!("migrate.{field}")], value, "{field}");
        }
        let hists: std::collections::BTreeMap<_, _> =
            reg.histograms().into_iter().collect();
        for h in ["migrate.prepare_ns", "migrate.copy_ns", "migrate.commit_ns", "migrate.tombstone_ns", "migrate.total_ns"] {
            assert_eq!(hists[h].count, 1, "{h} must record one phase");
        }
    }

    #[test]
    fn aborted_move_is_dropped_with_old_owner_authoritative() {
        let mut cluster = setup(2);
        let v: bgl_graph::NodeId = 3; // owned by server 1, moving to 0
        let mut cache = FeatureCacheEngine::new(1, DIM, 16, 0, PolicyKind::Lru, &[]);
        let mut planner = MigrationPlanner::new(4);
        planner.plan(&[(v, 1, 0)]);
        cluster.set_server_down(0, true).unwrap();
        assert_eq!(planner.drain(&mut cluster, Some(&mut cache)), 0);
        cluster.set_server_down(0, false).unwrap();
        let r = planner.report();
        assert_eq!((r.committed, r.aborted), (0, 1));
        assert_eq!(r.invalidations, 0, "an aborted move must not touch the cache");
        assert_eq!(planner.backlog_len(), 0, "aborted moves are dropped, not retried");
        assert_eq!(cluster.owner_of(v).unwrap(), 1);
        let w = cluster.worker_location();
        let (rows, _) = cluster.fetch_features(&[v], w).unwrap();
        assert_eq!(rows.to_vec(), vec![3.0, 3.5]);
    }

    #[test]
    fn ambiguous_repair_is_parked_and_converges_on_the_next_drain() {
        // Server 1 is down as a *bystander*: the commit point lands on the
        // source (0 acks, routing flips) but the broadcast to 1 fails, and
        // so does the repair's own re-drive. Dropping the move here would
        // leave server 1's owner view behind forever — it must park.
        let mut cluster = setup(3);
        let v: bgl_graph::NodeId = 3; // owned by server 0, moving to 2
        let mut planner = MigrationPlanner::new(4);
        planner.plan(&[(v, 0, 2)]);
        cluster.set_server_down(1, true).unwrap();
        assert_eq!(planner.drain(&mut cluster, None), 0);
        let r = planner.report();
        assert_eq!((r.committed, r.aborted, r.requeued), (0, 0, 1));
        assert_eq!(planner.pending_repairs(), 1);
        assert_eq!(planner.backlog_len(), 0);
        assert_eq!(cluster.owner_of(v).unwrap(), 2, "commit point already flipped routing");

        cluster.set_server_down(1, false).unwrap();
        assert_eq!(planner.drain(&mut cluster, None), 1, "parked repair finishes first");
        let r = planner.report();
        assert_eq!((r.committed, r.repaired, r.aborted), (1, 1, 0));
        assert_eq!(planner.pending_repairs(), 0);
        for i in 0..3 {
            assert_eq!(
                cluster.in_process_server(i).unwrap().owner_view(v),
                Some(2),
                "server {i} converged"
            );
        }
    }

    #[test]
    fn stale_backlog_entries_are_skipped_not_remigrated() {
        let mut cluster = setup(3);
        let v: bgl_graph::NodeId = 1; // owned by server 1
        let mut planner = MigrationPlanner::new(4);
        // The same move queued twice (two refine passes flip-flopping):
        // the second drain finds the node already on its destination.
        planner.plan(&[(v, 1, 2), (v, 1, 2)]);
        assert_eq!(planner.drain(&mut cluster, None), 1);
        let r = planner.report();
        assert_eq!((r.committed, r.skipped), (1, 1));
        assert_eq!(cluster.owner_of(v).unwrap(), 2);
    }

    #[test]
    fn zero_budget_disables_physical_migration() {
        let mut cluster = setup(2);
        let mut planner = MigrationPlanner::new(0);
        planner.plan(&[(3, 1, 0)]);
        assert_eq!(planner.backlog_len(), 0, "disabled planner queues nothing");
        assert_eq!(planner.drain(&mut cluster, None), 0);
        assert_eq!(planner.report(), MigrateReport::default());
        assert_eq!(cluster.owner_of(3).unwrap(), 1);
    }
}
