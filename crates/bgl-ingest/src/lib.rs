//! # bgl-ingest — streaming graph mutation for the live BGL system
//!
//! The paper's pipeline assumes a frozen graph; real deployments re-ingest
//! their graphs continuously (new users, new interactions, refreshed
//! embeddings). This crate makes the reproduced system *mutable* without
//! giving up any of its invariants:
//!
//! * [`churn`] — seeded, declarative churn schedules ([`ChurnPlan`], the
//!   `FaultPlan` idiom): node arrivals with their edges, edge inserts
//!   between existing nodes, and full-row feature updates, reproducible
//!   from the plan alone;
//! * [`assign`] — [`OnlineAssigner`], the LDG placement rule applied
//!   per-arrival against a growing per-partition capacity, plus the
//!   periodic local refinement pass that claws back locality churn erodes;
//! * [`migrate`] — [`MigrationPlanner`], the rate-limited backlog drain
//!   that pushes each refinement move through the store's crash-safe
//!   four-phase migration protocol, so the *physical* placement follows
//!   the refined logical map instead of drifting from it;
//! * [`reorder`] — [`incremental_po_reorder`], repairing the proximity-
//!   aware training order for exactly the train nodes whose neighborhoods
//!   changed;
//! * [`coordinator`] — [`IngestCoordinator`], which drives the store's
//!   write-all ingest broadcasts (WAL-first on every server), invalidates
//!   the feature cache after committed updates, runs re-merge passes, and
//!   accounts everything under `ingest.*` metrics.
//!
//! The flow for one churn op:
//!
//! ```text
//!   ChurnPlan ──op──▶ IngestCoordinator
//!                        │ 1. OnlineAssigner.choose (arrivals)
//!                        │ 2. StoreCluster broadcast (WAL-first, all servers)
//!                        │ 3. OnlineAssigner.admit / cache.invalidate
//!                        ▼
//!            every `remerge_period` applied ops:
//!            server.remerge() → refine_moves(dirty) → incremental_po_reorder
//!                                      └─▶ MigrationPlanner.drain (≤ moves_per_period
//!                                          crash-safe owner migrations, commit-first
//!                                          cache invalidation)
//! ```

pub mod assign;
pub mod churn;
pub mod coordinator;
pub mod migrate;
pub mod reorder;

pub use assign::OnlineAssigner;
pub use churn::{ChurnOp, ChurnPlan};
pub use coordinator::{ChurnQuality, IngestConfig, IngestCoordinator, IngestReport};
pub use migrate::{MigrateReport, MigrationPlanner};
pub use reorder::incremental_po_reorder;

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_cache::{FeatureCacheEngine, PolicyKind};
    use bgl_graph::generate::{self, CommunityConfig};
    use bgl_graph::{Csr, FeatureStore, NodeId};
    use bgl_obs::Ledger;
    use bgl_partition::metrics::edge_cut_fraction;
    use bgl_partition::{LdgPartitioner, Partition, Partitioner};
    use bgl_sampler::TrainOrdering;
    use bgl_sim::network::NetworkModel;
    use bgl_store::{DiskTierConfig, DurableFeatures, InProcessTransport, StoreCluster};
    use rand::prelude::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    const DIM: usize = 4;

    /// Cluster with a durable tier on every server (feature updates land
    /// on the WAL) partitioned by LDG. Callers remove the returned dirs.
    fn setup(k: usize, tag: &str) -> (Arc<Csr>, StoreCluster, IngestCoordinator, Vec<PathBuf>) {
        setup_cfg(k, tag, IngestConfig::default())
    }

    fn setup_cfg(
        k: usize,
        tag: &str,
        cfg: IngestConfig,
    ) -> (Arc<Csr>, StoreCluster, IngestCoordinator, Vec<PathBuf>) {
        let g = Arc::new(generate::community_graph(
            CommunityConfig { n: 400, communities: 8, intra: 6, inter: 1 },
            13,
        ));
        let mut f = FeatureStore::zeros(400, DIM);
        for v in 0..400u32 {
            f.row_mut(v)[0] = v as f32;
        }
        let f = Arc::new(f);
        let p = LdgPartitioner::new(5).partition(&g, &[], k);
        let owner = Arc::new(p.assignment.clone());
        let transport = InProcessTransport::new(g.clone(), f.clone(), owner.clone(), k, 5);
        let mut dirs = Vec::new();
        for i in 0..k {
            let mut dir = std::env::temp_dir();
            dir.push(format!("bgl-ingest-{}-{}-{}", std::process::id(), tag, i));
            let cfg = DiskTierConfig::default().with_page_size(64).with_pool_pages(8);
            let tier = DurableFeatures::create(&dir, &f, cfg).unwrap();
            transport.server(i).unwrap().attach_disk_tier(tier);
            dirs.push(dir);
        }
        let cluster = StoreCluster::with_transport(
            Box::new(transport),
            owner,
            NetworkModel::paper_fabric(),
        );
        let coord = IngestCoordinator::new(&p, cfg);
        (g, cluster, coord, dirs)
    }

    /// Apply `schedule`, re-merging (and draining migrations) whenever due
    /// and once more at the end; returns the final merged graph.
    fn stream(
        cluster: &mut StoreCluster,
        coord: &mut IngestCoordinator,
        schedule: &[ChurnOp],
    ) -> Arc<Csr> {
        let mut order = Vec::new();
        for op in schedule {
            coord.apply(cluster, None, op).unwrap();
            if coord.remerge_due() {
                coord.remerge(cluster, &mut order, &[]);
            }
        }
        coord.remerge(cluster, &mut order, &[]).expect("in-process cluster yields merged graph")
    }

    /// Fetch `ids` through `cache`, filling misses from the live store.
    fn read_through(cache: &mut FeatureCacheEngine, cluster: &mut StoreCluster, ids: &[NodeId]) {
        let w = cluster.worker_location();
        cache.fetch_batch(0, ids, &mut |missing| {
            cluster.fetch_features(missing, w).expect("fill from store").0.to_vec()
        });
    }

    fn cleanup(dirs: Vec<PathBuf>) {
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn churn_flows_end_to_end_with_coherent_cache() {
        let (_, mut cluster, mut coord, dirs) = setup(2, "flow");
        let reg = bgl_obs::Registry::enabled();
        coord.attach_metrics(&reg);
        let mut cache = FeatureCacheEngine::new(1, DIM, 64, 0, PolicyKind::Lru, &[]);
        let w = cluster.worker_location();

        // Warm the cache with node 7's pre-churn row.
        let (rows, _) = cluster.fetch_features(&[7], w).unwrap();
        cache.fetch_batch(0, &[7], &mut |_ids| rows.to_vec());

        let plan = ChurnPlan::new(21).ops(120).mix(5, 3, 2);
        let schedule = plan.schedule(cluster.total_nodes(), DIM);
        let mut updates = 0u64;
        // The concurrent trainer: locality-biased batches through the
        // cache, misses filled from the mutating store. The anchor is
        // sticky for a few batches — a proximity-aware order revisits a
        // neighborhood before moving on — so there is reuse for the cache
        // to capture and for invalidation to disturb.
        let mut reader = StdRng::seed_from_u64(7);
        let mut anchor = 0u32;
        for (step, op) in schedule.iter().enumerate() {
            if let ChurnOp::UpdateFeature { v, .. } = op {
                // The stale-read hazard: the trainer holds v's row at the
                // moment its update commits.
                read_through(&mut cache, &mut cluster, &[*v]);
                updates += 1;
            }
            coord.apply(&mut cluster, Some(&mut cache), op).unwrap();
            let total = cluster.total_nodes() as u32;
            if step % 8 == 0 {
                anchor = reader.random_range(0..total);
            }
            let lo = anchor.saturating_sub(16);
            let hi = anchor.saturating_add(16).min(total - 1);
            let batch: Vec<NodeId> = (0..8).map(|_| reader.random_range(lo..=hi)).collect();
            read_through(&mut cache, &mut cluster, &batch);
        }
        let report = coord.report();
        assert!(report.applied > 100, "most ops must land: {:?}", report);
        assert!(cluster.total_nodes() > 400, "arrivals grew the graph");
        assert_eq!(
            coord.assigner().num_nodes(),
            cluster.total_nodes(),
            "logical map tracks the store"
        );

        // Cache coherence: every update found its row resident and dropped
        // exactly it, and a fresh fetch of an updated node returns the
        // store's current row, not the warmed one.
        assert!(updates > 0, "the mix schedules feature updates");
        assert_eq!(report.invalidations, updates);
        let (fresh, _) = cluster.fetch_features(&[7], w).unwrap();
        let store_row = fresh.to_vec();
        let res = cache.fetch_batch(0, &[7], &mut |_ids| store_row.clone());
        assert_eq!(res.features, store_row, "cache serves the committed row");

        // Invalidation stays per-row: the reader keeps hitting through the
        // churn.
        let hit_ratio = cache.stats().hit_ratio();
        assert!(hit_ratio >= 0.30, "invalidation churn sank the hit ratio to {hit_ratio:.2}");

        // Every apply published the report; applied ops recorded latency.
        let counters: std::collections::BTreeMap<_, _> =
            reg.counters().into_iter().collect();
        for (field, value) in IngestReport::FIELDS.iter().zip(report.to_array()) {
            assert_eq!(counters[&format!("ingest.{field}")], value, "{field}");
        }
        let hists: std::collections::BTreeMap<_, _> =
            reg.histograms().into_iter().collect();
        assert!(hists["ingest.apply_latency_ns"].count > 0);
        assert!(hists["ingest.apply_latency_ns"].mean() > 0.0);
        cleanup(dirs);
    }

    #[test]
    fn remerge_keeps_quality_near_scratch_and_repairs_order() {
        let (g, mut cluster, mut coord, dirs) = setup(4, "quality");
        let train: Vec<NodeId> = (0..400).step_by(4).collect();
        let mut order = bgl_sampler::ProximityAware::new(3, 9).epoch_order(&g, &train, 0);
        let schedule = ChurnPlan::new(33).ops(400).mix(6, 3, 1).schedule(400, DIM);
        let mut added_train: Vec<NodeId> = Vec::new();
        let mut merged = None;
        for op in &schedule {
            let before = cluster.total_nodes();
            coord.apply(&mut cluster, None, op).unwrap();
            // Every 4th streamed node joins the train set.
            let now = cluster.total_nodes();
            if now > before && now.is_multiple_of(4) {
                added_train.push((now - 1) as NodeId);
            }
            if coord.remerge_due() {
                merged = coord.remerge(&mut cluster, &mut order, &added_train);
                added_train.clear();
            }
        }
        let merged = coord
            .remerge(&mut cluster, &mut order, &added_train)
            .or(merged)
            .expect("in-process cluster must yield the merged graph");
        let report = coord.report();
        assert!(report.remerges > 1);
        assert!(report.reassignments > 0, "refinement must move something");

        // The order is still a permutation of the grown train set.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), order.len(), "no duplicates after repair");
        assert!(order.len() >= train.len());

        // Quality band: the online map stays within an additive band of a
        // from-scratch LDG repartition of the merged graph.
        let q = coord.quality(&merged, &LdgPartitioner::new(5));
        assert!(
            q.online_cut <= q.scratch_cut + 0.20,
            "online cut {:.3} drifted too far from scratch {:.3}",
            q.online_cut,
            q.scratch_cut
        );
        assert!(
            q.online_balance <= q.scratch_balance + 0.25,
            "online balance {:.3} vs scratch {:.3}",
            q.online_balance,
            q.scratch_balance
        );
        // And the store itself reflects the merged view.
        assert_eq!(merged.num_nodes(), cluster.total_nodes());
        cleanup(dirs);
    }

    #[test]
    fn remerge_migrates_bytes_to_follow_the_logical_map() {
        // An unbounded move budget must leave the physical owner of every
        // node equal to the assigner's logical map after the final drain —
        // the exact drift PR 9 deferred and the planner exists to close.
        let cfg = IngestConfig { remerge_period: 32, capacity_slack: 1.1, moves_per_period: 4096 };
        let (_, mut cluster, mut coord, dirs) = setup_cfg(3, "migrate", cfg);
        // No feature updates in the mix: base rows keep their seeded
        // values, so a migrated row's bytes are checkable by eye.
        let schedule = ChurnPlan::new(51).ops(200).mix(5, 3, 0).schedule(400, DIM);
        stream(&mut cluster, &mut coord, &schedule);
        let r = coord.planner().report();
        assert!(r.committed > 0, "refinement must drive physical moves: {r:?}");
        assert_eq!(r.aborted, 0, "no faults injected, so no aborts: {r:?}");
        assert_eq!(coord.planner().backlog_len(), 0, "budget covers the backlog");
        assert!(r.copy_bytes > 0);
        let total = cluster.total_nodes() as u32;
        for v in 0..total {
            assert_eq!(
                cluster.owner_of(v).unwrap() as u32,
                coord.assigner().part_of(v).unwrap(),
                "physical owner of {v} must match the logical map"
            );
        }
        // Migrated base rows read back bitwise through the new placement.
        let w = cluster.worker_location();
        let mut checked = 0;
        for v in (0..400u32).step_by(7) {
            let (row, _) = cluster.fetch_features(&[v], w).unwrap();
            assert_eq!(row.to_vec()[0], v as f32, "row {v} after migration");
            checked += 1;
        }
        assert!(checked > 50);
        cleanup(dirs);
    }

    #[test]
    fn partial_budget_keeps_the_physical_cut_near_the_logical_one() {
        // A drain budget far below what refinement queues: placement trails
        // the logical map, yet the cut fetches actually pay must stay within
        // 0.10 of the logical one, and rebalancing must never lose a row or
        // leave one claimed by two primaries.
        const K: usize = 4;
        let cfg = IngestConfig { remerge_period: 32, capacity_slack: 1.1, moves_per_period: 2 };
        let (_, mut cluster, mut coord, dirs) = setup_cfg(K, "partial", cfg);
        let schedule = ChurnPlan::new(4242).ops(160).mix(5, 3, 2).schedule(400, DIM);
        let merged = stream(&mut cluster, &mut coord, &schedule);
        let r = coord.planner().report();
        assert!(r.committed > 0, "a non-zero budget must move bytes: {r:?}");
        assert!(coord.planner().backlog_len() > 0, "budget 2 cannot drain the backlog: {r:?}");

        // The physical owner map, straight from the servers' own views.
        let (mut lost, mut dup) = (0, 0);
        let physical: Vec<u32> = (0..cluster.total_nodes() as u32)
            .map(|v| {
                let mut primaries = (0..K as u32).filter(|&i| {
                    let s = cluster.in_process_server(i as usize).unwrap();
                    s.owner_view(v) == Some(i) && s.serves(v)
                });
                let owner = primaries.next();
                lost += owner.is_none() as usize;
                dup += primaries.next().is_some() as usize;
                owner.unwrap_or(0)
            })
            .collect();
        assert_eq!((lost, dup), (0, 0), "lost / doubly-owned rows");
        let physical_cut = edge_cut_fraction(&merged, &Partition::new(K, physical));
        let logical_cut = edge_cut_fraction(&merged, &coord.assigner().partition());
        assert!(
            physical_cut <= logical_cut + 0.10,
            "physical cut {physical_cut:.3} trails logical {logical_cut:.3} + 0.10"
        );
        cleanup(dirs);
    }

    #[test]
    fn sampling_is_identical_across_a_remerge() {
        // Re-merging is semantics-preserving: the same seeded batch
        // samples identically before and after compaction.
        let (_, mut cluster, mut coord, dirs) = setup(2, "remerge");
        let schedule = ChurnPlan::new(3).ops(60).mix(1, 1, 0).schedule(400, DIM);
        for op in &schedule {
            coord.apply(&mut cluster, None, op).unwrap();
        }
        let salt = 0xFEED;
        let (before, _) =
            cluster.sample_batch_seeded(&[3, 2], &[1, 2, 3], 0, salt).unwrap();
        let mut order = Vec::new();
        coord.remerge(&mut cluster, &mut order, &[]);
        let (after, _) =
            cluster.sample_batch_seeded(&[3, 2], &[1, 2, 3], 0, salt).unwrap();
        assert_eq!(before.blocks, after.blocks);
        cleanup(dirs);
    }
}
