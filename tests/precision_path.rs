//! One differential over the whole feature miss path, for every pairing of
//! disk-tier × wire × cache precision.
//!
//! A stored row lives in `bgl_graph::half::RowBuf` from the disk page to
//! the cache slot, and each layer copies bits when its neighbour shares its
//! precision and converts only when it does not (DESIGN.md §11). This suite
//! holds the *values* that design may produce to a reference that knows
//! nothing about buffers: for `tier, wire, cache ∈ {F32, F16}³`, seeded
//! batches run `lookup_batch → fetch_features → complete_batch` against an
//! r=2 in-process cluster whose disk tiers have a two-frame pool (so pages
//! churn through eviction and reload), interleaved with `update_features`
//! of rows that are not f16-exact and with windows where a whole replica
//! chain is down (degraded zero rows). Every position of every assembled
//! matrix — hit, miss, duplicated key, degraded — must equal, bit for bit,
//! `row` or `quantize_f16(row)` as the pairing implies:
//!
//! * a **missed** position carries what the wire delivered: quantized iff
//!   the tier or the wire is f16;
//! * a **hit** carries what the slot holds: quantized iff the tier, the
//!   wire or the cache is f16;
//! * a row the cluster **degraded** is zeros, on the miss and on every
//!   later hit of the slot it was admitted to.
//!
//! Each batch is then run a second time, now served entirely from the
//! slots the first pass filled, and must return the same bits — except
//! in the one cell (f32 tier, f32 wire, f16 cache) where admission itself
//! is the first narrowing, so the slot holds `quantize_f16(row)` while the
//! miss that filled it returned `row`.
//!
//! The all-F16 and all-F32 cells are the two configurations `bgl-bench`
//! runs; the six mixed cells are the conversions the shared buffer must
//! keep getting right. No RNG crate is consulted (a fixed LCG draws the
//! batches), so the run is identical under any `rand`.

use bgl_cache::{FeatureCacheEngine, PolicyKind};
use bgl_graph::half::quantize_f16;
use bgl_graph::{FeaturePrecision, FeatureStore, GraphBuilder, NodeId};
use bgl_sim::network::NetworkModel;
use bgl_store::{
    DiskTierConfig, DurableFeatures, InProcessTransport, RetryPolicy, RobustEvent, StoreCluster,
};
use std::collections::HashSet;
use std::sync::Arc;
use FeaturePrecision::{F16, F32};

const N: usize = 96;
const K: usize = 4;
const DIM: usize = 3;
const ROUNDS: usize = 30;
const BATCH: usize = 20;

/// None of these is exactly representable in f16; 70000 overflows to +inf
/// and 1e-7 lands in the subnormal range.
fn base_row(v: NodeId) -> [f32; DIM] {
    [
        v as f32 * 0.37 + 0.1,
        -(v as f32) * 0.013 - 0.001,
        1.0 / (v as f32 + 3.0),
    ]
}

fn updated_row(v: NodeId, round: usize) -> [f32; DIM] {
    match v % 3 {
        0 => [70000.0, 1e-7, round as f32 + 0.101],
        _ => [v as f32 + 0.1 * round as f32 + 0.003, -0.7, 33.3],
    }
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

fn tier_dir(cell: &str, server: usize) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "bgl-precision-path-{}-{cell}-{server}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 4 in-process servers, r = 2, node `v` owned by server `v % 4`, each
/// server fronting a disk tier at `tier` precision with a 2-frame pool.
fn cluster(
    cell: &str,
    tier: FeaturePrecision,
    wire: FeaturePrecision,
) -> (StoreCluster, Vec<std::path::PathBuf>) {
    let mut b = GraphBuilder::new(N);
    for v in 0..N as NodeId {
        b.add_undirected(v, (v + 1) % N as NodeId);
    }
    let mut f = FeatureStore::zeros(N, DIM);
    for v in 0..N as NodeId {
        f.row_mut(v).copy_from_slice(&base_row(v));
    }
    let f = Arc::new(f);
    let owner: Arc<Vec<u32>> = Arc::new((0..N as u32).map(|v| v % K as u32).collect());
    let transport = InProcessTransport::new(Arc::new(b.build()), f.clone(), owner.clone(), K, 5);
    let mut dirs = Vec::new();
    for i in 0..K {
        let dir = tier_dir(cell, i);
        let cfg = DiskTierConfig::default()
            .with_page_size(64)
            .with_pool_pages(2)
            .with_precision(tier);
        let tier = DurableFeatures::create(&dir, &f, cfg).expect("create tier");
        transport
            .server(i)
            .expect("in-process server")
            .attach_disk_tier(tier);
        dirs.push(dir);
    }
    let cluster =
        StoreCluster::with_transport(Box::new(transport), owner, NetworkModel::paper_fabric())
            .with_replication(2)
            .with_retry_policy(RetryPolicy {
                deadline: None,
                ..RetryPolicy::default()
            })
            .with_feature_precision(wire)
            .with_degraded_features(true);
    (cluster, dirs)
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

fn quantized(row: &[f32], on: bool) -> Vec<u32> {
    row.iter()
        .map(|&x| if on { quantize_f16(x) } else { x }.to_bits())
        .collect()
}

/// One cell's moving parts and the reference they are held to.
struct Cell {
    ctx: String,
    cluster: StoreCluster,
    cache: FeatureCacheEngine,
    /// The last acked f32 row of every node.
    truth: Vec<[f32; DIM]>,
    /// Keys whose latest admission was a degraded (zero) row.
    zeroed: HashSet<NodeId>,
    /// Whether a missed / a cached row has been through f16 by the time it
    /// is read.
    wire_narrows: bool,
    slot_narrows: bool,
    /// Positions checked as misses, hits and degraded rows.
    tally: [u64; 3],
}

impl Cell {
    /// `lookup_batch → fetch_features → complete_batch` for `batch`, every
    /// position checked against the reference. Returns the assembled matrix
    /// and how many unique keys missed.
    fn pass(&mut self, worker: usize, batch: &[NodeId], what: &str) -> (Vec<f32>, usize) {
        let ctx = format!("{} {what}", self.ctx);
        let w = self.cluster.worker_location();
        let pending = self.cache.lookup_batch(worker, batch);
        let missing: Vec<NodeId> = pending.missing_keys().to_vec();
        let events_before = self.cluster.events.len();
        let (rows, _) = self
            .cluster
            .fetch_features(&missing, w)
            .expect("degraded, never failed");
        let degraded_groups: HashSet<usize> = self.cluster.events[events_before..]
            .iter()
            .filter_map(|e| match e {
                RobustEvent::Degraded { server, .. } => Some(*server),
                _ => None,
            })
            .collect();
        let degraded = |v: NodeId| degraded_groups.contains(&(v as usize % K));
        let got = self.cache.complete_batch(pending, &rows).features;

        for (i, &v) in batch.iter().enumerate() {
            let row = &self.truth[v as usize];
            let want = if missing.contains(&v) {
                if degraded(v) {
                    self.tally[2] += 1;
                    vec![0; DIM]
                } else {
                    self.tally[0] += 1;
                    quantized(row, self.wire_narrows)
                }
            } else {
                self.tally[1] += 1;
                if self.zeroed.contains(&v) {
                    vec![0; DIM]
                } else {
                    quantized(row, self.slot_narrows)
                }
            };
            assert_eq!(
                bits(&got[i * DIM..(i + 1) * DIM]),
                want,
                "{ctx}: position {i} (node {v})"
            );
        }
        for &v in &missing {
            if degraded(v) {
                self.zeroed.insert(v);
            } else {
                self.zeroed.remove(&v);
            }
        }
        (got, missing.len())
    }
}

/// Runs one cell; returns how many positions were checked as misses, hits
/// and degraded rows, so the caller can tell the run was not vacuous.
fn run_cell(tier: FeaturePrecision, wire: FeaturePrecision, cache: FeaturePrecision) -> [u64; 3] {
    let code = format!("{}{}{}", tier.code(), wire.code(), cache.code());
    let (cluster, dirs) = cluster(&code, tier, wire);
    let wire_narrows = tier == F16 || wire == F16;
    let mut cell = Cell {
        ctx: String::new(),
        cluster,
        // Every shard holds a batch but no level holds the node set, so
        // rounds keep evicting. LRU, because a hit then protects its key for
        // the rest of the batch: every position of a key is a hit or every
        // one is a miss, which `missing_keys` alone can tell the reference
        // (under FIFO a promotion can evict a key between two of its
        // positions). The policy picks slots; it never touches row bytes.
        cache: FeatureCacheEngine::with_precision(
            2,
            DIM,
            BATCH,
            BATCH,
            PolicyKind::Lru,
            &[],
            cache,
        ),
        truth: (0..N as NodeId).map(base_row).collect(),
        zeroed: HashSet::new(),
        wire_narrows,
        slot_narrows: wire_narrows || cache == F16,
        tally: [0; 3],
    };
    let mut lcg = Lcg(0xB61_0000 + code.parse::<u64>().unwrap());
    let w = cell.cluster.worker_location();

    for round in 0..ROUNDS {
        cell.ctx = format!("tier {tier:?} wire {wire:?} cache {cache:?} round {round}");
        // Every fifth round owner group 1 loses its whole chain (1, 2) —
        // after this round's update, which writes to every replica.
        let chain_down = round % 5 == 4;
        for s in [1, 2] {
            cell.cluster.set_server_down(s, false).unwrap();
        }
        if round % 3 == 2 {
            // Acked updates of inexact rows; the ingest path's invalidate
            // keeps the caches from serving the old ones.
            let nodes: Vec<NodeId> = (0..4).map(|_| lcg.below(N) as NodeId).collect();
            let mut rows = Vec::new();
            for &v in &nodes {
                cell.truth[v as usize] = updated_row(v, round);
                rows.extend_from_slice(&cell.truth[v as usize]);
            }
            let (applied, _) = cell
                .cluster
                .update_features(&nodes, &rows, w)
                .expect("update acks");
            assert_eq!(applied as usize, nodes.len(), "{}", cell.ctx);
            cell.cache.invalidate(&nodes);
            for v in &nodes {
                cell.zeroed.remove(v);
            }
        }
        for s in [1, 2] {
            cell.cluster.set_server_down(s, chain_down).unwrap();
        }

        let mut batch: Vec<NodeId> = (0..BATCH - 1).map(|_| lcg.below(N) as NodeId).collect();
        batch.push(batch[0]); // at least one duplicated key
        let worker = round % 2;
        let (first, _) = cell.pass(worker, &batch, "first pass");
        // The same batch again: served from the slots the first pass filled.
        let (second, missed_again) = cell.pass(worker, &batch, "second pass");
        assert_eq!(missed_again, 0, "{}: the second pass is all hits", cell.ctx);
        if cell.slot_narrows == cell.wire_narrows {
            assert_eq!(
                bits(&second),
                bits(&first),
                "{}: the slots hold what the misses returned",
                cell.ctx
            );
        }
    }
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    cell.tally
}

#[test]
fn every_precision_pairing_assembles_the_rows_its_pairing_implies() {
    for tier in [F32, F16] {
        for wire in [F32, F16] {
            for cache in [F32, F16] {
                let [misses, hits, degraded] = run_cell(tier, wire, cache);
                assert!(
                    misses > 100 && hits > 100 && degraded > 0,
                    "tier {tier:?} wire {wire:?} cache {cache:?} ran vacuously: \
                     {misses} missed, {hits} hit, {degraded} degraded positions"
                );
            }
        }
    }
}
