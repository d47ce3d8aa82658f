//! The two-level multi-GPU feature cache (paper §3.2.3, Fig. 8).
//!
//! One shard per GPU; shard `i` owns exactly the node IDs with
//! `id % num_gpus == i`, so no feature is ever duplicated across GPU memory
//! (the paper's "disjoint node IDs by mod" rule). A query from worker `w`
//! for a key owned by shard `s ≠ w` that hits is a *peer* hit — a P2P copy
//! over NVLink, still far cheaper than the network. Above the GPU shards
//! sits a CPU cache running the same policy; below it, the graph store.

use crate::cost::CacheCostModel;
use crate::policy::{make_policy, CachePolicy, PolicyKind};
use crate::stats::CacheStats;
use bgl_graph::half::{RowBuf, RowRef};
use bgl_graph::hash::IdMap;
use bgl_graph::{FeatureBlock, FeaturePrecision, FeatureStore, NodeId};
use bgl_obs::{Ledger, Mirror};

/// One cache shard: a policy plus the slot buffer it indexes. The slots are
/// a [`RowBuf`] at the shard's configured precision (f16 slots hold the
/// same number of rows in half the bytes): a row arriving at that precision
/// is admitted by copying its bits, one arriving at the other is converted
/// once at admit, and every hit widens into the batch buffer.
pub(crate) struct Shard {
    pub policy: Box<dyn CachePolicy>,
    buffer: RowBuf,
    dim: usize,
}

impl Shard {
    pub(crate) fn new(
        kind: PolicyKind,
        capacity: usize,
        dim: usize,
        hot: &[NodeId],
        precision: FeaturePrecision,
    ) -> Self {
        let policy = make_policy(kind, capacity, hot);
        let buffer = RowBuf::zeros(precision, policy.capacity() * dim);
        Shard { policy, buffer, dim }
    }

    /// Borrow slot `slot` at the shard's precision.
    pub(crate) fn slot(&self, slot: u32) -> RowRef<'_> {
        self.buffer.row(slot as usize, self.dim)
    }

    /// Resident slot bytes at this shard's precision.
    pub(crate) fn buffer_bytes(&self) -> usize {
        self.buffer.byte_len()
    }

    /// Admit `key` with feature `row`; returns true if cached.
    pub(crate) fn admit(&mut self, key: NodeId, row: RowRef<'_>) -> bool {
        match self.policy.insert(key) {
            Some((slot, _evicted)) => {
                // Old features are implicitly evicted by overwriting the
                // slot (§4: "old node features are implicitly evicted by
                // inserting new node features").
                self.buffer.set_row(slot as usize, row);
                true
            }
            None => false,
        }
    }
}

/// Result of one batch fetch.
#[derive(Clone, Debug)]
pub struct FetchResult {
    /// Row-major `nodes.len() × dim` gathered features.
    pub features: Vec<f32>,
    /// This batch's counters (also folded into the engine totals).
    pub stats: CacheStats,
}

/// A batch lookup whose misses have not been resolved yet — the state
/// carried between the pipeline's cache-lookup and cache-admit stages.
/// Produced by [`FeatureCacheEngine::lookup_batch`]; hand it back to
/// [`FeatureCacheEngine::complete_batch`] together with the rows for
/// [`PendingFetch::missing_keys`] (in order) to finish the batch.
#[derive(Debug)]
pub struct PendingFetch {
    features: Vec<f32>,
    missing_keys: Vec<NodeId>,
    missing_pos: Vec<Vec<usize>>,
    stats: CacheStats,
    gpu_lookups: u64,
    gpu_hits: u64,
    gpu_inserts: u64,
}

impl PendingFetch {
    /// Unique node IDs that missed both cache levels, in first-seen order.
    pub fn missing_keys(&self) -> &[NodeId] {
        &self.missing_keys
    }

    /// True when every row was served from cache.
    pub fn is_complete(&self) -> bool {
        self.missing_keys.is_empty()
    }
}

/// The two-level (multi-GPU + CPU) feature cache engine.
pub struct FeatureCacheEngine {
    num_gpus: usize,
    dim: usize,
    gpu_shards: Vec<Shard>,
    cpu_shard: Option<Shard>,
    gpu_cost: CacheCostModel,
    totals: CacheStats,
    precision: FeaturePrecision,
    metrics: Mirror<CacheStats>,
}

impl FeatureCacheEngine {
    /// Build an engine storing rows at full f32 precision.
    ///
    /// * `gpu_capacity` — slots *per GPU shard*;
    /// * `cpu_capacity` — slots in the CPU level (0 disables it);
    /// * `hot_nodes` — degree-ranked node list, used by the static policy
    ///   to prefill (each shard takes the hot nodes it owns by mod).
    pub fn new(
        num_gpus: usize,
        dim: usize,
        gpu_capacity: usize,
        cpu_capacity: usize,
        kind: PolicyKind,
        hot_nodes: &[NodeId],
    ) -> Self {
        Self::with_precision(
            num_gpus,
            dim,
            gpu_capacity,
            cpu_capacity,
            kind,
            hot_nodes,
            FeaturePrecision::F32,
        )
    }

    /// [`FeatureCacheEngine::new`] with an explicit slot precision. With
    /// [`FeaturePrecision::F16`] every resident row costs half the cache
    /// bytes (same slot count), and `miss_bytes` accounting assumes the
    /// store ships rows at the same precision.
    pub fn with_precision(
        num_gpus: usize,
        dim: usize,
        gpu_capacity: usize,
        cpu_capacity: usize,
        kind: PolicyKind,
        hot_nodes: &[NodeId],
        precision: FeaturePrecision,
    ) -> Self {
        assert!(num_gpus >= 1, "need at least one GPU shard");
        assert!(dim >= 1, "feature dim must be positive");
        let gpu_shards = (0..num_gpus)
            .map(|g| {
                let hot: Vec<NodeId> = hot_nodes
                    .iter()
                    .copied()
                    .filter(|&v| (v as usize) % num_gpus == g)
                    .collect();
                Shard::new(kind, gpu_capacity, dim, &hot, precision)
            })
            .collect();
        let cpu_shard = if cpu_capacity > 0 {
            Some(Shard::new(kind, cpu_capacity, dim, hot_nodes, precision))
        } else {
            None
        };
        FeatureCacheEngine {
            num_gpus,
            dim,
            gpu_shards,
            cpu_shard,
            gpu_cost: CacheCostModel::for_policy(kind),
            totals: CacheStats::default(),
            precision,
            metrics: Mirror::default(),
        }
    }

    /// Mirror this engine's per-batch stats into `reg` under
    /// `cache.engine.*` counters.
    pub fn attach_metrics(&mut self, reg: &bgl_obs::Registry) {
        self.metrics = Mirror::attach(reg, "cache.engine");
    }

    /// Load the features of every statically resident key (no-op for the
    /// dynamic policies, which start cold).
    pub fn warm(&mut self, features: &FeatureStore) {
        for shard in self.gpu_shards.iter_mut().chain(self.cpu_shard.iter_mut()) {
            let resident: Vec<NodeId> = {
                // Only the static policy has pre-resident keys.
                if shard.policy.kind() == PolicyKind::StaticDegree {
                    (0..features.num_nodes() as NodeId)
                        .filter(|&v| shard.policy.contains(v))
                        .collect()
                } else {
                    Vec::new()
                }
            };
            for key in resident {
                if let Some(slot) = shard.policy.lookup(key) {
                    shard.buffer.set_row(slot as usize, RowRef::F32(features.row(key)));
                }
            }
        }
    }

    /// Slot storage precision.
    pub fn precision(&self) -> FeaturePrecision {
        self.precision
    }

    /// Total resident slot bytes across all levels, at the configured
    /// precision (what f16 halves).
    pub fn resident_bytes(&self) -> usize {
        self.gpu_shards
            .iter()
            .chain(self.cpu_shard.iter())
            .map(Shard::buffer_bytes)
            .sum()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.totals
    }

    /// Drop `keys` from every cache level (the owning GPU shard by mod,
    /// plus the CPU level). Called by the ingest path after a feature
    /// update commits at the store, so stale rows can never be served
    /// again. Returns the number of resident rows actually dropped
    /// (counted per level, like hits are), and folds the same count into
    /// the engine totals and the `cache.engine.invalidations` counter.
    pub fn invalidate(&mut self, keys: &[NodeId]) -> u64 {
        let mut dropped = 0u64;
        for &v in keys {
            let shard_id = (v as usize) % self.num_gpus;
            if self.gpu_shards[shard_id].policy.remove(v).is_some() {
                dropped += 1;
            }
            if let Some(cpu) = self.cpu_shard.as_mut() {
                if cpu.policy.remove(v).is_some() {
                    dropped += 1;
                }
            }
        }
        let stats = CacheStats { invalidations: dropped, ..Default::default() };
        self.totals.merge(&stats);
        self.metrics.record(&stats);
        dropped
    }

    /// Fetch the features for `nodes` on behalf of GPU `worker`. Missing
    /// rows are pulled through `source`, which receives the missing node
    /// IDs and must return their rows in order (`missing.len() × dim`).
    pub fn fetch_batch(
        &mut self,
        worker: usize,
        nodes: &[NodeId],
        source: &mut dyn FnMut(&[NodeId]) -> Vec<f32>,
    ) -> FetchResult {
        let pending = self.lookup_batch(worker, nodes);
        let rows = if pending.missing_keys.is_empty() {
            FeatureBlock::new(self.dim, 0)
        } else {
            FeatureBlock::from_rows(self.dim, source(&pending.missing_keys))
        };
        self.complete_batch(pending, &rows)
    }

    /// First half of [`FeatureCacheEngine::fetch_batch`]: serve `nodes` from
    /// the GPU and CPU levels, recording which unique keys missed. The
    /// returned [`PendingFetch`] must be finished with
    /// [`FeatureCacheEngine::complete_batch`]; nothing is folded into the
    /// engine totals until then.
    pub fn lookup_batch(&mut self, worker: usize, nodes: &[NodeId]) -> PendingFetch {
        assert!(worker < self.num_gpus, "worker {} out of range", worker);
        let dim = self.dim;
        let mut out = vec![0.0f32; nodes.len() * dim];
        let mut stats = CacheStats { batches: 1, ..Default::default() };
        // Sampled mini-batches contain duplicate node IDs; each unique
        // missing key must be fetched from `source` and counted exactly
        // once, with the one row fanned out to every position it fills.
        let mut missing_keys: Vec<NodeId> = Vec::new();
        let mut missing_pos: Vec<Vec<usize>> = Vec::new();
        let mut miss_index: IdMap<usize> = IdMap::default();
        let mut gpu_lookups = 0u64;
        let mut gpu_hits = 0u64;
        let mut gpu_inserts = 0u64;

        for (i, &v) in nodes.iter().enumerate() {
            let shard_id = (v as usize) % self.num_gpus;
            gpu_lookups += 1;
            if let Some(slot) = self.gpu_shards[shard_id].policy.lookup(v) {
                gpu_hits += 1;
                if shard_id == worker {
                    stats.gpu_local_hits += 1;
                } else {
                    stats.gpu_peer_hits += 1;
                }
                self.gpu_shards[shard_id].slot(slot).widen_into(&mut out[i * dim..(i + 1) * dim]);
                continue;
            }
            // GPU miss: try the CPU level. The slot is widened straight into
            // the batch buffer and promoted to the GPU shard as stored —
            // the two levels share a precision, so promotion copies bits.
            if let Some(cpu) = self.cpu_shard.as_mut() {
                if let Some(slot) = cpu.policy.lookup(v) {
                    stats.cpu_hits += 1;
                    let row = cpu.slot(slot);
                    row.widen_into(&mut out[i * dim..(i + 1) * dim]);
                    if self.gpu_shards[shard_id].admit(v, row) {
                        gpu_inserts += 1;
                    }
                    continue;
                }
            }
            let idx = *miss_index.entry(v).or_insert_with(|| {
                missing_keys.push(v);
                missing_pos.push(Vec::new());
                missing_keys.len() - 1
            });
            missing_pos[idx].push(i);
        }

        PendingFetch {
            features: out,
            missing_keys,
            missing_pos,
            stats,
            gpu_lookups,
            gpu_hits,
            gpu_inserts,
        }
    }

    /// Second half of [`FeatureCacheEngine::fetch_batch`]: fan the fetched
    /// `rows` (one per [`PendingFetch::missing_keys`] entry, in order) out
    /// to every position they fill, admit them into both levels, and fold
    /// the batch's counters into the engine totals. The rows arrive as a
    /// [`FeatureBlock`], so decoded transport buffers are referenced in
    /// place rather than re-gathered into a flat `Vec`: each missed row is
    /// widened once, into the batch buffer, and admitted to the GPU and CPU
    /// slots as stored — a bit copy when the fetch and the cache share a
    /// precision.
    pub fn complete_batch(&mut self, pending: PendingFetch, rows: &FeatureBlock) -> FetchResult {
        let dim = self.dim;
        let PendingFetch {
            features: mut out,
            missing_keys,
            missing_pos,
            mut stats,
            gpu_lookups,
            gpu_hits,
            mut gpu_inserts,
        } = pending;

        if !missing_keys.is_empty() {
            assert_eq!(rows.dim(), dim, "source block has the wrong dim");
            assert_eq!(
                rows.len(),
                missing_keys.len(),
                "source returned wrong row count"
            );
            stats.misses += missing_keys.len() as u64;
            stats.miss_bytes +=
                (missing_keys.len() * dim * self.precision.bytes_per_scalar()) as u64;
            for (j, &v) in missing_keys.iter().enumerate() {
                let row = rows.stored_row(j);
                let (&first, repeats) =
                    missing_pos[j].split_first().expect("a missing key fills a position");
                row.widen_into(&mut out[first * dim..(first + 1) * dim]);
                for &i in repeats {
                    out.copy_within(first * dim..(first + 1) * dim, i * dim);
                }
                let shard_id = (v as usize) % self.num_gpus;
                if self.gpu_shards[shard_id].admit(v, row) {
                    gpu_inserts += 1;
                }
                if let Some(cpu) = self.cpu_shard.as_mut() {
                    cpu.admit(v, row);
                }
            }
        }

        stats.overhead_ns = self
            .gpu_cost
            .batch_cost_ns(gpu_lookups, gpu_hits, gpu_inserts);
        self.totals.merge(&stats);
        self.metrics.record(&stats);
        FetchResult { features: out, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(n: usize, dim: usize) -> FeatureStore {
        let mut f = FeatureStore::zeros(n, dim);
        for v in 0..n as NodeId {
            for (j, x) in f.row_mut(v).iter_mut().enumerate() {
                *x = v as f32 * 100.0 + j as f32;
            }
        }
        f
    }

    fn store_source(f: &FeatureStore) -> impl FnMut(&[NodeId]) -> Vec<f32> + '_ {
        move |ids: &[NodeId]| f.gather(ids)
    }

    #[test]
    fn returns_correct_features_cold() {
        let f = features(100, 4);
        let mut eng = FeatureCacheEngine::new(2, 4, 10, 0, PolicyKind::Fifo, &[]);
        let mut src = store_source(&f);
        let res = eng.fetch_batch(0, &[3, 7, 42], &mut src);
        assert_eq!(&res.features[0..4], f.row(3));
        assert_eq!(&res.features[4..8], f.row(7));
        assert_eq!(&res.features[8..12], f.row(42));
        assert_eq!(res.stats.misses, 3);
    }

    #[test]
    fn second_fetch_hits() {
        let f = features(100, 4);
        let mut eng = FeatureCacheEngine::new(2, 4, 10, 0, PolicyKind::Fifo, &[]);
        let mut src = store_source(&f);
        eng.fetch_batch(0, &[3, 7, 42], &mut src);
        let res = eng.fetch_batch(0, &[3, 7, 42], &mut src);
        assert_eq!(res.stats.misses, 0);
        assert_eq!(res.stats.gpu_local_hits + res.stats.gpu_peer_hits, 3);
        assert_eq!(&res.features[0..4], f.row(3));
    }

    #[test]
    fn peer_hits_counted_for_other_shards() {
        let f = features(100, 2);
        let mut eng = FeatureCacheEngine::new(4, 2, 10, 0, PolicyKind::Fifo, &[]);
        let mut src = store_source(&f);
        // Node 5 belongs to shard 1; query from worker 0.
        eng.fetch_batch(0, &[5], &mut src);
        let res = eng.fetch_batch(0, &[5], &mut src);
        assert_eq!(res.stats.gpu_peer_hits, 1);
        assert_eq!(res.stats.gpu_local_hits, 0);
        // From worker 1 it is a local hit.
        let res = eng.fetch_batch(1, &[5], &mut src);
        assert_eq!(res.stats.gpu_local_hits, 1);
    }

    #[test]
    fn cpu_level_catches_gpu_evictions() {
        let f = features(100, 2);
        // Tiny GPU (2 slots/shard), big CPU level.
        let mut eng = FeatureCacheEngine::new(1, 2, 2, 50, PolicyKind::Fifo, &[]);
        let mut src = store_source(&f);
        eng.fetch_batch(0, &[1, 2, 3, 4], &mut src); // 1,2 evicted from GPU
        let res = eng.fetch_batch(0, &[1, 2], &mut src);
        assert_eq!(res.stats.misses, 0, "CPU level should hold evictees");
        assert_eq!(res.stats.cpu_hits, 2);
        assert_eq!(&res.features[0..2], f.row(1));
    }

    #[test]
    fn static_policy_serves_prefilled_only() {
        let f = features(100, 2);
        let hot: Vec<NodeId> = vec![10, 11, 12, 13];
        let mut eng =
            FeatureCacheEngine::new(2, 2, 2, 0, PolicyKind::StaticDegree, &hot);
        eng.warm(&f);
        let mut src = store_source(&f);
        let res = eng.fetch_batch(0, &[10, 11, 50], &mut src);
        assert_eq!(res.stats.misses, 1);
        assert_eq!(res.stats.gpu_local_hits + res.stats.gpu_peer_hits, 2);
        assert_eq!(&res.features[0..2], f.row(10));
        assert_eq!(&res.features[4..6], f.row(50));
        // 50 was not admitted: same query misses again.
        let res = eng.fetch_batch(0, &[50], &mut src);
        assert_eq!(res.stats.misses, 1);
    }

    #[test]
    fn no_duplication_across_shards() {
        let f = features(100, 2);
        let mut eng = FeatureCacheEngine::new(4, 2, 10, 0, PolicyKind::Fifo, &[]);
        let mut src = store_source(&f);
        eng.fetch_batch(0, &(0..40).collect::<Vec<_>>(), &mut src);
        // Each shard may only contain keys it owns by mod.
        for (g, shard) in eng.gpu_shards.iter().enumerate() {
            for v in 0..100u32 {
                if shard.policy.contains(v) {
                    assert_eq!((v as usize) % 4, g, "shard {} holds foreign key {}", g, v);
                }
            }
        }
    }

    #[test]
    fn overhead_accumulates_per_model() {
        let f = features(100, 2);
        let mut eng = FeatureCacheEngine::new(1, 2, 10, 0, PolicyKind::Lru, &[]);
        let mut src = store_source(&f);
        let r1 = eng.fetch_batch(0, &[1, 2, 3], &mut src);
        assert!(r1.stats.overhead_ns > 0);
        assert_eq!(eng.stats().batches, 1);
    }

    #[test]
    fn duplicate_keys_fetch_source_once_per_unique_key() {
        let f = features(100, 4);
        let mut eng = FeatureCacheEngine::new(2, 4, 10, 0, PolicyKind::Fifo, &[]);
        let mut fetched: Vec<NodeId> = Vec::new();
        let mut src = |ids: &[NodeId]| {
            fetched.extend_from_slice(ids);
            f.gather(ids)
        };
        let batch: Vec<NodeId> = vec![3, 7, 3, 42, 7, 3];
        let res = eng.fetch_batch(0, &batch, &mut src);
        // Every position gets the right row, duplicates included.
        for (i, &v) in batch.iter().enumerate() {
            assert_eq!(&res.features[i * 4..(i + 1) * 4], f.row(v));
        }
        fetched.sort_unstable();
        assert_eq!(fetched, vec![3, 7, 42], "one source fetch per unique key");
        assert_eq!(res.stats.misses, 3, "misses counted once per unique key");
        assert_eq!(res.stats.miss_bytes, 3 * 4 * 4);
    }

    #[test]
    fn attached_registry_mirrors_every_stats_field() {
        let f = features(100, 4);
        let reg = bgl_obs::Registry::enabled();
        let mut eng = FeatureCacheEngine::new(2, 4, 10, 0, PolicyKind::Fifo, &[]);
        eng.attach_metrics(&reg);
        let mut src = store_source(&f);
        eng.fetch_batch(0, &[3, 7, 42], &mut src);
        eng.fetch_batch(0, &[3, 7, 42], &mut src);
        eng.invalidate(&[7]);
        assert!(eng.stats().misses > 0 && eng.stats().invalidations > 0);
        let counters: std::collections::BTreeMap<_, _> = reg.counters().into_iter().collect();
        for (field, value) in CacheStats::FIELDS.iter().zip(eng.stats().to_array()) {
            assert_eq!(counters[&format!("cache.engine.{field}")], value, "{field}");
        }
    }

    #[test]
    fn miss_bytes_accounted() {
        let f = features(100, 8);
        let mut eng = FeatureCacheEngine::new(1, 8, 4, 0, PolicyKind::Fifo, &[]);
        let mut src = store_source(&f);
        let res = eng.fetch_batch(0, &[1, 2], &mut src);
        assert_eq!(res.stats.miss_bytes, 2 * 8 * 4);
    }

    #[test]
    fn f16_slots_halve_resident_bytes_and_serve_quantized_rows() {
        let f = features(100, 4);
        let mut eng32 = FeatureCacheEngine::new(2, 4, 10, 5, PolicyKind::Fifo, &[]);
        let mut eng16 = FeatureCacheEngine::with_precision(
            2,
            4,
            10,
            5,
            PolicyKind::Fifo,
            &[],
            bgl_graph::FeaturePrecision::F16,
        );
        assert_eq!(eng16.resident_bytes() * 2, eng32.resident_bytes());
        let mut src = store_source(&f);
        // Integers below 2048 are exact in f16, so these rows roundtrip.
        eng16.fetch_batch(0, &[3, 7], &mut src);
        let res = eng16.fetch_batch(0, &[3, 7], &mut src);
        assert_eq!(res.stats.misses, 0);
        assert_eq!(&res.features[0..4], f.row(3));
        assert_eq!(&res.features[4..8], f.row(7));
        // Miss traffic is charged at wire precision: half the f32 bytes.
        let r32 = eng32.fetch_batch(0, &[9], &mut store_source(&f));
        let r16 = eng16.fetch_batch(0, &[9], &mut store_source(&f));
        assert_eq!(r16.stats.miss_bytes * 2, r32.stats.miss_bytes);
    }

    #[test]
    fn invalidate_forces_refetch_of_fresh_rows() {
        let mut f = features(100, 4);
        let mut eng = FeatureCacheEngine::new(2, 4, 10, 10, PolicyKind::Lru, &[]);
        let res = eng.fetch_batch(0, &[3, 7], &mut store_source(&f));
        assert_eq!(res.stats.misses, 2);
        // Update node 3's features at the store, then invalidate it.
        for x in f.row_mut(3) {
            *x += 1000.0;
        }
        // Dropped from its GPU shard and from the CPU level.
        assert_eq!(eng.invalidate(&[3]), 2);
        assert_eq!(eng.stats().invalidations, 2);
        let res = eng.fetch_batch(0, &[3, 7], &mut store_source(&f));
        assert_eq!(res.stats.misses, 1, "3 must refetch, 7 still resident");
        assert_eq!(&res.features[0..4], f.row(3), "fresh row served");
        // Unknown keys are a no-op.
        assert_eq!(eng.invalidate(&[99]), 0);
    }

    #[test]
    fn split_fetch_with_feature_block_matches_closure_path() {
        use bgl_graph::FeatureBlock;
        let f = features(100, 4);
        let mut eng = FeatureCacheEngine::new(2, 4, 10, 0, PolicyKind::Fifo, &[]);
        let pending = eng.lookup_batch(0, &[3, 7, 3, 42]);
        assert_eq!(pending.missing_keys(), &[3, 7, 42]);
        // Build the block the way the cluster does: adopt the transport
        // buffer and place rows by index, no per-row copies.
        let mut block = FeatureBlock::new(4, 3);
        let seg = block.adopt_segment(f.gather(pending.missing_keys()));
        for j in 0..3 {
            block.place(j, seg, j);
        }
        let res = eng.complete_batch(pending, &block);
        assert_eq!(&res.features[0..4], f.row(3));
        assert_eq!(&res.features[4..8], f.row(7));
        assert_eq!(&res.features[8..12], f.row(3));
        assert_eq!(&res.features[12..16], f.row(42));
        assert_eq!(res.stats.misses, 3);
    }
}
