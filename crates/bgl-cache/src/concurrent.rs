//! Lock-free shard consistency (paper §3.2.3).
//!
//! Multiple GPU workers query the same shards concurrently. Locking each
//! shard means CUDA-level synchronization per operation — the paper found a
//! queue design 8x cheaper: *all* operations for a shard (queries and
//! updates) are enqueued, and a single processing thread per shard is the
//! only code that ever touches the shard's map and buffer. This module
//! implements exactly that with `std::sync::mpsc` channels — every queue
//! has one consumer, the shard's owner thread, which is all mpsc offers
//! and all the design needs.
//!
//! Each batch deduplicates its keys first, so every unique key counts as
//! exactly one hit or one miss and `source` is called once per unique
//! missing key. Every shard's reply is collected before any miss is
//! resolved, so one slow miss resolution never blocks reading the other
//! shards' already-computed replies. The single-threaded
//! [`crate::FeatureCacheEngine`] over the same [`Shard`]s is the reference
//! the tests below hold rows, misses and invalidations against.

use crate::policy::PolicyKind;
use crate::stats::CacheStats;
use bgl_graph::hash::IdMap;
use bgl_graph::NodeId;
use bgl_obs::{AtomicLedger, Mirror};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::engine::Shard;
use bgl_graph::half::RowRef;
use bgl_graph::FeaturePrecision;

/// Lock the metrics publisher; poison means a publishing thread panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a thread panicked while holding this cache lock")
}

/// Collapse `nodes` to unique keys, remembering every original position of
/// each key: returns `(keys, positions)` with `positions[u]` listing the
/// indices of `nodes` that `keys[u]` fills.
fn dedup_keys(nodes: &[NodeId]) -> (Vec<NodeId>, Vec<Vec<usize>>) {
    let mut keys: Vec<NodeId> = Vec::new();
    let mut positions: Vec<Vec<usize>> = Vec::new();
    let mut index: IdMap<usize> = IdMap::default();
    for (i, &v) in nodes.iter().enumerate() {
        let u = *index.entry(v).or_insert_with(|| {
            keys.push(v);
            positions.push(Vec::new());
            keys.len() - 1
        });
        positions[u].push(i);
    }
    (keys, positions)
}

/// Reply to a query op: hit rows gathered in query order, plus the indices
/// (into the queried keys) that missed.
pub struct QueryReply {
    pub hits: Vec<(usize, Vec<f32>)>,
    pub missing: Vec<usize>,
}

enum CacheOp {
    Query {
        keys: Vec<NodeId>,
        reply: Sender<QueryReply>,
    },
    Insert {
        keys: Vec<NodeId>,
        rows: Vec<f32>,
        done: Sender<()>,
    },
    /// Drop resident keys; replies with how many were actually dropped.
    Invalidate {
        keys: Vec<NodeId>,
        dropped: Sender<u64>,
    },
    Stop,
}

/// Queue-based sharded cache: one owner thread per shard polls an op queue;
/// no locks anywhere on the data path.
pub struct QueueShardedCache {
    senders: Vec<Sender<CacheOp>>,
    handles: Vec<JoinHandle<()>>,
    num_shards: usize,
    dim: usize,
    shared: Arc<AtomicLedger<CacheStats>>,
    metrics: Mutex<Mirror<CacheStats>>,
}

impl QueueShardedCache {
    /// Spawn `num_shards` owner threads, each with `capacity` slots.
    pub fn new(num_shards: usize, dim: usize, capacity: usize, kind: PolicyKind) -> Self {
        assert!(num_shards >= 1 && dim >= 1);
        let shared = Arc::new(AtomicLedger::<CacheStats>::default());
        let mut senders = Vec::with_capacity(num_shards);
        let mut handles = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let (tx, rx) = channel::<CacheOp>();
            let shared = Arc::clone(&shared);
            let handle = std::thread::spawn(move || {
                let mut shard = Shard::new(kind, capacity, dim, &[], FeaturePrecision::F32);
                while let Ok(op) = rx.recv() {
                    match op {
                        CacheOp::Query { keys, reply } => {
                            let mut delta = CacheStats::default();
                            let mut hits = Vec::new();
                            let mut missing = Vec::new();
                            for (i, &k) in keys.iter().enumerate() {
                                match shard.policy.lookup(k) {
                                    Some(slot) => {
                                        delta.gpu_local_hits += 1;
                                        let mut row = vec![0.0f32; dim];
                                        shard.slot(slot).widen_into(&mut row);
                                        hits.push((i, row));
                                    }
                                    None => {
                                        delta.misses += 1;
                                        missing.push(i);
                                    }
                                }
                            }
                            shared.add(&delta);
                            let _ = reply.send(QueryReply { hits, missing });
                        }
                        CacheOp::Insert { keys, rows, done } => {
                            for (j, &k) in keys.iter().enumerate() {
                                shard.admit(k, RowRef::F32(&rows[j * dim..(j + 1) * dim]));
                            }
                            let _ = done.send(());
                        }
                        CacheOp::Invalidate { keys, dropped } => {
                            let mut n = 0u64;
                            for &k in &keys {
                                if shard.policy.remove(k).is_some() {
                                    n += 1;
                                }
                            }
                            shared.add(&CacheStats {
                                invalidations: n,
                                ..Default::default()
                            });
                            let _ = dropped.send(n);
                        }
                        CacheOp::Stop => break,
                    }
                }
            });
            senders.push(tx);
            handles.push(handle);
        }
        QueueShardedCache {
            senders,
            handles,
            num_shards,
            dim,
            shared,
            metrics: Mutex::new(Mirror::default()),
        }
    }

    /// Mirror this cache's counters into `reg` under `cache.queue.*`.
    pub fn attach_metrics(&self, reg: &bgl_obs::Registry) {
        *lock(&self.metrics) = Mirror::attach(reg, "cache.queue");
    }

    fn publish_metrics(&self) {
        lock(&self.metrics).publish(&self.shared.snapshot());
    }

    /// Stop the owner threads and return the final statistics.
    pub fn shutdown(self) -> CacheStats {
        for tx in &self.senders {
            let _ = tx.send(CacheOp::Stop);
        }
        for h in self.handles {
            h.join().expect("shard thread panicked");
        }
        let total = self.shared.snapshot();
        lock(&self.metrics).publish(&total);
        total
    }

    /// Fetch features for `nodes` (duplicates allowed); misses are resolved
    /// through `source` — called once per batch with every unique missing
    /// key — and the fetched rows are inserted back. Safe to call from
    /// multiple threads concurrently.
    pub fn fetch_batch(
        &self,
        nodes: &[NodeId],
        source: &mut dyn FnMut(&[NodeId]) -> Vec<f32>,
    ) -> Vec<f32> {
        let start = Instant::now();
        let dim = self.dim;
        let mut out = vec![0.0f32; nodes.len() * dim];
        let (keys, positions) = dedup_keys(nodes);
        // Split unique keys by owning shard, remembering unique indices.
        let mut per_shard: Vec<(Vec<usize>, Vec<NodeId>)> =
            vec![(Vec::new(), Vec::new()); self.num_shards];
        for (u, &v) in keys.iter().enumerate() {
            let s = (v as usize) % self.num_shards;
            per_shard[s].0.push(u);
            per_shard[s].1.push(v);
        }
        // Fan out queries to every shard.
        let mut pending = Vec::new();
        for (s, (uniques, skeys)) in per_shard.iter().enumerate() {
            if skeys.is_empty() {
                continue;
            }
            let (rtx, rrx) = channel();
            self.senders[s]
                .send(CacheOp::Query { keys: skeys.clone(), reply: rtx })
                .expect("shard thread alive");
            pending.push((s, uniques, skeys, rrx));
        }
        // Pass 1: collect *all* replies, filling hits, before touching
        // `source` — no shard's reply waits behind another's miss
        // resolution.
        let mut shard_misses: Vec<(usize, Vec<NodeId>, Vec<usize>)> = Vec::new();
        for (s, uniques, skeys, rrx) in pending {
            let reply = rrx.recv().expect("shard reply");
            for (local_i, row) in reply.hits {
                for &pos in &positions[uniques[local_i]] {
                    out[pos * dim..(pos + 1) * dim].copy_from_slice(&row);
                }
            }
            if !reply.missing.is_empty() {
                let miss_keys: Vec<NodeId> =
                    reply.missing.iter().map(|&i| skeys[i]).collect();
                let miss_uniques: Vec<usize> =
                    reply.missing.iter().map(|&i| uniques[i]).collect();
                shard_misses.push((s, miss_keys, miss_uniques));
            }
        }
        // Pass 2: one source call for every missing unique key, then fan
        // the rows back out and insert them into their owning shards.
        if !shard_misses.is_empty() {
            let all_missing: Vec<NodeId> = shard_misses
                .iter()
                .flat_map(|(_, keys, _)| keys.iter().copied())
                .collect();
            let rows = source(&all_missing);
            assert_eq!(rows.len(), all_missing.len() * dim);
            self.shared.add(&CacheStats {
                miss_bytes: (rows.len() * std::mem::size_of::<f32>()) as u64,
                ..Default::default()
            });
            let mut insert_acks = Vec::new();
            let mut offset = 0usize;
            for (s, miss_keys, miss_uniques) in &shard_misses {
                let seg = &rows[offset * dim..(offset + miss_keys.len()) * dim];
                for (j, &u) in miss_uniques.iter().enumerate() {
                    let row = &seg[j * dim..(j + 1) * dim];
                    for &pos in &positions[u] {
                        out[pos * dim..(pos + 1) * dim].copy_from_slice(row);
                    }
                }
                let (dtx, drx) = channel();
                self.senders[*s]
                    .send(CacheOp::Insert {
                        keys: miss_keys.clone(),
                        rows: seg.to_vec(),
                        done: dtx,
                    })
                    .expect("shard thread alive");
                insert_acks.push(drx);
                offset += miss_keys.len();
            }
            for ack in insert_acks {
                let _ = ack.recv();
            }
        }
        self.shared.add(&CacheStats {
            batches: 1,
            overhead_ns: start.elapsed().as_nanos() as u64,
            ..Default::default()
        });
        self.publish_metrics();
        out
    }

    /// Point-in-time counters (safe to call mid-run).
    pub fn stats(&self) -> CacheStats {
        self.shared.snapshot()
    }

    /// Drop `keys` from their owning shards (ingest-driven coherence).
    /// Returns the number of resident rows actually dropped, which is also
    /// the `invalidations` delta folded into the stats.
    pub fn invalidate(&self, keys: &[NodeId]) -> u64 {
        // Fan keys out to their owner threads; the op runs in queue order,
        // so an invalidate enqueued after an insert is guaranteed to see
        // it (the ordering the ingest path relies on).
        let mut per_shard: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_shards];
        for &v in keys {
            per_shard[(v as usize) % self.num_shards].push(v);
        }
        let mut acks = Vec::new();
        for (s, skeys) in per_shard.into_iter().enumerate() {
            if skeys.is_empty() {
                continue;
            }
            let (dtx, drx) = channel();
            self.senders[s]
                .send(CacheOp::Invalidate { keys: skeys, dropped: dtx })
                .expect("shard thread alive");
            acks.push(drx);
        }
        let dropped = acks.into_iter().map(|rx| rx.recv().unwrap_or(0)).sum();
        self.publish_metrics();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureCacheEngine;
    use bgl_graph::FeatureStore;
    use bgl_obs::Ledger;

    fn features(n: usize, dim: usize) -> FeatureStore {
        let mut f = FeatureStore::zeros(n, dim);
        for v in 0..n as NodeId {
            for (j, x) in f.row_mut(v).iter_mut().enumerate() {
                *x = v as f32 * 10.0 + j as f32;
            }
        }
        f
    }

    /// The reference: the single-threaded engine over the same `Shard`s —
    /// one GPU shard per queue shard, no CPU level.
    fn reference(shards: usize, dim: usize, capacity: usize) -> FeatureCacheEngine {
        FeatureCacheEngine::new(shards, dim, capacity, 0, PolicyKind::Fifo, &[])
    }

    #[test]
    fn queue_cache_round_trip() {
        let f = features(64, 3);
        let cache = QueueShardedCache::new(2, 3, 16, PolicyKind::Fifo);
        let mut src = |ids: &[NodeId]| f.gather(ids);
        let out1 = cache.fetch_batch(&[1, 2, 3, 40], &mut src);
        assert_eq!(&out1[0..3], f.row(1));
        assert_eq!(&out1[9..12], f.row(40));
        // Second fetch: all hits.
        let mut src_count = 0usize;
        let mut counting = |ids: &[NodeId]| {
            src_count += ids.len();
            f.gather(ids)
        };
        let out2 = cache.fetch_batch(&[1, 2, 3, 40], &mut counting);
        assert_eq!(out1, out2);
        assert_eq!(src_count, 0, "second fetch should be all hits");
        let mid = cache.stats();
        assert_eq!(mid.misses, 4);
        assert_eq!(mid.gpu_local_hits, 4);
        assert_eq!(mid.batches, 2);
        let stats = cache.shutdown();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.gpu_local_hits, 4);
        assert_eq!(stats.miss_bytes, 4 * 3 * 4);
    }

    #[test]
    fn queue_cache_concurrent_callers() {
        let f = Arc::new(features(256, 2));
        let cache = Arc::new(QueueShardedCache::new(4, 2, 64, PolicyKind::Fifo));
        let mut joins = Vec::new();
        for t in 0..4 {
            let f = f.clone();
            let cache = cache.clone();
            joins.push(std::thread::spawn(move || {
                let ids: Vec<NodeId> = (t * 32..(t + 1) * 32).collect();
                let mut src = |q: &[NodeId]| f.gather(q);
                for _ in 0..10 {
                    let out = cache.fetch_batch(&ids, &mut src);
                    for (i, &v) in ids.iter().enumerate() {
                        assert_eq!(&out[i * 2..(i + 1) * 2], f.row(v));
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 128, "each key misses exactly once");
        assert_eq!(stats.total(), 4 * 32 * 10);
    }

    #[test]
    fn duplicate_keys_fetch_source_once_per_unique_key() {
        let f = features(64, 2);
        // Same batch with heavy duplication.
        let batch: Vec<NodeId> = vec![7, 7, 9, 7, 9, 12];
        let cache = QueueShardedCache::new(2, 2, 16, PolicyKind::Fifo);
        let mut fetched: Vec<NodeId> = Vec::new();
        let mut src = |ids: &[NodeId]| {
            fetched.extend_from_slice(ids);
            f.gather(ids)
        };
        let out = cache.fetch_batch(&batch, &mut src);
        // Every position filled with the right row, duplicates included.
        for (i, &v) in batch.iter().enumerate() {
            assert_eq!(&out[i * 2..(i + 1) * 2], f.row(v));
        }
        fetched.sort_unstable();
        assert_eq!(fetched, vec![7, 9, 12], "one source fetch per unique key");
        let stats = cache.stats();
        assert_eq!(stats.misses, 3, "misses counted once per unique key");
        assert_eq!(stats.miss_bytes, 3 * 2 * 4);
        // The same batch again, now all hits: every duplicate position is
        // still filled, and a hit counts once per unique key.
        let out = cache.fetch_batch(&batch, &mut |_: &[NodeId]| unreachable!("all resident"));
        for (i, &v) in batch.iter().enumerate() {
            assert_eq!(&out[i * 2..(i + 1) * 2], f.row(v), "position {i}");
        }
        let stats = cache.stats();
        assert_eq!(stats.gpu_local_hits, 3, "hits counted once per unique key");
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn queue_agrees_with_the_engine_on_identical_trace() {
        let f = features(128, 2);
        let queue = QueueShardedCache::new(4, 2, 8, PolicyKind::Fifo);
        let mut engine = reference(4, 2, 8);
        // Single-threaded replay of the same batch sequence (with repeats
        // and duplicates) through both. Duplicates fall on a key that
        // misses (1, 100..110) and on one that hits (34, resident since
        // the second batch): rows must agree at every position.
        let trace: Vec<Vec<NodeId>> = vec![
            (0..32).collect(),
            (16..48).collect(),
            vec![1, 1, 2, 3, 5, 8, 13, 21, 34, 34],
            (0..32).collect(),
            (100..120).chain(100..110).collect(),
        ];
        // The engine counts a hit per position, the queue per unique key.
        let duplicate_hit_positions = 1;
        for batch in &trace {
            let mut src = |ids: &[NodeId]| f.gather(ids);
            let out_q = queue.fetch_batch(batch, &mut src);
            let out_e = engine.fetch_batch(0, batch, &mut src).features;
            assert_eq!(out_q, out_e);
        }
        let sq = queue.stats();
        let se = engine.stats();
        assert_eq!(sq.misses, se.misses, "miss totals must match");
        assert_eq!(
            sq.gpu_local_hits,
            se.gpu_local_hits + se.gpu_peer_hits - duplicate_hit_positions,
            "hit totals must match"
        );
        assert_eq!(sq.miss_bytes, se.miss_bytes);
        assert_eq!(sq.batches, se.batches);
        assert!(sq.misses > 0 && sq.gpu_local_hits > 0, "trace exercises both");
    }

    #[test]
    fn invalidate_updates_stats_like_the_engine() {
        let f = features(128, 2);
        let queue = QueueShardedCache::new(4, 2, 32, PolicyKind::Fifo);
        let mut engine = reference(4, 2, 32);
        // Same trace through both: load, invalidate (resident, absent and
        // duplicate keys mixed), then refetch the invalidated keys.
        let load: Vec<NodeId> = (0..24).collect();
        let kill: Vec<NodeId> = vec![3, 3, 7, 11, 200, 201];
        let mut src = |ids: &[NodeId]| f.gather(ids);
        queue.fetch_batch(&load, &mut src);
        engine.fetch_batch(0, &load, &mut src);
        // 3 drops twice? No — the second 3 is already gone, so exactly
        // three resident keys drop; absent keys are no-ops.
        assert_eq!(queue.invalidate(&kill), 3);
        assert_eq!(engine.invalidate(&kill), 3);
        let out = queue.fetch_batch(&[3, 7, 11], &mut src);
        assert_eq!(&out[0..2], f.row(3), "fresh fetch after invalidate");
        assert_eq!(out, engine.fetch_batch(0, &[3, 7, 11], &mut src).features);
        let sq = queue.stats();
        let se = engine.stats();
        assert_eq!(sq.invalidations, 3);
        assert_eq!(sq.invalidations, se.invalidations, "invalidation parity");
        assert_eq!(sq.misses, se.misses, "invalidated keys re-miss identically");
        assert_eq!(sq.gpu_local_hits, se.gpu_local_hits + se.gpu_peer_hits);
        assert_eq!(sq.miss_bytes, se.miss_bytes);
        assert_eq!(sq.batches, se.batches);
    }

    #[test]
    fn attached_registry_mirrors_every_stats_field() {
        let f = features(64, 2);
        let reg = bgl_obs::Registry::enabled();
        let queue = QueueShardedCache::new(2, 2, 16, PolicyKind::Fifo);
        queue.attach_metrics(&reg);
        let mut src = |ids: &[NodeId]| f.gather(ids);
        queue.fetch_batch(&[1, 2, 3, 4], &mut src);
        queue.fetch_batch(&[1, 2, 3], &mut src);
        assert_eq!(queue.invalidate(&[2, 4, 50]), 2);
        let stats = queue.shutdown();
        assert!(stats.misses > 0 && stats.gpu_local_hits > 0);
        let counters: std::collections::BTreeMap<_, _> = reg.counters().into_iter().collect();
        for (field, value) in CacheStats::FIELDS.iter().zip(stats.to_array()) {
            assert_eq!(counters[&format!("cache.queue.{field}")], value, "cache.queue.{field}");
        }
    }
}
