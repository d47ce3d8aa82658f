//! # bgl-cache — the dynamic feature cache engine (paper §3.2)
//!
//! Feature retrieval dominates mini-batch construction traffic (≈ 195 MB of
//! features vs 5 MB of structure per batch in the paper's running example).
//! This crate implements BGL's answer:
//!
//! * [`policy`] — the cache policies compared in Fig. 5: [`policy::Fifo`]
//!   (circular queue, the paper's choice), [`policy::LruO1`] and
//!   [`policy::LfuO1`] (O(1) implementations, as in the paper's footnote 2),
//!   and [`policy::StaticDegree`] (PaGraph's no-replacement cache preloaded
//!   with high-degree nodes);
//! * [`engine`] — the two-level multi-GPU cache (Fig. 8): per-GPU shards
//!   with disjoint key spaces (`node_id % num_gpus`), peer-to-peer hits over
//!   NVLink, a CPU cache level above, and miss fetches from the graph
//!   store;
//! * [`concurrent`] — the lock-free consistency design of §3.2.3: one
//!   processing thread per GPU shard polling an operation queue;
//! * [`cost`] — a GPU-side cost model for cache operations, calibrated to
//!   the per-batch overheads the paper reports (FIFO < 20 ms, LRU/LFU
//!   ≈ 80 ms at 10% cache on Ogbn-papers), so the Fig. 5a trade-off can be
//!   regenerated without CUDA;
//! * [`stats`] — [`CacheStats`], the one ledger both front-ends keep and
//!   callers read; `attach_metrics` on each mirrors it into the registry
//!   under `cache.{engine,queue}.*` through `bgl_obs::Mirror`.

pub mod concurrent;
pub mod cost;
pub mod engine;
pub mod policy;
pub mod stats;

pub use concurrent::QueueShardedCache;
pub use engine::{FeatureCacheEngine, FetchResult, PendingFetch};
pub use policy::{CachePolicy, Fifo, LfuO1, LruO1, PolicyKind, StaticDegree};
pub use stats::CacheStats;
