//! # bgl-graph — graph substrate for the BGL reproduction
//!
//! This crate provides the graph data structures and synthetic workload
//! generators that every other crate in the workspace builds on:
//!
//! * [`Csr`] — compressed-sparse-row adjacency, the canonical immutable
//!   graph representation used by samplers, partitioners and the store.
//! * [`GraphBuilder`] — edge-list accumulator that deduplicates, sorts and
//!   freezes into a [`Csr`].
//! * [`DynamicGraph`] — append-capable adjacency for streaming ingestion:
//!   an immutable [`Csr`] base plus a sorted per-node delta, periodically
//!   compacted back into a fresh base.
//! * [`generate`] — the power-law planted-partition and bipartite
//!   generators that synthesize stand-ins for the paper's datasets
//!   (Ogbn-products, Ogbn-papers and the proprietary User-Item graph), and
//!   the R-MAT / Barabási–Albert / Erdős–Rényi / community graphs the
//!   workspace's tests use as fixtures.
//! * [`FeatureStore`] — dense `f32` node-feature matrix with
//!   class-correlated synthetic feature generation so that the GNN models in
//!   `bgl-gnn` have real signal to learn.
//! * [`Dataset`] / [`DatasetSpec`] — a labelled graph with train/val/test
//!   splits, mirroring Table 2 of the paper at configurable scale.
//! * [`traversal`] — full-order BFS and multi-source BFS, the primitives
//!   behind proximity-aware ordering (§3.2.2) and the BFS-coarsening
//!   partitioner (§3.3).
//! * [`half`] / [`FeaturePrecision`] — IEEE 754 binary16 row storage, which
//!   halves feature bytes on the wire, in caches and on disk, and
//!   [`half::RowBuf`], the one in-memory representation of a stored row
//!   that pages, frames, blocks and cache slots all hold.
//! * [`le`] — the one little-endian cursor every wire and disk decoder
//!   reads through, where the single length check against untrusted input
//!   lives.
//! * [`hash`] — the one FNV-1a-64 checksum and the one `mix64` integer
//!   mixer every durable format, digest and seeded draw shares.
//! * [`FeatureBlock`] — arena-backed feature rows: decoded fetch buffers are
//!   adopted as segments and referenced through to the minibatch instead of
//!   being re-copied at every hop.
//!
//! Node identifiers are `u32` ([`NodeId`]); this supports graphs up to
//! ~4.2 B nodes, enough for the 1.2 B-node User-Item graph in the paper.

pub mod block;
pub mod builder;
pub mod csr;
pub mod dataset;
pub mod dynamic;
pub mod features;
pub mod generate;
pub mod half;
pub mod hash;
pub mod le;
pub mod subgraph;
pub mod traversal;

pub use block::FeatureBlock;
pub use builder::GraphBuilder;
pub use csr::Csr;
pub use dataset::{Dataset, DatasetSpec, Split};
pub use dynamic::DynamicGraph;
pub use features::FeatureStore;
pub use half::FeaturePrecision;
pub use subgraph::{khop_neighborhood, InducedSubgraph};

/// Node identifier. `u32` keeps adjacency arrays compact while still
/// addressing the billion-node graphs the paper targets.
pub type NodeId = u32;
