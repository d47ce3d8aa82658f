//! # bgl-sampler — subgraph samplers and training-node orderings
//!
//! The first stage of sampling-based GNN training (paper §2.1): given a
//! batch of training nodes, sample their multi-hop neighborhoods into
//! message-flow blocks; and — BGL's algorithmic contribution (§3.2.2) —
//! decide the *order* in which training nodes form batches.
//!
//! * [`NeighborSampler`] — fanout-per-hop neighbor sampling (the paper's
//!   configuration: batch 1000, fanout {15, 10, 5}), producing
//!   [`MiniBatch`]es of layered [`LayerBlock`]s that `bgl-gnn` consumes
//!   directly;
//! * [`walk`] — random-walk and layer-wise samplers (footnote 5 of the
//!   paper: BGL applies to these vertex-centric samplers too);
//! * [`ordering`] — training-node orderings: [`ordering::RandomShuffle`]
//!   (what DGL does), [`ordering::BfsOrder`] (maximal locality, breaks
//!   i.i.d.), and [`ordering::ProximityAware`] — the paper's co-design:
//!   multiple BFS sequences, round-robin interleave, random shift;
//! * [`shuffle_error`] — the total-variation shuffling-error estimator and
//!   the `ε ≤ sqrt(bM)/n` sequence-count auto-tuner from §3.2.2.

pub mod neighbor;
pub mod ordering;
pub mod shuffle_error;
pub mod walk;

pub use neighbor::{pick, LayerBlock, MiniBatch, NeighborSampler};
pub use ordering::{BfsOrder, ProximityAware, RandomShuffle, TrainOrdering};
