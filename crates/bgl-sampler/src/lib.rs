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
//! * [`ordering`] — training-node orderings: [`ordering::RandomShuffle`]
//!   (what DGL does), [`ordering::BfsOrder`] (maximal locality, breaks
//!   i.i.d.), and [`ordering::ProximityAware`] — the paper's co-design:
//!   multiple BFS sequences, round-robin interleave, random shift;
//! * [`shuffle_error`] — the total-variation shuffling-error estimator and
//!   the `ε ≤ sqrt(bM)/n` bound of §3.2.2, as the sequence-count ablation
//!   reports them (the paper's auto-tuner is not reproduced: every run
//!   fixes the sequence count).

pub mod neighbor;
pub mod ordering;
pub mod shuffle_error;

pub use neighbor::{pick, LayerBlock, MiniBatch, NeighborSampler};
pub use ordering::{BfsOrder, ProximityAware, RandomShuffle, TrainOrdering};
