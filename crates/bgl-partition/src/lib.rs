//! # bgl-partition — graph partitioning for distributed GNN sampling
//!
//! Implements the paper's partition algorithm (§3.3) and every baseline it
//! is compared against (Table 1, Table 3, Table 4):
//!
//! * [`RandomPartitioner`] / [`RoundRobinPartitioner`] — the
//!   locality-agnostic schemes used by Euler and (for large graphs) DGL;
//! * [`LdgPartitioner`] — Linear Deterministic Greedy streaming partitioning
//!   (one-hop locality, node balance);
//! * [`GMinerPartitioner`] — a GMiner-like connectivity-preserving scheme:
//!   BFS-grown chunks assigned by **one-hop** block locality with node
//!   balance but **no training-node balancing** (the deficit Table 3's
//!   User-Item row exposes);
//! * [`MetisLikePartitioner`] — multilevel heavy-edge-matching coarsening +
//!   greedy initial partition + boundary refinement. Like real METIS it is
//!   memory-hungry and only suitable for small graphs (Table 1);
//! * [`BglPartitioner`] — the paper's contribution: multi-source BFS block
//!   generation, multi-level small-block merging, and greedy assignment
//!   maximizing `(Σ_j |P(i) ∩ Γ^j(B)|) · (1−|P(i)|/C) · (1−|T(i)|/C_T)`,
//!   followed by uncoarsening.
//!
//! [`metrics`] quantifies what Table 3 measures indirectly: edge cut,
//! multi-hop locality of training nodes, and training-node balance.

pub mod bgl;
pub mod block_graph;
pub mod gminer;
pub mod ldg;
pub mod metis_like;
pub mod metrics;
pub mod random;

pub use bgl::{BglConfig, BglPartitioner};
pub use gminer::GMinerPartitioner;
pub use ldg::{ldg_choose, LdgPartitioner};
pub use metis_like::MetisLikePartitioner;
pub use random::{RandomPartitioner, RoundRobinPartitioner};

use bgl_graph::{Csr, NodeId};

/// A k-way node partition: `assignment[v]` is the partition index of `v`.
#[derive(Clone, Debug)]
pub struct Partition {
    pub k: usize,
    pub assignment: Vec<u32>,
}

impl Partition {
    /// Construct, validating every assignment is `< k`.
    pub fn new(k: usize, assignment: Vec<u32>) -> Self {
        assert!(k >= 1, "need at least one partition");
        assert!(
            assignment.iter().all(|&p| (p as usize) < k),
            "assignment out of range"
        );
        Partition { k, assignment }
    }

    /// Partition index of node `v`.
    #[inline]
    pub fn part_of(&self, v: NodeId) -> usize {
        self.assignment[v as usize] as usize
    }

    /// Node count per partition.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Count of the given nodes (e.g. training nodes) per partition.
    pub fn counts_of(&self, nodes: &[NodeId]) -> Vec<usize> {
        let mut counts = vec![0usize; self.k];
        for &v in nodes {
            counts[self.part_of(v)] += 1;
        }
        counts
    }

    /// The node IDs owned by each partition.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut members = vec![Vec::new(); self.k];
        for (v, &p) in self.assignment.iter().enumerate() {
            members[p as usize].push(v as NodeId);
        }
        members
    }
}

/// A graph partitioning algorithm.
///
/// `train_nodes` is supplied because the paper's key observation (§2.3,
/// Challenge 2) is that *training-node* balance — not total-node balance —
/// determines sampling load balance; algorithms that ignore it (everything
/// except BGL) simply do.
pub trait Partitioner {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Partition `g` into `k` parts.
    fn partition(&self, g: &Csr, train_nodes: &[NodeId], k: usize) -> Partition;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_accessors() {
        let p = Partition::new(2, vec![0, 1, 0, 1, 1]);
        assert_eq!(p.part_of(0), 0);
        assert_eq!(p.sizes(), vec![2, 3]);
        assert_eq!(p.counts_of(&[0, 1, 4]), vec![1, 2]);
        let members = p.members();
        assert_eq!(members[0], vec![0, 2]);
        assert_eq!(members[1], vec![1, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        Partition::new(2, vec![0, 2]);
    }
}
