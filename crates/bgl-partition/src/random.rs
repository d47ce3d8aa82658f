//! Locality-agnostic baseline partitioners: random and round-robin.
//!
//! These are what Euler uses for everything and DGL falls back to for graphs
//! that do not fit one machine (paper §5.1, "Graph Partitioning"). They
//! scale trivially and balance perfectly but scatter every neighborhood
//! across partitions — the cause of Euler's 69x deficit (§5.2).

use crate::{Partition, Partitioner};
use bgl_graph::{Csr, NodeId};
use rand::prelude::*;

/// Uniform random assignment, seeded for reproducibility.
#[derive(Clone, Copy, Debug)]
pub struct RandomPartitioner {
    pub seed: u64,
}

impl RandomPartitioner {
    pub fn new(seed: u64) -> Self {
        RandomPartitioner { seed }
    }
}

impl Partitioner for RandomPartitioner {
    fn name(&self) -> &'static str {
        "random"
    }

    fn partition(&self, g: &Csr, _train: &[NodeId], k: usize) -> Partition {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let assignment = (0..g.num_nodes())
            .map(|_| rng.random_range(0..k) as u32)
            .collect();
        Partition::new(k, assignment)
    }
}

/// Node `v` goes to partition `v % k`. Deterministic and exactly balanced.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobinPartitioner;

impl Partitioner for RoundRobinPartitioner {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn partition(&self, g: &Csr, _train: &[NodeId], k: usize) -> Partition {
        let assignment = (0..g.num_nodes()).map(|v| (v % k) as u32).collect();
        Partition::new(k, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_graph::generate;

    fn graph() -> Csr {
        generate::erdos_renyi(1000, 4000, 1)
    }

    #[test]
    fn random_is_roughly_balanced() {
        let g = graph();
        let p = RandomPartitioner::new(3).partition(&g, &[], 4);
        let sizes = p.sizes();
        let expected = 1000 / 4;
        for &s in &sizes {
            assert!(
                (s as i64 - expected as i64).abs() < 80,
                "size {} too far from {}",
                s,
                expected
            );
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = graph();
        let a = RandomPartitioner::new(7).partition(&g, &[], 4);
        let b = RandomPartitioner::new(7).partition(&g, &[], 4);
        assert_eq!(a.assignment, b.assignment);
        let c = RandomPartitioner::new(8).partition(&g, &[], 4);
        assert_ne!(a.assignment, c.assignment);
    }

    #[test]
    fn round_robin_exactly_balanced() {
        let g = graph();
        let p = RoundRobinPartitioner.partition(&g, &[], 4);
        assert!(p.sizes().iter().all(|&s| s == 250));
    }
}
