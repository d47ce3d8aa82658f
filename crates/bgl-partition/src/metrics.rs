//! Partition quality metrics.
//!
//! These quantify the three properties Table 1 of the paper compares
//! partitioners on: locality (edge cut, multi-hop locality), training-node
//! balance, and total-node balance — and they predict the sampling times
//! Table 3 measures.

use crate::Partition;
use bgl_graph::{khop_neighborhood, Csr, NodeId};
use rand::prelude::*;

/// Fraction of arcs whose endpoints land in different partitions.
pub fn edge_cut_fraction(g: &Csr, p: &Partition) -> f64 {
    if g.num_edges() == 0 {
        return 0.0;
    }
    let cut = g
        .edges()
        .filter(|&(u, v)| p.part_of(u) != p.part_of(v))
        .count();
    cut as f64 / g.num_edges() as f64
}

/// Max/mean ratio of a count vector — 1.0 is perfect balance.
pub fn balance_ratio(counts: &[usize]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Multi-hop locality: over a sample of `train_nodes`, the average fraction
/// of each node's `k`-hop neighborhood that lives in the node's own
/// partition. This is the quantity the BGL partitioner maximizes — it
/// directly determines how many sampling RPCs stay local (§3.3).
pub fn khop_locality(
    g: &Csr,
    p: &Partition,
    train_nodes: &[NodeId],
    k: usize,
    sample: usize,
    seed: u64,
) -> f64 {
    if train_nodes.is_empty() {
        return 1.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picks: Vec<NodeId> = train_nodes.to_vec();
    picks.shuffle(&mut rng);
    picks.truncate(sample.max(1));
    let mut total = 0.0f64;
    for &v in &picks {
        let hood = khop_neighborhood(g, v, k);
        if hood.len() <= 1 {
            total += 1.0;
            continue;
        }
        let home = p.part_of(v);
        let local = hood.iter().filter(|&&u| p.part_of(u) == home).count();
        total += local as f64 / hood.len() as f64;
    }
    total / picks.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_graph::GraphBuilder;

    fn two_cliques() -> Csr {
        let mut b = GraphBuilder::new(8);
        for u in 0..4u32 {
            for v in 0..u {
                b.add_undirected(u, v);
            }
        }
        for u in 4..8u32 {
            for v in 4..u {
                b.add_undirected(u, v);
            }
        }
        b.add_undirected(0, 4); // single bridge
        b.build()
    }

    #[test]
    fn edge_cut_zero_for_perfect_split() {
        let g = two_cliques();
        let p = Partition::new(2, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        // Only the bridge is cut: 2 arcs out of 26.
        let cut = edge_cut_fraction(&g, &p);
        assert!((cut - 2.0 / 26.0).abs() < 1e-9, "cut {}", cut);
    }

    #[test]
    fn edge_cut_high_for_alternating_split() {
        let g = two_cliques();
        let p = Partition::new(2, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        assert!(edge_cut_fraction(&g, &p) > 0.5);
    }

    #[test]
    fn balance_ratio_bounds() {
        assert!((balance_ratio(&[10, 10, 10]) - 1.0).abs() < 1e-9);
        assert!((balance_ratio(&[30, 0, 0]) - 3.0).abs() < 1e-9);
        assert_eq!(balance_ratio(&[0, 0]), 1.0);
    }

    #[test]
    fn khop_locality_perfect_vs_scattered() {
        let g = two_cliques();
        let train = vec![1, 5];
        let good = Partition::new(2, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let bad = Partition::new(2, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let lg = khop_locality(&g, &good, &train, 1, 10, 1);
        let lb = khop_locality(&g, &bad, &train, 1, 10, 1);
        assert!(lg > 0.9, "good locality {}", lg);
        assert!(lb < 0.7, "bad locality {}", lb);
    }
}
