//! Property-based tests: every partitioner must produce a valid, complete
//! partition on arbitrary graphs, and the structural invariants of the
//! coarsening machinery must hold.

use bgl_graph::{GraphBuilder, NodeId};
use bgl_partition::block_graph::BlockGraph;
use bgl_partition::{
    BglPartitioner, GMinerPartitioner, LdgPartitioner, MetisLikePartitioner, Partitioner,
    RandomPartitioner, RoundRobinPartitioner,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (4usize..60).prop_flat_map(|n| {
        let arcs = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..300);
        (Just(n), arcs)
    })
}

fn partitioners() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(RandomPartitioner::new(5)),
        Box::new(RoundRobinPartitioner),
        Box::new(LdgPartitioner::new(5)),
        Box::new(GMinerPartitioner::default()),
        Box::new(MetisLikePartitioner::default()),
        Box::new(BglPartitioner::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_partitioners_cover_all_nodes((n, arcs) in arb_graph(), k in 1usize..5) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &arcs {
            b.add_undirected(u, v);
        }
        let g = b.build();
        let train: Vec<NodeId> = (0..n as NodeId).step_by(3).collect();
        for p in partitioners() {
            let part = p.partition(&g, &train, k);
            prop_assert_eq!(
                part.assignment.len(),
                n,
                "{} left nodes unassigned",
                p.name()
            );
            prop_assert!(
                part.assignment.iter().all(|&a| (a as usize) < k),
                "{} assigned out of range",
                p.name()
            );
            prop_assert_eq!(part.sizes().iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn coarsening_conserves_nodes_and_train(
        (n, arcs) in arb_graph(),
        cap in 1usize..20,
    ) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &arcs {
            b.add_undirected(u, v);
        }
        let g = b.build();
        let train: Vec<NodeId> = (0..n as NodeId).step_by(2).collect();
        let mut bg = BlockGraph::coarsen(&g, &train, cap, 9);
        prop_assert_eq!(bg.block_sizes.iter().sum::<usize>(), n);
        prop_assert_eq!(bg.block_train.iter().sum::<usize>(), train.len());
        prop_assert!(bg.block_sizes.iter().all(|&s| s <= cap));
        // Merging must conserve both totals and keep block_of consistent.
        bg.merge_small_blocks(&g, &train, 0.2, cap * 3, 11);
        prop_assert_eq!(bg.block_sizes.iter().sum::<usize>(), n);
        prop_assert_eq!(bg.block_train.iter().sum::<usize>(), train.len());
        let nb = bg.num_blocks();
        prop_assert!(bg.block_of.iter().all(|&b| (b as usize) < nb));
        // block_sizes must agree with the node mapping.
        let mut counted = vec![0usize; nb];
        for &b in &bg.block_of {
            counted[b as usize] += 1;
        }
        prop_assert_eq!(counted, bg.block_sizes.clone());
    }

    #[test]
    fn block_adjacency_has_no_self_loops((n, arcs) in arb_graph()) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &arcs {
            b.add_undirected(u, v);
        }
        let g = b.build();
        let bg = BlockGraph::coarsen(&g, &[], 5, 3);
        for (bid, nbrs) in bg.adj.iter().enumerate() {
            for &(nb, w) in nbrs {
                prop_assert_ne!(nb as usize, bid, "self loop in block graph");
                prop_assert!(w >= 1);
            }
        }
    }

    #[test]
    fn metrics_are_bounded((n, arcs) in arb_graph(), k in 1usize..4) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &arcs {
            b.add_undirected(u, v);
        }
        let g = b.build();
        let train: Vec<NodeId> = (0..n as NodeId / 2).collect();
        let p = RandomPartitioner::new(1).partition(&g, &train, k);
        let cut = bgl_partition::metrics::edge_cut_fraction(&g, &p);
        prop_assert!((0.0..=1.0).contains(&cut));
        let loc = bgl_partition::metrics::khop_locality(&g, &p, &train, 2, 10, 1);
        prop_assert!((0.0..=1.0).contains(&loc));
    }
}
