//! BFS-family traversals.
//!
//! Two of the paper's three contributions are BFS-shaped:
//! proximity-aware ordering (§3.2.2) generates training-node sequences by
//! BFS, and the partitioner (§3.3.1) coarsens the graph by *multi-source*
//! BFS where every source floods its block ID outward until a size cap.

use crate::{Csr, NodeId};
use std::collections::VecDeque;

/// BFS visit order that restarts from the smallest unvisited node whenever
/// the frontier empties, so *every* node appears exactly once. This is the
/// "one full traversal" used to build ordering sequences over graphs with
/// many connected components (the paper notes small components end up at the
/// tail — the motivation for random shifting).
pub fn bfs_full_order(g: &Csr, root: NodeId) -> Vec<NodeId> {
    let n = g.num_nodes();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    let mut next_unvisited = 0usize;
    visited[root as usize] = true;
    queue.push_back(root);
    loop {
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in g.neighbors(u) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        while next_unvisited < n && visited[next_unvisited] {
            next_unvisited += 1;
        }
        if next_unvisited == n {
            break;
        }
        visited[next_unvisited] = true;
        queue.push_back(next_unvisited as NodeId);
    }
    order
}

/// Result of a multi-source capped BFS flood: `assignment[v]` is the index
/// of the source whose flood reached `v` first (`u32::MAX` if unreached,
/// which happens only when every source's block filled up).
pub struct MultiSourceBfs {
    pub assignment: Vec<u32>,
    /// Number of nodes claimed by each source.
    pub block_sizes: Vec<usize>,
}

/// Multi-source BFS with a per-source size cap — the paper's block
/// generation step (§3.3.1): every source floods its block ID to unvisited
/// neighbors, interleaved round-robin so blocks grow at similar rates; a
/// block stops growing once it reaches `cap` nodes or runs out of frontier.
pub fn multi_source_bfs(g: &Csr, sources: &[NodeId], cap: usize) -> MultiSourceBfs {
    let n = g.num_nodes();
    let mut assignment = vec![u32::MAX; n];
    let mut block_sizes = vec![0usize; sources.len()];
    let mut queues: Vec<VecDeque<NodeId>> =
        sources.iter().map(|_| VecDeque::new()).collect();
    for (i, &s) in sources.iter().enumerate() {
        if assignment[s as usize] == u32::MAX {
            assignment[s as usize] = i as u32;
            block_sizes[i] += 1;
            queues[i].push_back(s);
        }
    }
    let mut active = true;
    while active {
        active = false;
        for i in 0..sources.len() {
            if block_sizes[i] >= cap {
                continue;
            }
            if let Some(u) = queues[i].pop_front() {
                active = true;
                for &v in g.neighbors(u) {
                    if assignment[v as usize] == u32::MAX && block_sizes[i] < cap {
                        assignment[v as usize] = i as u32;
                        block_sizes[i] += 1;
                        queues[i].push_back(v);
                    }
                }
            }
        }
    }
    MultiSourceBfs { assignment, block_sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_undirected(i as NodeId, (i + 1) as NodeId);
        }
        b.build()
    }

    fn two_triangles() -> Csr {
        let mut b = GraphBuilder::new(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_undirected(u, v);
        }
        b.build()
    }

    #[test]
    fn bfs_full_order_covers_all_components() {
        let g = two_triangles();
        let order = bfs_full_order(&g, 4);
        assert_eq!(order.len(), 6);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        // First component traversed fully before jumping.
        assert!(order[..3].iter().all(|&v| v >= 3));
    }

    #[test]
    fn multi_source_bfs_respects_cap() {
        let g = path(10);
        let res = multi_source_bfs(&g, &[0, 9], 3);
        assert!(res.block_sizes.iter().all(|&s| s <= 3));
        assert_eq!(res.assignment[0], 0);
        assert_eq!(res.assignment[9], 1);
    }

    #[test]
    fn multi_source_bfs_covers_connected_graph_without_cap() {
        let g = path(10);
        let res = multi_source_bfs(&g, &[0, 5], usize::MAX);
        assert!(res.assignment.iter().all(|&a| a != u32::MAX));
        assert_eq!(res.block_sizes.iter().sum::<usize>(), 10);
    }
}
