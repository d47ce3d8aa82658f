//! Induced subgraphs and k-hop neighborhoods.
//!
//! Sampled mini-batches are subgraphs; partition quality is measured by how
//! much of a training node's k-hop neighborhood stays inside one partition.
//!
//! [`InducedSubgraph::induce`] is on the per-batch path three times over —
//! the executor's `subgraph` stage, bgl-bench's unrolled path and the §3.4
//! profiler all call it on every batch's input nodes (~5 200 nodes, ~330 k
//! neighbour scans, ~140 k induced edges on bgl-bench's workloads) — so it
//! builds the CSR arrays directly: no hash map, no arc list, no counting
//! sort. `tests/proptests.rs` holds it to the `HashMap` + `GraphBuilder`
//! body it replaced, array for array.

use crate::{Csr, NodeId};
use std::collections::VecDeque;

/// A subgraph induced on a node subset, with the local->global ID mapping
/// preserved — the same representation samplers ship to workers.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// Local adjacency (IDs are indices into `global_ids`).
    pub graph: Csr,
    /// `global_ids[local]` is the original node ID.
    pub global_ids: Vec<NodeId>,
}

impl InducedSubgraph {
    /// Induce the subgraph of `g` on `nodes` (order preserved, must be
    /// duplicate-free): rows ascending and deduplicated, self-loops dropped.
    ///
    /// A dense `global id → local id` array stands in for a hash map, each
    /// node's neighbour slice is filtered through it straight into the CSR
    /// target array, and each row is sorted where it lies. The array is
    /// filled per call, `O(g.num_nodes())`: 256 KB at bgl-bench's 65 536
    /// nodes, against ~330 k neighbour scans per batch. A thread-local
    /// array reset by a drop guard measured the same (`graph.induce.
    /// ns_per_edge` 23.4–25.9 against 23.8–26.0 over three `train-local`
    /// pairs), so nothing outlives the call; a graph far larger than its
    /// batches would want that variant.
    ///
    /// # Panics
    /// Panics if `nodes` holds a duplicate or an id `g` does not have.
    pub fn induce(g: &Csr, nodes: &[NodeId]) -> Self {
        /// Marks a node outside the set. Never a local id: the last one is
        /// `nodes.len() - 1`, and a duplicate-free set would need all 2³²
        /// ids for that to reach `NodeId::MAX`.
        const ABSENT: NodeId = NodeId::MAX;
        let mut local_of = vec![ABSENT; g.num_nodes()];
        for (i, &v) in nodes.iter().enumerate() {
            assert!(local_of[v as usize] == ABSENT, "duplicate node {} in induced set", v);
            local_of[v as usize] = i as NodeId;
        }
        // Sized once from the scans to come, so the filter below can write
        // before it knows whether it keeps: `write` never passes the number
        // of neighbours scanned so far.
        let scans: usize = nodes.iter().map(|&u| g.degree(u)).sum();
        let mut targets = vec![0 as NodeId; scans];
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0u64);
        let mut write = 0usize;
        for (lu, &u) in nodes.iter().enumerate() {
            let row_start = write;
            // Write, then advance only past a kept entry: no branch for the
            // predictor to miss on (bgl-bench's batches keep 42 % of scans).
            for &v in g.neighbors(u) {
                let lv = local_of[v as usize];
                targets[write] = lv;
                write += usize::from((lv != ABSENT) & (lv != lu as NodeId));
            }
            // Parent rows ascend by global id; local ids follow `nodes`.
            targets[row_start..write].sort_unstable();
            // `Csr::from_parts` admits a parent with repeated arcs.
            let mut kept = row_start;
            for i in row_start..write {
                if kept == row_start || targets[i] != targets[kept - 1] {
                    targets[kept] = targets[i];
                    kept += 1;
                }
            }
            write = kept;
            offsets.push(write as u64);
        }
        targets.truncate(write);
        InducedSubgraph { graph: Csr::from_parts(offsets, targets), global_ids: nodes.to_vec() }
    }

    /// Number of nodes in the subgraph.
    pub fn num_nodes(&self) -> usize {
        self.global_ids.len()
    }
}

/// All nodes within `k` hops of `root` (including `root`), in BFS order.
pub fn khop_neighborhood(g: &Csr, root: NodeId, k: usize) -> Vec<NodeId> {
    let mut dist = std::collections::HashMap::new();
    let mut order = vec![root];
    let mut queue = VecDeque::new();
    dist.insert(root, 0usize);
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        if du == k {
            continue;
        }
        for &v in g.neighbors(u) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                order.push(v);
                queue.push_back(v);
            }
        }
    }
    order
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

    #[test]
    fn khop_on_path() {
        let g = path(7);
        let mut hood = khop_neighborhood(&g, 3, 2);
        hood.sort_unstable();
        assert_eq!(hood, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn khop_zero_is_self() {
        let g = path(4);
        assert_eq!(khop_neighborhood(&g, 2, 0), vec![2]);
    }

    #[test]
    fn induce_keeps_internal_edges_only() {
        let g = path(5);
        let sub = InducedSubgraph::induce(&g, &[1, 2, 4]);
        assert_eq!(sub.num_nodes(), 3);
        // locals: 0=global1, 1=global2, 2=global4
        assert!(sub.graph.has_edge(0, 1));
        assert!(!sub.graph.has_edge(1, 2), "2-4 not adjacent in path");
        assert_eq!(sub.graph.num_edges(), 2); // 1<->2 both directions
    }

    #[test]
    fn induce_preserves_global_ids() {
        let g = path(5);
        let sub = InducedSubgraph::induce(&g, &[4, 0]);
        assert_eq!(sub.global_ids, vec![4, 0]);
        assert_eq!(sub.graph.num_edges(), 0);
    }

    #[test]
    #[should_panic]
    fn induce_rejects_duplicates() {
        let g = path(3);
        InducedSubgraph::induce(&g, &[1, 1]);
    }
}
