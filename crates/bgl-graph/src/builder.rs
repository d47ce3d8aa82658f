//! Edge-list accumulator that freezes into a [`Csr`].

use crate::{Csr, NodeId};

/// Mutable edge-list builder.
///
/// Collect arcs with [`GraphBuilder::add_edge`] (or undirected edges with
/// [`GraphBuilder::add_undirected`]), then call [`GraphBuilder::build`] to
/// obtain a deduplicated, sorted [`Csr`]. Self-loops are dropped by default
/// because none of the samplers or GNN models in the paper use them;
/// call [`GraphBuilder::keep_self_loops`] to retain them.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_nodes: usize,
    arcs: Vec<(NodeId, NodeId)>,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// A builder for a graph with `num_nodes` nodes and no edges yet.
    pub fn new(num_nodes: usize) -> Self {
        assert!(
            num_nodes <= NodeId::MAX as usize,
            "node count {} exceeds NodeId range",
            num_nodes
        );
        GraphBuilder {
            num_nodes,
            arcs: Vec::new(),
            keep_self_loops: false,
        }
    }

    /// Pre-allocate space for `n` arcs.
    pub fn with_capacity(num_nodes: usize, n: usize) -> Self {
        let mut b = Self::new(num_nodes);
        b.arcs.reserve(n);
        b
    }

    /// Retain self-loops instead of silently dropping them at build time.
    pub fn keep_self_loops(mut self) -> Self {
        self.keep_self_loops = true;
        self
    }

    /// Number of nodes this builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Add the directed arc `u -> v`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        debug_assert!((u as usize) < self.num_nodes, "src {} out of range", u);
        debug_assert!((v as usize) < self.num_nodes, "dst {} out of range", v);
        self.arcs.push((u, v));
    }

    /// Add both `u -> v` and `v -> u`.
    pub fn add_undirected(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Bulk-add arcs from a slice.
    pub fn extend_edges(&mut self, arcs: &[(NodeId, NodeId)]) {
        for &(u, v) in arcs {
            self.add_edge(u, v);
        }
    }

    /// Freeze into a [`Csr`]: counting sort by source, per-node sort of
    /// targets, dedup, optional self-loop removal. O(V + E log d_max).
    pub fn build(mut self) -> Csr {
        if !self.keep_self_loops {
            self.arcs.retain(|&(u, v)| u != v);
        }
        let n = self.num_nodes;
        let mut counts = vec![0u64; n + 1];
        for &(u, _) in &self.arcs {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut targets = vec![0 as NodeId; self.arcs.len()];
        let mut cursor = counts.clone();
        for &(u, v) in &self.arcs {
            let slot = cursor[u as usize] as usize;
            targets[slot] = v;
            cursor[u as usize] += 1;
        }
        // Sort and dedup each node's slice, compacting in place.
        let mut offsets = vec![0u64; n + 1];
        let mut write = 0usize;
        for v in 0..n {
            let (lo, hi) = (counts[v] as usize, counts[v + 1] as usize);
            let slice = &mut targets[lo..hi];
            slice.sort_unstable();
            let mut prev: Option<NodeId> = None;
            let mut kept = 0usize;
            for i in 0..slice.len() {
                if prev != Some(slice[i]) {
                    prev = Some(slice[i]);
                    slice[kept] = slice[i];
                    kept += 1;
                }
            }
            // Move the kept prefix down to the compacted write position.
            for i in 0..kept {
                targets[write + i] = targets[lo + i];
            }
            write += kept;
            offsets[v + 1] = write as u64;
        }
        targets.truncate(write);
        Csr::from_parts(offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_deduped() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        b.add_edge(0, 2); // duplicate
        b.add_edge(3, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[0]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn drops_self_loops_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn keeps_self_loops_when_asked() {
        let mut b = GraphBuilder::new(2).keep_self_loops();
        b.add_edge(0, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[0]);
    }

    #[test]
    fn undirected_adds_both_arcs() {
        let mut b = GraphBuilder::new(3);
        b.add_undirected(0, 2);
        let g = b.build();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(7).build();
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 0);
    }
}
