//! Compressed-sparse-row adjacency.
//!
//! [`Csr`] is the immutable, cache-friendly graph representation every other
//! crate consumes. It stores out-neighbors; for the undirected graphs used
//! throughout the paper's evaluation, [`crate::GraphBuilder`] inserts both
//! directions so that `neighbors(v)` is the full neighborhood of `v`.

use crate::NodeId;

/// Immutable compressed-sparse-row graph.
///
/// Invariants (checked by `debug_assert!` in [`Csr::from_parts`] and
/// exhaustively by the property tests):
///
/// * `offsets.len() == num_nodes + 1`
/// * `offsets` is non-decreasing, `offsets[0] == 0`,
///   `offsets[num_nodes] == targets.len()`
/// * every entry of `targets` is `< num_nodes`
/// * within each node's slice, targets are sorted ascending and unique
///   (the builder guarantees this; ad-hoc constructions may relax it).
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
}

impl Csr {
    /// Build a CSR directly from its two arrays.
    ///
    /// # Panics
    /// Panics if the structural invariants do not hold (offset length,
    /// monotonicity, target range).
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<NodeId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets[0] must be 0");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            targets.len(),
            "last offset must equal target count"
        );
        let n = offsets.len() - 1;
        for w in offsets.windows(2) {
            assert!(w[0] <= w[1], "offsets must be non-decreasing");
        }
        for &t in &targets {
            assert!((t as usize) < n, "target {} out of range (n={})", t, n);
        }
        Csr { offsets, targets }
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Csr {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (arcs). For an undirected graph built with
    /// both directions this is twice the number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The sorted out-neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Whether the directed edge `u -> v` exists (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate all arcs as `(src, dst)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Nodes sorted by descending degree — the ranking PaGraph's static
    /// cache policy pre-loads (§2.3, §5.3.2 of the paper).
    pub fn nodes_by_degree_desc(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = (0..self.num_nodes() as NodeId).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.degree(v)));
        order
    }

    /// Raw offsets array (how the `induce` suite compares two graphs).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw targets array (how the `induce` suite compares two graphs).
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// In-memory size in bytes of the adjacency arrays.
    pub fn storage_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // 0 -> {1,2}, 1 -> {0}, 2 -> {0,3}, 3 -> {2}, 4 isolated
        Csr::from_parts(vec![0, 2, 3, 5, 6, 6], vec![1, 2, 0, 0, 3, 2])
    }

    #[test]
    fn basic_shape() {
        let g = small();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(2), &[0, 3]);
    }

    #[test]
    fn has_edge_works() {
        let g = small();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(4, 0));
    }

    #[test]
    fn edges_iterator_matches_counts() {
        let g = small();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e.len(), g.num_edges());
        assert_eq!(e[0], (0, 1));
        assert_eq!(*e.last().unwrap(), (3, 2));
    }

    #[test]
    fn degree_ranking_descends() {
        let g = small();
        let order = g.nodes_by_degree_desc();
        for w in order.windows(2) {
            assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(3);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(1), 0);
        assert!((0..3).all(|v| g.degree(v) == 0));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_offsets() {
        Csr::from_parts(vec![0, 2, 1], vec![0, 1]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_target() {
        Csr::from_parts(vec![0, 1], vec![5]);
    }
}
