//! Append-capable adjacency: a frozen [`Csr`] base plus a mutation delta.
//!
//! Streaming ingestion (ROADMAP item 4) must add nodes and edges to a
//! *live* graph without rewriting the CSR arrays on every arrival. The
//! classic LSM-style split applies: the immutable base everyone already
//! holds an `Arc` to stays untouched, arriving arcs accumulate in a small
//! per-node overlay, and readers see the merged view. [`DynamicGraph::
//! snapshot`] compacts base + delta back into a fresh [`Csr`] (the "re-
//! merge" the ingest subsystem runs periodically), after which the delta
//! is empty again.
//!
//! The merged view upholds the same invariants as [`Csr`]: per-node
//! neighbor lists are sorted ascending and duplicate-free, and inserting
//! an arc that already exists (in the base *or* the delta) is a detected
//! no-op — the ingest path surfaces it as a typed rejection rather than
//! silently double-counting the edge.

use crate::csr::Csr;
use crate::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// A mutable graph: immutable CSR base + append delta.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    base: Arc<Csr>,
    /// Arcs appended since the base was frozen, keyed by source; each list
    /// is sorted ascending and unique, and disjoint from the base slice.
    delta: HashMap<NodeId, Vec<NodeId>>,
    /// Total node count (base nodes + appended nodes).
    num_nodes: usize,
    /// Arcs living in the delta (directed count, like [`Csr::num_edges`]).
    delta_arcs: usize,
}

impl DynamicGraph {
    /// Wrap a frozen base. The `Arc` is shared, not copied.
    pub fn new(base: Arc<Csr>) -> Self {
        let num_nodes = base.num_nodes();
        DynamicGraph { base, delta: HashMap::new(), num_nodes, delta_arcs: 0 }
    }

    /// The frozen base this delta overlays.
    pub fn base(&self) -> &Arc<Csr> {
        &self.base
    }

    /// Total nodes, including appended ones.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total directed arcs (base + delta).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.delta_arcs
    }

    /// Nodes appended since the base was frozen.
    pub fn added_nodes(&self) -> usize {
        self.num_nodes - self.base.num_nodes()
    }

    /// True when no mutation has happened since the last snapshot.
    pub fn is_clean(&self) -> bool {
        self.delta_arcs == 0 && self.added_nodes() == 0
    }

    /// Append a new isolated node, returning its ID (always the next
    /// dense ID — node IDs are never recycled).
    pub fn add_node(&mut self) -> NodeId {
        let id = self.num_nodes as NodeId;
        self.num_nodes += 1;
        id
    }

    /// Insert the directed arc `u -> v`. Returns `false` (and changes
    /// nothing) if the arc already exists in the base or the delta.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range — the ingest layer
    /// validates IDs before calling (out-of-range is a *typed* wire error
    /// there, an invariant violation here).
    pub fn add_arc(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            (u as usize) < self.num_nodes && (v as usize) < self.num_nodes,
            "arc {}->{} out of range (n={})",
            u,
            v,
            self.num_nodes
        );
        if (u as usize) < self.base.num_nodes() && self.base.has_edge(u, v) {
            return false;
        }
        let list = self.delta.entry(u).or_default();
        match list.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, v);
                self.delta_arcs += 1;
                true
            }
        }
    }

    /// Insert the undirected edge `{u, v}` (both arcs, matching
    /// [`crate::GraphBuilder`]'s convention). Returns `false` if *both*
    /// arcs already existed. Self-loops insert a single arc.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let a = self.add_arc(u, v);
        let b = if u == v { false } else { self.add_arc(v, u) };
        a || b
    }

    /// Degree of `v` in the merged view.
    pub fn degree(&self, v: NodeId) -> usize {
        let base = if (v as usize) < self.base.num_nodes() {
            self.base.degree(v)
        } else {
            0
        };
        base + self.delta.get(&v).map_or(0, Vec::len)
    }

    /// Whether the merged view contains the arc `u -> v`.
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        if (u as usize) < self.base.num_nodes() && self.base.has_edge(u, v) {
            return true;
        }
        self.delta
            .get(&u)
            .is_some_and(|l| l.binary_search(&v).is_ok())
    }

    /// The node's base neighbor slice, when the delta holds no arcs for it
    /// — the zero-copy fast path samplers take for untouched nodes. `None`
    /// when the merged view differs from the base (delta arcs, or an
    /// appended node): use [`DynamicGraph::neighbors_into`] then.
    pub fn clean_neighbors(&self, v: NodeId) -> Option<&[NodeId]> {
        if (v as usize) < self.base.num_nodes() && !self.delta.contains_key(&v) {
            Some(self.base.neighbors(v))
        } else {
            None
        }
    }

    /// Fill `out` with the merged, sorted, duplicate-free neighborhood of
    /// `v` (clearing it first). The merge is a linear two-pointer pass —
    /// both inputs are already sorted.
    pub fn neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let base: &[NodeId] = if (v as usize) < self.base.num_nodes() {
            self.base.neighbors(v)
        } else {
            &[]
        };
        match self.delta.get(&v) {
            None => out.extend_from_slice(base),
            Some(extra) => {
                out.reserve(base.len() + extra.len());
                let (mut i, mut j) = (0, 0);
                while i < base.len() && j < extra.len() {
                    // Disjointness is an invariant (add_arc checks the
                    // base), so strict interleave, no equal case.
                    if base[i] < extra[j] {
                        out.push(base[i]);
                        i += 1;
                    } else {
                        out.push(extra[j]);
                        j += 1;
                    }
                }
                out.extend_from_slice(&base[i..]);
                out.extend_from_slice(&extra[j..]);
            }
        }
    }

    /// Nodes whose neighborhood changed since the base was frozen: every
    /// delta source plus every appended node. Sorted ascending. This is
    /// the set the ingest layer feeds to cache invalidation and the
    /// incremental PO reorder.
    pub fn dirty_nodes(&self) -> Vec<NodeId> {
        let mut dirty: Vec<NodeId> = self.delta.keys().copied().collect();
        dirty.extend(self.base.num_nodes() as NodeId..self.num_nodes as NodeId);
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Compact base + delta into a fresh [`Csr`] and make it the new
    /// base, leaving the delta empty. Returns the new base.
    pub fn snapshot(&mut self) -> Arc<Csr> {
        if self.is_clean() {
            return Arc::clone(&self.base);
        }
        let n = self.num_nodes;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut targets = Vec::with_capacity(self.num_edges());
        let mut scratch = Vec::new();
        for v in 0..n as NodeId {
            self.neighbors_into(v, &mut scratch);
            targets.extend_from_slice(&scratch);
            offsets.push(targets.len() as u64);
        }
        let merged = Arc::new(Csr::from_parts(offsets, targets));
        self.base = Arc::clone(&merged);
        self.delta.clear();
        self.delta_arcs = 0;
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Arc<Csr> {
        // 0 -> {1,2}, 1 -> {0}, 2 -> {0,3}, 3 -> {2}, 4 isolated
        Arc::new(Csr::from_parts(vec![0, 2, 3, 5, 6, 6], vec![1, 2, 0, 0, 3, 2]))
    }

    #[test]
    fn merged_view_interleaves_sorted() {
        let mut g = DynamicGraph::new(base());
        assert!(g.add_edge(0, 4));
        assert!(g.add_edge(0, 3));
        let mut nbrs = Vec::new();
        g.neighbors_into(0, &mut nbrs);
        assert_eq!(nbrs, vec![1, 2, 3, 4]);
        g.neighbors_into(4, &mut nbrs);
        assert_eq!(nbrs, vec![0]);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.num_edges(), 6 + 4);
    }

    #[test]
    fn duplicate_arcs_rejected_against_base_and_delta() {
        let mut g = DynamicGraph::new(base());
        assert!(!g.add_arc(0, 1), "base arc is a duplicate");
        assert!(g.add_arc(1, 3));
        assert!(!g.add_arc(1, 3), "delta arc is a duplicate");
        assert_eq!(g.num_edges(), 6 + 1);
        // add_edge where one direction exists still adds the other.
        assert!(g.add_edge(3, 1), "3->1 is new even though 1->3 exists");
        assert!(g.has_arc(3, 1) && g.has_arc(1, 3));
    }

    #[test]
    fn appended_nodes_get_dense_ids() {
        let mut g = DynamicGraph::new(base());
        assert_eq!(g.add_node(), 5);
        assert_eq!(g.add_node(), 6);
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.degree(6), 0);
        assert!(g.add_edge(6, 1));
        let mut nbrs = Vec::new();
        g.neighbors_into(6, &mut nbrs);
        assert_eq!(nbrs, vec![1]);
    }

    #[test]
    fn clean_neighbors_is_base_slice_or_none() {
        let mut g = DynamicGraph::new(base());
        assert_eq!(g.clean_neighbors(0), Some(&[1u32, 2][..]));
        let n = g.add_node();
        assert_eq!(g.clean_neighbors(n), None, "appended node needs a merge");
        g.add_edge(0, 3);
        assert_eq!(g.clean_neighbors(0), None, "delta-touched node needs a merge");
        assert_eq!(g.clean_neighbors(1), Some(&[0u32][..]), "untouched stays zero-copy");
    }

    #[test]
    #[should_panic]
    fn out_of_range_arc_panics() {
        DynamicGraph::new(base()).add_arc(0, 99);
    }

    #[test]
    fn dirty_nodes_cover_delta_sources_and_new_nodes() {
        let mut g = DynamicGraph::new(base());
        let n = g.add_node();
        g.add_edge(2, n);
        assert_eq!(g.dirty_nodes(), vec![2, n]);
    }

    #[test]
    fn snapshot_compacts_and_resets_delta() {
        let mut g = DynamicGraph::new(base());
        let n = g.add_node();
        g.add_edge(n, 0);
        g.add_edge(3, 4);
        let merged = g.snapshot();
        assert!(g.is_clean());
        assert_eq!(merged.num_nodes(), 6);
        assert_eq!(merged.num_edges(), 6 + 4);
        assert_eq!(merged.neighbors(0), &[1, 2, n]);
        assert_eq!(merged.neighbors(3), &[2, 4]);
        assert_eq!(merged.neighbors(n as NodeId), &[0]);
        // Clean snapshot is free: same Arc back.
        let again = g.snapshot();
        assert!(Arc::ptr_eq(&merged, &again));
        // The merged CSR passes from_parts validation by construction and
        // further mutation starts a fresh delta on the new base.
        assert!(!g.add_arc(3, 4), "snapshotted arc is now a base duplicate");
        assert!(g.add_edge(4, n));
        assert_eq!(g.num_edges(), 6 + 4 + 2);
    }
}
