//! Coarsening utilities shared by the BGL and GMiner-like partitioners.
//!
//! A *block* is a connected set of nodes grown by capped BFS (paper §3.3.1
//! step ①-②). Treating blocks as super-nodes yields a coarsened graph small
//! enough for the quadratic-ish assignment heuristics to run on billion-node
//! inputs.

use bgl_graph::{Csr, NodeId};
use rand::prelude::*;
use std::collections::VecDeque;

/// The coarsened graph: node -> block mapping plus per-block aggregates and
/// the block-level weighted adjacency.
#[derive(Clone, Debug)]
pub struct BlockGraph {
    /// `block_of[v]` is the block containing node `v`.
    pub block_of: Vec<u32>,
    /// Node count per block.
    pub block_sizes: Vec<usize>,
    /// Training-node count per block.
    pub block_train: Vec<usize>,
    /// Weighted block adjacency: `adj[b]` lists `(neighbor_block, cross-edge
    /// count)`, sorted by neighbor block, excluding self-edges.
    pub adj: Vec<Vec<(u32, u64)>>,
}

impl BlockGraph {
    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_sizes.len()
    }

    /// Grow blocks by capped BFS from random unvisited sources until every
    /// node is covered (paper step ①): each source floods its block ID to
    /// unvisited neighbors; a block closes when it reaches `cap` nodes or
    /// its frontier empties.
    pub fn coarsen(g: &Csr, train_nodes: &[NodeId], cap: usize, seed: u64) -> Self {
        assert!(cap >= 1, "block cap must be >= 1");
        let n = g.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut visit_order: Vec<NodeId> = (0..n as NodeId).collect();
        visit_order.shuffle(&mut rng);

        let mut block_of = vec![u32::MAX; n];
        let mut block_sizes: Vec<usize> = Vec::new();
        let mut queue = VecDeque::new();
        for &src in &visit_order {
            if block_of[src as usize] != u32::MAX {
                continue;
            }
            let b = block_sizes.len() as u32;
            let mut size = 0usize;
            block_of[src as usize] = b;
            size += 1;
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                if size >= cap {
                    break;
                }
                for &v in g.neighbors(u) {
                    if block_of[v as usize] == u32::MAX && size < cap {
                        block_of[v as usize] = b;
                        size += 1;
                        queue.push_back(v);
                    }
                }
            }
            queue.clear();
            block_sizes.push(size);
        }

        let mut bg = BlockGraph {
            block_of,
            block_sizes,
            block_train: Vec::new(),
            adj: Vec::new(),
        };
        bg.rebuild_aggregates(g, train_nodes);
        bg
    }

    /// Recompute per-block training counts and the block adjacency from the
    /// current `block_of` mapping.
    pub fn rebuild_aggregates(&mut self, g: &Csr, train_nodes: &[NodeId]) {
        let nb = self.block_sizes.len();
        self.block_train = vec![0; nb];
        for &t in train_nodes {
            self.block_train[self.block_of[t as usize] as usize] += 1;
        }
        let mut edge_maps: Vec<std::collections::HashMap<u32, u64>> =
            vec![std::collections::HashMap::new(); nb];
        for (u, v) in g.edges() {
            let (bu, bv) = (self.block_of[u as usize], self.block_of[v as usize]);
            if bu != bv {
                *edge_maps[bu as usize].entry(bv).or_insert(0) += 1;
            }
        }
        self.adj = edge_maps
            .into_iter()
            .map(|m| {
                let mut v: Vec<(u32, u64)> = m.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
    }

    /// Multi-level merging (paper step ② refinement): blocks in the top
    /// `large_frac` size quantile are "large"; every small block with a
    /// large neighbor merges into its heaviest-connected large neighbor;
    /// remaining small blocks are merged together randomly up to `cap`.
    /// Returns the number of blocks after merging.
    pub fn merge_small_blocks(
        &mut self,
        g: &Csr,
        train_nodes: &[NodeId],
        large_frac: f64,
        cap: usize,
        seed: u64,
    ) -> usize {
        let nb = self.num_blocks();
        if nb <= 1 {
            return nb;
        }
        // Size threshold for "large": top `large_frac` of blocks by size.
        let mut sizes_sorted: Vec<usize> = self.block_sizes.clone();
        sizes_sorted.sort_unstable_by(|a, b| b.cmp(a));
        let cut = ((nb as f64 * large_frac).ceil() as usize).clamp(1, nb);
        let threshold = sizes_sorted[cut - 1].max(1);
        let is_large: Vec<bool> =
            self.block_sizes.iter().map(|&s| s >= threshold).collect();

        // Union-find over blocks.
        let mut parent: Vec<u32> = (0..nb as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }

        // Pass 1: small block with >= 1 large neighbor joins the one it
        // shares the most edges with — but a large block may only absorb up
        // to `cap` extra nodes, so merging never manufactures a mega-block
        // bigger than the partition-capacity-derived cap allows.
        let mut absorbed: Vec<usize> = vec![0; nb];
        for b in 0..nb {
            if is_large[b] {
                continue;
            }
            let mut candidates: Vec<(u32, u64)> = self.adj[b]
                .iter()
                .filter(|&&(nb_, _)| is_large[nb_ as usize])
                .copied()
                .collect();
            candidates.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
            for (target, _) in candidates {
                let root = find(&mut parent, target);
                if absorbed[root as usize] + self.block_sizes[b] <= cap {
                    absorbed[root as usize] += self.block_sizes[b];
                    parent[b] = root;
                    break;
                }
            }
        }
        // Pass 2: remaining small blocks merge randomly, respecting cap.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut loose: Vec<u32> = (0..nb as u32)
            .filter(|&b| !is_large[b as usize] && find(&mut parent, b) == b)
            .collect();
        loose.shuffle(&mut rng);
        let mut merged_size: Vec<usize> = self.block_sizes.clone();
        let mut acc: Option<u32> = None;
        for &b in &loose {
            match acc {
                None => acc = Some(b),
                Some(a) => {
                    if merged_size[a as usize] + merged_size[b as usize] <= cap {
                        parent[b as usize] = a;
                        merged_size[a as usize] += merged_size[b as usize];
                    } else {
                        acc = Some(b);
                    }
                }
            }
        }

        // Resolve every block's root first (find() must not race with the
        // remap), then compact root IDs into the final mapping.
        let roots: Vec<u32> = (0..nb as u32).map(|b| find(&mut parent, b)).collect();
        let mut remap = vec![u32::MAX; nb];
        let mut next = 0u32;
        for &root in &roots {
            if remap[root as usize] == u32::MAX {
                remap[root as usize] = next;
                next += 1;
            }
        }
        let new_nb = next as usize;
        let mut new_sizes = vec![0usize; new_nb];
        let mut final_map = vec![0u32; nb];
        for b in 0..nb {
            let nb_id = remap[roots[b] as usize];
            final_map[b] = nb_id;
            new_sizes[nb_id as usize] += self.block_sizes[b];
        }
        for bo in self.block_of.iter_mut() {
            *bo = final_map[*bo as usize];
        }
        self.block_sizes = new_sizes;
        self.rebuild_aggregates(g, train_nodes);
        new_nb
    }

    /// Blocks within `j` hops of `b` in the block graph (excluding `b`),
    /// deduplicated — `Γ^1(B) ∪ … ∪ Γ^j(B)` from the assignment heuristic —
    /// each with an affinity weight: first-hop neighbors are weighted by
    /// their cross-edge count (a 30-edge neighbor matters more than a 1-edge
    /// one — important on graphs with random long-range edges, where a pure
    /// block *count* drowns the locality signal), further hops count 1 each.
    pub fn jhop_blocks_weighted(&self, b: u32, j: usize) -> Vec<(u32, u64)> {
        let mut seen = std::collections::HashSet::new();
        seen.insert(b);
        let mut frontier = vec![b];
        let mut out = Vec::new();
        for hop in 0..j {
            let mut next = Vec::new();
            for &x in &frontier {
                for &(nb, w) in &self.adj[x as usize] {
                    if seen.insert(nb) {
                        next.push(nb);
                        out.push((nb, if hop == 0 { w } else { 1 }));
                    }
                }
            }
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_graph::generate::{self, CommunityConfig};
    use bgl_graph::GraphBuilder;

    fn chain_graph(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_undirected(i as NodeId, (i + 1) as NodeId);
        }
        b.build()
    }

    #[test]
    fn coarsen_covers_every_node() {
        let g = chain_graph(100);
        let bg = BlockGraph::coarsen(&g, &[], 10, 1);
        assert!(bg.block_of.iter().all(|&b| b != u32::MAX));
        assert_eq!(bg.block_sizes.iter().sum::<usize>(), 100);
        assert!(bg.block_sizes.iter().all(|&s| s <= 10));
    }

    #[test]
    fn coarsen_blocks_are_connected() {
        // On a chain, every block must be a contiguous interval.
        let g = chain_graph(50);
        let bg = BlockGraph::coarsen(&g, &[], 8, 3);
        for b in 0..bg.num_blocks() as u32 {
            let members: Vec<usize> = (0..50)
                .filter(|&v| bg.block_of[v] == b)
                .collect();
            for w in members.windows(2) {
                assert_eq!(w[1] - w[0], 1, "block {} not contiguous: {:?}", b, members);
            }
        }
    }

    #[test]
    fn train_counts_accumulate() {
        let g = chain_graph(20);
        let train: Vec<NodeId> = vec![0, 1, 2, 19];
        let bg = BlockGraph::coarsen(&g, &train, 5, 1);
        assert_eq!(bg.block_train.iter().sum::<usize>(), 4);
    }

    #[test]
    fn adjacency_is_symmetric_in_blocks() {
        let g = generate::community_graph(
            CommunityConfig { n: 400, communities: 4, intra: 6, inter: 1 },
            7,
        );
        let bg = BlockGraph::coarsen(&g, &[], 40, 7);
        for b in 0..bg.num_blocks() as u32 {
            for &(nb, w) in &bg.adj[b as usize] {
                let back = bg.adj[nb as usize]
                    .iter()
                    .find(|&&(x, _)| x == b)
                    .map(|&(_, w2)| w2);
                assert_eq!(back, Some(w), "asymmetric block edge {}<->{}", b, nb);
            }
        }
    }

    #[test]
    fn merging_reduces_block_count_and_conserves_nodes() {
        let g = generate::community_graph(
            CommunityConfig { n: 1000, communities: 10, intra: 6, inter: 1 },
            5,
        );
        let mut bg = BlockGraph::coarsen(&g, &[], 20, 5);
        let before = bg.num_blocks();
        let after = bg.merge_small_blocks(&g, &[], 0.1, 200, 5);
        assert!(after < before, "merge did not shrink: {} -> {}", before, after);
        assert_eq!(bg.block_sizes.iter().sum::<usize>(), 1000);
        assert_eq!(bg.num_blocks(), after);
    }

    #[test]
    fn jhop_blocks_on_chain() {
        let g = chain_graph(100);
        // cap 10 on a chain gives ~10 sequential blocks.
        let bg = BlockGraph::coarsen(&g, &[], 10, 11);
        // pick a middle block and check 1-hop vs 2-hop growth
        let b = bg.block_of[50];
        let one = bg.jhop_blocks_weighted(b, 1);
        let two = bg.jhop_blocks_weighted(b, 2);
        assert!(two.len() >= one.len());
        for (x, _) in &one {
            assert!(two.iter().any(|(y, _)| y == x));
        }
    }
}
