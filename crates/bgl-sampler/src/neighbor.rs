//! Fanout-based neighbor sampling (GraphSAGE-style).
//!
//! For a batch of seed nodes and per-hop fanouts `{f1, …, fL}`, sample `f1`
//! neighbors of each seed, `f2` neighbors of each of those, and so on —
//! producing one [`LayerBlock`] per hop. The blocks are the message-flow
//! graphs the GNN consumes: layer l aggregates from `src_nodes` into
//! `dst_nodes`.

use bgl_graph::{Csr, NodeId};
use rand::prelude::*;
use std::collections::HashMap;

/// One bipartite message-flow block.
///
/// Aggregation for local destination `d` reads
/// `srcs[offsets[d]..offsets[d+1]]`, which are *local indices into
/// `src_nodes`*. The first `dst_nodes.len()` entries of `src_nodes` are the
/// destinations themselves (self features are always available, as GCN /
/// GraphSAGE / GAT all need them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerBlock {
    /// Global IDs of the destination nodes (the smaller side).
    pub dst_nodes: Vec<NodeId>,
    /// Global IDs of the source nodes; `src_nodes[..dst_nodes.len()] ==
    /// dst_nodes`.
    pub src_nodes: Vec<NodeId>,
    /// CSR offsets into `srcs`, one entry per destination plus one.
    pub offsets: Vec<usize>,
    /// Sampled in-neighbors as local indices into `src_nodes`.
    pub srcs: Vec<u32>,
}

impl LayerBlock {
    /// Number of destination nodes.
    pub fn num_dst(&self) -> usize {
        self.dst_nodes.len()
    }

    /// Number of source nodes.
    pub fn num_src(&self) -> usize {
        self.src_nodes.len()
    }

    /// Number of sampled edges.
    pub fn num_edges(&self) -> usize {
        self.srcs.len()
    }

    /// The sampled neighbor slice (local src indices) of local dst `d`.
    pub fn neighbors_of(&self, d: usize) -> &[u32] {
        &self.srcs[self.offsets[d]..self.offsets[d + 1]]
    }

    /// Assemble a block from one sampled neighbor list (global IDs) per
    /// destination — `list_of(d, out)` appends the list of `dst[d]` to an
    /// empty `out` — relabelling to local indices in first-seen order, the
    /// destinations first. `max_edges` bounds the total list length: the
    /// edge array is sized once, not grown (growing it by doubling cost
    /// 2 % peak RSS on bgl-bench's train-local).
    pub fn from_lists(
        dst: &[NodeId],
        max_edges: usize,
        mut list_of: impl FnMut(usize, &mut Vec<NodeId>),
    ) -> LayerBlock {
        let mut src_nodes: Vec<NodeId> = dst.to_vec();
        let mut local_of: HashMap<NodeId, u32> = HashMap::with_capacity(dst.len() * 2);
        for (i, &v) in dst.iter().enumerate() {
            local_of.insert(v, i as u32);
        }
        let mut offsets = Vec::with_capacity(dst.len() + 1);
        offsets.push(0usize);
        let mut srcs: Vec<u32> = Vec::with_capacity(max_edges);
        let mut list: Vec<NodeId> = Vec::new();
        for d in 0..dst.len() {
            list.clear();
            list_of(d, &mut list);
            for &u in &list {
                let next_id = src_nodes.len() as u32;
                let id = *local_of.entry(u).or_insert_with(|| {
                    src_nodes.push(u);
                    next_id
                });
                srcs.push(id);
            }
            offsets.push(srcs.len());
        }
        LayerBlock { dst_nodes: dst.to_vec(), src_nodes, offsets, srcs }
    }
}

/// Append up to `fanout` distinct entries of `nbrs` to `out` — all of them
/// when the degree allows (matching DGL), else Floyd's algorithm. The one
/// place neighbor picks are drawn: the local sampler and the store servers
/// consume `rng` identically, which the digest tests rely on.
///
/// Floyd's picked indices sit in a plain `Vec` scanned per draw — quadratic
/// in `fanout`, which is at most 15 in every caller (the paper's
/// `[15, 10, 5]`, bgl-bench's `[10, 5]`), where the scan beats a hashed set
/// and its per-node table.
pub fn pick(nbrs: &[NodeId], fanout: usize, rng: &mut StdRng, out: &mut Vec<NodeId>) {
    if nbrs.len() <= fanout {
        out.extend_from_slice(nbrs);
        return;
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(fanout);
    for j in (nbrs.len() - fanout)..nbrs.len() {
        let t = rng.random_range(0..=j);
        // `j` itself is never already chosen: every earlier pick is < j.
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.push(pick);
        out.push(nbrs[pick]);
    }
}

/// A sampled mini-batch: `blocks[0]` is the input-side block (its
/// `src_nodes` need features), `blocks.last()` produces the seed outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MiniBatch {
    /// The training nodes this batch was built from.
    pub seeds: Vec<NodeId>,
    /// Message-flow blocks ordered input → output.
    pub blocks: Vec<LayerBlock>,
}

impl MiniBatch {
    /// Global IDs whose features must be fetched — the input frontier.
    pub fn input_nodes(&self) -> &[NodeId] {
        &self.blocks[0].src_nodes
    }

    /// Total distinct nodes touched by the batch (the "roughly 400,000
    /// nodes" per batch in the paper's running example).
    pub fn num_input_nodes(&self) -> usize {
        self.blocks[0].src_nodes.len()
    }

    /// Total sampled edges across all blocks — the subgraph-structure
    /// payload shipped from samplers to workers.
    pub fn num_edges(&self) -> usize {
        self.blocks.iter().map(|b| b.num_edges()).sum()
    }

    /// Serialized structure size in bytes (IDs + offsets), the quantity the
    /// paper calls "subgraph structure" traffic (≈ 5 MB per batch).
    pub fn structure_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                b.dst_nodes.len() * 4
                    + b.src_nodes.len() * 4
                    + b.offsets.len() * 8
                    + b.srcs.len() * 4
            })
            .sum()
    }

    /// Structural fingerprint (FNV-1a over seeds and every block's arrays).
    /// Two mini-batches digest equal iff they are the same sampled subgraph
    /// — what the executor's differential test compares across the threaded
    /// and serial paths without shipping whole batches around.
    pub fn digest(&self) -> u64 {
        let mut h = bgl_graph::hash::Fnv1a::default();
        for &s in &self.seeds {
            h.word(s as u64);
        }
        for b in &self.blocks {
            h.word(b.dst_nodes.len() as u64);
            for &v in &b.dst_nodes {
                h.word(v as u64);
            }
            for &v in &b.src_nodes {
                h.word(v as u64);
            }
            for &o in &b.offsets {
                h.word(o as u64);
            }
            for &s in &b.srcs {
                h.word(s as u64);
            }
        }
        h.finish()
    }
}

/// Telemetry handles for a sampler: frontier-size histogram, edge counter,
/// and per-hop span timing. Default is inert.
#[derive(Clone, Debug, Default)]
struct SamplerMetrics {
    obs: bgl_obs::Registry,
    frontier: bgl_obs::Histogram,
    edges: bgl_obs::Counter,
    batches: bgl_obs::Counter,
}

/// Multi-hop neighbor sampler with per-hop fanouts.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    /// `fanouts[0]` applies to the hop nearest the seeds. The paper's
    /// default is `{15, 10, 5}`.
    pub fanouts: Vec<usize>,
    metrics: SamplerMetrics,
}

impl NeighborSampler {
    /// Sampler with the given fanouts (outermost hop last).
    pub fn new(fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "need at least one hop");
        NeighborSampler { fanouts, metrics: SamplerMetrics::default() }
    }

    /// Record frontier sizes (`sampler.frontier` histogram), sampled edges
    /// (`sampler.edges`), and per-hop spans into `reg`.
    pub fn with_metrics(mut self, reg: &bgl_obs::Registry) -> Self {
        self.metrics = SamplerMetrics {
            obs: reg.clone(),
            frontier: reg.histogram("sampler.frontier"),
            edges: reg.counter("sampler.edges"),
            batches: reg.counter("sampler.batches"),
        };
        self
    }

    /// Sample the blocks for `seeds`. Sampling is without replacement when
    /// the degree allows (degree ≤ fanout takes all neighbors, matching
    /// DGL's semantics).
    pub fn sample(&self, g: &Csr, seeds: &[NodeId], rng: &mut StdRng) -> MiniBatch {
        let obs = &self.metrics.obs;
        let span = obs.span("sampler.sample");
        let mut blocks_rev: Vec<LayerBlock> = Vec::with_capacity(self.fanouts.len());
        let mut dst: Vec<NodeId> = seeds.to_vec();
        for (hop, &fanout) in self.fanouts.iter().enumerate() {
            let hop_span = if obs.is_enabled() {
                obs.span_named(format!("sampler.hop{hop}"))
            } else {
                obs.span("sampler.hop")
            };
            let block = LayerBlock::from_lists(&dst, dst.len() * fanout, |d, out| {
                pick(g.neighbors(dst[d]), fanout, rng, out)
            });
            hop_span.end();
            self.metrics.frontier.record(block.num_src() as u64);
            self.metrics.edges.add(block.num_edges() as u64);
            dst = block.src_nodes.clone();
            blocks_rev.push(block);
        }
        blocks_rev.reverse();
        self.metrics.batches.incr();
        span.end();
        MiniBatch { seeds: seeds.to_vec(), blocks: blocks_rev }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_graph::generate;
    use bgl_graph::GraphBuilder;

    fn star(center_deg: usize) -> Csr {
        let mut b = GraphBuilder::new(center_deg + 1);
        for i in 1..=center_deg {
            b.add_undirected(0, i as NodeId);
        }
        b.build()
    }

    #[test]
    fn fanout_bounds_sampled_neighbors() {
        let g = star(50);
        let mut rng = StdRng::seed_from_u64(1);
        let s = NeighborSampler::new(vec![5]);
        let mb = s.sample(&g, &[0], &mut rng);
        assert_eq!(mb.blocks.len(), 1);
        let b = &mb.blocks[0];
        assert_eq!(b.num_dst(), 1);
        assert_eq!(b.neighbors_of(0).len(), 5);
        // No duplicate neighbors.
        let mut seen: Vec<u32> = b.neighbors_of(0).to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn low_degree_takes_all_neighbors() {
        let g = star(3);
        let mut rng = StdRng::seed_from_u64(2);
        let s = NeighborSampler::new(vec![10]);
        let mb = s.sample(&g, &[0], &mut rng);
        assert_eq!(mb.blocks[0].neighbors_of(0).len(), 3);
    }

    #[test]
    fn src_prefix_is_dst() {
        let g = generate::barabasi_albert(200, 3, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let s = NeighborSampler::new(vec![4, 3]);
        let mb = s.sample(&g, &[5, 9, 13], &mut rng);
        for b in &mb.blocks {
            assert_eq!(&b.src_nodes[..b.num_dst()], &b.dst_nodes[..]);
        }
        // Chaining: outer block's dst == inner block's src.
        assert_eq!(mb.blocks[0].dst_nodes, mb.blocks[1].src_nodes);
    }

    #[test]
    fn sampled_edges_exist_in_graph() {
        let g = generate::barabasi_albert(300, 4, 7);
        let mut rng = StdRng::seed_from_u64(5);
        let s = NeighborSampler::new(vec![15, 10, 5]);
        let mb = s.sample(&g, &[1, 2, 3], &mut rng);
        for b in &mb.blocks {
            for d in 0..b.num_dst() {
                let dst_global = b.dst_nodes[d];
                for &sl in b.neighbors_of(d) {
                    let src_global = b.src_nodes[sl as usize];
                    assert!(
                        g.has_edge(dst_global, src_global),
                        "sampled edge {}->{} not in graph",
                        dst_global,
                        src_global
                    );
                }
            }
        }
    }

    #[test]
    fn seeds_flow_to_last_block() {
        let g = generate::barabasi_albert(200, 3, 9);
        let mut rng = StdRng::seed_from_u64(6);
        let s = NeighborSampler::new(vec![3, 3]);
        let seeds = vec![7, 11];
        let mb = s.sample(&g, &seeds, &mut rng);
        assert_eq!(mb.blocks.last().unwrap().dst_nodes, seeds);
        assert_eq!(mb.seeds, seeds);
    }

    #[test]
    fn expansion_bound_holds() {
        let g = generate::barabasi_albert(2000, 8, 2);
        let mut rng = StdRng::seed_from_u64(8);
        let s = NeighborSampler::new(vec![5, 5]);
        let seeds: Vec<NodeId> = (0..20).collect();
        let mb = s.sample(&g, &seeds, &mut rng);
        // The neighbor-explosion bound of §2.2: b · (1 + f1 + f1·f2).
        assert!(mb.num_input_nodes() <= 20 * (1 + 5 + 5 * 5));
    }

    #[test]
    fn isolated_seed_yields_empty_neighborhood() {
        let mut b = GraphBuilder::new(5);
        b.add_undirected(1, 2);
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(1);
        let s = NeighborSampler::new(vec![5]);
        let mb = s.sample(&g, &[0], &mut rng);
        assert_eq!(mb.blocks[0].neighbors_of(0).len(), 0);
        assert_eq!(mb.num_input_nodes(), 1);
    }

    #[test]
    fn metrics_record_frontier_and_hop_spans() {
        let g = generate::barabasi_albert(300, 4, 7);
        let reg = bgl_obs::Registry::enabled();
        let mut rng = StdRng::seed_from_u64(5);
        let s = NeighborSampler::new(vec![4, 3]).with_metrics(&reg);
        let mb = s.sample(&g, &[1, 2, 3], &mut rng);
        let hists: std::collections::BTreeMap<_, _> = reg.histograms().into_iter().collect();
        let frontier = &hists["sampler.frontier"];
        assert_eq!(frontier.count, 2, "one frontier sample per hop");
        assert_eq!(
            frontier.max,
            mb.num_input_nodes() as u64,
            "largest frontier is the input side"
        );
        let counters: std::collections::BTreeMap<_, _> = reg.counters().into_iter().collect();
        assert_eq!(counters["sampler.edges"], mb.num_edges() as u64);
        assert_eq!(counters["sampler.batches"], 1);
        let names: Vec<String> = reg.spans().iter().map(|s| s.name.to_string()).collect();
        assert!(names.contains(&"sampler.sample".to_string()));
        assert!(names.contains(&"sampler.hop0".to_string()));
        assert!(names.contains(&"sampler.hop1".to_string()));
    }

    #[test]
    fn structure_bytes_positive_and_consistent() {
        let g = generate::barabasi_albert(100, 3, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let s = NeighborSampler::new(vec![3]);
        let mb = s.sample(&g, &[0, 1], &mut rng);
        assert!(mb.structure_bytes() > 0);
        assert_eq!(
            mb.num_edges(),
            mb.blocks.iter().map(|b| b.srcs.len()).sum::<usize>()
        );
    }
}
