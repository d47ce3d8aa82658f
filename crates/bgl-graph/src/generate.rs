//! Synthetic graph generators.
//!
//! The paper's datasets (Table 2) are either enormous public graphs
//! (Ogbn-papers: 111 M nodes, 279 GB on disk) or proprietary (User-Item:
//! 1.2 B nodes). Per the substitution rule in DESIGN.md we reproduce their
//! *shape* — power-law degree skew, community structure, average degree,
//! train-node fraction — at configurable scale with the generators here.
//! Everything is deterministic given the seed.

use crate::{Csr, GraphBuilder, NodeId};
use rand::prelude::*;

/// R-MAT recursive-matrix generator (Chakrabarti et al.), the standard way
/// to synthesize power-law graphs with community-like self-similarity.
///
/// Probabilities `(a, b, c, d)` must sum to ~1. The classic skewed setting
/// `(0.57, 0.19, 0.19, 0.05)` gives degree distributions close to real
/// social/web graphs — the regime in which PaGraph's static cache works and
/// BGL's FIFO-without-ordering does not (paper §2.3, Fig. 5).
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// log2 of node count: the graph has `2^scale` nodes.
    pub scale: u32,
    /// Average *undirected* degree; `edge_factor * 2^scale` edges are drawn.
    pub edge_factor: usize,
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// Per-level probability noise, which avoids exactly repeated structure.
    pub noise: f64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        RmatConfig {
            scale: 14,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.05,
        }
    }
}

/// Generate an undirected R-MAT graph. Duplicate edges and self-loops are
/// removed by the builder, so the realized edge count is slightly below
/// `edge_factor * 2^scale`.
pub fn rmat(cfg: RmatConfig, seed: u64) -> Csr {
    let n = 1usize << cfg.scale;
    let m = cfg.edge_factor * n;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, 2 * m);
    for _ in 0..m {
        let (mut x0, mut x1) = (0usize, n);
        let (mut y0, mut y1) = (0usize, n);
        while x1 - x0 > 1 {
            // Jitter quadrant probabilities per level.
            let na = cfg.a + cfg.noise * (rng.random::<f64>() - 0.5);
            let nb = cfg.b + cfg.noise * (rng.random::<f64>() - 0.5);
            let nc = cfg.c + cfg.noise * (rng.random::<f64>() - 0.5);
            let total = na + nb + nc + (1.0 - cfg.a - cfg.b - cfg.c);
            let r = rng.random::<f64>() * total;
            let (mx, my) = ((x0 + x1) / 2, (y0 + y1) / 2);
            if r < na {
                x1 = mx;
                y1 = my;
            } else if r < na + nb {
                x1 = mx;
                y0 = my;
            } else if r < na + nb + nc {
                x0 = mx;
                y1 = my;
            } else {
                x0 = mx;
                y0 = my;
            }
        }
        builder.add_undirected(x0 as NodeId, y0 as NodeId);
    }
    builder.build()
}

/// Barabási–Albert preferential attachment: each new node attaches to
/// `m_attach` existing nodes with probability proportional to degree.
/// Produces a clean power law; used by tests that need guaranteed hubs.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Csr {
    assert!(m_attach >= 1 && n > m_attach, "need n > m_attach >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, 2 * n * m_attach);
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportional to degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_attach);
    // Seed clique over the first m_attach + 1 nodes.
    for u in 0..=(m_attach as NodeId) {
        for v in 0..u {
            builder.add_undirected(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for u in (m_attach + 1)..n {
        let mut chosen = Vec::with_capacity(m_attach);
        while chosen.len() < m_attach {
            let v = endpoints[rng.random_range(0..endpoints.len())];
            if v != u as NodeId && !chosen.contains(&v) {
                chosen.push(v);
            }
        }
        for &v in &chosen {
            builder.add_undirected(u as NodeId, v);
            endpoints.push(u as NodeId);
            endpoints.push(v);
        }
    }
    builder.build()
}

/// Erdős–Rényi G(n, m): `m` undirected edges drawn uniformly. No skew, no
/// communities — the adversarial baseline for locality-based techniques.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, 2 * m);
    for _ in 0..m {
        let u = rng.random_range(0..n) as NodeId;
        let v = rng.random_range(0..n) as NodeId;
        builder.add_undirected(u, v);
    }
    builder.build()
}

/// Planted-partition ("stochastic block model lite") generator: `n` nodes in
/// `communities` equal-size groups; each node draws `intra` neighbors inside
/// its group and `inter` outside. This gives the explicit community
/// structure that makes proximity-aware ordering's locality win visible and
/// makes label distribution per mini-batch non-uniform under BFS ordering —
/// exactly the tension §3.2.2 of the paper resolves.
#[derive(Clone, Copy, Debug)]
pub struct CommunityConfig {
    pub n: usize,
    pub communities: usize,
    /// Average intra-community degree per node.
    pub intra: usize,
    /// Average cross-community degree per node.
    pub inter: usize,
}

pub fn community_graph(cfg: CommunityConfig, seed: u64) -> Csr {
    assert!(cfg.communities >= 1 && cfg.n >= cfg.communities);
    let mut rng = StdRng::seed_from_u64(seed);
    let size = cfg.n / cfg.communities;
    let mut builder =
        GraphBuilder::with_capacity(cfg.n, cfg.n * (cfg.intra + cfg.inter));
    for u in 0..cfg.n {
        let comm = (u / size).min(cfg.communities - 1);
        let lo = comm * size;
        let hi = if comm == cfg.communities - 1 { cfg.n } else { lo + size };
        for _ in 0..cfg.intra {
            let v = rng.random_range(lo..hi);
            if v != u {
                builder.add_undirected(u as NodeId, v as NodeId);
            }
        }
        for _ in 0..cfg.inter {
            let v = rng.random_range(0..cfg.n);
            if v != u {
                builder.add_undirected(u as NodeId, v as NodeId);
            }
        }
    }
    builder.build()
}

/// Power-law community graph: a degree-weighted planted partition.
///
/// Real citation/social graphs combine two properties the BGL experiments
/// depend on: *power-law degree skew* (what static caching exploits) and
/// *community structure* (what BFS-based proximity ordering exploits).
/// R-MAT delivers the first but its self-similar wiring has little usable
/// BFS locality, so the Ogbn-products/papers stand-ins use this generator:
/// nodes get Zipf-like weights; each edge picks a community, then both
/// endpoints within it weight-proportionally (Chung–Lu style), except a
/// `inter` fraction of edges that pick the second endpoint globally.
#[derive(Clone, Copy, Debug)]
pub struct PowerlawCommunityConfig {
    pub n: usize,
    pub communities: usize,
    /// Average undirected degree.
    pub avg_degree: usize,
    /// Zipf exponent for node weights (≈0.8 gives realistic skew).
    pub skew: f64,
    /// Fraction of edges whose far endpoint is sampled globally.
    pub inter: f64,
}

pub fn powerlaw_community(cfg: PowerlawCommunityConfig, seed: u64) -> Csr {
    assert!(cfg.communities >= 1 && cfg.n >= cfg.communities);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.n;
    let k = cfg.communities;
    let size = n / k;
    // Node weights: Zipf over the node's rank *within its community*, so
    // every community has its own hubs.
    let weight = |v: usize| -> f64 {
        let rank = (v % size.max(1)) + 1;
        (rank as f64).powf(-cfg.skew)
    };
    // Per-community cumulative weights for O(log size) weighted draws.
    let mut cumulative: Vec<Vec<f64>> = Vec::with_capacity(k);
    for c in 0..k {
        let lo = c * size;
        let hi = if c == k - 1 { n } else { lo + size };
        let mut acc = 0.0;
        let cum: Vec<f64> = (lo..hi)
            .map(|v| {
                acc += weight(v);
                acc
            })
            .collect();
        cumulative.push(cum);
    }
    let draw_in = |c: usize, rng: &mut StdRng| -> NodeId {
        let cum = &cumulative[c];
        let total = *cum.last().unwrap();
        let x = rng.random::<f64>() * total;
        let idx = cum.partition_point(|&w| w < x).min(cum.len() - 1);
        (c * size + idx) as NodeId
    };
    let m = n * cfg.avg_degree / 2;
    let mut builder = GraphBuilder::with_capacity(n, 2 * m);
    for _ in 0..m {
        let c = rng.random_range(0..k);
        let u = draw_in(c, &mut rng);
        let v = if rng.random::<f64>() < cfg.inter {
            // Inter-community edges are *ring-local*: communities sit on a
            // ring and cross edges go a geometrically distributed number of
            // steps away. Real graphs have locality at every scale
            // (communities of communities); without it, BFS order has no
            // usable structure above the single-community level and the
            // temporal locality that proximity-aware ordering exploits
            // (§3.2.2) cannot exist.
            let mut step = 1usize;
            while step < k / 2 && rng.random_bool(0.5) {
                step += 1;
            }
            let dir: isize = if rng.random_bool(0.5) { 1 } else { -1 };
            let c2 = ((c as isize + dir * step as isize).rem_euclid(k as isize)) as usize;
            draw_in(c2, &mut rng)
        } else {
            draw_in(c, &mut rng)
        };
        if u != v {
            builder.add_undirected(u, v);
        }
    }
    builder.build()
}

/// Bipartite user–item graph in the shape of the paper's proprietary
/// ByteDance *User-Item* dataset: `users + items` nodes, power-law item
/// popularity (Zipf), each user connecting to `degree` items.
/// Node IDs: users are `0..users`, items are `users..users+items`.
pub fn user_item(users: usize, items: usize, degree: usize, seed: u64) -> Csr {
    let n = users + items;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, 2 * users * degree);
    // Interest clusters: users come in segments, each preferring its own
    // item segment (real e-commerce graphs have strong user-interest
    // locality — the property BGL's partitioner exploits on the paper's
    // User-Item workload). Within a segment, item popularity is Zipf-ish
    // via inverse-CDF on ranks (log-uniform rank distribution, cheap and
    // heavy-headed); 10% of edges go to the global item catalogue.
    let segments = (users / 2048).max(1);
    let useg = users / segments;
    let iseg = (items / segments).max(1);
    for u in 0..users {
        let seg = (u / useg.max(1)).min(segments - 1);
        for _ in 0..degree {
            let z = rng.random::<f64>();
            let (lo, span) = if rng.random::<f64>() < 0.9 {
                (seg * iseg, iseg)
            } else {
                (0, items)
            };
            let rank = ((span as f64).powf(z) - 1.0) as usize;
            let item = users + lo + rank.min(span - 1);
            builder.add_undirected(u as NodeId, item as NodeId);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic() {
        let cfg = RmatConfig { scale: 8, edge_factor: 8, ..Default::default() };
        let g1 = rmat(cfg, 7);
        let g2 = rmat(cfg, 7);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(g1.neighbors(3), g2.neighbors(3));
    }

    #[test]
    fn rmat_different_seeds_differ() {
        let cfg = RmatConfig { scale: 8, edge_factor: 8, ..Default::default() };
        let g1 = rmat(cfg, 1);
        let g2 = rmat(cfg, 2);
        assert_ne!(
            g1.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn rmat_is_skewed_er_is_not() {
        let cfg = RmatConfig { scale: 10, edge_factor: 16, ..Default::default() };
        let hub_degree = |g: &Csr| g.degree(g.nodes_by_degree_desc()[0]);
        let skewed = hub_degree(&rmat(cfg, 3));
        let flat = hub_degree(&erdos_renyi(1024, 16 * 1024, 3));
        assert!(
            skewed > 2 * flat,
            "rmat's hub (degree {}) should dwarf ER's (degree {})",
            skewed,
            flat
        );
    }

    #[test]
    fn barabasi_albert_has_hubs() {
        let g = barabasi_albert(2000, 4, 11);
        let dmax = g.degree(g.nodes_by_degree_desc()[0]);
        assert!(dmax > 40, "BA should grow hubs, max degree = {}", dmax);
        // Minimum degree is m_attach (every new node attaches m times).
        let dmin = (0..g.num_nodes() as NodeId)
            .map(|v| g.degree(v))
            .min()
            .unwrap();
        assert!(dmin >= 4);
    }

    #[test]
    fn community_graph_mostly_intra() {
        let cfg = CommunityConfig { n: 1000, communities: 10, intra: 8, inter: 1 };
        let g = community_graph(cfg, 5);
        let size = cfg.n / cfg.communities;
        let mut intra = 0usize;
        let mut total = 0usize;
        for (u, v) in g.edges() {
            total += 1;
            if (u as usize) / size == (v as usize) / size {
                intra += 1;
            }
        }
        assert!(
            intra as f64 / total as f64 > 0.75,
            "expected mostly intra-community edges, got {}/{}",
            intra,
            total
        );
    }

    #[test]
    fn user_item_is_bipartite() {
        let (users, items) = (500, 200);
        let g = user_item(users, items, 5, 9);
        for (u, v) in g.edges() {
            let u_is_user = (u as usize) < users;
            let v_is_user = (v as usize) < users;
            assert_ne!(u_is_user, v_is_user, "edge {}-{} not bipartite", u, v);
        }
    }

    #[test]
    fn user_item_item_popularity_is_skewed() {
        let (users, items) = (2000, 500);
        let g = user_item(users, items, 8, 13);
        let mut item_degs: Vec<usize> =
            (users..users + items).map(|v| g.degree(v as NodeId)).collect();
        item_degs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = item_degs.iter().take(items / 10).sum();
        let all: usize = item_degs.iter().sum();
        assert!(
            top10 as f64 / all as f64 > 0.3,
            "top-10% items should hold >30% of edges, got {:.2}",
            top10 as f64 / all as f64
        );
    }
}
