//! Property-based tests for the graph substrate.

use bgl_graph::generate::{self, RmatConfig};
use bgl_graph::traversal::{bfs_full_order, multi_source_bfs};
use bgl_graph::{Csr, GraphBuilder, InducedSubgraph, NodeId};
use proptest::prelude::*;

/// Arbitrary small graph as (node count, arc list).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..40).prop_flat_map(|n| {
        let arcs = proptest::collection::vec(
            (0..n as NodeId, 0..n as NodeId),
            0..200,
        );
        (Just(n), arcs)
    })
}

/// `InducedSubgraph::induce` as it stood before it lost its hash map: a
/// hashed `global → local` map, then `GraphBuilder`'s arc list, counting
/// sort and per-row sort. The reference the dense-id version must equal,
/// array for array.
fn reference_induce(g: &Csr, nodes: &[NodeId]) -> InducedSubgraph {
    let mut local_of = std::collections::HashMap::with_capacity(nodes.len());
    for (i, &v) in nodes.iter().enumerate() {
        let prev = local_of.insert(v, i as NodeId);
        assert!(prev.is_none(), "duplicate node {} in induced set", v);
    }
    let mut b = GraphBuilder::new(nodes.len());
    for (lu, &u) in nodes.iter().enumerate() {
        for &v in g.neighbors(u) {
            if let Some(&lv) = local_of.get(&v) {
                b.add_edge(lu as NodeId, lv);
            }
        }
    }
    InducedSubgraph { graph: b.build(), global_ids: nodes.to_vec() }
}

#[track_caller]
fn assert_induce_matches_reference(g: &Csr, nodes: &[NodeId]) {
    let (got, want) = (InducedSubgraph::induce(g, nodes), reference_induce(g, nodes));
    assert_eq!(got.graph.offsets(), want.graph.offsets(), "offsets, nodes {nodes:?}");
    assert_eq!(got.graph.targets(), want.graph.targets(), "targets, nodes {nodes:?}");
    assert_eq!(got.global_ids, want.global_ids, "global ids, nodes {nodes:?}");
}

/// The first `take` nodes of `0..n` in the order `keys` sorts them into: a
/// duplicate-free subset in arbitrary order, empty at `take == 0` and the
/// whole graph at `take >= n`.
fn subset(n: usize, keys: &[u64], take: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
    nodes.sort_by_key(|&v| (keys[v as usize % keys.len()], v));
    nodes.truncate(take);
    nodes
}

/// A CSR straight from `Csr::from_parts`, which checks ranges only: rows
/// unsorted, with repeated arcs and self-loops.
fn arb_raw_csr() -> impl Strategy<Value = Csr> {
    (1usize..24)
        .prop_flat_map(|n| {
            proptest::collection::vec(proptest::collection::vec(0..n as NodeId, 0..12), n)
        })
        .prop_map(|rows| {
            let mut offsets = vec![0u64];
            for row in &rows {
                offsets.push(offsets.last().unwrap() + row.len() as u64);
            }
            Csr::from_parts(offsets, rows.concat())
        })
}

proptest! {
    #[test]
    fn induce_equals_its_reference_on_built_graphs(
        (n, arcs) in arb_graph(),
        keys in proptest::collection::vec(any::<u64>(), 1..40),
        take in 0usize..48,
    ) {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(&arcs);
        let g = b.build();
        assert_induce_matches_reference(&g, &subset(n, &keys, take));
        assert_induce_matches_reference(&g, &[]);
        assert_induce_matches_reference(&g, &subset(n, &keys, n));
    }

    #[test]
    fn induce_equals_its_reference_on_raw_csr(
        g in arb_raw_csr(),
        keys in proptest::collection::vec(any::<u64>(), 1..24),
        take in 0usize..30,
    ) {
        let n = g.num_nodes();
        assert_induce_matches_reference(&g, &subset(n, &keys, take));
        assert_induce_matches_reference(&g, &subset(n, &keys, n));
    }

    #[test]
    fn builder_output_is_sorted_unique_in_range((n, arcs) in arb_graph()) {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(&arcs);
        let g = b.build();
        prop_assert_eq!(g.num_nodes(), n);
        for v in 0..n as NodeId {
            let nbrs = g.neighbors(v);
            for w in nbrs.windows(2) {
                prop_assert!(w[0] < w[1], "neighbors not sorted/unique");
            }
            for &t in nbrs {
                prop_assert!((t as usize) < n);
                prop_assert_ne!(t, v, "self-loop survived");
            }
        }
    }

    #[test]
    fn builder_preserves_every_non_loop_arc((n, arcs) in arb_graph()) {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(&arcs);
        let g = b.build();
        for &(u, v) in &arcs {
            if u != v {
                prop_assert!(g.has_edge(u, v), "lost arc {}->{}", u, v);
            }
        }
    }

    #[test]
    fn bfs_full_order_is_a_permutation((n, arcs) in arb_graph()) {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(&arcs);
        let g = b.build();
        let order = bfs_full_order(&g, 0);
        prop_assert_eq!(order.len(), n);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), n, "order has duplicates");
    }

    #[test]
    fn multi_source_bfs_partitions_reached_nodes(
        (n, arcs) in arb_graph(),
        k in 1usize..5,
    ) {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(&arcs);
        let g = b.build();
        let sources: Vec<NodeId> =
            (0..k.min(n)).map(|i| (i * n / k.min(n)) as NodeId).collect();
        let res = multi_source_bfs(&g, &sources, usize::MAX);
        // Every reached node carries a valid source index and sizes add up.
        let reached = res.assignment.iter().filter(|&&a| a != u32::MAX).count();
        prop_assert_eq!(res.block_sizes.iter().sum::<usize>(), reached);
        for &a in &res.assignment {
            prop_assert!(a == u32::MAX || (a as usize) < sources.len());
        }
        // Sources that appear first claim themselves.
        prop_assert!(res.assignment[sources[0] as usize] != u32::MAX);
    }

    #[test]
    fn induced_subgraph_edges_exist_in_parent((n, arcs) in arb_graph()) {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(&arcs);
        let g = b.build();
        let nodes: Vec<NodeId> = (0..n as NodeId).step_by(2).collect();
        let sub = InducedSubgraph::induce(&g, &nodes);
        for (lu, lv) in sub.graph.edges() {
            let gu = sub.global_ids[lu as usize];
            let gv = sub.global_ids[lv as usize];
            prop_assert!(g.has_edge(gu, gv));
        }
    }

    #[test]
    fn rmat_edge_count_bounded(scale in 4u32..9, ef in 1usize..8) {
        let g = generate::rmat(
            RmatConfig { scale, edge_factor: ef, ..Default::default() },
            scale as u64 * 31 + ef as u64,
        );
        let n = 1usize << scale;
        prop_assert_eq!(g.num_nodes(), n);
        // Undirected insertion: at most 2 arcs per drawn edge.
        prop_assert!(g.num_edges() <= 2 * ef * n);
    }

    /// f16 round-trip: widening a narrowed value must be a fixed point
    /// (idempotent quantization) with bounded error, for arbitrary bit
    /// patterns — covering subnormals, ±inf and NaN payloads.
    #[test]
    fn f16_quantization_is_idempotent_and_bounded(bits in any::<u32>()) {
        use bgl_graph::half::quantize_f16;
        let x = f32::from_bits(bits);
        let q = quantize_f16(x);
        // Idempotence: a value already representable in f16 is unchanged.
        prop_assert_eq!(
            quantize_f16(q).to_bits(),
            q.to_bits(),
            "re-quantizing {} moved the bits",
            q
        );
        if x.is_nan() {
            prop_assert!(q.is_nan(), "NaN payload collapsed to {}", q);
        } else if x.is_infinite() {
            prop_assert_eq!(q, x);
        } else if x.abs() >= 65520.0 {
            // Beyond the f16 rounding boundary: overflow to same-sign inf.
            prop_assert!(q.is_infinite() && q.is_sign_positive() == x.is_sign_positive());
        } else if x.abs() >= 6.104e-5 {
            // Normal f16 range: relative error ≤ 2^-11.
            prop_assert!(((q - x) / x).abs() <= 4.9e-4, "x={} q={}", x, q);
        } else {
            // Subnormal range: absolute error ≤ half the subnormal step.
            prop_assert!((q - x).abs() <= 2.0f32.powi(-25), "x={} q={}", x, q);
        }
        // Sign is always preserved (including on zeros and NaNs).
        prop_assert_eq!(q.is_sign_positive(), x.is_sign_positive());
    }

    /// Storing a row at f16 and widening it back agrees with scalar
    /// quantization elementwise.
    #[test]
    fn f16_row_storage_matches_scalar_quantization(
        row in proptest::collection::vec(any::<u32>(), 0..64),
    ) {
        use bgl_graph::half::{quantize_f16, RowBuf, RowRef};
        use bgl_graph::FeaturePrecision;
        let row: Vec<f32> = row.into_iter().map(f32::from_bits).collect();
        let mut stored = RowBuf::with_capacity(FeaturePrecision::F16, row.len());
        stored.push_row(RowRef::F32(&row));
        prop_assert_eq!(stored.len(), row.len());
        let mut back = vec![0.0f32; row.len()];
        stored.as_row().widen_into(&mut back);
        for (&x, &b) in row.iter().zip(&back) {
            prop_assert_eq!(b.to_bits(), quantize_f16(x).to_bits());
        }
    }

    /// FeatureBlock: arbitrary placements read back the exact placed row,
    /// unplaced positions read zeros.
    #[test]
    fn feature_block_placement_round_trips(
        dim in 1usize..6,
        rows in 1usize..12,
        seed in any::<u64>(),
    ) {
        use bgl_graph::FeatureBlock;
        let mut b = FeatureBlock::new(dim, rows);
        // Deterministic pseudo-random placement of a single segment.
        let seg_rows = (seed as usize % rows).max(1);
        let buf: Vec<f32> = (0..seg_rows * dim).map(|i| i as f32 + 0.5).collect();
        let seg = b.adopt_segment(buf.clone());
        let mut placed = vec![None; rows];
        // Reduced first: `seed + r * 7` overflows for seeds near u64::MAX.
        let start = seed as usize % rows;
        for r in 0..seg_rows {
            let pos = (start + r * 7) % rows;
            b.place(pos, seg, r);
            placed[pos] = Some(r);
        }
        for (pos, p) in placed.iter().enumerate() {
            match p {
                Some(r) => prop_assert_eq!(b.row(pos), &buf[r * dim..(r + 1) * dim]),
                None => prop_assert!(b.row(pos).iter().all(|&x| x == 0.0)),
            }
        }
    }

    #[test]
    fn gather_matches_rows(dim in 1usize..8, n in 1usize..20) {
        let mut f = bgl_graph::FeatureStore::zeros(n, dim);
        for v in 0..n as NodeId {
            for (j, x) in f.row_mut(v).iter_mut().enumerate() {
                *x = (v as usize * dim + j) as f32;
            }
        }
        let ids: Vec<NodeId> = (0..n as NodeId).rev().collect();
        let gathered = f.gather(&ids);
        for (i, &v) in ids.iter().enumerate() {
            prop_assert_eq!(&gathered[i * dim..(i + 1) * dim], f.row(v));
        }
    }
}

/// One step of a read script against `bgl_graph::le::Reader`.
#[derive(Clone, Debug)]
enum Read {
    U8,
    U32,
    U64,
    I64,
    F32,
    Take(usize),
    VecU16(usize),
    VecU32(usize),
    VecU64(usize),
    VecF32(usize),
    Finish,
}

fn arb_read() -> impl Strategy<Value = Read> {
    // Counts are mostly small (so scripts get somewhere) and sometimes any
    // usize at all (so the multiply-by-width and the comparison both see
    // values that would overflow or wrap a `pos + n`).
    let n = || prop_oneof![0usize..12, 0usize..12, any::<usize>()];
    prop_oneof![
        Just(Read::U8),
        Just(Read::U32),
        Just(Read::U64),
        Just(Read::I64),
        Just(Read::F32),
        n().prop_map(Read::Take),
        n().prop_map(Read::VecU16),
        n().prop_map(Read::VecU32),
        n().prop_map(Read::VecU64),
        n().prop_map(Read::VecF32),
        Just(Read::Finish),
    ]
}

proptest! {
    /// The cursor against a plain model (an offset into the input): any
    /// script over any bytes never panics; a read succeeds exactly when the
    /// bytes it needs are left, returns those bytes' little-endian value and
    /// consumes nothing when it fails; and no vector it returns holds (or
    /// has reserved) more than the input could back.
    #[test]
    fn cursor_follows_its_model_on_arbitrary_bytes_and_scripts(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        script in proptest::collection::vec(arb_read(), 0..24),
    ) {
        use bgl_graph::half::LeScalar;
        use bgl_graph::le::Reader;

        fn check_vec<T: LeScalar + PartialEq + std::fmt::Debug>(
            got: Option<Vec<T>>,
            rest: &[u8],
            n: usize,
        ) -> Result<usize, TestCaseError> {
            let need = n.checked_mul(T::BYTES).filter(|&b| b <= rest.len());
            prop_assert_eq!(got.is_some(), need.is_some());
            if let (Some(v), Some(need)) = (got, need) {
                prop_assert_eq!(v.len(), n);
                prop_assert!(v.capacity() * T::BYTES <= rest.len(), "reserved past the input");
                let want: Vec<T> = rest[..need].chunks_exact(T::BYTES).map(T::get_le).collect();
                prop_assert_eq!(v, want);
            }
            Ok(need.unwrap_or(0))
        }

        let mut r = Reader::new(&bytes);
        let mut at = 0usize;
        for step in script {
            let rest = &bytes[at..];
            let fixed = |n: usize| rest.get(..n);
            at += match step {
                Read::U8 => {
                    prop_assert_eq!(r.u8(), fixed(1).map(|b| b[0]));
                    fixed(1).map_or(0, <[u8]>::len)
                }
                Read::U32 => {
                    let want = fixed(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
                    prop_assert_eq!(r.u32(), want);
                    fixed(4).map_or(0, <[u8]>::len)
                }
                Read::U64 => {
                    let want = fixed(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()));
                    prop_assert_eq!(r.u64(), want);
                    fixed(8).map_or(0, <[u8]>::len)
                }
                Read::I64 => {
                    let want = fixed(8).map(|b| i64::from_le_bytes(b.try_into().unwrap()));
                    prop_assert_eq!(r.i64(), want);
                    fixed(8).map_or(0, <[u8]>::len)
                }
                Read::F32 => {
                    let want = fixed(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
                    prop_assert_eq!(r.f32().map(f32::to_bits), want);
                    fixed(4).map_or(0, <[u8]>::len)
                }
                Read::Take(n) => {
                    prop_assert_eq!(r.take(n), fixed(n));
                    fixed(n).map_or(0, <[u8]>::len)
                }
                Read::VecU16(n) => check_vec(r.vec::<u16>(n), rest, n)?,
                Read::VecU32(n) => check_vec(r.vec::<u32>(n), rest, n)?,
                Read::VecU64(n) => check_vec(r.vec::<u64>(n), rest, n)?,
                Read::VecF32(n) => {
                    let got = r.vec::<f32>(n).map(|v| v.into_iter().map(f32::to_bits).collect());
                    check_vec::<u32>(got, rest, n)?
                }
                Read::Finish => {
                    prop_assert_eq!(r.finish().is_some(), rest.is_empty());
                    0
                }
            };
        }
    }

    /// Counts whose byte size overflows, or merely dwarfs any input, are the
    /// short error at every width — decided before anything is allocated.
    #[test]
    fn cursor_refuses_huge_counts_without_allocating(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        shift in 0u32..4,
    ) {
        use bgl_graph::le::Reader;
        let n = usize::MAX >> shift; // MAX, MAX/2, MAX/4, MAX/8
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.take(n), None);
        prop_assert_eq!(r.vec::<u16>(n), None);
        prop_assert_eq!(r.vec::<u32>(n), None);
        prop_assert_eq!(r.vec::<f32>(n), None);
        prop_assert_eq!(r.vec::<u64>(n), None);
        // Nothing was consumed by the refusals.
        prop_assert_eq!(r.take(bytes.len()), Some(&bytes[..]));
    }
}

/// Whatever `induce` keeps between calls must grow with the graph and come
/// back clean: two graphs of different sizes, alternately, on one thread.
#[test]
fn induce_alternating_between_graph_sizes_on_one_thread() {
    let small = generate::rmat(RmatConfig { scale: 5, edge_factor: 4, ..Default::default() }, 3);
    let large = generate::rmat(RmatConfig { scale: 9, edge_factor: 6, ..Default::default() }, 4);
    for round in 0..4u64 {
        for g in [&small, &large, &small] {
            let n = g.num_nodes();
            let keys: Vec<u64> =
                (0..n as u64).map(|v| bgl_graph::hash::mix64(round, v)).collect();
            assert_induce_matches_reference(g, &subset(n, &keys, n / 3));
            assert_induce_matches_reference(g, &subset(n, &keys, n));
        }
    }
}

/// A call that panics — a repeated id, an id the graph does not have —
/// leaves nothing behind for the next call on the same thread.
#[test]
fn induce_after_a_panicking_call_on_the_same_thread() {
    let g = generate::rmat(RmatConfig { scale: 6, edge_factor: 4, ..Default::default() }, 9);
    let n = g.num_nodes() as NodeId;
    for bad in [vec![5, 9, 2, 9], vec![1, n, 3], vec![n + 7]] {
        let panicked = std::panic::catch_unwind(|| InducedSubgraph::induce(&g, &bad));
        assert!(panicked.is_err(), "induce accepted {bad:?}");
        assert_induce_matches_reference(&g, &[9, 5, 1, 2, 3, 0]);
        assert_induce_matches_reference(&g, &(0..n).rev().collect::<Vec<_>>());
    }
}
