//! Block aggregation kernels (forward + backward), writing into the
//! caller's step workspace.
//!
//! Every sum here keeps the order the allocate-everything formulation had
//! (`tests/step_equiv.rs` keeps that formulation and holds these to it
//! bitwise): a mean starts from `0.0`, adds the destination's own row first
//! when it is included, then the sampled neighbours in block order, then
//! divides; a scatter walks the destinations in order and adds `g / denom`
//! per element.

use bgl_sampler::LayerBlock;
use bgl_tensor::Matrix;
use std::ops::Range;

/// `seg = mean(h[d] if include_self, h[s] for s in nbrs)`; zeros when the
/// set is empty (an isolated GraphSAGE destination).
fn mean_row(h: &Matrix, d: usize, nbrs: &[u32], include_self: bool, seg: &mut [f32]) {
    seg.fill(0.0);
    let denom = (nbrs.len() + usize::from(include_self)) as f32;
    if denom == 0.0 {
        return;
    }
    if include_self {
        for (o, &x) in seg.iter_mut().zip(h.row(d)) {
            *o += x;
        }
    }
    for &sl in nbrs {
        for (o, &x) in seg.iter_mut().zip(h.row(sl as usize)) {
            *o += x;
        }
    }
    for o in seg.iter_mut() {
        *o /= denom;
    }
}

/// GCN's aggregate: `agg[d] = mean(h over {d} ∪ sampled N(d))`.
pub(crate) fn gather_mean(block: &LayerBlock, h: &Matrix, agg: &mut Matrix) {
    agg.resize(block.num_dst(), h.cols());
    for d in 0..block.num_dst() {
        mean_row(h, d, block.neighbors_of(d), true, agg.row_mut(d));
    }
}

/// GraphSAGE's GEMM operand in one pass: `concat[d] = [h[d] ‖ mean(h over
/// sampled N(d))]`, each half written where the product reads it.
pub(crate) fn gather_concat(block: &LayerBlock, h: &Matrix, concat: &mut Matrix) {
    let dim = h.cols();
    concat.resize(block.num_dst(), 2 * dim);
    for d in 0..block.num_dst() {
        let (own, neigh) = concat.row_mut(d).split_at_mut(dim);
        own.copy_from_slice(h.row(d));
        mean_row(h, d, block.neighbors_of(d), false, neigh);
    }
}

/// The part of a sampled block `backward` reads — its CSR arrays — copied
/// into reused vectors by `forward` (the node-id lists are not needed again).
#[derive(Default)]
pub(crate) struct BlockCsr {
    pub offsets: Vec<usize>,
    srcs: Vec<u32>,
}

impl BlockCsr {
    pub fn copy_from(&mut self, block: &LayerBlock) {
        self.offsets.clear();
        self.offsets.extend_from_slice(&block.offsets);
        self.srcs.clear();
        self.srcs.extend_from_slice(&block.srcs);
    }

    pub fn num_dst(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sampled neighbor slice (local src indices) of local dst `d`.
    pub fn neighbors_of(&self, d: usize) -> &[u32] {
        &self.srcs[self.offsets[d]..self.offsets[d + 1]]
    }
}

/// Backward of the two gathers' mean: scatter columns `cols` of `grad`
/// (one row per destination of `block`) back to the `num_src` sources as
/// `dh`.
pub(crate) fn scatter_mean(
    block: &BlockCsr,
    grad: &Matrix,
    cols: Range<usize>,
    include_self: bool,
    num_src: usize,
    dh: &mut Matrix,
) {
    dh.resize(num_src, cols.len());
    dh.fill(0.0);
    for d in 0..block.num_dst() {
        let nbrs = block.neighbors_of(d);
        let denom = (nbrs.len() + usize::from(include_self)) as f32;
        if denom == 0.0 {
            continue;
        }
        let g = &grad.row(d)[cols.clone()];
        if include_self {
            for (r, &x) in dh.row_mut(d).iter_mut().zip(g) {
                *r += x / denom;
            }
        }
        for &sl in nbrs {
            for (r, &x) in dh.row_mut(sl as usize).iter_mut().zip(g) {
                *r += x / denom;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block: 2 dsts; dst0 has srcs {2,3}, dst1 has none. 4 srcs total.
    fn block() -> LayerBlock {
        LayerBlock {
            dst_nodes: vec![10, 11],
            src_nodes: vec![10, 11, 20, 21],
            offsets: vec![0, 2, 2],
            srcs: vec![2, 3],
        }
    }

    fn h_src() -> Matrix {
        Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.])
    }

    /// A buffer that arrives with another shape and stale values.
    fn dirty() -> Matrix {
        Matrix::from_vec(3, 3, vec![f32::NAN; 9])
    }

    #[test]
    fn mean_with_self() {
        let mut out = dirty();
        gather_mean(&block(), &h_src(), &mut out);
        assert_eq!((out.rows(), out.cols()), (2, 2));
        // dst0: mean of rows 0,2,3 = (1+5+7)/3, (2+6+8)/3
        assert_eq!(out.row(0), &[13.0 / 3.0, 16.0 / 3.0]);
        // dst1: only self
        assert_eq!(out.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn concat_is_self_then_neighbor_mean() {
        let mut out = dirty();
        gather_concat(&block(), &h_src(), &mut out);
        assert_eq!((out.rows(), out.cols()), (2, 4));
        assert_eq!(out.row(0), &[1.0, 2.0, 6.0, 7.0]);
        assert_eq!(out.row(1), &[3.0, 4.0, 0.0, 0.0], "isolated dst aggregates to zero");
    }

    #[test]
    fn scatter_matches_finite_difference() {
        let b = block();
        let h = h_src();
        // Scalar loss = Σ weights ∘ mean(...), so every gradient entry is
        // exercised; the means sit in columns 2..4 of the concat layout.
        let weights = Matrix::from_vec(2, 4, vec![0.0, 0.0, 0.3, -0.7, 0.0, 0.0, 1.1, 0.5]);
        for include_self in [true, false] {
            let loss = |h: &Matrix| -> f32 {
                let mut out = Matrix::zeros(0, 0);
                if include_self {
                    gather_mean(&b, h, &mut out);
                    out.raw().iter().zip([0.3, -0.7, 1.1, 0.5]).map(|(&m, w)| m * w).sum()
                } else {
                    gather_concat(&b, h, &mut out);
                    out.raw().iter().zip(weights.raw()).map(|(&m, &w)| m * w).sum()
                }
            };
            let mut grad = dirty();
            let mut csr = BlockCsr::default();
            csr.copy_from(&b);
            scatter_mean(&csr, &weights, 2..4, include_self, 4, &mut grad);
            assert_eq!((grad.rows(), grad.cols()), (4, 2));
            let eps = 1e-3;
            for i in 0..4 {
                for j in 0..2 {
                    let mut hp = h.clone();
                    hp.set(i, j, hp.get(i, j) + eps);
                    let mut hm = h.clone();
                    hm.set(i, j, hm.get(i, j) - eps);
                    let fd = (loss(&hp) - loss(&hm)) / (2.0 * eps);
                    assert!(
                        (grad.get(i, j) - fd).abs() < 1e-3,
                        "self={} grad[{},{}]={} fd={}",
                        include_self,
                        i,
                        j,
                        grad.get(i, j),
                        fd
                    );
                }
            }
        }
    }
}
