//! GAT (Veličković et al.), single attention head, on sampled blocks.
//!
//! Per layer, with `zh = H_src · W`:
//!
//! ```text
//! s_{d,c}  = LeakyReLU( aₗ·zh[d] + aᵣ·zh[c] ),   c ∈ {d} ∪ N(d)
//! α_{d,·}  = softmax_c( s_{d,·} )
//! out[d]   = Σ_c α_{d,c} · zh[c] + b
//! ```
//!
//! ReLU between layers, linear logits at the end. The attention softmax and
//! LeakyReLU backward are hand-derived and finite-difference-checked; this
//! is also the most FLOP-heavy of the three models, which is why the paper
//! sees the smallest relative gains on GAT (compute-bound, §5.2).

use crate::agg::BlockCsr;
use crate::{GnnModel, ModelKind};
use bgl_sampler::MiniBatch;
use bgl_tensor::init::xavier_uniform;
use bgl_tensor::ops::{relu_in_place, relu_mask_in_place};
use bgl_tensor::{Matrix, Optimizer};
use rand::prelude::*;

const LEAKY: f32 = 0.2;

/// One layer's share of the step workspace (see `sage.rs`): sized by the
/// first batch, reused by every later one; scratch, not state.
#[derive(Default)]
struct LayerBufs {
    /// The block's CSR arrays. Dst `d` attends over `{d} ∪ N(d)`; see
    /// [`scores_of`] for where its scores sit in `raw` and `alpha`.
    csr: BlockCsr,
    zh: Matrix,
    /// Per src: the right attention term `aᵣ·zh[s]`.
    er: Vec<f32>,
    /// Per candidate: raw (pre-LeakyReLU) attention score.
    raw: Vec<f32>,
    /// Per candidate: softmax attention weight.
    alpha: Vec<f32>,
    /// Hidden layers: the activation `relu(z)` — the next layer's input and
    /// the ReLU mask. The last layer's output is returned, not kept.
    out: Matrix,
    dzh: Matrix,
    /// `h_srcᵀ · dzh` before it is added into `grad_w`.
    gw: Matrix,
    /// Layers ≥ 1: gradient of the layer's input, masked in place into the
    /// `dz` of the layer below.
    dh: Matrix,
}

/// Where dst `d`'s `1 + |N(d)|` scores sit in `raw` / `alpha`.
fn scores_of(csr: &BlockCsr, d: usize) -> std::ops::Range<usize> {
    csr.offsets[d] + d..csr.offsets[d + 1] + d + 1
}

/// Dst `d`'s candidates as local src indices: itself, then its neighbors.
fn cands(d: usize, nbrs: &[u32]) -> impl Iterator<Item = usize> + '_ {
    std::iter::once(d).chain(nbrs.iter().map(|&c| c as usize))
}

fn leaky(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        LEAKY * x
    }
}

/// Single-head GAT with `num_layers` attention layers.
pub struct Gat {
    dims: Vec<usize>,
    weights: Vec<Matrix>,
    attn_l: Vec<Matrix>,
    attn_r: Vec<Matrix>,
    biases: Vec<Matrix>,
    grad_w: Vec<Matrix>,
    grad_al: Vec<Matrix>,
    grad_ar: Vec<Matrix>,
    grad_b: Vec<Matrix>,
    /// The one owned copy of the input features a step keeps: unlike GCN
    /// and GraphSAGE, GAT transforms every source row first, so layer 0's
    /// `grad_w = inputᵀ · dzh` reads them again, and `backward` is not
    /// handed the caller's matrix.
    input: Matrix,
    bufs: Vec<LayerBufs>,
    /// Whether `bufs` holds a forward pass for `backward` to read.
    forwarded: bool,
}

impl Gat {
    pub fn new(in_dim: usize, hidden: usize, classes: usize, num_layers: usize, seed: u64) -> Self {
        assert!(num_layers >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![in_dim];
        for _ in 0..num_layers - 1 {
            dims.push(hidden);
        }
        dims.push(classes);
        let mut weights = Vec::new();
        let mut attn_l = Vec::new();
        let mut attn_r = Vec::new();
        let mut biases = Vec::new();
        for l in 0..num_layers {
            weights.push(xavier_uniform(dims[l], dims[l + 1], &mut rng));
            attn_l.push(xavier_uniform(1, dims[l + 1], &mut rng));
            attn_r.push(xavier_uniform(1, dims[l + 1], &mut rng));
            biases.push(Matrix::zeros(1, dims[l + 1]));
        }
        let zero_like =
            |v: &Vec<Matrix>| v.iter().map(|m| Matrix::zeros(m.rows(), m.cols())).collect();
        Gat {
            grad_w: zero_like(&weights),
            grad_al: zero_like(&attn_l),
            grad_ar: zero_like(&attn_r),
            grad_b: zero_like(&biases),
            dims,
            weights,
            attn_l,
            attn_r,
            biases,
            input: Matrix::default(),
            bufs: (0..num_layers).map(|_| LayerBufs::default()).collect(),
            forwarded: false,
        }
    }

    fn num_layers(&self) -> usize {
        self.weights.len()
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl GnnModel for Gat {
    fn kind(&self) -> ModelKind {
        ModelKind::Gat
    }

    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn forward(&mut self, batch: &MiniBatch, input: &Matrix) -> Matrix {
        assert_eq!(batch.blocks.len(), self.num_layers());
        assert_eq!(input.rows(), batch.num_input_nodes());
        assert_eq!(input.cols(), self.dims[0]);
        self.input.resize(input.rows(), input.cols());
        self.input.raw_mut().copy_from_slice(input.raw());
        let last = self.num_layers() - 1;
        let mut logits = Matrix::default();
        for (l, block) in batch.blocks.iter().enumerate() {
            let (below, rest) = self.bufs.split_at_mut(l);
            let LayerBufs { csr, zh, er, raw, alpha, out, .. } = &mut rest[0];
            csr.copy_from(block);
            let h = if l == 0 { input } else { &below[l - 1].out };
            h.matmul_into(&self.weights[l], zh);
            let al = self.attn_l[l].row(0);
            let ar = self.attn_r[l].row(0);
            // Per-src right attention term, computed once.
            er.clear();
            er.extend((0..zh.rows()).map(|s| dot(ar, zh.row(s))));
            let scores = block.num_edges() + block.num_dst();
            raw.resize(scores, 0.0);
            alpha.resize(scores, 0.0);
            let z = if l == last { &mut logits } else { out };
            z.resize(block.num_dst(), self.dims[l + 1]);
            z.fill(0.0);
            for d in 0..block.num_dst() {
                let nbrs = csr.neighbors_of(d);
                let at = scores_of(csr, d);
                let (raw, alpha) = (&mut raw[at.clone()], &mut alpha[at]);
                let el_d = dot(al, zh.row(d));
                for (r, c) in raw.iter_mut().zip(cands(d, nbrs)) {
                    *r = el_d + er[c];
                }
                // LeakyReLU then stabilized softmax.
                let max = raw.iter().map(|&x| leaky(x)).fold(f32::NEG_INFINITY, f32::max);
                for (a, &x) in alpha.iter_mut().zip(raw.iter()) {
                    *a = (leaky(x) - max).exp();
                }
                let sum: f32 = alpha.iter().sum();
                for a in alpha.iter_mut() {
                    *a /= sum;
                }
                let row = z.row_mut(d);
                for (c, &a) in cands(d, nbrs).zip(alpha.iter()) {
                    for (r, &x) in row.iter_mut().zip(zh.row(c)) {
                        *r += a * x;
                    }
                }
            }
            z.add_row_broadcast(self.biases[l].row(0));
            if l < last {
                relu_in_place(z);
            }
        }
        self.forwarded = true;
        logits
    }

    fn backward(&mut self, grad_logits: &Matrix) {
        assert!(self.forwarded, "backward requires a prior forward on the same batch");
        let last = self.num_layers() - 1;
        let mut dalpha = Vec::new();
        for l in (0..=last).rev() {
            let (lower, upper) = self.bufs.split_at_mut(l + 1);
            let (below, cur) = lower.split_at_mut(l);
            let LayerBufs { csr, zh, raw, alpha, out, dzh, gw, dh, .. } = &mut cur[0];
            // Through the activation (last layer is linear).
            let dz = if l == last {
                grad_logits
            } else {
                let g = &mut upper[0].dh;
                relu_mask_in_place(out, g);
                &*g
            };
            self.grad_b[l].add_assign(&Matrix::from_vec(1, dz.cols(), dz.col_sums()));
            let al = self.attn_l[l].row(0);
            let ar = self.attn_r[l].row(0);
            dzh.resize(zh.rows(), zh.cols());
            dzh.fill(0.0);
            let mut dal = vec![0.0f32; al.len()];
            let mut dar = vec![0.0f32; ar.len()];
            for d in 0..dz.rows() {
                let g = dz.row(d);
                let nbrs = csr.neighbors_of(d);
                let at = scores_of(csr, d);
                let (raw, alpha) = (&raw[at.clone()], &alpha[at]);
                // dα_c = g · zh[c]; value path dzh[c] += α_c g.
                dalpha.clear();
                for (c, &a) in cands(d, nbrs).zip(alpha) {
                    dalpha.push(dot(g, zh.row(c)));
                    for (r, &x) in dzh.row_mut(c).iter_mut().zip(g) {
                        *r += a * x;
                    }
                }
                // Softmax backward: ds_c = α_c (dα_c − Σ_j α_j dα_j).
                let dot_ad: f32 = alpha.iter().zip(&dalpha).map(|(&a, &da)| a * da).sum();
                // LeakyReLU backward on the raw scores, then fan out to
                // attention vectors and zh.
                let mut del_d = 0.0f32;
                for (k, c) in cands(d, nbrs).enumerate() {
                    let ds = alpha[k] * (dalpha[k] - dot_ad);
                    let draw = if raw[k] > 0.0 { ds } else { LEAKY * ds };
                    del_d += draw;
                    for (gr, &x) in dar.iter_mut().zip(zh.row(c)) {
                        *gr += draw * x;
                    }
                    for (r, &a) in dzh.row_mut(c).iter_mut().zip(ar) {
                        *r += draw * a;
                    }
                }
                for (gl, &x) in dal.iter_mut().zip(zh.row(d)) {
                    *gl += del_d * x;
                }
                for (r, &a) in dzh.row_mut(d).iter_mut().zip(al) {
                    *r += del_d * a;
                }
            }
            self.grad_al[l].add_assign(&Matrix::from_vec(1, dal.len(), dal));
            self.grad_ar[l].add_assign(&Matrix::from_vec(1, dar.len(), dar));
            let h_src = if l == 0 { &self.input } else { &below[l - 1].out };
            h_src.matmul_tn_into(dzh, gw);
            self.grad_w[l].add_assign(gw);
            // Layer 0 stops here: the input features are not parameters,
            // so nothing reads d(loss)/d(input) and it is not computed.
            if l > 0 {
                dzh.matmul_nt_into(&self.weights[l], dh);
            }
        }
    }

    fn apply(&mut self, opt: &mut dyn Optimizer) {
        for l in 0..self.num_layers() {
            opt.step(4 * l, &mut self.weights[l], &self.grad_w[l]);
            opt.step(4 * l + 1, &mut self.attn_l[l], &self.grad_al[l]);
            opt.step(4 * l + 2, &mut self.attn_r[l], &self.grad_ar[l]);
            opt.step(4 * l + 3, &mut self.biases[l], &self.grad_b[l]);
            // By assignment: `scale(0.0)` keeps a NaN or ∞ gradient alive
            // (0·∞ = NaN) into every later step.
            self.grad_w[l].fill(0.0);
            self.grad_al[l].fill(0.0);
            self.grad_ar[l].fill(0.0);
            self.grad_b[l].fill(0.0);
        }
    }

    fn param_vec(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for l in 0..self.num_layers() {
            out.extend_from_slice(self.weights[l].raw());
            out.extend_from_slice(self.attn_l[l].raw());
            out.extend_from_slice(self.attn_r[l].raw());
            out.extend_from_slice(self.biases[l].raw());
        }
        out
    }

    fn load_param_vec(&mut self, flat: &[f32]) {
        let mut pos = 0;
        for l in 0..self.num_layers() {
            crate::load_chunk(flat, &mut pos, &mut self.weights[l]);
            crate::load_chunk(flat, &mut pos, &mut self.attn_l[l]);
            crate::load_chunk(flat, &mut pos, &mut self.attn_r[l]);
            crate::load_chunk(flat, &mut pos, &mut self.biases[l]);
        }
        assert_eq!(pos, flat.len(), "param vector length mismatch for Gat");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::gradcheck::{check_model, small_batch};
    use bgl_tensor::Adam;

    #[test]
    fn forward_shapes_and_alpha_sums() {
        let (batch, input, _) = small_batch(2, 5);
        let mut m = Gat::new(5, 6, 4, 2, 1);
        let logits = m.forward(&batch, &input);
        assert_eq!((logits.rows(), logits.cols()), (3, 4));
        for (layer, block) in m.bufs.iter().zip(&batch.blocks) {
            for d in 0..block.num_dst() {
                let alpha = &layer.alpha[scores_of(&layer.csr, d)];
                assert_eq!(alpha.len(), 1 + block.neighbors_of(d).len());
                let sum: f32 = alpha.iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "attention rows must sum to 1");
                assert!(alpha.iter().all(|&a| a >= 0.0));
            }
        }
    }

    #[test]
    fn weight_gradients_match_finite_differences() {
        let (batch, input, labels) = small_batch(2, 4);
        let probes = vec![(0, 0, 0), (0, 3, 2), (1, 2, 1), (1, 4, 0)];
        check_model(
            || Gat::new(4, 5, 3, 2, 42),
            &batch,
            &input,
            &labels,
            &probes,
            |m, p| m.weights[p].clone(),
            |m, p, w| m.weights[p] = w,
            |m, p| m.grad_w[p].clone(),
            3e-2,
        );
    }

    #[test]
    fn attention_gradients_match_finite_differences() {
        let (batch, input, labels) = small_batch(2, 4);
        let probes = vec![(0, 0, 0), (0, 0, 3), (1, 0, 1)];
        check_model(
            || Gat::new(4, 5, 3, 2, 42),
            &batch,
            &input,
            &labels,
            &probes,
            |m, p| m.attn_l[p].clone(),
            |m, p, a| m.attn_l[p] = a,
            |m, p| m.grad_al[p].clone(),
            3e-2,
        );
        check_model(
            || Gat::new(4, 5, 3, 2, 42),
            &batch,
            &input,
            &labels,
            &probes,
            |m, p| m.attn_r[p].clone(),
            |m, p, a| m.attn_r[p] = a,
            |m, p| m.grad_ar[p].clone(),
            3e-2,
        );
    }

    #[test]
    fn training_reduces_loss() {
        let (batch, input, labels) = small_batch(2, 4);
        let mut m = Gat::new(4, 8, 3, 2, 11);
        let mut opt = Adam::new(0.01);
        let first = m.train_step(&batch, &input, &labels, &mut opt).0;
        let mut last = first;
        for _ in 0..50 {
            last = m.train_step(&batch, &input, &labels, &mut opt).0;
        }
        assert!(last < first * 0.5, "loss {} -> {}", first, last);
    }
}
