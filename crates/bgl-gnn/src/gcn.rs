//! GCN (Kipf & Welling) on sampled blocks.
//!
//! Per layer: `H_dst = σ( mean(H_src over {d} ∪ N(d)) · W + b )`, the
//! mean-normalized convolution used for sampled training (exact symmetric
//! normalization needs global degrees, which mini-batch sampling does not
//! see — this is also what DGL's `GraphConv(norm='right')` computes on
//! blocks, plus self edges). ReLU between layers, linear logits at the end.

use crate::agg::{gather_mean, scatter_mean, BlockCsr};
use crate::{GnnModel, ModelKind};
use bgl_sampler::MiniBatch;
use bgl_tensor::init::xavier_uniform;
use bgl_tensor::ops::{relu_in_place, relu_mask_in_place};
use bgl_tensor::{Matrix, Optimizer};
use rand::prelude::*;

/// One layer's share of the step workspace (see `sage.rs`): sized by the
/// first batch, reused by every later one; scratch, not state.
#[derive(Default)]
struct LayerBufs {
    /// Aggregated features (dst side), the linear-map input; `backward`
    /// reads it for `grad_w`.
    agg: Matrix,
    /// Hidden layers: the activation `relu(z)` — the next layer's input and
    /// the ReLU mask. The last layer's output is returned, not kept.
    out: Matrix,
    /// Layers ≥ 1: the block's CSR arrays, which `backward` scatters along.
    csr: BlockCsr,
    /// `aggᵀ · dz` before it is added into `grad_w`.
    gw: Matrix,
    /// Layers ≥ 1: `dz · Wᵀ`.
    dagg: Matrix,
    /// Layers ≥ 1: gradient of the layer's input, masked in place into the
    /// `dz` of the layer below.
    dh: Matrix,
}

/// A GCN with `num_layers` graph convolutions.
pub struct Gcn {
    dims: Vec<usize>,
    weights: Vec<Matrix>,
    biases: Vec<Matrix>,
    grad_w: Vec<Matrix>,
    grad_b: Vec<Matrix>,
    bufs: Vec<LayerBufs>,
    /// Whether `bufs` holds a forward pass for `backward` to read.
    forwarded: bool,
}

impl Gcn {
    pub fn new(in_dim: usize, hidden: usize, classes: usize, num_layers: usize, seed: u64) -> Self {
        assert!(num_layers >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![in_dim];
        for _ in 0..num_layers - 1 {
            dims.push(hidden);
        }
        dims.push(classes);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for l in 0..num_layers {
            weights.push(xavier_uniform(dims[l], dims[l + 1], &mut rng));
            biases.push(Matrix::zeros(1, dims[l + 1]));
        }
        let grad_w = weights.iter().map(|w| Matrix::zeros(w.rows(), w.cols())).collect();
        let grad_b = biases.iter().map(|b| Matrix::zeros(1, b.cols())).collect();
        Gcn {
            dims,
            weights,
            biases,
            grad_w,
            grad_b,
            bufs: (0..num_layers).map(|_| LayerBufs::default()).collect(),
            forwarded: false,
        }
    }

    fn num_layers(&self) -> usize {
        self.weights.len()
    }
}

impl GnnModel for Gcn {
    fn kind(&self) -> ModelKind {
        ModelKind::Gcn
    }

    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn forward(&mut self, batch: &MiniBatch, input: &Matrix) -> Matrix {
        assert_eq!(
            batch.blocks.len(),
            self.num_layers(),
            "batch depth must match layer count"
        );
        assert_eq!(input.rows(), batch.num_input_nodes());
        assert_eq!(input.cols(), self.dims[0]);
        let last = self.num_layers() - 1;
        let mut logits = Matrix::default();
        for (l, block) in batch.blocks.iter().enumerate() {
            let (below, rest) = self.bufs.split_at_mut(l);
            let LayerBufs { agg, out, csr, .. } = &mut rest[0];
            // Layer 0 reads the caller's features in place: they are not
            // trained, so `backward` never needs them again.
            let h = if l == 0 { input } else { &below[l - 1].out };
            gather_mean(block, h, agg);
            let z = if l == last { &mut logits } else { out };
            agg.matmul_into(&self.weights[l], z);
            z.add_row_broadcast(self.biases[l].row(0));
            if l < last {
                relu_in_place(z);
            }
            if l > 0 {
                csr.copy_from(block);
            }
        }
        self.forwarded = true;
        logits
    }

    fn backward(&mut self, grad_logits: &Matrix) {
        assert!(self.forwarded, "backward requires a prior forward on the same batch");
        let last = self.num_layers() - 1;
        for l in (0..=last).rev() {
            let (lower, upper) = self.bufs.split_at_mut(l + 1);
            let (below, cur) = lower.split_at_mut(l);
            let LayerBufs { agg, out, csr, gw, dagg, dh } = &mut cur[0];
            // Through the activation (last layer is linear).
            let dz = if l == last {
                grad_logits
            } else {
                let g = &mut upper[0].dh;
                relu_mask_in_place(out, g);
                &*g
            };
            agg.matmul_tn_into(dz, gw);
            self.grad_w[l].add_assign(gw);
            self.grad_b[l].add_assign(&Matrix::from_vec(1, dz.cols(), dz.col_sums()));
            if l == 0 {
                // The input features are not parameters: nothing reads
                // d(loss)/d(input), so it is not computed.
                break;
            }
            dz.matmul_nt_into(&self.weights[l], dagg);
            let num_src = below[l - 1].out.rows();
            scatter_mean(csr, dagg, 0..self.dims[l], true, num_src, dh);
        }
    }

    fn apply(&mut self, opt: &mut dyn Optimizer) {
        for l in 0..self.num_layers() {
            opt.step(2 * l, &mut self.weights[l], &self.grad_w[l]);
            opt.step(2 * l + 1, &mut self.biases[l], &self.grad_b[l]);
            // By assignment: `scale(0.0)` keeps a NaN or ∞ gradient alive
            // (0·∞ = NaN) into every later step.
            self.grad_w[l].fill(0.0);
            self.grad_b[l].fill(0.0);
        }
    }

    fn param_vec(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for l in 0..self.num_layers() {
            out.extend_from_slice(self.weights[l].raw());
            out.extend_from_slice(self.biases[l].raw());
        }
        out
    }

    fn load_param_vec(&mut self, flat: &[f32]) {
        let mut pos = 0;
        for l in 0..self.num_layers() {
            crate::load_chunk(flat, &mut pos, &mut self.weights[l]);
            crate::load_chunk(flat, &mut pos, &mut self.biases[l]);
        }
        assert_eq!(pos, flat.len(), "param vector length mismatch for Gcn");
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    use super::*;
    use bgl_graph::generate;
    use bgl_sampler::NeighborSampler;
    use bgl_tensor::ops::cross_entropy_with_grad;

    /// Build a small random batch + input features for gradient checking.
    pub fn small_batch(
        layers: usize,
        in_dim: usize,
    ) -> (MiniBatch, Matrix, Vec<u16>) {
        let g = generate::barabasi_albert(60, 3, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let sampler = NeighborSampler::new(vec![3; layers]);
        let batch = sampler.sample(&g, &[1, 2, 7], &mut rng);
        let n = batch.num_input_nodes();
        let input = Matrix::from_vec(
            n,
            in_dim,
            (0..n * in_dim)
                .map(|i| ((i * 2654435761) % 1000) as f32 / 500.0 - 1.0)
                .collect(),
        );
        let labels = vec![0u16, 2, 1];
        (batch, input, labels)
    }

    /// Check d(loss)/d(weights[l][i][j]) for a sample of entries against
    /// finite differences. `get_w`/`set_w` expose one weight matrix.
    ///
    /// Parameters are all this probes — which is why the gradient the
    /// models used to take with respect to the input features went
    /// unnoticed: nothing read it, so nothing checked it, and `backward`
    /// no longer computes it. Gradients flowing *through* hidden layers are
    /// covered by the layer-0 probes.
    #[allow(clippy::too_many_arguments)]
    pub fn check_model<M: GnnModel>(
        make: impl Fn() -> M,
        batch: &MiniBatch,
        input: &Matrix,
        labels: &[u16],
        probe: &[(usize, usize, usize)], // (param slot under test via accessor, i, j)
        get_param: impl Fn(&M, usize) -> Matrix,
        set_param: impl Fn(&mut M, usize, Matrix),
        grad_of: impl Fn(&M, usize) -> Matrix,
        tol: f32,
    ) {
        let mut model = make();
        let logits = model.forward(batch, input);
        let (_, grad_logits) = cross_entropy_with_grad(&logits, labels);
        model.backward(&grad_logits);
        let eps = 5e-3;
        for &(p, i, j) in probe {
            let analytic = grad_of(&model, p).get(i, j);
            let loss_at = |delta: f32| -> f32 {
                let mut m2 = make();
                let mut w = get_param(&m2, p);
                w.set(i, j, w.get(i, j) + delta);
                set_param(&mut m2, p, w);
                let lg = m2.forward(batch, input);
                cross_entropy_with_grad(&lg, labels).0
            };
            let fd = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps);
            assert!(
                (analytic - fd).abs() < tol.max(fd.abs() * 0.08),
                "param {} entry ({},{}): analytic {} vs fd {}",
                p,
                i,
                j,
                analytic,
                fd
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::gradcheck::{check_model, small_batch};
    use super::*;
    use bgl_tensor::Adam;

    #[test]
    fn forward_shapes() {
        let (batch, input, _) = small_batch(2, 6);
        let mut m = Gcn::new(6, 8, 4, 2, 1);
        let logits = m.forward(&batch, &input);
        assert_eq!(logits.rows(), 3);
        assert_eq!(logits.cols(), 4);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (batch, input, labels) = small_batch(2, 5);
        let probes: Vec<(usize, usize, usize)> = vec![
            (0, 0, 0),
            (0, 2, 3),
            (0, 4, 1),
            (1, 0, 0),
            (1, 5, 2),
        ];
        check_model(
            || Gcn::new(5, 6, 3, 2, 42),
            &batch,
            &input,
            &labels,
            &probes,
            |m, p| m.weights[p].clone(),
            |m, p, w| m.weights[p] = w,
            |m, p| m.grad_w[p].clone(),
            2e-2,
        );
    }

    #[test]
    fn bias_gradients_match_finite_differences() {
        let (batch, input, labels) = small_batch(2, 5);
        let probes = vec![(0, 0, 1), (1, 0, 0), (1, 0, 2)];
        check_model(
            || Gcn::new(5, 6, 3, 2, 42),
            &batch,
            &input,
            &labels,
            &probes,
            |m, p| m.biases[p].clone(),
            |m, p, b| m.biases[p] = b,
            |m, p| m.grad_b[p].clone(),
            2e-2,
        );
    }

    #[test]
    fn training_reduces_loss() {
        let (batch, input, labels) = small_batch(2, 5);
        let mut m = Gcn::new(5, 8, 3, 2, 7);
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::new();
        for _ in 0..40 {
            let (loss, _) = m.train_step(&batch, &input, &labels, &mut opt);
            losses.push(loss);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss {} -> {} did not halve",
            losses[0],
            losses.last().unwrap()
        );
    }
}
