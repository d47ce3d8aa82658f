//! GraphSAGE with the mean aggregator (Hamilton et al.).
//!
//! Per layer: `H_dst = σ( [H_dst ‖ mean(H_src over N(d))] · W + b )` —
//! self features concatenated with the neighbor mean, the configuration
//! the paper benchmarks ("GraphSAGE ... uses neighbor sampling to learn
//! different aggregation functions").

use crate::agg::{gather_concat, scatter_mean, BlockCsr};
use crate::{GnnModel, ModelKind};
use bgl_sampler::MiniBatch;
use bgl_tensor::init::he_uniform;
use bgl_tensor::ops::{relu_in_place, relu_mask_in_place};
use bgl_tensor::{Matrix, Optimizer};
use rand::prelude::*;

/// One layer's share of the step workspace: sized by the first batch,
/// reused by every later one. Scratch, not state — nothing here outlives
/// a step or reaches a checkpoint.
#[derive(Default)]
struct LayerBufs {
    /// `[self ‖ neighbor-mean]`, the linear-map input; `backward` reads it
    /// for `grad_w`.
    concat: Matrix,
    /// Hidden layers: the activation `relu(z)`, the next layer's input and
    /// the ReLU mask (`out > 0 ⇔ z > 0`). The last layer's output is the
    /// logits, which `forward` returns instead of keeping.
    out: Matrix,
    /// Layers ≥ 1: the block's CSR arrays, which `backward` scatters along.
    csr: BlockCsr,
    /// `concatᵀ · dz` before it is added into `grad_w`.
    gw: Matrix,
    /// Layers ≥ 1: `dz · Wᵀ`, read by column range (self half, mean half).
    dconcat: Matrix,
    /// Layers ≥ 1: gradient of the layer's input, masked in place into the
    /// `dz` of the layer below.
    dh: Matrix,
}

/// GraphSAGE-mean with `num_layers` layers.
pub struct GraphSage {
    dims: Vec<usize>,
    /// Each weight is `(2·in) × out` (concat of self and neighbor mean).
    weights: Vec<Matrix>,
    biases: Vec<Matrix>,
    grad_w: Vec<Matrix>,
    grad_b: Vec<Matrix>,
    bufs: Vec<LayerBufs>,
    /// Whether `bufs` holds a forward pass for `backward` to read.
    forwarded: bool,
}

impl GraphSage {
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
            weights.push(he_uniform(2 * dims[l], dims[l + 1], &mut rng));
            biases.push(Matrix::zeros(1, dims[l + 1]));
        }
        let grad_w = weights.iter().map(|w| Matrix::zeros(w.rows(), w.cols())).collect();
        let grad_b = biases.iter().map(|b| Matrix::zeros(1, b.cols())).collect();
        GraphSage {
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

    /// Address and length of every per-batch-sized workspace buffer, so a
    /// test can assert that a repeated batch shape allocates none anew.
    pub fn workspace_buffers(&self) -> Vec<(usize, usize)> {
        self.bufs
            .iter()
            .flat_map(|b| [&b.concat, &b.out, &b.dconcat, &b.dh])
            .map(|m| (m.raw().as_ptr() as usize, m.raw().len()))
            .collect()
    }
}

impl GnnModel for GraphSage {
    fn kind(&self) -> ModelKind {
        ModelKind::GraphSage
    }

    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn forward(&mut self, batch: &MiniBatch, input: &Matrix) -> Matrix {
        assert_eq!(batch.blocks.len(), self.num_layers());
        assert_eq!(input.rows(), batch.num_input_nodes());
        assert_eq!(input.cols(), self.dims[0]);
        let last = self.num_layers() - 1;
        let mut logits = Matrix::default();
        for (l, block) in batch.blocks.iter().enumerate() {
            let (below, rest) = self.bufs.split_at_mut(l);
            let LayerBufs { concat, out, csr, .. } = &mut rest[0];
            // Layer 0 reads the caller's features in place: they are not
            // trained, so `backward` never needs them again.
            let h = if l == 0 { input } else { &below[l - 1].out };
            gather_concat(block, h, concat);
            let z = if l == last { &mut logits } else { out };
            concat.matmul_into(&self.weights[l], z);
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
            let LayerBufs { concat, out, csr, gw, dconcat, dh } = &mut cur[0];
            // Through the activation (last layer is linear).
            let dz = if l == last {
                grad_logits
            } else {
                let g = &mut upper[0].dh;
                relu_mask_in_place(out, g);
                &*g
            };
            concat.matmul_tn_into(dz, gw);
            self.grad_w[l].add_assign(gw);
            self.grad_b[l].add_assign(&Matrix::from_vec(1, dz.cols(), dz.col_sums()));
            if l == 0 {
                // The input features are not parameters: nothing reads
                // d(loss)/d(input), so it is not computed.
                break;
            }
            dz.matmul_nt_into(&self.weights[l], dconcat);
            let in_dim = self.dims[l];
            // Neighbor-mean path back to all sources…
            let num_src = below[l - 1].out.rows();
            scatter_mean(csr, dconcat, in_dim..2 * in_dim, false, num_src, dh);
            // …plus the self path back to the dst prefix.
            for d in 0..dconcat.rows() {
                for (r, &x) in dh.row_mut(d).iter_mut().zip(&dconcat.row(d)[..in_dim]) {
                    *r += x;
                }
            }
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
        assert_eq!(pos, flat.len(), "param vector length mismatch for GraphSage");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::gradcheck::{check_model, small_batch};
    use bgl_tensor::Adam;

    #[test]
    fn forward_shapes() {
        let (batch, input, _) = small_batch(3, 4);
        let mut m = GraphSage::new(4, 8, 5, 3, 1);
        let logits = m.forward(&batch, &input);
        assert_eq!((logits.rows(), logits.cols()), (3, 5));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (batch, input, labels) = small_batch(2, 4);
        let probes = vec![(0, 0, 0), (0, 5, 2), (0, 7, 1), (1, 3, 0), (1, 9, 2)];
        check_model(
            || GraphSage::new(4, 5, 3, 2, 42),
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
        let (batch, input, labels) = small_batch(2, 4);
        let probes = vec![(0, 0, 2), (1, 0, 1)];
        check_model(
            || GraphSage::new(4, 5, 3, 2, 42),
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
        let (batch, input, labels) = small_batch(2, 4);
        let mut m = GraphSage::new(4, 8, 3, 2, 9);
        let mut opt = Adam::new(0.01);
        let first = m.train_step(&batch, &input, &labels, &mut opt).0;
        let mut last = first;
        for _ in 0..40 {
            last = m.train_step(&batch, &input, &labels, &mut opt).0;
        }
        assert!(last < first * 0.5, "loss {} -> {}", first, last);
    }
}
