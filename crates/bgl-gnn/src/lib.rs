//! # bgl-gnn — GNN models with explicit backprop on sampled blocks
//!
//! The model-computation stage of sampling-based GNN training (paper §2.1,
//! stage 3), on CPU: the three models the paper evaluates — GCN (Kipf &
//! Welling), GraphSAGE (mean aggregator, Hamilton et al.) and GAT
//! (Veličković et al., single attention head) — each consuming the
//! [`bgl_sampler::MiniBatch`] message-flow blocks directly.
//!
//! Backward passes are hand-written (no autograd) and validated against
//! finite differences in every model's tests. Each model owns a step
//! workspace — per-layer buffers sized by the first batch and reused —
//! and `tests/step_equiv.rs` holds the step bitwise to the
//! allocate-everything formulation it replaced (DESIGN.md §15). The paper's
//! hyper-parameters are the defaults: 3 layers, 128 hidden units.
//!
//! [`trainer`] drives full training runs (ordering → sampling → feature
//! gather → train step) for the accuracy experiments (Table 5, Fig. 16),
//! and [`flops`] estimates per-batch FLOPs for the GPU device model used by
//! the throughput experiments.

mod agg;
pub mod flops;
pub mod gat;
pub mod gcn;
pub mod sage;
pub mod trainer;

pub use gat::Gat;
pub use gcn::Gcn;
pub use sage::GraphSage;
pub use trainer::{TrainConfig, TrainHistory, Trainer};

use bgl_sampler::MiniBatch;
use bgl_tensor::{Matrix, Optimizer};

/// Which model a configuration names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    Gcn,
    GraphSage,
    Gat,
}

impl ModelKind {
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "gcn",
            ModelKind::GraphSage => "graphsage",
            ModelKind::Gat => "gat",
        }
    }
}

/// A trainable sampled-batch GNN.
///
/// `forward` consumes a mini-batch plus the input-frontier features
/// (`batch.input_nodes().len() × in_dim`) and returns seed logits;
/// `backward` consumes the logits gradient and accumulates parameter
/// gradients — only those: the input features are not trained, so no
/// gradient with respect to them is formed; `apply` hands the parameter
/// gradients to an optimizer.
pub trait GnnModel {
    fn kind(&self) -> ModelKind;

    /// Layer widths, `[in, hidden.., classes]`.
    fn dims(&self) -> &[usize];

    /// Forward pass; caches activations for `backward`.
    fn forward(&mut self, batch: &MiniBatch, input: &Matrix) -> Matrix;

    /// Backward pass from the logits gradient (panics without a prior
    /// `forward` on the same batch). Produces parameter gradients only:
    /// layer 0 stops at its weights and does not back-propagate into
    /// `input`.
    fn backward(&mut self, grad_logits: &Matrix);

    /// Apply accumulated gradients through `opt` and clear them.
    fn apply(&mut self, opt: &mut dyn Optimizer);

    /// Flattened copy of every trainable parameter, in a fixed per-model
    /// order. Two models built from the same seed and fed identical batches
    /// in identical order return bitwise-identical vectors — the
    /// determinism contract `bgl_exec::runtime`'s differential test checks.
    fn param_vec(&self) -> Vec<f32>;

    /// Overwrite every trainable parameter from a flat vector laid out
    /// exactly as [`GnnModel::param_vec`] produces it (checkpoint restore).
    ///
    /// Panics if `flat.len()` does not match the model's parameter count —
    /// a checkpoint for a different architecture must never be silently
    /// truncated or zero-padded into this one.
    fn load_param_vec(&mut self, flat: &[f32]);

    /// One SGD step: forward, loss, backward, apply. Returns
    /// `(loss, train_accuracy)`.
    fn train_step(
        &mut self,
        batch: &MiniBatch,
        input: &Matrix,
        labels: &[u16],
        opt: &mut dyn Optimizer,
    ) -> (f32, f64) {
        let logits = self.forward(batch, input);
        let (loss, grad) = bgl_tensor::ops::cross_entropy_with_grad(&logits, labels);
        let acc = bgl_tensor::ops::accuracy(&logits, labels);
        self.backward(&grad);
        self.apply(opt);
        opt.next_batch();
        (loss, acc)
    }
}

/// Copy the next `m.len()` entries of `flat` into `m`, advancing `pos`.
/// Shared by the models' `load_param_vec` implementations; slice indexing
/// panics on a short vector, which is exactly the contract.
pub(crate) fn load_chunk(flat: &[f32], pos: &mut usize, m: &mut Matrix) {
    let n = m.raw().len();
    m.raw_mut().copy_from_slice(&flat[*pos..*pos + n]);
    *pos += n;
}

/// Build a model of `kind` with the given widths.
pub fn make_model(
    kind: ModelKind,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    num_layers: usize,
    seed: u64,
) -> Box<dyn GnnModel + Send> {
    match kind {
        ModelKind::Gcn => Box::new(Gcn::new(in_dim, hidden, classes, num_layers, seed)),
        ModelKind::GraphSage => {
            Box::new(GraphSage::new(in_dim, hidden, classes, num_layers, seed))
        }
        ModelKind::Gat => Box::new(Gat::new(in_dim, hidden, classes, num_layers, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_vec_roundtrips_for_every_model() {
        for kind in [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gat] {
            let a = make_model(kind, 6, 8, 4, 2, 11);
            let mut b = make_model(kind, 6, 8, 4, 2, 99);
            assert_ne!(a.param_vec(), b.param_vec(), "{kind:?}: differently seeded inits");
            b.load_param_vec(&a.param_vec());
            assert_eq!(a.param_vec(), b.param_vec(), "{kind:?}: load must be exact");
        }
    }

    /// One non-finite gradient must not outlive the step that produced it:
    /// `apply` clears the accumulators by assignment (`0.0 · ∞` is NaN), so
    /// restoring good parameters really does restore the model.
    #[test]
    fn a_non_finite_gradient_does_not_poison_later_steps() {
        use bgl_tensor::Adam;
        let (batch, input, labels) = crate::gcn::gradcheck::small_batch(2, 6);
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        for kind in [ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gat] {
            let mut m = make_model(kind, 6, 8, 4, 2, 11);
            let snapshot = m.param_vec();
            let logits = m.forward(&batch, &input);
            let mut grad = Matrix::zeros(logits.rows(), logits.cols());
            grad.set(0, 0, f32::INFINITY);
            m.backward(&grad);
            m.apply(&mut Adam::new(0.01));
            assert!(m.param_vec().iter().any(|p| !p.is_finite()), "{kind:?}: the step diverged");

            m.load_param_vec(&snapshot);
            let got = m.train_step(&batch, &input, &labels, &mut Adam::new(0.01));
            let mut fresh = make_model(kind, 6, 8, 4, 2, 11);
            let want = fresh.train_step(&batch, &input, &labels, &mut Adam::new(0.01));
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "{kind:?}: loss");
            assert_eq!(bits(m.param_vec()), bits(fresh.param_vec()), "{kind:?}: parameters");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn load_param_vec_rejects_short_vector() {
        let mut m = make_model(ModelKind::Gcn, 6, 8, 4, 2, 1);
        let v = m.param_vec();
        m.load_param_vec(&v[..v.len() - 1]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn load_param_vec_rejects_long_vector() {
        let mut m = make_model(ModelKind::Gcn, 6, 8, 4, 2, 1);
        let mut v = m.param_vec();
        v.push(0.0);
        m.load_param_vec(&v);
    }
}
