//! The optimizer: Adam, which every training run here uses (§2.1, stage 3),
//! behind the [`Optimizer`] trait `GnnModel::apply` is written against.

use crate::Matrix;

/// A parameter-update rule. `step` consumes one gradient for one parameter
/// tensor, identified by `slot` so the optimizer can keep per-parameter
/// state (Adam's moments).
pub trait Optimizer {
    /// Apply one update to `param` given `grad`. `slot` must be stable and
    /// unique per parameter tensor across calls.
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix);

    /// Advance the optimizer's global step counter (call once per batch,
    /// after all `step` calls for that batch).
    fn next_batch(&mut self) {}
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: i32,
    moments: Vec<Option<(Matrix, Matrix)>>,
}

impl Adam {
    /// Adam with the standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, moments: Vec::new() }
    }

    fn slot_mut(&mut self, slot: usize) -> &mut Option<(Matrix, Matrix)> {
        if self.moments.len() <= slot {
            self.moments.resize(slot + 1, None);
        }
        &mut self.moments[slot]
    }

    /// The global step counter (`t` in Kingma & Ba's bias correction).
    pub fn step_count(&self) -> i32 {
        self.t
    }

    /// Per-slot first/second moment pairs (`None` where the slot was never
    /// stepped). Only [`GnnModel::param_vec`]-style parameter snapshots are
    /// NOT enough to resume training bitwise-identically: the moments and
    /// step counter here must be captured too, or the bias correction and
    /// effective per-parameter learning rates silently reset on restore.
    ///
    /// [`GnnModel::param_vec`]: ../bgl_gnn/trait.GnnModel.html
    pub fn moments(&self) -> &[Option<(Matrix, Matrix)>] {
        &self.moments
    }

    /// Restore the full internal state (checkpoint resume). `t` is the step
    /// counter as returned by [`Adam::step_count`]; `moments` replaces the
    /// per-slot buffers wholesale.
    pub fn restore_state(&mut self, t: i32, moments: Vec<Option<(Matrix, Matrix)>>) {
        self.t = t;
        self.moments = moments;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, param: &mut Matrix, grad: &Matrix) {
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let t = (self.t + 1) as f32; // next_batch() may lag; use at-least-1
        let entry = self.slot_mut(slot);
        if entry.is_none() {
            *entry = Some((
                Matrix::zeros(param.rows(), param.cols()),
                Matrix::zeros(param.rows(), param.cols()),
            ));
        }
        let (m, v) = entry.as_mut().unwrap();
        for ((mi, vi), &g) in m
            .raw_mut()
            .iter_mut()
            .zip(v.raw_mut().iter_mut())
            .zip(grad.raw())
        {
            *mi = b1 * *mi + (1.0 - b1) * g;
            *vi = b2 * *vi + (1.0 - b2) * g * g;
        }
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        for ((p, &mi), &vi) in param
            .raw_mut()
            .iter_mut()
            .zip(m.raw())
            .zip(v.raw())
        {
            let m_hat = mi / bc1;
            let v_hat = vi / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    fn next_batch(&mut self) {
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 elementwise; gradient 2(x-3).
    fn quad_grad(x: &Matrix) -> Matrix {
        x.map(|v| 2.0 * (v - 3.0))
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut x = Matrix::from_vec(1, 3, vec![-5.0, 0.0, 8.0]);
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            let g = quad_grad(&x);
            opt.step(0, &mut x, &g);
            opt.next_batch();
        }
        assert!(
            x.raw().iter().all(|&v| (v - 3.0).abs() < 1e-2),
            "adam did not converge: {:?}",
            x
        );
    }

    /// Restoring only the parameters after a simulated crash silently
    /// changes the training trajectory; restoring moments + step counter
    /// through [`Adam::restore_state`] continues bitwise-identically. This
    /// is the regression the checkpoint codec exists to prevent.
    #[test]
    fn params_only_restore_diverges_full_restore_does_not() {
        let steps_before = 7;
        let steps_after = 5;
        let run = |x: &mut Matrix, opt: &mut Adam, n: usize| {
            for _ in 0..n {
                let g = quad_grad(x);
                opt.step(0, x, &g);
                opt.next_batch();
            }
        };

        // Uninterrupted reference.
        let mut x_ref = Matrix::from_vec(1, 2, vec![-4.0, 9.0]);
        let mut opt_ref = Adam::new(0.05);
        run(&mut x_ref, &mut opt_ref, steps_before + steps_after);

        // Crash after `steps_before`: capture params and the full state.
        let mut x = Matrix::from_vec(1, 2, vec![-4.0, 9.0]);
        let mut opt = Adam::new(0.05);
        run(&mut x, &mut opt, steps_before);
        let params = x.clone();
        let (t, moments) = (opt.step_count(), opt.moments().to_vec());
        assert_eq!(t, steps_before as i32);
        assert!(moments[0].is_some(), "warmed slot must expose its moments");

        // Naive restore: params only, fresh optimizer.
        let mut x_naive = params.clone();
        let mut opt_naive = Adam::new(0.05);
        run(&mut x_naive, &mut opt_naive, steps_after);

        // Full restore: params + moments + step counter.
        let mut x_full = params;
        let mut opt_full = Adam::new(0.05);
        opt_full.restore_state(t, moments);
        run(&mut x_full, &mut opt_full, steps_after);

        assert_eq!(
            x_full.raw(),
            x_ref.raw(),
            "full-state restore must continue bitwise-identically"
        );
        assert_ne!(
            x_naive.raw(),
            x_ref.raw(),
            "params-only restore must visibly diverge from the uninterrupted run"
        );
    }

    #[test]
    fn independent_slots_have_independent_state() {
        let mut a = Matrix::from_vec(1, 1, vec![10.0]);
        let mut b = Matrix::from_vec(1, 1, vec![10.0]);
        let mut opt = Adam::new(0.1);
        // Update slot 0 twice, slot 1 once — the moments must differ.
        let g = Matrix::from_vec(1, 1, vec![1.0]);
        opt.step(0, &mut a, &g);
        opt.step(0, &mut a, &g);
        opt.step(1, &mut b, &g);
        assert!(a.get(0, 0) < b.get(0, 0));
        // Slot 1 saw none of slot 0's history: its step is a fresh optimizer's.
        let mut fresh = Matrix::from_vec(1, 1, vec![10.0]);
        Adam::new(0.1).step(0, &mut fresh, &g);
        assert_eq!(b.raw(), fresh.raw());
    }
}
