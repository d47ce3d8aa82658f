//! Activations, losses and regularization kernels with explicit backward
//! passes. Each backward is verified against finite differences in tests.

use crate::Matrix;
use rand::prelude::*;

/// ReLU, in place.
pub fn relu_in_place(x: &mut Matrix) {
    for v in x.raw_mut() {
        *v = v.max(0.0);
    }
}

/// ReLU backward, in place on the gradient: `dL/dx = dL/dy · 1[y > 0]`,
/// masking on the kept activation `y = relu(x)` (`y > 0 ⇔ x > 0`, so the
/// pre-activation need not be kept).
pub fn relu_mask_in_place(y: &Matrix, grad: &mut Matrix) {
    assert_eq!((y.rows(), y.cols()), (grad.rows(), grad.cols()));
    for (g, &yv) in grad.raw_mut().iter_mut().zip(y.raw()) {
        *g = if yv > 0.0 { *g } else { 0.0 };
    }
}

/// Row-wise softmax (numerically stabilized).
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Mean cross-entropy loss from logits plus the logits gradient
/// (`softmax - onehot`, divided by batch size). Returns `(loss, grad)`.
pub fn cross_entropy_with_grad(logits: &Matrix, labels: &[u16]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len(), "batch/label mismatch");
    let probs = softmax_rows(logits);
    let n = logits.rows();
    let mut loss = 0.0f64;
    let mut grad = probs.clone();
    for (i, &label) in labels.iter().enumerate() {
        let label = label as usize;
        assert!(label < logits.cols(), "label {} out of range", label);
        loss -= (probs.get(i, label).max(1e-12) as f64).ln();
        let g = grad.get(i, label);
        grad.set(i, label, g - 1.0);
    }
    grad.scale(1.0 / n as f32);
    ((loss / n as f64) as f32, grad)
}

/// Fraction of rows whose argmax matches the label.
pub fn accuracy(logits: &Matrix, labels: &[u16]) -> f64 {
    assert_eq!(logits.rows(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.row(i);
        // Total-order fold: `partial_cmp(..).unwrap()` panicked on a NaN
        // logit (one diverged training step could kill the whole eval).
        // `total_cmp` is a total order, so a NaN row degrades to a
        // deterministic (usually wrong) prediction instead of a panic.
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .unwrap();
        if argmax == label as usize {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

/// Inverted dropout: zero each element with probability `p` and scale the
/// survivors by `1/(1-p)`. Returns `(output, mask)`; backward is
/// `grad_out.hadamard(&mask)`.
pub fn dropout(x: &Matrix, p: f32, rng: &mut StdRng) -> (Matrix, Matrix) {
    assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
    let keep = 1.0 - p;
    let mask_data: Vec<f32> = (0..x.raw().len())
        .map(|_| if rng.random::<f32>() < keep { 1.0 / keep } else { 0.0 })
        .collect();
    let mask = Matrix::from_vec(x.rows(), x.cols(), mask_data);
    (x.hadamard(&mask), mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_loss(
        logits: &Matrix,
        labels: &[u16],
        i: usize,
        j: usize,
        eps: f32,
    ) -> f32 {
        let mut plus = logits.clone();
        plus.set(i, j, plus.get(i, j) + eps);
        let mut minus = logits.clone();
        minus.set(i, j, minus.get(i, j) - eps);
        let (lp, _) = cross_entropy_with_grad(&plus, labels);
        let (lm, _) = cross_entropy_with_grad(&minus, labels);
        (lp - lm) / (2.0 * eps)
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2u16, 0u16];
        let (_, grad) = cross_entropy_with_grad(&logits, &labels);
        for i in 0..2 {
            for j in 0..3 {
                let fd = finite_diff_loss(&logits, &labels, i, j, 1e-3);
                assert!(
                    (grad.get(i, j) - fd).abs() < 1e-3,
                    "grad[{},{}]={} vs fd={}",
                    i,
                    j,
                    grad.get(i, j),
                    fd
                );
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_vec(2, 4, vec![1., 2., 3., 4., -1., 0., 1., 100.]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn relu_masks_on_the_activation() {
        let mut y = Matrix::from_vec(1, 5, vec![-1.0, 0.0, 0.5, 2.0, f32::NAN]);
        relu_in_place(&mut y);
        assert_eq!(y.raw(), &[0.0, 0.0, 0.5, 2.0, 0.0]);
        let mut g = Matrix::from_vec(1, 5, vec![1.0; 5]);
        relu_mask_in_place(&y, &mut g);
        assert_eq!(g.raw(), &[0.0, 0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-9);
    }

    /// Regression: a NaN logit used to panic the whole eval via
    /// `partial_cmp(..).unwrap()`. It must instead fold under the total
    /// order — deterministically, and without poisoning the other rows.
    #[test]
    fn accuracy_survives_nan_logits() {
        // Row 0 diverged (one NaN), row 1 is fully NaN, row 2 is healthy.
        let logits = Matrix::from_vec(
            3,
            3,
            vec![0.1, f32::NAN, 0.2, f32::NAN, f32::NAN, f32::NAN, 0.0, 9.0, 1.0],
        );
        // total_cmp sorts +NaN above every number: the NaN positions win
        // their rows (deterministically), the healthy row is unaffected.
        assert!((accuracy(&logits, &[1, 2, 1]) - 1.0).abs() < 1e-9);
        assert!((accuracy(&logits, &[0, 0, 1]) - 1.0 / 3.0).abs() < 1e-9);
        // ±inf keeps working alongside NaN.
        let logits = Matrix::from_vec(1, 3, vec![f32::NEG_INFINITY, f32::INFINITY, 0.0]);
        assert!((accuracy(&logits, &[1]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let x = Matrix::from_vec(1, 10_000, vec![1.0; 10_000]);
        let mut rng = StdRng::seed_from_u64(3);
        let (y, mask) = dropout(&x, 0.3, &mut rng);
        let mean: f32 = y.raw().iter().sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {} should be ~1", mean);
        // Mask values are either 0 or 1/keep.
        assert!(mask.raw().iter().all(|&m| m == 0.0 || (m - 1.0 / 0.7).abs() < 1e-6));
    }

    #[test]
    fn zero_dropout_is_identity() {
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let mut rng = StdRng::seed_from_u64(3);
        let (y, _) = dropout(&x, 0.0, &mut rng);
        assert_eq!(y, x);
    }
}
