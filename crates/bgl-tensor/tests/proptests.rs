//! Property-based tests for the tensor kernels: algebraic identities that
//! must hold for arbitrary shapes and values.

use bgl_tensor::ops::{cross_entropy_with_grad, relu_in_place, relu_mask_in_place, softmax_rows};
use bgl_tensor::Matrix;
use proptest::prelude::*;

fn arb_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    /// (A B) C == A (B C) within float tolerance.
    #[test]
    fn matmul_is_associative(
        ad in proptest::collection::vec(-3.0f32..3.0, 6 * 5),
        bd in proptest::collection::vec(-3.0f32..3.0, 5 * 4),
        cd in proptest::collection::vec(-3.0f32..3.0, 4 * 3),
    ) {
        let a = Matrix::from_vec(6, 5, ad);
        let b = Matrix::from_vec(5, 4, bd);
        let c = Matrix::from_vec(4, 3, cd);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.raw().iter().zip(right.raw()) {
            prop_assert!((x - y).abs() < 1e-2 * (1.0 + x.abs()), "{} vs {}", x, y);
        }
    }

    /// matmul_tn(A, B) == Aᵀ B and matmul_nt(A, B) == A Bᵀ.
    #[test]
    fn transpose_fusions_match_explicit(
        ad in proptest::collection::vec(-5.0f32..5.0, 4 * 3),
        bd in proptest::collection::vec(-5.0f32..5.0, 4 * 2),
    ) {
        let a = Matrix::from_vec(4, 3, ad);
        let b = Matrix::from_vec(4, 2, bd);
        let tn = a.matmul_tn(&b);
        let explicit = a.transposed().matmul(&b);
        prop_assert_eq!(tn.raw(), explicit.raw());
        // A · Bᵀ with both 4-col operands sharing the inner dimension.
        let nt = a.transposed().matmul_nt(&b.transposed());
        let explicit2 = a.transposed().matmul(&b);
        for (x, y) in nt.raw().iter().zip(explicit2.raw()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Transposing twice is the identity.
    #[test]
    fn double_transpose_is_identity(a in arb_matrix(8, 8)) {
        let tt = a.transposed().transposed();
        prop_assert_eq!(tt.raw(), a.raw());
    }

    /// Softmax rows are valid distributions and shift-invariant.
    #[test]
    fn softmax_is_shifted_invariant_distribution(a in arb_matrix(5, 6), shift in -5.0f32..5.0) {
        let s1 = softmax_rows(&a);
        let shifted = a.map(|x| x + shift);
        let s2 = softmax_rows(&shifted);
        for i in 0..a.rows() {
            let sum: f32 = s1.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for (x, y) in s1.row(i).iter().zip(s2.row(i)) {
                prop_assert!((x - y).abs() < 1e-4, "softmax not shift invariant");
            }
        }
    }

    /// Cross-entropy gradient rows sum to ~0 (softmax minus one-hot).
    #[test]
    fn ce_grad_rows_sum_to_zero(
        a in arb_matrix(6, 5),
        label_seed in 0u16..5,
    ) {
        let labels: Vec<u16> =
            (0..a.rows()).map(|i| ((label_seed as usize + i) % a.cols()) as u16).collect();
        let (loss, grad) = cross_entropy_with_grad(&a, &labels);
        prop_assert!(loss.is_finite() && loss >= 0.0);
        for i in 0..grad.rows() {
            let sum: f32 = grad.row(i).iter().sum();
            prop_assert!(sum.abs() < 1e-4, "row {} grad sums to {}", i, sum);
        }
    }

    /// ReLU is idempotent on its own output and non-negative, and its
    /// mask passes a gradient exactly where the input was positive.
    #[test]
    fn relu_identities(a in arb_matrix(6, 6)) {
        let mut r = a.clone();
        relu_in_place(&mut r);
        let mut rr = r.clone();
        relu_in_place(&mut rr);
        prop_assert_eq!(rr.raw(), r.raw());
        prop_assert!(r.raw().iter().all(|&x| x >= 0.0));
        let mut g = Matrix::from_vec(a.rows(), a.cols(), vec![1.0; a.raw().len()]);
        relu_mask_in_place(&r, &mut g);
        for (&x, &m) in a.raw().iter().zip(g.raw()) {
            prop_assert_eq!(m, if x > 0.0 { 1.0 } else { 0.0 });
        }
    }

    /// col_sums is the adjoint of add_row_broadcast:
    /// <A + 1·bᵀ, C> = <A, C> + <b, col_sums(C)>.
    #[test]
    fn broadcast_colsum_adjoint(
        cd in proptest::collection::vec(-2.0f32..2.0, 4 * 3),
        b in proptest::collection::vec(-2.0f32..2.0, 3),
    ) {
        let c = Matrix::from_vec(4, 3, cd);
        let mut a = Matrix::zeros(4, 3);
        a.add_row_broadcast(&b);
        let inner_ac: f32 = a.raw().iter().zip(c.raw()).map(|(x, y)| x * y).sum();
        let inner_b: f32 = b.iter().zip(c.col_sums()).map(|(x, y)| x * y).sum();
        prop_assert!((inner_ac - inner_b).abs() < 1e-3);
    }
}
