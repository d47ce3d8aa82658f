//! The matmul equivalence suite.
//!
//! Four properties, each asserted *bitwise* (`assert_eq!` on the raw
//! buffers, not approximate comparison):
//!
//! 1. every blocked variant agrees with a naive triple-loop reference on
//!    non-square shapes, including `k = 0` and `1 × n` edge cases;
//! 2. the pool-parallel entry points are bitwise-identical to the kept
//!    serial paths (the executor determinism contract);
//! 3. the transpose identities (`Aᵀ@B == transpose(A)@B`,
//!    `A@Bᵀ == A@transpose(B)`) hold exactly;
//! 4. every `*_into` form leaves in a reused `out` — dirty, and last shaped
//!    for some other product — exactly what its allocating form returns,
//!    with the pool at its default size and at `BGL_TENSOR_THREADS=1`.
//!
//! ci.sh runs this suite under `--release` as well: the blocked kernels
//! take different code paths once the optimizer vectorizes them, and the
//! bitwise claim must hold there too.

use bgl_tensor::Matrix;
use proptest::prelude::*;
use rand::prelude::*;

/// Naive i-j-k triple loop, single accumulator ascending k — the reference
/// semantics every kernel must reproduce bit-for-bit.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            let mut p = 0;
            // Mirror the kernels' 4-way left-to-right unroll groups: the
            // chained adds evaluate in the same order as separate += ops,
            // so this is still plain ascending-k accumulation.
            while p + 4 <= k {
                acc = (((acc + a.get(i, p) * b.get(p, j))
                    + a.get(i, p + 1) * b.get(p + 1, j))
                    + a.get(i, p + 2) * b.get(p + 2, j))
                    + a.get(i, p + 3) * b.get(p + 3, j);
                p += 4;
            }
            while p < k {
                acc += a.get(i, p) * b.get(p, j);
                p += 1;
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect();
    Matrix::from_vec(rows, cols, data)
}

/// The shapes the ISSUE pins: non-square, k = 0, 1×n, plus the fig16
/// training shapes (frontier × dim @ dim × hidden and its gradients).
fn pinned_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (3, 5, 2),
        (1, 7, 9),    // 1×n output row
        (9, 1, 4),    // k = 1
        (4, 0, 6),    // k = 0: all-zero output, no accumulation at all
        (0, 3, 3),    // empty output
        (17, 23, 13), // awkward primes around the unroll factor
        (64, 64, 64),
        (311, 64, 32), // fig16 GraphSAGE forward shape (frontier@dim→hidden)
        (311, 96, 32), // fig16 GraphSAGE concat-layer shape
        (128, 32, 47), // classifier head onto num_classes
    ]
}

#[test]
fn blocked_variants_match_reference_on_pinned_shapes() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for (m, k, n) in pinned_shapes() {
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let want = reference_matmul(&a, &b);
        assert_eq!(a.matmul(&b).raw(), want.raw(), "matmul {m}x{k}x{n}");
        assert_eq!(a.matmul_serial(&b).raw(), want.raw(), "serial {m}x{k}x{n}");
        let at = a.transposed();
        assert_eq!(at.matmul_tn(&b).raw(), want.raw(), "tn {m}x{k}x{n}");
        assert_eq!(at.matmul_tn_serial(&b).raw(), want.raw(), "tn serial {m}x{k}x{n}");
        let bt = b.transposed();
        assert_eq!(a.matmul_nt(&bt).raw(), want.raw(), "nt {m}x{k}x{n}");
        assert_eq!(a.matmul_nt_serial(&bt).raw(), want.raw(), "nt serial {m}x{k}x{n}");
    }
}

#[test]
fn parallel_is_bitwise_identical_to_serial_on_large_products() {
    // Big enough that the parallel dispatch actually engages
    // (2·m·k·n ≥ PAR_MIN_FLOPS) with many panels in flight.
    let mut rng = StdRng::seed_from_u64(7);
    for &(m, k, n) in &[(997, 64, 33), (256, 128, 128), (1024, 31, 17)] {
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        assert_eq!(a.matmul(&b).raw(), a.matmul_serial(&b).raw(), "matmul {m}x{k}x{n}");
        let at = a.transposed();
        assert_eq!(
            at.matmul_tn(&b).raw(),
            at.matmul_tn_serial(&b).raw(),
            "tn {m}x{k}x{n}"
        );
        let bt = b.transposed();
        assert_eq!(
            a.matmul_nt(&bt).raw(),
            a.matmul_nt_serial(&bt).raw(),
            "nt {m}x{k}x{n}"
        );
    }
}

/// One `out` is carried through every shape, so each product finds the
/// previous one's values and shape in it (larger, smaller, empty), and is
/// poisoned with NaN in between: a kernel that skipped its zero-fill, or
/// kept a stale row count, shows up as a bit difference.
#[test]
fn into_forms_equal_allocating_forms_on_a_dirty_output() {
    let mut rng = StdRng::seed_from_u64(0xD1A7);
    let bits = |mat: &Matrix| -> Vec<u32> { mat.raw().iter().map(|x| x.to_bits()).collect() };
    let mut out = Matrix::from_vec(2, 3, vec![f32::NAN; 6]);
    let mut shapes = pinned_shapes();
    shapes.extend([(997, 64, 33), (5, 3, 2), (256, 128, 128)]); // pooled, then small again
    for (m, k, n) in shapes {
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let (at, bt) = (a.transposed(), b.transposed());
        let mut check = |what: &str, want: Matrix, run: &dyn Fn(&mut Matrix)| {
            out.fill(f32::NAN);
            run(&mut out);
            assert_eq!((out.rows(), out.cols()), (m, n), "{what} {m}x{k}x{n}: shape");
            assert_eq!(bits(&out), bits(&want), "{what} {m}x{k}x{n}");
        };
        check("matmul_into", a.matmul(&b), &|o| a.matmul_into(&b, o));
        check("matmul_into vs serial", a.matmul_serial(&b), &|o| a.matmul_into(&b, o));
        check("matmul_tn_into", at.matmul_tn(&b), &|o| at.matmul_tn_into(&b, o));
        check("matmul_tn_into vs serial", at.matmul_tn_serial(&b), &|o| at.matmul_tn_into(&b, o));
        check("matmul_nt_into", a.matmul_nt(&bt), &|o| a.matmul_nt_into(&bt, o));
        check("matmul_nt_into vs serial", a.matmul_nt_serial(&bt), &|o| a.matmul_nt_into(&bt, o));
    }
}

/// The pool is sized once per process, so the single-threaded leg of the
/// property above runs in a child: this test binary again, that one test,
/// `BGL_TENSOR_THREADS=1`.
#[test]
fn into_forms_hold_with_a_single_kernel_thread() {
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "into_forms_equal_allocating_forms_on_a_dirty_output"])
        .env("BGL_TENSOR_THREADS", "1")
        .output()
        .expect("re-run this test binary");
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success() && stdout.contains("1 passed"),
        "single-threaded run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&child.stderr)
    );
}

#[test]
fn special_values_flow_through_identically() {
    // ±0.0 / ±inf / NaN payloads: the kernels must not take value-dependent
    // shortcuts (the old zero-skip did), so serial and parallel stay
    // bit-identical even on pathological inputs. NaN != NaN, so compare
    // bit patterns.
    let mut rng = StdRng::seed_from_u64(99);
    let specials = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.5, -2.5];
    let (m, k, n) = (65, 33, 41);
    let fill = |rng: &mut StdRng, len: usize| -> Vec<f32> {
        (0..len).map(|_| specials[rng.random_range(0..specials.len())]).collect()
    };
    let a = Matrix::from_vec(m, k, fill(&mut rng, m * k));
    let b = Matrix::from_vec(k, n, fill(&mut rng, k * n));
    let bits = |mat: &Matrix| -> Vec<u32> { mat.raw().iter().map(|x| x.to_bits()).collect() };
    assert_eq!(bits(&a.matmul(&b)), bits(&a.matmul_serial(&b)));
    let at = a.transposed();
    assert_eq!(bits(&at.matmul_tn(&b)), bits(&at.matmul_tn_serial(&b)));
    assert_eq!(bits(&at.matmul_tn(&b)), bits(&at.transposed().matmul(&b)));
    let bt = b.transposed();
    assert_eq!(bits(&a.matmul_nt(&bt)), bits(&a.matmul_nt_serial(&bt)));
    assert_eq!(bits(&a.matmul_nt(&bt)), bits(&a.matmul(&bt.transposed())));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property: on arbitrary rectangular shapes and values, all three
    /// variants equal the reference bitwise, and parallel == serial.
    #[test]
    fn matmul_equivalence(
        m in 0usize..48,
        k in 0usize..48,
        n in 1usize..48,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let want = reference_matmul(&a, &b);
        prop_assert_eq!(a.matmul(&b).raw(), want.raw());
        prop_assert_eq!(a.matmul_serial(&b).raw(), want.raw());
        let at = a.transposed();
        prop_assert_eq!(at.matmul_tn(&b).raw(), want.raw());
        let bt = b.transposed();
        prop_assert_eq!(a.matmul_nt(&bt).raw(), want.raw());
    }
}
