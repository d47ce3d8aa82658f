//! Row-major dense `f32` matrix and its kernels.
//!
//! ## Blocked matmul geometry and the determinism contract
//!
//! All three matmul variants share one structure: the *output rows* are the
//! unit of work. A row panel is computed by a row kernel that accumulates
//! every output element in strictly ascending-`k` order into a single `f32`
//! accumulator, with the `k` loop unrolled by [`KU`] — the unrolled body
//! chains its adds left-to-right, which IEEE-754 evaluates in exactly the
//! same order as [`KU`] separate passes, so unrolling never changes a bit.
//! The parallel entry points ([`Matrix::matmul`] & co.) split the rows into
//! panels claimed by the `crate::pool` workers; since each output element
//! is computed wholly by one thread running the identical row kernel, the
//! parallel result is bitwise-identical to the serial one
//! ([`Matrix::matmul_serial`] & co.) by construction — the property the
//! executor's `run` vs `run_serial` differential test rests on.
//!
//! Small products (see [`PAR_MIN_FLOPS`]) skip the pool: the work would not
//! amortize a queue round-trip, and the result is identical either way.

use crate::pool;

/// k-loop unroll factor of every row kernel.
const KU: usize = 4;

/// Output-row register-block height: rows computed together so each
/// streamed b-row load is shared `RU` ways.
const RU: usize = 4;

/// Minimum `2·m·k·n` FLOP count before a matmul fans out to the pool.
const PAR_MIN_FLOPS: usize = 1 << 16;

/// Raw pointer wrapper that lets disjoint row panels of one output buffer
/// be written from pool threads. Soundness: panel ranges never overlap and
/// `parallel_for` joins every worker before the buffer is read.
#[derive(Clone, Copy)]
struct OutPtr(*mut f32);
unsafe impl Send for OutPtr {}
unsafe impl Sync for OutPtr {}

impl OutPtr {
    /// Pointer `off` elements past the base. A method (not field access) so
    /// closures capture the `Sync` wrapper, not the bare `*mut f32`.
    #[inline]
    fn at(self, off: usize) -> *mut f32 {
        unsafe { self.0.add(off) }
    }
}

/// Row-major dense matrix. The default is the empty `0 × 0` matrix — what
/// a workspace buffer is before its first use.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix of shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/buffer mismatch");
        Matrix { rows, cols, data }
    }

    /// Reshape in place, keeping the allocation when it is large enough —
    /// what lets a step workspace be sized on first use and reused. Element
    /// values are whatever the buffer held (zeros where it grew): the caller
    /// overwrites every element or calls [`Matrix::fill`].
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Set every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// The raw row-major buffer.
    pub fn raw(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major buffer, mutably.
    pub fn raw_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self @ other` — (m,k) x (k,n) -> (m,n). Blocked row-panel kernel,
    /// fanned out across the kernel pool for large products; bitwise-equal
    /// to [`Matrix::matmul_serial`] (see the module docs).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned `out`, which is reshaped and
    /// zero-filled first: whatever it held, the result is the same bits.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        self.mm_dispatch_shape(other, self.rows, other.cols, self.cols, mm_rows, out);
    }

    /// Serial path of [`Matrix::matmul`], kept for the determinism
    /// contract: one thread, same row kernel, same bits.
    pub fn matmul_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        mm_rows(self, other, 0, self.rows, &mut out.data);
        out
    }

    /// `selfᵀ @ other` — (k,m)ᵀ x (k,n) -> (m,n), used for weight
    /// gradients. Same row-blocked kernel discipline as [`Matrix::matmul`];
    /// the A operand is gathered column-wise at stride m (only RU·KU
    /// scalars per register block, so the strided reads never dominate).
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] into a caller-owned `out` (reshaped, zero-filled).
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        self.mm_dispatch_shape(other, self.cols, other.cols, self.rows, mm_tn_rows, out);
    }

    /// Serial path of [`Matrix::matmul_tn`].
    pub fn matmul_tn_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        mm_tn_rows(self, other, 0, self.cols, &mut out.data);
        out
    }

    /// `self @ otherᵀ` — (m,k) x (n,k)ᵀ -> (m,n), used for input
    /// gradients. Transposes `other` once (k·n copy, negligible next to
    /// the m·k·n product) so the shared axpy row kernel runs over
    /// contiguous rows; each output element still accumulates its dot in
    /// strictly increasing-p order, so this is bitwise-equal to the
    /// per-element dot form.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] into a caller-owned `out` (reshaped, zero-filled).
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let bt = other.transposed();
        self.mm_dispatch_shape(&bt, self.rows, bt.cols, self.cols, mm_rows, out);
    }

    /// Serial path of [`Matrix::matmul_nt`].
    pub fn matmul_nt_serial(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let bt = other.transposed();
        let mut out = Matrix::zeros(self.rows, bt.cols);
        mm_rows(self, &bt, 0, self.rows, &mut out.data);
        out
    }

    /// Zero `out` as an `m × n` matrix and run `kernel` over its rows, in
    /// row panels on the pool when the product is big enough to amortize it.
    fn mm_dispatch_shape(
        &self,
        other: &Matrix,
        m: usize,
        n: usize,
        k: usize,
        kernel: fn(&Matrix, &Matrix, usize, usize, &mut [f32]),
        out: &mut Matrix,
    ) {
        out.resize(m, n);
        out.fill(0.0);
        let pool = pool::global();
        let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
        if pool.threads() == 1 || flops < PAR_MIN_FLOPS || m < 2 {
            kernel(self, other, 0, m, &mut out.data);
            return;
        }
        // Panel size: enough panels to balance the pool, but never so small
        // that queue traffic dominates.
        let panel = m.div_ceil(pool.threads() * 4).max(4);
        let panels = m.div_ceil(panel);
        let base = OutPtr(out.data.as_mut_ptr());
        pool.parallel_for(panels, &|c| {
            let i0 = c * panel;
            let i1 = (i0 + panel).min(m);
            // SAFETY: panels are disjoint row ranges of `out`, and
            // parallel_for joins every worker before `out` is read again.
            let out_rows = unsafe {
                std::slice::from_raw_parts_mut(base.at(i0 * n), (i1 - i0) * n)
            };
            kernel(self, other, i0, i1, out_rows);
        });
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // 32x32 tiles keep both the read rows and the strided write
        // columns inside L1 while a tile is hot; the element-at-a-time
        // form thrashed on matrices past cache size.
        const T: usize = 32;
        let (r, c) = (self.rows, self.cols);
        for bi in (0..r).step_by(T) {
            for bj in (0..c).step_by(T) {
                for i in bi..(bi + T).min(r) {
                    let row = self.row(i);
                    for (j, &v) in row.iter().enumerate().take((bj + T).min(c)).skip(bj) {
                        out.data[j * r + i] = v;
                    }
                }
            }
        }
        out
    }

    /// Elementwise in-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Broadcast-add a row vector to every row (bias add).
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for i in 0..self.rows {
            for (x, &b) in self.row_mut(i).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Multiply all elements by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for x in self.data.iter_mut() {
            *x *= s;
        }
    }

    /// Column sums — the bias gradient of a bias add.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for i in 0..self.rows {
            for (s, &x) in sums.iter_mut().zip(self.row(i)) {
                *s += x;
            }
        }
        sums
    }

    /// Map every element through `f`, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise product (Hadamard), returning a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).collect(),
        }
    }
}

/// Compute an `R × n` block of output rows: `block[r][j] += Σ_p av_at(r, p)
/// · b[p][j]`, ascending-k axpy. Each output element accumulates into one
/// scalar in strictly increasing-p order — the KU-unrolled body chains its
/// adds left-to-right, so R and KU are tuning knobs, not numerics knobs:
/// every (R, KU) produces the same bits as the plain one-row, one-p loop.
/// `R` output rows share each streamed b-row load, which is where the
/// speedup over the naive kernel comes from.
#[inline(always)]
fn mm_block<const R: usize, F: Fn(usize, usize) -> f32>(
    av_at: F,
    b: &Matrix,
    k: usize,
    n: usize,
    block: &mut [f32],
) {
    debug_assert_eq!(block.len(), R * n);
    let mut p = 0;
    while p + KU <= k {
        let av: [[f32; KU]; R] = std::array::from_fn(|r| std::array::from_fn(|u| av_at(r, p + u)));
        let brows: [&[f32]; KU] = std::array::from_fn(|u| b.row(p + u));
        for j in 0..n {
            let mut acc: [f32; R] = std::array::from_fn(|r| block[r * n + j]);
            for u in 0..KU {
                let bv = brows[u][j];
                for r in 0..R {
                    acc[r] += av[r][u] * bv;
                }
            }
            for r in 0..R {
                block[r * n + j] = acc[r];
            }
        }
        p += KU;
    }
    while p < k {
        let av: [f32; R] = std::array::from_fn(|r| av_at(r, p));
        let b_row = b.row(p);
        for j in 0..n {
            for r in 0..R {
                block[r * n + j] += av[r] * b_row[j];
            }
        }
        p += 1;
    }
}

/// Row kernel for `A @ B`: compute output rows `i0..i1` of the (m,k)x(k,n)
/// product into `out_rows` (a zeroed `(i1-i0) × n` panel), in [`RU`]-row
/// register blocks (see [`mm_block`] for the determinism argument).
fn mm_rows(a: &Matrix, b: &Matrix, i0: usize, i1: usize, out_rows: &mut [f32]) {
    let (k, n) = (a.cols, b.cols);
    let mut i = i0;
    while i + RU <= i1 {
        let ri = i - i0;
        mm_block::<RU, _>(
            |r, p| a.row(i + r)[p],
            b,
            k,
            n,
            &mut out_rows[ri * n..(ri + RU) * n],
        );
        i += RU;
    }
    while i < i1 {
        let ri = i - i0;
        mm_block::<1, _>(|_, p| a.row(i)[p], b, k, n, &mut out_rows[ri * n..(ri + 1) * n]);
        i += 1;
    }
}

/// Row kernel for `Aᵀ @ B` with A (k,m), B (k,n): output rows `i0..i1` are
/// columns of A, gathered at stride m. Same blocking and ascending-k order
/// as [`mm_rows`].
fn mm_tn_rows(a: &Matrix, b: &Matrix, i0: usize, i1: usize, out_rows: &mut [f32]) {
    let (k, m, n) = (a.rows, a.cols, b.cols);
    let col = &a.data[..];
    let mut i = i0;
    while i + RU <= i1 {
        let ri = i - i0;
        mm_block::<RU, _>(
            |r, p| col[p * m + i + r],
            b,
            k,
            n,
            &mut out_rows[ri * n..(ri + RU) * n],
        );
        i += RU;
    }
    while i < i1 {
        let ri = i - i0;
        mm_block::<1, _>(|_, p| col[p * m + i], b, k, n, &mut out_rows[ri * n..(ri + 1) * n]);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.raw(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[1., 0., 0., 1., 1., 1.]);
        let via_tn = a.matmul_tn(&b);
        let explicit = a.transposed().matmul(&b);
        assert_eq!(via_tn, explicit);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, &[1., 0., 0., 0., 1., 0., 0., 0., 1., 1., 1., 1.]);
        let via_nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transposed());
        assert_eq!(via_nt, explicit);
    }

    #[test]
    fn broadcast_and_colsums_are_adjoint() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(a.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut a = m(1, 3, &[1., 2., 3.]);
        a.scale(2.0);
        assert_eq!(a.raw(), &[2., 4., 6.]);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }
}
