//! Arena-backed feature rows: reference, don't re-`Vec`.
//!
//! The old fetch path copied every feature row three times on its way into a
//! minibatch: wire frame → per-server row buffer → batch-order reassembly
//! buffer → minibatch matrix. [`FeatureBlock`] kills the middle copies. A
//! decoded buffer (one per store-server response) is *adopted* as a segment
//! — ownership moves, bytes don't — and a `(segment, row)` index maps each
//! logical batch row onto the segment that holds it. Consumers read rows by
//! reference ([`FeatureBlock::stored_row`]) straight out of the adopted
//! buffers; the only remaining copy is the one that materializes the
//! minibatch matrix / cache slot, which must happen anyway.
//!
//! The block does not own the row representation — [`crate::half`] does. A
//! segment is a [`RowBuf`] at whatever precision the response carried: an
//! f16 payload is adopted as f16 bits, not widened on arrival, so the
//! consumer copies those bits into f16 cache slots and widens each row once
//! into the batch matrix ([`RowRef::widen_into`]).
//!
//! ## Ownership rules
//!
//! * A segment buffer, once adopted, is immutable and owned by the block —
//!   the producer must not keep any handle to it.
//! * Rows never span segments; `buf.len()` must be a multiple of `dim`.
//! * Unplaced rows read as zeros (segment 0 is a shared zero row). This is
//!   exactly the degraded-fetch semantic: a row the cluster could not fetch
//!   stays all-zero without a dedicated buffer.

use crate::half::{RowBuf, RowRef};

/// A batch of feature rows backed by adopted segments.
#[derive(Debug, Clone)]
pub struct FeatureBlock {
    dim: usize,
    /// Segment 0 is one shared zero row; adopted segments follow.
    segments: Vec<RowBuf>,
    /// `(segment, row-within-segment)` per logical row.
    index: Vec<(u32, u32)>,
}

impl FeatureBlock {
    /// A block of `rows` logical rows of width `dim`, all initially zero
    /// (i.e. unplaced / degraded).
    pub fn new(dim: usize, rows: usize) -> Self {
        FeatureBlock {
            dim,
            segments: vec![RowBuf::F32(vec![0.0; dim])],
            index: vec![(0, 0); rows],
        }
    }

    /// Wrap an already batch-ordered row buffer (e.g. a test fixture or a
    /// single-source fetch) without copying it.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a multiple of `dim` (for `dim > 0`).
    pub fn from_rows(dim: usize, buf: Vec<f32>) -> Self {
        let rows = if dim == 0 {
            0
        } else {
            assert_eq!(buf.len() % dim, 0, "buffer is not whole rows");
            buf.len() / dim
        };
        let mut b = FeatureBlock::new(dim, rows);
        let seg = b.adopt_segment(buf);
        for i in 0..rows {
            b.index[i] = (seg as u32, i as u32);
        }
        b
    }

    /// Take ownership of a decoded row buffer — `Vec<f32>`, `Vec<u16>` of
    /// binary16 bits, or a [`RowBuf`] — and return its segment id for use
    /// with [`FeatureBlock::place`]. The bytes are not copied or converted.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a multiple of `dim` (for `dim > 0`).
    pub fn adopt_segment(&mut self, buf: impl Into<RowBuf>) -> usize {
        let buf = buf.into();
        if self.dim > 0 {
            assert_eq!(buf.len() % self.dim, 0, "segment is not whole rows");
        }
        self.segments.push(buf);
        self.segments.len() - 1
    }

    /// Map logical row `pos` onto row `row` of segment `seg`.
    ///
    /// # Panics
    /// Panics if `pos`, `seg` or `row` is out of range.
    pub fn place(&mut self, pos: usize, seg: usize, row: usize) {
        assert!(seg < self.segments.len(), "segment {seg} not adopted");
        if let Some(nrows) = self.segments[seg].len().checked_div(self.dim) {
            assert!(row < nrows, "row {row} out of segment ({nrows} rows)");
        }
        self.index[pos] = (seg as u32, row as u32);
    }

    /// Row width.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of logical rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the block holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Borrow logical row `i`, at its segment's precision, out of whichever
    /// segment holds it.
    #[inline]
    pub fn stored_row(&self, i: usize) -> RowRef<'_> {
        let (seg, row) = self.index[i];
        self.segments[seg as usize].row(row as usize, self.dim)
    }

    /// Borrow logical row `i` as f32 — for blocks fetched at f32 (and
    /// unplaced rows, which are f32 zeros at any precision).
    ///
    /// # Panics
    /// Panics if the row sits in an f16 segment: there is no f32 image to
    /// borrow. Read such rows with [`FeatureBlock::stored_row`] or
    /// [`FeatureBlock::copy_into`].
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        match self.stored_row(i) {
            RowRef::F32(row) => row,
            RowRef::F16(_) => panic!("row {i} is stored as f16; use stored_row or copy_into"),
        }
    }

    /// Materialize every row, in order, as f32 in `out` (must be `len·dim`
    /// long). The single materialization copy consumers are allowed.
    pub fn copy_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len() * self.dim, "output size mismatch");
        for (i, chunk) in out.chunks_exact_mut(self.dim.max(1)).enumerate() {
            self.stored_row(i).widen_into(chunk);
        }
    }

    /// Flatten to a fresh batch-ordered f32 `Vec` (tests / compatibility).
    pub fn to_vec(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.len() * self.dim];
        self.copy_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unplaced_rows_read_zero() {
        let b = FeatureBlock::new(3, 4);
        assert_eq!(b.len(), 4);
        for i in 0..4 {
            assert_eq!(b.row(i), &[0.0, 0.0, 0.0]);
        }
    }

    #[test]
    fn adopted_segments_are_referenced_not_copied() {
        let mut b = FeatureBlock::new(2, 4);
        // Two "server responses" in arbitrary order.
        let s1 = b.adopt_segment(vec![1.0, 2.0, 3.0, 4.0]); // rows for pos 2, 0
        let s2 = b.adopt_segment(vec![5.0, 6.0]); // row for pos 3
        b.place(2, s1, 0);
        b.place(0, s1, 1);
        b.place(3, s2, 0);
        assert_eq!(b.row(0), &[3.0, 4.0]);
        assert_eq!(b.row(1), &[0.0, 0.0]); // degraded
        assert_eq!(b.row(2), &[1.0, 2.0]);
        assert_eq!(b.row(3), &[5.0, 6.0]);
        assert_eq!(b.to_vec(), vec![3.0, 4.0, 0.0, 0.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn f16_segments_keep_their_bits_and_share_the_zero_row() {
        use crate::half::{f32_to_f16_bits, quantize_f16};
        let mut b = FeatureBlock::new(2, 3);
        let bits: Vec<u16> = [0.1f32, -0.2, 7.0, 0.3].iter().map(|&x| f32_to_f16_bits(x)).collect();
        let seg = b.adopt_segment(bits.clone());
        b.place(2, seg, 0);
        b.place(0, seg, 1);
        assert_eq!(b.stored_row(0), RowRef::F16(&bits[2..]));
        assert_eq!(b.stored_row(2), RowRef::F16(&bits[..2]));
        // Unplaced (degraded) rows are the shared f32 zero row either way.
        assert_eq!(b.row(1), &[0.0, 0.0]);
        assert_eq!(
            b.to_vec(),
            vec![7.0, quantize_f16(0.3), 0.0, 0.0, quantize_f16(0.1), quantize_f16(-0.2)]
        );
    }

    #[test]
    #[should_panic(expected = "stored as f16")]
    fn an_f16_row_cannot_be_borrowed_as_f32() {
        let mut b = FeatureBlock::new(1, 1);
        let seg = b.adopt_segment(vec![0x3C00u16]);
        b.place(0, seg, 0);
        b.row(0);
    }

    #[test]
    fn from_rows_is_identity_order() {
        let b = FeatureBlock::from_rows(3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), &[1., 2., 3.]);
        assert_eq!(b.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn copy_into_round_trips() {
        let b = FeatureBlock::from_rows(2, vec![9., 8., 7., 6.]);
        let mut out = [0.0f32; 4];
        b.copy_into(&mut out);
        assert_eq!(out, [9., 8., 7., 6.]);
    }

    #[test]
    fn empty_and_zero_dim_blocks() {
        let b = FeatureBlock::from_rows(4, Vec::new());
        assert!(b.is_empty());
        assert_eq!(b.to_vec(), Vec::<f32>::new());
        let z = FeatureBlock::new(0, 0);
        assert_eq!(z.len(), 0);
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn ragged_segment_is_rejected() {
        let mut b = FeatureBlock::new(3, 1);
        b.adopt_segment(vec![1.0, 2.0]);
    }
}
