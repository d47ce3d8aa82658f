//! IEEE 754 binary16 ("half") conversion, the feature-precision knob, and
//! the one in-memory representation of a stored feature row.
//!
//! BGL ships node features over the network and pins them in caches; at
//! `dim = 100..=300` floats per node the feature bytes dominate both D_I/D_II
//! wire traffic and cache capacity. Storing rows as f16 halves those bytes
//! while perturbing each scalar by at most one half-ULP (§ Table 5 pins the
//! resulting accuracy delta). Compute stays f32: the GNN kernels never see
//! half precision.
//!
//! ## Who owns the representation
//!
//! This module does. A stored row is a run of scalars in a [`RowBuf`] —
//! `f32`s or binary16 bit patterns, tagged by which — and a borrowed row is
//! a [`RowRef`]. Disk page frames (`bgl-store::pager`), wire payloads,
//! [`crate::FeatureBlock`] segments and cache slots (`bgl-cache`) all hold
//! rows in it and hand them on with [`RowBuf::push_row`] /
//! [`RowBuf::set_row`], which copy bits when source and destination agree
//! and convert only when they differ. So a row that is f16 on disk, on the
//! wire and in the cache is narrowed once, when an f32 value first enters
//! storage, and widened once, by [`RowRef::widen_into`] when a minibatch is
//! assembled. The little-endian byte image shared by pages and frames is
//! [`write_le`] / [`read_le`], one pass over the buffer.
//!
//! The conversions are hand-written (no external crate): round-to-nearest-
//! even on narrowing, exact on widening, with subnormals, ±inf and NaN
//! payloads handled explicitly. Narrowing is pure bit manipulation and
//! widening's one float operation is an exact power-of-two rescale, so both
//! are bit-exact across platforms, and
//! `narrow(widen(h)) == h` for every non-NaN `h`: holding bits instead of
//! round-tripping them through f32 changes no value anyone reads.

/// How feature rows are stored at rest (wire frames, cache slots, disk
/// pages). In-memory minibatches are always f32.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FeaturePrecision {
    /// Full f32 scalars — 4 bytes each. The default; bit-exact.
    #[default]
    F32,
    /// IEEE 754 binary16 scalars — 2 bytes each. Halves feature bytes at
    /// ≤ half-ULP error per scalar.
    F16,
}

impl FeaturePrecision {
    /// Bytes one stored scalar occupies.
    #[inline]
    pub fn bytes_per_scalar(self) -> usize {
        match self {
            FeaturePrecision::F32 => 4,
            FeaturePrecision::F16 => 2,
        }
    }

    /// Stable on-wire/on-disk discriminant.
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            FeaturePrecision::F32 => 0,
            FeaturePrecision::F16 => 1,
        }
    }
}

/// Narrow an `f32` to binary16 bits, rounding to nearest-even.
///
/// Overflow (|x| ≥ 65520) goes to ±inf; tiny values round through the f16
/// subnormal range down to ±0. NaNs stay NaN: the quiet bit is forced and
/// the top payload bits are kept, so a payloaded NaN survives (possibly
/// truncated) rather than collapsing to infinity.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x7F_FFFF;

    if exp == 0xFF {
        // Inf or NaN.
        return if mant == 0 {
            sign | 0x7C00
        } else {
            // Keep the high 10 payload bits; force the quiet bit so the
            // result cannot degenerate to an infinity encoding.
            sign | 0x7C00 | 0x0200 | ((mant >> 13) as u16 & 0x03FF)
        };
    }

    // Unbiased exponent; f16 bias is 15, f32 bias is 127.
    let e = exp - 127;
    if e >= 16 {
        // Too large for f16 (max finite is 65504): overflow to inf.
        return sign | 0x7C00;
    }
    if e >= -14 {
        // Normal f16 range. 13 mantissa bits are dropped; round-to-nearest,
        // ties to even on the retained LSB.
        let m = mant >> 13;
        let rest = mant & 0x1FFF;
        let halfway = 0x1000;
        let mut h = sign as u32 | (((e + 15) as u32) << 10) | m;
        if rest > halfway || (rest == halfway && (m & 1) == 1) {
            // Mantissa carry ripples into the exponent naturally
            // (1.11..1 * 2^e rounds up to 1.0 * 2^{e+1}).
            h += 1;
        }
        return h as u16;
    }
    if e >= -25 {
        // Subnormal f16: shift the implicit leading 1 into the mantissa.
        let full = mant | 0x80_0000;
        let shift = (-14 - e) as u32 + 13;
        let m = full >> shift;
        let rest = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut h = sign as u32 | m;
        if rest > halfway || (rest == halfway && (m & 1) == 1) {
            h += 1;
        }
        return h as u16;
    }
    // Underflow to signed zero.
    sign
}

/// Widen binary16 bits to `f32` exactly (every f16 value is representable).
///
/// Branch-free, so [`RowRef::widen_into`]'s row loop vectorises: exponent
/// and mantissa move to their f32 positions, and one multiply by 2¹¹²
/// rebiases the exponent (15 → 127). The product of a power of two and a
/// value with 10 significant bits is exact, and an f16 subnormal — which
/// arrives here as an f32 subnormal — comes out of the same multiply
/// renormalised. Inf and NaN (all exponent bits set) keep their payload
/// under an all-ones f32 exponent instead.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    const RESCALE: f32 = f32::from_bits(0x7780_0000); // 2^112
    let sign = ((h & 0x8000) as u32) << 16;
    let em = ((h & 0x7FFF) as u32) << 13;
    let finite = (f32::from_bits(em) * RESCALE).to_bits();
    let bits = if em >= 0x0F80_0000 { em | 0x7F80_0000 } else { finite };
    f32::from_bits(sign | bits)
}

/// A scalar as stored: `f32`, binary16 bits in a `u16`, or the `u32` ids and
/// `u64` digests the codecs move as vectors. Its fixed-width little-endian
/// image is what pages, wire frames and checkpoints hold.
pub trait LeScalar: Copy {
    /// Bytes of one scalar's image.
    const BYTES: usize;
    /// Write the image into `out` (exactly [`LeScalar::BYTES`] long).
    fn put_le(self, out: &mut [u8]);
    /// Read a scalar back from its image.
    fn get_le(bytes: &[u8]) -> Self;
}

macro_rules! le_scalars {
    ($($t:ty),*) => {$(
        impl LeScalar for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get_le(bytes: &[u8]) -> $t {
                <$t>::from_le_bytes(bytes.try_into().expect("a BYTES-long chunk"))
            }
        }
    )*};
}
le_scalars!(f32, u16, u32, u64);

/// Write `src` into `out` as consecutive little-endian images, in one pass.
///
/// # Panics
/// Panics unless `out` is exactly `src.len() × T::BYTES` long.
pub fn write_le<T: LeScalar>(src: &[T], out: &mut [u8]) {
    assert_eq!(out.len(), src.len() * T::BYTES, "byte image has the wrong length");
    for (chunk, &x) in out.chunks_exact_mut(T::BYTES).zip(src) {
        x.put_le(chunk);
    }
}

/// Read consecutive little-endian images back into scalars, in one pass.
/// `None` when `bytes` is not a whole number of scalars.
pub fn read_le<T: LeScalar>(bytes: &[u8]) -> Option<Vec<T>> {
    let chunks = bytes.chunks_exact(T::BYTES);
    chunks.remainder().is_empty().then(|| chunks.map(T::get_le).collect())
}

/// A borrowed stored row (or any run of stored scalars).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RowRef<'a> {
    F32(&'a [f32]),
    /// binary16 bit patterns.
    F16(&'a [u16]),
}

impl RowRef<'_> {
    /// Scalars in the row.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            RowRef::F32(r) => r.len(),
            RowRef::F16(r) => r.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the row as f32 in `out` — a copy for f32 rows, the one
    /// (exact) widening for f16 rows.
    ///
    /// # Panics
    /// Panics unless `out.len() == self.len()`.
    #[inline]
    pub fn widen_into(self, out: &mut [f32]) {
        match self {
            RowRef::F32(r) => out.copy_from_slice(r),
            RowRef::F16(r) => {
                assert_eq!(out.len(), r.len(), "row length mismatch");
                for (o, &h) in out.iter_mut().zip(r) {
                    *o = f16_bits_to_f32(h);
                }
            }
        }
    }

    /// Write the row's little-endian byte image into `out` (exactly
    /// `len × bytes_per_scalar` long).
    pub fn write_le_bytes(self, out: &mut [u8]) {
        match self {
            RowRef::F32(r) => write_le(r, out),
            RowRef::F16(r) => write_le(r, out),
        }
    }
}

/// Stored feature rows, row-major, at one precision: the buffer every layer
/// of the miss path holds rows in (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub enum RowBuf {
    F32(Vec<f32>),
    /// binary16 bit patterns.
    F16(Vec<u16>),
}

impl From<Vec<f32>> for RowBuf {
    fn from(rows: Vec<f32>) -> RowBuf {
        RowBuf::F32(rows)
    }
}

impl From<Vec<u16>> for RowBuf {
    fn from(rows: Vec<u16>) -> RowBuf {
        RowBuf::F16(rows)
    }
}

impl RowBuf {
    /// `scalars` zeros at `precision`.
    pub fn zeros(precision: FeaturePrecision, scalars: usize) -> RowBuf {
        match precision {
            FeaturePrecision::F32 => RowBuf::F32(vec![0.0; scalars]),
            FeaturePrecision::F16 => RowBuf::F16(vec![0; scalars]),
        }
    }

    /// An empty buffer at `precision` with room for `scalars`.
    pub fn with_capacity(precision: FeaturePrecision, scalars: usize) -> RowBuf {
        match precision {
            FeaturePrecision::F32 => RowBuf::F32(Vec::with_capacity(scalars)),
            FeaturePrecision::F16 => RowBuf::F16(Vec::with_capacity(scalars)),
        }
    }

    pub fn precision(&self) -> FeaturePrecision {
        match self {
            RowBuf::F32(_) => FeaturePrecision::F32,
            RowBuf::F16(_) => FeaturePrecision::F16,
        }
    }

    /// Scalars held.
    pub fn len(&self) -> usize {
        self.as_row().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the scalars occupy (in memory and in their byte image).
    pub fn byte_len(&self) -> usize {
        self.len() * self.precision().bytes_per_scalar()
    }

    /// The whole buffer as one borrowed run.
    pub fn as_row(&self) -> RowRef<'_> {
        match self {
            RowBuf::F32(b) => RowRef::F32(b),
            RowBuf::F16(b) => RowRef::F16(b),
        }
    }

    /// Borrow row `i` of width `dim`.
    #[inline]
    pub fn row(&self, i: usize, dim: usize) -> RowRef<'_> {
        let range = i * dim..(i + 1) * dim;
        match self {
            RowBuf::F32(b) => RowRef::F32(&b[range]),
            RowBuf::F16(b) => RowRef::F16(&b[range]),
        }
    }

    /// Overwrite row `i` (of width `row.len()`) with `row`: bits are copied
    /// when the precisions agree, narrowed or widened when they differ.
    #[inline]
    pub fn set_row(&mut self, i: usize, row: RowRef<'_>) {
        let range = i * row.len()..(i + 1) * row.len();
        match (self, row) {
            (RowBuf::F32(b), row) => row.widen_into(&mut b[range]),
            (RowBuf::F16(b), RowRef::F16(r)) => b[range].copy_from_slice(r),
            (RowBuf::F16(b), RowRef::F32(r)) => {
                for (h, &x) in b[range].iter_mut().zip(r) {
                    *h = f32_to_f16_bits(x);
                }
            }
        }
    }

    /// Append `row`, converting only when the precisions differ.
    #[inline]
    pub fn push_row(&mut self, row: RowRef<'_>) {
        match (self, row) {
            (RowBuf::F32(b), RowRef::F32(r)) => b.extend_from_slice(r),
            (RowBuf::F16(b), RowRef::F16(r)) => b.extend_from_slice(r),
            (RowBuf::F32(b), RowRef::F16(r)) => b.extend(r.iter().map(|&h| f16_bits_to_f32(h))),
            (RowBuf::F16(b), RowRef::F32(r)) => b.extend(r.iter().map(|&x| f32_to_f16_bits(x))),
        }
    }

    /// Overwrite the buffer with the scalars of a little-endian byte image
    /// at `precision`, reusing the allocation when the buffer is already at
    /// that precision. `false` — and the buffer untouched — when `bytes` is
    /// not a whole number of `precision` scalars.
    pub fn fill_from_le_bytes(&mut self, precision: FeaturePrecision, bytes: &[u8]) -> bool {
        fn refill<T: LeScalar>(out: &mut Vec<T>, bytes: &[u8]) {
            out.clear();
            out.extend(bytes.chunks_exact(T::BYTES).map(T::get_le));
        }
        if !bytes.len().is_multiple_of(precision.bytes_per_scalar()) {
            return false;
        }
        if self.precision() != precision {
            *self = RowBuf::with_capacity(precision, 0);
        }
        match self {
            RowBuf::F32(b) => refill(b, bytes),
            RowBuf::F16(b) => refill(b, bytes),
        }
        true
    }
}

/// Round-trip one scalar through f16 (the quantization a stored row
/// undergoes). Used by tests and the tab5 accuracy harness.
#[inline]
pub fn quantize_f16(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The widening as it was first written, case by case: the reference
    /// [`f16_bits_to_f32`] is held to.
    fn widen_by_cases(h: u16) -> f32 {
        let sign = ((h & 0x8000) as u32) << 16;
        let exp = ((h >> 10) & 0x1F) as u32;
        let mant = (h & 0x03FF) as u32;

        let bits = if exp == 0x1F {
            // Inf / NaN: shift the payload back up.
            sign | 0x7F80_0000 | (mant << 13)
        } else if exp == 0 {
            if mant == 0 {
                sign // ±0
            } else {
                // Subnormal: value is mant·2⁻²⁴. Renormalize — the leading bit's
                // position becomes the exponent (unbiased `lead - 24`, so biased
                // `lead + 103`) and the rest shifts up into the f32 mantissa.
                let lead = 31 - mant.leading_zeros(); // 0..=9
                let m = (mant << (23 - lead)) & 0x7F_FFFF;
                sign | ((lead + 103) << 23) | m
            }
        } else {
            // Normal: rebias 15 -> 127.
            sign | ((exp + 112) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    #[test]
    fn branch_free_widen_equals_the_case_analysis_on_every_pattern() {
        for h in 0..=u16::MAX {
            let (got, want) = (f16_bits_to_f32(h).to_bits(), widen_by_cases(h).to_bits());
            assert_eq!(got, want, "{h:#06x}: {got:#010x} != {want:#010x}");
        }
        // The same through the row loop the compiler vectorises.
        let all: Vec<u16> = (0..=u16::MAX).collect();
        let mut wide = vec![0.0f32; all.len()];
        RowRef::F16(&all).widen_into(&mut wide);
        for (&h, w) in all.iter().zip(&wide) {
            assert_eq!(w.to_bits(), widen_by_cases(h).to_bits(), "{h:#06x} in a row");
        }
    }

    #[test]
    fn exact_small_values_round_trip() {
        for &v in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, 1.5, 0.25, -3.75] {
            let q = quantize_f16(v);
            assert_eq!(q.to_bits(), v.to_bits(), "{v} should be exact in f16");
        }
    }

    #[test]
    fn signed_zero_is_preserved() {
        assert_eq!(quantize_f16(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(quantize_f16(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn infinities_and_overflow() {
        assert_eq!(quantize_f16(f32::INFINITY), f32::INFINITY);
        assert_eq!(quantize_f16(f32::NEG_INFINITY), f32::NEG_INFINITY);
        // Max finite f16 is 65504; the rounding boundary is 65520.
        assert_eq!(quantize_f16(65504.0), 65504.0);
        assert_eq!(quantize_f16(65519.0), 65504.0);
        assert_eq!(quantize_f16(65520.0), f32::INFINITY);
        assert_eq!(quantize_f16(-1e38), f32::NEG_INFINITY);
    }

    #[test]
    fn nan_payloads_stay_nan() {
        let q = quantize_f16(f32::NAN);
        assert!(q.is_nan());
        // A payloaded signalling-ish NaN must not collapse to inf.
        let payload = f32::from_bits(0x7F80_0001);
        assert!(quantize_f16(payload).is_nan());
        let neg = f32::from_bits(0xFFC0_1234);
        let qn = quantize_f16(neg);
        assert!(qn.is_nan());
        assert!(qn.to_bits() & 0x8000_0000 != 0, "NaN sign preserved");
    }

    #[test]
    fn subnormal_range() {
        // Smallest positive f16 subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(quantize_f16(tiny), tiny);
        // Largest f16 subnormal: 1023 * 2^-24 (just under 2^-14).
        let sub = 1023.0 * 2.0f32.powi(-24);
        assert_eq!(quantize_f16(sub), sub);
        // Smallest normal.
        let norm = 2.0f32.powi(-14);
        assert_eq!(quantize_f16(norm), norm);
        // Below half the smallest subnormal: flush to zero, keeping sign.
        assert_eq!(quantize_f16(2.0f32.powi(-26)).to_bits(), 0);
        assert_eq!(quantize_f16(-(2.0f32.powi(-26))).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn rounding_ties_go_to_even() {
        // 1 + 2^-11 sits exactly between 1.0 and the next f16 (1 + 2^-10):
        // the tie must go to the even mantissa, i.e. 1.0.
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(quantize_f16(tie), 1.0);
        // 1 + 3·2^-11 ties between (1 + 2^-10) and (1 + 2^-9); even is the
        // latter (mantissa 0b10).
        let tie2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(quantize_f16(tie2), 1.0 + 2.0f32.powi(-9));
        // Just above a halfway point rounds up.
        let up = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-18);
        assert_eq!(quantize_f16(up), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn mantissa_carry_ripples_into_exponent() {
        // Largest f16 mantissa at e=0 rounds up into e=1: 1.9999.. -> 2.0.
        let v = 1.0 + 1023.5 / 1024.0; // halfway above 1 + 1023/1024
        assert_eq!(quantize_f16(v), 2.0);
    }

    #[test]
    fn quantization_error_is_bounded_by_half_ulp() {
        // For normal-range values the relative error is ≤ 2^-11.
        let mut x = 1.0e-4f32;
        while x < 6.0e4 {
            let q = quantize_f16(x);
            let rel = ((q - x) / x).abs();
            assert!(rel <= 4.9e-4, "x={x} q={q} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn rows_narrow_on_entry_and_widen_back_within_half_ulp() {
        let row: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.37).collect();
        let mut stored = RowBuf::with_capacity(FeaturePrecision::F16, row.len());
        stored.push_row(RowRef::F32(&row));
        assert_eq!((stored.len(), stored.byte_len()), (row.len(), 2 * row.len()));
        let mut back = vec![0.0f32; row.len()];
        stored.as_row().widen_into(&mut back);
        for (a, b) in row.iter().zip(&back) {
            assert!((a - b).abs() <= a.abs() * 5e-4 + 1e-6);
        }
        // Decoding is idempotent: re-quantizing a quantized value is exact.
        for &b in &back {
            assert_eq!(quantize_f16(b).to_bits(), b.to_bits());
        }
    }

    /// The identity the bits-preserving miss path rests on, over every
    /// binary16 pattern: widening then narrowing gives the pattern back, so
    /// a layer that holds f16 bits serves exactly what a layer that held
    /// their f32 image and re-narrowed it would have.
    #[test]
    fn narrow_of_widen_is_the_identity_on_every_non_nan_pattern() {
        for h in 0..=u16::MAX {
            let wide = f16_bits_to_f32(h);
            let back = f32_to_f16_bits(wide);
            let is_nan = h & 0x7C00 == 0x7C00 && h & 0x03FF != 0;
            if is_nan {
                assert!(wide.is_nan(), "{h:#06x} must widen to a NaN");
                assert_eq!(back & 0x7C00, 0x7C00, "{h:#06x} must stay a NaN");
                assert_ne!(back & 0x03FF, 0, "{h:#06x} must not collapse to inf");
                assert_eq!(back & 0x8000, h & 0x8000, "{h:#06x} keeps its sign");
            } else {
                assert_eq!(back, h, "{h:#06x} -> {wide:e}");
            }
        }
    }

    #[test]
    fn byte_images_round_trip_every_pattern_and_reject_partial_scalars() {
        let all: Vec<u16> = (0..=u16::MAX).collect();
        let half = RowBuf::from(all.clone());
        let mut image = vec![0u8; half.byte_len()];
        half.as_row().write_le_bytes(&mut image);
        assert_eq!(&image[..6], &[0, 0, 1, 0, 2, 0], "little-endian, scalar by scalar");
        let decode = |precision, bytes: &[u8]| {
            let mut buf = RowBuf::with_capacity(precision, 0);
            buf.fill_from_le_bytes(precision, bytes).then_some(buf)
        };
        assert_eq!(decode(FeaturePrecision::F16, &image), Some(half.clone()));

        // The same bytes as f32 scalars (NaN patterns included, so compare
        // bits): decode(encode(b)) == b.
        let RowBuf::F32(wide) = decode(FeaturePrecision::F32, &image).unwrap() else {
            panic!("an f32 image decodes to an f32 buffer");
        };
        assert_eq!(wide.len(), all.len() / 2);
        let mut again = vec![0u8; image.len()];
        RowRef::F32(&wide).write_le_bytes(&mut again);
        assert_eq!(again, image);

        // Odd and short lengths are not whole scalars.
        assert_eq!(decode(FeaturePrecision::F16, &image[..5]), None);
        assert_eq!(decode(FeaturePrecision::F16, &image[..1]), None);
        for cut in 1..4 {
            assert_eq!(decode(FeaturePrecision::F32, &image[..4 + cut]), None);
        }
        assert!(decode(FeaturePrecision::F32, &[]).unwrap().is_empty());

        // A refill replaces everything the buffer held — longer, shorter or
        // at the other precision — and a refused image replaces nothing.
        let mut buf = RowBuf::from(vec![7.0f32; 9]);
        assert!(buf.fill_from_le_bytes(FeaturePrecision::F16, &image));
        assert_eq!(buf, half);
        assert!(buf.fill_from_le_bytes(FeaturePrecision::F16, &image[..6]));
        assert_eq!(buf, RowBuf::from(vec![0u16, 1, 2]));
        assert!(!buf.fill_from_le_bytes(FeaturePrecision::F32, &image[..6]));
        assert_eq!(buf, RowBuf::from(vec![0u16, 1, 2]));
    }

    #[test]
    fn rows_move_between_buffers_by_bits_when_precisions_agree() {
        // 0.1 is not f16-exact, so a conversion anywhere would show.
        let src = RowBuf::from(vec![0.1f32, 0.2, 0.3, 0.4]);
        let mut half = RowBuf::zeros(FeaturePrecision::F16, 4);
        half.set_row(1, src.row(0, 2));
        assert_eq!(half, RowBuf::from(vec![0, 0, f32_to_f16_bits(0.1), f32_to_f16_bits(0.2)]));
        // f16 -> f16 and f32 -> f32 copy bits; f16 -> f32 widens exactly.
        let mut half2 = RowBuf::with_capacity(FeaturePrecision::F16, 2);
        half2.push_row(half.row(1, 2));
        assert_eq!(half2.as_row(), half.row(1, 2));
        let mut wide = RowBuf::zeros(FeaturePrecision::F32, 4);
        wide.set_row(0, src.row(1, 2));
        wide.set_row(1, half.row(1, 2));
        assert_eq!(wide, RowBuf::from(vec![0.3, 0.4, quantize_f16(0.1), quantize_f16(0.2)]));
    }
}
