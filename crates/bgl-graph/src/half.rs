//! IEEE 754 binary16 ("half") conversion and the feature-precision knob.
//!
//! BGL ships node features over the network and pins them in caches; at
//! `dim = 100..=300` floats per node the feature bytes dominate both D_I/D_II
//! wire traffic and cache capacity. Storing rows as f16 halves those bytes
//! while perturbing each scalar by at most one half-ULP (§ Table 5 pins the
//! resulting accuracy delta). Compute stays f32 end-to-end: rows are widened
//! on decode, so the GNN kernels never see half precision.
//!
//! The conversions are hand-written (no external crate): round-to-nearest-
//! even on narrowing, exact on widening, with subnormals, ±inf and NaN
//! payloads handled explicitly. Both directions are pure bit manipulation —
//! no float arithmetic — so they are bit-exact across platforms.

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
pub fn f16_bits_to_f32(h: u16) -> f32 {
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

/// Encode a row of f32 scalars into f16 bits.
pub fn encode_row_f16(row: &[f32], out: &mut Vec<u16>) {
    out.reserve(row.len());
    for &x in row {
        out.push(f32_to_f16_bits(x));
    }
}

/// Decode f16 bits into f32 scalars, appending to `out`.
pub fn decode_row_f16(bits: &[u16], out: &mut Vec<f32>) {
    out.reserve(bits.len());
    for &h in bits {
        out.push(f16_bits_to_f32(h));
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
    fn row_encode_decode_round_trip() {
        let row: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.37).collect();
        let mut bits = Vec::new();
        encode_row_f16(&row, &mut bits);
        assert_eq!(bits.len(), row.len());
        let mut back = Vec::new();
        decode_row_f16(&bits, &mut back);
        for (a, b) in row.iter().zip(&back) {
            assert!((a - b).abs() <= a.abs() * 5e-4 + 1e-6);
        }
        // Decoding is idempotent: re-quantizing a quantized value is exact.
        for &b in &back {
            assert_eq!(quantize_f16(b).to_bits(), b.to_bits());
        }
    }
}
