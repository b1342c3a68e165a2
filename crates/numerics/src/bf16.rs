//! bfloat16 codec (extension dtype).
//!
//! bfloat16 is the upper 16 bits of an IEEE binary32:
//! `s eeeeeeee mmmmmmm` — 1 sign, 8 exponent (bias 127, same as FP32),
//! 7 mantissa bits. Conversion from f32 is a round-to-nearest-even
//! truncation of the low 16 bits; conversion back is a zero-extend.
//! Because the exponent field matches FP32's, BF16 covers FP32's full
//! dynamic range at greatly reduced precision — which changes the paper's
//! bit-level story: mean shifts freeze *more* of the word (8 exponent
//! bits), while mantissa-level effects (LSB randomization/zeroing) have
//! only 7 bits to act on.

/// Convert an `f32` to the nearest bfloat16 pattern
/// (round-to-nearest, ties-to-even). NaNs are quietized.
#[inline]
pub fn f32_to_bf16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    if value.is_nan() {
        // Quiet NaN preserving the top payload bits.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round_bit = (bits >> 15) & 1;
    let sticky = bits & 0x7FFF;
    let mut out = (bits >> 16) as u16;
    if round_bit == 1 && (sticky != 0 || (out & 1) == 1) {
        out = out.wrapping_add(1); // may round into infinity: correct
    }
    out
}

/// Convert a bfloat16 pattern to its exact `f32` value.
#[inline]
pub fn bf16_bits_to_f32(bits: u16) -> f32 {
    f32::from_bits(u32::from(bits) << 16)
}

/// Round an `f32` to the nearest bfloat16-representable value.
#[inline]
pub fn round_f32_to_bf16(value: f32) -> f32 {
    bf16_bits_to_f32(f32_to_bf16_bits(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        assert_eq!(f32_to_bf16_bits(0.0), 0x0000);
        assert_eq!(f32_to_bf16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_bf16_bits(1.0), 0x3F80);
        assert_eq!(f32_to_bf16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_bf16_bits(f32::INFINITY), 0x7F80);
    }

    #[test]
    fn round_trip_is_projection() {
        for x in [0.0f32, 1.0, -3.25, 210.0, 1e20, 1e-20, 65504.0] {
            let once = round_f32_to_bf16(x);
            assert_eq!(round_f32_to_bf16(once).to_bits(), once.to_bits());
        }
    }

    #[test]
    fn exhaustive_bits_round_trip() {
        for bits in 0..=u16::MAX {
            let x = bf16_bits_to_f32(bits);
            if x.is_nan() {
                assert!(bf16_bits_to_f32(f32_to_bf16_bits(x)).is_nan());
            } else {
                assert_eq!(f32_to_bf16_bits(x), bits, "pattern {bits:#06x}");
            }
        }
    }

    #[test]
    fn ties_to_even() {
        // 1 + 2^-8 sits exactly between 1.0 (0x3F80) and the next bf16
        // (0x3F81); ties-to-even keeps 0x3F80.
        let tie = 1.0 + 2.0f32.powi(-8);
        assert_eq!(f32_to_bf16_bits(tie), 0x3F80);
        let above = 1.0 + 2.0f32.powi(-8) + 2.0f32.powi(-16);
        assert_eq!(f32_to_bf16_bits(above), 0x3F81);
    }

    #[test]
    fn dynamic_range_matches_f32() {
        // 1e38 overflows FP16 by far but is finite in BF16.
        let big = round_f32_to_bf16(1e38);
        assert!(big.is_finite());
        // Values past BF16_MAX + half an ulp (~3.3961e38) round to infinity.
        assert!(round_f32_to_bf16(3.399e38).is_infinite());
        assert!(round_f32_to_bf16(3.39e38).is_finite());
    }

    #[test]
    fn rounding_error_within_half_ulp() {
        for &x in &[std::f32::consts::PI, 210.4567, -0.001234, 54321.0] {
            let r = round_f32_to_bf16(x);
            let ulp = 2.0f32.powi(x.abs().log2().floor() as i32 - 7);
            assert!((r - x).abs() <= ulp * 0.5 + f32::EPSILON, "{x} -> {r}");
        }
    }
}
