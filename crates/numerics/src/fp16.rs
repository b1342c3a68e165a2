//! IEEE 754 binary16 ("half precision") codec, from scratch.
//!
//! Rust has no stable `f16`, and the paper's experiments hinge on the exact
//! 16-bit encodings that stream through the datapath — the toggle engine
//! counts bits in *these* words. The conversion implements the full IEEE
//! semantics:
//!
//! * round-to-nearest-even on narrowing (the paper: "round to nearest value"),
//! * gradual underflow to subnormals,
//! * overflow to ±infinity,
//! * NaN payload preservation (quietized).
//!
//! Layout: `s eeeee mmmmmmmmmm` — 1 sign bit, 5 exponent bits (bias 15),
//! 10 mantissa bits.

/// Exponent bias of binary16.
pub const F16_BIAS: i32 = 15;
/// Number of stored mantissa bits of binary16.
pub const F16_MANT_BITS: u32 = 10;
/// Largest finite binary16 value (65504.0).
pub const F16_MAX: f32 = 65504.0;
/// Smallest positive normal binary16 value (2⁻¹⁴).
pub const F16_MIN_POSITIVE: f32 = 6.103_515_6e-5;

/// `|x|` bits of the smallest normal binary16 value, 2^-14.
const F16_MIN_NORMAL_BITS: u32 = 0x3880_0000;
/// `|x|` bits of 2^16, the first magnitude past binary16's range (its
/// largest finite value rounds up to it only at 65520).
const F16_OVERFLOW_BITS: u32 = 0x4780_0000;
/// `|x|` bits of `f32` infinity; anything above is a NaN.
const F32_INFINITY_BITS: u32 = 0x7F80_0000;

/// Convert an `f32` to the nearest binary16 bit pattern
/// (round-to-nearest, ties-to-even).
///
/// Every case is computed and one is selected, without branching on the
/// value, so loops over whole buffers vectorize.
///
/// ```
/// use wm_numerics::{f32_to_f16_bits, f16_bits_to_f32};
/// assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
/// assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
/// assert_eq!(f16_bits_to_f32(f32_to_f16_bits(0.5)), 0.5);
/// ```
#[inline]
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let abs = bits & 0x7FFF_FFFF;
    // Normal range: rebias the exponent and round the 13 dropped mantissa
    // bits to nearest even; a carry may run into the exponent, up to
    // infinity.
    let normal = ((abs + 0x0FFF + ((abs >> 13) & 1)) >> 13)
        .wrapping_sub(((127 - F16_BIAS) as u32) << F16_MANT_BITS);
    // Below it (gradual underflow): 0.5's ulp is 2^-24, binary16's
    // subnormal step, so adding 0.5 rounds |value| to the nearest even
    // step — zero and the smallest normal included — leaving the step
    // count in the low mantissa bits.
    let subnormal = (f32::from_bits(abs) + 0.5).to_bits() - 0.5f32.to_bits();
    let magnitude = if abs > F32_INFINITY_BITS {
        // Quiet NaN, preserving the top mantissa bits that fit.
        0x7C00 | 0x0200 | ((abs >> 13) & 0x01FF)
    } else if abs >= F16_OVERFLOW_BITS {
        // Infinity, or past binary16's range: infinity.
        0x7C00
    } else if abs >= F16_MIN_NORMAL_BITS {
        normal
    } else {
        subnormal
    };
    (((bits >> 16) & 0x8000) | magnitude) as u16
}

/// Convert a binary16 bit pattern to the exactly-representable `f32`.
///
/// Every binary16 value is exactly representable in binary32, so this
/// direction is lossless. Like [`f32_to_f16_bits`], it selects between
/// its cases without branching on the value.
#[inline]
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let bits = u32::from(bits);
    let exp16 = (bits >> F16_MANT_BITS) & 0x1F;
    // Normal range: widen the mantissa by 13 bits and rebias the exponent.
    let rebias = ((127 - F16_BIAS) as u32) << 23;
    let normal = ((bits & 0x7FFF) << 13) + rebias;
    let magnitude = if exp16 == 0x1F {
        // Infinity or NaN: rebiasing twice lands on the all-ones exponent,
        // and the payload is kept.
        normal + rebias
    } else if exp16 == 0 {
        // Zero or subnormal: the mantissa times the step 2^-24, exact.
        ((bits & 0x03FF) as f32 * (1.0 / 16_777_216.0)).to_bits()
    } else {
        normal
    };
    f32::from_bits(((bits & 0x8000) << 16) | magnitude)
}

/// Round an `f32` to the nearest binary16-representable value, returned as
/// `f32` (the "numeric conversion" the paper applies to FP16 inputs).
#[inline]
pub fn round_f32_to_f16(value: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(value))
}

/// Multiply two values in binary16 precision: convert to half, multiply in
/// f32, round the product back to half. For values already representable in
/// half this matches an IEEE binary16 fused-rounding multiply because the
/// f32 product of two halves is exact (11+11 significant bits < 24).
#[inline]
pub fn f16_mul(a: f32, b: f32) -> f32 {
    round_f32_to_f16(round_f32_to_f16(a) * round_f32_to_f16(b))
}

/// Add two values in binary16 precision. The f32 sum of two halves is not
/// always exact, but double rounding through f32 differs from direct
/// binary16 rounding only on ties at the 2⁻¹¹ boundary — negligible for the
/// power simulation and fully deterministic.
#[inline]
pub fn f16_add(a: f32, b: f32) -> f32 {
    round_f32_to_f16(round_f32_to_f16(a) + round_f32_to_f16(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-1.0), 0xBC00);
        assert_eq!(f32_to_f16_bits(2.0), 0x4000);
        assert_eq!(f32_to_f16_bits(0.5), 0x3800);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // F16_MAX
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xFC00);
    }

    #[test]
    fn nan_maps_to_nan() {
        let bits = f32_to_f16_bits(f32::NAN);
        assert_eq!(bits & 0x7C00, 0x7C00);
        assert_ne!(bits & 0x03FF, 0);
        assert!(f16_bits_to_f32(bits).is_nan());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(f32_to_f16_bits(65520.0), 0x7C00); // rounds up past F16_MAX
        assert_eq!(f32_to_f16_bits(1e9), 0x7C00);
        assert_eq!(f32_to_f16_bits(-1e9), 0xFC00);
    }

    #[test]
    fn underflow_to_zero_and_subnormals() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(f32_to_f16_bits(tiny), 0x0001);
        assert_eq!(f16_bits_to_f32(0x0001), tiny);
        // Half of that rounds to zero (ties-to-even: 0.5 ulp to 0x0000).
        assert_eq!(f32_to_f16_bits(tiny / 2.0), 0x0000);
        // 0.75 of the smallest subnormal rounds up to it.
        assert_eq!(f32_to_f16_bits(tiny * 0.75), 0x0001);
        // Values below the rounding threshold vanish.
        assert_eq!(f32_to_f16_bits(1e-30), 0x0000);
        assert_eq!(f32_to_f16_bits(-1e-30), 0x8000);
    }

    #[test]
    fn round_to_nearest_even_on_ties() {
        // 1 + 2^-11 is exactly between 1.0 (0x3C00) and 1+2^-10 (0x3C01);
        // ties-to-even keeps the even mantissa 0x3C00.
        let tie = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(f32_to_f16_bits(tie), 0x3C00);
        // 1 + 3*2^-11 is between 0x3C01 and 0x3C02; even is 0x3C02.
        let tie2 = 1.0 + 3.0 * 2.0_f32.powi(-11);
        assert_eq!(f32_to_f16_bits(tie2), 0x3C02);
        // Slightly above a tie rounds up.
        let above = 1.0 + 2.0_f32.powi(-11) + 2.0_f32.powi(-20);
        assert_eq!(f32_to_f16_bits(above), 0x3C01);
    }

    #[test]
    fn exhaustive_round_trip_all_16bit_patterns() {
        // Every binary16 value is exact in f32, so bits -> f32 -> bits must
        // be the identity for every non-NaN pattern (NaNs keep their class).
        for bits in 0..=u16::MAX {
            let x = f16_bits_to_f32(bits);
            if x.is_nan() {
                let back = f32_to_f16_bits(x);
                assert_eq!(back & 0x7C00, 0x7C00);
                assert_ne!(back & 0x03FF, 0);
            } else {
                assert_eq!(f32_to_f16_bits(x), bits, "pattern {bits:#06x}");
            }
        }
    }

    /// The narrowing codec as first written, one branch per IEEE case: the
    /// reference the branch-free [`f32_to_f16_bits`] must reproduce.
    fn reference_f32_to_f16_bits(value: f32) -> u16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp32 = ((bits >> 23) & 0xFF) as i32;
        let mant32 = bits & 0x007F_FFFF;
        if exp32 == 0xFF {
            return if mant32 == 0 {
                sign | 0x7C00
            } else {
                sign | 0x7C00 | 0x0200 | ((mant32 >> 13) as u16 & 0x01FF)
            };
        }
        let unbiased = exp32 - 127;
        if unbiased > 15 {
            return sign | 0x7C00;
        }
        if unbiased >= -14 {
            let exp16 = (unbiased + F16_BIAS) as u32;
            let mant16 = mant32 >> 13;
            let round_bit = (mant32 >> 12) & 1;
            let sticky = mant32 & 0x0FFF;
            let mut out = ((exp16 << F16_MANT_BITS) | mant16) as u16;
            if round_bit == 1 && (sticky != 0 || (mant16 & 1) == 1) {
                out += 1;
            }
            return sign | out;
        }
        if unbiased < -25 {
            return sign;
        }
        let full_mant = mant32 | 0x0080_0000;
        let shift = (-14 - unbiased) as u32 + 13;
        let mant16 = full_mant >> shift;
        let round_bit = (full_mant >> (shift - 1)) & 1;
        let sticky = full_mant & ((1u32 << (shift - 1)) - 1);
        let mut out = mant16 as u16;
        if round_bit == 1 && (sticky != 0 || (mant16 & 1) == 1) {
            out += 1;
        }
        sign | out
    }

    /// Every exponent (all binades, subnormals, inf/NaN) and sign, with
    /// the mantissa patterns around each rounding decision — ties, just
    /// off ties, carries into the next binade — and random payloads.
    fn probe_values() -> Vec<f32> {
        let mut values = Vec::new();
        let mut x = 0x2545_F491u32;
        for exp in 0..=0xFFu32 {
            for sign in [0, 0x8000_0000u32] {
                let mut mantissas = vec![0, 1, 0x0FFF, 0x1000, 0x1001, 0x2000, 0x3000];
                mantissas.extend([0x7F_E000, 0x7F_EFFF, 0x7F_F000, 0x7F_F001, 0x7F_FFFF]);
                for _ in 0..64 {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    mantissas.push(x & 0x7F_FFFF);
                }
                values.extend(
                    mantissas
                        .iter()
                        .map(|m| f32::from_bits(sign | (exp << 23) | m)),
                );
            }
        }
        values
    }

    #[test]
    fn branch_free_codec_matches_the_reference() {
        for v in probe_values() {
            assert_eq!(
                f32_to_f16_bits(v),
                reference_f32_to_f16_bits(v),
                "{v:e} ({:#010x})",
                v.to_bits()
            );
        }
    }

    /// The widening codec as first written, one branch per IEEE case: the
    /// reference the branch-free [`f16_bits_to_f32`] must reproduce.
    fn reference_f16_bits_to_f32(bits: u16) -> f32 {
        let sign = u32::from(bits >> 15) << 31;
        let exp16 = i32::from((bits >> F16_MANT_BITS) & 0x1F);
        let mant16 = u32::from(bits & 0x03FF);
        if exp16 == 0x1F {
            return f32::from_bits(sign | 0x7F80_0000 | (mant16 << 13));
        }
        if exp16 == 0 {
            if mant16 == 0 {
                return f32::from_bits(sign);
            }
            let h = 31 - mant16.leading_zeros();
            let mant = (mant16 << (10 - h)) & 0x03FF;
            return f32::from_bits(sign | ((h + 103) << 23) | (mant << 13));
        }
        let exp32 = (exp16 - F16_BIAS + 127) as u32;
        f32::from_bits(sign | (exp32 << 23) | (mant16 << 13))
    }

    #[test]
    fn branch_free_decode_matches_the_reference_on_every_pattern() {
        for bits in 0..=u16::MAX {
            assert_eq!(
                f16_bits_to_f32(bits).to_bits(),
                reference_f16_bits_to_f32(bits).to_bits(),
                "pattern {bits:#06x}"
            );
        }
    }

    #[test]
    fn rounding_is_monotonic_on_a_grid() {
        let mut prev = f32::NEG_INFINITY;
        let mut x = -70000.0f32;
        while x <= 70000.0 {
            let r = round_f32_to_f16(x);
            assert!(r >= prev, "non-monotonic at {x}");
            prev = r;
            x += 173.137; // irregular stride to avoid hitting only exacts
        }
    }

    #[test]
    fn mul_and_add_stay_representable() {
        let a = round_f32_to_f16(std::f32::consts::PI);
        let b = round_f32_to_f16(-std::f32::consts::E);
        for v in [f16_mul(a, b), f16_add(a, b)] {
            assert_eq!(round_f32_to_f16(v), v, "result {v} not a half value");
        }
    }

    #[test]
    fn subnormal_decode_matches_scalbn() {
        // Decode every subnormal and compare against mant * 2^-24.
        for mant in 1u16..0x0400 {
            let x = f16_bits_to_f32(mant);
            let expect = mant as f32 * 2.0_f32.powi(-24);
            assert_eq!(x, expect, "subnormal {mant:#x}");
        }
    }

    #[test]
    fn min_positive_constant_is_correct() {
        assert_eq!(f16_bits_to_f32(0x0400), F16_MIN_POSITIVE);
        assert_eq!(f16_bits_to_f32(0x7BFF), F16_MAX);
    }
}
