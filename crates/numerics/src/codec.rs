//! Per-dtype quantization, bit encoding, and dtype-faithful arithmetic.
//!
//! The experiment pipeline keeps every matrix as logical `f32` values (the
//! paper generates FP32 values once and converts), and this module is the
//! single place where those values meet a concrete datatype:
//!
//! * [`Quantizer::quantize`] — round a logical value to the nearest value
//!   representable in the dtype (the paper's "numeric conversion ... round
//!   to nearest value").
//! * [`Quantizer::encode`] — the raw bit pattern the hardware would hold,
//!   which is what the toggle engine counts.
//! * [`Quantizer::quantize_slice`] / [`Quantizer::encode_slice`] — the
//!   same two maps over whole buffers, with the dtype chosen once per
//!   call instead of once per element.
//! * [`Quantizer::map_words`] — rewrite buffers through their encodings
//!   (encode, edit the word, decode), the dtype again chosen once per call.
//! * [`Quantizer::product`] / [`Accumulator`] — the multiply-accumulate
//!   semantics of each pipeline (SIMT FMA vs. tensor core), so the
//!   simulated GEMM produces numerically faithful outputs *and* faithful
//!   accumulator bit streams.
//!
//! ## NaN propagation
//!
//! IEEE 754 leaves open which NaN an operation on two NaNs returns. x86
//! returns the NaN in the destination register, and the compiler decides
//! which operand it puts there, so `a * b` and `acc + p` would leave the
//! payload to code generation. The payload matters here: operands with
//! random exponent bits carry NaNs (the §IV.B MSB randomization does), and
//! the toggle engine counts the accumulator's bits. So the products and
//! the F32 and F16 accumulators pin the rule: **if an operand is NaN, the
//! result is the first NaN operand with its quiet bit (bit 22) set**, where
//! [`Quantizer::product`] checks `b` before `a` and
//! [`Accumulator::add_product`] checks the product before the accumulator.
//! FP16 SIMT applies it to the product before rounding it to half. An
//! invalid operation on non-NaN operands (`0 * inf`, `inf - inf`) returns
//! the hardware's default NaN, which no operand order can change.

use crate::bf16::{bf16_bits_to_f32, f32_to_bf16_bits, round_f32_to_bf16};
use crate::dtype::DType;
use crate::fp16::{f16_bits_to_f32, f32_to_f16_bits, round_f32_to_f16};

/// Which accumulator a pipeline uses during the K-reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumKind {
    /// 32-bit float accumulation (FP32 SIMT, FP16 tensor-op).
    F32,
    /// 16-bit float accumulation (FP16 SIMT).
    F16,
    /// 32-bit integer accumulation (INT8).
    I32,
}

/// Quantize/encode/arithmetic bundle for one datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    dtype: DType,
}

impl Quantizer {
    /// Create the quantizer for `dtype`.
    pub const fn new(dtype: DType) -> Self {
        Self { dtype }
    }

    /// The datatype this quantizer serves.
    #[inline]
    pub const fn dtype(self) -> DType {
        self.dtype
    }

    /// The accumulator kind of this dtype's pipeline.
    #[inline]
    pub const fn accum_kind(self) -> AccumKind {
        match self.dtype {
            DType::Fp32 | DType::Fp16Tensor | DType::Bf16 => AccumKind::F32,
            DType::Fp16 => AccumKind::F16,
            DType::Int8 => AccumKind::I32,
        }
    }

    /// Round a logical `f32` to the nearest representable value.
    ///
    /// INT8 rounds to the nearest integer with ties **away from zero**
    /// (C `roundf`, not `lrintf`, whose default mode rounds ties to even:
    /// 2.5 becomes 3 here, not 2), keeps the sign of a zero result
    /// (-0.3 becomes -0.0), saturates to `[-128, 127]` (infinities
    /// included) and maps NaN to +0.0.
    #[inline]
    pub fn quantize(self, value: f32) -> f32 {
        match self.dtype {
            DType::Fp32 => value,
            DType::Fp16 | DType::Fp16Tensor => round_f32_to_f16(value),
            DType::Bf16 => round_f32_to_bf16(value),
            DType::Int8 => quantize_int8(value),
        }
    }

    /// The raw bit pattern (within [`DType::bits`] low bits) of the
    /// quantized value — the word the datapath latches.
    #[inline]
    pub fn encode(self, value: f32) -> u64 {
        match self.dtype {
            DType::Fp32 => u64::from(value.to_bits()),
            DType::Fp16 | DType::Fp16Tensor => u64::from(f32_to_f16_bits(value)),
            DType::Bf16 => u64::from(f32_to_bf16_bits(value)),
            DType::Int8 => u64::from(int8_bits(value)),
        }
    }

    /// [`Quantizer::quantize`] every value of `values` in place.
    pub fn quantize_slice(self, values: &mut [f32]) {
        fn each(values: &mut [f32], f: impl Fn(f32) -> f32) {
            for v in values {
                *v = f(*v);
            }
        }
        match self.dtype {
            DType::Fp32 => {}
            DType::Fp16 | DType::Fp16Tensor => each(values, round_f32_to_f16),
            DType::Bf16 => each(values, round_f32_to_bf16),
            DType::Int8 => each(values, quantize_int8),
        }
    }

    /// [`Quantizer::encode`] every value of `src` into the same index of
    /// `dst` (every encoding fits a `u32`).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn encode_slice(self, src: &[f32], dst: &mut [u32]) {
        assert_eq!(src.len(), dst.len(), "one word per value");
        fn each(src: &[f32], dst: &mut [u32], f: impl Fn(f32) -> u32) {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = f(v);
            }
        }
        match self.dtype {
            DType::Fp32 => each(src, dst, f32::to_bits),
            DType::Fp16 | DType::Fp16Tensor => each(src, dst, |v| u32::from(f32_to_f16_bits(v))),
            DType::Bf16 => each(src, dst, |v| u32::from(f32_to_bf16_bits(v))),
            DType::Int8 => each(src, dst, |v| u32::from(int8_bits(v))),
        }
    }

    /// Decode a raw bit pattern back to the logical `f32` value.
    #[inline]
    pub fn decode(self, bits: u64) -> f32 {
        match self.dtype {
            DType::Fp32 => f32::from_bits(bits as u32),
            DType::Fp16 | DType::Fp16Tensor => f16_bits_to_f32(bits as u16),
            DType::Bf16 => bf16_bits_to_f32(bits as u16),
            DType::Int8 => int8_value(bits),
        }
    }

    /// Replace every value `v` of `values` with
    /// `decode(edit(encode(v)))`, in order: [`Quantizer::encode`] and
    /// [`Quantizer::decode`] with the dtype chosen once per call, so each
    /// dtype runs one loop with no per-element `match`.
    pub fn map_words(self, values: &mut [f32], mut edit: impl FnMut(u64) -> u64) {
        #[inline(always)]
        fn each(
            values: &mut [f32],
            encode: impl Fn(f32) -> u64,
            decode: impl Fn(u64) -> f32,
            edit: &mut impl FnMut(u64) -> u64,
        ) {
            for v in values {
                *v = decode(edit(encode(*v)));
            }
        }
        match self.dtype {
            DType::Fp32 => each(
                values,
                |v| u64::from(v.to_bits()),
                |w| f32::from_bits(w as u32),
                &mut edit,
            ),
            DType::Fp16 | DType::Fp16Tensor => each(
                values,
                |v| u64::from(f32_to_f16_bits(v)),
                |w| f16_bits_to_f32(w as u16),
                &mut edit,
            ),
            DType::Bf16 => each(
                values,
                |v| u64::from(f32_to_bf16_bits(v)),
                |w| bf16_bits_to_f32(w as u16),
                &mut edit,
            ),
            DType::Int8 => each(values, |v| u64::from(int8_bits(v)), int8_value, &mut edit),
        }
    }

    /// The product of two (already quantized) operands as the pipeline
    /// computes it, before accumulation.
    ///
    /// * FP32 SIMT: binary32 multiply.
    /// * FP16 SIMT: binary16 multiply (the product of two halves is exact
    ///   in f32, then rounded to half).
    /// * FP16 tensor-op: the half product feeds the FP32 accumulator
    ///   un-rounded (tensor cores keep full product precision).
    /// * INT8: exact integer product.
    ///
    /// A NaN operand propagates by the [module rule](self#nan-propagation),
    /// `b` checked before `a`.
    #[inline]
    pub fn product(self, a: f32, b: f32) -> f32 {
        let p = nan_pinned(b, a, a * b);
        match self.dtype {
            DType::Fp32 => p,
            DType::Fp16 => round_f32_to_f16(p),
            DType::Fp16Tensor => p, // exact: 11-bit x 11-bit fits in f32
            DType::Bf16 => p,       // exact: 8-bit x 8-bit significands
            DType::Int8 => p,       // exact: |a*b| <= 16384 < 2^24
        }
    }

    /// A fresh zeroed accumulator for this dtype's pipeline.
    #[inline]
    pub fn new_accumulator(self) -> Accumulator {
        match self.accum_kind() {
            AccumKind::F32 => Accumulator::F32(0.0),
            AccumKind::F16 => Accumulator::F16(0.0),
            AccumKind::I32 => Accumulator::I32(0),
        }
    }
}

/// [`Quantizer::quantize`] for INT8, exactly `value.round()` saturated to
/// `[-128, 127]` with NaN to +0.0, but without a libm call or a branch on
/// the value, so loops over whole buffers vectorize.
#[inline]
fn quantize_int8(value: f32) -> f32 {
    // Past 128 every magnitude saturates alike (`min` also maps NaN there;
    // NaN is zeroed below). Adding 2^23, where the ulp is 1, rounds the
    // capped magnitude to an integer, ties to even; the subtraction after
    // it and the tie test are exact at these magnitudes.
    let abs = value.abs().min(128.0);
    let even = (abs + 8_388_608.0) - 8_388_608.0;
    // A tie rounded down to even goes up instead: ties away from zero.
    let rounded = if abs - even == 0.5 { even + 1.0 } else { even };
    let cap = if value.is_sign_negative() {
        128.0
    } else {
        127.0
    };
    if value.is_nan() {
        0.0
    } else {
        rounded.min(cap).copysign(value)
    }
}

/// [`Quantizer::encode`] for INT8: the two's-complement byte. Adding
/// 1.5 * 2^23 lands every integer of `[-128, 127]` in the binade whose ulp
/// is 1, so the sum's low mantissa byte is the integer's byte (a float to
/// integer cast would have to saturate, which does not vectorize).
#[inline]
fn int8_bits(value: f32) -> u8 {
    (quantize_int8(value) + 12_582_912.0).to_bits() as u8
}

/// [`Quantizer::decode`] for INT8: the value of the low byte.
#[inline]
fn int8_value(bits: u64) -> f32 {
    f32::from(bits as u8 as i8)
}

/// `result`, the outcome of an operation on `first` and `second`, with
/// the [NaN rule](self#nan-propagation) applied: the first NaN operand,
/// quieted, if either is NaN.
#[inline(always)]
fn nan_pinned(first: f32, second: f32, result: f32) -> f32 {
    if !result.is_nan() {
        result
    } else if first.is_nan() {
        quieted(first)
    } else if second.is_nan() {
        quieted(second)
    } else {
        result
    }
}

/// `nan` with its quiet bit (bit 22) set.
#[inline(always)]
fn quieted(nan: f32) -> f32 {
    f32::from_bits(nan.to_bits() | 0x0040_0000)
}

/// A running K-reduction accumulator with dtype-faithful rounding, plus the
/// raw bit image the toggle engine charges for accumulator register writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accumulator {
    /// binary32 accumulator (FP32 SIMT, FP16 tensor-op).
    F32(f32),
    /// binary16 accumulator stored as its exact f32 image (FP16 SIMT).
    F16(f32),
    /// 32-bit integer accumulator (INT8); wraps on overflow like hardware.
    I32(i32),
}

impl Accumulator {
    /// Add a pipeline product (from [`Quantizer::product`]) into the
    /// accumulator, applying the pipeline's rounding. A NaN propagates by
    /// the [module rule](self#nan-propagation), the product checked before
    /// the accumulator.
    #[inline]
    pub fn add_product(&mut self, product: f32) {
        match self {
            Accumulator::F32(acc) => *acc = nan_pinned(product, *acc, *acc + product),
            Accumulator::F16(acc) => {
                *acc = round_f32_to_f16(nan_pinned(product, *acc, *acc + product))
            }
            Accumulator::I32(acc) => *acc = acc.wrapping_add(product as i32),
        }
    }

    /// The logical value of the accumulator.
    #[inline]
    pub fn value(&self) -> f32 {
        match self {
            Accumulator::F32(acc) | Accumulator::F16(acc) => *acc,
            Accumulator::I32(acc) => *acc as f32,
        }
    }

    /// The raw register image, for toggle accounting. Widths differ by
    /// pipeline (32/16/32 bits) and the power model normalizes accordingly.
    #[inline]
    pub fn bits(&self) -> u64 {
        match self {
            Accumulator::F32(acc) => u64::from(acc.to_bits()),
            Accumulator::F16(acc) => u64::from(f32_to_f16_bits(*acc)),
            Accumulator::I32(acc) => u64::from(*acc as u32),
        }
    }

    /// Width in bits of the register image returned by [`Self::bits`].
    #[inline]
    pub fn bit_width(&self) -> u32 {
        match self {
            Accumulator::F32(_) | Accumulator::I32(_) => 32,
            Accumulator::F16(_) => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_is_identity() {
        let q = Quantizer::new(DType::Fp32);
        for v in [0.0f32, -1.5, std::f32::consts::PI, 1e20, -1e-20] {
            assert_eq!(q.quantize(v), v);
            assert_eq!(q.decode(q.encode(v)), v);
        }
    }

    #[test]
    fn fp16_quantize_matches_codec() {
        let q = Quantizer::new(DType::Fp16);
        for v in [0.0f32, 1.0, -2.5, 1234.567, 65504.0, 1e-7] {
            assert_eq!(q.quantize(v), round_f32_to_f16(v));
            assert_eq!(q.decode(q.encode(v)), q.quantize(v));
            assert!(q.encode(v) <= u64::from(u16::MAX));
        }
    }

    #[test]
    fn fp16_tensor_shares_encoding_with_fp16() {
        let a = Quantizer::new(DType::Fp16);
        let b = Quantizer::new(DType::Fp16Tensor);
        for v in [0.37f32, -210.0, 5.5e4] {
            assert_eq!(a.encode(v), b.encode(v));
        }
    }

    /// The INT8 contract as first written: libm `roundf`, then saturate.
    fn int8_reference(value: f32) -> f32 {
        let r = value.round().clamp(-128.0, 127.0);
        if r.is_nan() {
            0.0
        } else {
            r
        }
    }

    /// Probe values: zeros, subnormals, infinities, NaN payloads, every
    /// tie in and just past the INT8 range, and a spread of bit patterns.
    fn probe_values() -> Vec<f32> {
        let mut values = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7F80_0001), // signalling NaN
            f32::from_bits(0xFFC0_1234), // negative quiet NaN with payload
            0.499_999_97,
            -0.499_999_97,
            f32::MAX,
            f32::MIN,
            65_520.0,
            1.0 + f32::EPSILON,
        ];
        for i in -300..=300 {
            let t = i as f32 * 0.5;
            values.extend([t, t.next_up(), t.next_down()]);
        }
        let mut x = 0x9E37_79B9u32;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            values.push(f32::from_bits(x));
        }
        values
    }

    #[test]
    fn int8_rounds_ties_away_from_zero_and_saturates() {
        let q = Quantizer::new(DType::Int8);
        let cases: [(f32, f32); 16] = [
            (0.5, 1.0),
            (-0.5, -1.0),
            (1.5, 2.0),
            (-1.5, -2.0),
            (2.5, 3.0),
            (-2.5, -3.0),
            (127.5, 127.0),
            (-127.5, -128.0),
            (128.5, 127.0),
            (-128.5, -128.0),
            (3.4, 3.0),
            (200.0, 127.0),
            (-200.0, -128.0),
            (-0.3, -0.0),
            (f32::INFINITY, 127.0),
            (f32::NEG_INFINITY, -128.0),
        ];
        for (value, want) in cases {
            let got = q.quantize(value);
            assert_eq!(got.to_bits(), want.to_bits(), "quantize({value}) = {got}");
            assert_eq!(got.to_bits(), int8_reference(value).to_bits());
            assert_eq!(q.encode(value), u64::from(want as i32 as i8 as u8));
        }
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7F80_0001)] {
            assert_eq!(q.quantize(nan).to_bits(), 0.0f32.to_bits(), "NaN is +0.0");
            assert_eq!(q.encode(nan), 0);
        }
    }

    #[test]
    fn int8_matches_the_libm_reference_everywhere() {
        let q = Quantizer::new(DType::Int8);
        for v in probe_values() {
            let want = int8_reference(v);
            assert_eq!(q.quantize(v).to_bits(), want.to_bits(), "{v:e}");
            assert_eq!(q.encode(v), u64::from(want as i32 as i8 as u8), "{v:e}");
        }
    }

    #[test]
    fn slice_maps_match_the_per_value_maps() {
        let values = probe_values();
        for dtype in DType::EXTENDED {
            let q = Quantizer::new(dtype);
            let mut words = vec![0u32; values.len()];
            q.encode_slice(&values, &mut words);
            let mut quantized = values.clone();
            q.quantize_slice(&mut quantized);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(u64::from(words[i]), q.encode(v), "{dtype} encode {v:e}");
                assert_eq!(
                    quantized[i].to_bits(),
                    q.quantize(v).to_bits(),
                    "{dtype} quantize {v:e}"
                );
            }
        }
    }

    #[test]
    fn int8_twos_complement_encoding() {
        let q = Quantizer::new(DType::Int8);
        assert_eq!(q.encode(0.0), 0x00);
        assert_eq!(q.encode(1.0), 0x01);
        assert_eq!(q.encode(-1.0), 0xFF);
        assert_eq!(q.encode(-128.0), 0x80);
        assert_eq!(q.encode(127.0), 0x7F);
        for v in [-128.0f32, -1.0, 0.0, 42.0, 127.0] {
            assert_eq!(q.decode(q.encode(v)), v);
        }
    }

    #[test]
    fn product_semantics_per_pipeline() {
        // FP16 SIMT rounds the product; tensor-op keeps it exact.
        let a = round_f32_to_f16(1.0009766); // 1 + 2^-10, exact half
        let b = round_f32_to_f16(1.0009766);
        let simt = Quantizer::new(DType::Fp16).product(a, b);
        let tensor = Quantizer::new(DType::Fp16Tensor).product(a, b);
        assert_eq!(tensor, a * b);
        assert_eq!(simt, round_f32_to_f16(a * b));
        assert_ne!(simt, tensor, "rounding must be observable here");
    }

    #[test]
    fn accumulator_kinds() {
        assert_eq!(Quantizer::new(DType::Fp32).accum_kind(), AccumKind::F32);
        assert_eq!(Quantizer::new(DType::Fp16).accum_kind(), AccumKind::F16);
        assert_eq!(
            Quantizer::new(DType::Fp16Tensor).accum_kind(),
            AccumKind::F32
        );
        assert_eq!(Quantizer::new(DType::Int8).accum_kind(), AccumKind::I32);
    }

    /// NaNs of both signs, quiet and signalling, with distinct payloads.
    fn nan_probes() -> [f32; 8] {
        [
            0x7FC0_0000u32,
            0xFFC0_0000,
            0x7FC0_1234,
            0xFFE0_0001,
            0x7F80_0001,
            0xFF80_4321,
            0x7FA0_2000,
            0xFFBF_FFFF,
        ]
        .map(f32::from_bits)
    }

    /// The module's NaN rule: the first NaN of `first`, `second`, with its
    /// quiet bit set.
    fn first_nan_quieted(first: f32, second: f32) -> f32 {
        let nan = if first.is_nan() { first } else { second };
        f32::from_bits(nan.to_bits() | 0x0040_0000)
    }

    #[test]
    fn nan_products_return_b_then_a_quieted() {
        let finite = [0.0f32, -0.0, -1.5, 3.0, f32::INFINITY];
        for dtype in DType::EXTENDED {
            let q = Quantizer::new(dtype);
            // FP16 SIMT rounds the product, NaN included, to half.
            let pipeline = |p: f32| match dtype {
                DType::Fp16 => round_f32_to_f16(p),
                _ => p,
            };
            let mut cases = Vec::new();
            for a in nan_probes() {
                cases.extend(nan_probes().map(|b| (a, b)));
                cases.extend(finite.iter().flat_map(|&f| [(a, f), (f, a)]));
            }
            for (a, b) in cases {
                let want = pipeline(first_nan_quieted(b, a));
                assert_eq!(
                    q.product(a, b).to_bits(),
                    want.to_bits(),
                    "{dtype}: {:#010x} * {:#010x}",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
    }

    #[test]
    fn nan_sums_return_the_product_then_the_accumulator_quieted() {
        let finite = [0.0f32, -0.0, 2.5, -65504.0, f32::NEG_INFINITY];
        let mut cases = Vec::new();
        for x in nan_probes() {
            cases.extend(nan_probes().map(|y| (x, y)));
            cases.extend(finite.iter().flat_map(|&f| [(x, f), (f, x)]));
        }
        for (held, product) in cases {
            let want = first_nan_quieted(product, held);
            let mut acc = Accumulator::F32(held);
            acc.add_product(product);
            assert_eq!(
                acc.value().to_bits(),
                want.to_bits(),
                "F32: {:#010x} + {:#010x}",
                held.to_bits(),
                product.to_bits()
            );
            // The F16 register holds a half value; its NaN keeps the f32
            // NaN's sign and top payload bits.
            let held = round_f32_to_f16(held);
            let want = round_f32_to_f16(first_nan_quieted(product, held));
            let mut acc = Accumulator::F16(held);
            acc.add_product(product);
            assert_eq!(
                acc.value().to_bits(),
                want.to_bits(),
                "F16: {:#010x} + {:#010x}",
                held.to_bits(),
                product.to_bits()
            );
        }
    }

    #[test]
    fn map_words_is_the_per_value_round_trip() {
        let values = probe_values();
        for dtype in DType::EXTENDED {
            let q = Quantizer::new(dtype);
            let edit = |w: u64| (w ^ 0x5A5A_5A5A) & ((1 << dtype.bits()) - 1);
            let mut mapped = values.clone();
            q.map_words(&mut mapped, edit);
            for (&v, &got) in values.iter().zip(&mapped) {
                let want = q.decode(edit(q.encode(v)));
                assert_eq!(got.to_bits(), want.to_bits(), "{dtype} {v:e}");
            }
        }
    }

    #[test]
    fn f16_accumulator_rounds_every_step() {
        let mut acc = Quantizer::new(DType::Fp16).new_accumulator();
        // 2048 + 1 in binary16: 1 is below half the ulp of 2048 (ulp = 2),
        // so the addition is absorbed.
        acc.add_product(2048.0);
        acc.add_product(0.5);
        assert_eq!(acc.value(), 2048.0);
        assert_eq!(acc.bit_width(), 16);
    }

    #[test]
    fn f32_accumulator_does_not_absorb() {
        let mut acc = Quantizer::new(DType::Fp16Tensor).new_accumulator();
        acc.add_product(2048.0);
        acc.add_product(0.5);
        assert_eq!(acc.value(), 2048.5);
        assert_eq!(acc.bit_width(), 32);
    }

    #[test]
    fn i32_accumulator_exact_and_wrapping() {
        let mut acc = Quantizer::new(DType::Int8).new_accumulator();
        acc.add_product(16384.0); // 128*128
        acc.add_product(-1.0);
        assert_eq!(acc.value(), 16383.0);
        assert_eq!(acc.bits(), 16383);
        // Wrapping instead of panicking on overflow.
        let mut acc = Accumulator::I32(i32::MAX);
        acc.add_product(1.0);
        assert_eq!(acc, Accumulator::I32(i32::MIN));
    }

    #[test]
    fn accumulator_bits_track_value() {
        let mut acc = Quantizer::new(DType::Fp32).new_accumulator();
        assert_eq!(acc.bits(), 0);
        acc.add_product(1.0);
        assert_eq!(acc.bits(), u64::from(1.0f32.to_bits()));
    }

    #[test]
    fn zero_encodes_to_zero_bits_everywhere() {
        // The zero-gating optimisation in the kernel relies on this.
        for dt in DType::ALL {
            assert_eq!(Quantizer::new(dt).encode(0.0), 0, "{dt}");
        }
    }
}
