//! Encoded matrices: the words a unit walk reads.
//!
//! An operand is encoded once ([`EncodedMatrix::encode`]: the raw dtype
//! word the datapath latches, per element) and every pass over its bits
//! reads those same words: the MAC loop's operand latches and multiplier
//! activity, the DRAM bus pass, and the input-feature chunk.
//!
//! The multiplier's per-operand factor is the *significand weight*: `HW`
//! of the significand input (implicit-1 | mantissa for normal floats, the
//! mantissa alone for subnormals, the full two's-complement word for
//! INT8). It is a mask and a popcount of the word
//! ([`EncodedMatrix::sig_weight`]), so the matrix does not store it; the
//! engine counts each sampled row's and column's weights once, as it
//! gathers them.

use wm_bits::slice_hamming_weight;
use wm_matrix::Matrix;
use wm_numerics::{DType, Quantizer};

/// The significand fields of one dtype's words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Significand {
    mantissa: u32,
    exponent: u32,
    implicit: u32,
}

impl Significand {
    const fn of(dtype: DType) -> Self {
        let (mantissa, exponent, implicit) = match dtype {
            DType::Int8 => (0xFF, 0, 0),
            DType::Fp16 | DType::Fp16Tensor => (0x03FF, 0x7C00, 1 << 10),
            DType::Bf16 => (0x007F, 0x7F80, 1 << 7),
            DType::Fp32 => (0x007F_FFFF, 0x7F80_0000, 1 << 23),
        };
        Self {
            mantissa,
            exponent,
            implicit,
        }
    }

    /// Significand Hamming weight of one encoded element: the implicit
    /// bit counts only when the exponent field is nonzero (normals).
    #[inline(always)]
    fn weight(self, bits: u32) -> u32 {
        let implicit = if bits & self.exponent != 0 {
            self.implicit
        } else {
            0
        };
        ((bits & self.mantissa) | implicit).count_ones()
    }
}

/// A matrix's raw per-element encodings in one dtype.
#[derive(Debug, Clone)]
pub struct EncodedMatrix {
    rows: usize,
    cols: usize,
    dtype: DType,
    significand: Significand,
    bits: Vec<u32>,
}

impl EncodedMatrix {
    /// Encode every element of `m` for `dtype`.
    ///
    /// The matrix is expected to already hold dtype-representable values
    /// (pattern generators quantize); encoding is nevertheless a full
    /// quantizing encode, so unquantized inputs round here.
    pub fn encode(m: &Matrix, dtype: DType) -> Self {
        let mut bits = vec![0u32; m.len()];
        Quantizer::new(dtype).encode_slice(m.as_slice(), &mut bits);
        Self {
            rows: m.rows(),
            cols: m.cols(),
            dtype,
            significand: Significand::of(dtype),
            bits,
        }
    }

    /// Rows of the encoded matrix.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the encoded matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The encoded dtype.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Raw encoding at `(row, col)`.
    #[inline(always)]
    pub fn bits_at(&self, row: usize, col: usize) -> u32 {
        self.bits[row * self.cols + col]
    }

    /// Significand weight of one word of this encoding, such as
    /// `self.bits_at(row, col)`.
    #[inline(always)]
    pub fn sig_weight(&self, bits: u32) -> u32 {
        self.significand.weight(bits)
    }

    /// The whole encoding plane, row-major: what the bus pass streams and
    /// the feature chunk accumulates.
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.bits
    }

    /// Mean Hamming weight of the raw encodings (Fig. 8 statistic).
    pub fn mean_hamming_weight(&self) -> f64 {
        slice_hamming_weight(&self.bits) as f64 / self.bits.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Significand weight as first written: one `match` per element.
    fn reference_weight(bits: u32, dtype: DType) -> u32 {
        let (mant, exp, shift) = match dtype {
            DType::Int8 => return (bits & 0xFF).count_ones(),
            DType::Fp16 | DType::Fp16Tensor => (bits & 0x03FF, (bits >> 10) & 0x1F, 10),
            DType::Bf16 => (bits & 0x007F, (bits >> 7) & 0xFF, 7),
            DType::Fp32 => (bits & 0x007F_FFFF, (bits >> 23) & 0xFF, 23),
        };
        let implicit = if exp != 0 { 1u32 << shift } else { 0 };
        (mant | implicit).count_ones()
    }

    /// Values every encoder must agree on: signed zeros, subnormals of
    /// every target width, infinities, quiet and signalling NaN payloads
    /// of both signs, values that must round (ties included), overflow.
    fn probe_values() -> Vec<f32> {
        let mut values = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x0040_0000),
            f32::MIN_POSITIVE,
            2.0f32.powi(-24),
            -2.0f32.powi(-25) * 3.0,
            6.0e-5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFF80_2001),
            f32::from_bits(0x7FC1_2345),
            1.0 + 2.0f32.powi(-11),
            1.0 + 2.0f32.powi(-8),
            0.5,
            -2.5,
            127.5,
            -128.5,
            210.37,
            65_520.0,
            -1.0e9,
            f32::MAX,
            3.4e38,
        ];
        let mut x = 0x2545_F491u32;
        for _ in 0..2048 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            values.push(f32::from_bits(x));
            values.push((x % 600) as f32 * 0.5 - 150.0);
        }
        values
    }

    #[test]
    fn encodings_match_the_per_element_quantizer() {
        let values = probe_values();
        let m = Matrix::from_vec(values.len() / 2, 2, values.clone());
        for dtype in DType::EXTENDED {
            let q = Quantizer::new(dtype);
            let e = EncodedMatrix::encode(&m, dtype);
            assert_eq!((e.rows(), e.cols(), e.dtype()), (m.rows(), 2, dtype));
            for (i, &v) in values.iter().enumerate() {
                let (r, c) = (i / 2, i % 2);
                assert_eq!(u64::from(e.bits_at(r, c)), q.encode(v), "{dtype} {v:e}");
                let bits = e.bits_at(r, c);
                assert_eq!(
                    e.sig_weight(bits),
                    reference_weight(bits, dtype),
                    "{dtype} {v:e}"
                );
            }
        }
    }

    #[test]
    fn significand_weight_matches_reference_on_every_16_bit_word() {
        for dtype in DType::EXTENDED {
            let sig = Significand::of(dtype);
            for bits in 0..=u32::from(u16::MAX) {
                assert_eq!(sig.weight(bits), reference_weight(bits, dtype), "{dtype}");
            }
        }
        let sig = Significand::of(DType::Fp32);
        for bits in [0u32, 1, 0x007F_FFFF, 0x0080_0000, 0x3F80_0000, u32::MAX] {
            assert_eq!(sig.weight(bits), reference_weight(bits, DType::Fp32));
        }
    }

    #[test]
    fn significand_weight_spot_checks() {
        let fp16 = Significand::of(DType::Fp16);
        // 1.0 in binary16 = 0x3C00: mantissa 0, implicit 1 -> weight 1.
        assert_eq!(fp16.weight(0x3C00), 1);
        // 1.5 = 0x3E00: mantissa 0x200, implicit 1 -> weight 2.
        assert_eq!(fp16.weight(0x3E00), 2);
        // Max mantissa: 0x3FF + implicit -> 11.
        assert_eq!(fp16.weight(0x3FFF), 11);
        // Subnormals have no implicit bit.
        assert_eq!(fp16.weight(0x0001), 1);
        assert_eq!(fp16.weight(0x0000), 0);
        let int8 = Significand::of(DType::Int8);
        assert_eq!(int8.weight(0xFF), 8);
        assert_eq!(int8.weight(0x81), 2);
        assert_eq!(Significand::of(DType::Fp32).weight(1.0f32.to_bits()), 1);
    }

    #[test]
    fn zero_elements_have_zero_bits_and_weight() {
        let m = Matrix::zeros(3, 3);
        for dtype in DType::ALL {
            let e = EncodedMatrix::encode(&m, dtype);
            assert!(e.words().iter().all(|&w| w == 0), "{dtype}");
            assert_eq!(e.sig_weight(e.bits_at(1, 1)), 0);
            assert_eq!(e.mean_hamming_weight(), 0.0);
        }
    }

    #[test]
    fn mean_hamming_weight_spot_check() {
        let m = Matrix::from_vec(1, 2, vec![-1.0, -1.0]); // INT8: 0xFF, 0xFF
        let e = EncodedMatrix::encode(&m, DType::Int8);
        assert_eq!(e.mean_hamming_weight(), 8.0);
    }

    #[test]
    fn encoding_a_quantized_value_changes_no_word() {
        // GEMV quantizes `x` for its numeric path but shares the raw
        // operand's words: sound because quantizing never moves a word.
        for dtype in DType::EXTENDED {
            let q = Quantizer::new(dtype);
            for v in probe_values() {
                assert_eq!(q.encode(q.quantize(v)), q.encode(v), "{dtype} {v:e}");
            }
        }
    }
}
