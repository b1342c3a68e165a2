//! §IV.D sparsity transforms: value sparsity and bit-field sparsity.
//!
//! These run through the *standard* GEMM path — the paper is explicit that
//! no sparse kernels are involved; zeros flow through the same datapath and
//! save power only through reduced switching (and zero-operand gating).

use wm_bits::{BitSurgeon, Xoshiro256pp};
use wm_matrix::Matrix;
use wm_numerics::{DType, Quantizer};

/// Zero an exact `sparsity` fraction of elements, chosen uniformly at
/// random without replacement (Fig. 6a/6b).
///
/// Using an exact count (rather than independent coin flips) keeps the
/// achieved sparsity on the sweep grid, which sharpens the Fig. 6b peak.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]`.
pub fn apply_sparsity(m: &mut Matrix, sparsity: f64, rng: &mut Xoshiro256pp) {
    assert!(
        (0.0..=1.0).contains(&sparsity),
        "sparsity {sparsity} outside [0, 1]"
    );
    let n = m.len();
    let k = (sparsity * n as f64).round() as usize;
    let data = m.as_mut_slice();
    rng.choose_indices(n, k, |idx| data[idx] = 0.0);
}

/// Zero the `count` least-significant bits of every element's encoding
/// (Fig. 6c: "sparsity in least significant bits").
pub fn zero_lsbs(m: &mut Matrix, dtype: DType, count: u32) {
    let s = BitSurgeon::new(dtype.bits());
    Quantizer::new(dtype).map_words(m.as_mut_slice(), |w| s.zero_lsbs(w, count));
}

/// Zero the `count` most-significant bits of every element's encoding
/// (Fig. 6d: "sparsity in most significant bits").
pub fn zero_msbs(m: &mut Matrix, dtype: DType, count: u32) {
    let s = BitSurgeon::new(dtype.bits());
    Quantizer::new(dtype).map_words(m.as_mut_slice(), |w| s.zero_msbs(w, count));
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_bits::hamming_weight;
    use wm_numerics::Gaussian;

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(seed)
    }

    fn gaussian(rows: usize, cols: usize, dtype: DType, seed: u64) -> Matrix {
        let q = Quantizer::new(dtype);
        let mut r = rng(seed);
        let mut g = Gaussian::new(0.0, if dtype == DType::Int8 { 25.0 } else { 210.0 });
        Matrix::from_fn(rows, cols, |_, _| q.quantize(g.sample_f32(&mut r)))
    }

    #[test]
    fn sparsity_is_exact() {
        let mut m = gaussian(32, 32, DType::Fp32, 1);
        apply_sparsity(&mut m, 0.3, &mut rng(2));
        let zeros = m.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, (0.3f64 * 1024.0).round() as usize);
    }

    #[test]
    fn sparsity_extremes() {
        let base = gaussian(8, 8, DType::Fp32, 3);
        let mut m = base.clone();
        apply_sparsity(&mut m, 0.0, &mut rng(4));
        assert_eq!(m, base);
        apply_sparsity(&mut m, 1.0, &mut rng(5));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sparsity_leaves_survivors_untouched() {
        let base = gaussian(16, 16, DType::Fp16, 6);
        let mut m = base.clone();
        apply_sparsity(&mut m, 0.5, &mut rng(7));
        for (&orig, &now) in base.as_slice().iter().zip(m.as_slice()) {
            assert!(now == 0.0 || now == orig);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn sparsity_validated() {
        apply_sparsity(&mut Matrix::zeros(2, 2), 1.5, &mut rng(8));
    }

    #[test]
    fn zero_lsbs_reduces_hamming_weight() {
        for dtype in DType::ALL {
            let base = gaussian(16, 16, dtype, 9);
            let q = Quantizer::new(dtype);
            let hw = |m: &Matrix| -> u64 {
                m.as_slice()
                    .iter()
                    .map(|&v| u64::from(hamming_weight(q.encode(v))))
                    .sum()
            };
            let mut m = base.clone();
            zero_lsbs(&mut m, dtype, dtype.bits() / 2);
            assert!(hw(&m) <= hw(&base), "{dtype}: HW must not rise");
            // And the cleared field really is cleared.
            let mask = (1u64 << (dtype.bits() / 2)) - 1;
            for &v in m.as_slice() {
                assert_eq!(q.encode(v) & mask, 0, "{dtype}");
            }
        }
    }

    #[test]
    fn zero_msbs_clears_high_field() {
        let dtype = DType::Fp16;
        let q = Quantizer::new(dtype);
        let mut m = gaussian(16, 16, dtype, 10);
        zero_msbs(&mut m, dtype, 4);
        for &v in m.as_slice() {
            assert_eq!(q.encode(v) >> 12, 0);
        }
    }

    #[test]
    fn zero_one_msb_of_float_is_abs() {
        // The MSB of a float encoding is the sign bit.
        let dtype = DType::Fp32;
        let base = gaussian(8, 8, dtype, 11);
        let mut m = base.clone();
        zero_msbs(&mut m, dtype, 1);
        for (&orig, &now) in base.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(now, orig.abs());
        }
    }

    #[test]
    fn zero_all_bits_gives_zero_matrix() {
        for dtype in DType::ALL {
            let mut m = gaussian(4, 4, dtype, 12);
            zero_lsbs(&mut m, dtype, dtype.bits());
            assert!(m.as_slice().iter().all(|&v| v == 0.0), "{dtype}");
        }
    }

    #[test]
    fn zero_lsbs_int8_keeps_sign_structure() {
        // Zeroing low bits of two's complement moves values toward the
        // next multiple of 2^k below (for positives) — spot-check range.
        let dtype = DType::Int8;
        let q = Quantizer::new(dtype);
        let mut m = Matrix::from_vec(1, 4, vec![7.0, -7.0, 127.0, -128.0]);
        zero_lsbs(&mut m, dtype, 2);
        let vals: Vec<f32> = m.as_slice().to_vec();
        assert_eq!(vals, vec![4.0, -8.0, 124.0, -128.0]);
        for &v in &vals {
            assert_eq!(q.encode(v) & 0b11, 0);
        }
    }
}
