//! §IV.A value-distribution generators: Gaussian fills and value sets.

use wm_bits::Xoshiro256pp;
use wm_matrix::Matrix;
use wm_numerics::{DType, Gaussian, Quantizer};

/// Fill a fresh `rows x cols` matrix with Gaussian variates quantized to
/// `dtype` (Fig. 3a/3b: σ and μ sweeps).
pub fn gaussian_matrix(
    rows: usize,
    cols: usize,
    mean: f64,
    std: f64,
    dtype: DType,
    rng: &mut Xoshiro256pp,
) -> Matrix {
    let mut data = vec![0.0; rows * cols];
    Gaussian::new(mean, std).fill(rng, &mut data);
    Quantizer::new(dtype).quantize_slice(&mut data);
    Matrix::from_vec(rows, cols, data)
}

/// Fill a matrix by sampling uniformly **with replacement** from a set of
/// `set_size` Gaussian variates (Fig. 3c: "inputs from a set").
///
/// The set itself is drawn from `N(mean, std)` with this matrix's own RNG
/// stream, then each element picks a set member uniformly. A `set_size` of
/// 1 yields a constant matrix; a set as large as the matrix approaches the
/// plain Gaussian fill.
///
/// # Panics
///
/// Panics if `set_size == 0`.
pub fn value_set_matrix(
    rows: usize,
    cols: usize,
    set_size: usize,
    mean: f64,
    std: f64,
    dtype: DType,
    rng: &mut Xoshiro256pp,
) -> Matrix {
    assert!(set_size > 0, "value set must be non-empty");
    let q = Quantizer::new(dtype);
    let mut g = Gaussian::new(mean, std);
    let set: Vec<f32> = (0..set_size)
        .map(|_| q.quantize(g.sample_f32(rng)))
        .collect();
    Matrix::from_fn(rows, cols, |_, _| set[rng.next_bounded(set.len())])
}

/// Fill a matrix with one single Gaussian variate everywhere (the §IV.B
/// baseline: "the A matrix is initially filled with one random value").
pub fn constant_random_matrix(
    rows: usize,
    cols: usize,
    mean: f64,
    std: f64,
    dtype: DType,
    rng: &mut Xoshiro256pp,
) -> Matrix {
    let q = Quantizer::new(dtype);
    let v = q.quantize(Gaussian::new(mean, std).sample_f32(rng));
    Matrix::filled(rows, cols, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(seed)
    }

    #[test]
    fn gaussian_fill_moments() {
        let m = gaussian_matrix(64, 64, 0.0, 210.0, DType::Fp32, &mut rng(1));
        let mean = m.mean();
        let std = {
            let mu = mean;
            let var = m
                .as_slice()
                .iter()
                .map(|&v| (v as f64 - mu).powi(2))
                .sum::<f64>()
                / (m.len() - 1) as f64;
            var.sqrt()
        };
        assert!(mean.abs() < 15.0, "mean {mean}");
        assert!((std - 210.0).abs() < 10.0, "std {std}");
    }

    #[test]
    fn gaussian_fill_is_quantized_for_int8() {
        let m = gaussian_matrix(32, 32, 0.0, 25.0, DType::Int8, &mut rng(2));
        for &v in m.as_slice() {
            assert_eq!(v.fract(), 0.0);
            assert!((-128.0..=127.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_fill_is_quantized_for_fp16() {
        let m = gaussian_matrix(32, 32, 0.0, 210.0, DType::Fp16, &mut rng(3));
        let q = Quantizer::new(DType::Fp16);
        for &v in m.as_slice() {
            assert_eq!(q.quantize(v), v, "unquantized value {v}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = gaussian_matrix(16, 16, 0.0, 210.0, DType::Fp32, &mut rng(4));
        let b = gaussian_matrix(16, 16, 0.0, 210.0, DType::Fp32, &mut rng(5));
        assert_ne!(a, b);
        let a2 = gaussian_matrix(16, 16, 0.0, 210.0, DType::Fp32, &mut rng(4));
        assert_eq!(a, a2, "same seed must reproduce");
    }

    #[test]
    fn value_set_draws_only_from_set() {
        let m = value_set_matrix(32, 32, 4, 0.0, 210.0, DType::Fp32, &mut rng(6));
        let mut uniq: Vec<u32> = m.as_slice().iter().map(|v| v.to_bits()).collect();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() <= 4, "found {} unique values", uniq.len());
        assert!(uniq.len() >= 2, "set of 4 should surface at least 2 values");
    }

    #[test]
    fn value_set_of_one_is_constant() {
        let m = value_set_matrix(8, 8, 1, 0.0, 210.0, DType::Fp16, &mut rng(7));
        let first = m.get(0, 0);
        assert!(m.as_slice().iter().all(|&v| v == first));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_value_set_rejected() {
        value_set_matrix(4, 4, 0, 0.0, 1.0, DType::Fp32, &mut rng(8));
    }

    #[test]
    fn constant_random_is_constant_and_seed_dependent() {
        let a = constant_random_matrix(16, 16, 0.0, 210.0, DType::Fp16, &mut rng(9));
        let first = a.get(0, 0);
        assert!(a.as_slice().iter().all(|&v| v == first));
        let b = constant_random_matrix(16, 16, 0.0, 210.0, DType::Fp16, &mut rng(10));
        assert_ne!(a.get(0, 0), b.get(0, 0));
    }

    #[test]
    fn large_set_approaches_gaussian_diversity() {
        let m = value_set_matrix(16, 16, 4096, 0.0, 210.0, DType::Fp32, &mut rng(11));
        let mut uniq: Vec<u32> = m.as_slice().iter().map(|v| v.to_bits()).collect();
        uniq.sort_unstable();
        uniq.dedup();
        // 256 draws from a 4096-value set: collisions are rare.
        assert!(uniq.len() > 240, "only {} unique", uniq.len());
    }
}
