//! §IV.B bit-similarity transforms: random bit flips and LSB/MSB
//! randomization applied to a constant-filled matrix.
//!
//! All three experiments start from a matrix holding one random value
//! everywhere (see [`crate::distribution::constant_random_matrix`]) and
//! then damage the bit patterns per element. The transforms work on the
//! dtype's **raw encodings** (via `wm-bits` surgery) and decode back, so
//! the matrix afterwards holds exactly the values whose encodings carry
//! the requested bit structure.
//!
//! Note on floating point: randomizing high bits can produce infinities or
//! NaNs — the same is true on real hardware, where the paper's experiments
//! simply run whatever bit patterns result. NaN payloads survive our
//! decode/encode round trip except for quietization of signaling NaNs,
//! which flips one additional (already random) bit.

use wm_bits::{BitSurgeon, Xoshiro256pp};
use wm_matrix::Matrix;
use wm_numerics::{DType, Quantizer};

/// Apply an encoding-level transform to every element of a matrix, in
/// order, with the dtype resolved once ([`Quantizer::map_words`]).
fn rewrite_bits(m: &mut Matrix, dtype: DType, mut f: impl FnMut(u64, &BitSurgeon) -> u64) {
    let surgeon = BitSurgeon::new(dtype.bits());
    Quantizer::new(dtype).map_words(m.as_mut_slice(), |bits| f(bits, &surgeon));
}

/// Flip each bit of each element independently with probability
/// `flip_prob` (Fig. 4a).
pub fn flip_random_bits(m: &mut Matrix, dtype: DType, flip_prob: f64, rng: &mut Xoshiro256pp) {
    assert!(
        (0.0..=1.0).contains(&flip_prob),
        "flip probability {flip_prob} outside [0, 1]"
    );
    rewrite_bits(m, dtype, |bits, s| s.flip_random_bits(bits, flip_prob, rng));
}

/// Replace the `count` least-significant bits of each element's encoding
/// with uniform random bits (Fig. 4b).
pub fn randomize_lsbs(m: &mut Matrix, dtype: DType, count: u32, rng: &mut Xoshiro256pp) {
    rewrite_bits(m, dtype, |bits, s| s.randomize_lsbs(bits, count, rng));
}

/// Replace the `count` most-significant bits of each element's encoding
/// with uniform random bits (Fig. 4c).
pub fn randomize_msbs(m: &mut Matrix, dtype: DType, count: u32, rng: &mut Xoshiro256pp) {
    rewrite_bits(m, dtype, |bits, s| s.randomize_msbs(bits, count, rng));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::constant_random_matrix;
    use wm_bits::hamming_distance;

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(seed)
    }

    fn constant(dtype: DType, seed: u64) -> Matrix {
        constant_random_matrix(32, 32, 0.0, 210.0, dtype, &mut rng(seed))
    }

    #[test]
    fn zero_flip_probability_is_identity() {
        for dtype in DType::ALL {
            let base = constant(dtype, 1);
            let mut m = base.clone();
            flip_random_bits(&mut m, dtype, 0.0, &mut rng(2));
            assert_eq!(m, base, "{dtype}");
        }
    }

    #[test]
    fn full_flip_inverts_every_encoding() {
        let dtype = DType::Int8;
        let q = Quantizer::new(dtype);
        let base = constant(dtype, 3);
        let mut m = base.clone();
        flip_random_bits(&mut m, dtype, 1.0, &mut rng(4));
        for (&orig, &flipped) in base.as_slice().iter().zip(m.as_slice()) {
            let ob = q.encode(orig);
            let fb = q.encode(flipped);
            assert_eq!(ob ^ fb, 0xFF, "orig {ob:#x} flipped {fb:#x}");
        }
    }

    #[test]
    fn flip_rate_tracks_probability() {
        let dtype = DType::Fp16;
        let q = Quantizer::new(dtype);
        let base = constant(dtype, 5);
        let mut m = base.clone();
        flip_random_bits(&mut m, dtype, 0.25, &mut rng(6));
        let total_flips: u64 = base
            .as_slice()
            .iter()
            .zip(m.as_slice())
            .map(|(&a, &b)| u64::from(hamming_distance(q.encode(a) as u16, q.encode(b) as u16)))
            .sum();
        let rate = total_flips as f64 / (m.len() as f64 * 16.0);
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn randomize_lsbs_preserves_high_bits() {
        let dtype = DType::Fp16;
        let q = Quantizer::new(dtype);
        let base = constant(dtype, 7);
        let mut m = base.clone();
        randomize_lsbs(&mut m, dtype, 6, &mut rng(8));
        for (&a, &b) in base.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(q.encode(a) >> 6, q.encode(b) >> 6);
        }
    }

    #[test]
    fn randomize_msbs_preserves_low_bits() {
        let dtype = DType::Int8;
        let q = Quantizer::new(dtype);
        let base = constant(dtype, 9);
        let mut m = base.clone();
        randomize_msbs(&mut m, dtype, 3, &mut rng(10));
        for (&a, &b) in base.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(q.encode(a) & 0x1F, q.encode(b) & 0x1F);
        }
    }

    #[test]
    fn randomize_zero_bits_is_identity() {
        let dtype = DType::Fp32;
        let base = constant(dtype, 11);
        let mut m = base.clone();
        randomize_lsbs(&mut m, dtype, 0, &mut rng(12));
        assert_eq!(m, base);
        randomize_msbs(&mut m, dtype, 0, &mut rng(13));
        assert_eq!(m, base);
    }

    #[test]
    fn more_randomized_bits_means_more_diversity() {
        let dtype = DType::Fp16;
        let count_unique = |m: &Matrix| {
            let mut v: Vec<u32> = m.as_slice().iter().map(|x| x.to_bits()).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        let base = constant(dtype, 14);
        let mut few = base.clone();
        randomize_lsbs(&mut few, dtype, 2, &mut rng(15));
        let mut many = base.clone();
        randomize_lsbs(&mut many, dtype, 10, &mut rng(16));
        assert!(count_unique(&many) > count_unique(&few));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn flip_probability_validated() {
        let mut m = constant(DType::Fp32, 17);
        flip_random_bits(&mut m, DType::Fp32, 1.5, &mut rng(18));
    }
}
