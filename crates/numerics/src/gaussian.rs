//! Deterministic Gaussian sampling.
//!
//! The paper's value-distribution experiments (§IV.A) fill matrices with
//! Gaussian random variables of controlled mean and standard deviation
//! (σ = 210 for floating point, 25 for INT8, "appropriate parameters to
//! ensure that all values practically fall within each datatype's
//! representation range" — 210·4σ ≈ 840 stays far below the 65504 FP16
//! max, and 25·4σ ≈ 100 fits INT8).
//!
//! We use the Marsaglia polar method on the workspace PRNG: exact, fast,
//! and bit-deterministic for a fixed seed, which external distribution
//! crates do not guarantee across versions.

use wm_bits::Xoshiro256pp;

/// A Gaussian (normal) distribution sampler with cached spare variate.
#[derive(Debug, Clone)]
pub struct Gaussian {
    mean: f64,
    std: f64,
    spare: Option<f64>,
}

impl Gaussian {
    /// Create a sampler with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite (a zero σ is allowed and
    /// produces the constant `mean` — the paper's σ-sweep includes the
    /// degenerate limit).
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(
            std >= 0.0 && std.is_finite() && mean.is_finite(),
            "invalid Gaussian parameters: mean={mean}, std={std}"
        );
        Self {
            mean,
            std,
            spare: None,
        }
    }

    /// The standard normal N(0, 1).
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Distribution mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Distribution standard deviation.
    #[inline]
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draw one variate.
    pub fn sample(&mut self, rng: &mut Xoshiro256pp) -> f64 {
        if let Some(z) = self.spare.take() {
            return self.mean + self.std * z;
        }
        let point = loop {
            let point = candidate(rng);
            if inside_disc(point) {
                break point;
            }
        };
        let (z0, z1) = polar_transform(point);
        self.spare = Some(z1);
        self.mean + self.std * z0
    }

    /// Draw one variate as `f32` (the paper generates FP32 values).
    #[inline]
    pub fn sample_f32(&mut self, rng: &mut Xoshiro256pp) -> f32 {
        self.sample(rng) as f32
    }

    /// Fill a buffer with independent variates: exactly the
    /// [`Gaussian::sample_f32`] stream (a pending spare comes first, and
    /// an odd tail leaves one pending), drawn a block at a time.
    pub fn fill(&mut self, rng: &mut Xoshiro256pp, out: &mut [f32]) {
        let (mean, std) = (self.mean, self.std);
        let start = match (self.spare, out.first_mut()) {
            (Some(z), Some(first)) => {
                *first = (mean + std * z) as f32;
                self.spare = None;
                1
            }
            _ => 0,
        };
        // A block's accepted points are drawn first, kept without a branch
        // on the acceptance test, and transformed after: a rejected point
        // then no longer stalls the logarithm, division and square root,
        // which overlap across the block instead.
        let mut points = [(0.0, 0.0, 0.0); FILL_BLOCK];
        for block in out[start..].chunks_mut(2 * FILL_BLOCK) {
            let pairs = block.len() / 2;
            let mut accepted = 0;
            while accepted < pairs {
                let point = candidate(rng);
                points[accepted] = point;
                accepted += usize::from(inside_disc(point));
            }
            for (pair, &point) in block.chunks_exact_mut(2).zip(&points[..pairs]) {
                let (z0, z1) = polar_transform(point);
                pair[0] = (mean + std * z0) as f32;
                pair[1] = (mean + std * z1) as f32;
            }
        }
        if (out.len() - start) % 2 == 1 {
            out[out.len() - 1] = self.sample_f32(rng);
        }
    }
}

/// Pairs of variates [`Gaussian::fill`] draws per block.
const FILL_BLOCK: usize = 128;

/// Marsaglia polar method, step one: a point `(u, v)` uniform on the
/// square `[-1, 1)^2`, with its squared radius `s`.
#[inline]
fn candidate(rng: &mut Xoshiro256pp) -> (f64, f64, f64) {
    let u = 2.0 * rng.next_f64() - 1.0;
    let v = 2.0 * rng.next_f64() - 1.0;
    (u, v, u * u + v * v)
}

/// Whether a candidate lies inside the unit disc, off its centre: only
/// those are transformed, the rest are drawn again.
#[inline]
fn inside_disc((_, _, s): (f64, f64, f64)) -> bool {
    s > 0.0 && s < 1.0
}

/// Marsaglia polar method, step two: an accepted point's two independent
/// standard normals.
#[inline]
fn polar_transform((u, v, s): (f64, f64, f64)) -> (f64, f64) {
    let factor = (-2.0 * s.ln() / s).sqrt();
    (u * factor, v * factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(mean: f64, std: f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut g = Gaussian::new(mean, std);
        let xs: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
        (m, var.sqrt())
    }

    #[test]
    fn standard_normal_moments() {
        let (m, s) = sample_stats(0.0, 1.0, 200_000, 1);
        assert!(m.abs() < 0.01, "mean {m}");
        assert!((s - 1.0).abs() < 0.01, "std {s}");
    }

    #[test]
    fn paper_distribution_moments() {
        let (m, s) = sample_stats(0.0, 210.0, 100_000, 2);
        assert!(m.abs() < 3.0, "mean {m}");
        assert!((s - 210.0).abs() < 3.0, "std {s}");
    }

    #[test]
    fn shifted_mean() {
        let (m, s) = sample_stats(1024.0, 1.0, 50_000, 3);
        assert!((m - 1024.0).abs() < 0.05, "mean {m}");
        assert!((s - 1.0).abs() < 0.05, "std {s}");
    }

    #[test]
    fn zero_sigma_is_constant() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut g = Gaussian::new(7.5, 0.0);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng), 7.5);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut r1 = Xoshiro256pp::seed_from_u64(5);
        let mut r2 = Xoshiro256pp::seed_from_u64(5);
        let mut g1 = Gaussian::new(0.0, 210.0);
        let mut g2 = Gaussian::new(0.0, 210.0);
        for _ in 0..1000 {
            assert_eq!(g1.sample(&mut r1).to_bits(), g2.sample(&mut r2).to_bits());
        }
    }

    #[test]
    fn tail_mass_roughly_gaussian() {
        // ~31.7% of mass outside 1 sigma; 4.55% outside 2 sigma.
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut g = Gaussian::standard();
        let n = 100_000;
        let mut out1 = 0usize;
        let mut out2 = 0usize;
        for _ in 0..n {
            let x = g.sample(&mut rng).abs();
            if x > 1.0 {
                out1 += 1;
            }
            if x > 2.0 {
                out2 += 1;
            }
        }
        let p1 = out1 as f64 / n as f64;
        let p2 = out2 as f64 / n as f64;
        assert!((p1 - 0.3173).abs() < 0.01, "1-sigma tail {p1}");
        assert!((p2 - 0.0455).abs() < 0.005, "2-sigma tail {p2}");
    }

    #[test]
    fn fill_matches_individual_draws() {
        // Block fills at odd and even lengths, within one block and across
        // several, starting with and without a pending spare, continue the
        // per-draw stream bit for bit — and leave the sampler (spare
        // included) where the draws would.
        for (lead, lens) in [(0, [64, 7, 1, 0, 33, 1001]), (1, [5, 2, 9, 1, 512, 64])] {
            let mut r1 = Xoshiro256pp::seed_from_u64(7);
            let mut r2 = Xoshiro256pp::seed_from_u64(7);
            let mut g1 = Gaussian::new(3.0, 2.0);
            let mut g2 = Gaussian::new(3.0, 2.0);
            for _ in 0..lead {
                assert_eq!(g1.sample(&mut r1).to_bits(), g2.sample(&mut r2).to_bits());
            }
            for len in lens {
                let mut buf = vec![0.0f32; len];
                g1.fill(&mut r1, &mut buf);
                for &b in &buf {
                    assert_eq!(b.to_bits(), g2.sample_f32(&mut r2).to_bits(), "len {len}");
                }
                assert_eq!(g1.spare.map(f64::to_bits), g2.spare.map(f64::to_bits));
            }
            assert_eq!(r1.next_u64(), r2.next_u64(), "same stream position");
        }
    }

    #[test]
    #[should_panic(expected = "invalid Gaussian")]
    fn negative_sigma_rejected() {
        Gaussian::new(0.0, -1.0);
    }
}
