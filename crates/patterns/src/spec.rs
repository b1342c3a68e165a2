//! Declarative pattern specifications.
//!
//! A [`PatternSpec`] fully describes one input configuration from the
//! paper: the structural pattern ([`PatternKind`]), and the base Gaussian
//! distribution it draws from. Experiments are swept by constructing specs
//! on a grid and calling [`PatternSpec::generate`]; the spec also carries a
//! stable human-readable label used in result tables.
//!
//! `generate` is two halves: a **base draw** keyed by exactly its inputs
//! ([`PatternSpec::base_key`], [`BaseKey::draw`]) and a **transform**
//! ([`PatternSpec::transform`]) that continues from the base, or from its
//! full sort, and from the RNG state the draw left behind.

use std::borrow::Cow;

use crate::{bit_similarity, distribution, placement, sparsity};
use wm_bits::Xoshiro256pp;
use wm_matrix::Matrix;
use wm_numerics::DType;

/// The structural family of an input pattern (see module docs of
/// [`crate::distribution`], [`crate::bit_similarity`],
/// [`crate::placement`], [`crate::sparsity`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatternKind {
    /// Plain Gaussian fill (Fig. 3a/3b baseline).
    Gaussian,
    /// Uniform draws from a set of `set_size` Gaussian values (Fig. 3c).
    ValueSet {
        /// Number of distinct values in the set.
        set_size: usize,
    },
    /// One random value everywhere (§IV.B baseline).
    ConstantRandom,
    /// Constant fill, then each bit flipped with `probability` (Fig. 4a).
    BitFlips {
        /// Per-bit flip probability in `[0, 1]`.
        probability: f64,
    },
    /// Constant fill, then `count` LSBs randomized (Fig. 4b).
    RandomLsbs {
        /// Number of least-significant bits randomized.
        count: u32,
    },
    /// Constant fill, then `count` MSBs randomized (Fig. 4c).
    RandomMsbs {
        /// Number of most-significant bits randomized.
        count: u32,
    },
    /// Gaussian fill partially sorted row-major (Fig. 5a/5b).
    SortedRows {
        /// Fraction of values sorted into the leading indices.
        fraction: f64,
    },
    /// Gaussian fill partially sorted column-major (Fig. 5c).
    SortedCols {
        /// Fraction of values sorted into the leading indices.
        fraction: f64,
    },
    /// Gaussian fill with each row partially sorted (Fig. 5d).
    SortedWithinRows {
        /// Fraction sorted within each row.
        fraction: f64,
    },
    /// Gaussian fill with an exact fraction zeroed (Fig. 6a).
    Sparse {
        /// Fraction of elements set to zero.
        sparsity: f64,
    },
    /// Gaussian fill fully sorted, then a fraction zeroed (Fig. 6b).
    SortedThenSparse {
        /// Fraction of elements set to zero.
        sparsity: f64,
    },
    /// Gaussian fill with `count` LSBs of each encoding zeroed (Fig. 6c).
    ZeroLsbs {
        /// Number of least-significant bits cleared.
        count: u32,
    },
    /// Gaussian fill with `count` MSBs of each encoding zeroed (Fig. 6d).
    ZeroMsbs {
        /// Number of most-significant bits cleared.
        count: u32,
    },
    /// The all-zero matrix (the paper's §V "no bitflips" limit case).
    Zeros,
}

/// What a pattern draws before its structural transform (see
/// [`PatternSpec::base_key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseKind {
    /// `rows x cols` Gaussian variates quantized to the dtype: the start
    /// of every Gaussian-fill pattern (placement, sparsity, bit zeroing).
    Gaussian,
    /// One quantized Gaussian variate everywhere: the bit-similarity
    /// patterns' constant fill.
    Constant,
    /// Uniform picks from a drawn set of quantized Gaussian values: the
    /// whole [`PatternKind::ValueSet`] pattern.
    ValueSet {
        /// Number of distinct values in the set.
        set_size: usize,
    },
    /// The all-zero matrix, which draws nothing.
    Zeros,
}

/// Exactly the inputs of one base draw: the base kind, the resolved mean
/// and σ (compared by bits), the dtype, the shape and the RNG state the
/// draw starts from. Equal keys draw bit-identical bases and leave equal
/// RNG states, so a batch whose patterns share a key may draw its base
/// once (`wm_experiments::runner::execute` does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseKey {
    kind: BaseKind,
    mean_bits: u64,
    std_bits: u64,
    dtype: DType,
    rows: usize,
    cols: usize,
    rng: Xoshiro256pp,
}

impl BaseKey {
    /// The kind of base this key draws.
    pub fn kind(&self) -> BaseKind {
        self.kind
    }

    /// Draw the base: the matrix, and the RNG state the draw leaves behind
    /// for [`PatternSpec::transform`] to continue from.
    // audit:allow(hot-path-alloc): the base draw builds the matrix it returns
    pub fn draw(&self) -> (Matrix, Xoshiro256pp) {
        let mut rng = self.rng;
        let (mean, std) = (
            f64::from_bits(self.mean_bits),
            f64::from_bits(self.std_bits),
        );
        let (rows, cols, dtype) = (self.rows, self.cols, self.dtype);
        let base = match self.kind {
            BaseKind::Gaussian => {
                distribution::gaussian_matrix(rows, cols, mean, std, dtype, &mut rng)
            }
            BaseKind::Constant => {
                distribution::constant_random_matrix(rows, cols, mean, std, dtype, &mut rng)
            }
            BaseKind::ValueSet { set_size } => {
                distribution::value_set_matrix(rows, cols, set_size, mean, std, dtype, &mut rng)
            }
            BaseKind::Zeros => Matrix::zeros(rows, cols),
        };
        (base, rng)
    }
}

/// Whether a placement fraction sorts every value, so the pattern can
/// start from the base's full sort.
fn sorts_fully(fraction: f64) -> bool {
    fraction >= 1.0
}

/// `start`, owned (a borrowed start is copied once), after `edit`.
fn edited<'a>(start: Cow<'a, Matrix>, edit: impl FnOnce(&mut Matrix)) -> Cow<'a, Matrix> {
    let mut m = start.into_owned();
    edit(&mut m);
    Cow::Owned(m)
}

/// A complete input-pattern description: structure plus base distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternSpec {
    /// The structural pattern.
    pub kind: PatternKind,
    /// Mean of the base Gaussian.
    pub mean: f64,
    /// Standard deviation of the base Gaussian; `None` selects the paper's
    /// per-dtype default (210 for floating point, 25 for INT8).
    pub std: Option<f64>,
}

impl PatternSpec {
    /// A spec with the paper's default distribution (`N(0, per-dtype σ)`).
    pub fn new(kind: PatternKind) -> Self {
        Self {
            kind,
            mean: 0.0,
            std: None,
        }
    }

    /// Override the Gaussian mean (Fig. 3b sweeps this).
    pub fn with_mean(mut self, mean: f64) -> Self {
        self.mean = mean;
        self
    }

    /// Override the Gaussian standard deviation (Fig. 3a sweeps this).
    pub fn with_std(mut self, std: f64) -> Self {
        self.std = Some(std);
        self
    }

    /// The standard deviation this spec resolves to for `dtype`.
    pub fn sigma_for(&self, dtype: DType) -> f64 {
        self.std.unwrap_or_else(|| dtype.paper_sigma())
    }

    /// The key of this pattern's base draw of a `rows x cols` matrix of
    /// `dtype` from `rng`: the first half of [`PatternSpec::generate`].
    /// Every pattern of one base kind, resolved mean and σ draws the same
    /// base from the same stream; only the transform differs.
    pub fn base_key(&self, dtype: DType, rows: usize, cols: usize, rng: Xoshiro256pp) -> BaseKey {
        let kind = match self.kind {
            PatternKind::ValueSet { set_size } => BaseKind::ValueSet { set_size },
            PatternKind::ConstantRandom
            | PatternKind::BitFlips { .. }
            | PatternKind::RandomLsbs { .. }
            | PatternKind::RandomMsbs { .. } => BaseKind::Constant,
            PatternKind::Zeros => BaseKind::Zeros,
            _ => BaseKind::Gaussian,
        };
        BaseKey {
            kind,
            mean_bits: self.mean.to_bits(),
            std_bits: self.sigma_for(dtype).to_bits(),
            dtype,
            rows,
            cols,
            rng,
        }
    }

    /// Whether [`PatternSpec::transform`] starts from the base's full sort
    /// ([`placement::fully_sorted`]) rather than the base itself: the
    /// full row and column sorts, and the sort before sparsification.
    pub fn starts_sorted(&self) -> bool {
        match self.kind {
            PatternKind::SortedRows { fraction } | PatternKind::SortedCols { fraction } => {
                sorts_fully(fraction)
            }
            PatternKind::SortedThenSparse { .. } => true,
            _ => false,
        }
    }

    /// The second half of [`PatternSpec::generate`]: finish the pattern
    /// from `start` — the base draw, or its full sort when
    /// [`PatternSpec::starts_sorted`] — continuing `rng` from the state
    /// the draw left behind (sparsity and the bit-similarity patterns
    /// draw more). A start the pattern keeps as it is comes back as it
    /// came, so a borrowed base costs no copy.
    // audit:allow(hot-path-alloc): transforms build or copy the operand they return
    pub fn transform<'a>(
        &self,
        dtype: DType,
        start: Cow<'a, Matrix>,
        rng: &mut Xoshiro256pp,
    ) -> Cow<'a, Matrix> {
        match self.kind {
            PatternKind::Gaussian
            | PatternKind::ValueSet { .. }
            | PatternKind::ConstantRandom
            | PatternKind::Zeros => start,
            PatternKind::BitFlips { probability } => edited(start, |m| {
                bit_similarity::flip_random_bits(m, dtype, probability, rng)
            }),
            PatternKind::RandomLsbs { count } => edited(start, |m| {
                bit_similarity::randomize_lsbs(m, dtype, count, rng)
            }),
            PatternKind::RandomMsbs { count } => edited(start, |m| {
                bit_similarity::randomize_msbs(m, dtype, count, rng)
            }),
            PatternKind::SortedRows { fraction } if sorts_fully(fraction) => start,
            PatternKind::SortedRows { fraction } => {
                edited(start, |m| placement::sort_into_rows(m, fraction))
            }
            PatternKind::SortedCols { fraction } if sorts_fully(fraction) => {
                Cow::Owned(placement::column_major(&start))
            }
            PatternKind::SortedCols { fraction } => {
                edited(start, |m| placement::sort_into_cols(m, fraction))
            }
            PatternKind::SortedWithinRows { fraction } => {
                edited(start, |m| placement::sort_within_rows(m, fraction))
            }
            PatternKind::Sparse { sparsity } | PatternKind::SortedThenSparse { sparsity } => {
                edited(start, |m| sparsity::apply_sparsity(m, sparsity, rng))
            }
            PatternKind::ZeroLsbs { count } => {
                edited(start, |m| sparsity::zero_lsbs(m, dtype, count))
            }
            PatternKind::ZeroMsbs { count } => {
                edited(start, |m| sparsity::zero_msbs(m, dtype, count))
            }
        }
    }

    /// Generate one matrix of this pattern: draw the base
    /// ([`PatternSpec::base_key`], [`BaseKey::draw`]), fully sort it if
    /// the pattern [starts sorted](PatternSpec::starts_sorted), and
    /// [transform](PatternSpec::transform) it, leaving `rng` where the
    /// transform left it.
    ///
    /// The caller supplies the RNG; experiments fork decorrelated streams
    /// for the A and B operands from a per-seed root (the paper: "The A and
    /// B matrices use different seeds").
    // audit:allow(hot-path-alloc): generators build the operand matrices they return
    pub fn generate(
        &self,
        dtype: DType,
        rows: usize,
        cols: usize,
        rng: &mut Xoshiro256pp,
    ) -> Matrix {
        let (mut start, end) = self.base_key(dtype, rows, cols, *rng).draw();
        *rng = end;
        if self.starts_sorted() {
            start = placement::fully_sorted(&start);
        }
        self.transform(dtype, Cow::Owned(start), rng).into_owned()
    }

    /// A stable, human-readable label for result tables, e.g.
    /// `gaussian(mean=0,std=210)` or `sorted_rows(50%)`.
    pub fn label(&self) -> String {
        let base = match self.kind {
            PatternKind::Gaussian => "gaussian".to_string(),
            PatternKind::ValueSet { set_size } => format!("value_set(n={set_size})"),
            PatternKind::ConstantRandom => "constant_random".to_string(),
            PatternKind::BitFlips { probability } => {
                format!("bit_flips(p={probability:.3})")
            }
            PatternKind::RandomLsbs { count } => format!("random_lsbs(k={count})"),
            PatternKind::RandomMsbs { count } => format!("random_msbs(k={count})"),
            PatternKind::SortedRows { fraction } => {
                format!("sorted_rows({:.0}%)", fraction * 100.0)
            }
            PatternKind::SortedCols { fraction } => {
                format!("sorted_cols({:.0}%)", fraction * 100.0)
            }
            PatternKind::SortedWithinRows { fraction } => {
                format!("sorted_within_rows({:.0}%)", fraction * 100.0)
            }
            PatternKind::Sparse { sparsity } => format!("sparse({:.0}%)", sparsity * 100.0),
            PatternKind::SortedThenSparse { sparsity } => {
                format!("sorted_then_sparse({:.0}%)", sparsity * 100.0)
            }
            PatternKind::ZeroLsbs { count } => format!("zero_lsbs(k={count})"),
            PatternKind::ZeroMsbs { count } => format!("zero_msbs(k={count})"),
            PatternKind::Zeros => "zeros".to_string(),
        };
        match self.std {
            Some(std) => format!("{base}[mean={},std={}]", self.mean, std),
            None if self.mean != 0.0 => format!("{base}[mean={}]", self.mean),
            None => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_numerics::Quantizer;

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(seed)
    }

    #[test]
    fn every_kind_generates_the_requested_shape() {
        let kinds = [
            PatternKind::Gaussian,
            PatternKind::ValueSet { set_size: 8 },
            PatternKind::ConstantRandom,
            PatternKind::BitFlips { probability: 0.1 },
            PatternKind::RandomLsbs { count: 4 },
            PatternKind::RandomMsbs { count: 4 },
            PatternKind::SortedRows { fraction: 0.5 },
            PatternKind::SortedCols { fraction: 0.5 },
            PatternKind::SortedWithinRows { fraction: 0.5 },
            PatternKind::Sparse { sparsity: 0.5 },
            PatternKind::SortedThenSparse { sparsity: 0.5 },
            PatternKind::ZeroLsbs { count: 4 },
            PatternKind::ZeroMsbs { count: 4 },
            PatternKind::Zeros,
        ];
        for kind in kinds {
            for dtype in DType::ALL {
                let m = PatternSpec::new(kind).generate(dtype, 12, 20, &mut rng(1));
                assert_eq!((m.rows(), m.cols()), (12, 20), "{kind:?} {dtype}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = PatternSpec::new(PatternKind::Sparse { sparsity: 0.3 });
        let a = spec.generate(DType::Fp16, 16, 16, &mut rng(42));
        let b = spec.generate(DType::Fp16, 16, 16, &mut rng(42));
        assert_eq!(a, b);
        let c = spec.generate(DType::Fp16, 16, 16, &mut rng(43));
        assert_ne!(a, c);
    }

    #[test]
    fn sigma_defaults_follow_dtype() {
        let spec = PatternSpec::new(PatternKind::Gaussian);
        assert_eq!(spec.sigma_for(DType::Fp32), 210.0);
        assert_eq!(spec.sigma_for(DType::Int8), 25.0);
        let spec = spec.with_std(7.0);
        assert_eq!(spec.sigma_for(DType::Int8), 7.0);
    }

    #[test]
    fn mean_override_shifts_values() {
        let spec = PatternSpec::new(PatternKind::Gaussian)
            .with_mean(1000.0)
            .with_std(1.0);
        let m = spec.generate(DType::Fp32, 32, 32, &mut rng(2));
        assert!((m.mean() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn generated_values_are_quantized() {
        for dtype in DType::ALL {
            let spec = PatternSpec::new(PatternKind::SortedThenSparse { sparsity: 0.2 });
            let m = spec.generate(dtype, 16, 16, &mut rng(3));
            let q = Quantizer::new(dtype);
            for &v in m.as_slice() {
                assert_eq!(q.quantize(v), v, "{dtype}: {v} not representable");
            }
        }
    }

    #[test]
    fn zeros_pattern_is_all_zero() {
        let m = PatternSpec::new(PatternKind::Zeros).generate(DType::Fp16Tensor, 8, 8, &mut rng(4));
        assert_eq!(m.zero_fraction(), 1.0);
    }

    #[test]
    fn labels_are_distinct_and_stable() {
        let a = PatternSpec::new(PatternKind::SortedRows { fraction: 0.5 }).label();
        let b = PatternSpec::new(PatternKind::SortedCols { fraction: 0.5 }).label();
        assert_ne!(a, b);
        assert_eq!(a, "sorted_rows(50%)");
        let c = PatternSpec::new(PatternKind::Gaussian)
            .with_mean(64.0)
            .with_std(1.0)
            .label();
        assert_eq!(c, "gaussian[mean=64,std=1]");
    }
}
