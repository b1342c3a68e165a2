//! Property-based tests for pattern-generator invariants.

use std::borrow::Cow;

use proptest::prelude::*;
use wm_bits::Xoshiro256pp;
use wm_matrix::Matrix;
use wm_numerics::{DType, Quantizer};
use wm_patterns::placement::{adjacent_inversions, fully_sorted, sort_lowest_fraction};
use wm_patterns::{bit_similarity, distribution, placement, sparsity};
use wm_patterns::{BaseKey, PatternKind, PatternSpec};

fn arb_dtype() -> impl Strategy<Value = DType> {
    prop::sample::select(DType::ALL.to_vec())
}

fn arb_kind() -> impl Strategy<Value = PatternKind> {
    prop_oneof![
        Just(PatternKind::Gaussian),
        (1usize..64).prop_map(|n| PatternKind::ValueSet { set_size: n }),
        Just(PatternKind::ConstantRandom),
        (0.0f64..=1.0).prop_map(|p| PatternKind::BitFlips { probability: p }),
        (0u32..=32).prop_map(|k| PatternKind::RandomLsbs { count: k }),
        (0u32..=32).prop_map(|k| PatternKind::RandomMsbs { count: k }),
        (0.0f64..=1.0).prop_map(|f| PatternKind::SortedRows { fraction: f }),
        (0.0f64..=1.0).prop_map(|f| PatternKind::SortedCols { fraction: f }),
        (0.0f64..=1.0).prop_map(|f| PatternKind::SortedWithinRows { fraction: f }),
        (0.0f64..=1.0).prop_map(|s| PatternKind::Sparse { sparsity: s }),
        (0.0f64..=1.0).prop_map(|s| PatternKind::SortedThenSparse { sparsity: s }),
        (0u32..=32).prop_map(|k| PatternKind::ZeroLsbs { count: k }),
        (0u32..=32).prop_map(|k| PatternKind::ZeroMsbs { count: k }),
        Just(PatternKind::Zeros),
    ]
}

/// Every pattern kind, its parameters taken from `p` in `[0, 1]`,
/// `count` and `set_size`; the full sorts appear at fraction 1 as well.
fn every_kind(p: f64, count: u32, set_size: usize) -> [PatternKind; 16] {
    [
        PatternKind::Gaussian,
        PatternKind::ValueSet { set_size },
        PatternKind::ConstantRandom,
        PatternKind::BitFlips { probability: p },
        PatternKind::RandomLsbs { count },
        PatternKind::RandomMsbs { count },
        PatternKind::SortedRows { fraction: p },
        PatternKind::SortedRows { fraction: 1.0 },
        PatternKind::SortedCols { fraction: p },
        PatternKind::SortedCols { fraction: 1.0 },
        PatternKind::SortedWithinRows { fraction: p },
        PatternKind::Sparse { sparsity: p },
        PatternKind::SortedThenSparse { sparsity: p },
        PatternKind::ZeroLsbs { count },
        PatternKind::ZeroMsbs { count },
        PatternKind::Zeros,
    ]
}

/// The generator as one monolithic pass, each pattern's structure applied
/// in place to a fresh draw: the reference the base/transform split must
/// reproduce bit for bit.
fn monolithic(
    spec: &PatternSpec,
    dtype: DType,
    rows: usize,
    cols: usize,
    rng: &mut Xoshiro256pp,
) -> Matrix {
    let (mean, std) = (spec.mean, spec.sigma_for(dtype));
    let gaussian =
        |rng: &mut Xoshiro256pp| distribution::gaussian_matrix(rows, cols, mean, std, dtype, rng);
    let constant = |rng: &mut Xoshiro256pp| {
        distribution::constant_random_matrix(rows, cols, mean, std, dtype, rng)
    };
    let mut m = match spec.kind {
        PatternKind::ValueSet { set_size } => {
            return distribution::value_set_matrix(rows, cols, set_size, mean, std, dtype, rng)
        }
        PatternKind::Zeros => return Matrix::zeros(rows, cols),
        PatternKind::ConstantRandom
        | PatternKind::BitFlips { .. }
        | PatternKind::RandomLsbs { .. }
        | PatternKind::RandomMsbs { .. } => constant(rng),
        _ => gaussian(rng),
    };
    match spec.kind {
        PatternKind::BitFlips { probability } => {
            bit_similarity::flip_random_bits(&mut m, dtype, probability, rng)
        }
        PatternKind::RandomLsbs { count } => {
            bit_similarity::randomize_lsbs(&mut m, dtype, count, rng)
        }
        PatternKind::RandomMsbs { count } => {
            bit_similarity::randomize_msbs(&mut m, dtype, count, rng)
        }
        PatternKind::SortedRows { fraction } => placement::sort_into_rows(&mut m, fraction),
        PatternKind::SortedCols { fraction } => placement::sort_into_cols(&mut m, fraction),
        PatternKind::SortedWithinRows { fraction } => placement::sort_within_rows(&mut m, fraction),
        PatternKind::Sparse { sparsity } => sparsity::apply_sparsity(&mut m, sparsity, rng),
        PatternKind::SortedThenSparse { sparsity } => {
            placement::sort_into_rows(&mut m, 1.0);
            sparsity::apply_sparsity(&mut m, sparsity, rng);
        }
        PatternKind::ZeroLsbs { count } => sparsity::zero_lsbs(&mut m, dtype, count),
        PatternKind::ZeroMsbs { count } => sparsity::zero_msbs(&mut m, dtype, count),
        _ => {}
    }
    m
}

/// Bit patterns, since the bit-similarity patterns produce NaNs.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_transform_of_the_base_draw_is_generate_bit_for_bit(
        p in 0.0f64..=1.0,
        count in 0u32..=32,
        set_size in 1usize..16,
        half_rows in 0usize..6,
        half_cols in 0usize..6,
        std in prop_oneof![Just(None), (0.0f64..300.0).prop_map(Some)],
        seed: u64,
    ) {
        // Odd element counts leave the Gaussian fill an odd tail.
        let (rows, cols) = (2 * half_rows + 1, 2 * half_cols + 1);
        let from = Xoshiro256pp::seed_from_u64(seed);
        for dtype in DType::EXTENDED {
            let mut drawn: Vec<(BaseKey, Vec<u32>, Xoshiro256pp)> = Vec::new();
            for kind in every_kind(p, count, set_size) {
                let spec = match std {
                    Some(std) => PatternSpec::new(kind).with_std(std),
                    None => PatternSpec::new(kind),
                };
                let mut generate_rng = from;
                let generated = spec.generate(dtype, rows, cols, &mut generate_rng);
                let mut reference_rng = from;
                let reference = monolithic(&spec, dtype, rows, cols, &mut reference_rng);
                prop_assert_eq!(bits(&generated), bits(&reference), "{:?} {}", kind, dtype);
                prop_assert_eq!(generate_rng, reference_rng, "{:?} {}", kind, dtype);

                let key = spec.base_key(dtype, rows, cols, from);
                let (base, end) = key.draw();
                for (other, other_base, other_end) in &drawn {
                    if *other == key {
                        prop_assert_eq!(other_base, &bits(&base), "{:?} {}", kind, dtype);
                        prop_assert_eq!(*other_end, end, "{:?} {}", kind, dtype);
                    }
                }
                let start = if spec.starts_sorted() { fully_sorted(&base) } else { base.clone() };
                for start in [Cow::Borrowed(&start), Cow::Owned(start.clone())] {
                    let mut rng = end;
                    let split = spec.transform(dtype, start, &mut rng);
                    prop_assert_eq!(bits(&split), bits(&generated), "{:?} {}", kind, dtype);
                    prop_assert_eq!(rng, generate_rng, "{:?} {}: RNG end state", kind, dtype);
                }
                drawn.push((key, bits(&base), end));
            }
            // The Gaussian-fill patterns share one key, the constant
            // fills another.
            prop_assert_eq!(drawn[0].0, drawn[11].0);
            prop_assert_eq!(drawn[2].0, drawn[4].0);
            prop_assert_ne!(drawn[0].0, drawn[2].0);
        }
    }

    #[test]
    fn every_generator_is_deterministic_and_quantized(
        kind in arb_kind(),
        dtype in arb_dtype(),
        seed: u64,
    ) {
        let spec = PatternSpec::new(kind);
        let a = spec.generate(dtype, 12, 16, &mut Xoshiro256pp::seed_from_u64(seed));
        let b = spec.generate(dtype, 12, 16, &mut Xoshiro256pp::seed_from_u64(seed));
        // Bit-level equality (bit-similarity patterns legitimately produce
        // NaNs, for which PartialEq would be false).
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "same seed must reproduce");
        }
        let q = Quantizer::new(dtype);
        for &v in a.as_slice() {
            // Quantization must be a fixed point — except NaN payloads,
            // where re-encoding quietizes signaling NaNs (documented in
            // wm_patterns::bit_similarity).
            if !v.is_nan() {
                prop_assert_eq!(q.quantize(v).to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn sparsity_is_exact_for_every_requested_level(
        s in 0.0f64..=1.0,
        dtype in arb_dtype(),
        seed: u64,
    ) {
        let spec = PatternSpec::new(PatternKind::Sparse { sparsity: s });
        let m = spec.generate(dtype, 16, 16, &mut Xoshiro256pp::seed_from_u64(seed));
        let expected = (s * 256.0).round() / 256.0;
        // Gaussian fill can itself produce zeros for INT8 (values < 0.5
        // round to 0), so the zero fraction can exceed the request.
        prop_assert!(m.zero_fraction() >= expected - 1e-9);
        if dtype != DType::Int8 {
            prop_assert!((m.zero_fraction() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn partial_sort_preserves_multiset(values in prop::collection::vec(-1e4f32..1e4, 1..128), f in 0.0f64..=1.0) {
        let mut sorted = values.clone();
        sort_lowest_fraction(&mut sorted, f);
        let canon = |v: &[f32]| {
            let mut c: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
            c.sort_unstable();
            c
        };
        prop_assert_eq!(canon(&sorted), canon(&values));
    }

    #[test]
    fn sort_fraction_monotonically_reduces_inversions(
        values in prop::collection::vec(-1e4f32..1e4, 2..96),
    ) {
        let mut last = usize::MAX;
        for step in 0..=4 {
            let f = step as f64 / 4.0;
            let mut v = values.clone();
            sort_lowest_fraction(&mut v, f);
            let inv = adjacent_inversions(&v);
            prop_assert!(inv <= last, "inversions rose at f={f}");
            last = inv;
        }
        prop_assert_eq!(last, 0, "full sort must have zero inversions");
    }

    #[test]
    fn prefix_of_partial_sort_is_the_k_smallest(
        values in prop::collection::vec(-1e4f32..1e4, 4..64),
        f in 0.0f64..=1.0,
    ) {
        let mut v = values.clone();
        sort_lowest_fraction(&mut v, f);
        let k = (f * values.len() as f64).round() as usize;
        let mut all = values.clone();
        all.sort_by(f32::total_cmp);
        for i in 0..k {
            prop_assert_eq!(v[i].to_bits(), all[i].to_bits(), "prefix position {}", i);
        }
    }

    #[test]
    fn bit_zeroing_never_raises_hamming_weight(
        dtype in arb_dtype(),
        k in 0u32..=32,
        seed: u64,
    ) {
        let q = Quantizer::new(dtype);
        let base = PatternSpec::new(PatternKind::Gaussian)
            .generate(dtype, 8, 8, &mut Xoshiro256pp::seed_from_u64(seed));
        for (kind, _) in [(PatternKind::ZeroLsbs { count: k }, 0), (PatternKind::ZeroMsbs { count: k }, 1)] {
            let m = PatternSpec::new(kind).generate(dtype, 8, 8, &mut Xoshiro256pp::seed_from_u64(seed));
            let hw = |mm: &wm_matrix::Matrix| -> u64 {
                mm.as_slice().iter().map(|&v| u64::from(q.encode(v).count_ones())).sum()
            };
            prop_assert!(hw(&m) <= hw(&base), "{kind:?}");
        }
    }
}
