//! Property tests for the prediction subsystem's determinism contracts:
//! feature extraction is bit-identical however many workers share the
//! pass, and online fitting is order-insensitive for duplicated
//! observations.

use proptest::prelude::*;
use wm_bits::Xoshiro256pp;
use wm_core::RunRequest;
use wm_gpu::GemmDims;
use wm_numerics::DType;
use wm_patterns::{PatternKind, PatternSpec};
use wm_predict::{
    extract_features, features_for_request, FeatureAccumulator, FeatureVector, KernelClass,
    PowerPredictor,
};

fn arb_dtype() -> impl Strategy<Value = DType> {
    prop::sample::select(DType::EXTENDED.to_vec())
}

fn arb_kind() -> impl Strategy<Value = PatternKind> {
    prop_oneof![
        Just(PatternKind::Gaussian),
        Just(PatternKind::ConstantRandom),
        Just(PatternKind::Zeros),
        (1usize..32).prop_map(|n| PatternKind::ValueSet { set_size: n }),
        (0.0f64..=1.0).prop_map(|p| PatternKind::BitFlips { probability: p }),
        (0.0f64..=1.0).prop_map(|f| PatternKind::SortedRows { fraction: f }),
        (0.0f64..=1.0).prop_map(|s| PatternKind::Sparse { sparsity: s }),
        (0u32..=16).prop_map(|k| PatternKind::ZeroLsbs { count: k }),
    ]
}

/// One plain request's operand stream (A then B, row-major — the
/// extractor's canonical order), from the shared first-seed contract.
fn operand_stream(req: &RunRequest) -> Vec<f32> {
    let (a, b) = wm_core::first_seed_member_operands(req, req.dims(), 0);
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a.as_slice());
    out.extend_from_slice(b.as_slice());
    out
}

/// Extract features with `workers` OS threads, each accumulating one
/// contiguous chunk of the stream; partials fold in stream order.
fn extract_parallel(req: &RunRequest, stream: &[f32], workers: usize) -> FeatureVector {
    let dtype = req.dtype;
    let chunk_len = stream.len().div_ceil(workers);
    let partials: Vec<FeatureAccumulator> = std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut acc = FeatureAccumulator::new(dtype);
                    for &v in chunk {
                        acc.add_value(v);
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut whole = FeatureAccumulator::new(dtype);
    for part in &partials {
        whole.merge(part);
    }
    whole.finish(req.kernel, req.dims())
}

fn bits_of(f: &FeatureVector) -> Vec<u64> {
    f.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn arb_request() -> impl Strategy<Value = RunRequest> {
    (
        arb_dtype(),
        // Square and ragged n x m x k shapes alike must satisfy the
        // determinism contracts.
        prop::sample::select(vec![
            GemmDims::square(16),
            GemmDims::square(33),
            GemmDims {
                n: 16,
                m: 24,
                k: 40,
            },
            GemmDims { n: 48, m: 8, k: 17 },
            GemmDims { n: 24, m: 1, k: 48 },
        ]),
        arb_kind(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(dtype, shape, kind, base_seed, gemv)| {
            let req = RunRequest::new(dtype, shape.n, PatternSpec::new(kind))
                .with_shape(shape)
                .with_base_seed(base_seed);
            if gemv {
                req.with_kernel(KernelClass::Gemv)
            } else {
                req
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn extraction_is_bit_identical_across_worker_counts(req in arb_request()) {
        let stream = operand_stream(&req);
        let sequential = features_for_request(&req);
        for workers in [1usize, 2, 3, 5, 8] {
            let parallel = extract_parallel(&req, &stream, workers);
            prop_assert_eq!(
                bits_of(&sequential),
                bits_of(&parallel),
                "{} workers diverged on {:?}",
                workers,
                req
            );
        }
    }

    #[test]
    fn extraction_matches_the_matrix_entry_point(req in arb_request()) {
        // `extract_features` over the matrices and the streaming
        // accumulator over their concatenated storage are the same pass.
        let mut root = Xoshiro256pp::seed_from_u64(req.base_seed ^ 1);
        let dims = req.dims();
        let a = req.pattern_a.generate(req.dtype, dims.n, dims.k, &mut root.fork(0));
        // GEMV's second operand is the k x 1 input vector; GEMM stores B
        // per the transposition flag (default true: m x k).
        let (b_rows, b_cols) = if req.kernel == KernelClass::Gemv {
            (dims.k, 1)
        } else {
            (dims.m, dims.k)
        };
        let b = req.pattern_b.generate(req.dtype, b_rows, b_cols, &mut root.fork(1));
        let via_matrices = extract_features(req.dtype, req.kernel, dims, &a, &b);
        prop_assert_eq!(bits_of(&via_matrices), bits_of(&features_for_request(&req)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn duplicated_observations_fit_order_insensitively(
        seeds in prop::collection::vec(any::<u64>(), 3..6),
        dups in 2usize..4,
        shuffle_seed in any::<u64>(),
    ) {
        // Build a duplicated observation set, then feed it in two orders:
        // sorted and deterministically shuffled. The fitted model must
        // agree — duplicated terms accumulate into the same sums.
        let obs: Vec<(FeatureVector, f64)> = seeds
            .iter()
            .map(|&s| {
                let req = RunRequest::new(
                    DType::Fp16Tensor,
                    24,
                    PatternSpec::new(PatternKind::Gaussian),
                )
                .with_base_seed(s);
                let f = features_for_request(&req);
                let toggles = FeatureVector::NAMES.iter().position(|n| *n == "toggle_density");
                let watts = 100.0 + 200.0 * f.as_slice()[toggles.expect("a feature name")];
                (f, watts)
            })
            .collect();
        let mut order: Vec<usize> = (0..obs.len())
            .flat_map(|i| std::iter::repeat_n(i, dups))
            .collect();
        let fit = |order: &[usize]| {
            let mut p = PowerPredictor::with_min_observations(1);
            for &i in order {
                p.observe("GPU", KernelClass::Gemm, &obs[i].0, obs[i].1);
            }
            p
        };
        let baseline = fit(&order);
        // Deterministic Fisher–Yates driven by the shuffle seed.
        let mut state = shuffle_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let shuffled = fit(&order);
        let probe = features_for_request(
            &RunRequest::new(DType::Fp16Tensor, 24, PatternSpec::new(PatternKind::Gaussian))
                .with_base_seed(12345),
        );
        let a = baseline.raw_predict("GPU", KernelClass::Gemm, &probe);
        let b = shuffled.raw_predict("GPU", KernelClass::Gemm, &probe);
        // Sufficient statistics are order-free sums; only floating-point
        // summation order can differ, so predictions agree to ulp scale.
        match (a, b) {
            (Some(x), Some(y)) => prop_assert!(
                ((x.watts - y.watts) / y.watts).abs() < 1e-9,
                "orders diverged: {} vs {}",
                x.watts,
                y.watts
            ),
            (x, y) => prop_assert_eq!(x, y),
        }
    }
}
