//! One-pass input-feature extraction.
//!
//! The paper's result is that operand *content* moves GEMM power by ~38%
//! at fixed shape and clocks, so a fleet needs a per-request power signal
//! that is far cheaper than simulating the kernel. This module computes a
//! fixed-width [`FeatureVector`] of exactly such signals in a single pass
//! over the operands' encoded words — the words a unit walk encodes once
//! and the kernel simulation reads too
//! ([`FeatureAccumulator::add_words`]): mean Hamming weight and
//! adjacent-word toggle density (the raw currency of the switching
//! activity model, via `wm-bits`), sparsity, dynamic range, peak
//! magnitude, and dtype/shape descriptors. There is no entropy feature:
//! the power model prices toggles and Hamming weight, which the features
//! already carry, and byte/value entropy did not lower held-out error.
//!
//! ## Determinism across worker counts
//!
//! Extraction is built on a mergeable [`FeatureAccumulator`] whose state
//! is exact — integer counters, plus min/max — so splitting the operand
//! stream into chunks, accumulating each chunk independently (on any
//! number of workers), and folding the partials in stream order is
//! **bit-identical** to a single sequential pass. The property tests in
//! `tests/properties.rs` pin this down.

use wm_bits::{hamming_distance, hamming_weight, slice_hamming_weight, stream_toggles};
use wm_core::RunRequest;
use wm_gpu::GemmDims;
use wm_kernels::KernelClass;
use wm_matrix::Matrix;
use wm_numerics::{bf16_bits_to_f32, f16_bits_to_f32, DType, Quantizer};

/// Width of a [`FeatureVector`].
pub const FEATURE_DIM: usize = 15;

/// Normalizer for the `group_members` feature: `log2` of the protocol's
/// 64-member group cap, so the descriptor spans [0, 1].
const GROUP_OCTAVES: f64 = 6.0;

/// Normalizer for the dynamic-range feature: the full f32 magnitude span
/// is log2(2^127 / 2^-149) ≈ 276 octaves.
const RANGE_OCTAVES: f64 = 276.0;

/// A fixed-width vector of cheap input statistics, scaled to O(1) so one
/// ridge penalty suits every coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector {
    values: [f64; FEATURE_DIM],
}

impl FeatureVector {
    /// The feature values, in [`FeatureVector::NAMES`] order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Human-readable feature names, index-aligned with
    /// [`FeatureVector::as_slice`].
    ///
    /// The tail block (`kernel_gemv` onward) describes the *kernel shape*:
    /// which regime the request runs in and its geometry, so a model keyed
    /// to one `(architecture, KernelClass)` still sees within-regime shape
    /// variation (and a deliberately lumped model at least sees the regime
    /// indicator).
    pub const NAMES: [&'static str; FEATURE_DIM] = [
        "bias",
        "hamming_fraction",
        "toggle_density",
        "zero_fraction",
        "dynamic_range",
        "peak_magnitude",
        "dtype_bits",
        "tensor_core",
        "mantissa_bits",
        "kernel_gemv",
        "log2_n",
        "log2_m",
        "log2_k",
        "bytes_per_flop",
        "group_members",
    ];
}

/// Mergeable single-pass accumulator over a stream of operand values.
///
/// All internal state is exact (integer counters, min/max), so
/// [`FeatureAccumulator::merge`] over stream chunks reproduces the
/// sequential pass bit for bit regardless of how the stream was split.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureAccumulator {
    dtype: DType,
    words: u64,
    zero_words: u64,
    hamming_total: u64,
    toggle_total: u64,
    /// First/last encoded word of this chunk, for cross-chunk toggle
    /// accounting on merge.
    first_word: Option<u64>,
    last_word: Option<u64>,
    /// Exact extrema of the quantized absolute values.
    max_abs: f32,
    min_nonzero_abs: f32,
}

impl FeatureAccumulator {
    /// An empty accumulator for operands of `dtype`.
    pub fn new(dtype: DType) -> Self {
        Self {
            dtype,
            words: 0,
            zero_words: 0,
            hamming_total: 0,
            toggle_total: 0,
            first_word: None,
            last_word: None,
            max_abs: 0.0,
            min_nonzero_abs: f32::INFINITY,
        }
    }

    /// The dtype this accumulator encodes with.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Values accumulated so far.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Accumulate one logical value (quantized and encoded per the dtype,
    /// exactly as the datapath would latch it). The per-value reference
    /// for [`FeatureAccumulator::add_words`], which every pass uses.
    pub fn add_value(&mut self, value: f32) {
        let q = Quantizer::new(self.dtype);
        let word = q.encode(value);
        let abs = q.quantize(value).abs();
        if let Some(prev) = self.last_word {
            self.toggle_total += u64::from(hamming_distance(prev, word));
        } else {
            self.first_word = Some(word);
        }
        self.last_word = Some(word);
        self.hamming_total += u64::from(hamming_weight(word));
        if word == 0 {
            self.zero_words += 1;
        }
        if abs > self.max_abs {
            self.max_abs = abs;
        }
        if abs > 0.0 && abs < self.min_nonzero_abs {
            self.min_nonzero_abs = abs;
        }
        self.words += 1;
    }

    /// Accumulate a whole matrix in row-major stream order: encode it a
    /// block at a time on the stack, then [`FeatureAccumulator::add_words`].
    pub fn add_matrix(&mut self, m: &Matrix) {
        let q = Quantizer::new(self.dtype);
        let mut block = [0u32; 1024];
        for values in m.as_slice().chunks(block.len()) {
            let words = &mut block[..values.len()];
            q.encode_slice(values, words);
            self.add_words(words);
        }
    }

    /// Accumulate a stream of this dtype's encoded words (as
    /// [`wm_numerics::Quantizer::encode`] produces them): bit-identical
    /// to [`FeatureAccumulator::add_value`] over the values they encode,
    /// because a word decodes to exactly the quantized value.
    pub fn add_words(&mut self, words: &[u32]) {
        // Float magnitudes are the word without its sign bit (ordered like
        // |value|; above the infinity pattern lie the NaNs, which
        // `add_value` never lets move an extreme); INT8's is |byte|.
        match self.dtype {
            DType::Fp32 => self.accumulate(
                words,
                |w| (w & 0x7FFF_FFFF) as i32,
                0x7F80_0000,
                |m| f32::from_bits(m as u32),
            ),
            DType::Fp16 | DType::Fp16Tensor => self.accumulate(
                words,
                |w| (w & 0x7FFF) as i32,
                0x7C00,
                |m| f16_bits_to_f32(m as u16),
            ),
            DType::Bf16 => self.accumulate(
                words,
                |w| (w & 0x7FFF) as i32,
                0x7F80,
                |m| bf16_bits_to_f32(m as u16),
            ),
            DType::Int8 => self.accumulate(
                words,
                |w| i32::from(w as u8 as i8).abs(),
                i32::MAX,
                |m| m as f32,
            ),
        }
    }

    /// The word loop behind [`FeatureAccumulator::add_words`]: `magnitude`
    /// maps a word to a non-negative key ordered like its value's `abs()`
    /// (keys above `inf` are NaNs) and `decode` maps a key back to that
    /// `abs()`. The extremes are tracked as keys and decoded once per call.
    #[inline(always)]
    fn accumulate(
        &mut self,
        words: &[u32],
        magnitude: impl Fn(u32) -> i32,
        inf: i32,
        decode: impl Fn(i32) -> f32,
    ) {
        let (Some(&first), Some(&last)) = (words.first(), words.last()) else {
            return;
        };
        let prev = match self.last_word {
            Some(prev) => prev as u32,
            None => {
                self.first_word = Some(u64::from(first));
                first
            }
        };
        // Extremes in one sweep free of memory dependencies (signed keys:
        // their lanes vectorize better), then the counters.
        let (mut max_key, mut min_key) = (0, i32::MAX);
        for &w in words {
            let key = magnitude(w);
            let not_nan = key <= inf;
            max_key = max_key.max(if not_nan { key } else { 0 });
            min_key = min_key.min(if not_nan && key != 0 { key } else { i32::MAX });
        }
        self.last_word = Some(u64::from(last));
        self.toggle_total += stream_toggles(words) + u64::from(hamming_distance(prev, first));
        self.hamming_total += slice_hamming_weight(words);
        self.zero_words += words.iter().filter(|&&w| w == 0).count() as u64;
        self.words += words.len() as u64;
        let max_abs = decode(max_key);
        if max_abs > self.max_abs {
            self.max_abs = max_abs;
        }
        if min_key != i32::MAX {
            let min_abs = decode(min_key);
            if min_abs < self.min_nonzero_abs {
                self.min_nonzero_abs = min_abs;
            }
        }
    }

    /// Append `later`'s chunk of the stream after this one. The toggle
    /// across the chunk boundary (this chunk's last word against `later`'s
    /// first) is charged exactly, so chunked accumulation reproduces the
    /// sequential pass bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on a dtype mismatch.
    pub fn merge(&mut self, later: &FeatureAccumulator) {
        assert_eq!(self.dtype, later.dtype, "cannot merge across dtypes");
        if later.words == 0 {
            return;
        }
        if let (Some(prev), Some(next)) = (self.last_word, later.first_word) {
            self.toggle_total += u64::from(hamming_distance(prev, next));
        }
        if self.first_word.is_none() {
            self.first_word = later.first_word;
        }
        self.last_word = later.last_word;
        self.words += later.words;
        self.zero_words += later.zero_words;
        self.hamming_total += later.hamming_total;
        self.toggle_total += later.toggle_total;
        if later.max_abs > self.max_abs {
            self.max_abs = later.max_abs;
        }
        if later.min_nonzero_abs < self.min_nonzero_abs {
            self.min_nonzero_abs = later.min_nonzero_abs;
        }
    }

    /// Finalize into a [`FeatureVector`]; `kernel` and `dims` are the
    /// request's kernel class and problem geometry (the kernel-shape
    /// descriptors: regime indicator, per-axis log sizes, and estimated
    /// bytes-per-FLOP). Equivalent to [`FeatureAccumulator::finish_group`]
    /// over a single member.
    ///
    /// # Panics
    ///
    /// Panics if nothing was accumulated or any dimension is zero.
    pub fn finish(&self, kernel: KernelClass, dims: GemmDims) -> FeatureVector {
        self.finish_group(kernel, &[dims])
    }

    /// Finalize features accumulated over a whole grouped request's
    /// operand stream (every member's A then B, in member order —
    /// chunked/merged accumulation is bit-identical as always).
    ///
    /// The data block is the merged stream statistics; the kernel-shape
    /// block describes the *group's* geometry: power is an intensity, so
    /// the per-axis log sizes are the FLOP-weighted mean member geometry
    /// (the "typical member" — a group of twins features exactly like one
    /// twin), `bytes_per_flop` is the aggregate working set over the
    /// aggregate FLOPs, and the `group_members` descriptor
    /// (`log2(members) / 6`, 0 for a plain request) lets the model price
    /// launch-overhead and duty effects of batching. A 1-member group is
    /// bit-identical to [`FeatureAccumulator::finish`].
    ///
    /// # Panics
    ///
    /// Panics if nothing was accumulated, `members` is empty, or any
    /// member dimension is zero.
    pub fn finish_group(&self, kernel: KernelClass, members: &[GemmDims]) -> FeatureVector {
        assert!(self.words > 0, "cannot extract features from no data");
        assert!(!members.is_empty(), "a group needs at least one member");
        assert!(
            members.iter().all(|d| d.n > 0 && d.m > 0 && d.k > 0),
            "problem dimensions must be positive"
        );
        let bits = f64::from(self.dtype.bits());
        let words = self.words as f64;
        let hamming_fraction = self.hamming_total as f64 / (words * bits);
        let toggle_density = if self.words > 1 {
            self.toggle_total as f64 / ((words - 1.0) * bits)
        } else {
            0.0
        };
        let zero_fraction = self.zero_words as f64 / words;
        let (dynamic_range, peak_magnitude) = if self.max_abs > 0.0 {
            let hi = f64::from(self.max_abs).log2();
            let lo = f64::from(self.min_nonzero_abs).log2();
            ((hi - lo) / RANGE_OCTAVES, (hi + 149.0) / RANGE_OCTAVES)
        } else {
            (0.0, 0.0)
        };
        // Kernel-shape block: arithmetic intensity is the regime's raw
        // currency (GEMM at the paper's sizes reuses tiles — O(dim) FLOPs
        // per byte; GEMV reads every weight once — O(1)), so estimated
        // bytes-per-FLOP is O(1) for memory-bound work and vanishes for
        // compute-bound work. Together with the class indicator and the
        // per-axis log sizes, each keyed model sees its regime's geometry.
        let (log_n, log_m, log_k) = if members.len() == 1 {
            let d = members[0];
            (
                (d.n as f64).log2() / 16.0,
                (d.m as f64).log2() / 16.0,
                (d.k as f64).log2() / 16.0,
            )
        } else {
            let total_flops: f64 = members.iter().map(|d| d.flops() as f64).sum();
            let wmean = |axis: fn(&GemmDims) -> usize| {
                members
                    .iter()
                    .map(|d| (axis(d) as f64).log2() * d.flops() as f64)
                    .sum::<f64>()
                    / total_flops
                    / 16.0
            };
            (wmean(|d| d.n), wmean(|d| d.m), wmean(|d| d.k))
        };
        let working_set: u64 = members
            .iter()
            .map(|d| d.working_set_bytes(self.dtype.bytes()))
            .sum();
        let flops: u64 = members.iter().map(GemmDims::flops).sum();
        let bytes_per_flop = working_set as f64 / flops as f64;
        FeatureVector {
            values: [
                1.0,
                hamming_fraction,
                toggle_density,
                zero_fraction,
                dynamic_range,
                peak_magnitude,
                bits / 32.0,
                if self.dtype.uses_tensor_cores() {
                    1.0
                } else {
                    0.0
                },
                f64::from(self.dtype.mantissa_bits()) / 24.0,
                match kernel {
                    KernelClass::Gemm => 0.0,
                    KernelClass::Gemv => 1.0,
                },
                log_n,
                log_m,
                log_k,
                bytes_per_flop,
                (members.len() as f64).log2() / GROUP_OCTAVES,
            ],
        }
    }
}

/// Extract the feature vector of one kernel's operand pair in a single
/// pass: A streamed row-major, then B (GEMV's B is the `k x 1` input
/// vector).
pub fn extract_features(
    dtype: DType,
    kernel: KernelClass,
    dims: GemmDims,
    a: &Matrix,
    b: &Matrix,
) -> FeatureVector {
    let mut acc = FeatureAccumulator::new(dtype);
    acc.add_matrix(a);
    acc.add_matrix(b);
    acc.finish(kernel, dims)
}

/// Feature vector of a [`RunRequest`]'s first-seed operands.
///
/// Each canonical member's operands ([`wm_core::member_ordinals`]) come
/// from [`wm_core::first_seed_member_operands`] — the single source of
/// the first-seed contract shared with the fleet's activity probe — so
/// features line up with the run the fleet will execute (including the
/// kernel family and its operand shapes), without simulating anything. A
/// grouped request streams **every member's** operand pair, in member
/// order, through one mergeable accumulator — the group is featured (and
/// therefore priced) as a unit, exactly as it executes and caches.
pub fn features_for_request(req: &RunRequest) -> FeatureVector {
    let mut acc = FeatureAccumulator::new(req.dtype);
    for (member, ordinal) in wm_core::member_ordinals(req) {
        let (a, b) = wm_core::first_seed_member_operands(req, member, ordinal);
        acc.add_matrix(&a);
        acc.add_matrix(&b);
    }
    acc.finish_group(req.kernel, &req.member_dims())
}

/// Accumulate one canonical group member's first-seed operand pair (A
/// then B, the member's slice of the request's operand stream) into a
/// standalone accumulator — the member-granular unit of feature work.
/// Because a member's operand streams are fixed by `(dims, ordinal)`
/// alone, the chunk is shareable across requests: a plain request's chunk
/// (`(req.dims(), 0)`) is bit-identical to the same member's chunk inside
/// any group, and merging every member's chunk in canonical member order
/// ([`features_from_member_chunks`]) reproduces [`features_for_request`]
/// exactly — the accumulator's merge contract charges the chunk-boundary
/// toggle.
pub fn member_feature_chunk(
    req: &RunRequest,
    member: GemmDims,
    ordinal: u64,
) -> FeatureAccumulator {
    let (a, b) = wm_core::first_seed_member_operands(req, member, ordinal);
    let mut acc = FeatureAccumulator::new(req.dtype);
    acc.add_matrix(&a);
    acc.add_matrix(&b);
    acc
}

/// Compose a request's feature vector from precomputed per-member chunks
/// (one per canonical member, in [`wm_core::member_ordinals`] order).
/// Bit-identical to [`features_for_request`]: fold order matches the
/// sequential stream order, and the mergeable-accumulator contract makes
/// chunked accumulation exact. This is the hit path of the fleet's
/// member-granular feature cache — only missing chunks cost a walk over
/// operand bytes.
///
/// # Panics
///
/// Panics if `chunks` is empty, its length differs from the request's
/// member count, or a chunk's dtype differs from the request's.
pub fn features_from_member_chunks(
    req: &RunRequest,
    chunks: &[&FeatureAccumulator],
) -> FeatureVector {
    let members = req.member_dims();
    assert_eq!(
        chunks.len(),
        members.len(),
        "one feature chunk per canonical member"
    );
    let mut acc = FeatureAccumulator::new(req.dtype);
    for chunk in chunks {
        acc.merge(chunk);
    }
    acc.finish_group(req.kernel, &members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_bits::Xoshiro256pp;
    use wm_patterns::{PatternKind, PatternSpec};

    fn operands(kind: PatternKind, dtype: DType, dim: usize, seed: u64) -> (Matrix, Matrix) {
        let mut root = Xoshiro256pp::seed_from_u64(seed);
        let spec = PatternSpec::new(kind);
        (
            spec.generate(dtype, dim, dim, &mut root.fork(0)),
            spec.generate(dtype, dim, dim, &mut root.fork(1)),
        )
    }

    /// The index of the feature called `name`.
    fn at(name: &str) -> usize {
        FeatureVector::NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("no feature named {name}"))
    }

    fn features(kind: PatternKind, dtype: DType) -> FeatureVector {
        let (a, b) = operands(kind, dtype, 64, 9);
        extract_features(dtype, KernelClass::Gemm, GemmDims::square(64), &a, &b)
    }

    #[test]
    fn feature_names_align_with_width() {
        assert_eq!(FeatureVector::NAMES.len(), FEATURE_DIM);
        let f = features(PatternKind::Gaussian, DType::Fp16Tensor);
        assert_eq!(f.as_slice().len(), FEATURE_DIM);
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zeros_are_the_degenerate_point() {
        let f = features(PatternKind::Zeros, DType::Fp16Tensor);
        let s = f.as_slice();
        assert_eq!(s[at("hamming_fraction")], 0.0, "hamming weight of all-zero");
        assert_eq!(
            s[at("toggle_density")],
            0.0,
            "no toggles in a constant stream"
        );
        assert_eq!(s[at("zero_fraction")], 1.0, "everything is a zero word");
    }

    #[test]
    fn gaussian_orders_above_structured_inputs() {
        let gauss = features(PatternKind::Gaussian, DType::Fp16Tensor);
        let sparse = features(PatternKind::Sparse { sparsity: 0.8 }, DType::Fp16Tensor);
        let constant = features(PatternKind::ConstantRandom, DType::Fp16Tensor);
        let toggles = at("toggle_density");
        // Toggle density: random > sparse > constant.
        assert!(gauss.as_slice()[toggles] > sparse.as_slice()[toggles]);
        assert!(sparse.as_slice()[toggles] > constant.as_slice()[toggles]);
        // Sparsity feature tracks the requested fraction.
        assert!((sparse.as_slice()[at("zero_fraction")] - 0.8).abs() < 0.05);
    }

    #[test]
    fn an_accumulator_is_counters_and_extremes_only() {
        // Every cached seed-0 unit holds one inline, so a histogram
        // added back to the state would show up in every unit's weight.
        let bytes = std::mem::size_of::<FeatureAccumulator>();
        assert!(bytes <= 128, "FeatureAccumulator is {bytes} bytes");
    }

    #[test]
    fn extraction_is_deterministic() {
        let a = features(PatternKind::Sparse { sparsity: 0.4 }, DType::Int8);
        let b = features(PatternKind::Sparse { sparsity: 0.4 }, DType::Int8);
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_merge_matches_sequential_exactly() {
        let (a, b) = operands(PatternKind::Gaussian, DType::Fp16, 48, 3);
        let stream: Vec<f32> = a.as_slice().iter().chain(b.as_slice()).copied().collect();
        let mut seq = FeatureAccumulator::new(DType::Fp16);
        for &v in &stream {
            seq.add_value(v);
        }
        for chunk_len in [1, 7, 100, stream.len()] {
            let mut merged = FeatureAccumulator::new(DType::Fp16);
            for chunk in stream.chunks(chunk_len) {
                let mut part = FeatureAccumulator::new(DType::Fp16);
                for &v in chunk {
                    part.add_value(v);
                }
                merged.merge(&part);
            }
            assert_eq!(seq, merged, "chunk_len {chunk_len}");
        }
    }

    const EVERY_KIND: [PatternKind; 14] = [
        PatternKind::Gaussian,
        PatternKind::ValueSet { set_size: 16 },
        PatternKind::ConstantRandom,
        PatternKind::BitFlips { probability: 0.3 },
        PatternKind::RandomLsbs { count: 5 },
        PatternKind::RandomMsbs { count: 6 },
        PatternKind::SortedRows { fraction: 0.5 },
        PatternKind::SortedCols { fraction: 1.0 },
        PatternKind::SortedWithinRows { fraction: 0.7 },
        PatternKind::Sparse { sparsity: 0.6 },
        PatternKind::SortedThenSparse { sparsity: 0.3 },
        PatternKind::ZeroLsbs { count: 4 },
        PatternKind::ZeroMsbs { count: 3 },
        PatternKind::Zeros,
    ];

    /// `add_value` over `values`, the reference every word path matches.
    fn by_value(dtype: DType, values: &[f32]) -> FeatureAccumulator {
        let mut acc = FeatureAccumulator::new(dtype);
        for &v in values {
            acc.add_value(v);
        }
        acc
    }

    fn assert_words_match_values(dtype: DType, values: &[f32], what: &str) {
        let reference = by_value(dtype, values);
        let mut words = vec![0u32; values.len()];
        Quantizer::new(dtype).encode_slice(values, &mut words);
        for split in [1, 7, 100, words.len()] {
            let mut streamed = FeatureAccumulator::new(dtype);
            let mut merged = FeatureAccumulator::new(dtype);
            for chunk in words.chunks(split) {
                streamed.add_words(chunk);
                let mut part = FeatureAccumulator::new(dtype);
                part.add_words(chunk);
                merged.merge(&part);
            }
            assert_eq!(streamed, reference, "{what} {dtype}: split {split}");
            assert_eq!(merged, reference, "{what} {dtype}: merged split {split}");
        }
        let mut via_matrix = FeatureAccumulator::new(dtype);
        via_matrix.add_matrix(&Matrix::from_vec(values.len(), 1, values.to_vec()));
        assert_eq!(via_matrix, reference, "{what} {dtype}: add_matrix");
    }

    #[test]
    fn add_words_matches_add_value_for_every_pattern_and_dtype() {
        for kind in EVERY_KIND {
            for dtype in DType::EXTENDED {
                // 40 x 40 operands: add_matrix crosses its encode blocks.
                let (a, b) = operands(kind, dtype, 40, 21);
                let stream: Vec<f32> = a.as_slice().iter().chain(b.as_slice()).copied().collect();
                assert_words_match_values(dtype, &stream, &format!("{kind:?}"));
            }
        }
    }

    #[test]
    fn add_words_matches_add_value_on_raw_values() {
        // Unquantized values, including every special the encoders treat
        // apart: the word path must still reproduce the value path.
        let mut values = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x0001_0000),
            2.0f32.powi(-24),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001),
            0.5,
            -2.5,
            127.5,
            -300.0,
            65_520.0,
            f32::MAX,
        ];
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        values.extend((0..500).map(|_| f32::from_bits(rng.next_u32())));
        for dtype in DType::EXTENDED {
            assert_words_match_values(dtype, &values, "raw");
            assert_words_match_values(dtype, &[0.0, -0.0, 0.0], "zeros");
            assert_words_match_values(dtype, &[f32::NAN, f32::NAN], "nans");
        }
        // An empty word slice changes nothing.
        let mut acc = by_value(DType::Fp16, &[1.0, 2.0]);
        let before = acc.clone();
        acc.add_words(&[]);
        assert_eq!(acc, before);
    }

    #[test]
    fn request_features_cover_every_pattern() {
        use wm_core::RunRequest;
        for kind in [
            PatternKind::Gaussian,
            PatternKind::ValueSet { set_size: 16 },
            PatternKind::SortedRows { fraction: 0.5 },
            PatternKind::ZeroLsbs { count: 8 },
            PatternKind::Zeros,
        ] {
            let req = RunRequest::new(DType::Fp16Tensor, 32, PatternSpec::new(kind));
            let f = features_for_request(&req);
            assert!(
                f.as_slice().iter().all(|v| v.is_finite() && *v >= 0.0),
                "{kind:?}: {f:?}"
            );
        }
    }

    #[test]
    fn kernel_shape_features_separate_the_regimes() {
        use wm_core::RunRequest;
        let gemm = RunRequest::new(
            DType::Fp16Tensor,
            64,
            PatternSpec::new(PatternKind::Gaussian),
        );
        let gemv = gemm.clone().with_kernel(KernelClass::Gemv);
        let fm = features_for_request(&gemm);
        let fv = features_for_request(&gemv);
        let (sm, sv) = (fm.as_slice(), fv.as_slice());
        assert_eq!(sm[at("kernel_gemv")], 0.0, "GEMM indicator");
        assert_eq!(sv[at("kernel_gemv")], 1.0, "GEMV indicator");
        assert_eq!(sm[at("log2_m")], (64f64).log2() / 16.0, "GEMM m = dim");
        assert_eq!(sv[at("log2_m")], 0.0, "GEMV m = 1");
        assert_eq!(sm[at("log2_n")], sv[at("log2_n")], "both share n = dim");
        assert!(
            sv[at("bytes_per_flop")] > 10.0 * sm[at("bytes_per_flop")],
            "GEMV bytes-per-FLOP {} must dwarf GEMM's {}",
            sv[at("bytes_per_flop")],
            sm[at("bytes_per_flop")]
        );
        // GEMV streams A plus a vector — fewer words than GEMM's A + B.
        assert!(fv != fm);
    }

    #[test]
    fn shape_features_vary_per_axis_on_ragged_problems() {
        use wm_core::RunRequest;
        // With ragged requests the three log2 axes finally move
        // independently — the model can learn shape, not just scale.
        let req = RunRequest::new(
            DType::Fp16Tensor,
            32,
            PatternSpec::new(PatternKind::Gaussian),
        )
        .with_shape(GemmDims { n: 32, m: 8, k: 64 });
        let s = features_for_request(&req);
        let s = s.as_slice();
        assert_eq!(s[at("log2_n")], (32f64).log2() / 16.0, "log2 n");
        assert_eq!(s[at("log2_m")], (8f64).log2() / 16.0, "log2 m");
        assert_eq!(s[at("log2_k")], (64f64).log2() / 16.0, "log2 k");
        // Arithmetic intensity follows the shape: a ragged decode GEMV
        // (n x 1 x k, ~one byte-pair per FLOP) carries far more bytes per
        // FLOP than a fat GEMM whose tile reuse amortizes its operands.
        // (A tiny 32 x 8 x 64 GEMM barely amortizes anything — its own
        // bytes/FLOP is only ~6x below the GEMV's — so the contrast is
        // asserted against a reuse-heavy shape.)
        let fat = req.clone().with_shape(GemmDims {
            n: 128,
            m: 64,
            k: 256,
        });
        let f = features_for_request(&fat);
        let decode = req
            .clone()
            .with_kernel(KernelClass::Gemv)
            .with_shape(GemmDims {
                n: 32,
                m: 1,
                k: 256,
            });
        let d = features_for_request(&decode);
        let d = d.as_slice();
        assert_eq!(d[at("log2_m")], 0.0, "GEMV m = 1");
        assert_eq!(
            d[at("log2_k")],
            (256f64).log2() / 16.0,
            "GEMV keeps its own k"
        );
        assert!(
            d[at("bytes_per_flop")] > s[at("bytes_per_flop")],
            "decode bytes/FLOP {} must exceed even the tiny GEMM's {}",
            d[at("bytes_per_flop")],
            s[at("bytes_per_flop")]
        );
        assert!(
            d[at("bytes_per_flop")] > 10.0 * f.as_slice()[at("bytes_per_flop")],
            "decode bytes/FLOP {} must dwarf the fat GEMM's {}",
            d[at("bytes_per_flop")],
            f.as_slice()[at("bytes_per_flop")]
        );
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_accumulator_rejected() {
        FeatureAccumulator::new(DType::Fp32).finish(KernelClass::Gemm, GemmDims::square(64));
    }

    #[test]
    fn group_features_merge_members_and_describe_the_group() {
        use wm_core::RunRequest;
        let template = RunRequest::new(
            DType::Fp16Tensor,
            32,
            PatternSpec::new(PatternKind::Gaussian),
        );
        let twin = GemmDims {
            n: 32,
            m: 16,
            k: 64,
        };
        let plain = template.clone().with_shape(twin);
        let group = template.clone().with_group(vec![twin, twin]);
        let fp = features_for_request(&plain);
        let fg = features_for_request(&group);
        let (sp, sg) = (fp.as_slice(), fg.as_slice());
        // A group of twins has the twin's geometry (FLOP-weighted mean of
        // identical members) and the twin's arithmetic intensity...
        for i in ["log2_n", "log2_m", "log2_k", "bytes_per_flop"].map(at) {
            assert_eq!(sp[i], sg[i], "{} must match", FeatureVector::NAMES[i]);
        }
        // ...but a nonzero group-size descriptor (log2(2)/6), where the
        // plain request sits at exactly 0.
        assert_eq!(sp[at("group_members")], 0.0);
        assert!((sg[at("group_members")] - 1.0 / 6.0).abs() < 1e-12);
        // Ragged members: the geometry block is the FLOP-weighted mean,
        // pulled toward the big member.
        let big = GemmDims {
            n: 128,
            m: 64,
            k: 128,
        };
        let ragged = template.clone().with_group(vec![twin, big]);
        let fr = features_for_request(&ragged);
        let sr = fr.as_slice();
        let f_small = features_for_request(&template.clone().with_shape(twin));
        let f_big = features_for_request(&template.clone().with_shape(big));
        for i in ["log2_n", "log2_m", "log2_k"].map(at) {
            let (lo, hi) = (
                f_small.as_slice()[i].min(f_big.as_slice()[i]),
                f_small.as_slice()[i].max(f_big.as_slice()[i]),
            );
            assert!(
                sr[i] >= lo && sr[i] <= hi,
                "{} = {} outside member band [{lo}, {hi}]",
                FeatureVector::NAMES[i],
                sr[i]
            );
            let mid = (lo + hi) / 2.0;
            assert!(
                sr[i] > mid,
                "{} must lean toward the FLOP-heavy member",
                FeatureVector::NAMES[i]
            );
        }
        // The data block merged both members' streams: 1-member features
        // of either member alone cannot reproduce it.
        assert_ne!(fr, f_small);
        assert_ne!(fr, f_big);
        assert!(sr.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn member_chunks_compose_to_the_request_features_exactly() {
        use wm_core::{member_ordinals, RunRequest};
        // Grouped (with twins, so ordinals matter) and plain requests:
        // chunked member extraction merged in canonical order must be
        // bit-identical to the sequential full-stream pass.
        let twin = GemmDims {
            n: 32,
            m: 16,
            k: 64,
        };
        let reqs = [
            RunRequest::new(
                DType::Fp16Tensor,
                48,
                PatternSpec::new(PatternKind::Gaussian),
            ),
            RunRequest::new(
                DType::Fp16Tensor,
                32,
                PatternSpec::new(PatternKind::Sparse { sparsity: 0.3 }),
            )
            .with_group(vec![twin, GemmDims::square(48), twin]),
        ];
        for req in reqs {
            let chunks: Vec<FeatureAccumulator> = member_ordinals(&req)
                .into_iter()
                .map(|(m, ord)| member_feature_chunk(&req, m, ord))
                .collect();
            let refs: Vec<&FeatureAccumulator> = chunks.iter().collect();
            assert_eq!(
                features_from_member_chunks(&req, &refs),
                features_for_request(&req)
            );
        }
    }

    #[test]
    fn member_chunks_are_shareable_across_request_spellings() {
        use wm_core::RunRequest;
        // The chunk a plain request computes is the chunk a group
        // containing the same member at ordinal 0 needs — the cache-reuse
        // contract at the feature layer.
        let dims = GemmDims {
            n: 48,
            m: 24,
            k: 96,
        };
        let template = RunRequest::new(
            DType::Fp16Tensor,
            48,
            PatternSpec::new(PatternKind::Gaussian),
        );
        let plain = template.clone().with_shape(dims);
        let group = template
            .clone()
            .with_group(vec![dims, GemmDims::square(32)]);
        assert_eq!(
            member_feature_chunk(&plain, dims, 0),
            member_feature_chunk(&group, dims, 0)
        );
        // Twin chunks differ: the ordinal decorrelates their streams.
        assert_ne!(
            member_feature_chunk(&group, dims, 0),
            member_feature_chunk(&group, dims, 1)
        );
    }

    #[test]
    #[should_panic(expected = "one feature chunk per canonical member")]
    fn chunk_count_mismatch_rejected() {
        use wm_core::RunRequest;
        let req = RunRequest::new(DType::Fp32, 32, PatternSpec::new(PatternKind::Gaussian));
        let chunk = member_feature_chunk(&req, req.dims(), 0);
        let _ = features_from_member_chunks(&req, &[&chunk, &chunk]);
    }

    #[test]
    fn single_member_group_features_are_bit_identical_to_plain() {
        use wm_core::RunRequest;
        // Through the public request path the 1-member group *is* the
        // plain request; at the accumulator level, finish_group over one
        // member must equal finish exactly (shared arithmetic, no
        // weighted-mean rounding).
        let (a, b) = operands(PatternKind::Sparse { sparsity: 0.4 }, DType::Fp16, 48, 7);
        let mut acc = FeatureAccumulator::new(DType::Fp16);
        acc.add_matrix(&a);
        acc.add_matrix(&b);
        let dims = GemmDims {
            n: 48,
            m: 24,
            k: 48,
        };
        assert_eq!(
            acc.finish(KernelClass::Gemm, dims),
            acc.finish_group(KernelClass::Gemm, &[dims])
        );
        let req = RunRequest::new(DType::Fp16, 48, PatternSpec::new(PatternKind::Gaussian));
        let grouped = req.clone().with_group(vec![GemmDims::square(48)]);
        assert_eq!(features_for_request(&req), features_for_request(&grouped));
    }
}
