//! GEMV (matrix-vector) simulation — the memory-bound extension workload.
//!
//! The paper's intro motivates its GEMM study with large-model serving;
//! the *decode* phase of LLM inference is dominated by GEMV
//! (`y = alpha * A x + beta * y`), where every weight element is read once
//! per token and there is no tile reuse. Power is therefore dominated by
//! the **memory interfaces**, and input-dependent effects ride on DRAM bus
//! toggles more than on datapath latches. This module reuses the exact
//! same activity accounting as the GEMM engine (so every §IV pattern can
//! be evaluated under GEMV), tagged with
//! [`KernelClass::Gemv`](crate::activity::KernelClass) so `wm-power`
//! applies the memory-bound runtime model.

use crate::activity::{ActivityRecord, KernelClass};
use crate::config::Sampling;
use crate::encoded::EncodedMatrix;
use crate::engine::{sig_width, CrossTerms, KVectors};
use crate::memory::bus_pass;
use wm_gpu::GemmDims;
use wm_matrix::Matrix;
use wm_numerics::{DType, Quantizer};

/// GEMV configuration: `y = alpha * A x + beta * y0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemvConfig {
    /// Datatype setup.
    pub dtype: DType,
    /// GEMV alpha scalar.
    pub alpha: f32,
    /// GEMV beta scalar.
    pub beta: f32,
    /// Number of output rows to walk (lattice-sampled like the GEMM
    /// engine); `usize::MAX` walks all rows.
    pub sample_rows: usize,
}

impl GemvConfig {
    /// Default configuration: alpha 1, beta 0, 64 sampled rows.
    pub fn new(dtype: DType) -> Self {
        Self {
            dtype,
            alpha: 1.0,
            beta: 0.0,
            sample_rows: 64,
        }
    }

    /// Walk every output row (exact).
    pub fn with_full_sampling(mut self) -> Self {
        self.sample_rows = usize::MAX;
        self
    }
}

/// The result of a simulated GEMV.
#[derive(Debug, Clone)]
pub struct GemvOutcome {
    /// Switching-activity summary (kernel class [`KernelClass::Gemv`]).
    pub activity: ActivityRecord,
    /// Sampled `(row, value)` outputs.
    pub outputs: Vec<(usize, f32)>,
}

/// Simulate `y = alpha * A x + beta * y0`: encode `A` and `x`, then
/// [`simulate_gemv_encoded`].
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or a provided `y0` has the wrong length.
pub fn simulate_gemv(
    a: &Matrix,
    x: &[f32],
    y0: Option<&[f32]>,
    config: &GemvConfig,
) -> GemvOutcome {
    assert_eq!(x.len(), a.cols(), "x must have K entries");
    let ea = EncodedMatrix::encode(a, config.dtype);
    let ex = EncodedMatrix::encode(&Matrix::from_vec(x.len(), 1, x.to_vec()), config.dtype);
    simulate_gemv_encoded(a, &ea, x, &ex, y0, config)
}

/// Simulate `y = alpha * A x + beta * y0` over operands already encoded in
/// `config.dtype`: `ea` encodes `a` and `ex` the `k x 1` vector `x`. The
/// numeric path multiplies by `x` quantized to the dtype; its words are
/// the raw vector's, since quantizing never changes a value's encoding.
///
/// # Panics
///
/// Panics if `x.len() != a.cols()`, a provided `y0` has the wrong length,
/// or an encoding's shape or dtype differs from its operand's.
pub fn simulate_gemv_encoded(
    a: &Matrix,
    ea: &EncodedMatrix,
    x: &[f32],
    ex: &EncodedMatrix,
    y0: Option<&[f32]>,
    config: &GemvConfig,
) -> GemvOutcome {
    assert_eq!(x.len(), a.cols(), "x must have K entries");
    if let Some(y0) = y0 {
        assert_eq!(y0.len(), a.rows(), "y0 must have N entries");
    }
    let dtype = config.dtype;
    assert_eq!(
        [
            (ea.rows(), ea.cols(), ea.dtype()),
            (ex.rows(), ex.cols(), ex.dtype())
        ],
        [(a.rows(), a.cols(), dtype), (x.len(), 1, dtype)],
        "an encoding must match its operand's shape and the dtype"
    );
    let q = Quantizer::new(dtype);
    let x_values: Vec<f32> = x.iter().map(|&v| q.quantize(v)).collect();
    let word_bits = f64::from(dtype.bits());
    let sig_norm = sig_width(dtype);

    let rows = if config.sample_rows == usize::MAX {
        (0..a.rows()).collect::<Vec<_>>()
    } else {
        Sampling::lattice_indices(a.rows(), config.sample_rows)
    };

    // x's latch toggles, weight and significand weights are counted once,
    // then charged once per sampled row.
    let a_rows = KVectors::rows(a.as_slice(), ea, &rows);
    let x_vector = KVectors::cols(&x_values, ex, &[0]);
    let mut outputs = Vec::with_capacity(rows.len());
    let mut cross = CrossTerms::default();
    let mut images = vec![0u32; a.cols()];
    for (r, &i) in rows.iter().enumerate() {
        let acc = cross.reduce(q, a_rows.get(r), x_vector.get(0), sig_norm, &mut images);
        let y_prev = y0.map_or(0.0, |y| y[i]);
        outputs.push((
            i,
            q.quantize(config.alpha * acc.value() + config.beta * y_prev),
        ));
    }
    let sampled_rows = rows.len() as u64;
    let sampled_macs = sampled_rows * a.cols() as u64;

    let macs = sampled_macs.max(1) as f64;
    // Memory side: A streams once (no reuse — the defining GEMV property);
    // x is negligible but included for completeness.
    let bus_a = bus_pass(ea);
    let bus_x = bus_pass(ex);
    let activity = ActivityRecord {
        kernel: KernelClass::Gemv,
        dtype,
        dims: GemmDims {
            n: a.rows(),
            m: 1,
            k: a.cols(),
        },
        b_transposed: false,
        total_macs: (a.rows() * a.cols()) as u64,
        sampled_macs,
        sampled_outputs: outputs.len() as u64,
        operand_a_toggles_per_mac: a_rows.toggles as f64 / macs,
        operand_b_toggles_per_mac: (x_vector.toggles * sampled_rows) as f64 / macs,
        mult_activity_per_mac: cross.mult_activity / macs,
        accum_toggles_per_mac: cross.accum_toggles as f64 / macs,
        nonzero_mac_fraction: cross.nonzero_macs as f64 / macs,
        mean_bit_alignment: 1.0 - (cross.align_distance as f64 / macs) / word_bits,
        mean_hamming_weight_a: a_rows.weight as f64 / macs,
        mean_hamming_weight_b: (x_vector.weight * sampled_rows) as f64 / macs,
        dram_toggles: bus_a.toggles + bus_x.toggles,
        dram_words: bus_a.words + bus_x.words,
        dram_weight: bus_a.weight + bus_x.weight,
        l2_passes: 1.0, // no tile reuse in GEMV
    };
    GemvOutcome { activity, outputs }
}

/// Naive reference GEMV with the same dtype semantics.
pub fn reference_gemv(a: &Matrix, x: &[f32], y0: Option<&[f32]>, config: &GemvConfig) -> Vec<f32> {
    let q = Quantizer::new(config.dtype);
    (0..a.rows())
        .map(|i| {
            let mut acc = q.new_accumulator();
            for (k, &xv) in x.iter().enumerate().take(a.cols()) {
                acc.add_product(q.product(a.get(i, k), q.quantize(xv)));
            }
            let y_prev = y0.map_or(0.0, |y| y[i]);
            q.quantize(config.alpha * acc.value() + config.beta * y_prev)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{mac_loop_patterns, NanEvents};
    use wm_bits::Xoshiro256pp;
    use wm_numerics::Gaussian;
    use wm_patterns::{PatternKind, PatternSpec};

    /// The GEMV loop as first written: one (i, k) walk that counts every
    /// statistic per MAC, x's toggles and weight once per row.
    fn reference_simulate_gemv(
        a: &Matrix,
        ea: &EncodedMatrix,
        x: &[f32],
        ex: &EncodedMatrix,
        y0: Option<&[f32]>,
        config: &GemvConfig,
        nan: &mut NanEvents,
    ) -> GemvOutcome {
        let dtype = config.dtype;
        let q = Quantizer::new(dtype);
        let x_values: Vec<f32> = x.iter().map(|&v| q.quantize(v)).collect();
        let word_bits = f64::from(dtype.bits());
        let sig_norm = sig_width(dtype);
        let rows = if config.sample_rows == usize::MAX {
            (0..a.rows()).collect::<Vec<_>>()
        } else {
            Sampling::lattice_indices(a.rows(), config.sample_rows)
        };
        let mut outputs = Vec::new();
        let (mut op_a, mut op_x, mut acc_tog) = (0u64, 0u64, 0u64);
        let mut mult_activity = 0.0f64;
        let (mut nonzero, mut align_distance, mut hw_a, mut hw_x) = (0u64, 0u64, 0u64, 0u64);
        let mut sampled_macs = 0u64;
        for &i in &rows {
            let mut acc = q.new_accumulator();
            let mut prev_acc = acc.bits() as u32;
            let (mut prev_a, mut prev_x) = (None::<u32>, None::<u32>);
            for (k, &a_val) in a.row(i).iter().enumerate() {
                let a_bits = ea.bits_at(i, k);
                let x_bits = ex.bits_at(k, 0);
                if let Some(p) = prev_a {
                    op_a += u64::from((p ^ a_bits).count_ones());
                }
                if let Some(p) = prev_x {
                    op_x += u64::from((p ^ x_bits).count_ones());
                }
                prev_a = Some(a_bits);
                prev_x = Some(x_bits);
                align_distance += u64::from((a_bits ^ x_bits).count_ones());
                hw_a += u64::from(a_bits.count_ones());
                hw_x += u64::from(x_bits.count_ones());
                let x_val = x_values[k];
                if a_val != 0.0 && x_val != 0.0 {
                    nonzero += 1;
                    mult_activity += f64::from(ea.sig_weight(a_bits))
                        * f64::from(ex.sig_weight(x_bits))
                        / sig_norm;
                }
                let product = q.product(a_val, x_val);
                nan.count(a_val, x_val, product, acc.value());
                acc.add_product(product);
                let bits = acc.bits() as u32;
                acc_tog += u64::from((prev_acc ^ bits).count_ones());
                prev_acc = bits;
            }
            sampled_macs += a.cols() as u64;
            let y_prev = y0.map_or(0.0, |y| y[i]);
            outputs.push((
                i,
                q.quantize(config.alpha * acc.value() + config.beta * y_prev),
            ));
        }
        let macs = sampled_macs.max(1) as f64;
        let (bus_a, bus_x) = (bus_pass(ea), bus_pass(ex));
        let activity = ActivityRecord {
            kernel: KernelClass::Gemv,
            dtype,
            dims: GemmDims {
                n: a.rows(),
                m: 1,
                k: a.cols(),
            },
            b_transposed: false,
            total_macs: (a.rows() * a.cols()) as u64,
            sampled_macs,
            sampled_outputs: outputs.len() as u64,
            operand_a_toggles_per_mac: op_a as f64 / macs,
            operand_b_toggles_per_mac: op_x as f64 / macs,
            mult_activity_per_mac: mult_activity / macs,
            accum_toggles_per_mac: acc_tog as f64 / macs,
            nonzero_mac_fraction: nonzero as f64 / macs,
            mean_bit_alignment: 1.0 - (align_distance as f64 / macs) / word_bits,
            mean_hamming_weight_a: hw_a as f64 / macs,
            mean_hamming_weight_b: hw_x as f64 / macs,
            dram_toggles: bus_a.toggles + bus_x.toggles,
            dram_words: bus_a.words + bus_x.words,
            dram_weight: bus_a.weight + bus_x.weight,
            l2_passes: 1.0,
        };
        GemvOutcome { activity, outputs }
    }

    #[test]
    fn hoisted_x_statistics_match_the_per_mac_walk_bit_for_bit() {
        let (n, k) = (56, 96);
        let mut nan = NanEvents::default();
        for dtype in DType::EXTENDED {
            for (p, spec) in mac_loop_patterns(dtype).into_iter().enumerate() {
                let mut rng = Xoshiro256pp::seed_from_u64(200 + p as u64);
                let a = spec.generate(dtype, n, k, &mut rng.fork(0));
                let x = spec
                    .generate(dtype, k, 1, &mut rng.fork(1))
                    .as_slice()
                    .to_vec();
                let ea = EncodedMatrix::encode(&a, dtype);
                let ex = EncodedMatrix::encode(&Matrix::from_vec(k, 1, x.clone()), dtype);
                let y0: Vec<f32> = (0..n).map(|i| i as f32 - 20.0).collect();
                for sample_rows in [usize::MAX, 7] {
                    let config = GemvConfig {
                        sample_rows,
                        beta: 0.5,
                        ..GemvConfig::new(dtype)
                    };
                    let got = simulate_gemv_encoded(&a, &ea, &x, &ex, Some(&y0), &config);
                    let want =
                        reference_simulate_gemv(&a, &ea, &x, &ex, Some(&y0), &config, &mut nan);
                    let what = format!("{dtype} {} rows={sample_rows}", spec.label());
                    assert_eq!(
                        got.activity.field_bits(),
                        want.activity.field_bits(),
                        "{what}"
                    );
                    let bits = |o: &GemvOutcome| -> Vec<(usize, u32)> {
                        o.outputs.iter().map(|&(i, y)| (i, y.to_bits())).collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
            }
        }
        assert!(nan.products > 0, "no NaN x NaN product: {nan:?}");
        assert!(
            nan.sums > 0,
            "no NaN product added to a NaN accumulator: {nan:?}"
        );
    }

    fn inputs(dim: usize, dtype: DType, seed: u64) -> (Matrix, Vec<f32>) {
        let mut root = Xoshiro256pp::seed_from_u64(seed);
        let a =
            PatternSpec::new(PatternKind::Gaussian).generate(dtype, dim, dim, &mut root.fork(0));
        let mut g = Gaussian::new(0.0, dtype.paper_sigma());
        let mut rng = root.fork(1);
        let x: Vec<f32> = (0..dim).map(|_| g.sample_f32(&mut rng)).collect();
        (a, x)
    }

    #[test]
    fn matches_reference_for_all_dtypes() {
        for dtype in DType::ALL {
            let (a, x) = inputs(24, dtype, 1);
            let cfg = GemvConfig::new(dtype).with_full_sampling();
            let outcome = simulate_gemv(&a, &x, None, &cfg);
            let reference = reference_gemv(&a, &x, None, &cfg);
            for &(row, value) in &outcome.outputs {
                assert_eq!(value.to_bits(), reference[row].to_bits(), "{dtype}");
            }
        }
    }

    #[test]
    fn beta_mixes_previous_y() {
        let dtype = DType::Fp32;
        let (a, x) = inputs(8, dtype, 2);
        let y0 = vec![10.0f32; 8];
        let cfg = GemvConfig {
            alpha: 0.5,
            beta: 2.0,
            ..GemvConfig::new(dtype).with_full_sampling()
        };
        let outcome = simulate_gemv(&a, &x, Some(&y0), &cfg);
        let reference = reference_gemv(&a, &x, Some(&y0), &cfg);
        for &(row, value) in &outcome.outputs {
            assert_eq!(value.to_bits(), reference[row].to_bits());
        }
    }

    #[test]
    fn activity_is_tagged_gemv_with_single_pass_memory() {
        let dtype = DType::Fp16Tensor;
        let (a, x) = inputs(64, dtype, 3);
        let act = simulate_gemv(&a, &x, None, &GemvConfig::new(dtype)).activity;
        assert_eq!(act.kernel, KernelClass::Gemv);
        assert_eq!(act.l2_passes, 1.0);
        assert_eq!(act.dims.m, 1);
        assert_eq!(act.total_macs, 64 * 64);
        assert_eq!(act.dram_words, (64 * 64 + 64) as u64);
    }

    #[test]
    fn zero_matrix_is_quiet() {
        let dtype = DType::Int8;
        let a = Matrix::zeros(32, 32);
        let x = vec![0.0f32; 32];
        let act = simulate_gemv(&a, &x, None, &GemvConfig::new(dtype)).activity;
        assert_eq!(act.dram_toggles, 0);
        assert_eq!(act.mult_activity_per_mac, 0.0);
        assert_eq!(act.nonzero_mac_fraction, 0.0);
    }

    #[test]
    fn sampling_estimator_tracks_full_walk() {
        let dtype = DType::Fp16;
        let (a, x) = inputs(96, dtype, 4);
        let full =
            simulate_gemv(&a, &x, None, &GemvConfig::new(dtype).with_full_sampling()).activity;
        let sampled = simulate_gemv(
            &a,
            &x,
            None,
            &GemvConfig {
                sample_rows: 24,
                ..GemvConfig::new(dtype)
            },
        )
        .activity;
        let rel = (sampled.operand_a_toggles_per_mac - full.operand_a_toggles_per_mac).abs()
            / full.operand_a_toggles_per_mac;
        assert!(rel < 0.05, "estimator off by {rel}");
        // Memory pass is exact in both.
        assert_eq!(sampled.dram_toggles, full.dram_toggles);
    }

    #[test]
    fn raw_and_quantized_x_share_one_encoding() {
        // `inputs` draws x unquantized: encoding it raw (what a unit walk
        // shares) or after the kernel's quantize gives the same outcome.
        for dtype in DType::EXTENDED {
            let (a, x) = inputs(40, dtype, 5);
            let q = Quantizer::new(dtype);
            let xq: Vec<f32> = x.iter().map(|&v| q.quantize(v)).collect();
            let ea = EncodedMatrix::encode(&a, dtype);
            let cfg = GemvConfig::new(dtype);
            let raw = EncodedMatrix::encode(&Matrix::from_vec(40, 1, x.clone()), dtype);
            let quantized = EncodedMatrix::encode(&Matrix::from_vec(40, 1, xq), dtype);
            assert_eq!(raw.words(), quantized.words(), "{dtype}");
            let shared = simulate_gemv_encoded(&a, &ea, &x, &raw, None, &cfg);
            let plain = simulate_gemv(&a, &x, None, &cfg);
            assert_eq!(shared.activity, plain.activity, "{dtype}");
            let bits = |o: &GemvOutcome| -> Vec<(usize, u32)> {
                o.outputs.iter().map(|&(i, y)| (i, y.to_bits())).collect()
            };
            assert_eq!(bits(&shared), bits(&plain), "{dtype}");
        }
    }

    #[test]
    #[should_panic(expected = "x must have K entries")]
    fn shape_checked() {
        let a = Matrix::zeros(4, 4);
        simulate_gemv(&a, &[0.0; 3], None, &GemvConfig::new(DType::Fp32));
    }
}
