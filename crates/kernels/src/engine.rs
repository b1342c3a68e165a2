//! The sampled GEMM execution engine.
//!
//! For each sampled output element `(i, j)` the engine walks the complete
//! K-reduction in kernel order, simultaneously:
//!
//! * computing the dtype-faithful numeric result (verified against
//!   [`crate::reference::reference_gemm`] in tests), and
//! * counting operand-latch toggles, gated multiplier activity,
//!   accumulator toggles, and the Fig. 8 alignment / Hamming statistics.
//!
//! Latches are flushed between output elements (each lane context is
//! independent), so cross-element transitions are never charged.

use crate::activity::ActivityRecord;
use crate::config::{GemmConfig, Sampling};
use crate::encoded::EncodedMatrix;
use crate::memory::{l2_replication, operand_bus_pass};
use wm_matrix::Matrix;
use wm_numerics::Quantizer;

/// Borrowed inputs of one GEMM: `D = alpha * A x B + beta * C`.
#[derive(Debug, Clone, Copy)]
pub struct GemmInputs<'a> {
    /// The A operand, `N x K`.
    pub a: &'a Matrix,
    /// The *stored* B pattern: `M x K` when the configuration transposes B
    /// (the paper's default), `K x M` otherwise.
    pub b_stored: &'a Matrix,
    /// Optional C matrix (`N x M`); `None` means zeros (the paper zeroes C).
    pub c: Option<&'a Matrix>,
}

/// One computed output element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledOutput {
    /// Output row.
    pub row: usize,
    /// Output column.
    pub col: usize,
    /// The value of `D[row, col]` in the output dtype.
    pub value: f32,
}

/// The result of a simulated GEMM.
#[derive(Debug, Clone)]
pub struct GemmOutcome {
    /// Switching-activity summary (consumed by `wm-power`).
    pub activity: ActivityRecord,
    /// The sampled output elements, in row-major sample order.
    pub outputs: Vec<SampledOutput>,
}

/// Width of the multiplier significand datapath per dtype, used to
/// normalize partial-product activity.
fn sig_width(dtype: wm_numerics::DType) -> f64 {
    f64::from(dtype.mantissa_bits() + if dtype.is_float() { 1 } else { dtype.bits() })
}

/// Run one GEMM, returning numeric outputs and the activity record:
/// encode both operands, then [`simulate_encoded`].
///
/// # Panics
///
/// Panics if operand shapes are inconsistent with the configuration.
pub fn simulate(inputs: &GemmInputs<'_>, config: &GemmConfig) -> GemmOutcome {
    let ea = EncodedMatrix::encode(inputs.a, config.dtype);
    let eb = EncodedMatrix::encode(inputs.b_stored, config.dtype);
    simulate_encoded(inputs, &ea, &eb, config)
}

/// Run one GEMM over operands already encoded in `config.dtype`: `ea` and
/// `eb` are [`EncodedMatrix::encode`] of `inputs.a` and
/// `inputs.b_stored`. The MAC loop multiplies the values and charges
/// toggles and multiplier activity on the words; the bus pass streams the
/// words.
///
/// # Panics
///
/// Panics if operand shapes are inconsistent with the configuration, or
/// an encoding's shape or dtype differs from its operand's.
pub fn simulate_encoded(
    inputs: &GemmInputs<'_>,
    ea: &EncodedMatrix,
    eb: &EncodedMatrix,
    config: &GemmConfig,
) -> GemmOutcome {
    let dims = config.dims;
    assert_eq!(
        (inputs.a.rows(), inputs.a.cols()),
        (dims.n, dims.k),
        "A must be N x K"
    );
    assert_eq!(
        (inputs.b_stored.rows(), inputs.b_stored.cols()),
        config.b_stored_shape(),
        "stored B shape does not match the transposition flag"
    );
    if let Some(c) = inputs.c {
        assert_eq!((c.rows(), c.cols()), (dims.n, dims.m), "C must be N x M");
    }
    for (m, e) in [(inputs.a, ea), (inputs.b_stored, eb)] {
        assert_eq!(
            (e.rows(), e.cols(), e.dtype()),
            (m.rows(), m.cols(), config.dtype),
            "an encoding must match its operand's shape and the dtype"
        );
    }

    let q = Quantizer::new(config.dtype);
    let word_bits = f64::from(config.dtype.bits());
    let sig_norm = sig_width(config.dtype);

    let (row_idx, col_idx) = match config.sampling {
        Sampling::Full => (
            (0..dims.n).collect::<Vec<_>>(),
            (0..dims.m).collect::<Vec<_>>(),
        ),
        Sampling::Lattice { rows, cols } => (
            Sampling::lattice_indices(dims.n, rows),
            Sampling::lattice_indices(dims.m, cols),
        ),
    };

    let mut outputs = Vec::with_capacity(row_idx.len() * col_idx.len());
    let mut op_a_toggles = 0u64;
    let mut op_b_toggles = 0u64;
    let mut acc_toggles = 0u64;
    let mut mult_activity = 0.0f64;
    let mut nonzero_macs = 0u64;
    let mut align_distance = 0u64;
    let mut hw_a = 0u64;
    let mut hw_b = 0u64;
    let mut sampled_macs = 0u64;

    for &i in &row_idx {
        let a_row = inputs.a.row(i);
        for &j in &col_idx {
            let mut acc = q.new_accumulator();
            let mut prev_acc_bits = acc.bits() as u32;
            let mut prev_a: Option<u32> = None;
            let mut prev_b: Option<u32> = None;
            // When B is transposed, row j of the stored pattern streams
            // contiguously along K — fetch it once.
            let b_row = if config.b_transposed {
                Some(inputs.b_stored.row(j))
            } else {
                None
            };
            for k in 0..dims.k {
                let a_bits = ea.bits_at(i, k);
                let (b_bits, b_val, b_sig) = if let Some(br) = b_row {
                    (eb.bits_at(j, k), br[k], eb.sig_weight_at(j, k))
                } else {
                    (
                        eb.bits_at(k, j),
                        inputs.b_stored.get(k, j),
                        eb.sig_weight_at(k, j),
                    )
                };
                let a_val = a_row[k];

                if let Some(p) = prev_a {
                    op_a_toggles += u64::from((p ^ a_bits).count_ones());
                }
                if let Some(p) = prev_b {
                    op_b_toggles += u64::from((p ^ b_bits).count_ones());
                }
                prev_a = Some(a_bits);
                prev_b = Some(b_bits);

                align_distance += u64::from((a_bits ^ b_bits).count_ones());
                hw_a += u64::from(a_bits.count_ones());
                hw_b += u64::from(b_bits.count_ones());

                if a_val != 0.0 && b_val != 0.0 {
                    nonzero_macs += 1;
                    mult_activity +=
                        f64::from(ea.sig_weight_at(i, k)) * f64::from(b_sig) / sig_norm;
                }

                // Numeric path: hardware does not skip zero products, and
                // adding a (+/-)0 product leaves the accumulator bits
                // unchanged, so gating falls out of the toggle count.
                acc.add_product(q.product(a_val, b_val));
                let acc_bits = acc.bits() as u32;
                acc_toggles += u64::from((prev_acc_bits ^ acc_bits).count_ones());
                prev_acc_bits = acc_bits;
            }
            sampled_macs += dims.k as u64;

            let c_val = inputs.c.map_or(0.0, |c| c.get(i, j));
            let d = q.quantize(config.alpha * acc.value() + config.beta * c_val);
            outputs.push(SampledOutput {
                row: i,
                col: j,
                value: d,
            });
        }
    }

    let macs = sampled_macs.max(1) as f64;
    let bus = operand_bus_pass(ea, eb);
    let activity = ActivityRecord {
        kernel: crate::activity::KernelClass::Gemm,
        dtype: config.dtype,
        dims,
        b_transposed: config.b_transposed,
        total_macs: dims.macs(),
        sampled_macs,
        sampled_outputs: outputs.len() as u64,
        operand_a_toggles_per_mac: op_a_toggles as f64 / macs,
        operand_b_toggles_per_mac: op_b_toggles as f64 / macs,
        mult_activity_per_mac: mult_activity / macs,
        accum_toggles_per_mac: acc_toggles as f64 / macs,
        nonzero_mac_fraction: nonzero_macs as f64 / macs,
        mean_bit_alignment: 1.0 - (align_distance as f64 / macs) / word_bits,
        mean_hamming_weight_a: hw_a as f64 / macs,
        mean_hamming_weight_b: hw_b as f64 / macs,
        dram_toggles: bus.toggles,
        dram_words: bus.words,
        dram_weight: bus.weight,
        l2_passes: l2_replication(dims, config.tile),
    };

    GemmOutcome { activity, outputs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Sampling;
    use crate::reference::reference_gemm;
    use wm_bits::Xoshiro256pp;
    use wm_gpu::GemmDims;
    use wm_numerics::DType;
    use wm_patterns::{PatternKind, PatternSpec};

    fn gaussian_matrix(rows: usize, cols: usize, dtype: DType, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        PatternSpec::new(PatternKind::Gaussian).generate(dtype, rows, cols, &mut rng)
    }

    fn full_config(dim: usize, dtype: DType) -> GemmConfig {
        GemmConfig::square(dim, dtype).with_sampling(Sampling::Full)
    }

    #[test]
    fn matches_reference_gemm_for_all_dtypes() {
        for dtype in DType::ALL {
            let a = gaussian_matrix(24, 24, dtype, 1);
            let b = gaussian_matrix(24, 24, dtype, 2);
            let cfg = full_config(24, dtype);
            let outcome = simulate(
                &GemmInputs {
                    a: &a,
                    b_stored: &b,
                    c: None,
                },
                &cfg,
            );
            let reference = reference_gemm(&a, &b, None, &cfg);
            for o in &outcome.outputs {
                assert_eq!(
                    o.value.to_bits(),
                    reference.get(o.row, o.col).to_bits(),
                    "{dtype} mismatch at ({}, {})",
                    o.row,
                    o.col
                );
            }
        }
    }

    #[test]
    fn respects_alpha_beta_and_c() {
        let dtype = DType::Fp32;
        let a = gaussian_matrix(8, 8, dtype, 3);
        let b = gaussian_matrix(8, 8, dtype, 4);
        let c = gaussian_matrix(8, 8, dtype, 5);
        let cfg = full_config(8, dtype).with_scalars(0.5, 2.0);
        let outcome = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: Some(&c),
            },
            &cfg,
        );
        let reference = reference_gemm(&a, &b, Some(&c), &cfg);
        for o in &outcome.outputs {
            assert_eq!(o.value.to_bits(), reference.get(o.row, o.col).to_bits());
        }
    }

    #[test]
    fn b_transposition_changes_the_math() {
        let dtype = DType::Fp32;
        let a = gaussian_matrix(8, 8, dtype, 6);
        let b = gaussian_matrix(8, 8, dtype, 7);
        let with_t = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &full_config(8, dtype),
        );
        let without_t = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &full_config(8, dtype).with_b_transposed(false),
        );
        let same = with_t
            .outputs
            .iter()
            .zip(&without_t.outputs)
            .filter(|(x, y)| x.value == y.value)
            .count();
        assert!(same < with_t.outputs.len(), "transposition must matter");
    }

    #[test]
    fn zero_matrices_produce_zero_activity() {
        let dtype = DType::Fp16;
        let z = Matrix::zeros(16, 16);
        let outcome = simulate(
            &GemmInputs {
                a: &z,
                b_stored: &z,
                c: None,
            },
            &full_config(16, dtype),
        );
        let act = &outcome.activity;
        assert_eq!(act.operand_a_toggles_per_mac, 0.0);
        assert_eq!(act.operand_b_toggles_per_mac, 0.0);
        assert_eq!(act.mult_activity_per_mac, 0.0);
        assert_eq!(act.accum_toggles_per_mac, 0.0);
        assert_eq!(act.nonzero_mac_fraction, 0.0);
        assert_eq!(act.dram_toggles, 0);
        assert_eq!(act.mean_bit_alignment, 1.0);
        assert!(outcome.outputs.iter().all(|o| o.value == 0.0));
    }

    #[test]
    fn constant_matrices_have_quiet_operands_but_active_multiplier() {
        let dtype = DType::Fp16;
        let a = Matrix::filled(16, 16, 3.0);
        let b = Matrix::filled(16, 16, 5.0);
        let outcome = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &full_config(16, dtype),
        );
        let act = &outcome.activity;
        assert_eq!(act.operand_a_toggles_per_mac, 0.0);
        assert_eq!(act.operand_b_toggles_per_mac, 0.0);
        assert!(act.mult_activity_per_mac > 0.0);
        assert_eq!(act.nonzero_mac_fraction, 1.0);
        // Accumulator still counts: partial sums grow.
        assert!(act.accum_toggles_per_mac > 0.0);
        // D = 16 * 15 = 240 exactly representable in f16.
        assert!(outcome.outputs.iter().all(|o| o.value == 240.0));
    }

    #[test]
    fn lattice_estimator_tracks_full_walk() {
        let dtype = DType::Fp16;
        let a = gaussian_matrix(64, 64, dtype, 8);
        let b = gaussian_matrix(64, 64, dtype, 9);
        let inputs = GemmInputs {
            a: &a,
            b_stored: &b,
            c: None,
        };
        let full = simulate(&inputs, &full_config(64, dtype)).activity;
        let sampled = simulate(
            &inputs,
            &GemmConfig::square(64, dtype).with_sampling(Sampling::Lattice { rows: 16, cols: 16 }),
        )
        .activity;
        let rel = |x: f64, y: f64| (x - y).abs() / y.abs().max(1e-12);
        assert!(
            rel(
                sampled.operand_a_toggles_per_mac,
                full.operand_a_toggles_per_mac
            ) < 0.03,
            "operand A estimator off: {} vs {}",
            sampled.operand_a_toggles_per_mac,
            full.operand_a_toggles_per_mac
        );
        assert!(rel(sampled.mult_activity_per_mac, full.mult_activity_per_mac) < 0.03);
        assert!(rel(sampled.accum_toggles_per_mac, full.accum_toggles_per_mac) < 0.05);
        assert!(rel(sampled.mean_bit_alignment, full.mean_bit_alignment) < 0.02);
        // The memory pass is exact either way.
        assert_eq!(sampled.dram_toggles, full.dram_toggles);
    }

    #[test]
    fn sparsity_gates_the_multiplier() {
        let dtype = DType::Fp32;
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let spec = PatternSpec::new(PatternKind::Sparse { sparsity: 0.5 });
        let a = spec.generate(dtype, 32, 32, &mut rng);
        let b = spec.generate(dtype, 32, 32, &mut rng);
        let outcome = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &full_config(32, dtype),
        );
        let f = outcome.activity.nonzero_mac_fraction;
        // Both operands nonzero with probability ~(1 - 0.5)^2 = 0.25.
        assert!((f - 0.25).abs() < 0.02, "nonzero fraction {f}");
    }

    #[test]
    fn sorted_inputs_reduce_operand_toggles() {
        let dtype = DType::Fp16;
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let random = PatternSpec::new(PatternKind::Gaussian).generate(dtype, 64, 64, &mut rng);
        let mut rng2 = Xoshiro256pp::seed_from_u64(11);
        let sorted = PatternSpec::new(PatternKind::SortedRows { fraction: 1.0 })
            .generate(dtype, 64, 64, &mut rng2);
        let cfg = full_config(64, dtype);
        let t_random = simulate(
            &GemmInputs {
                a: &random,
                b_stored: &random,
                c: None,
            },
            &cfg,
        )
        .activity
        .operand_a_toggles_per_mac;
        let t_sorted = simulate(
            &GemmInputs {
                a: &sorted,
                b_stored: &sorted,
                c: None,
            },
            &cfg,
        )
        .activity
        .operand_a_toggles_per_mac;
        assert!(
            t_sorted < t_random * 0.5,
            "sorted {t_sorted} vs random {t_random}"
        );
    }

    #[test]
    fn alignment_statistic_for_identical_operands_is_one() {
        let dtype = DType::Int8;
        let a = Matrix::filled(8, 8, 7.0);
        let outcome = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &a,
                c: None,
            },
            &full_config(8, dtype),
        );
        assert_eq!(outcome.activity.mean_bit_alignment, 1.0);
        assert_eq!(outcome.activity.mean_hamming_weight_a, 3.0); // 7 = 0b111
    }

    #[test]
    fn encoded_entry_point_is_simulate() {
        let dtype = DType::Fp16Tensor;
        let a = gaussian_matrix(24, 40, dtype, 14);
        let b = gaussian_matrix(16, 40, dtype, 15);
        let inputs = GemmInputs {
            a: &a,
            b_stored: &b,
            c: None,
        };
        let cfg = GemmConfig {
            dims: GemmDims {
                n: 24,
                m: 16,
                k: 40,
            },
            ..GemmConfig::square(24, dtype)
        }
        .with_sampling(Sampling::Lattice { rows: 4, cols: 4 });
        let ea = EncodedMatrix::encode(&a, dtype);
        let eb = EncodedMatrix::encode(&b, dtype);
        let encoded = simulate_encoded(&inputs, &ea, &eb, &cfg);
        let plain = simulate(&inputs, &cfg);
        assert_eq!(encoded.activity, plain.activity);
        assert_eq!(encoded.outputs, plain.outputs);
    }

    #[test]
    #[should_panic(expected = "must match its operand")]
    fn encoded_operands_are_checked_against_the_dtype() {
        let a = Matrix::zeros(8, 8);
        let ea = EncodedMatrix::encode(&a, DType::Fp16);
        let inputs = GemmInputs {
            a: &a,
            b_stored: &a,
            c: None,
        };
        simulate_encoded(&inputs, &ea, &ea, &full_config(8, DType::Fp32));
    }

    #[test]
    #[should_panic(expected = "stored B shape")]
    fn shape_validation() {
        let a = Matrix::zeros(8, 8);
        let b = Matrix::zeros(4, 4);
        simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &full_config(8, DType::Fp32),
        );
    }

    #[test]
    fn total_macs_and_sampled_macs_bookkeeping() {
        let dtype = DType::Fp32;
        let a = gaussian_matrix(32, 16, dtype, 12);
        let b = gaussian_matrix(8, 16, dtype, 13); // M x K stored (transposed)
        let cfg = GemmConfig {
            dims: GemmDims { n: 32, m: 8, k: 16 },
            ..GemmConfig::square(32, dtype)
        }
        .with_sampling(Sampling::Lattice { rows: 4, cols: 4 });
        let outcome = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &cfg,
        );
        assert_eq!(outcome.activity.total_macs, 32 * 8 * 16);
        assert_eq!(outcome.activity.sampled_macs, 4 * 4 * 16);
        assert_eq!(outcome.outputs.len(), 16);
    }
}
