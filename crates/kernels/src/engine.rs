//! The sampled GEMM execution engine.
//!
//! For each sampled output element `(i, j)` the engine walks the complete
//! K-reduction in kernel order, computing the dtype-faithful numeric
//! result (verified against [`crate::reference::reference_gemm`] in tests)
//! and counting operand-latch toggles, gated multiplier activity,
//! accumulator toggles, and the Fig. 8 alignment / Hamming statistics.
//!
//! Latches are flushed between output elements (each lane context is
//! independent), so cross-element transitions are never charged. An
//! operand latch's toggles along K therefore depend on its row or column
//! alone, and so do its Hamming weight and the significand weights that
//! scale the multiplier term. Each is counted once:
//!
//! * **per sampled A row and B column** (`KVectors`): the latch toggles
//!   along K, the Hamming weight and each element's significand weight.
//!   Each row's sums meet every sampled column, so they count once per
//!   column, and each column's once per row.
//! * **per MAC** (`CrossTerms`): only what needs both operands — the
//!   alignment XOR, the zero-operand gate, the multiplier term and the
//!   accumulator. The `f64` multiplier sum adds in (i, j, k) order, so
//!   it is bit-identical to a per-MAC walk.
//!
//! The popcount sums over whole rows and columns run two words per
//! popcount (`wm-bits`' paired sums).

use crate::activity::ActivityRecord;
use crate::config::{GemmConfig, Sampling};
use crate::encoded::EncodedMatrix;
use crate::memory::{l2_replication, operand_bus_pass};
use std::borrow::Cow;
use wm_bits::{hamming_distance, slice_hamming_distance, slice_hamming_weight, stream_toggles};
use wm_matrix::Matrix;
use wm_numerics::codec::Accumulator;
use wm_numerics::{DType, Quantizer};

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
pub(crate) fn sig_width(dtype: DType) -> f64 {
    f64::from(dtype.mantissa_bits() + if dtype.is_float() { 1 } else { dtype.bits() })
}

/// One operand vector along K: its words, values and significand weights.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KVector<'a> {
    words: &'a [u32],
    values: &'a [f32],
    sig: &'a [u8],
}

/// The sampled operand vectors along K of one operand — A rows, B
/// columns, or GEMV's `x` — with what each contributes on its own, counted
/// once per vector: the latch toggles along K, the Hamming weight, and the
/// significand weight of every element.
#[derive(Debug, Clone)]
pub(crate) struct KVectors<'a> {
    len: usize,
    /// Where each vector starts in `words` and `values`.
    starts: Vec<usize>,
    words: Cow<'a, [u32]>,
    values: Cow<'a, [f32]>,
    /// `len` significand weights per vector, in vector order.
    sig: Vec<u8>,
    /// Latch toggles along K, summed over the vectors.
    pub(crate) toggles: u64,
    /// Hamming weight, summed over the vectors.
    pub(crate) weight: u64,
}

impl<'a> KVectors<'a> {
    /// The rows `idx` of an operand: `values` row-major, `e` its encoding.
    /// Rows are contiguous, so they are borrowed in place.
    pub(crate) fn rows(values: &'a [f32], e: &'a EncodedMatrix, idx: &[usize]) -> Self {
        let len = e.cols();
        let starts = idx.iter().map(|&i| i * len).collect();
        Self::new(
            len,
            starts,
            Cow::Borrowed(e.words()),
            Cow::Borrowed(values),
            e,
        )
    }

    /// The columns `idx` of an operand, gathered into contiguous runs.
    pub(crate) fn cols(values: &[f32], e: &EncodedMatrix, idx: &[usize]) -> Self {
        let (len, stride) = (e.rows(), e.cols());
        let gather = |j: usize| (0..len).map(move |k| k * stride + j);
        let words = idx
            .iter()
            .flat_map(|&j| gather(j).map(|x| e.words()[x]))
            .collect();
        let column_values = idx
            .iter()
            .flat_map(|&j| gather(j).map(|x| values[x]))
            .collect();
        let starts = (0..idx.len()).map(|v| v * len).collect();
        Self::new(len, starts, Cow::Owned(words), Cow::Owned(column_values), e)
    }

    fn new(
        len: usize,
        starts: Vec<usize>,
        words: Cow<'a, [u32]>,
        values: Cow<'a, [f32]>,
        e: &EncodedMatrix,
    ) -> Self {
        let mut sig = Vec::with_capacity(starts.len() * len);
        let (mut toggles, mut weight) = (0, 0);
        for &s in &starts {
            let run = &words[s..s + len];
            toggles += stream_toggles(run);
            weight += slice_hamming_weight(run);
            // At most 24 bits (FP32's implicit bit and mantissa).
            sig.extend(run.iter().map(|&w| e.sig_weight(w) as u8));
        }
        Self {
            len,
            starts,
            words,
            values,
            sig,
            toggles,
            weight,
        }
    }

    /// Vector `v`, in the order of the indices it was built from.
    pub(crate) fn get(&self, v: usize) -> KVector<'_> {
        let (s, len) = (self.starts[v], self.len);
        KVector {
            words: &self.words[s..s + len],
            values: &self.values[s..s + len],
            sig: &self.sig[v * len..(v + 1) * len],
        }
    }
}

/// The per-MAC sums of a walk: the terms that need both operands of a MAC,
/// summed output by output in walk order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CrossTerms {
    /// Bits in which the two operands differ (Fig. 8 alignment).
    pub(crate) align_distance: u64,
    /// MACs whose operands are both nonzero (not gated).
    pub(crate) nonzero_macs: u64,
    /// Partial-product activity, `HW(sig_a) * HW(sig_b) / sig_norm` per
    /// ungated MAC.
    pub(crate) mult_activity: f64,
    /// Accumulator register toggles.
    pub(crate) accum_toggles: u64,
}

impl CrossTerms {
    /// Walk one output's K-reduction of `a` against `b` in kernel order:
    /// add its cross terms and return the final accumulator. `images` is
    /// scratch of at least K words for the accumulator's register images.
    pub(crate) fn reduce(
        &mut self,
        q: Quantizer,
        a: KVector<'_>,
        b: KVector<'_>,
        sig_norm: f64,
        images: &mut [u32],
    ) -> Accumulator {
        let k = a.words.len();
        let images = &mut images[..k];
        let (a_values, a_sig) = (&a.values[..k], &a.sig[..k]);
        let (b_values, b_sig) = (&b.values[..k], &b.sig[..k]);
        self.align_distance += slice_hamming_distance(a.words, b.words);
        let (mut nonzero, mut mult) = (self.nonzero_macs, self.mult_activity);
        let mut acc = q.new_accumulator();
        let start = acc.bits() as u32;
        for x in 0..k {
            let (av, bv) = (a_values[x], b_values[x]);
            nonzero += u64::from(av != 0.0 && bv != 0.0);
            // A zero operand's significand weight is 0, so a gated MAC adds
            // +0.0, which leaves the non-negative sum's bits as they are.
            mult += f64::from(a_sig[x]) * f64::from(b_sig[x]) / sig_norm;
            // Hardware does not skip zero products, and adding a (+/-)0
            // product leaves the accumulator bits unchanged, so gating falls
            // out of the toggle count.
            acc.add_product(q.product(av, bv));
            images[x] = acc.bits() as u32;
        }
        (self.nonzero_macs, self.mult_activity) = (nonzero, mult);
        if let Some(&first) = images.first() {
            self.accum_toggles +=
                u64::from(hamming_distance(start, first)) + stream_toggles(images);
        }
        acc
    }
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

    // B's column j is the stored pattern's row j when B is transposed.
    let a_rows = KVectors::rows(inputs.a.as_slice(), ea, &row_idx);
    let b_cols = if config.b_transposed {
        KVectors::rows(inputs.b_stored.as_slice(), eb, &col_idx)
    } else {
        KVectors::cols(inputs.b_stored.as_slice(), eb, &col_idx)
    };

    let mut outputs = Vec::with_capacity(row_idx.len() * col_idx.len());
    let mut cross = CrossTerms::default();
    let mut images = vec![0u32; dims.k];
    for (r, &i) in row_idx.iter().enumerate() {
        for (c, &j) in col_idx.iter().enumerate() {
            let acc = cross.reduce(q, a_rows.get(r), b_cols.get(c), sig_norm, &mut images);
            let c_val = inputs.c.map_or(0.0, |c| c.get(i, j));
            let d = q.quantize(config.alpha * acc.value() + config.beta * c_val);
            outputs.push(SampledOutput {
                row: i,
                col: j,
                value: d,
            });
        }
    }

    let (sampled_rows, sampled_cols) = (row_idx.len() as u64, col_idx.len() as u64);
    let sampled_macs = sampled_rows * sampled_cols * dims.k as u64;
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
        // Each sampled row meets every sampled column, and vice versa.
        operand_a_toggles_per_mac: (a_rows.toggles * sampled_cols) as f64 / macs,
        operand_b_toggles_per_mac: (b_cols.toggles * sampled_rows) as f64 / macs,
        mult_activity_per_mac: cross.mult_activity / macs,
        accum_toggles_per_mac: cross.accum_toggles as f64 / macs,
        nonzero_mac_fraction: cross.nonzero_macs as f64 / macs,
        mean_bit_alignment: 1.0 - (cross.align_distance as f64 / macs) / word_bits,
        mean_hamming_weight_a: (a_rows.weight * sampled_cols) as f64 / macs,
        mean_hamming_weight_b: (b_cols.weight * sampled_rows) as f64 / macs,
        dram_toggles: bus.toggles,
        dram_words: bus.words,
        dram_weight: bus.weight,
        l2_passes: l2_replication(dims, config.tile),
    };

    GemmOutcome { activity, outputs }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::Sampling;
    use crate::reference::reference_gemm;
    use wm_bits::Xoshiro256pp;
    use wm_gpu::GemmDims;
    use wm_numerics::DType;
    use wm_patterns::{PatternKind, PatternSpec};

    /// NaN events a reference walk met: the inputs reach the NaN rule.
    #[derive(Debug, Default)]
    pub(crate) struct NanEvents {
        /// Products of two NaN operands.
        pub(crate) products: u64,
        /// NaN products added into a NaN accumulator.
        pub(crate) sums: u64,
    }

    impl NanEvents {
        /// Count the events of one MAC: `a * b` added into `acc`.
        pub(crate) fn count(&mut self, a: f32, b: f32, product: f32, acc: f32) {
            self.products += u64::from(a.is_nan() && b.is_nan());
            self.sums += u64::from(product.is_nan() && acc.is_nan());
        }
    }

    /// The patterns a MAC-loop change must reproduce bit for bit: random
    /// exponent bits (NaN × NaN products, NaN accumulators) from the MSB
    /// randomization at half the word and from bit flips, plus Gaussian
    /// and sparse operands.
    pub(crate) fn mac_loop_patterns(dtype: DType) -> [PatternSpec; 4] {
        [
            PatternKind::RandomMsbs {
                count: dtype.bits() / 2,
            },
            PatternKind::BitFlips { probability: 0.5 },
            PatternKind::Gaussian,
            PatternKind::Sparse { sparsity: 0.5 },
        ]
        .map(PatternSpec::new)
    }

    /// The MAC loop as first written: one (i, j, k) walk that counts every
    /// statistic per MAC.
    fn reference_simulate(
        inputs: &GemmInputs<'_>,
        ea: &EncodedMatrix,
        eb: &EncodedMatrix,
        config: &GemmConfig,
        nan: &mut NanEvents,
    ) -> GemmOutcome {
        let dims = config.dims;
        let q = Quantizer::new(config.dtype);
        let word_bits = f64::from(config.dtype.bits());
        let sig_norm = sig_width(config.dtype);
        let (row_idx, col_idx) = match config.sampling {
            Sampling::Full => ((0..dims.n).collect(), (0..dims.m).collect()),
            Sampling::Lattice { rows, cols } => (
                Sampling::lattice_indices(dims.n, rows),
                Sampling::lattice_indices(dims.m, cols),
            ),
        };
        let mut outputs = Vec::new();
        let (mut op_a_toggles, mut op_b_toggles, mut acc_toggles) = (0u64, 0u64, 0u64);
        let mut mult_activity = 0.0f64;
        let (mut nonzero_macs, mut align_distance, mut hw_a, mut hw_b) = (0u64, 0u64, 0u64, 0u64);
        let mut sampled_macs = 0u64;
        for &i in &row_idx {
            for &j in &col_idx {
                let mut acc = q.new_accumulator();
                let mut prev_acc_bits = acc.bits() as u32;
                let (mut prev_a, mut prev_b) = (None::<u32>, None::<u32>);
                for k in 0..dims.k {
                    let a_bits = ea.bits_at(i, k);
                    let a_val = inputs.a.get(i, k);
                    let (b_bits, b_val) = if config.b_transposed {
                        (eb.bits_at(j, k), inputs.b_stored.get(j, k))
                    } else {
                        (eb.bits_at(k, j), inputs.b_stored.get(k, j))
                    };
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
                        mult_activity += f64::from(ea.sig_weight(a_bits))
                            * f64::from(eb.sig_weight(b_bits))
                            / sig_norm;
                    }
                    let product = q.product(a_val, b_val);
                    nan.count(a_val, b_val, product, acc.value());
                    acc.add_product(product);
                    let acc_bits = acc.bits() as u32;
                    acc_toggles += u64::from((prev_acc_bits ^ acc_bits).count_ones());
                    prev_acc_bits = acc_bits;
                }
                sampled_macs += dims.k as u64;
                let c_val = inputs.c.map_or(0.0, |c| c.get(i, j));
                let value = q.quantize(config.alpha * acc.value() + config.beta * c_val);
                outputs.push(SampledOutput {
                    row: i,
                    col: j,
                    value,
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

    #[test]
    fn hoisted_statistics_match_the_per_mac_walk_bit_for_bit() {
        let dims = GemmDims {
            n: 48,
            m: 40,
            k: 72,
        };
        let mut nan = NanEvents::default();
        for dtype in DType::EXTENDED {
            for (p, spec) in mac_loop_patterns(dtype).into_iter().enumerate() {
                for b_transposed in [true, false] {
                    let mut rng = Xoshiro256pp::seed_from_u64(100 + p as u64);
                    let (b_rows, b_cols) = if b_transposed {
                        (dims.m, dims.k)
                    } else {
                        (dims.k, dims.m)
                    };
                    let a = spec.generate(dtype, dims.n, dims.k, &mut rng.fork(0));
                    let b = spec.generate(dtype, b_rows, b_cols, &mut rng.fork(1));
                    let c = gaussian_matrix(dims.n, dims.m, dtype, 7);
                    let (ea, eb) = (
                        EncodedMatrix::encode(&a, dtype),
                        EncodedMatrix::encode(&b, dtype),
                    );
                    let inputs = GemmInputs {
                        a: &a,
                        b_stored: &b,
                        c: Some(&c),
                    };
                    for sampling in [Sampling::Full, Sampling::Lattice { rows: 5, cols: 3 }] {
                        let config = GemmConfig::new(dims, dtype)
                            .with_b_transposed(b_transposed)
                            .with_sampling(sampling)
                            .with_scalars(1.0, 0.5);
                        let got = simulate_encoded(&inputs, &ea, &eb, &config);
                        let want = reference_simulate(&inputs, &ea, &eb, &config, &mut nan);
                        let what = format!(
                            "{dtype} {} b_transposed={b_transposed} {sampling:?}",
                            spec.label()
                        );
                        assert_eq!(
                            got.activity.field_bits(),
                            want.activity.field_bits(),
                            "{what}"
                        );
                        let bits = |o: &GemmOutcome| -> Vec<(usize, usize, u32)> {
                            o.outputs
                                .iter()
                                .map(|s| (s.row, s.col, s.value.to_bits()))
                                .collect()
                        };
                        assert_eq!(bits(&got), bits(&want), "{what}");
                    }
                }
            }
        }
        assert!(nan.products > 0, "no NaN x NaN product: {nan:?}");
        assert!(
            nan.sums > 0,
            "no NaN product added to a NaN accumulator: {nan:?}"
        );
    }

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
