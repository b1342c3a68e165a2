//! The switching-activity summary of one GEMM execution.

use wm_gpu::GemmDims;
use wm_numerics::DType;

/// Which kernel family produced an activity record. The power model picks
/// the matching runtime estimator (GEMM is compute-bound at the paper's
/// sizes; GEMV is memory-bound — the LLM-decode regime).
///
/// The class is also a *model key*: `wm-predict` trains one learned power
/// model per `(architecture, KernelClass)` — the two regimes respond to
/// operand content through different units (datapath latches vs. the DRAM
/// interface), so their observations must never share coefficients. The
/// `Ord`/`Hash` derives exist for that keying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelClass {
    /// Dense matrix-matrix multiplication (the paper's workload).
    Gemm,
    /// Dense matrix-vector multiplication (extension workload).
    Gemv,
}

impl KernelClass {
    /// Every kernel class, in key order.
    pub const ALL: [KernelClass; 2] = [KernelClass::Gemm, KernelClass::Gemv];

    /// Stable lowercase label (used by the `wattd` protocol and figures).
    pub const fn label(self) -> &'static str {
        match self {
            KernelClass::Gemm => "gemm",
            KernelClass::Gemv => "gemv",
        }
    }

    /// Parse a protocol label (case-insensitive).
    pub fn parse(s: &str) -> Option<KernelClass> {
        match s.to_ascii_lowercase().as_str() {
            "gemm" => Some(KernelClass::Gemm),
            "gemv" => Some(KernelClass::Gemv),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Normalized switching-activity record for one GEMM iteration.
///
/// Datapath statistics are **per-MAC means** over the sampled MAC events;
/// multiplying by [`ActivityRecord::total_macs`] scales them to the full
/// kernel (the lattice estimator is unbiased — see `engine` tests).
/// Memory statistics are **exact** totals over the whole stored matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityRecord {
    /// The kernel family (selects the runtime model in `wm-power`).
    pub kernel: KernelClass,
    /// Datatype setup executed.
    pub dtype: DType,
    /// Problem dimensions (GEMV uses `m = 1`).
    pub dims: GemmDims,
    /// Whether the stored B pattern was transposed (paper default true).
    pub b_transposed: bool,
    /// Total MAC events of the full kernel (`N*M*K`).
    pub total_macs: u64,
    /// MAC events actually walked by the sampler.
    pub sampled_macs: u64,
    /// Output elements walked.
    pub sampled_outputs: u64,

    /// Mean toggled bits per MAC on the A operand latch.
    pub operand_a_toggles_per_mac: f64,
    /// Mean toggled bits per MAC on the B operand latch.
    pub operand_b_toggles_per_mac: f64,
    /// Mean partial-product activity per MAC:
    /// `HW(sig_a) * HW(sig_b) / sig_width`, 0 for gated (zero-operand) MACs.
    pub mult_activity_per_mac: f64,
    /// Mean toggled bits per MAC in the accumulator register.
    pub accum_toggles_per_mac: f64,
    /// Fraction of MACs where both operands were numerically nonzero
    /// (the complement is clock-gated in hardware).
    pub nonzero_mac_fraction: f64,

    /// Mean bit alignment between multiplied operand pairs (Fig. 8;
    /// 1 = identical bits, 0 = all opposite). Computed over sampled MACs.
    pub mean_bit_alignment: f64,
    /// Mean Hamming weight of A's encodings over sampled MACs (Fig. 8).
    pub mean_hamming_weight_a: f64,
    /// Mean Hamming weight of B's encodings over sampled MACs.
    pub mean_hamming_weight_b: f64,

    /// Exact toggled bits streaming the stored A and B matrices once over
    /// the DRAM bus lanes.
    pub dram_toggles: u64,
    /// Words streamed in that pass.
    pub dram_words: u64,
    /// Exact total set bits in those words (bus termination energy in
    /// some signalling schemes; also a Fig. 8 cross-check).
    pub dram_weight: u64,
    /// How many times the operand tiles stream through the L2/SMEM path
    /// per kernel (tile-level reuse replication).
    pub l2_passes: f64,
}

impl ActivityRecord {
    /// Combined operand toggles per MAC (A + B latches).
    pub fn operand_toggles_per_mac(&self) -> f64 {
        self.operand_a_toggles_per_mac + self.operand_b_toggles_per_mac
    }

    /// Merge accumulates two records of the *same* configuration made with
    /// different seeds, weighting by sampled MACs — used by the experiment
    /// runner to average across seeds without keeping every record.
    ///
    /// # Panics
    ///
    /// Panics if the configurations differ.
    pub fn merge(&self, other: &ActivityRecord) -> ActivityRecord {
        assert_eq!(self.kernel, other.kernel, "cannot merge across kernels");
        assert_eq!(self.dtype, other.dtype, "cannot merge across dtypes");
        assert_eq!(self.dims, other.dims, "cannot merge across dims");
        assert_eq!(self.b_transposed, other.b_transposed);
        let w1 = self.sampled_macs as f64;
        let w2 = other.sampled_macs as f64;
        let t = w1 + w2;
        let avg = |a: f64, b: f64| (a * w1 + b * w2) / t;
        ActivityRecord {
            kernel: self.kernel,
            dtype: self.dtype,
            dims: self.dims,
            b_transposed: self.b_transposed,
            total_macs: self.total_macs,
            sampled_macs: self.sampled_macs + other.sampled_macs,
            sampled_outputs: self.sampled_outputs + other.sampled_outputs,
            operand_a_toggles_per_mac: avg(
                self.operand_a_toggles_per_mac,
                other.operand_a_toggles_per_mac,
            ),
            operand_b_toggles_per_mac: avg(
                self.operand_b_toggles_per_mac,
                other.operand_b_toggles_per_mac,
            ),
            mult_activity_per_mac: avg(self.mult_activity_per_mac, other.mult_activity_per_mac),
            accum_toggles_per_mac: avg(self.accum_toggles_per_mac, other.accum_toggles_per_mac),
            nonzero_mac_fraction: avg(self.nonzero_mac_fraction, other.nonzero_mac_fraction),
            mean_bit_alignment: avg(self.mean_bit_alignment, other.mean_bit_alignment),
            mean_hamming_weight_a: avg(self.mean_hamming_weight_a, other.mean_hamming_weight_a),
            mean_hamming_weight_b: avg(self.mean_hamming_weight_b, other.mean_hamming_weight_b),
            dram_toggles: ((self.dram_toggles as f64 * w1 + other.dram_toggles as f64 * w2) / t)
                as u64,
            dram_words: self.dram_words,
            dram_weight: ((self.dram_weight as f64 * w1 + other.dram_weight as f64 * w2) / t)
                as u64,
            l2_passes: self.l2_passes,
        }
    }
}

#[cfg(test)]
impl ActivityRecord {
    /// Every field as `(name, bits)`, each `f64` by its bits: equal lists
    /// mean bit-identical records, where `PartialEq` would equate -0.0
    /// and +0.0.
    pub(crate) fn field_bits(&self) -> Vec<(&'static str, u64)> {
        let ActivityRecord {
            kernel,
            dtype,
            dims,
            b_transposed,
            total_macs,
            sampled_macs,
            sampled_outputs,
            operand_a_toggles_per_mac,
            operand_b_toggles_per_mac,
            mult_activity_per_mac,
            accum_toggles_per_mac,
            nonzero_mac_fraction,
            mean_bit_alignment,
            mean_hamming_weight_a,
            mean_hamming_weight_b,
            dram_toggles,
            dram_words,
            dram_weight,
            l2_passes,
        } = self;
        vec![
            ("kernel", *kernel as u64),
            ("dtype", *dtype as u64),
            ("dims.n", dims.n as u64),
            ("dims.m", dims.m as u64),
            ("dims.k", dims.k as u64),
            ("b_transposed", u64::from(*b_transposed)),
            ("total_macs", *total_macs),
            ("sampled_macs", *sampled_macs),
            ("sampled_outputs", *sampled_outputs),
            (
                "operand_a_toggles_per_mac",
                operand_a_toggles_per_mac.to_bits(),
            ),
            (
                "operand_b_toggles_per_mac",
                operand_b_toggles_per_mac.to_bits(),
            ),
            ("mult_activity_per_mac", mult_activity_per_mac.to_bits()),
            ("accum_toggles_per_mac", accum_toggles_per_mac.to_bits()),
            ("nonzero_mac_fraction", nonzero_mac_fraction.to_bits()),
            ("mean_bit_alignment", mean_bit_alignment.to_bits()),
            ("mean_hamming_weight_a", mean_hamming_weight_a.to_bits()),
            ("mean_hamming_weight_b", mean_hamming_weight_b.to_bits()),
            ("dram_toggles", *dram_toggles),
            ("dram_words", *dram_words),
            ("dram_weight", *dram_weight),
            ("l2_passes", l2_passes.to_bits()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(toggles: f64, macs: u64) -> ActivityRecord {
        ActivityRecord {
            kernel: KernelClass::Gemm,
            dtype: DType::Fp16,
            dims: GemmDims::square(64),
            b_transposed: true,
            total_macs: 64 * 64 * 64,
            sampled_macs: macs,
            sampled_outputs: macs / 64,
            operand_a_toggles_per_mac: toggles,
            operand_b_toggles_per_mac: toggles,
            mult_activity_per_mac: 1.0,
            accum_toggles_per_mac: 2.0,
            nonzero_mac_fraction: 1.0,
            mean_bit_alignment: 0.5,
            mean_hamming_weight_a: 8.0,
            mean_hamming_weight_b: 8.0,
            dram_toggles: 100,
            dram_words: 50,
            dram_weight: 400,
            l2_passes: 16.0,
        }
    }

    #[test]
    fn merge_weights_by_sampled_macs() {
        let a = record(4.0, 100);
        let b = record(8.0, 300);
        let m = a.merge(&b);
        assert_eq!(m.sampled_macs, 400);
        assert!((m.operand_a_toggles_per_mac - 7.0).abs() < 1e-12);
        assert_eq!(m.total_macs, a.total_macs);
    }

    #[test]
    fn merge_is_commutative_in_the_mean() {
        let a = record(4.0, 100);
        let b = record(8.0, 300);
        let ab = a.merge(&b);
        let ba = b.merge(&a);
        assert!((ab.operand_a_toggles_per_mac - ba.operand_a_toggles_per_mac).abs() < 1e-12);
        assert_eq!(ab.sampled_macs, ba.sampled_macs);
    }

    #[test]
    #[should_panic(expected = "cannot merge across dtypes")]
    fn merge_rejects_mismatched_dtype() {
        let a = record(4.0, 100);
        let mut b = record(8.0, 300);
        b.dtype = DType::Int8;
        let _ = a.merge(&b);
    }

    #[test]
    fn operand_sum_helper() {
        let a = record(4.0, 100);
        assert_eq!(a.operand_toggles_per_mac(), 8.0);
    }
}
