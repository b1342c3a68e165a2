//! Energy coefficients (picojoules) and architecture scale factors.
//!
//! The per-dtype pipeline coefficients are anchored on the A100 (see the
//! crate docs' Calibration section). Their *relative* structure encodes two
//! hardware facts:
//!
//! 1. tensor cores amortize instruction and operand-delivery overhead over
//!    many MACs, so their per-MAC base and toggle energies are far lower
//!    than SIMT pipelines' — while their much higher MAC *rate* makes them
//!    the most power-hungry setup overall (the paper's T7);
//! 2. wider datapaths pay proportionally more per toggled bit.

use wm_gpu::MemoryKind;
use wm_numerics::DType;

/// Per-MAC energy decomposition for one pipeline, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineCoefficients {
    /// Data-independent per-MAC energy: pipeline registers, instruction
    /// issue, operand collectors clocking. Paid even for zero operands.
    pub e_base_pj: f64,
    /// Energy per toggled bit on the A/B operand latches.
    pub e_operand_pj_per_bit: f64,
    /// Energy per unit of partial-product activity
    /// (`HW(sig_a)·HW(sig_b)/sig_width`); zero-gated operands pay nothing.
    pub e_mult_pj_per_unit: f64,
    /// Energy per toggled accumulator bit.
    pub e_accum_pj_per_bit: f64,
}

/// A100-anchored pipeline coefficients per datatype setup.
pub fn pipeline_coefficients(dtype: DType) -> PipelineCoefficients {
    match dtype {
        DType::Fp32 => PipelineCoefficients {
            e_base_pj: 8.0,
            e_operand_pj_per_bit: 0.30,
            e_mult_pj_per_unit: 0.60,
            e_accum_pj_per_bit: 0.25,
        },
        DType::Fp16 => PipelineCoefficients {
            e_base_pj: 2.0,
            e_operand_pj_per_bit: 0.11,
            e_mult_pj_per_unit: 0.22,
            e_accum_pj_per_bit: 0.07,
        },
        DType::Fp16Tensor => PipelineCoefficients {
            e_base_pj: 0.80,
            e_operand_pj_per_bit: 0.040,
            e_mult_pj_per_unit: 0.100,
            e_accum_pj_per_bit: 0.015,
        },
        // Extension dtype: same tensor pipeline as FP16-T with a slightly
        // cheaper multiplier array (8x8-bit significands vs 11x11).
        DType::Bf16 => PipelineCoefficients {
            e_base_pj: 0.80,
            e_operand_pj_per_bit: 0.040,
            e_mult_pj_per_unit: 0.085,
            e_accum_pj_per_bit: 0.015,
        },
        DType::Int8 => PipelineCoefficients {
            e_base_pj: 0.38,
            e_operand_pj_per_bit: 0.030,
            e_mult_pj_per_unit: 0.055,
            e_accum_pj_per_bit: 0.011,
        },
    }
}

/// Memory-interface energy coefficients, in picojoules per bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryCoefficients {
    /// DRAM: paid for every transferred bit (I/O, array access).
    pub dram_base_pj_per_bit: f64,
    /// DRAM: additional cost per bus-lane toggle.
    pub dram_toggle_pj_per_bit: f64,
    /// L2/on-chip path: per transferred bit, per pass.
    pub l2_base_pj_per_bit: f64,
    /// L2/on-chip path: per toggled bit, per pass.
    pub l2_toggle_pj_per_bit: f64,
}

/// The baseline (HBM2e-class) memory coefficients.
pub fn memory_coefficients() -> MemoryCoefficients {
    MemoryCoefficients {
        dram_base_pj_per_bit: 2.0,
        dram_toggle_pj_per_bit: 3.0,
        l2_base_pj_per_bit: 0.5,
        l2_toggle_pj_per_bit: 1.0,
    }
}

/// Relative energy cost of each DRAM technology against the HBM2e anchor.
/// GDDR6's long single-ended traces cost far more per bit than stacked
/// HBM — part of why the paper's RTX 6000 behaves differently.
pub fn memory_kind_factor(kind: MemoryKind) -> f64 {
    match kind {
        MemoryKind::Hbm2 => 1.2,
        MemoryKind::Hbm2e => 1.0,
        MemoryKind::Hbm3 => 0.9,
        MemoryKind::Gddr6 => 1.6,
    }
}

/// Core-energy scale of each architecture generation against Ampere
/// (process node + circuit generation: Volta 12 nm, Turing 12 nm with
/// larger SMs, Hopper 4 nm).
pub fn arch_energy_scale(architecture: &str) -> f64 {
    match architecture {
        "Volta" => 1.6,
        "Turing" => 2.35,
        "Ampere" => 1.0,
        "Hopper" => 0.7,
        // Unknown architectures run at the anchor scale: a conservative
        // default for user-defined GpuSpecs.
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_pipelines_cheaper_per_mac_than_simt() {
        let fp16 = pipeline_coefficients(DType::Fp16);
        let fp16t = pipeline_coefficients(DType::Fp16Tensor);
        assert!(fp16t.e_base_pj < fp16.e_base_pj);
        assert!(fp16t.e_operand_pj_per_bit < fp16.e_operand_pj_per_bit);
    }

    #[test]
    fn wider_datapaths_cost_more() {
        let fp32 = pipeline_coefficients(DType::Fp32);
        let fp16 = pipeline_coefficients(DType::Fp16);
        let int8 = pipeline_coefficients(DType::Int8);
        assert!(fp32.e_base_pj > fp16.e_base_pj);
        assert!(fp16.e_base_pj > int8.e_base_pj);
    }

    #[test]
    fn all_coefficients_positive() {
        for dt in DType::ALL {
            let c = pipeline_coefficients(dt);
            assert!(c.e_base_pj > 0.0);
            assert!(c.e_operand_pj_per_bit > 0.0);
            assert!(c.e_mult_pj_per_unit > 0.0);
            assert!(c.e_accum_pj_per_bit > 0.0);
        }
        let m = memory_coefficients();
        assert!(m.dram_base_pj_per_bit > 0.0 && m.l2_toggle_pj_per_bit > 0.0);
    }

    #[test]
    fn gddr6_is_the_most_expensive_memory() {
        let kinds = [
            MemoryKind::Hbm2,
            MemoryKind::Hbm2e,
            MemoryKind::Hbm3,
            MemoryKind::Gddr6,
        ];
        let max = kinds
            .iter()
            .copied()
            .max_by(|a, b| memory_kind_factor(*a).total_cmp(&memory_kind_factor(*b)))
            .unwrap();
        assert_eq!(max, MemoryKind::Gddr6);
    }

    #[test]
    fn arch_scales_follow_process_generations() {
        assert!(arch_energy_scale("Hopper") < arch_energy_scale("Ampere"));
        assert!(arch_energy_scale("Ampere") < arch_energy_scale("Volta"));
        assert!(arch_energy_scale("Volta") < arch_energy_scale("Turing"));
        assert_eq!(arch_energy_scale("Blackwell"), 1.0);
    }
}
