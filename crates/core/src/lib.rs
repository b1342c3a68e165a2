//! # wm-core — the `PowerLab` façade
//!
//! One call from input pattern to measured watts:
//!
//! ```
//! use wm_core::prelude::*;
//!
//! let lab = PowerLab::new(wm_gpu::spec::a100_pcie());
//! let result = lab.run(
//!     &RunRequest::new(DType::Fp16Tensor, 256, PatternSpec::new(PatternKind::Gaussian))
//!         .with_seeds(2),
//! );
//! assert!(result.power.mean > 0.0);
//! ```
//!
//! `PowerLab` wires the whole reproduction pipeline together exactly as
//! the paper's methodology describes: per seed, generate the A and B
//! operand matrices from decorrelated streams ("The A and B matrices use
//! different seeds"), run the CUTLASS-like kernel simulation, evaluate the
//! power model, push it through the DCGM-like telemetry (warmup trim,
//! 100 ms sampling, sensor noise, VM process variation), and average
//! across seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lab;

pub use lab::{
    first_seed_member_operands, member_ordinals, member_seed_activities, member_seed_operands,
    member_seed_streams, member_slices, simulate_encoded_member_activity, simulate_member_activity,
    unit_layout, OperandStream, PowerLab, RunRequest, RunResult,
};

/// Convenience re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::lab::{PowerLab, RunRequest, RunResult};
    pub use wm_gpu::spec::{a100_pcie, h100_sxm5, rtx6000, v100_sxm2};
    pub use wm_gpu::{GemmDims, GpuSpec};
    pub use wm_kernels::{GemmConfig, KernelClass, Sampling};
    pub use wm_numerics::DType;
    pub use wm_patterns::{PatternKind, PatternSpec};
    pub use wm_power::PowerBreakdown;
    pub use wm_telemetry::{Measurement, VmInstance};
}
