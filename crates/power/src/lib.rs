//! # wm-power — switching activity → watts
//!
//! This crate turns an [`wm_kernels::ActivityRecord`] into a board-power
//! figure for a given [`wm_gpu::GpuSpec`], following the standard CMOS
//! decomposition `P = P_static + α·C·V²·f`:
//!
//! * **idle** — fans, VRM losses, DRAM refresh, leakage (constant);
//! * **uncore** — clock distribution, schedulers, instruction issue;
//!   present whenever kernels are resident, scaled by duty cycle;
//! * **datapath** — the data-dependent core: per-MAC energy composed of a
//!   base (pipeline clocking) term plus operand-latch toggle, gated
//!   multiplier-array, and accumulator-toggle terms;
//! * **memory** — DRAM and L2 interface energy with per-bit base and
//!   per-toggled-bit components.
//!
//! The data-dependent terms are multiplied by the device's
//! `data_sensitivity` (the paper observes older parts swing less) and the
//! whole dynamic budget passes through the DVFS governor
//! ([`wm_gpu::resolve_throttle`]), which reproduces the paper's throttle
//! boundaries.
//!
//! ## Calibration
//!
//! Coefficients in [`coefficients`] are anchored so that the A100 with
//! random Gaussian 2048² inputs lands near the paper's operating regime
//! (FP16-T ≈ 285 W, just under the 300 W TDP; zero matrices ≈ 38% lower —
//! the paper's maximal swing), with per-architecture energy scales for the
//! other devices. Absolute watts are *model anchors*, not measurements:
//! only shapes and ratios are comparable with the paper, and those are
//! what the root package's `tests/takeaways.rs` asserts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coefficients;
pub mod model;
pub mod reference;

pub use coefficients::{
    arch_energy_scale, memory_kind_factor, pipeline_coefficients, MemoryCoefficients,
    PipelineCoefficients,
};
pub use model::{
    evaluate, evaluate_group, evaluate_group_refs, group_runtime, kernel_runtime,
    predicted_breakdown, PowerBreakdown,
};
pub use reference::{reference_activity, ReferenceActivity};
