//! # wm-kernels — CUTLASS-like GEMM execution with exact switching-activity accounting
//!
//! This crate is the substitute for the paper's black-box CUTLASS kernels.
//! It *actually computes* `D = alpha * A x B + beta * C` with
//! dtype-faithful arithmetic (FP32/FP16/FP16-T/INT8 pipelines), and while
//! doing so counts the bit-level switching activity that the paper
//! hypothesizes drives GPU power:
//!
//! * **operand latch toggles** — Hamming distance between consecutive
//!   K-step operands on each lane's A/B input registers;
//! * **multiplier array activity** — partial-product density
//!   (`HW(sig_a) * HW(sig_b)`), clock-gated to zero when either operand is
//!   numerically zero (real hardware's operand gating — the mechanism
//!   behind the paper's sparsity savings);
//! * **accumulator toggles** — Hamming distance between consecutive
//!   accumulator register images in the pipeline's accumulation dtype;
//! * **memory-interface toggles** — Hamming distance between words
//!   landing on the same DRAM bus lane as the stored matrices stream in.
//!
//! A full 2048³ GEMM is 8.6 G MAC events; the engine therefore *samples*
//! output elements on a uniform lattice and walks the complete K-reduction
//! for each sampled element (translation-uniform structure makes lattice
//! sampling unbiased — verified by tests against full enumeration). The
//! memory pass always runs over the whole matrices (it is only O(N·K)).
//!
//! Modules:
//!
//! * [`config`] — [`GemmConfig`]: dims, dtype, scalars, the paper's
//!   B-transposition switch, tile shape, sampling lattice.
//! * [`encoded`] — [`EncodedMatrix`]: an operand's raw dtype words,
//!   encoded once and read by the MAC loop, the bus pass and (through
//!   `wm-predict`) the feature chunk.
//! * [`activity`] — [`ActivityRecord`]: the normalized activity summary
//!   consumed by `wm-power`.
//! * [`engine`] — the sampled execution engine ([`engine::simulate`],
//!   or [`engine::simulate_encoded`] over operands encoded once).
//! * [`memory`] — the DRAM/L2 bus pass.
//! * [`mod@reference`] — a naive, obviously-correct GEMM used to verify
//!   the engine's numerics in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod config;
pub mod encoded;
pub mod engine;
pub mod gemv;
pub mod memory;
pub mod reference;

pub use activity::{ActivityRecord, KernelClass};
pub use config::{GemmConfig, Sampling};
pub use encoded::EncodedMatrix;
pub use engine::{simulate, simulate_encoded, GemmInputs, GemmOutcome, SampledOutput};
pub use gemv::{reference_gemv, simulate_gemv, simulate_gemv_encoded, GemvConfig, GemvOutcome};
pub use reference::reference_gemm;
