//! # wattmul — reproduction of *Input-Dependent Power Usage in GPUs* (SC 2024)
//!
//! This is the umbrella crate for the `wattmul` workspace: it re-exports the
//! public API of every member crate so downstream users can depend on a
//! single package. See `README.md` for the crate map, the architecture
//! overview and how to regenerate each paper figure.
//!
//! The short version: the paper shows that changing *only the input data*
//! of a GEMM — value distribution, bit similarity, placement, sparsity —
//! moves GPU power by up to ~38%. This workspace rebuilds that entire
//! study in Rust on top of a switching-activity GPU power simulator:
//!
//! * [`bits`] — Hamming/alignment/toggle primitives and the deterministic PRNG.
//! * [`numerics`] — FP32/FP16/INT8 codecs and Gaussian sampling.
//! * [`matrix`] — dense matrices with layout and tile iteration.
//! * [`patterns`] — every §IV input-pattern generator.
//! * [`gpu`] — GPU architecture models (A100, V100, H100, RTX 6000).
//! * [`kernels`] — CUTLASS-like tiled GEMM with an exact-per-sample activity engine.
//! * [`power`] — activity → watts mapping with per-component coefficients.
//! * [`telemetry`] — DCGM-like sampling, warmup trim, VM process variation.
//! * [`analysis`] — statistics and the Fig. 8 alignment/Hamming analyses.
//! * [`core`] — the [`core::PowerLab`] façade tying it all together.
//! * [`experiments`] — one runner per paper figure plus the `wattmul` CLI.
//! * [`optimizer`] — the paper's §V future-work directions, implemented.
//! * [`predict`] — input-feature power prediction: one-pass feature
//!   extraction, online per-architecture ridge models, error tracking
//!   with drift fallback.
//! * [`fleet`] — the multi-GPU fleet scheduler and the `wattd`
//!   power-estimation service (work stealing, memo cache, power-capped
//!   placement consulting the learned predictor, grouped-GEMM batch
//!   requests priced and cached as units, first-fit-decreasing power
//!   packing of batches under the fleet budget,
//!   `predict`/`model_stats`/`metrics`/`trace` protocol ops).
//! * [`serve`] — the `wattd` network service: the fleet protocol on TCP
//!   with thread-per-connection sessions sharing one scheduler, streamed
//!   batch responses (one line per packed round), admission backpressure,
//!   bounded request lines, per-session stats and span attribution,
//!   graceful drain, and predictor persistence across restarts.
//! * [`obs`] — the hermetic observability layer: metrics registry
//!   (counters, gauges, mergeable log-bucketed histograms with
//!   deterministic Prometheus-style exposition) and request tracing
//!   (monotonic ids, lifecycle spans, bounded ring).
//!
//! The repository's benchmark is `perfbench/`, a cargo workspace of its
//! own that builds against these crates by path; see `perfbench/README.md`.

#![forbid(unsafe_code)]

pub use wm_analysis as analysis;
pub use wm_bits as bits;
pub use wm_core as core;
pub use wm_experiments as experiments;
pub use wm_fleet as fleet;
pub use wm_gpu as gpu;
pub use wm_kernels as kernels;
pub use wm_matrix as matrix;
pub use wm_numerics as numerics;
pub use wm_obs as obs;
pub use wm_optimizer as optimizer;
pub use wm_patterns as patterns;
pub use wm_power as power;
pub use wm_predict as predict;
pub use wm_serve as serve;
pub use wm_telemetry as telemetry;

pub use wm_core::prelude;
