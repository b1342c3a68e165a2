//! # wm-predict — input-feature power prediction with online learning
//!
//! The paper shows a GEMM's input data alone moves board power by ~38% at
//! fixed shape, dtype, and clocks — so a fleet cannot plan placement,
//! capping, or DVFS from kernel shape alone. It needs a per-request power
//! estimate *before* anything executes. Related work says this is
//! tractable from cheap input statistics (input features predict dynamic
//! power; learned estimators serve AI workloads at interactive cost),
//! and this crate is that estimator for the `wattmul` stack:
//!
//! * [`features`] — a one-pass, mergeable extractor producing a
//!   fixed-width [`FeatureVector`] per request: mean Hamming weight,
//!   adjacent-word toggle density (via `wm-bits`), sparsity, dynamic
//!   range, peak magnitude, and dtype/shape descriptors. Chunked
//!   extraction is bit-identical to sequential, whatever the worker
//!   count.
//! * [`predictor`] — the [`PowerPredictor`]: one online ridge model per
//!   `(device architecture, kernel class)` key (the shared
//!   normal-equations core in `wm_analysis::fit`), trained continuously
//!   from completed fleet runs, with prequential P50/P95 error tracking
//!   (a `wm_obs::LogHistogram` per model) and drift detection that pulls
//!   a misbehaving model out of serving.
//!   Compute-bound GEMM and memory-bound GEMV move power through
//!   different units, so their observations never share coefficients.
//! * [`walk`] — the one operand walk of a `(member, seed)` unit
//!   ([`walk_unit`]): operands generated and encoded once, read for both
//!   the simulated switching activity and, on seed 0, the feature chunk.
//!   [`walk_first_seed`] walks a whole request's seed 0 into its pricing
//!   probe and its [`FeatureVector`].
//!
//! `wm-fleet` wires this end to end: placement consults predictions for
//! admission control and energy-minimal clock selection, the scheduler
//! feeds `(features, measured power)` back after each run, and `wattd`
//! exposes `predict` / `model_stats` protocol ops. When a model is
//! untrained or degraded, every consumer falls back to the analytic
//! `wm_power::evaluate` path — predictions are an acceleration, never a
//! correctness dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod predictor;
pub mod walk;

pub use features::{features_from_member_chunks, FeatureAccumulator, FeatureVector, FEATURE_DIM};
pub use predictor::{
    ModelStats, PowerPredictor, Prediction, PredictorState, SavedModel, DEFAULT_MIN_OBSERVATIONS,
};
pub use walk::{walk_first_seed, walk_unit};
pub use wm_kernels::KernelClass;
