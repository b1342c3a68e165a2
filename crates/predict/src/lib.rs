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
//!   and drift detection that pulls a misbehaving model out of serving.
//!   Compute-bound GEMM and memory-bound GEMV move power through
//!   different units, so their observations never share coefficients.
//! * [`sketch`] — the deterministic, exactly-mergeable quantile sketches:
//!   [`QuantileSketch`] behind the error percentiles, and the log-bucketed
//!   [`LogHistogram`] that `wm-obs` builds its latency/energy metrics on.
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
pub mod sketch;

pub use features::{
    extract_features, features_for_request, features_from_member_chunks, member_feature_chunk,
    FeatureAccumulator, FeatureVector, FEATURE_DIM,
};
pub use predictor::{
    ModelStats, PowerPredictor, Prediction, PredictorState, SavedModel, DEFAULT_MIN_OBSERVATIONS,
};
pub use sketch::{LogHistogram, QuantileSketch};
pub use wm_kernels::KernelClass;
