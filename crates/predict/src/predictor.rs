//! The online power predictor: per-`(architecture, kernel)` ridge models
//! with prequential error tracking and drift fallback.
//!
//! One [`PowerPredictor`] owns an online ridge-regression model per
//! `(device architecture, KernelClass)` key — two different parts never
//! share coefficients, and neither do two kernel regimes on the same
//! part. The paper's result lives *within* a kernel's regime:
//! compute-bound GEMM swings ~38% through the datapath latches while
//! memory-bound GEMV moves power through the DRAM interface, so the
//! toggles→power slope is unit-specific and a lumped per-architecture
//! model systematically mispredicts both. Models train continuously from
//! completed runs: each observation is a `(FeatureVector, measured
//! watts)` pair keyed by the kernel that produced it. Before an
//! observation updates the model, the *current* model predicts it and the
//! absolute percentage error lands in the error tracker — prequential
//! ("test then train") evaluation, so the tracked error is honest
//! out-of-sample error, never training-set fit.
//!
//! A model serves predictions only once it is **ready** (enough
//! observations) and **healthy** (recent P95 APE under the drift
//! threshold). When the world shifts under the model — adversarial
//! operands, corrupted telemetry, a workload the features cannot
//! separate — the windowed P95 climbs and the model **trips**: it marks
//! itself degraded, discards its coefficients (normal equations have
//! infinite memory, so a poisoned model would otherwise take thousands
//! of clean observations to dilute), and retrains from scratch. While
//! degraded, [`PowerPredictor::predict`] returns `None` and callers fall
//! back to the analytic `wm_power::evaluate` path; the flag clears only
//! when a full complement of fresh observations has rebuilt the model
//! *and* the rebuilt model's tracked errors look healthy again — so
//! persistently corrupted feedback keeps the model out of serving
//! indefinitely instead of oscillating it back in.

use std::collections::{BTreeMap, VecDeque};

use wm_analysis::{linear_predict, RidgeFitter};
use wm_kernels::KernelClass;
use wm_obs::LogHistogram;

use crate::features::{FeatureVector, FEATURE_DIM};

/// Per-architecture model table: one [`ArchModel`] per kernel class. The
/// nesting (rather than a `(String, KernelClass)` tuple key) keeps every
/// serving-path lookup allocation-free — `predict` runs once per fleet
/// device per placement under the scheduler's shared predictor lock.
type KernelModels = BTreeMap<KernelClass, ArchModel>;

/// Observations a model needs before it serves predictions.
pub const DEFAULT_MIN_OBSERVATIONS: u64 = 32;
/// Ridge penalty: features are O(1) by construction, so one small global
/// penalty conditions the collinear coordinates (e.g. constant dtype
/// descriptors in a single-dtype workload) without biasing the fit.
const LAMBDA: f64 = 1e-4;
/// Recent-error window length.
const DRIFT_WINDOW: usize = 32;
/// Minimum window fill before drift detection activates.
const DRIFT_MIN_WINDOW: usize = 16;
/// Windowed P95 APE (percentage points) above which a model trips.
const DRIFT_P95_PCT: f64 = 25.0;

/// One `(architecture, kernel)` key's model + error-tracking state.
#[derive(Debug, Clone)]
struct ArchModel {
    fitter: RidgeFitter,
    /// Coefficients solved from the current sufficient statistics.
    /// Refreshed on every observation (the only thing that changes them),
    /// so the prediction hot path — several calls per placement, under
    /// the scheduler's shared lock — is a dot product, not a Cholesky.
    beta: Option<Vec<f64>>,
    lifetime: LogHistogram,
    window: VecDeque<f64>,
    degraded: bool,
    drift_events: u64,
}

impl ArchModel {
    fn new() -> Self {
        Self {
            fitter: RidgeFitter::new(FEATURE_DIM, LAMBDA),
            beta: None,
            lifetime: LogHistogram::new(),
            window: VecDeque::with_capacity(DRIFT_WINDOW),
            degraded: false,
            drift_events: 0,
        }
    }

    /// P95 of the recent-error window (percentage points). Sorts a copy of
    /// the window — **reporting only** ([`PowerPredictor::stats`]); the
    /// per-observation path uses [`ArchModel::drift_exceeded`] instead.
    fn window_p95_pct(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = self.window.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Whether the window's P95 sits above [`DRIFT_P95_PCT`], as a plain
    /// O(W) count — "more than 5% of the window exceeds the threshold" is
    /// exactly `sorted[ceil(0.95·W)-1] > threshold`, without allocating or
    /// sorting anything. This runs once per observation under the
    /// scheduler's shared predictor lock, so it must stay cheap.
    fn drift_exceeded(&self) -> bool {
        let over = self
            .window
            .iter()
            .filter(|&&ape| ape > DRIFT_P95_PCT)
            .count();
        over as f64 > 0.05 * self.window.len() as f64
    }

    fn track_error(&mut self, ape_pct: f64) {
        self.lifetime.observe(ape_pct);
        if self.window.len() == DRIFT_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(ape_pct);
        if self.window.len() >= DRIFT_MIN_WINDOW && self.drift_exceeded() {
            // Drift: the observations contradict the model. Discard it —
            // sufficient statistics never forget, so retraining from
            // scratch beats waiting for clean data to outvote the bad.
            self.fitter = RidgeFitter::new(FEATURE_DIM, LAMBDA);
            self.beta = None;
            self.window.clear();
            self.degraded = true;
            self.drift_events += 1;
        }
    }
}

/// A served prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted total board power in the training target's units. The
    /// fleet trains on **boost-equivalent** watts (measured power with
    /// the governor's clock scaling undone), so consumers re-apply the
    /// DVFS governor — `wm_power::predicted_breakdown` — to recover the
    /// resolved operating point; a throttling workload predicts above
    /// TDP here and resolves back to it there.
    pub watts: f64,
    /// Training observations behind the model that produced it.
    pub observations: u64,
}

/// Snapshot of one `(architecture, kernel)` model's health.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Architecture key (the GPU marketing name).
    pub arch: String,
    /// Kernel-class key: the regime whose observations this model sees.
    pub kernel: KernelClass,
    /// Training observations accumulated.
    pub observations: u64,
    /// Prequential errors tracked (observations seen while ready).
    pub tracked_errors: u64,
    /// Lifetime P50 absolute percentage error, percentage points.
    pub p50_ape_pct: f64,
    /// Lifetime P95 absolute percentage error, percentage points.
    pub p95_ape_pct: f64,
    /// P95 APE over the recent drift window, percentage points.
    pub window_p95_ape_pct: f64,
    /// Times the drift detector tripped and reset this model.
    pub drift_events: u64,
    /// Whether drift detection currently disables this model (cleared
    /// once a full complement of fresh observations rebuilds it and the
    /// rebuilt model's tracked errors are back under the drift bound).
    pub degraded: bool,
    /// Whether [`PowerPredictor::predict`] would serve from this model.
    pub ready: bool,
}

/// One `(architecture, kernel)` model's complete persistable state: the
/// ridge sufficient statistics, the lifetime error histogram, and the
/// drift bookkeeping. Plain data — `wm-serve` turns it into JSON
/// and back; this crate stays format-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedModel {
    /// Architecture key (the GPU marketing name).
    pub arch: String,
    /// Kernel-class key.
    pub kernel: KernelClass,
    /// Training observations accumulated by the fitter.
    pub observations: u64,
    /// Row-major `FEATURE_DIM × FEATURE_DIM` Gram matrix `XᵀX`.
    pub xtx: Vec<f64>,
    /// `Xᵀy` vector, length `FEATURE_DIM`.
    pub xty: Vec<f64>,
    /// Lifetime APE histogram (percentage points).
    pub lifetime: LogHistogram,
    /// Recent-error window, oldest first (percentage points).
    pub window: Vec<f64>,
    /// Whether drift currently disables this model.
    pub degraded: bool,
    /// Times the drift detector tripped.
    pub drift_events: u64,
}

/// The whole predictor's persistable state ([`PowerPredictor::export_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorState {
    /// Feature dimensionality the sufficient statistics assume. A loader
    /// must reject state whose dimension disagrees with its own
    /// [`FEATURE_DIM`] — the Gram matrix cells would silently misalign.
    pub feature_dim: usize,
    /// Readiness threshold the predictor ran with.
    pub min_observations: u64,
    /// Every keyed model, in stable (sorted-key) order.
    pub models: Vec<SavedModel>,
}

/// Per-`(architecture, kernel)` online power models with drift-aware
/// serving.
#[derive(Debug, Clone)]
pub struct PowerPredictor {
    models: BTreeMap<String, KernelModels>,
    min_observations: u64,
}

impl Default for PowerPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl PowerPredictor {
    /// A predictor requiring [`DEFAULT_MIN_OBSERVATIONS`] per model.
    pub fn new() -> Self {
        Self::with_min_observations(DEFAULT_MIN_OBSERVATIONS)
    }

    /// A predictor with an explicit readiness threshold.
    ///
    /// # Panics
    ///
    /// Panics if `min_observations == 0` (an untrained model must never
    /// serve).
    pub fn with_min_observations(min_observations: u64) -> Self {
        assert!(min_observations > 0, "readiness threshold must be positive");
        Self {
            models: BTreeMap::new(),
            min_observations,
        }
    }

    /// The readiness threshold.
    pub fn min_observations(&self) -> u64 {
        self.min_observations
    }

    /// Feed one completed run back into the `(arch, kernel)` model:
    /// prequentially track the current model's error on it, then train on
    /// it. Observations from different kernel classes never mix — a GEMV
    /// measurement can only ever move the GEMV model.
    ///
    /// # Panics
    ///
    /// Panics unless `measured_w` is finite and positive.
    pub fn observe(
        &mut self,
        arch: &str,
        kernel: KernelClass,
        features: &FeatureVector,
        measured_w: f64,
    ) {
        assert!(
            measured_w.is_finite() && measured_w > 0.0,
            "measured power must be finite and positive, got {measured_w}"
        );
        let min = self.min_observations;
        if !self.models.contains_key(arch) {
            // Only a never-seen architecture pays for the key allocation.
            self.models.insert(arch.to_string(), KernelModels::new());
        }
        let Some(models) = self.models.get_mut(arch) else {
            // Inserted just above; defensive return rather than a panic.
            return;
        };
        let model = models.entry(kernel).or_insert_with(ArchModel::new);
        if model.fitter.observations() >= min {
            if let Some(beta) = &model.beta {
                let pred = linear_predict(beta, features.as_slice());
                let ape_pct = ((pred - measured_w) / measured_w).abs() * 100.0;
                if ape_pct.is_finite() {
                    model.track_error(ape_pct);
                }
            }
        }
        model.fitter.observe(features.as_slice(), measured_w);
        // One solve per observation keeps the prediction hot path (several
        // reads per placement) free of repeated Cholesky work.
        model.beta = model.fitter.solve();
        if model.degraded
            && model.fitter.observations() >= min
            && model.window.len() >= DRIFT_MIN_WINDOW
            && !model.drift_exceeded()
        {
            // Retrained after a drift reset AND the retrained model's
            // tracked errors look healthy: back in service. Observation
            // count alone is not enough — under persistently corrupted
            // feedback a count-only gate would oscillate the poisoned
            // model in and out of serving.
            model.degraded = false;
        }
    }

    /// Predict the board power for `features` on `(arch, kernel)`, in the
    /// units the model was trained on (the fleet uses boost-equivalent
    /// watts — see [`Prediction::watts`]).
    ///
    /// Returns `None` unless the *requesting kernel's* model is ready,
    /// healthy (not drift degraded), solvable, and produces a physically
    /// meaningful (positive, finite) wattage — every `None` is a signal
    /// to take the analytic `wm_power::evaluate` path instead. A GEMV
    /// request therefore never prices from a GEMM-only predictor: with no
    /// `(arch, Gemv)` model, this is `None` and the caller falls back.
    pub fn predict(
        &self,
        arch: &str,
        kernel: KernelClass,
        features: &FeatureVector,
    ) -> Option<Prediction> {
        let model = self.model(arch, kernel)?;
        if model.fitter.observations() < self.min_observations || model.degraded {
            return None;
        }
        self.raw_predict(arch, kernel, features)
    }

    /// Allocation-free keyed lookup (the serving hot path).
    fn model(&self, arch: &str, kernel: KernelClass) -> Option<&ArchModel> {
        self.models.get(arch)?.get(&kernel)
    }

    /// Predict ignoring readiness and drift gating (still requires a
    /// solvable model). For shadow evaluation and experiments; serving
    /// paths use [`PowerPredictor::predict`].
    pub fn raw_predict(
        &self,
        arch: &str,
        kernel: KernelClass,
        features: &FeatureVector,
    ) -> Option<Prediction> {
        let model = self.model(arch, kernel)?;
        let beta = model.beta.as_ref()?;
        let watts = linear_predict(beta, features.as_slice());
        if watts.is_finite() && watts > 0.0 {
            Some(Prediction {
                watts,
                observations: model.fitter.observations(),
            })
        } else {
            None
        }
    }

    /// Whether [`PowerPredictor::predict`] would serve for `(arch, kernel)`.
    pub fn ready(&self, arch: &str, kernel: KernelClass) -> bool {
        self.model(arch, kernel)
            .is_some_and(|m| m.fitter.observations() >= self.min_observations && !m.degraded)
    }

    /// Training observations accumulated for `(arch, kernel)`.
    pub fn observations(&self, arch: &str, kernel: KernelClass) -> u64 {
        self.model(arch, kernel)
            .map_or(0, |m| m.fitter.observations())
    }

    /// Export every model's complete state for persistence. The export is
    /// exact: [`PowerPredictor::from_state`] on the result rebuilds a
    /// predictor whose predictions, readiness, and health stats match the
    /// original (coefficients are re-solved from the same sufficient
    /// statistics).
    pub fn export_state(&self) -> PredictorState {
        let models = self
            .models
            .iter()
            .flat_map(|(arch, kernels)| {
                kernels.iter().map(|(kernel, m)| SavedModel {
                    arch: arch.clone(),
                    kernel: *kernel,
                    observations: m.fitter.observations(),
                    xtx: m.fitter.xtx().to_vec(),
                    xty: m.fitter.xty().to_vec(),
                    lifetime: m.lifetime.clone(),
                    window: m.window.iter().copied().collect(),
                    degraded: m.degraded,
                    drift_events: m.drift_events,
                })
            })
            .collect();
        PredictorState {
            feature_dim: FEATURE_DIM,
            min_observations: self.min_observations,
            models,
        }
    }

    /// Rebuild a predictor from exported state — the warm-start path that
    /// skips the training ramp after a daemon restart.
    ///
    /// Returns `Err` (never panics) on malformed state: wrong feature
    /// dimension, sufficient-statistic shape mismatches, non-finite
    /// values, or an over-long error window. Persisted files are external
    /// input.
    pub fn from_state(state: PredictorState) -> Result<Self, String> {
        if state.feature_dim != FEATURE_DIM {
            return Err(format!(
                "state has feature_dim {}, this build uses {FEATURE_DIM}",
                state.feature_dim
            ));
        }
        if state.min_observations == 0 {
            return Err("min_observations must be positive".to_string());
        }
        let mut models: BTreeMap<String, KernelModels> = BTreeMap::new();
        for saved in state.models {
            let key = format!("({}, {})", saved.arch, saved.kernel.label());
            let fitter = RidgeFitter::from_parts(
                FEATURE_DIM,
                LAMBDA,
                saved.xtx,
                saved.xty,
                saved.observations,
            )
            .map_err(|e| format!("model {key}: {e}"))?;
            if saved.window.len() > DRIFT_WINDOW {
                return Err(format!(
                    "model {key}: window has {} entries, cap is {DRIFT_WINDOW}",
                    saved.window.len()
                ));
            }
            if let Some(bad) = saved.window.iter().find(|w| !(w.is_finite() && **w >= 0.0)) {
                return Err(format!("model {key}: bad window entry {bad}"));
            }
            let beta = fitter.solve();
            let model = ArchModel {
                fitter,
                beta,
                lifetime: saved.lifetime,
                window: saved.window.into_iter().collect(),
                degraded: saved.degraded,
                drift_events: saved.drift_events,
            };
            if models
                .entry(saved.arch.clone())
                .or_default()
                .insert(saved.kernel, model)
                .is_some()
            {
                return Err(format!("model {key}: duplicate key"));
            }
        }
        Ok(Self {
            models,
            min_observations: state.min_observations,
        })
    }

    /// Health snapshot of every keyed model, in stable (sorted-key) order:
    /// architectures alphabetically, kernels in [`KernelClass`] order.
    pub fn stats(&self) -> Vec<ModelStats> {
        self.models
            .iter()
            .flat_map(|(arch, kernels)| {
                kernels.iter().map(|(kernel, m)| ModelStats {
                    arch: arch.clone(),
                    kernel: *kernel,
                    observations: m.fitter.observations(),
                    tracked_errors: m.lifetime.observations(),
                    p50_ape_pct: m.lifetime.quantile(0.5),
                    p95_ape_pct: m.lifetime.quantile(0.95),
                    window_p95_ape_pct: m.window_p95_pct(),
                    drift_events: m.drift_events,
                    degraded: m.degraded,
                    ready: m.fitter.observations() >= self.min_observations && !m.degraded,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::walk_first_seed;
    use wm_core::RunRequest;
    use wm_numerics::DType;
    use wm_patterns::{PatternKind, PatternSpec};

    const GEMM: KernelClass = KernelClass::Gemm;

    const ARCH: &str = "Test GPU";

    /// A synthetic but feature-faithful power law: watts respond linearly
    /// to toggle density and sparsity, like the real model's datapath.
    fn synthetic_watts(f: &FeatureVector) -> f64 {
        80.0 + 260.0 * feature(f, "toggle_density") + 90.0 * feature(f, "hamming_fraction")
            - 25.0 * feature(f, "zero_fraction")
    }

    /// The value of the feature called `name`.
    fn feature(f: &FeatureVector, name: &str) -> f64 {
        let i = FeatureVector::NAMES.iter().position(|n| *n == name);
        f.as_slice()[i.expect("a feature name")]
    }

    /// A request's features through its seed-0 walk.
    fn features_of(req: &RunRequest) -> FeatureVector {
        walk_first_seed(req).1
    }

    fn request(kind: PatternKind, seed: u64) -> RunRequest {
        RunRequest::new(DType::Fp16Tensor, 48, PatternSpec::new(kind)).with_base_seed(seed)
    }

    fn training_kinds() -> Vec<PatternKind> {
        vec![
            PatternKind::Gaussian,
            PatternKind::Sparse { sparsity: 0.2 },
            PatternKind::Sparse { sparsity: 0.6 },
            PatternKind::SortedRows { fraction: 0.5 },
            PatternKind::ValueSet { set_size: 8 },
            PatternKind::ZeroLsbs { count: 6 },
            PatternKind::ConstantRandom,
            PatternKind::Zeros,
        ]
    }

    fn train(p: &mut PowerPredictor, rounds: u64) {
        for round in 0..rounds {
            for (i, kind) in training_kinds().into_iter().enumerate() {
                let f = features_of(&request(kind, round * 100 + i as u64));
                p.observe(ARCH, GEMM, &f, synthetic_watts(&f));
            }
        }
    }

    #[test]
    fn untrained_model_declines_to_predict() {
        let p = PowerPredictor::new();
        let f = features_of(&request(PatternKind::Gaussian, 1));
        assert_eq!(p.predict(ARCH, GEMM, &f), None);
        assert!(!p.ready(ARCH, GEMM));
        assert_eq!(p.observations(ARCH, GEMM), 0);
    }

    #[test]
    fn trained_model_predicts_within_a_few_percent() {
        let mut p = PowerPredictor::new();
        train(&mut p, 8); // 64 observations
        assert!(p.ready(ARCH, GEMM));
        let unseen = features_of(&request(PatternKind::Sparse { sparsity: 0.45 }, 991));
        let pred = p
            .predict(ARCH, GEMM, &unseen)
            .expect("ready model must serve");
        let truth = synthetic_watts(&unseen);
        let ape = ((pred.watts - truth) / truth).abs();
        assert!(ape < 0.05, "APE {ape} on {} vs {}", pred.watts, truth);
        assert_eq!(pred.observations, 64);
        let stats = p.stats();
        assert_eq!(stats.len(), 1);
        assert!(stats[0].ready && !stats[0].degraded);
        assert!(stats[0].p95_ape_pct < 10.0, "{:?}", stats[0]);
    }

    #[test]
    fn corrupted_observations_trip_drift_and_retraining_restores() {
        let mut p = PowerPredictor::new();
        train(&mut p, 8);
        assert!(p.ready(ARCH, GEMM));
        // Adversarial feedback: measurements wildly off the feature law.
        for i in 0..16 {
            let f = features_of(&request(PatternKind::Gaussian, 5000 + i));
            p.observe(ARCH, GEMM, &f, synthetic_watts(&f) * 4.0);
        }
        assert!(!p.ready(ARCH, GEMM), "drift must disable the model");
        let f = features_of(&request(PatternKind::Gaussian, 7777));
        assert_eq!(p.predict(ARCH, GEMM, &f), None);
        let stats = p.stats();
        assert!(stats[0].degraded || stats[0].observations < p.min_observations());
        assert!(stats[0].drift_events >= 1, "{stats:?}");
        // The trip discarded the poisoned coefficients; a stream of honest
        // observations rebuilds the model (possibly through one more trip
        // that flushes the corrupted remainder) and restores service.
        for i in 0..160 {
            let f = features_of(&request(PatternKind::Gaussian, 9000 + i));
            p.observe(ARCH, GEMM, &f, synthetic_watts(&f));
        }
        assert!(p.ready(ARCH, GEMM), "{:?}", p.stats());
        let probe = features_of(&request(PatternKind::Gaussian, 424242));
        let pred = p.predict(ARCH, GEMM, &probe).unwrap();
        let truth = synthetic_watts(&probe);
        assert!(
            ((pred.watts - truth) / truth).abs() < 0.05,
            "retrained model off: {} vs {truth}",
            pred.watts
        );
    }

    #[test]
    fn persistent_corruption_keeps_the_model_out_of_serving() {
        // Under a *sustained* corrupted feed the model retrains on garbage
        // after every trip; the health-gated recovery must keep it out of
        // serving the whole time (a count-only gate would oscillate it
        // back in for a window's worth of traffic per cycle).
        let mut p = PowerPredictor::new();
        train(&mut p, 8);
        assert!(p.ready(ARCH, GEMM));
        for i in 0..200u64 {
            let f = features_of(&request(PatternKind::Gaussian, 20_000 + i));
            let w = synthetic_watts(&f) * if i % 2 == 0 { 5.0 } else { 0.2 };
            p.observe(ARCH, GEMM, &f, w);
            if i >= 2 {
                assert!(
                    !p.ready(ARCH, GEMM),
                    "poisoned model re-entered serving at i={i}"
                );
            }
        }
        assert!(p.stats()[0].drift_events >= 2, "{:?}", p.stats());
    }

    #[test]
    fn architectures_are_independent() {
        let mut p = PowerPredictor::new();
        train(&mut p, 8);
        let f = features_of(&request(PatternKind::Gaussian, 3));
        assert!(p.predict(ARCH, GEMM, &f).is_some());
        assert_eq!(p.predict("Other GPU", GEMM, &f), None);
        assert_eq!(p.observations("Other GPU", GEMM), 0);
    }

    #[test]
    fn kernel_classes_are_independent() {
        // A fully trained GEMM model must never answer for GEMV traffic:
        // the keys are disjoint, so the GEMV side reports untrained and
        // callers take the analytic fallback.
        let mut p = PowerPredictor::new();
        train(&mut p, 8);
        assert!(p.ready(ARCH, KernelClass::Gemm));
        let req = request(PatternKind::Gaussian, 77).with_kernel(KernelClass::Gemv);
        let f = features_of(&req);
        assert_eq!(p.predict(ARCH, KernelClass::Gemv, &f), None);
        assert!(!p.ready(ARCH, KernelClass::Gemv));
        assert_eq!(p.observations(ARCH, KernelClass::Gemv), 0);
        // Training the GEMV key opens it without touching the GEMM model.
        for i in 0..40u64 {
            let r = request(PatternKind::Gaussian, 500 + i).with_kernel(KernelClass::Gemv);
            let f = features_of(&r);
            let watts = 100.0 + 40.0 * feature(&f, "toggle_density");
            p.observe(ARCH, KernelClass::Gemv, &f, watts);
        }
        assert!(p.ready(ARCH, KernelClass::Gemv));
        let stats = p.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(
            (stats[0].kernel, stats[1].kernel),
            (KernelClass::Gemm, KernelClass::Gemv)
        );
        assert_eq!(p.observations(ARCH, KernelClass::Gemm), 64);
    }

    #[test]
    fn duplicated_observation_order_is_irrelevant() {
        let fs: Vec<FeatureVector> = [
            PatternKind::Gaussian,
            PatternKind::Sparse { sparsity: 0.5 },
            PatternKind::Zeros,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, k)| features_of(&request(k, i as u64)))
        .collect();
        let build = |order: &[usize]| {
            let mut p = PowerPredictor::with_min_observations(1);
            for &i in order {
                p.observe(ARCH, GEMM, &fs[i], synthetic_watts(&fs[i]));
            }
            p
        };
        let a = build(&[0, 0, 1, 1, 2, 2]);
        let b = build(&[2, 1, 0, 0, 1, 2]);
        let probe = features_of(&request(PatternKind::Gaussian, 50));
        let (pa, pb) = (
            a.raw_predict(ARCH, GEMM, &probe).unwrap().watts,
            b.raw_predict(ARCH, GEMM, &probe).unwrap().watts,
        );
        // Sufficient statistics are sums, so arrival order affects the
        // fit only through floating-point summation order — ulps, not
        // structure. (Bit-exactness holds for pairwise swaps; see the
        // wm-analysis fit tests.)
        assert!(
            ((pa - pb) / pb).abs() < 1e-9,
            "orders diverged: {pa} vs {pb}"
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nonpositive_measurements_rejected() {
        let mut p = PowerPredictor::new();
        let f = features_of(&request(PatternKind::Gaussian, 1));
        p.observe(ARCH, GEMM, &f, 0.0);
    }

    #[test]
    fn exported_state_round_trips_predictions_and_stats() {
        let mut p = PowerPredictor::new();
        train(&mut p, 8); // 64 observations, tracked errors past readiness
        let restored = PowerPredictor::from_state(p.export_state()).expect("own export loads");
        assert!(restored.ready(ARCH, GEMM));
        assert_eq!(restored.min_observations(), p.min_observations());
        assert_eq!(restored.stats(), p.stats());
        let probe = features_of(&request(PatternKind::Sparse { sparsity: 0.3 }, 4242));
        assert_eq!(
            restored.predict(ARCH, GEMM, &probe),
            p.predict(ARCH, GEMM, &probe)
        );
        // The restored predictor keeps learning where the original left off.
        let f = features_of(&request(PatternKind::Gaussian, 31_337));
        let mut restored = restored;
        restored.observe(ARCH, GEMM, &f, synthetic_watts(&f));
        assert_eq!(restored.observations(ARCH, GEMM), 65);
    }

    #[test]
    fn degraded_flag_survives_a_round_trip() {
        let mut p = PowerPredictor::new();
        train(&mut p, 8);
        for i in 0..16 {
            let f = features_of(&request(PatternKind::Gaussian, 5000 + i));
            p.observe(ARCH, GEMM, &f, synthetic_watts(&f) * 4.0);
        }
        assert!(!p.ready(ARCH, GEMM));
        let restored = PowerPredictor::from_state(p.export_state()).unwrap();
        assert!(
            !restored.ready(ARCH, GEMM),
            "a tripped model must not re-enter serving through persistence"
        );
        assert_eq!(restored.stats(), p.stats());
    }

    #[test]
    fn malformed_state_is_rejected() {
        let mut p = PowerPredictor::new();
        train(&mut p, 1);
        let good = p.export_state();

        let mut wrong_dim = good.clone();
        wrong_dim.feature_dim += 1;
        assert!(PowerPredictor::from_state(wrong_dim).is_err());

        let mut short_xtx = good.clone();
        short_xtx.models[0].xtx.pop();
        assert!(PowerPredictor::from_state(short_xtx).is_err());

        let mut nan_stat = good.clone();
        nan_stat.models[0].xty[0] = f64::NAN;
        assert!(PowerPredictor::from_state(nan_stat).is_err());

        let mut long_window = good.clone();
        long_window.models[0].window = vec![1.0; DRIFT_WINDOW + 1];
        assert!(PowerPredictor::from_state(long_window).is_err());

        let mut dup = good.clone();
        let copy = dup.models[0].clone();
        dup.models.push(copy);
        assert!(PowerPredictor::from_state(dup).is_err());

        assert!(PowerPredictor::from_state(good).is_ok());
    }
}
