//! Predictor persistence: the learned power models' sufficient
//! statistics serialized to disk and reloaded behind a version +
//! staleness check.
//!
//! The online ridge models take a ~[`DEFAULT_MIN_OBSERVATIONS`]-run
//! training ramp per `(architecture, kernel)` key before they serve; a
//! daemon restart would re-pay that ramp on live traffic. Persistence
//! removes it: graceful drain flushes
//! [`wm_fleet::Scheduler::predictor_snapshot`] here, startup reloads it,
//! and a restarted server answers `predict` with `"source": "learned"`
//! from the first request.
//!
//! The format is the workspace's own `wm_fleet::json` (the repo is
//! hermetic — no serde): one `predictor.json` per state directory with a
//! `version`, the `feature_dim` the Gram matrices assume, a
//! `saved_unix_s` stamp, and per-model sufficient statistics plus the
//! lifetime error histogram (its `[upper_edge, count]` buckets and
//! extrema). Loading is strict where it must be (wrong version, wrong
//! feature dimension, malformed statistics or histogram, stale file →
//! [`LoadOutcome::Rejected`], never a silently wrong model) and lenient
//! where it can be (a missing file is simply a cold start). Writes go
//! through a temp file + rename so a crash mid-flush can never leave a
//! truncated state file behind.
//!
//! [`DEFAULT_MIN_OBSERVATIONS`]: wm_predict::DEFAULT_MIN_OBSERVATIONS

use std::path::{Path, PathBuf};

use wm_fleet::json::{obj, Json};
use wm_obs::LogHistogram;
use wm_predict::{KernelClass, PredictorState, SavedModel};

/// Format version written to (and required of) every state file. It
/// names both the feature set the sufficient statistics are over and the
/// layout: version 2 has the 15 features left after the two entropy
/// features were deleted (version 1 had 17), and version 3 stores the
/// lifetime error histogram as log buckets where version 2 stored 401
/// linear bin counts. A file of any other version is rejected, even
/// where its width would match.
pub const STATE_VERSION: u64 = 3;
/// File name inside the state directory.
pub const STATE_FILE: &str = "predictor.json";
/// State older than this (by its own `saved_unix_s` stamp) is rejected:
/// week-old coefficients describe a fleet that may have drifted, and a
/// cold start only costs the training ramp.
pub const MAX_STATE_AGE_S: u64 = 7 * 24 * 3600;

/// The outcome of [`load_predictor`].
#[derive(Debug)]
pub enum LoadOutcome {
    /// A valid, fresh state file: the predictor state it held.
    Loaded(PredictorState),
    /// No state file — a cold start, not an error.
    Missing,
    /// A state file that must not be used, and why (version or
    /// feature-dimension mismatch, malformed statistics, staleness, an
    /// unreadable file).
    Rejected(String),
}

fn model_json(m: &SavedModel) -> Json {
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    obj(vec![
        ("arch", Json::Str(m.arch.clone())),
        ("kernel", Json::Str(m.kernel.label().to_string())),
        ("observations", Json::Num(m.observations as f64)),
        ("xtx", nums(&m.xtx)),
        ("xty", nums(&m.xty)),
        (
            "lifetime",
            Json::Arr(
                m.lifetime
                    .buckets()
                    .map(|(edge, count)| nums(&[edge, count as f64]))
                    .collect(),
            ),
        ),
        ("lifetime_min", Json::Num(m.lifetime.min())),
        ("lifetime_max", Json::Num(m.lifetime.max())),
        ("window", nums(&m.window)),
        ("degraded", Json::Bool(m.degraded)),
        ("drift_events", Json::Num(m.drift_events as f64)),
    ])
}

/// Serialize `state` to `dir/predictor.json`, stamped with
/// `now_unix_s`. Creates the directory if needed; writes via a temp
/// file then renames, so the state file is always either the old or the
/// new version, never a torn write. Returns the final path.
pub fn save_predictor(
    dir: &Path,
    state: &PredictorState,
    now_unix_s: u64,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let doc = obj(vec![
        ("version", Json::Num(STATE_VERSION as f64)),
        ("feature_dim", Json::Num(state.feature_dim as f64)),
        ("saved_unix_s", Json::Num(now_unix_s as f64)),
        ("min_observations", Json::Num(state.min_observations as f64)),
        (
            "models",
            Json::Arr(state.models.iter().map(model_json).collect()),
        ),
    ]);
    let path = dir.join(STATE_FILE);
    let tmp = dir.join(format!("{STATE_FILE}.tmp"));
    std::fs::write(&tmp, format!("{doc}\n"))?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer {key:?}"))
}

fn field_f64_arr(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array {key:?}"))?;
    arr.iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("non-numeric entry in {key:?}"))
        })
        .collect()
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric {key:?}"))
}

/// The lifetime histogram: `"lifetime"` holds its `[upper_edge, count]`
/// buckets, `"lifetime_min"`/`"lifetime_max"` its extrema.
fn field_lifetime(v: &Json) -> Result<LogHistogram, String> {
    let buckets = v
        .get("lifetime")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array \"lifetime\"")?
        .iter()
        .map(|pair| match pair.as_arr() {
            Some([edge, count]) => edge.as_f64().zip(count.as_u64()),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("\"lifetime\" entry is not an [edge, count] pair")?;
    LogHistogram::from_parts(
        &buckets,
        field_f64(v, "lifetime_min")?,
        field_f64(v, "lifetime_max")?,
    )
    .map_err(|e| format!("\"lifetime\": {e}"))
}

fn parse_model(v: &Json) -> Result<SavedModel, String> {
    let arch = v
        .get("arch")
        .and_then(Json::as_str)
        .ok_or("missing model \"arch\"")?
        .to_string();
    let kernel_label = v
        .get("kernel")
        .and_then(Json::as_str)
        .ok_or("missing model \"kernel\"")?;
    let kernel = KernelClass::parse(kernel_label)
        .ok_or_else(|| format!("unknown kernel class {kernel_label:?}"))?;
    Ok(SavedModel {
        arch,
        kernel,
        observations: field_u64(v, "observations")?,
        xtx: field_f64_arr(v, "xtx")?,
        xty: field_f64_arr(v, "xty")?,
        lifetime: field_lifetime(v)?,
        window: field_f64_arr(v, "window")?,
        degraded: v
            .get("degraded")
            .and_then(Json::as_bool)
            .ok_or("missing model \"degraded\"")?,
        drift_events: field_u64(v, "drift_events")?,
    })
}

/// Read `dir/predictor.json` and parse it into a [`PredictorState`],
/// judged against `now_unix_s` for staleness.
///
/// The returned state has passed the *format-level* checks (version,
/// staleness, field shapes, a well-formed lifetime histogram); the
/// semantic checks — Gram-matrix sizes, finite statistics, window
/// bounds — happen when the caller feeds it to
/// [`wm_fleet::Scheduler::restore_predictor`], which rejects without
/// touching the live predictor.
pub fn load_predictor(dir: &Path, now_unix_s: u64) -> LoadOutcome {
    let path = dir.join(STATE_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Missing,
        Err(e) => return LoadOutcome::Rejected(format!("cannot read {path:?}: {e}")),
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return LoadOutcome::Rejected(format!("{path:?} is not JSON: {e}")),
    };
    match parse_state(&doc, now_unix_s) {
        Ok(state) => LoadOutcome::Loaded(state),
        Err(msg) => LoadOutcome::Rejected(format!("{path:?}: {msg}")),
    }
}

fn parse_state(doc: &Json, now_unix_s: u64) -> Result<PredictorState, String> {
    let version = field_u64(doc, "version")?;
    if version != STATE_VERSION {
        return Err(format!(
            "state version {version}, this build reads {STATE_VERSION}"
        ));
    }
    let saved = field_u64(doc, "saved_unix_s")?;
    // A future stamp (clock stepped back) is tolerated; only age rejects.
    if now_unix_s.saturating_sub(saved) > MAX_STATE_AGE_S {
        return Err(format!(
            "state is {}s old, cap is {MAX_STATE_AGE_S}s — cold start instead",
            now_unix_s - saved
        ));
    }
    let models = doc
        .get("models")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array \"models\"")?
        .iter()
        .map(parse_model)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PredictorState {
        feature_dim: field_u64(doc, "feature_dim")? as usize,
        min_observations: field_u64(doc, "min_observations")?,
        models,
    })
}

/// Seconds since the Unix epoch, saturating at 0 on a pre-epoch clock.
pub fn unix_now_s() -> u64 {
    // audit:allow(determinism): snapshot metadata timestamp only; never feeds canonical request output
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_fleet::{Fleet, FleetJob, Scheduler};
    use wm_predict::PowerPredictor;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wm_serve_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Train a real scheduler's predictor with pinned runs, export it,
    /// and round-trip through disk.
    #[test]
    fn scheduler_state_round_trips_through_disk() {
        let sched = Scheduler::with_workers(Fleet::from_catalog(), 2);
        for seed in 0..3u64 {
            let req = wm_core::RunRequest::new(
                wm_numerics::DType::Fp32,
                32,
                wm_patterns::PatternSpec::new(wm_patterns::PatternKind::Gaussian),
            )
            .with_base_seed(seed)
            .with_seeds(1)
            .with_sampling(wm_kernels::Sampling::Lattice { rows: 4, cols: 4 });
            sched
                .submit(FleetJob::pinned(req, 0))
                .recv()
                .expect("training run");
        }
        let state = sched.predictor_snapshot();
        assert!(!state.models.is_empty(), "training populated a model");

        let dir = tmp_dir("roundtrip");
        let now = 1_700_000_000;
        save_predictor(&dir, &state, now).unwrap();
        let LoadOutcome::Loaded(loaded) = load_predictor(&dir, now + 60) else {
            panic!("fresh state must load");
        };
        assert_eq!(loaded, state, "byte-exact sufficient statistics");
        // And the scheduler accepts it back.
        sched.restore_predictor(loaded).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_stale_and_corrupt_states_are_distinguished() {
        let dir = tmp_dir("reject");
        assert!(matches!(load_predictor(&dir, 1000), LoadOutcome::Missing));

        let state = PowerPredictor::new().export_state();
        let now = 1_700_000_000;
        save_predictor(&dir, &state, now).unwrap();
        assert!(matches!(load_predictor(&dir, now), LoadOutcome::Loaded(_)));
        // Too old by its own stamp: rejected, not silently served.
        assert!(matches!(
            load_predictor(&dir, now + MAX_STATE_AGE_S + 1),
            LoadOutcome::Rejected(_)
        ));
        // A future stamp (clock stepped back) still loads.
        assert!(matches!(
            load_predictor(&dir, now - 100),
            LoadOutcome::Loaded(_)
        ));

        std::fs::write(dir.join(STATE_FILE), "{\"version\": 999}").unwrap();
        assert!(matches!(
            load_predictor(&dir, now),
            LoadOutcome::Rejected(_)
        ));
        std::fs::write(dir.join(STATE_FILE), "not json").unwrap();
        assert!(matches!(
            load_predictor(&dir, now),
            LoadOutcome::Rejected(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One model whose lifetime histogram holds four errors, one of them
    /// exactly zero (its bucket edge is subnormal).
    fn state_with_lifetime() -> PredictorState {
        let mut lifetime = LogHistogram::new();
        for ape in [0.0, 0.5, 2.0, 7.25] {
            lifetime.observe(ape);
        }
        let dim = wm_predict::FEATURE_DIM;
        PredictorState {
            feature_dim: dim,
            min_observations: 32,
            models: vec![SavedModel {
                arch: "Test GPU".to_string(),
                kernel: KernelClass::Gemm,
                observations: 0,
                xtx: vec![0.0; dim * dim],
                xty: vec![0.0; dim],
                lifetime,
                window: Vec::new(),
                degraded: false,
                drift_events: 0,
            }],
        }
    }

    #[test]
    fn malformed_lifetime_entries_are_rejected_not_panicked() {
        let dir = tmp_dir("lifetime");
        let state = state_with_lifetime();
        let now = 1_700_000_000;
        let path = save_predictor(&dir, &state, now).unwrap();
        let LoadOutcome::Loaded(loaded) = load_predictor(&dir, now) else {
            panic!("a well-formed histogram must load");
        };
        assert_eq!(loaded, state, "the histogram round-trips exactly");

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"lifetime\":["), "{text}");
        // Not an [edge, count] pair, then pairs with a bad edge or count.
        for bad in [
            "[1]", "[1,1,1]", "\"x\"", "[null,1]", "[1,-1]", "[1.03,1]", "[0,1]", "[-1,1]", "[1,1]",
        ] {
            let broken = text.replace("\"lifetime\":[", &format!("\"lifetime\":[{bad},"));
            std::fs::write(&path, broken).unwrap();
            match load_predictor(&dir, now) {
                LoadOutcome::Rejected(why) => assert!(why.contains("lifetime"), "{bad}: {why}"),
                other => panic!("{bad}: must be rejected, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
