//! Power-capped placement: which device, at which clock.
//!
//! The paper's core result — dynamic power is input-dependent — makes
//! placement input-dependent too: a sorted/sparse matrix can fit on a
//! tightly capped device at a high clock where a random one cannot. The
//! policy prices the request on every candidate device, asks
//! [`wm_optimizer::plan_dvfs`] for the energy-minimal clock on each, and
//! picks the cheapest device whose planned power fits under both its own
//! cap and the fleet power budget. Two pricing paths exist:
//!
//! * **analytic** ([`place`]) — evaluate the full power model per device
//!   from the request's seed-0 switching activity (device-independent, so
//!   one operand walk serves every device);
//! * **learned** ([`place_learned`]) — skip the activity records: ask the
//!   `wm-predict` [`PowerPredictor`] for each device's power from cheap
//!   input features, and rebuild a plannable breakdown with
//!   [`wm_power::predicted_breakdown`]. Models are keyed by
//!   `(architecture, kernel class)` — the requesting kernel's model must
//!   be trained and healthy on every device; otherwise callers fall back
//!   to the analytic path, so prediction is an acceleration, never a
//!   correctness dependency (and GEMV traffic never prices from a
//!   GEMM-only model).
//!
//! Placement never consults the instantaneous load: the analytic path is
//! a pure function of `(request activity, fleet)`, the learned path of
//! `(request features, fleet, predictor snapshot)`. For a fixed predictor
//! state every answer is deterministic regardless of worker count or
//! timing; the scheduler enforces the budget at execution time by
//! delaying (not re-routing) jobs whose device is busy or whose draw
//! would overshoot the fleet budget. Exact energy ties (homogeneous
//! fleets) are broken by the request's key
//! ([`crate::hash::request_key`]), which spreads distinct requests across
//! twin devices and places requests that differ only in seed or
//! iteration counts alike. An exact repeat never reaches placement: the
//! scheduler answers it from the memo cache first.

use wm_core::RunRequest;
use wm_kernels::ActivityRecord;
use wm_optimizer::{plan_dvfs, DvfsPlan};
use wm_power::{evaluate_group, group_runtime, predicted_breakdown, PowerBreakdown};
use wm_predict::{FeatureVector, PowerPredictor};

use crate::device::Fleet;

/// Which pricing path produced a placement's power estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionSource {
    /// The `wm-predict` learned model.
    Learned,
    /// The analytic activity-probe + `wm_power::evaluate` path.
    Analytic,
}

impl PredictionSource {
    /// Stable lowercase label (used by the `wattd` protocol).
    pub const fn label(self) -> &'static str {
        match self {
            PredictionSource::Learned => "learned",
            PredictionSource::Analytic => "analytic",
        }
    }
}

impl std::fmt::Display for PredictionSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The placement decision for one job.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Chosen device index in the fleet.
    pub device: usize,
    /// The DVFS operating point, when the baseline was unthrottled.
    /// `None` means the device throttles on this input and runs at the
    /// governor-resolved clock instead.
    pub plan: Option<DvfsPlan>,
    /// Power this job is expected to draw on the chosen device, watts.
    pub planned_power_w: f64,
    /// Expected per-iteration energy on the chosen device, joules.
    pub planned_energy_j: f64,
    /// Estimated board power at the governor-resolved clock on the chosen
    /// device, watts — the number comparable to the measured power the
    /// run will report (runs execute at the governor clock).
    pub predicted_w: f64,
    /// Which pricing path produced `predicted_w`.
    pub source: PredictionSource,
}

/// Why no device could take a job.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// No device cap (or the fleet budget) admits this job at any clock:
    /// it can never run and is rejected, not queued.
    NeverFits {
        /// Lowest planned power over all devices, watts.
        cheapest_w: f64,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NeverFits { cheapest_w } => write!(
                f,
                "no device cap or fleet budget admits this job (cheapest placement draws {cheapest_w:.1} W)"
            ),
        }
    }
}

/// One device's candidate operating point for a job.
#[derive(Debug, Clone)]
struct Candidate {
    device: usize,
    plan: Option<DvfsPlan>,
    power_w: f64,
    energy_j: f64,
    /// Board power at the governor-resolved clock (what a run measures).
    resolved_w: f64,
}

/// Price one device from a (real or predicted) boost-clock breakdown.
///
/// `vm_offset_w` is the device's process-variation offset: the analytic
/// model excludes it (it evaluates the architectural part alone) while a
/// run's *measured* power includes it, so the resolved estimate adds it
/// back for the analytic path. Learned predictions train on measured
/// power and therefore carry the offset already — they pass `0.0`.
fn candidate_from_breakdown(
    device: usize,
    gpu: &wm_gpu::GpuSpec,
    breakdown: &PowerBreakdown,
    deadline_s: Option<f64>,
    vm_offset_w: f64,
) -> Candidate {
    if breakdown.throttled {
        // The governor already owns the clock; take its operating point
        // as-is.
        Candidate {
            device,
            plan: None,
            power_w: breakdown.total_w,
            energy_j: breakdown.energy_per_iter_j,
            resolved_w: breakdown.total_w + vm_offset_w,
        }
    } else {
        let plan = plan_dvfs(gpu, breakdown, deadline_s);
        Candidate {
            device,
            power_w: plan.power_w,
            energy_j: plan.energy_per_iter_j,
            plan: Some(plan),
            resolved_w: breakdown.total_w + vm_offset_w,
        }
    }
}

/// Feasibility filter + minimal-energy selection + salted tie-break,
/// shared by the analytic and learned paths.
fn select(
    fleet: &Fleet,
    cands: &[Candidate],
    tie_salt: u64,
    source: PredictionSource,
) -> Result<Placement, PlacementError> {
    let budget = fleet.power_budget_w();
    let feasible: Vec<&Candidate> = cands
        .iter()
        .filter(|c| {
            // A candidate whose device id the fleet no longer knows is
            // simply infeasible — don't panic on a stale id.
            fleet
                .device(c.device)
                .is_some_and(|dev| c.power_w <= dev.power_cap_w && c.power_w <= budget)
        })
        .collect();

    if feasible.is_empty() {
        return Err(PlacementError::NeverFits {
            cheapest_w: cands
                .iter()
                .map(|c| c.power_w)
                .fold(f64::INFINITY, f64::min),
        });
    }

    let best_energy = feasible
        .iter()
        .map(|c| c.energy_j)
        .fold(f64::INFINITY, f64::min);
    let ties: Vec<&&Candidate> = feasible
        .iter()
        .filter(|c| c.energy_j == best_energy)
        .collect();
    let chosen = ties[(tie_salt % ties.len() as u64) as usize];

    Ok(Placement {
        device: chosen.device,
        plan: chosen.plan,
        planned_power_w: chosen.power_w,
        planned_energy_j: chosen.energy_j,
        predicted_w: chosen.resolved_w,
        source,
    })
}

/// Choose a device and clock for a job with per-member switching activity
/// `activity` — one record per group member, or a single record for a
/// plain request (the analytic pricing path). Grouped requests are priced
/// as a unit: member energies and runtimes sum and the governor resolves
/// once per device ([`wm_power::evaluate_group`]).
///
/// Feasibility: planned power must fit under the device's own cap *and*
/// the fleet-wide budget. Among feasible devices the minimal per-iteration
/// energy wins; exact ties (identical devices) are broken by
/// `tie_salt % ties`, so callers passing the request's canonical key get
/// stable, cache-friendly spreading.
pub fn place(
    fleet: &Fleet,
    activity: &[ActivityRecord],
    tie_salt: u64,
    deadline_s: Option<f64>,
) -> Result<Placement, PlacementError> {
    let cands: Vec<Candidate> = fleet
        .devices()
        .iter()
        .map(|dev| {
            let breakdown = evaluate_group(&dev.gpu, activity);
            candidate_from_breakdown(dev.id, &dev.gpu, &breakdown, deadline_s, dev.vm.offset_w)
        })
        .collect();
    select(fleet, &cands, tie_salt, PredictionSource::Analytic)
}

/// Choose a device and clock from *learned* power predictions — no
/// activity probe, no simulation.
///
/// Predictions come from the **requesting kernel's** keyed models: a
/// device is learned-priced only when its `(architecture, kernel)` model
/// is ready and healthy, so GEMV traffic on a fleet that has only ever
/// learned GEMM never prices from the wrong regime — it falls back.
///
/// Returns `None` unless the predictor serves a healthy prediction for
/// **every** device in the fleet (all-or-nothing: pricing some devices
/// from the model and others from the probe would bias selection toward
/// whichever path errs low). On `None` the caller falls back to
/// [`place`]. `Some(Err(..))` means the learned admission control itself
/// rejected the job on every device.
pub fn place_learned(
    fleet: &Fleet,
    predictor: &PowerPredictor,
    features: &FeatureVector,
    req: &RunRequest,
    tie_salt: u64,
    deadline_s: Option<f64>,
) -> Option<Result<Placement, PlacementError>> {
    let members = req.member_dims();
    let mut cands = Vec::with_capacity(fleet.len());
    for dev in fleet.devices() {
        let prediction = predictor.predict(dev.gpu.name, req.kernel, features)?;
        let rt = group_runtime(&dev.gpu, req.kernel, &members, req.dtype);
        let breakdown = predicted_breakdown(&dev.gpu, &rt, prediction.watts);
        cands.push(candidate_from_breakdown(
            dev.id, &dev.gpu, &breakdown, deadline_s, 0.0,
        ));
    }
    Some(select(fleet, &cands, tie_salt, PredictionSource::Learned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Fleet;
    use wm_gpu::spec::{a100_pcie, rtx6000};
    use wm_kernels::{KernelClass, Sampling};
    use wm_numerics::DType;
    use wm_patterns::{PatternKind, PatternSpec};
    use wm_predict::walk_first_seed;

    fn quick_req(kind: PatternKind) -> RunRequest {
        RunRequest::new(DType::Fp16Tensor, 256, PatternSpec::new(kind))
            .with_seeds(1)
            .with_sampling(Sampling::Lattice { rows: 8, cols: 8 })
    }

    /// The analytic path's input: every member's seed-0 activity.
    fn probe(req: &RunRequest) -> Vec<ActivityRecord> {
        walk_first_seed(req).0
    }

    #[test]
    fn probe_is_deterministic() {
        let req = quick_req(PatternKind::Gaussian);
        assert_eq!(probe(&req), probe(&req));
    }

    #[test]
    fn placement_is_a_pure_function() {
        let fleet = Fleet::from_catalog();
        let act = probe(&quick_req(PatternKind::Gaussian));
        let a = place(&fleet, &act, 42, None).unwrap();
        let b = place(&fleet, &act, 42, None).unwrap();
        assert_eq!(a.device, b.device);
        assert_eq!(a.planned_power_w, b.planned_power_w);
    }

    #[test]
    fn placed_power_fits_cap_and_budget() {
        let fleet = Fleet::from_catalog();
        let act = probe(&quick_req(PatternKind::Gaussian));
        let p = place(&fleet, &act, 0, None).unwrap();
        let dev = fleet.device(p.device).unwrap();
        assert!(p.planned_power_w > 0.0);
        assert!(p.planned_power_w <= dev.power_cap_w);
        assert!(p.planned_power_w <= fleet.power_budget_w());
    }

    #[test]
    fn tie_salt_spreads_twin_devices() {
        let fleet = Fleet::homogeneous(a100_pcie(), 4);
        let act = probe(&quick_req(PatternKind::Gaussian));
        let devices: Vec<usize> = (0u64..8)
            .map(|salt| place(&fleet, &act, salt, None).unwrap().device)
            .collect();
        // All four twins must appear across the salts (salt mod 4 rotation).
        for d in 0..4 {
            assert!(devices.contains(&d), "device {d} never chosen: {devices:?}");
        }
        // And the same salt always maps to the same device.
        assert_eq!(
            place(&fleet, &act, 3, None).unwrap().device,
            place(&fleet, &act, 3, None).unwrap().device
        );
    }

    #[test]
    fn never_fits_when_caps_are_below_any_plan() {
        // Cap barely above idle: no GEMM fits under it.
        let gpu = a100_pcie();
        let idle = gpu.idle_watts;
        let fleet = Fleet::builder().device_with(gpu, 0, idle + 1.0).build();
        let act = probe(&quick_req(PatternKind::Gaussian));
        match place(&fleet, &act, 0, None) {
            Err(PlacementError::NeverFits { cheapest_w }) => assert!(cheapest_w > idle + 1.0),
            other => panic!("expected NeverFits, got {other:?}"),
        }
    }

    #[test]
    fn tight_fleet_budget_rejects_at_admission() {
        // A budget barely above idle (A100: 52 W) admits nothing at any
        // clock, so admission must fail outright.
        let gpu = a100_pcie();
        let budget = gpu.idle_watts + 2.0;
        let fleet = Fleet::builder().device(gpu).power_budget_w(budget).build();
        let act = probe(&quick_req(PatternKind::Gaussian));
        assert!(matches!(
            place(&fleet, &act, 0, None),
            Err(PlacementError::NeverFits { .. })
        ));
    }

    #[test]
    fn low_activity_inputs_open_tighter_caps() {
        // A cap that rejects Gaussian inputs can still admit zeros — the
        // paper's input-dependence, surfaced as a placement decision. The
        // cap is derived from the model: the midpoint of the two patterns'
        // planned draws on an uncapped device.
        let uncapped = Fleet::builder().device(a100_pcie()).build();
        let dense = probe(&quick_req(PatternKind::Gaussian));
        let zeros = probe(&quick_req(PatternKind::Zeros));
        let p_dense = place(&uncapped, &dense, 0, None).unwrap().planned_power_w;
        let p_zeros = place(&uncapped, &zeros, 0, None).unwrap().planned_power_w;
        assert!(
            p_zeros < p_dense,
            "zeros {p_zeros} W must plan below gaussian {p_dense} W"
        );
        let cap = (p_zeros + p_dense) / 2.0;
        let capped = Fleet::builder().device_with(a100_pcie(), 0, cap).build();
        assert!(
            place(&capped, &zeros, 0, None).is_ok(),
            "zeros should fit a {cap:.1} W cap"
        );
        assert!(
            place(&capped, &dense, 0, None).is_err(),
            "gaussian should not fit a {cap:.1} W cap at any clock"
        );
    }

    #[test]
    fn heterogeneous_fleet_prefers_lower_energy() {
        let fleet = Fleet::builder()
            .device(a100_pcie())
            .device(rtx6000())
            .build();
        let act = probe(&quick_req(PatternKind::Gaussian));
        let p = place(&fleet, &act, 0, None).unwrap();
        let cands_energy: Vec<f64> = fleet
            .devices()
            .iter()
            .map(|d| {
                let b = evaluate_group(&d.gpu, &act);
                if b.throttled {
                    b.energy_per_iter_j
                } else {
                    plan_dvfs(&d.gpu, &b, None).energy_per_iter_j
                }
            })
            .collect();
        let other = 1 - p.device;
        assert!(cands_energy[p.device] <= cands_energy[other]);
    }

    /// Train a predictor for every device in `fleet` from the analytic
    /// path itself: features in, probed-and-evaluated watts out.
    fn train_from_analytic(fleet: &Fleet, rounds: u64) -> wm_predict::PowerPredictor {
        let mut p = wm_predict::PowerPredictor::new();
        let kinds = [
            PatternKind::Gaussian,
            PatternKind::Sparse { sparsity: 0.3 },
            PatternKind::Sparse { sparsity: 0.7 },
            PatternKind::SortedRows { fraction: 0.8 },
            PatternKind::ValueSet { set_size: 8 },
            PatternKind::ConstantRandom,
            PatternKind::ZeroLsbs { count: 6 },
            PatternKind::Zeros,
        ];
        for round in 0..rounds {
            for (i, kind) in kinds.into_iter().enumerate() {
                let req = quick_req(kind).with_base_seed(round * 100 + i as u64);
                let (act, features) = walk_first_seed(&req);
                for dev in fleet.devices() {
                    let watts = evaluate_group(&dev.gpu, &act).total_w;
                    p.observe(dev.gpu.name, KernelClass::Gemm, &features, watts);
                }
            }
        }
        p
    }

    #[test]
    fn learned_placement_is_all_or_nothing() {
        let fleet = Fleet::builder()
            .device(a100_pcie())
            .device(rtx6000())
            .build();
        let req = quick_req(PatternKind::Gaussian);
        let features = walk_first_seed(&req).1;
        // Untrained predictor: no learned placement.
        let empty = wm_predict::PowerPredictor::new();
        assert!(place_learned(&fleet, &empty, &features, &req, 0, None).is_none());
        // Training only one of the two architectures is still a fallback.
        let mut half = wm_predict::PowerPredictor::with_min_observations(1);
        half.observe(a100_pcie().name, KernelClass::Gemm, &features, 250.0);
        assert!(place_learned(&fleet, &half, &features, &req, 0, None).is_none());
    }

    #[test]
    fn learned_placement_tracks_the_analytic_path() {
        let fleet = Fleet::builder()
            .device(a100_pcie())
            .device(rtx6000())
            .build();
        let predictor = train_from_analytic(&fleet, 5); // 40 observations/arch
        let req = quick_req(PatternKind::Sparse { sparsity: 0.45 }).with_base_seed(0xFEED);
        let (act, features) = walk_first_seed(&req);
        let learned = place_learned(&fleet, &predictor, &features, &req, 7, None)
            .expect("both architectures are trained")
            .expect("an uncapped fleet admits everything");
        assert_eq!(learned.source, PredictionSource::Learned);
        let analytic = place(&fleet, &act, 7, None).unwrap();
        assert_eq!(analytic.source, PredictionSource::Analytic);
        assert_eq!(
            learned.device, analytic.device,
            "a trained model must reproduce the analytic choice"
        );
        let ape = (learned.predicted_w - analytic.predicted_w).abs() / analytic.predicted_w;
        assert!(
            ape < 0.15,
            "learned {} W vs analytic {} W",
            learned.predicted_w,
            analytic.predicted_w
        );
    }

    #[test]
    fn learned_admission_rejects_under_tight_caps() {
        // A cap below anything the model predicts must reject at
        // admission, exactly like the analytic path.
        let gpu = a100_pcie();
        let idle = gpu.idle_watts;
        let fleet = Fleet::builder().device_with(gpu, 0, idle + 1.0).build();
        let predictor = train_from_analytic(&fleet, 5);
        let req = quick_req(PatternKind::Gaussian).with_base_seed(0xCAFE);
        let features = walk_first_seed(&req).1;
        let outcome = place_learned(&fleet, &predictor, &features, &req, 0, None).expect("trained");
        assert!(matches!(outcome, Err(PlacementError::NeverFits { .. })));
    }

    #[test]
    fn deadline_shifts_the_operating_point() {
        let fleet = Fleet::builder().device(a100_pcie()).build();
        let act = probe(&quick_req(PatternKind::Gaussian));
        let free = place(&fleet, &act, 0, None).unwrap();
        let plan = free.plan.as_ref().expect("unthrottled baseline");
        // A deadline just above the *boost* iteration time (from the
        // unthrottled breakdown) forces the clock back toward boost.
        let boost_t_iter = evaluate_group(&fleet.device(0).unwrap().gpu, &act).t_iter_s;
        let tight = place(&fleet, &act, 0, Some(boost_t_iter * 1.001)).unwrap();
        let tight_plan = tight.plan.as_ref().unwrap();
        assert!(
            tight_plan.clock_scale > plan.clock_scale,
            "deadline-bound {} vs free {}",
            tight_plan.clock_scale,
            plan.clock_scale
        );
        assert!(tight_plan.deadline_bound);
    }
}
