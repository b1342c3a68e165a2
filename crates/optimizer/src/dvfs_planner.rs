//! Input-aware DVFS planning: choosing the clock from the data.
//!
//! The energy of one kernel iteration at clock scale `s` is
//!
//! `E(s) = (P_static + P_dyn·s³) · (t_kernel/s + t_launch)`
//!
//! whose unconstrained minimiser balances static energy (favours running
//! fast and idling) against dynamic energy (favours slowing down):
//! `s* ≈ cbrt(P_static / (2·P_dyn))` for launch-free kernels. Because the
//! paper shows `P_dyn` is *input-dependent*, the optimal clock is too:
//! low-activity inputs (sorted, sparse) should run at **higher** clocks
//! than high-activity ones for minimum energy — a scheduler knob none of
//! the standard governors expose.

use wm_gpu::{GpuSpec, MIN_CLOCK_SCALE};
use wm_power::PowerBreakdown;

/// The planner's chosen operating point for one input pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPlan {
    /// Chosen clock scale in `[MIN_CLOCK_SCALE, 1]`.
    pub clock_scale: f64,
    /// Iteration time at that clock, seconds.
    pub t_iter_s: f64,
    /// Board power at that clock, watts.
    pub power_w: f64,
    /// Iteration energy at that clock, joules.
    pub energy_per_iter_j: f64,
    /// Energy at full boost, for comparison, joules.
    pub boost_energy_j: f64,
    /// Whether a deadline constrained the choice.
    pub deadline_bound: bool,
}

impl DvfsPlan {
    /// Energy saved versus running at boost, as a fraction.
    pub fn energy_saving(&self) -> f64 {
        1.0 - self.energy_per_iter_j / self.boost_energy_j
    }
}

fn eval_at(
    spec: &GpuSpec,
    breakdown: &PowerBreakdown,
    t_kernel_boost: f64,
    t_launch: f64,
    s: f64,
) -> (f64, f64, f64) {
    // Dynamic power at boost = everything above idle.
    let p_dyn_boost = breakdown.uncore_w + breakdown.datapath_w + breakdown.dram_w + breakdown.l2_w;
    let power = spec.idle_watts + p_dyn_boost * s.powi(3);
    let t_iter = t_kernel_boost / s + t_launch;
    (power, t_iter, power * t_iter)
}

/// Plan the energy-minimal clock for a kernel whose boost-clock behaviour
/// is `breakdown`, subject to an optional per-iteration `deadline`.
///
/// The search is a fine grid over the DVFS range — the objective is smooth
/// and unimodal, and P-states are discrete on real devices anyway. A
/// deadline no clock meets (shorter than the boost iteration time) plans
/// the boost operating point, marked `deadline_bound`: boost is as fast as
/// the device goes, and an unthrottled baseline fits under TDP there.
///
/// # Panics
///
/// Panics if the breakdown describes a throttled run (the governor already
/// owns the clock there) or the deadline is non-positive.
pub fn plan_dvfs(spec: &GpuSpec, breakdown: &PowerBreakdown, deadline_s: Option<f64>) -> DvfsPlan {
    assert!(
        !breakdown.throttled,
        "plan_dvfs expects an unthrottled baseline"
    );
    if let Some(d) = deadline_s {
        assert!(d > 0.0, "deadline must be positive");
    }
    let t_launch = 0.0_f64.max(breakdown.t_iter_s * (1.0 - breakdown.duty));
    let t_kernel_boost = breakdown.t_iter_s - t_launch;
    let (_, _, boost_energy) = eval_at(spec, breakdown, t_kernel_boost, t_launch, 1.0);

    let mut best: Option<(f64, f64, f64, f64)> = None; // (s, power, t, energy)
    let steps = 240;
    for i in 0..=steps {
        let s = MIN_CLOCK_SCALE + (1.0 - MIN_CLOCK_SCALE) * (i as f64 / steps as f64);
        let (power, t_iter, energy) = eval_at(spec, breakdown, t_kernel_boost, t_launch, s);
        if let Some(d) = deadline_s {
            if t_iter > d {
                continue;
            }
        }
        if power > spec.tdp_watts {
            continue;
        }
        if best.is_none_or(|(_, _, _, e)| energy < e) {
            best = Some((s, power, t_iter, energy));
        }
    }
    let (clock_scale, power_w, t_iter_s, energy) = best.unwrap_or_else(|| {
        let (power, t_iter, energy) = eval_at(spec, breakdown, t_kernel_boost, t_launch, 1.0);
        (1.0, power, t_iter, energy)
    });
    DvfsPlan {
        clock_scale,
        t_iter_s,
        power_w,
        energy_per_iter_j: energy,
        boost_energy_j: boost_energy,
        deadline_bound: deadline_s.is_some_and(|d| {
            // Bound if the unconstrained optimum would miss the deadline.
            let unconstrained = plan_unconstrained_scale(spec, breakdown, t_kernel_boost, t_launch);
            t_kernel_boost / unconstrained + t_launch > d
        }),
    }
}

fn plan_unconstrained_scale(
    spec: &GpuSpec,
    breakdown: &PowerBreakdown,
    t_kernel_boost: f64,
    t_launch: f64,
) -> f64 {
    let mut best = (1.0, f64::INFINITY);
    let steps = 240;
    for i in 0..=steps {
        let s = MIN_CLOCK_SCALE + (1.0 - MIN_CLOCK_SCALE) * (i as f64 / steps as f64);
        let (_, _, energy) = eval_at(spec, breakdown, t_kernel_boost, t_launch, s);
        if energy < best.1 {
            best = (s, energy);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_bits::Xoshiro256pp;
    use wm_gpu::spec::a100_pcie;
    use wm_kernels::{simulate, GemmConfig, GemmInputs, Sampling};
    use wm_numerics::DType;
    use wm_patterns::{PatternKind, PatternSpec};
    use wm_power::evaluate;

    fn breakdown(kind: PatternKind) -> PowerBreakdown {
        let dtype = DType::Fp16Tensor;
        let dim = 1024;
        let mut root = Xoshiro256pp::seed_from_u64(31);
        let spec = PatternSpec::new(kind);
        let a = spec.generate(dtype, dim, dim, &mut root.fork(0));
        let b = spec.generate(dtype, dim, dim, &mut root.fork(1));
        let cfg =
            GemmConfig::square(dim, dtype).with_sampling(Sampling::Lattice { rows: 12, cols: 12 });
        evaluate(
            &a100_pcie(),
            &simulate(
                &GemmInputs {
                    a: &a,
                    b_stored: &b,
                    c: None,
                },
                &cfg,
            )
            .activity,
        )
    }

    #[test]
    fn unconstrained_plan_saves_energy() {
        let gpu = a100_pcie();
        let plan = plan_dvfs(&gpu, &breakdown(PatternKind::Gaussian), None);
        assert!(plan.clock_scale < 1.0, "slowing down must pay here");
        assert!(plan.energy_saving() > 0.0);
        assert!(plan.power_w < gpu.tdp_watts);
        assert!(!plan.deadline_bound);
    }

    #[test]
    fn low_activity_inputs_prefer_higher_clocks() {
        // s* grows as dynamic power falls: sorted inputs should be run
        // faster than random ones for minimum energy.
        let gpu = a100_pcie();
        let random = plan_dvfs(&gpu, &breakdown(PatternKind::Gaussian), None);
        let sorted = plan_dvfs(
            &gpu,
            &breakdown(PatternKind::SortedRows { fraction: 1.0 }),
            None,
        );
        assert!(
            sorted.clock_scale > random.clock_scale,
            "sorted {} vs random {}",
            sorted.clock_scale,
            random.clock_scale
        );
    }

    #[test]
    fn tight_deadline_forces_boost() {
        let gpu = a100_pcie();
        let b = breakdown(PatternKind::Gaussian);
        let plan = plan_dvfs(&gpu, &b, Some(b.t_iter_s * 1.0001));
        assert!(plan.clock_scale > 0.999, "scale {}", plan.clock_scale);
        assert!(plan.deadline_bound);
        assert!(plan.t_iter_s <= b.t_iter_s * 1.0001 + 1e-12);
        // A deadline even boost misses runs at boost instead of panicking.
        let infeasible = plan_dvfs(&gpu, &b, Some(b.t_iter_s * 0.5));
        assert_eq!(infeasible.clock_scale, 1.0);
        assert!(infeasible.deadline_bound);
    }

    #[test]
    fn loose_deadline_matches_unconstrained() {
        let gpu = a100_pcie();
        let b = breakdown(PatternKind::Gaussian);
        let free = plan_dvfs(&gpu, &b, None);
        let loose = plan_dvfs(&gpu, &b, Some(b.t_iter_s * 100.0));
        assert!((free.clock_scale - loose.clock_scale).abs() < 1e-9);
        assert!(!loose.deadline_bound);
    }

    #[test]
    fn analytic_optimum_is_close() {
        // For launch-free kernels: s* = cbrt(P_idle / (2 P_dyn)), clamped.
        let gpu = a100_pcie();
        let b = breakdown(PatternKind::Gaussian);
        let p_dyn = b.uncore_w + b.datapath_w + b.dram_w + b.l2_w;
        let analytic = (gpu.idle_watts / (2.0 * p_dyn))
            .cbrt()
            .clamp(MIN_CLOCK_SCALE, 1.0);
        let plan = plan_dvfs(&gpu, &b, None);
        assert!(
            (plan.clock_scale - analytic).abs() < 0.05,
            "grid {} vs analytic {}",
            plan.clock_scale,
            analytic
        );
    }

    #[test]
    #[should_panic(expected = "unthrottled")]
    fn throttled_baselines_rejected() {
        let mut b = breakdown(PatternKind::Gaussian);
        b.throttled = true;
        plan_dvfs(&a100_pcie(), &b, None);
    }
}
