//! The power model: activity record + device spec → power breakdown.

use crate::coefficients::{
    arch_energy_scale, memory_coefficients, memory_kind_factor, pipeline_coefficients,
};
use crate::reference::{damp, reference_activity};
use wm_gpu::{gemv_time, iteration_time, resolve_throttle, GemmDims, GpuSpec, RuntimeEstimate};
use wm_kernels::{ActivityRecord, KernelClass};
use wm_numerics::DType;

/// The boost-clock runtime estimate of `kernel` with `dims`/`dtype` on
/// `spec` — the single kernel→runtime-estimator dispatch. [`evaluate`]
/// uses it on a probed activity record, and the fleet's learned pricing
/// path uses it to turn a predicted wattage back into a plannable
/// breakdown, so the two paths can never disagree on a kernel's runtime
/// model. GEMM uses the roofline [`iteration_time`]; GEMV the streaming
/// [`gemv_time`].
pub fn kernel_runtime(
    spec: &GpuSpec,
    kernel: KernelClass,
    dims: GemmDims,
    dtype: DType,
) -> RuntimeEstimate {
    match kernel {
        KernelClass::Gemm => iteration_time(spec, dims, dtype),
        KernelClass::Gemv => gemv_time(spec, dims.n, dims.k, dtype),
    }
}

/// Per-component power report for one GEMM configuration on one device,
/// at the resolved (possibly throttled) operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Constant board power (fans, VRM, leakage, refresh).
    pub idle_w: f64,
    /// Clock tree / scheduler power while kernels are resident.
    pub uncore_w: f64,
    /// Core datapath power (operand latches, multipliers, accumulators).
    pub datapath_w: f64,
    /// DRAM interface power.
    pub dram_w: f64,
    /// L2 / on-chip data-movement power.
    pub l2_w: f64,
    /// Total board power.
    pub total_w: f64,
    /// Resolved clock scale (1.0 when unthrottled).
    pub clock_scale: f64,
    /// Whether the DVFS governor reduced clocks to honour the TDP.
    pub throttled: bool,
    /// Iteration time at the resolved clock, in seconds.
    pub t_iter_s: f64,
    /// Fraction of the iteration spent inside the kernel.
    pub duty: f64,
    /// Energy of one full iteration (power x time), in joules.
    pub energy_per_iter_j: f64,
}

/// Boost-clock dynamic power components of one kernel's activity —
/// everything [`evaluate`] derives before the DVFS governor runs. Shared
/// with [`evaluate_group`], which sums these over a group's members
/// before resolving the governor once.
struct BoostPowers {
    uncore_w: f64,
    datapath_w: f64,
    dram_w: f64,
    l2_w: f64,
}

impl BoostPowers {
    fn dynamic_w(&self) -> f64 {
        self.uncore_w + self.datapath_w + self.dram_w + self.l2_w
    }
}

fn boost_powers(spec: &GpuSpec, activity: &ActivityRecord, rt: &RuntimeEstimate) -> BoostPowers {
    let sens = spec.data_sensitivity;
    let arch = arch_energy_scale(spec.architecture);
    let pc = pipeline_coefficients(activity.dtype);
    let mc = memory_coefficients();
    let kind = memory_kind_factor(spec.memory);

    // --- Energy per iteration at boost clock (joules). -------------------
    // Data-dependent terms are damped toward the random-input reference by
    // the device's data_sensitivity: baseline power stays architectural,
    // while pattern-induced *swings* shrink on less sensitive parts.
    let r = reference_activity(activity.dtype);
    let operand = damp(
        r.operand_toggles_per_mac,
        activity.operand_toggles_per_mac(),
        sens,
    );
    let mult = damp(
        r.mult_activity_per_mac,
        activity.mult_activity_per_mac,
        sens,
    );
    let accum = damp(
        r.accum_toggles_per_mac,
        activity.accum_toggles_per_mac,
        sens,
    );
    let e_mac_pj = pc.e_base_pj
        + pc.e_operand_pj_per_bit * operand
        + pc.e_mult_pj_per_unit * mult
        + pc.e_accum_pj_per_bit * accum;
    let e_datapath = activity.total_macs as f64 * e_mac_pj * arch * 1e-12;

    let stream_bits = activity.dram_words as f64 * f64::from(activity.dtype.bits());
    let dram_toggles = damp(
        r.dram_toggles_per_word * activity.dram_words as f64,
        activity.dram_toggles as f64,
        sens,
    );
    let e_dram = (stream_bits * mc.dram_base_pj_per_bit + dram_toggles * mc.dram_toggle_pj_per_bit)
        * kind
        * 1e-12;
    let e_l2 = activity.l2_passes
        * (stream_bits * mc.l2_base_pj_per_bit + dram_toggles * mc.l2_toggle_pj_per_bit)
        * arch
        * 1e-12;

    // --- Dynamic power at boost. -----------------------------------------
    BoostPowers {
        uncore_w: spec.uncore_watts * rt.duty,
        datapath_w: e_datapath / rt.t_iter_s,
        dram_w: e_dram / rt.t_iter_s,
        l2_w: e_l2 / rt.t_iter_s,
    }
}

/// Resolve the DVFS governor over boost-clock dynamic powers and package
/// the operating point: the shared tail of [`evaluate`] and
/// [`evaluate_group`]. `t_iter_s`/`t_launch_s` are the boost-clock
/// iteration and launch times of whatever ran (one kernel, or a group's
/// members back-to-back).
fn resolve_breakdown(
    spec: &GpuSpec,
    p: &BoostPowers,
    t_iter_boost_s: f64,
    t_launch_s: f64,
) -> PowerBreakdown {
    let op = resolve_throttle(spec, spec.idle_watts, p.dynamic_w());
    let s3 = op.clock_scale.powi(3);

    // Kernel time stretches by 1/clock_scale when throttled.
    let t_kernel = t_iter_boost_s - t_launch_s;
    let t_iter_s = t_kernel / op.clock_scale + t_launch_s;

    let total_w = op.power_watts;
    PowerBreakdown {
        idle_w: spec.idle_watts,
        uncore_w: p.uncore_w * s3,
        datapath_w: p.datapath_w * s3,
        dram_w: p.dram_w * s3,
        l2_w: p.l2_w * s3,
        total_w,
        clock_scale: op.clock_scale,
        throttled: op.throttled,
        t_iter_s,
        duty: t_kernel / op.clock_scale / t_iter_s,
        energy_per_iter_j: total_w * t_iter_s,
    }
}

/// Evaluate the power of one GEMM execution described by `activity` on
/// device `spec`.
pub fn evaluate(spec: &GpuSpec, activity: &ActivityRecord) -> PowerBreakdown {
    let rt = kernel_runtime(spec, activity.kernel, activity.dims, activity.dtype);
    let p = boost_powers(spec, activity, &rt);
    resolve_breakdown(spec, &p, rt.t_iter_s, rt.t_launch_s)
}

/// Evaluate the power of a **grouped** request: `members` are the
/// per-member activity records of one grouped-GEMM list, executed
/// back-to-back as a unit (the way serving frameworks submit prefill
/// batches).
///
/// Each member contributes its boost-clock dynamic *energy*
/// (`power x its own iteration time`); the group's boost dynamic power is
/// that total energy over the total time, and the DVFS governor resolves
/// **once** over the combined draw — a group is one schedulable unit, not
/// a sequence of independently governed kernels. A single-member group is
/// exactly [`evaluate`].
///
/// # Panics
///
/// Panics if `members` is empty.
pub fn evaluate_group(spec: &GpuSpec, members: &[ActivityRecord]) -> PowerBreakdown {
    evaluate_group_iter(spec, members.iter())
}

/// [`evaluate_group`] over *borrowed* member records — the residual-reuse
/// path: a partially-cached group's seed evaluation mixes records owned by
/// the memo cache with freshly simulated ones, and evaluating through
/// references keeps that merge copy-free. Bit-identical to
/// [`evaluate_group`] over the same records by construction (both are the
/// shared iterator core).
///
/// # Panics
///
/// Panics if `members` is empty.
pub fn evaluate_group_refs(spec: &GpuSpec, members: &[&ActivityRecord]) -> PowerBreakdown {
    evaluate_group_iter(spec, members.iter().copied())
}

/// The shared core of [`evaluate_group`] / [`evaluate_group_refs`]. The
/// single-member case must return exactly [`evaluate`]'s breakdown — the
/// general accumulate-then-divide path would perturb it by a ulp
/// (`p * t / t != p` in floating point), and plain-request results are a
/// bit-identity contract.
fn evaluate_group_iter<'a, I>(spec: &GpuSpec, members: I) -> PowerBreakdown
where
    I: ExactSizeIterator<Item = &'a ActivityRecord>,
{
    let count = members.len();
    assert!(count > 0, "a group needs at least one member");
    let mut t_total = 0.0;
    let mut t_launch = 0.0;
    let mut e = BoostPowers {
        uncore_w: 0.0,
        datapath_w: 0.0,
        dram_w: 0.0,
        l2_w: 0.0,
    };
    for activity in members {
        let rt = kernel_runtime(spec, activity.kernel, activity.dims, activity.dtype);
        let p = boost_powers(spec, activity, &rt);
        if count == 1 {
            return resolve_breakdown(spec, &p, rt.t_iter_s, rt.t_launch_s);
        }
        // Component energies over this member's boost runtime; divided by
        // the group's total time below, they become the group's
        // time-weighted mean component powers.
        e.uncore_w += p.uncore_w * rt.t_iter_s;
        e.datapath_w += p.datapath_w * rt.t_iter_s;
        e.dram_w += p.dram_w * rt.t_iter_s;
        e.l2_w += p.l2_w * rt.t_iter_s;
        t_total += rt.t_iter_s;
        t_launch += rt.t_launch_s;
    }
    let p = BoostPowers {
        uncore_w: e.uncore_w / t_total,
        datapath_w: e.datapath_w / t_total,
        dram_w: e.dram_w / t_total,
        l2_w: e.l2_w / t_total,
    };
    resolve_breakdown(spec, &p, t_total, t_launch)
}

/// Boost-clock runtime of a grouped request on `spec`: the members run
/// back-to-back as one unit, so compute/DRAM/launch/iteration times and
/// DRAM traffic all add. A single-member group is exactly
/// [`kernel_runtime`]. This is the runtime the fleet's *learned* pricing
/// path pairs with a predicted group wattage, mirroring how
/// [`evaluate_group`] times the analytic path — the two paths can never
/// disagree on a group's runtime model.
///
/// # Panics
///
/// Panics if `members` is empty.
pub fn group_runtime(
    spec: &GpuSpec,
    kernel: KernelClass,
    members: &[GemmDims],
    dtype: DType,
) -> RuntimeEstimate {
    assert!(!members.is_empty(), "a group needs at least one member");
    if members.len() == 1 {
        return kernel_runtime(spec, kernel, members[0], dtype);
    }
    let mut total = RuntimeEstimate {
        t_compute_s: 0.0,
        t_dram_s: 0.0,
        t_launch_s: 0.0,
        t_iter_s: 0.0,
        duty: 0.0,
        efficiency: 0.0,
        dram_bytes: 0,
    };
    let mut flops = 0.0;
    for &m in members {
        let rt = kernel_runtime(spec, kernel, m, dtype);
        total.t_compute_s += rt.t_compute_s;
        total.t_dram_s += rt.t_dram_s;
        total.t_launch_s += rt.t_launch_s;
        total.t_iter_s += rt.t_iter_s;
        total.dram_bytes += rt.dram_bytes;
        flops += m.flops() as f64;
    }
    total.duty = (total.t_iter_s - total.t_launch_s) / total.t_iter_s;
    // Achieved fraction of peak over the whole group (the definition,
    // applied to summed work and summed math time).
    total.efficiency = flops / (spec.peak_ops(dtype) * total.t_compute_s);
    total
}

/// Reconstruct a [`PowerBreakdown`] from a *predicted* total board power
/// at boost clock.
///
/// This is the bridge from the `wm-predict` learned estimator back into
/// everything that consumes breakdowns: the estimator outputs one number
/// (total watts at boost, learned from cheap input features), and this
/// function re-applies the same DVFS governor and timing arithmetic as
/// [`evaluate`] so the result can feed `plan_dvfs`, power capping, and
/// placement unchanged. Component attribution is approximate by
/// construction — uncore takes its architectural share and the remainder
/// is lumped into the datapath — but the quantities downstream consumers
/// read (total power, throttle state, iteration time, energy) are exact
/// functions of the prediction.
///
/// # Panics
///
/// Panics if the predicted power is non-finite or non-positive.
pub fn predicted_breakdown(
    spec: &GpuSpec,
    rt: &RuntimeEstimate,
    total_boost_w: f64,
) -> PowerBreakdown {
    assert!(
        total_boost_w.is_finite() && total_boost_w > 0.0,
        "predicted power must be finite and positive, got {total_boost_w}"
    );
    // Everything above idle scales with clock; a prediction below idle is
    // clamped to an idle-only (zero-dynamic) breakdown.
    let p_dyn_boost = (total_boost_w - spec.idle_watts).max(0.0);
    let p_uncore_boost = (spec.uncore_watts * rt.duty).min(p_dyn_boost);
    let p_datapath_boost = p_dyn_boost - p_uncore_boost;

    let op = resolve_throttle(spec, spec.idle_watts, p_dyn_boost);
    let s3 = op.clock_scale.powi(3);
    let t_kernel = rt.t_iter_s - rt.t_launch_s;
    let t_iter_s = t_kernel / op.clock_scale + rt.t_launch_s;

    PowerBreakdown {
        idle_w: spec.idle_watts,
        uncore_w: p_uncore_boost * s3,
        datapath_w: p_datapath_boost * s3,
        dram_w: 0.0,
        l2_w: 0.0,
        total_w: op.power_watts,
        clock_scale: op.clock_scale,
        throttled: op.throttled,
        t_iter_s,
        duty: t_kernel / op.clock_scale / t_iter_s,
        energy_per_iter_j: op.power_watts * t_iter_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_bits::Xoshiro256pp;
    use wm_gpu::spec::{a100_pcie, h100_sxm5, rtx6000, v100_sxm2};
    use wm_kernels::{simulate, GemmConfig, GemmInputs, Sampling};
    use wm_numerics::DType;
    use wm_patterns::{PatternKind, PatternSpec};

    /// Activity for a `dim x dim` GEMM with the given pattern on both
    /// operands (B transposed, the paper's default).
    fn activity(kind: PatternKind, dtype: DType, dim: usize, seed: u64) -> ActivityRecord {
        let mut root = Xoshiro256pp::seed_from_u64(seed);
        let spec = PatternSpec::new(kind);
        let a = spec.generate(dtype, dim, dim, &mut root.fork(0));
        let b = spec.generate(dtype, dim, dim, &mut root.fork(1));
        let cfg =
            GemmConfig::square(dim, dtype).with_sampling(Sampling::Lattice { rows: 16, cols: 16 });
        simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &cfg,
        )
        .activity
    }

    #[test]
    fn a100_fp16t_random_sits_just_under_tdp() {
        let g = a100_pcie();
        let p = evaluate(
            &g,
            &activity(PatternKind::Gaussian, DType::Fp16Tensor, 2048, 1),
        );
        assert!(
            p.total_w > 255.0 && p.total_w < 300.0,
            "FP16-T random power {} outside the calibrated band",
            p.total_w
        );
        assert!(!p.throttled, "2048 must not throttle on the A100");
    }

    #[test]
    fn calibration_ordering_fp16t_is_most_power_hungry() {
        // Paper T7. Evaluated at the paper's 2048 size.
        let g = a100_pcie();
        let mut by_dtype = Vec::new();
        for dt in DType::ALL {
            let p = evaluate(&g, &activity(PatternKind::Gaussian, dt, 2048, 2));
            by_dtype.push((dt, p.total_w));
        }
        let max = by_dtype.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(max.0, DType::Fp16Tensor, "power by dtype: {by_dtype:?}");
    }

    #[test]
    fn zero_matrices_drop_power_by_about_forty_percent() {
        let g = a100_pcie();
        let random = evaluate(
            &g,
            &activity(PatternKind::Gaussian, DType::Fp16Tensor, 2048, 3),
        );
        let zeros = evaluate(
            &g,
            &activity(PatternKind::Zeros, DType::Fp16Tensor, 2048, 4),
        );
        let swing = (random.total_w - zeros.total_w) / random.total_w;
        assert!(
            (0.25..=0.50).contains(&swing),
            "zeros-vs-random swing {swing} outside the paper's ~38% regime \
             (random {} W, zeros {} W)",
            random.total_w,
            zeros.total_w
        );
    }

    #[test]
    fn a100_throttles_at_4096_fp16t_but_not_2048() {
        let g = a100_pcie();
        let p2048 = evaluate(
            &g,
            &activity(PatternKind::Gaussian, DType::Fp16Tensor, 2048, 5),
        );
        let p4096 = evaluate(
            &g,
            &activity(PatternKind::Gaussian, DType::Fp16Tensor, 4096, 6),
        );
        assert!(!p2048.throttled, "2048: {} W", p2048.total_w);
        assert!(p4096.throttled, "4096: {} W", p4096.total_w);
        assert!((p4096.total_w - g.tdp_watts).abs() < 1.0);
        assert!(p4096.clock_scale < 1.0);
    }

    #[test]
    fn rtx6000_throttles_at_2048_but_not_512() {
        let g = rtx6000();
        let p2048 = evaluate(
            &g,
            &activity(PatternKind::Gaussian, DType::Fp16Tensor, 2048, 7),
        );
        let p512 = evaluate(
            &g,
            &activity(PatternKind::Gaussian, DType::Fp16Tensor, 512, 8),
        );
        assert!(
            p2048.throttled,
            "RTX 6000 at 2048 should throttle ({} W vs 260 W TDP)",
            p2048.total_w
        );
        assert!(!p512.throttled, "RTX 6000 at 512: {} W", p512.total_w);
    }

    #[test]
    fn v100_and_h100_run_2048_without_throttling() {
        for g in [v100_sxm2(), h100_sxm5()] {
            let p = evaluate(
                &g,
                &activity(PatternKind::Gaussian, DType::Fp16Tensor, 2048, 9),
            );
            assert!(!p.throttled, "{}: {} W", g.name, p.total_w);
            assert!(p.total_w < g.tdp_watts);
            assert!(p.total_w > g.idle_watts + g.uncore_watts);
        }
    }

    #[test]
    fn sparsity_reduces_power() {
        let g = a100_pcie();
        let dense = evaluate(&g, &activity(PatternKind::Gaussian, DType::Fp32, 1024, 10));
        let sparse = evaluate(
            &g,
            &activity(PatternKind::Sparse { sparsity: 0.8 }, DType::Fp32, 1024, 10),
        );
        assert!(
            sparse.total_w < dense.total_w - 2.0,
            "sparse {} vs dense {}",
            sparse.total_w,
            dense.total_w
        );
    }

    #[test]
    fn breakdown_components_sum_to_total_when_unthrottled() {
        let g = a100_pcie();
        let p = evaluate(&g, &activity(PatternKind::Gaussian, DType::Int8, 1024, 11));
        assert!(!p.throttled);
        let sum = p.idle_w + p.uncore_w + p.datapath_w + p.dram_w + p.l2_w;
        assert!(
            (sum - p.total_w).abs() < 1e-9,
            "sum {sum} total {}",
            p.total_w
        );
    }

    #[test]
    fn energy_is_power_times_time() {
        let g = a100_pcie();
        let p = evaluate(&g, &activity(PatternKind::Gaussian, DType::Fp16, 1024, 12));
        assert!((p.energy_per_iter_j - p.total_w * p.t_iter_s).abs() < 1e-12);
        assert!(p.energy_per_iter_j > 0.0);
    }

    #[test]
    fn fig2_energy_ordering_fp32_highest() {
        // FP32 is slowest by far, so its per-iteration energy dominates
        // (paper Fig. 2 shows the same shape).
        let g = a100_pcie();
        let e32 =
            evaluate(&g, &activity(PatternKind::Gaussian, DType::Fp32, 2048, 13)).energy_per_iter_j;
        let e16t = evaluate(
            &g,
            &activity(PatternKind::Gaussian, DType::Fp16Tensor, 2048, 13),
        )
        .energy_per_iter_j;
        let e8 =
            evaluate(&g, &activity(PatternKind::Gaussian, DType::Int8, 2048, 13)).energy_per_iter_j;
        assert!(e32 > e16t && e32 > e8, "e32={e32} e16t={e16t} e8={e8}");
    }

    #[test]
    fn gemv_is_memory_dominated_and_cooler_than_gemm() {
        use wm_kernels::{simulate_gemv, GemvConfig};
        use wm_numerics::Gaussian;
        let g = a100_pcie();
        let dtype = DType::Fp16Tensor;
        let dim = 2048;
        let mut root = Xoshiro256pp::seed_from_u64(21);
        let a =
            PatternSpec::new(PatternKind::Gaussian).generate(dtype, dim, dim, &mut root.fork(0));
        let mut gauss = Gaussian::new(0.0, 210.0);
        let mut rng = root.fork(1);
        let x: Vec<f32> = (0..dim).map(|_| gauss.sample_f32(&mut rng)).collect();
        let gemv_act = simulate_gemv(&a, &x, None, &GemvConfig::new(dtype)).activity;
        let gemv_power = evaluate(&g, &gemv_act);
        let gemm_power = evaluate(&g, &activity(PatternKind::Gaussian, dtype, dim, 21));
        assert!(
            gemv_power.total_w < gemm_power.total_w,
            "memory-bound GEMV ({}) must draw less than GEMM ({})",
            gemv_power.total_w,
            gemm_power.total_w
        );
        // And its dominant dynamic component is the memory system.
        assert!(
            gemv_power.dram_w > gemv_power.l2_w,
            "GEMV: dram {} should exceed l2 {}",
            gemv_power.dram_w,
            gemv_power.l2_w
        );
        assert!(!gemv_power.throttled);
    }

    #[test]
    fn gemv_sparsity_still_reduces_power() {
        use wm_kernels::{simulate_gemv, GemvConfig};
        let g = a100_pcie();
        let dtype = DType::Fp16;
        let dim = 1024;
        let power_of = |kind: PatternKind| {
            let mut root = Xoshiro256pp::seed_from_u64(22);
            let a = PatternSpec::new(kind).generate(dtype, dim, dim, &mut root.fork(0));
            let x: Vec<f32> = a.row(0).to_vec();
            evaluate(
                &g,
                &simulate_gemv(&a, &x, None, &GemvConfig::new(dtype)).activity,
            )
            .total_w
        };
        let dense = power_of(PatternKind::Gaussian);
        let sparse = power_of(PatternKind::Sparse { sparsity: 0.8 });
        assert!(sparse < dense, "sparse {sparse} vs dense {dense}");
    }

    #[test]
    fn bf16_extension_tracks_fp16_tensor_closely() {
        // BF16 shares the tensor pipeline and rate with FP16-T; its lower
        // mantissa activity makes it slightly cheaper on random inputs.
        let g = a100_pcie();
        let bf16 = evaluate(&g, &activity(PatternKind::Gaussian, DType::Bf16, 1024, 30));
        let fp16t = evaluate(
            &g,
            &activity(PatternKind::Gaussian, DType::Fp16Tensor, 1024, 30),
        );
        assert!(!bf16.throttled);
        assert!(
            bf16.total_w < fp16t.total_w,
            "BF16 {} should sit just below FP16-T {}",
            bf16.total_w,
            fp16t.total_w
        );
        assert!(
            fp16t.total_w - bf16.total_w < 0.15 * fp16t.total_w,
            "gap should be modest: {} vs {}",
            bf16.total_w,
            fp16t.total_w
        );
    }

    #[test]
    fn bf16_mean_shift_freezes_the_wide_exponent() {
        // T2 on the extension dtype: BF16's FP32-style exponent freezes
        // under a mean shift, dropping power like the paper's FP dtypes.
        let g = a100_pcie();
        let centered = evaluate(&g, &activity(PatternKind::Gaussian, DType::Bf16, 1024, 31));
        let act_shifted = {
            let mut root = Xoshiro256pp::seed_from_u64(31);
            let spec = PatternSpec::new(PatternKind::Gaussian)
                .with_mean(1024.0)
                .with_std(1.0);
            let a = spec.generate(DType::Bf16, 1024, 1024, &mut root.fork(0));
            let b = spec.generate(DType::Bf16, 1024, 1024, &mut root.fork(1));
            simulate(
                &GemmInputs {
                    a: &a,
                    b_stored: &b,
                    c: None,
                },
                &GemmConfig::square(1024, DType::Bf16)
                    .with_sampling(Sampling::Lattice { rows: 16, cols: 16 }),
            )
            .activity
        };
        let shifted = evaluate(&g, &act_shifted);
        assert!(
            shifted.total_w < centered.total_w,
            "shifted {} vs centered {}",
            shifted.total_w,
            centered.total_w
        );
    }

    #[test]
    fn predicted_breakdown_round_trips_an_unthrottled_evaluate() {
        let g = a100_pcie();
        let act = activity(PatternKind::Gaussian, DType::Fp16Tensor, 1024, 40);
        let real = evaluate(&g, &act);
        assert!(!real.throttled);
        let rt = iteration_time(&g, act.dims, act.dtype);
        let pred = predicted_breakdown(&g, &rt, real.total_w);
        assert!(!pred.throttled);
        assert!((pred.total_w - real.total_w).abs() < 1e-9);
        assert!((pred.t_iter_s - real.t_iter_s).abs() < 1e-12);
        assert!((pred.energy_per_iter_j - real.energy_per_iter_j).abs() < 1e-9);
        // Components stay non-negative and sum to the total.
        let sum = pred.idle_w + pred.uncore_w + pred.datapath_w + pred.dram_w + pred.l2_w;
        assert!((sum - pred.total_w).abs() < 1e-9);
        assert!(pred.uncore_w >= 0.0 && pred.datapath_w >= 0.0);
    }

    #[test]
    fn predicted_breakdown_applies_the_governor() {
        // A prediction over TDP must resolve exactly like evaluate would:
        // clocks reduced, power pinned to TDP.
        let g = a100_pcie();
        let act = activity(PatternKind::Gaussian, DType::Fp16Tensor, 1024, 41);
        let rt = iteration_time(&g, act.dims, act.dtype);
        let pred = predicted_breakdown(&g, &rt, g.tdp_watts + 60.0);
        assert!(pred.throttled);
        assert!(pred.clock_scale < 1.0);
        assert!((pred.total_w - g.tdp_watts).abs() < 1e-9);
        assert!(pred.t_iter_s > rt.t_iter_s, "throttled kernels stretch");
    }

    #[test]
    fn predicted_breakdown_clamps_sub_idle_predictions() {
        let g = a100_pcie();
        let act = activity(PatternKind::Zeros, DType::Int8, 256, 42);
        let rt = iteration_time(&g, act.dims, act.dtype);
        let pred = predicted_breakdown(&g, &rt, g.idle_watts * 0.5);
        assert_eq!(pred.total_w, g.idle_watts);
        assert_eq!(pred.datapath_w, 0.0);
        assert!(!pred.throttled);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn predicted_breakdown_rejects_nonpositive_power() {
        let g = a100_pcie();
        let act = activity(PatternKind::Zeros, DType::Int8, 256, 43);
        let rt = iteration_time(&g, act.dims, act.dtype);
        let _ = predicted_breakdown(&g, &rt, 0.0);
    }

    #[test]
    fn evaluate_group_of_one_is_evaluate() {
        let g = a100_pcie();
        let act = activity(PatternKind::Gaussian, DType::Fp16Tensor, 512, 50);
        assert_eq!(
            evaluate_group(&g, std::slice::from_ref(&act)),
            evaluate(&g, &act)
        );
    }

    #[test]
    fn evaluate_group_time_weights_member_powers() {
        let g = a100_pcie();
        let hot = activity(PatternKind::Gaussian, DType::Fp16Tensor, 512, 51);
        let cool = activity(PatternKind::Zeros, DType::Fp16Tensor, 512, 52);
        let hot_b = evaluate(&g, &hot);
        let cool_b = evaluate(&g, &cool);
        let group = evaluate_group(&g, &[hot.clone(), cool.clone()]);
        assert!(!group.throttled);
        // Power sits strictly between the members; time between equals sum.
        assert!(
            group.total_w > cool_b.total_w && group.total_w < hot_b.total_w,
            "group {} W vs members {} / {} W",
            group.total_w,
            cool_b.total_w,
            hot_b.total_w
        );
        assert!((group.t_iter_s - hot_b.t_iter_s - cool_b.t_iter_s).abs() < 1e-12);
        // Energy adds: the group runs the members back-to-back.
        assert!(
            (group.energy_per_iter_j - hot_b.energy_per_iter_j - cool_b.energy_per_iter_j).abs()
                < 1e-6 * group.energy_per_iter_j
        );
        // Member order cannot matter (groups are canonicalized upstream,
        // but the physics is order-free regardless).
        assert_eq!(group, evaluate_group(&g, &[cool, hot]));
    }

    #[test]
    fn evaluate_group_resolves_the_governor_once() {
        // Two members that each run just under TDP must throttle as a
        // group exactly like one kernel of their combined intensity —
        // not stay unthrottled because each member alone fits.
        let g = rtx6000(); // throttles at 2048 already
        let a = activity(PatternKind::Gaussian, DType::Fp16Tensor, 2048, 53);
        let b = activity(PatternKind::Gaussian, DType::Fp16Tensor, 2048, 54);
        let group = evaluate_group(&g, &[a, b]);
        assert!(group.throttled, "{} W", group.total_w);
        assert!((group.total_w - g.tdp_watts).abs() < 1.0);
        assert!(group.clock_scale < 1.0);
    }

    #[test]
    fn group_runtime_sums_member_kernels() {
        let g = a100_pcie();
        let members = [
            GemmDims {
                n: 256,
                m: 64,
                k: 512,
            },
            GemmDims::square(128),
        ];
        let single = kernel_runtime(&g, KernelClass::Gemm, members[0], DType::Fp16Tensor);
        assert_eq!(
            group_runtime(&g, KernelClass::Gemm, &members[..1], DType::Fp16Tensor),
            single,
            "a 1-member group times like its member"
        );
        let both = group_runtime(&g, KernelClass::Gemm, &members, DType::Fp16Tensor);
        let other = kernel_runtime(&g, KernelClass::Gemm, members[1], DType::Fp16Tensor);
        assert!((both.t_iter_s - single.t_iter_s - other.t_iter_s).abs() < 1e-15);
        assert!((both.t_launch_s - single.t_launch_s - other.t_launch_s).abs() < 1e-15);
        assert_eq!(both.dram_bytes, single.dram_bytes + other.dram_bytes);
        assert!(both.duty > 0.0 && both.duty < 1.0);
        assert!(both.efficiency > 0.0 && both.efficiency <= 1.0);
        // GEMV groups time through the streaming estimator per member.
        let decode = group_runtime(
            &g,
            KernelClass::Gemv,
            &[
                GemmDims {
                    n: 256,
                    m: 1,
                    k: 512,
                },
                GemmDims {
                    n: 512,
                    m: 1,
                    k: 256,
                },
            ],
            DType::Fp16Tensor,
        );
        let d0 = gemv_time(&g, 256, 512, DType::Fp16Tensor);
        let d1 = gemv_time(&g, 512, 256, DType::Fp16Tensor);
        assert!((decode.t_iter_s - d0.t_iter_s - d1.t_iter_s).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn evaluate_group_rejects_empty() {
        let _ = evaluate_group(&a100_pcie(), &[]);
    }

    #[test]
    fn data_sensitivity_damps_swings() {
        // The RTX 6000 (sensitivity 0.45) must show a smaller relative
        // random-vs-zeros swing than the A100 at the same size, evaluated
        // away from its throttle point (512).
        let rand_act = activity(PatternKind::Gaussian, DType::Fp16Tensor, 512, 14);
        let zero_act = activity(PatternKind::Zeros, DType::Fp16Tensor, 512, 15);
        let a100 = a100_pcie();
        let rtx = rtx6000();
        let swing = |g: &GpuSpec| {
            let r = evaluate(g, &rand_act).total_w;
            let z = evaluate(g, &zero_act).total_w;
            (r - z) / r
        };
        assert!(
            swing(&rtx) < swing(&a100),
            "rtx swing {} vs a100 swing {}",
            swing(&rtx),
            swing(&a100)
        );
    }
}
