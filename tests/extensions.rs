//! Integration tests for the reproduction's extensions: GEMV, BF16, the
//! DVFS planner, and custom GPU models — all through the public API.

use wattmul_repro::optimizer::plan_dvfs;
use wattmul_repro::prelude::*;
use wm_bits::Xoshiro256pp;
use wm_gpu::GpuSpecBuilder;
use wm_kernels::{simulate, simulate_gemv, GemmInputs, GemvConfig, KernelClass};
use wm_numerics::Gaussian;
use wm_power::{evaluate, PowerBreakdown};

fn gemm_breakdown(gpu: &GpuSpec, dtype: DType, kind: PatternKind, dim: usize) -> PowerBreakdown {
    let mut root = Xoshiro256pp::seed_from_u64(3);
    let spec = PatternSpec::new(kind);
    let a = spec.generate(dtype, dim, dim, &mut root.fork(0));
    let b = spec.generate(dtype, dim, dim, &mut root.fork(1));
    let cfg = GemmConfig::square(dim, dtype).with_sampling(Sampling::Lattice { rows: 8, cols: 8 });
    evaluate(
        gpu,
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
fn gemv_activity_flows_through_the_whole_pipeline() {
    let gpu = a100_pcie();
    let dtype = DType::Fp16Tensor;
    let dim = 512;
    let mut root = Xoshiro256pp::seed_from_u64(1);
    let a = PatternSpec::new(PatternKind::Gaussian).generate(dtype, dim, dim, &mut root.fork(0));
    let mut g = Gaussian::new(0.0, 210.0);
    let mut rng = root.fork(1);
    let x: Vec<f32> = (0..dim).map(|_| g.sample_f32(&mut rng)).collect();
    let outcome = simulate_gemv(&a, &x, None, &GemvConfig::new(dtype));
    assert_eq!(outcome.activity.kernel, KernelClass::Gemv);
    let p = evaluate(&gpu, &outcome.activity);
    // Memory-bound: total power below the compute-bound GEMM level.
    let gemm = gemm_breakdown(&gpu, dtype, PatternKind::Gaussian, dim);
    assert!(p.total_w < gemm.total_w);
    assert!(p.total_w > gpu.idle_watts);
    // The runtime model must be the GEMV one: memory time dominates.
    assert!(p.dram_w > 0.0);
}

#[test]
fn bf16_works_through_patterns_kernels_and_power() {
    let gpu = a100_pcie();
    // Every pattern family generates valid BF16 matrices.
    for kind in [
        PatternKind::Gaussian,
        PatternKind::SortedRows { fraction: 1.0 },
        PatternKind::Sparse { sparsity: 0.5 },
        PatternKind::ZeroLsbs { count: 4 },
        PatternKind::BitFlips { probability: 0.3 },
    ] {
        let p = gemm_breakdown(&gpu, DType::Bf16, kind, 256);
        assert!(
            p.total_w > gpu.idle_watts && p.total_w < gpu.tdp_watts,
            "{kind:?}: {} W",
            p.total_w
        );
    }
    // And the directional claims hold for BF16 too.
    let random = gemm_breakdown(&gpu, DType::Bf16, PatternKind::Gaussian, 256).total_w;
    let sorted = gemm_breakdown(
        &gpu,
        DType::Bf16,
        PatternKind::SortedRows { fraction: 1.0 },
        256,
    )
    .total_w;
    let zeros = gemm_breakdown(&gpu, DType::Bf16, PatternKind::Zeros, 256).total_w;
    assert!(sorted < random);
    assert!(zeros < sorted);
}

#[test]
fn bf16_quantization_collapse_compounds_t2_and_t3() {
    // The emergent extension finding behind the mean-sweep panel of
    // `wm_experiments::ext_bf16`: at mean 1024 and sigma 1, BF16's ulp of
    // 8 collapses the distribution to (nearly) a constant, so BF16's
    // mean-shift response far exceeds FP16-T's.
    let gpu = a100_pcie();
    let dim = 512;
    let drop_of = |dtype: DType| {
        let centered = gemm_breakdown(&gpu, dtype, PatternKind::Gaussian, dim).total_w;
        let mut root = Xoshiro256pp::seed_from_u64(4);
        let spec = PatternSpec::new(PatternKind::Gaussian)
            .with_mean(1024.0)
            .with_std(1.0);
        let a = spec.generate(dtype, dim, dim, &mut root.fork(0));
        let b = spec.generate(dtype, dim, dim, &mut root.fork(1));
        let cfg =
            GemmConfig::square(dim, dtype).with_sampling(Sampling::Lattice { rows: 8, cols: 8 });
        let shifted = evaluate(
            &gpu,
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
        .total_w;
        (centered - shifted) / centered
    };
    assert!(
        drop_of(DType::Bf16) > drop_of(DType::Fp16Tensor),
        "BF16 drop {} should exceed FP16-T drop {}",
        drop_of(DType::Bf16),
        drop_of(DType::Fp16Tensor)
    );
}

#[test]
fn dvfs_plan_is_input_aware_end_to_end() {
    let gpu = a100_pcie();
    let random = plan_dvfs(
        &gpu,
        &gemm_breakdown(&gpu, DType::Fp16Tensor, PatternKind::Gaussian, 1024),
        None,
    );
    let zeros = plan_dvfs(
        &gpu,
        &gemm_breakdown(&gpu, DType::Fp16Tensor, PatternKind::Zeros, 1024),
        None,
    );
    assert!(
        zeros.clock_scale > random.clock_scale,
        "quiet inputs should run faster: {} vs {}",
        zeros.clock_scale,
        random.clock_scale
    );
    assert!(random.energy_saving() > 0.0);
}

#[test]
fn custom_gpu_spec_flows_through_powerlab() {
    // A derated A100 must throttle at the paper's 2048 where the stock
    // one does not — the throttle boundary is spec-driven, not hardcoded.
    let capped = GpuSpecBuilder::from(a100_pcie())
        .tdp_watts(220.0)
        .name("A100 capped at 220 W")
        .build()
        .unwrap();
    let lab = PowerLab::new(capped.clone());
    let r = lab.run(
        &RunRequest::new(
            DType::Fp16Tensor,
            2048,
            PatternSpec::new(PatternKind::Gaussian),
        )
        .with_seeds(1)
        .with_sampling(Sampling::Lattice { rows: 8, cols: 8 }),
    );
    assert!(r.throttled, "a 220 W cap must throttle at 2048");
    assert!((r.power.mean - 220.0).abs() < 8.0);
    let stock = PowerLab::new(a100_pcie()).run(
        &RunRequest::new(
            DType::Fp16Tensor,
            2048,
            PatternSpec::new(PatternKind::Gaussian),
        )
        .with_seeds(1)
        .with_sampling(Sampling::Lattice { rows: 8, cols: 8 }),
    );
    assert!(!stock.throttled);
}

#[test]
fn dsl_supports_the_extension_dtype() {
    use wattmul_repro::optimizer::PatternProgram;
    let program = PatternProgram::parse("gaussian(std=210) |> sort_rows(1.0)").unwrap();
    let sorted = program.estimate_power(DType::Bf16, 256, &a100_pcie(), 5);
    let random = PatternProgram::parse("gaussian(std=210)")
        .unwrap()
        .estimate_power(DType::Bf16, 256, &a100_pcie(), 5);
    assert!(sorted.total_w < random.total_w);
}
