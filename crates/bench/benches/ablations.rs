//! Ablation benches for the power model's design choices.
//!
//! Each variant pins one activity component to its random-input reference
//! level before evaluation, measuring (a) that the ablation costs nothing
//! at evaluation time and (b) — printed once per run — how much of each
//! paper effect the component carries. The narrative version of this
//! study is `examples/ablation_study.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wm_bits::Xoshiro256pp;
use wm_gpu::spec::a100_pcie;
use wm_kernels::{simulate, ActivityRecord, GemmConfig, GemmInputs, Sampling};
use wm_numerics::DType;
use wm_patterns::{PatternKind, PatternSpec};
use wm_power::{evaluate, reference_activity};

fn activity(kind: PatternKind, dim: usize) -> ActivityRecord {
    let dtype = DType::Fp16Tensor;
    let mut root = Xoshiro256pp::seed_from_u64(5);
    let spec = PatternSpec::new(kind);
    let a = spec.generate(dtype, dim, dim, &mut root.fork(0));
    let b = spec.generate(dtype, dim, dim, &mut root.fork(1));
    simulate(
        &GemmInputs {
            a: &a,
            b_stored: &b,
            c: None,
        },
        &GemmConfig::square(dim, dtype).with_sampling(Sampling::Lattice { rows: 12, cols: 12 }),
    )
    .activity
}

fn pin(act: &ActivityRecord, component: &str) -> ActivityRecord {
    let r = reference_activity(act.dtype);
    let mut out = act.clone();
    match component {
        "full" => {}
        "no_operand_toggles" => {
            out.operand_a_toggles_per_mac = r.operand_toggles_per_mac / 2.0;
            out.operand_b_toggles_per_mac = r.operand_toggles_per_mac / 2.0;
        }
        "no_mult_gating" => out.mult_activity_per_mac = r.mult_activity_per_mac,
        "no_accum_toggles" => out.accum_toggles_per_mac = r.accum_toggles_per_mac,
        "no_memory_toggles" => {
            out.dram_toggles = (r.dram_toggles_per_word * out.dram_words as f64) as u64;
        }
        other => panic!("unknown ablation {other}"),
    }
    out
}

fn bench(c: &mut Criterion) {
    let gpu = a100_pcie();
    let dim = 256;
    let random = activity(PatternKind::Gaussian, dim);
    let sorted = activity(PatternKind::SortedRows { fraction: 1.0 }, dim);
    let sparse = activity(PatternKind::Sparse { sparsity: 0.7 }, dim);

    // One-shot report: effect sizes per ablation (stderr, outside timing).
    eprintln!("\nablation effect report (A100, {dim}x{dim} FP16-T):");
    for component in [
        "full",
        "no_operand_toggles",
        "no_mult_gating",
        "no_accum_toggles",
        "no_memory_toggles",
    ] {
        let p_random = evaluate(&gpu, &pin(&random, component)).total_w;
        let p_sorted = evaluate(&gpu, &pin(&sorted, component)).total_w;
        let p_sparse = evaluate(&gpu, &pin(&sparse, component)).total_w;
        eprintln!(
            "  {component:<20} sort saving {:6.2} W, sparsity saving {:6.2} W",
            p_random - p_sorted,
            p_random - p_sparse
        );
    }

    let mut g = wm_bench::configure(c, "ablations");
    for component in [
        "full",
        "no_operand_toggles",
        "no_mult_gating",
        "no_accum_toggles",
        "no_memory_toggles",
    ] {
        let pinned = pin(&random, component);
        g.bench_function(format!("evaluate_{component}"), |b| {
            b.iter(|| black_box(evaluate(&gpu, &pinned)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
