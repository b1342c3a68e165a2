//! Ablation study: which activity component explains which paper effect?
//!
//! ```text
//! cargo run --release --example ablation_study
//! ```
//!
//! `wm-power` composes datapath power from operand-latch, multiplier and
//! accumulator activity. This report disables one activity component at a
//! time (by pinning it to its random-input reference level, so baseline
//! power is unchanged) and shows which experimental effects collapse:
//!
//! * without operand-latch toggles, sorting stops saving power;
//! * without zero-operand gating (multiplier activity), sparsity savings
//!   shrink drastically;
//! * without accumulator toggles, the aligned-sorting advantage narrows.

use wattmul_repro::prelude::*;
use wm_bits::Xoshiro256pp;
use wm_kernels::{simulate, ActivityRecord, GemmInputs};
use wm_power::{evaluate, reference_activity};

fn activity(kind: PatternKind, dim: usize, seed: u64) -> ActivityRecord {
    let dtype = DType::Fp16Tensor;
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

/// Pin one component to its reference level ("disable" its data
/// dependence without moving baseline power).
fn ablate(act: &ActivityRecord, component: &str) -> ActivityRecord {
    let r = reference_activity(act.dtype);
    let mut out = act.clone();
    match component {
        "none" => {}
        "operand" => {
            out.operand_a_toggles_per_mac = r.operand_toggles_per_mac / 2.0;
            out.operand_b_toggles_per_mac = r.operand_toggles_per_mac / 2.0;
        }
        "multiplier" => out.mult_activity_per_mac = r.mult_activity_per_mac,
        "accumulator" => out.accum_toggles_per_mac = r.accum_toggles_per_mac,
        "memory" => {
            out.dram_toggles = (r.dram_toggles_per_word * out.dram_words as f64) as u64;
        }
        other => panic!("unknown component {other}"),
    }
    out
}

fn main() {
    let gpu = a100_pcie();
    let dim = 1024;
    let scenarios: Vec<(&str, PatternKind)> = vec![
        ("random", PatternKind::Gaussian),
        ("sorted", PatternKind::SortedRows { fraction: 1.0 }),
        ("sparse-70", PatternKind::Sparse { sparsity: 0.7 }),
    ];
    let components = ["none", "operand", "multiplier", "accumulator", "memory"];

    println!("A100, {dim}x{dim} FP16-T GEMM. Rows pin one activity component to its");
    println!("random-input reference; columns are input patterns. Values in watts.\n");
    print!("{:<14}", "ablated");
    for (name, _) in &scenarios {
        print!(" {name:>12}");
    }
    println!(" {:>14} {:>14}", "sort saving", "sparse saving");

    for component in components {
        let mut powers = Vec::new();
        for (_, kind) in &scenarios {
            let act = ablate(&activity(*kind, dim, 5), component);
            powers.push(evaluate(&gpu, &act).total_w);
        }
        print!("{component:<14}");
        for p in &powers {
            print!(" {p:>12.1}");
        }
        println!(
            " {:>13.1}W {:>13.1}W",
            powers[0] - powers[1],
            powers[0] - powers[2]
        );
    }

    println!(
        "\nReading: the operand-latch row erases most of the sorting saving; \
         the multiplier row cuts deep into the sparsity saving."
    );
}
