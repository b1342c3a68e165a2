//! Grouped-GEMM prefill serving demo: batch requests, power-packed.
//!
//! Serving frameworks do not submit prefill one GEMM at a time — they
//! hand the kernel a grouped list of ragged `n×m×k` problems, one per
//! sequence in the batch. This example builds such groups with
//! `RunRequest::with_group`, runs them through the fleet as single units (one
//! hash, one cache entry, one placement), shows that a *permuted*
//! resubmission is a pure cache hit, and then lets the predictor-aware
//! power packer fill a tight fleet budget with a mixed prefill + decode
//! workload. Run with:
//!
//! ```text
//! cargo run --release --example grouped_prefill
//! ```

use wattmul_repro::fleet::{Fleet, FleetJob, Scheduler};
use wattmul_repro::prelude::*;

fn main() {
    let budget = 600.0;
    let fleet = Fleet::builder()
        .device(a100_pcie())
        .device(a100_pcie())
        .device(h100_sxm5())
        .power_budget_w(budget)
        .build();
    println!(
        "fleet: {} devices under a {budget:.0} W budget",
        fleet.len()
    );
    let sched = Scheduler::new(fleet);

    // One transformer layer's QKV projection at hidden size 1024, prefilling
    // a batch of four sequences of different lengths: four ragged GEMMs,
    // submitted as ONE grouped request.
    let hidden = 1024;
    let seq_lens = [384, 256, 96, 32];
    let template = RunRequest::new(
        DType::Fp16Tensor,
        hidden,
        PatternSpec::new(PatternKind::Gaussian),
    )
    .with_seeds(2)
    .with_sampling(Sampling::Lattice { rows: 8, cols: 8 });
    let member = |seq: usize| GemmDims {
        n: hidden,
        m: seq,
        k: hidden,
    };
    let group = template
        .clone()
        .with_group(seq_lens.iter().map(|&s| member(s)).collect());
    println!(
        "\nprefill group: {} members {:?} over hidden={hidden}",
        group.member_dims().len(),
        seq_lens
    );

    let first = sched
        .submit(FleetJob::new(group))
        .recv()
        .expect("grouped prefill runs");
    println!(
        "  ran as one unit on [{}] {}: {:.1} W over {} member kernels, cache_hit={}",
        first.device,
        first.gpu_name,
        first.result.power.mean,
        first.result.member_activities.len(),
        first.cache_hit,
    );

    // The same batch, permuted (as a framework re-collating its queue
    // would submit it): same multiset of problems, same cache entry.
    let mut permuted: Vec<GemmDims> = seq_lens.iter().rev().map(|&s| member(s)).collect();
    permuted.rotate_left(1);
    let again = sched
        .submit(FleetJob::new(template.clone().with_group(permuted)))
        .recv()
        .expect("permuted resubmission runs");
    println!(
        "  permuted resubmission: cache_hit={} (same answer: {:.1} W)",
        again.cache_hit, again.result.power.mean,
    );

    // Now a scheduling round the packer has to tile: hot prefill groups,
    // cool sparse prefill, and memory-bound decode GEMVs, all at once.
    let decode = |seed: u64| {
        FleetJob::new(
            template
                .clone()
                .with_kernel(KernelClass::Gemv)
                .with_shape(GemmDims {
                    n: 4 * hidden,
                    m: 1,
                    k: hidden,
                })
                .with_base_seed(seed),
        )
    };
    let mut jobs = Vec::new();
    for i in 0..3u64 {
        jobs.push(FleetJob::new(
            template
                .clone()
                .with_base_seed(100 + i)
                .with_group(seq_lens.iter().map(|&s| member(s)).collect()),
        ));
        jobs.push(FleetJob::new(
            template
                .clone()
                .with_pattern_b(PatternSpec::new(PatternKind::Sparse { sparsity: 0.8 }))
                .with_base_seed(200 + i),
        ));
        jobs.push(decode(300 + i));
    }
    let n = jobs.len();
    let answers = sched.run_batch(jobs);
    let completed = answers.iter().filter(|a| a.is_ok()).count();
    println!("\npower-packed batch: {completed}/{n} jobs completed");
    for r in answers.iter().take(3).flatten() {
        println!(
            "  [{}] {:<22} {:>6.1} W  members={}",
            r.device,
            r.gpu_name,
            r.result.power.mean,
            r.result.member_activities.len().max(1),
        );
    }
    println!(
        "  peak committed draw {:.1} W <= budget {budget:.0} W (FFD packing fills \
         rounds with the heaviest jobs that fit together)",
        sched.peak_committed_w(),
    );
    assert!(sched.peak_committed_w() <= budget);

    println!(
        "\ngrouped requests price and cache as units; permutations alias; the \
         packer fills the budget instead of trickling FIFO."
    );
}
