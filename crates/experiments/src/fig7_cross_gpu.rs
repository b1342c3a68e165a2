//! Fig. 7 — generalization across GPU generations.
//!
//! Replicates four sub-experiments on the V100 SXM2, A100 PCIe, H100 SXM5
//! and Quadro RTX 6000:
//!
//! * distribution-mean sweep (Fig. 3b),
//! * most-significant-bit randomization (Fig. 4c),
//! * sorted-into-rows (Fig. 5a, B not transposed),
//! * general sparsity (Fig. 6a).
//!
//! The paper ran these with FP16; we use the FP16 tensor path (FP16-T) —
//! the default AI configuration the paper highlights — because our RTX
//! 6000 model only reproduces the reported 2048² throttling on the tensor
//! pipeline. Like the paper, the RTX 6000 runs at 512² (it throttles at
//! 2048²) and shows visibly damped swings (older GDDR6 part, lower TDP).

use crate::common::*;
use wm_core::RunRequest;
use wm_gpu::spec::{h100_sxm5, rtx6000, v100_sxm2};
use wm_gpu::GpuSpec;

const DTYPE: DType = DType::Fp16Tensor;

fn gpus() -> Vec<GpuSpec> {
    vec![v100_sxm2(), a100_pcie(), h100_sxm5(), rtx6000()]
}

/// The paper's per-device matrix size: 512 for the RTX 6000 (it throttles
/// at 2048), the profile's dimension elsewhere.
fn dim_for(gpu: &GpuSpec, profile: &RunProfile) -> usize {
    if gpu.architecture == "Turing" {
        512.min(profile.dim)
    } else {
        profile.dim
    }
}

fn request(profile: &RunProfile, gpu: &GpuSpec, pattern: PatternSpec) -> RunRequest {
    RunRequest::new(DTYPE, dim_for(gpu, profile), pattern)
        .with_seeds(profile.seeds)
        .with_sampling(profile.sampling)
}

fn sweep(
    profile: &RunProfile,
    id: &str,
    title: &str,
    x_label: &str,
    xs: &[f64],
    build: impl Fn(f64) -> (PatternSpec, bool),
) -> FigureResult {
    let mut points = Vec::new();
    for gpu in gpus() {
        for &x in xs {
            let (pattern, b_transposed) = build(x);
            points.push(SweepPoint {
                series: gpu.name.to_string(),
                x,
                request: request(profile, &gpu, pattern).with_b_transposed(b_transposed),
                gpu: gpu.clone(),
                metric: Metric::PowerW,
            });
        }
    }
    FigureResult {
        id: id.into(),
        title: title.into(),
        x_label: x_label.into(),
        y_label: "power (W)".into(),
        notes: vec![
            "RTX 6000 runs at 512x512 (throttles at 2048); others at the \
             profile dimension. Absolute power differs per device; compare \
             shapes."
                .into(),
        ],
        series: collect_series(&execute(points)),
    }
}

/// Execute Fig. 7's mean-sweep panel.
pub fn run_mean(profile: &RunProfile) -> FigureResult {
    sweep(
        profile,
        "fig7a",
        "Cross-GPU: distribution mean vs. power",
        "mean",
        &[0.0, 16.0, 256.0],
        |m| {
            (
                PatternSpec::new(PatternKind::Gaussian)
                    .with_mean(m)
                    .with_std(1.0),
                true,
            )
        },
    )
}

/// Execute Fig. 7's MSB-randomization panel.
pub fn run_msb(profile: &RunProfile) -> FigureResult {
    sweep(
        profile,
        "fig7b",
        "Cross-GPU: randomized MSBs vs. power",
        "fraction of bits",
        &[0.0, 0.25, 0.5],
        |f| {
            let k = (f * f64::from(DTYPE.bits())).round() as u32;
            (PatternSpec::new(PatternKind::RandomMsbs { count: k }), true)
        },
    )
}

/// Execute Fig. 7's sorted-rows panel.
pub fn run_sorted(profile: &RunProfile) -> FigureResult {
    sweep(
        profile,
        "fig7c",
        "Cross-GPU: sorted into rows vs. power",
        "fraction sorted",
        &[0.0, 0.5, 1.0],
        |f| {
            (
                PatternSpec::new(PatternKind::SortedRows { fraction: f }),
                false,
            )
        },
    )
}

/// Execute Fig. 7's sparsity panel.
pub fn run_sparsity(profile: &RunProfile) -> FigureResult {
    sweep(
        profile,
        "fig7d",
        "Cross-GPU: general sparsity vs. power",
        "sparsity",
        &[0.0, 0.4, 0.8],
        |s| (PatternSpec::new(PatternKind::Sparse { sparsity: s }), true),
    )
}

/// Execute all of Fig. 7.
pub fn run(profile: &RunProfile) -> Vec<FigureResult> {
    vec![
        run_mean(profile),
        run_msb(profile),
        run_sorted(profile),
        run_sparsity(profile),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relative_drop(fig: &FigureResult, series: &str) -> f64 {
        let s = fig.series.iter().find(|s| s.name.contains(series)).unwrap();
        let first = s.points.first().unwrap().y;
        let last = s.points.last().unwrap().y;
        (first - last) / first
    }

    #[test]
    fn trends_hold_on_every_gpu() {
        // Randomized MSBs raise power; sorting and sparsity lower it, step
        // by step on every GPU.
        let profile = RunProfile::TEST;
        for (fig, rises) in [
            (run_msb(&profile), true),
            (run_sorted(&profile), false),
            (run_sparsity(&profile), false),
        ] {
            assert_eq!(fig.series.len(), 4, "{}", fig.id);
            for s in &fig.series {
                for step in s.points.windows(2) {
                    let (from, to) = (step[0].y, step[1].y);
                    assert!(
                        if rises { to > from } else { to < from },
                        "{} {}: {from:.2} -> {to:.2} W at x = {}",
                        fig.id,
                        s.name,
                        step[1].x
                    );
                }
            }
        }
    }

    #[test]
    fn rtx6000_swings_are_damped() {
        // The relative power drop from dense to sparse is smaller on the
        // RTX 6000 than on the A100 — the paper's "less prominent" changes.
        let fig = run_sparsity(&RunProfile::TEST);
        assert!(relative_drop(&fig, "RTX 6000") < relative_drop(&fig, "A100"));
    }

    #[test]
    fn h100_draws_the_most_absolute_power() {
        let fig = run_mean(&RunProfile::TEST);
        let first_of = |needle: &str| -> f64 {
            fig.series
                .iter()
                .find(|s| s.name.contains(needle))
                .unwrap()
                .points[0]
                .y
        };
        assert!(first_of("H100") > first_of("A100"));
        assert!(first_of("H100") > first_of("V100"));
    }
}
