//! Extension experiment: learned power-predictor error vs. training
//! volume, across the paper's input distributions — and the per-kernel
//! vs. lumped model comparison on mixed GEMM+GEMV traffic.
//!
//! The `wm-predict` subsystem claims a fleet can price a kernel's power
//! from cheap one-pass input statistics instead of simulating it. The
//! first figure quantifies that claim the way a capacity planner would
//! ask it: *after N observed runs, how far off is the predictor on
//! inputs it has never seen?* An online ridge model trains on a mixed
//! stream of the paper's §IV input families (value distributions,
//! sparsity, placement/sorting, bit-field surgery) against the analytic
//! power model's ground truth; at checkpoints the held-out absolute
//! percentage error per family is recorded. The `wattd` end-to-end
//! acceptance bound (predictions within 15% after 64 observations) is
//! the horizontal line to read this figure against.
//!
//! The second figure is the regime-mixing ablation behind the
//! `(architecture, kernel)` model keying: train on *interleaved*
//! GEMM+GEMV traffic twice — once with per-kernel keyed models, once
//! deliberately lumped into a single per-architecture model — and plot
//! each scheme's P95 APE on held-out GEMV traffic. Compute-bound GEMM
//! moves power through the datapath while memory-bound GEMV rides the
//! DRAM interface, so the lumped model's shared slope mispredicts the
//! minority regime; the keyed models do not.
//!
//! Every figure trains and scores the profile's `seeds` independent seed
//! streams and plots each point's mean over them, with the sample
//! standard deviation as the error bar, so a change to the features or
//! the model can be judged against the seed spread.

use crate::profile::RunProfile;
use crate::runner::{FigureResult, PointStat, Series};
use wm_core::RunRequest;
use wm_fleet::parallel_map;
use wm_gpu::spec::a100_pcie;
use wm_kernels::KernelClass;
use wm_numerics::DType;
use wm_patterns::{PatternKind, PatternSpec};
use wm_power::evaluate_group;
use wm_predict::{walk_first_seed, FeatureVector, PowerPredictor, Prediction};

/// Training-volume checkpoints (observations seen so far).
const VOLUMES: [u64; 5] = [8, 16, 32, 64, 128];

/// Seed stream `s` XORs `s` times this odd constant into every request's
/// base seed, training and held-out alike; stream 0 is the unsalted data.
const STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// The input-distribution families swept, one series each.
struct Family {
    name: &'static str,
    /// Training pattern for step `i` of this family's round-robin turn.
    train: fn(u64) -> PatternKind,
    /// Held-out patterns: parameters deliberately off the training grid.
    held_out: fn() -> Vec<PatternKind>,
}

fn families() -> Vec<Family> {
    vec![
        Family {
            name: "distribution",
            train: |i| {
                if i % 2 == 0 {
                    PatternKind::Gaussian
                } else {
                    PatternKind::ValueSet {
                        set_size: 4 << (i % 5),
                    }
                }
            },
            held_out: || {
                vec![
                    PatternKind::Gaussian,
                    PatternKind::ValueSet { set_size: 24 },
                    PatternKind::ConstantRandom,
                ]
            },
        },
        Family {
            name: "sparsity",
            train: |i| PatternKind::Sparse {
                sparsity: 0.1 * ((i % 10) as f64),
            },
            held_out: || {
                vec![
                    PatternKind::Sparse { sparsity: 0.45 },
                    PatternKind::Sparse { sparsity: 0.85 },
                    PatternKind::SortedThenSparse { sparsity: 0.35 },
                ]
            },
        },
        Family {
            name: "placement",
            train: |i| PatternKind::SortedRows {
                fraction: 0.125 * ((i % 9) as f64),
            },
            held_out: || {
                vec![
                    PatternKind::SortedRows { fraction: 0.3 },
                    PatternKind::SortedCols { fraction: 0.7 },
                    PatternKind::SortedWithinRows { fraction: 0.5 },
                ]
            },
        },
        Family {
            name: "bit_fields",
            train: |i| PatternKind::ZeroLsbs {
                count: 2 * (i % 6) as u32,
            },
            held_out: || {
                vec![
                    PatternKind::ZeroLsbs { count: 7 },
                    PatternKind::ZeroMsbs { count: 4 },
                    PatternKind::RandomLsbs { count: 5 },
                ]
            },
        },
    ]
}

fn request(profile: &RunProfile, kind: PatternKind, seed: u64) -> RunRequest {
    profile
        .request(DType::Fp16Tensor, PatternSpec::new(kind))
        .with_base_seed(seed)
}

/// A figure's series over the profile's `seeds` seed streams.
/// `stream(salt)` trains and scores one stream, returning one value per
/// series and checkpoint; each point is the mean over streams, with the
/// sample standard deviation over streams as its error bar. Streams run
/// one after another; each fans its own labelling out over the cores
/// ([`label_up_front`]), which keeps every core busy however many
/// streams the profile has.
fn over_streams(
    profile: &RunProfile,
    names: &[&str],
    volumes: &[u64],
    stream: impl Fn(u64) -> Vec<Vec<f64>>,
) -> Vec<Series> {
    let runs: Vec<Vec<Vec<f64>>> = (0..profile.seeds)
        .map(|s| stream(s.wrapping_mul(STREAM_SALT)))
        .collect();
    let n = runs.len() as f64;
    names
        .iter()
        .enumerate()
        .map(|(si, name)| Series {
            name: name.to_string(),
            points: volumes
                .iter()
                .enumerate()
                .map(|(vi, &volume)| {
                    let mean = runs.iter().map(|r| r[si][vi]).sum::<f64>() / n;
                    let ss = runs.iter().map(|r| (r[si][vi] - mean).powi(2)).sum::<f64>();
                    PointStat {
                        x: volume as f64,
                        y: mean,
                        yerr: if runs.len() > 1 {
                            (ss / (n - 1.0)).sqrt()
                        } else {
                            0.0
                        },
                    }
                })
                .collect(),
        })
        .collect()
}

/// A request's features and its ground-truth watts.
type Label = (FeatureVector, f64);

/// A request's features and its ground truth — the analytic power model
/// on its first-seed activity, exactly what the `wattd` acceptance test
/// compares against — from one walk over its operands.
fn labelled(req: &RunRequest) -> Label {
    let (activity, features) = walk_first_seed(req);
    (features, evaluate_group(&a100_pcie(), &activity).total_w)
}

/// Label a stream's held-out and training requests in one fan-out over
/// the cores, in order, and split the labels back into the two sets.
/// Labels do not depend on any model, so a stream computes all of them
/// before it trains and scores sequentially.
fn label_up_front(
    held_out: Vec<RunRequest>,
    training: impl Iterator<Item = RunRequest>,
) -> (Vec<Label>, Vec<Label>) {
    let n = held_out.len();
    let requests = held_out.into_iter().chain(training).collect();
    let mut labels = parallel_map(requests, |req: RunRequest| labelled(&req));
    let training = labels.split_off(n);
    (labels, training)
}

/// Training observations a stream needs: enough for its last checkpoint.
fn training_volume(volumes: &[u64]) -> u64 {
    volumes.iter().copied().max().unwrap_or(0)
}

/// Absolute percentage error of `prediction` against `truth`; a model
/// that cannot predict yet scores 100%.
fn ape(prediction: Option<Prediction>, truth: f64) -> f64 {
    prediction.map_or(100.0, |p| ((p.watts - truth) / truth).abs() * 100.0)
}

/// Execute all three sweeps: the per-family error-vs-volume figure, the
/// per-kernel vs. lumped regime-mixing ablation, and the ragged-shape
/// generalization ablation.
pub fn run(profile: &RunProfile) -> Vec<FigureResult> {
    vec![
        volume_figure(profile),
        mixed_kernel_figure(profile),
        ragged_shape_figure(profile),
    ]
}

/// Error vs. training volume: one series per input family, x = training
/// observations, y = mean held-out APE (%) over seed streams.
fn volume_figure(profile: &RunProfile) -> FigureResult {
    let volumes = profile.thin(&VOLUMES);
    let fams = families();
    let names: Vec<&str> = fams.iter().map(|f| f.name).collect();
    let series = over_streams(profile, &names, &volumes, |salt| {
        volume_stream(profile, &fams, &volumes, salt)
    });

    FigureResult {
        id: "ext_predict".into(),
        title: "Extension: predictor error vs. training volume".into(),
        x_label: "training observations".into(),
        y_label: "held-out APE (%)".into(),
        notes: vec![
            "Extension (not a paper figure): online ridge model over one-pass \
             input features (Hamming weight, toggle density, sparsity, dynamic \
             range, peak magnitude), trained against the analytic power model \
             on an A100, FP16-T. Held-out parameters sit off the training grid."
                .into(),
            "Each point is a family's mean held-out APE, averaged over the \
             profile's seed streams (stream s XORs s * 0x9E3779B97F4A7C15 into \
             every request's base seed); the error bar is the sample standard \
             deviation over streams."
                .into(),
            "The wattd acceptance bound is 15% APE after 64 observations.".into(),
        ],
        series,
    }
}

/// One seed stream of [`volume_figure`]: each family's mean held-out APE
/// at each checkpoint.
fn volume_stream(
    profile: &RunProfile,
    fams: &[Family],
    volumes: &[u64],
    salt: u64,
) -> Vec<Vec<f64>> {
    let gpu = a100_pcie();
    // Held-out evaluation sets are fixed up front (seeds disjoint from
    // the training stream's).
    let (held_out_fams, held_out): (Vec<usize>, Vec<RunRequest>) = fams
        .iter()
        .enumerate()
        .flat_map(|(fi, fam)| {
            (fam.held_out)()
                .into_iter()
                .enumerate()
                .map(move |(i, kind)| (fi, (kind, i)))
        })
        .map(|(fi, (kind, i))| {
            let seed = (0x8E1D_0000 + (fi * 16 + i) as u64) ^ salt;
            (fi, request(profile, kind, seed))
        })
        .unzip();
    // The round-robin training stream, one family per step.
    let training = (0..training_volume(volumes)).map(|t| {
        let fam = &fams[(t as usize) % fams.len()];
        let step = t / fams.len() as u64;
        request(profile, (fam.train)(step), (0x7A17 + t) ^ salt)
    });
    let (held_out, training) = label_up_front(held_out, training);
    let held_out: Vec<(usize, Label)> = held_out_fams.into_iter().zip(held_out).collect();

    let mut predictor = PowerPredictor::with_min_observations(1);
    let mut apes = vec![Vec::new(); fams.len()];
    let mut trained = 0u64;
    for &volume in volumes {
        // Extend the training stream up to this checkpoint.
        while trained < volume {
            let (features, watts) = &training[trained as usize];
            predictor.observe(gpu.name, KernelClass::Gemm, features, *watts);
            trained += 1;
        }
        // Score every family's held-out set at this volume.
        for (fi, family) in apes.iter_mut().enumerate() {
            let scored: Vec<f64> = held_out
                .iter()
                .filter(|(f, _)| *f == fi)
                .map(|(_, (features, truth))| {
                    ape(
                        predictor.raw_predict(gpu.name, KernelClass::Gemm, features),
                        *truth,
                    )
                })
                .collect();
            family.push(scored.iter().sum::<f64>() / scored.len() as f64);
        }
    }
    apes
}

/// P95 absolute percentage error of the held-out `apes` (percentage
/// points) — the same nearest-rank P95 that the predictor reports over
/// its recent-error window (`window_p95_ape_pct`).
fn p95(apes: &mut [f64]) -> f64 {
    assert!(!apes.is_empty());
    apes.sort_by(f64::total_cmp);
    let rank = ((0.95 * apes.len() as f64).ceil() as usize).clamp(1, apes.len());
    apes[rank - 1]
}

/// The regime-mixing ablation: interleaved GEMM+GEMV training, per-kernel
/// keyed models vs. one deliberately lumped model, scored by P95 APE on
/// held-out GEMV traffic at each training-volume checkpoint.
fn mixed_kernel_figure(profile: &RunProfile) -> FigureResult {
    let volumes = profile.thin(&VOLUMES);
    let series = over_streams(profile, &["per_kernel", "lumped"], &volumes, |salt| {
        mixed_kernel_stream(profile, &volumes, salt)
    });

    FigureResult {
        id: "ext_predict_mixed".into(),
        title: "Extension: per-kernel vs. lumped models on mixed GEMM+GEMV traffic".into(),
        x_label: "training observations (interleaved GEMM+GEMV)".into(),
        y_label: "held-out GEMV P95 APE (%)".into(),
        notes: vec![
            "Extension (not a paper figure): the regime-mixing ablation behind \
             keying learned power models by (architecture, kernel). Both schemes \
             train on the same interleaved GEMM+GEMV stream against the analytic \
             power model on an A100, FP16-T; the lumped scheme files every \
             observation under one per-architecture model, the keyed scheme under \
             the run's kernel class. Scored on held-out GEMV traffic."
                .into(),
            "Each point is the P95 APE averaged over the profile's seed streams; \
             the error bar is the sample standard deviation over streams."
                .into(),
        ],
        series,
    }
}

/// One seed stream of [`mixed_kernel_figure`]: the keyed and the lumped
/// scheme's held-out GEMV P95 APE at each checkpoint.
fn mixed_kernel_stream(profile: &RunProfile, volumes: &[u64], salt: u64) -> Vec<Vec<f64>> {
    let gpu = a100_pcie();
    let kinds = [
        PatternKind::Gaussian,
        PatternKind::Sparse { sparsity: 0.3 },
        PatternKind::Sparse { sparsity: 0.7 },
        PatternKind::SortedRows { fraction: 0.5 },
        PatternKind::ValueSet { set_size: 8 },
        PatternKind::ConstantRandom,
        PatternKind::ZeroLsbs { count: 6 },
        PatternKind::Zeros,
    ];
    // Alternate kernels so the stream is genuinely interleaved.
    let kernel = |i: u64| {
        if i.is_multiple_of(2) {
            KernelClass::Gemm
        } else {
            KernelClass::Gemv
        }
    };
    let training = (0..training_volume(volumes)).map(|i| {
        request(
            profile,
            kinds[(i / 2 % kinds.len() as u64) as usize],
            (0x317ED + i) ^ salt,
        )
        .with_kernel(kernel(i))
    });
    // Held-out GEMV traffic: same families, disjoint seeds, parameters
    // off the training grid.
    let held_out = [
        PatternKind::Gaussian,
        PatternKind::Sparse { sparsity: 0.45 },
        PatternKind::Sparse { sparsity: 0.85 },
        PatternKind::SortedRows { fraction: 0.3 },
        PatternKind::ValueSet { set_size: 24 },
        PatternKind::ZeroLsbs { count: 9 },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| {
        request(profile, kind, (0x6E1D_0000 + i as u64) ^ salt).with_kernel(KernelClass::Gemv)
    })
    .collect();
    let (held_out, training) = label_up_front(held_out, training);

    // Two predictors see the *same* interleaved stream; the lumped one
    // files every observation under one key (the old per-architecture
    // scheme), the keyed one under the run's own kernel class.
    let mut per_kernel = PowerPredictor::with_min_observations(1);
    let mut lumped = PowerPredictor::with_min_observations(1);
    let mut p95s = vec![Vec::new(), Vec::new()];

    let mut trained = 0u64;
    for &volume in volumes {
        while trained < volume {
            let (features, watts) = &training[trained as usize];
            per_kernel.observe(gpu.name, kernel(trained), features, *watts);
            lumped.observe(gpu.name, KernelClass::Gemm, features, *watts);
            trained += 1;
        }
        let ape_of = |keyed: bool| {
            let mut apes: Vec<f64> = held_out
                .iter()
                .map(|(features, truth)| {
                    let p = if keyed {
                        per_kernel.raw_predict(gpu.name, KernelClass::Gemv, features)
                    } else {
                        lumped.raw_predict(gpu.name, KernelClass::Gemm, features)
                    };
                    ape(p, *truth)
                })
                .collect();
            p95(&mut apes)
        };
        p95s[0].push(ape_of(true));
        p95s[1].push(ape_of(false));
    }
    p95s
}

/// The ragged-shape generalization ablation behind opening `RunRequest`
/// to full `n x m x k` shapes: decode-GEMV traffic whose `n`/`k` vary
/// independently, scored on held-out shapes *off the training grid*. A
/// model that also trained on ragged shapes exercises the per-axis log2
/// and bytes-per-FLOP features and generalizes; a model trained only on
/// the paper's square `dim` saw those features constant and cannot.
fn ragged_shape_figure(profile: &RunProfile) -> FigureResult {
    let volumes = profile.thin(&VOLUMES);
    let series = over_streams(
        profile,
        &["ragged_trained", "square_trained"],
        &volumes,
        |salt| ragged_shape_stream(profile, &volumes, salt),
    );

    FigureResult {
        id: "ext_predict_ragged".into(),
        title: "Extension: shape generalization on ragged decode-GEMV traffic".into(),
        x_label: "training observations (ragged n x 1 x k decode shapes)".into(),
        y_label: "held-out ragged-shape P95 APE (%)".into(),
        notes: vec![
            "Extension (not a paper figure): the ablation behind opening \
             RunRequest to full n x m x k shapes. Two GEMV models train on the \
             same input-pattern stream against the analytic power model on an \
             A100, FP16-T — one on a grid of ragged decode shapes, one only on \
             the paper's square dim — and both are scored on held-out ragged \
             shapes off the training grid. The per-axis log2 and bytes-per-FLOP \
             features only vary (and therefore only train) under ragged traffic."
                .into(),
            "Each point is the P95 APE averaged over the profile's seed streams; \
             the error bar is the sample standard deviation over streams."
                .into(),
        ],
        series,
    }
}

/// One seed stream of [`ragged_shape_figure`]: the ragged- and the
/// square-trained model's held-out P95 APE at each checkpoint.
fn ragged_shape_stream(profile: &RunProfile, volumes: &[u64], salt: u64) -> Vec<Vec<f64>> {
    let gpu = a100_pcie();
    let d = profile.dim;
    // Decode shapes (n, k): tall, wide, and balanced, n != k throughout
    // most of the grid.
    let train_shapes = [
        (d, d / 4),
        (d / 4, d),
        (d / 2, d / 2),
        (d, d / 2),
        (d / 2, d / 4),
        (d / 4, d / 2),
    ];
    let held_out_shapes = [
        (3 * d / 4, 3 * d / 8),
        (d / 8, 3 * d / 4),
        (3 * d / 8, 3 * d / 4),
    ];
    let kinds = [
        PatternKind::Gaussian,
        PatternKind::Sparse { sparsity: 0.3 },
        PatternKind::Sparse { sparsity: 0.7 },
        PatternKind::SortedRows { fraction: 0.5 },
        PatternKind::ValueSet { set_size: 8 },
        PatternKind::ZeroLsbs { count: 6 },
    ];
    let decode = |(n, k): (usize, usize), kind: PatternKind, seed: u64| {
        request(profile, kind, seed ^ salt)
            .with_kernel(KernelClass::Gemv)
            .with_shape(wm_gpu::GemmDims { n, m: 1, k })
    };
    let held_out = held_out_shapes
        .iter()
        .enumerate()
        .flat_map(|(si, &shape)| {
            [
                PatternKind::Gaussian,
                PatternKind::Sparse { sparsity: 0.45 },
            ]
            .into_iter()
            .enumerate()
            .map(move |(pi, kind)| (shape, kind, 0x4A66_0000 + (si * 8 + pi) as u64))
        })
        .map(|(shape, kind, seed)| decode(shape, kind, seed))
        .collect();
    // Each step trains both models on one pattern: the ragged one at a
    // grid shape (even entries), the square one at `dim` (odd entries).
    let training = (0..training_volume(volumes)).flat_map(|t| {
        let kind = kinds[(t % kinds.len() as u64) as usize];
        let shape = train_shapes[(t % train_shapes.len() as u64) as usize];
        [
            decode(shape, kind, 0x5A99 + t),
            decode((d, d), kind, 0x5A99 + t),
        ]
    });
    let (held_out, training) = label_up_front(held_out, training);

    // Both models see the same pattern stream and observation count; only
    // the shapes differ: ragged grid vs. the square `dim` the paper used.
    let mut ragged = PowerPredictor::with_min_observations(1);
    let mut square = PowerPredictor::with_min_observations(1);
    let mut p95s = vec![Vec::new(), Vec::new()];

    let mut trained = 0u64;
    for &volume in volumes {
        while trained < volume {
            let t = 2 * trained as usize;
            let (features, watts) = &training[t];
            ragged.observe(gpu.name, KernelClass::Gemv, features, *watts);
            let (features, watts) = &training[t + 1];
            square.observe(gpu.name, KernelClass::Gemv, features, *watts);
            trained += 1;
        }
        for (series, predictor) in p95s.iter_mut().zip([&ragged, &square]) {
            let mut apes: Vec<f64> = held_out
                .iter()
                .map(|(features, truth)| {
                    ape(
                        predictor.raw_predict(gpu.name, KernelClass::Gemv, features),
                        *truth,
                    )
                })
                .collect();
            series.push(p95(&mut apes));
        }
    }
    p95s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// [`run`] at the test profile, computed once for every test here.
    fn figures() -> &'static [FigureResult] {
        static FIGURES: OnceLock<Vec<FigureResult>> = OnceLock::new();
        FIGURES.get_or_init(|| run(&RunProfile::TEST))
    }

    #[test]
    fn predictor_error_shrinks_with_training_volume() {
        let fig = &figures()[0];
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            let first = s.points.first().unwrap();
            let last = s.points.last().unwrap();
            assert!(
                last.y <= first.y + 1.0,
                "{}: error should not grow with data ({:.1}% -> {:.1}%)",
                s.name,
                first.y,
                last.y
            );
            assert!(
                last.y < 15.0,
                "{}: held-out APE {:.1}% misses the acceptance band at {} obs",
                s.name,
                last.y,
                last.x
            );
        }
    }

    #[test]
    fn run_produces_all_figures() {
        let figs = figures();
        assert_eq!(figs.len(), 3);
        assert_eq!(figs[0].id, "ext_predict");
        assert_eq!(figs[1].id, "ext_predict_mixed");
        assert_eq!(figs[2].id, "ext_predict_ragged");
    }

    #[test]
    fn per_kernel_models_beat_a_lumped_model_on_gemv_traffic() {
        // The regression behind the (architecture, kernel) keying: on the
        // same interleaved GEMM+GEMV stream, the keyed GEMV model's P95
        // APE on held-out GEMV traffic must be strictly lower than the
        // lumped per-architecture model's — regime mixing is a bug, not
        // noise.
        let fig = &figures()[1];
        assert_eq!(fig.series.len(), 2);
        let keyed = fig.series[0].points.last().unwrap();
        let lumped = fig.series[1].points.last().unwrap();
        assert!(
            keyed.y < lumped.y,
            "per-kernel P95 APE {:.2}% must sit strictly below lumped {:.2}%",
            keyed.y,
            lumped.y
        );
        // And the keyed model must itself be *good*, not merely less bad:
        // the wattd acceptance band applies to its regime.
        assert!(
            keyed.y < 15.0,
            "per-kernel GEMV P95 APE {:.2}% misses the acceptance band",
            keyed.y
        );
    }

    #[test]
    fn ragged_trained_model_generalizes_where_square_trained_cannot() {
        // The regression behind ragged n x m x k request shapes: on
        // held-out decode shapes off the training grid, the model that
        // trained on ragged traffic must land in the acceptance band and
        // strictly beat the square-dim-only model, whose per-axis shape
        // features never varied during training.
        let fig = &figures()[2];
        assert_eq!(fig.series.len(), 2);
        let ragged = fig.series[0].points.last().unwrap();
        let square = fig.series[1].points.last().unwrap();
        assert!(
            ragged.y < square.y,
            "ragged-trained P95 APE {:.2}% must sit strictly below square-trained {:.2}%",
            ragged.y,
            square.y
        );
        assert!(
            ragged.y < 15.0,
            "ragged-trained P95 APE {:.2}% misses the acceptance band",
            ragged.y
        );
    }
}
