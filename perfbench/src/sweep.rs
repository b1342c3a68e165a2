//! The `sweep` workload: the reproduction path. Repeated
//! `runner::execute` batches of pinned, distinct sweep points covering the
//! paper's four input variations on FP32, FP16-T and INT8.

use std::time::{Duration, Instant};

use wm_experiments::runner::{execute, ExecutedPoint, SweepPoint};
use wm_fleet::Fleet;
use wm_predict::PowerPredictor;

use crate::gen::{sweep_points, Finding, SWEEP_DIM};
use crate::replay::Replay;
use crate::report::{median, quantile, Report};
use crate::trace::{SelfTimes, Span};
use crate::{layer_metrics, setup_median, Args, REPLAY_LAYERS_SWEEP};

/// FNV-1a over every point's simulated mean power, bit for bit.
fn power_digest(points: &[ExecutedPoint]) -> u64 {
    points.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        p.result
            .power
            .mean
            .to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Repeated batches until `budget` has passed (at least two).
struct Batches {
    /// Wall time of each batch, seconds.
    times: Vec<f64>,
    spans: Vec<Span>,
}

fn run_batches(
    points: &[SweepPoint],
    findings: &[Finding],
    budget: Duration,
    traced: bool,
    report: &mut Report,
    digest: &mut Option<u64>,
) -> Batches {
    let mut out = Batches {
        times: Vec::new(),
        spans: Vec::new(),
    };
    let epoch = Instant::now();
    while out.times.len() < 2 || epoch.elapsed() < budget {
        let start = epoch.elapsed();
        let executed = execute(points.to_vec());
        let end = epoch.elapsed();
        out.times.push((end - start).as_secs_f64());
        if traced {
            out.spans.push(Span::new(
                out.times.len() as u64,
                "bench.execute",
                start.as_nanos() as u64,
                end.as_nanos() as u64,
            ));
        }
        for p in &executed {
            let w = p.result.power.mean;
            report.check(
                (!(w.is_finite() && w > 0.0))
                    .then(|| format!("point {}@{}: power {w} is not positive", p.series, p.x)),
            );
        }
        let d = power_digest(&executed);
        match *digest {
            None => {
                *digest = Some(d);
                for f in findings {
                    let (lo, hi) = (executed[f.low].stat.y, executed[f.high].stat.y);
                    report.require(lo < hi, || {
                        format!("finding '{}' does not hold: {lo} W vs {hi} W", f.name)
                    });
                }
            }
            Some(first) => report.require(d == first, || {
                format!("batch power digest {d:#018x} differs from the first {first:#018x}")
            }),
        }
    }
    out
}

pub fn run(args: &Args, report: &mut Report) {
    let gpu = wm_gpu::spec::a100_pcie();
    // Set-up: generate the batch and run a one-point-per-dtype warm-up
    // through the same entry point.
    let (setup_s, (points, findings)) = setup_median(|| {
        let (points, findings) = sweep_points(args.seed);
        let warm: Vec<SweepPoint> = points.iter().step_by(points.len() / 3).cloned().collect();
        std::hint::black_box(execute(warm));
        (points, findings)
    });
    report.set("setup_s", setup_s);
    report.note(format!(
        "sweep: {} pinned points per runner::execute batch ({SWEEP_DIM}x{SWEEP_DIM}, 1 seed), \
         {} directional findings checked",
        points.len(),
        findings.len()
    ));

    let budget = Duration::from_secs_f64(args.seconds);
    let mut digest = None;
    let rates =
        |b: &Batches| -> Vec<f64> { b.times.iter().map(|t| points.len() as f64 / t).collect() };
    if !args.trace {
        let b = run_batches(&points, &findings, budget, false, report, &mut digest);
        let latencies_ms: Vec<f64> = b
            .times
            .iter()
            .flat_map(|t| std::iter::repeat_n(t * 1e3, points.len()))
            .collect();
        report.set("ops_per_s", median(&rates(&b)));
        report.set("p50_ms", quantile(&latencies_ms, 0.5));
        report.set("p90_ms", quantile(&latencies_ms, 0.9));
        report.set("load.p99_ms", quantile(&latencies_ms, 0.99));
        report.note(format!(
            "sweep_points_per_s = {} points/s (median of {} batches); point latency \
             (its batch's wall time) p50 {} ms, p90 {} ms, p99 {} ms over {} points",
            median(&rates(&b)),
            b.times.len(),
            quantile(&latencies_ms, 0.5),
            quantile(&latencies_ms, 0.9),
            quantile(&latencies_ms, 0.99),
            latencies_ms.len()
        ));
    } else {
        let untraced = run_batches(&points, &findings, budget / 2, false, report, &mut digest);
        let traced = run_batches(&points, &findings, budget / 2, true, report, &mut digest);
        let (u, t) = (median(&rates(&untraced)), median(&rates(&traced)));
        report.set("bench.tracing_overhead", 1.0 - t / u);
        report.note(format!(
            "tracing overhead: sweep_points_per_s {u} untraced vs {t} traced"
        ));
        let fleet = Fleet::builder()
            .device_with(gpu.clone(), 0, gpu.tdp_watts)
            .build();
        let mut replay = Replay::default();
        let mut predictor = PowerPredictor::new();
        for p in &points {
            replay.request(&p.request, &fleet, 0, &mut predictor);
        }
        let accounted = SelfTimes::from_spans(&replay.spans);
        layer_metrics(report, &accounted, replay.ops, REPLAY_LAYERS_SWEEP);
        crate::replay_counts(report, &replay);
        let mut spans = traced.spans;
        spans.extend(replay.spans);
        crate::finish_trace(args, report, &spans);
    }
    if let Some(d) = digest {
        report.note(format!("sweep power digest: {d:#018x}"));
    }
}
