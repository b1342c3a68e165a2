//! Shared sweep machinery: run a set of experiment points through the
//! reproduction pipeline and assemble figure data.
//!
//! A sweep is plain [`PowerLab`] work fanned out over cores; no fleet
//! scheduler is involved. The work item is one `(member, ordinal, seed)`
//! unit of one distinct request rather than a whole point, so a figure
//! with fewer points than cores still spreads each point's seeds (ten at
//! the paper profile) across them. A unit's walk never reads the device,
//! so a request that several GPUs run (Fig. 7) is walked once and only
//! its assembly runs per GPU. A figure reads only the measured
//! [`RunResult`]. The input features the scheduler extracts per request
//! exist to train and consult its power predictor for serving traffic,
//! so the runner never computes them. The root package's
//! `tests/pipeline.rs` (`runner_matches_powerlab_and_the_pinned_scheduler`)
//! pins that the runner, `PowerLab::run` and a pinned scheduler batch
//! return equal results.

use wm_core::{
    member_seed_operands, member_slices, simulate_member_activity, unit_layout, PowerLab,
    RunRequest, RunResult,
};
use wm_fleet::parallel_map;
use wm_gpu::GpuSpec;

/// Which measured quantity a figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean power in watts (Figs. 3–7).
    PowerW,
    /// Per-iteration energy in millijoules (Fig. 2).
    EnergyMj,
    /// Per-iteration runtime in microseconds (Fig. 1).
    RuntimeUs,
}

/// One sweep point: a request, the device it runs on, and where its result
/// lands in the figure.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Series name (e.g. the dtype label, or a GPU name in Fig. 7).
    pub series: String,
    /// X coordinate in the figure (sweep parameter value).
    pub x: f64,
    /// The full run request.
    pub request: RunRequest,
    /// The device specification.
    pub gpu: GpuSpec,
    /// Which metric to extract.
    pub metric: Metric,
}

/// One figure data point: x, y, and the seed-level error bar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointStat {
    /// Sweep parameter value.
    pub x: f64,
    /// Metric mean over seeds.
    pub y: f64,
    /// Metric standard deviation over seeds.
    pub yerr: f64,
}

/// A named line in a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Display name.
    pub name: String,
    /// The data points, in sweep order.
    pub points: Vec<PointStat>,
}

/// Everything needed to regenerate one paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Stable identifier (`fig3a`, `fig7`, ...), used for file names.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Free-form notes (correlations, methodology observations).
    pub notes: Vec<String>,
    /// The series.
    pub series: Vec<Series>,
}

/// An executed sweep point with its full result (kept for Fig. 8, which
/// needs the activity statistics, not just the metric).
#[derive(Debug, Clone)]
pub struct ExecutedPoint {
    /// Series name.
    pub series: String,
    /// X coordinate.
    pub x: f64,
    /// Extracted metric.
    pub stat: PointStat,
    /// The underlying run result.
    pub result: RunResult,
}

fn extract(metric: Metric, result: &RunResult) -> (f64, f64) {
    match metric {
        Metric::PowerW => (result.power.mean, result.power.std),
        Metric::EnergyMj => (
            result.energy_per_iter.mean * 1e3,
            result.energy_per_iter.std * 1e3,
        ),
        Metric::RuntimeUs => (result.runtime.mean * 1e6, result.runtime.std * 1e6),
    }
}

/// Execute all points, preserving input order.
///
/// A unit's walk reads only the request, so each distinct request's
/// units — [`member_seed_operands`] then [`simulate_member_activity`],
/// in [`unit_layout`] order — are walked once, however many GPUs run it;
/// the units of all distinct requests fan out over [`parallel_map`], and
/// [`member_slices`] cuts each request's records back apart. Each distinct
/// `(request, gpu)` pair is then assembled once by
/// [`PowerLab::run_from_activities`] on its GPU as VM instance 0, the
/// paper's methodology ("we executed all experiments on the same VM
/// instance"), and every point that repeats the pair shares the result.
/// The result is bit-identical to `PowerLab::new(gpu).run(&request)`,
/// which walks the same units sequentially.
pub fn execute(points: Vec<SweepPoint>) -> Vec<ExecutedPoint> {
    let mut requests: Vec<&RunRequest> = Vec::new();
    let mut runs: Vec<(usize, &GpuSpec)> = Vec::new();
    let slots: Vec<usize> = points
        .iter()
        .map(|p| {
            let request = slot(&mut requests, &p.request);
            slot(&mut runs, (request, &p.gpu))
        })
        .collect();

    let layouts: Vec<_> = requests
        .iter()
        .map(|req| unit_layout(req, req.seeds))
        .collect();
    let units: Vec<_> = requests
        .iter()
        .zip(&layouts)
        .flat_map(|(&req, layout)| layout.iter().map(move |&(m, ord, s)| (req, m, ord, s)))
        .collect();
    let activities = parallel_map(units, |(req, m, ord, s)| {
        let (a, b) = member_seed_operands(req, m, ord, s);
        simulate_member_activity(req, m, &a, &b)
    });

    let mut rest = activities.as_slice();
    let per_member: Vec<Vec<_>> = requests
        .iter()
        .zip(&layouts)
        .map(|(req, layout)| {
            let (mine, tail) = rest.split_at(layout.len());
            rest = tail;
            member_slices(req, mine)
        })
        .collect();
    let results: Vec<RunResult> = runs
        .iter()
        .map(|&(r, gpu)| {
            PowerLab::new(gpu.clone()).run_from_activities(requests[r], &per_member[r])
        })
        .collect();

    points
        .into_iter()
        .zip(slots)
        .map(|(p, slot)| {
            let result = results[slot].clone();
            let (y, yerr) = extract(p.metric, &result);
            ExecutedPoint {
                series: p.series,
                x: p.x,
                stat: PointStat { x: p.x, y, yerr },
                result,
            }
        })
        .collect()
}

/// The index of `item` in `distinct`, appending it first if it is new.
fn slot<T: PartialEq>(distinct: &mut Vec<T>, item: T) -> usize {
    distinct.iter().position(|d| *d == item).unwrap_or_else(|| {
        distinct.push(item);
        distinct.len() - 1
    })
}

/// Group executed points into series, preserving first-appearance order of
/// series names and input order of points within a series.
pub fn collect_series(executed: &[ExecutedPoint]) -> Vec<Series> {
    let mut order: Vec<String> = Vec::new();
    for p in executed {
        if !order.contains(&p.series) {
            order.push(p.series.clone());
        }
    }
    order
        .into_iter()
        .map(|name| Series {
            points: executed
                .iter()
                .filter(|p| p.series == name)
                .map(|p| p.stat)
                .collect(),
            name,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::RunProfile;
    use wm_gpu::spec::a100_pcie;
    use wm_numerics::DType;
    use wm_patterns::{PatternKind, PatternSpec};

    fn tiny_point(series: &str, x: f64, sparsity: f64) -> SweepPoint {
        let profile = RunProfile::TEST;
        SweepPoint {
            series: series.to_string(),
            x,
            request: RunRequest::new(
                DType::Fp16Tensor,
                profile.dim,
                PatternSpec::new(PatternKind::Sparse { sparsity }),
            )
            .with_seeds(profile.seeds)
            .with_sampling(profile.sampling),
            gpu: a100_pcie(),
            metric: Metric::PowerW,
        }
    }

    #[test]
    fn execute_preserves_order_and_runs_everything() {
        let points = vec![
            tiny_point("s", 0.0, 0.0),
            tiny_point("s", 0.5, 0.5),
            tiny_point("s", 1.0, 1.0),
        ];
        let executed = execute(points);
        assert_eq!(executed.len(), 3);
        let xs: Vec<f64> = executed.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![0.0, 0.5, 1.0]);
        // Denser matrices use more power: x=0 (dense) > x=1 (all zero).
        assert!(executed[0].stat.y > executed[2].stat.y);
    }

    #[test]
    fn collect_series_groups_and_orders() {
        let executed = execute(vec![
            tiny_point("b", 1.0, 0.2),
            tiny_point("a", 1.0, 0.2),
            tiny_point("b", 2.0, 0.4),
        ]);
        let series = collect_series(&executed);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].name, "b");
        assert_eq!(series[0].points.len(), 2);
        assert_eq!(series[1].name, "a");
    }

    #[test]
    fn metric_extraction_units() {
        let lab = PowerLab::new(a100_pcie());
        let result = lab.run(
            &RunRequest::new(DType::Int8, 256, PatternSpec::new(PatternKind::Gaussian))
                .with_seeds(1)
                .with_sampling(RunProfile::TEST.sampling),
        );
        let (p, _) = extract(Metric::PowerW, &result);
        let (e, _) = extract(Metric::EnergyMj, &result);
        let (t, _) = extract(Metric::RuntimeUs, &result);
        assert!((e - result.energy_per_iter.mean * 1e3).abs() < 1e-9);
        assert!((t - result.runtime.mean * 1e6).abs() < 1e-9);
        assert!(p > 0.0);
    }
}
