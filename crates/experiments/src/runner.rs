//! Shared sweep machinery: run a set of experiment points through the
//! reproduction pipeline and assemble figure data.
//!
//! A sweep is plain [`PowerLab`] work fanned out over cores; no fleet
//! scheduler is involved. The work item is one `(member, ordinal, seed)`
//! **unit** of one distinct request rather than a whole point, so a figure
//! with fewer points than cores still spreads each point's seeds (ten at
//! the paper profile) across them. A unit's walk never reads the device,
//! so a request that several GPUs run (Fig. 7) is walked once and only
//! its assembly runs per GPU. A figure reads only the measured
//! [`RunResult`]. The input features the scheduler extracts per request
//! exist to train and consult its power predictor for serving traffic,
//! so the runner never computes them.
//!
//! The paper changes one input property at a time from fixed seeds, so
//! many units of a batch start their operands from the same base draw
//! (see `wm_patterns`): within one dtype and seed, every Gaussian,
//! sorted, sparse and zeroed-bit point draws one Gaussian fill. Units are
//! listed **group by group** — those sharing a base adjacent — and a
//! **base store** that lives for one batch draws each shared base once,
//! fully sorts it at most once, and releases it when its last user has
//! taken it. Only Gaussian fills and value sets are shared: a constant or
//! zero fill costs no more than a copy. A unit whose operands share no
//! base walks exactly as
//! [`member_seed_operands`](wm_core::member_seed_operands) does, with no
//! store entry and no copy. A unit lets go of a shared base as soon as
//! its pattern has copied it, and the last unit to hold one transforms it
//! in place. As the work list runs in order, the store holds the bases of
//! the groups in flight, so its memory grows with the number of workers,
//! not with points or seeds.
//!
//! The root package's `tests/pipeline.rs` pins that the runner returns
//! what `PowerLab::run` does: with a pinned scheduler batch as a third
//! witness (`runner_matches_powerlab_and_the_pinned_scheduler`), and on
//! points that share bases (`runner_shares_bases_and_still_matches_powerlab`).

use std::borrow::Cow;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use wm_bits::Xoshiro256pp;
use wm_core::{
    member_seed_streams, member_slices, simulate_member_activity, unit_layout, OperandStream,
    PowerLab, RunRequest, RunResult,
};
use wm_fleet::parallel_map;
use wm_gpu::{GemmDims, GpuSpec};
use wm_kernels::ActivityRecord;
use wm_matrix::Matrix;
use wm_patterns::{placement, BaseKey, BaseKind};

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
/// units — their operands
/// ([`member_seed_operands`](wm_core::member_seed_operands)), then
/// [`simulate_member_activity`], in [`unit_layout`] order — are walked
/// once, however many GPUs run it; the units of all distinct requests fan
/// out over [`parallel_map`] group by group, drawing each shared operand
/// base once (see the module docs), and [`member_slices`] cuts each
/// request's records back apart. Each distinct `(request, gpu)` pair is
/// then assembled once by [`PowerLab::run_from_activities`] on its GPU as
/// VM instance 0, the paper's methodology ("we executed all experiments
/// on the same VM instance"), and every point that repeats the pair
/// shares the result. The result is bit-identical to
/// `PowerLab::new(gpu).run(&request)`, which walks the same units
/// sequentially.
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
    let units: Vec<Unit> = requests
        .iter()
        .zip(&layouts)
        .flat_map(|(&req, layout)| layout.iter().map(move |&(m, ord, s)| (req, m, ord, s)))
        .collect();
    let activities = walk_units(&units);

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

/// One `(member, ordinal, seed)` walk of one distinct request.
type Unit<'a> = (&'a RunRequest, GemmDims, u64, u64);

/// Walk every unit, one record per unit in `units` order.
///
/// Each operand's base key is found by a linear scan, as [`slot`] finds
/// requests, and a key that two or more operands take is shared through
/// a [`BaseStore`]. The units run ordered by their A key, then their B
/// key, in first-appearance order, so the units of one group run
/// together and their bases live only while the group is in flight; the
/// records are put back by unit index.
fn walk_units(units: &[Unit]) -> Vec<ActivityRecord> {
    let streams: Vec<[OperandStream; 2]> = units
        .iter()
        .map(|&(req, m, ord, s)| member_seed_streams(req, m, ord, s))
        .collect();
    let mut keys: Vec<BaseKey> = Vec::new();
    let needs: Vec<[Need; 2]> = streams
        .iter()
        .map(|ops| {
            ops.map(|op| Need {
                key: slot(&mut keys, op.base_key()),
                sorted: op.pattern.starts_sorted(),
            })
        })
        .collect();
    let store = BaseStore::new(keys, needs.iter().flatten());

    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&u| needs[u].map(|n| n.key));
    let walked = parallel_map(order.clone(), |u| {
        let (req, member, _, _) = units[u];
        let [a, b] = store.take(needs[u]);
        let [a, b] = [operand(&streams[u][0], a), operand(&streams[u][1], b)];
        simulate_member_activity(req, member, a.matrix(), b.matrix())
    });
    let mut placed: Vec<(usize, ActivityRecord)> = order.into_iter().zip(walked).collect();
    placed.sort_unstable_by_key(|&(u, _)| u);
    placed.into_iter().map(|(_, record)| record).collect()
}

/// A unit's operand: its own matrix, or a shared start that its pattern
/// keeps as it is.
enum Operand {
    Own(Matrix),
    Shared(Arc<Matrix>),
}

impl Operand {
    fn matrix(&self) -> &Matrix {
        match self {
            Operand::Own(m) => m,
            Operand::Shared(m) => m,
        }
    }
}

/// Generate `op`, or finish it from its shared start. A start that no
/// other unit holds any more is transformed in place, with no copy, and
/// a copied start is let go at once rather than after the simulation.
fn operand(op: &OperandStream, start: Option<Start>) -> Operand {
    let Some((start, mut rng)) = start else {
        return Operand::Own(op.generate());
    };
    let (pattern, dtype) = (op.pattern, op.dtype);
    match Arc::try_unwrap(start) {
        Ok(own) => Operand::Own(
            pattern
                .transform(dtype, Cow::Owned(own), &mut rng)
                .into_owned(),
        ),
        Err(shared) => match pattern.transform(dtype, Cow::Borrowed(&shared), &mut rng) {
            Cow::Owned(m) => Operand::Own(m),
            Cow::Borrowed(_) => Operand::Shared(shared),
        },
    }
}

/// Whether a base of this kind is worth sharing: a Gaussian fill or a
/// value set's picks cost more than the copy that a shared base's
/// transform may make, while a constant or zero fill costs no more.
fn worth_sharing(kind: BaseKind) -> bool {
    matches!(kind, BaseKind::Gaussian | BaseKind::ValueSet { .. })
}

/// What one operand starts from: the base of key `key`, or its full sort.
#[derive(Debug, Clone, Copy)]
struct Need {
    key: usize,
    sorted: bool,
}

/// A shared operand's start, with the RNG state its base draw left behind.
type Start = (Arc<Matrix>, Xoshiro256pp);

/// One form of a shared base (the base, or its full sort).
enum Stage {
    /// Not made yet, or released.
    Missing,
    /// A unit is making it.
    Running,
    /// Made.
    Ready(Start),
}

/// One base key: the takes of each form still to come, and each form.
/// Index 0 is the base, index 1 its full sort.
struct Entry {
    key: BaseKey,
    takes: [usize; 2],
    forms: [Stage; 2],
}

impl Entry {
    /// Drop the forms no take is left for. The base stays while a full
    /// sort that is still to be made needs it.
    fn release_spent(&mut self) {
        if self.takes[1] == 0 {
            self.forms[1] = Stage::Missing;
        }
        let sort_needs_base = self.takes[1] > 0 && matches!(self.forms[1], Stage::Missing);
        if self.takes[0] == 0 && !sort_needs_base {
            self.forms[0] = Stage::Missing;
        }
    }
}

/// The operand bases of one batch. A key that only one operand takes, or
/// that is not [worth sharing](worth_sharing), is never touched: its
/// operands generate as
/// [`member_seed_operands`](wm_core::member_seed_operands) does, with no
/// copy. For a shared key, the first unit to need the base draws it and
/// the first to need its full sort sorts it; a unit that needs a form
/// another unit is making makes any other form it needs first, then
/// waits. A form is released once its last take is done.
struct BaseStore {
    /// Whether each key is shared.
    shared: Vec<bool>,
    entries: Mutex<Vec<Entry>>,
    made: Condvar,
}

impl BaseStore {
    fn new<'a>(keys: Vec<BaseKey>, needs: impl Iterator<Item = &'a Need>) -> Self {
        let mut entries: Vec<Entry> = keys
            .into_iter()
            .map(|key| Entry {
                key,
                takes: [0; 2],
                forms: [Stage::Missing, Stage::Missing],
            })
            .collect();
        for need in needs {
            entries[need.key].takes[usize::from(need.sorted)] += 1;
        }
        Self {
            shared: entries
                .iter()
                .map(|e| e.takes[0] + e.takes[1] > 1 && worth_sharing(e.key.kind()))
                .collect(),
            entries: Mutex::new(entries),
            made: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The starts of one unit's two operands: `None` for an operand whose
    /// key is not shared.
    fn take(&self, needs: [Need; 2]) -> [Option<Start>; 2] {
        let needs = needs.map(|n| self.shared[n.key].then_some(n));
        let mut starts: [Option<Start>; 2] = [None, None];
        let mut entries = self.lock();
        loop {
            let mut next = None;
            for (need, start) in needs.iter().zip(&mut starts) {
                let Some(need) = *need else { continue };
                if start.is_some() {
                    continue;
                }
                let e = &mut entries[need.key];
                let form = usize::from(need.sorted);
                let step = match (&e.forms[form], &e.forms[0]) {
                    (Stage::Ready(ready), _) => {
                        *start = Some(ready.clone());
                        e.takes[form] -= 1;
                        e.release_spent();
                        continue;
                    }
                    (Stage::Running, _) | (Stage::Missing, Stage::Running) => None,
                    // The base comes first; the sort needs it made.
                    (Stage::Missing, Stage::Missing) => Some(0),
                    (Stage::Missing, Stage::Ready(_)) => Some(1),
                };
                next = next.or(step.map(|form| (need.key, form)));
            }
            if needs
                .iter()
                .zip(&starts)
                .all(|(n, s)| n.is_none() || s.is_some())
            {
                return starts;
            }
            entries = match next {
                Some((key, form)) => self.make(entries, key, form),
                None => self
                    .made
                    .wait(entries)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Make form `form` of key `key` outside the lock, publish it, and
    /// wake the waiters. If making it panics, the form goes back to
    /// missing, so that a waiter makes it again (and meets the same
    /// panic) instead of waiting forever.
    fn make<'a>(
        &'a self,
        mut entries: MutexGuard<'a, Vec<Entry>>,
        key: usize,
        form: usize,
    ) -> MutexGuard<'a, Vec<Entry>> {
        let e = &mut entries[key];
        let base = match &e.forms[0] {
            Stage::Ready(base) if form == 1 => Ok(base.clone()),
            _ => Err(e.key),
        };
        e.forms[form] = Stage::Running;
        drop(entries);
        let mut unmade = Unmade {
            store: self,
            key,
            form,
            armed: true,
        };
        let made = match base {
            Ok((base, end)) => (Arc::new(placement::fully_sorted(&base)), end),
            Err(key) => {
                let (base, end) = key.draw();
                (Arc::new(base), end)
            }
        };
        unmade.armed = false;
        let mut entries = self.lock();
        let e = &mut entries[key];
        e.forms[form] = Stage::Ready(made);
        e.release_spent();
        self.made.notify_all();
        entries
    }
}

/// Resets a form whose maker unwound.
struct Unmade<'a> {
    store: &'a BaseStore,
    key: usize,
    form: usize,
    armed: bool,
}

impl Drop for Unmade<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.store.lock()[self.key].forms[self.form] = Stage::Missing;
            self.store.made.notify_all();
        }
    }
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
    #[should_panic(expected = "invalid Gaussian parameters")]
    fn a_shared_draw_that_panics_fails_the_batch_instead_of_hanging() {
        // Every unit of the three points shares the base whose draw panics:
        // the units waiting for it must meet the panic too.
        let point = |x: f64, sparsity: f64| {
            let mut p = tiny_point("s", x, sparsity);
            p.request.pattern_a = p.request.pattern_a.with_std(-1.0);
            p.request.pattern_b = p.request.pattern_a;
            p
        };
        execute(vec![point(0.0, 0.2), point(1.0, 0.4), point(2.0, 0.6)]);
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
