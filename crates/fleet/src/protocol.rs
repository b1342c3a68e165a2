//! The `wattd` JSON-lines protocol.
//!
//! One request per line on stdin, one response per line on stdout. Every
//! request is an object with an optional `"id"` (echoed back verbatim) and
//! an `"op"`:
//!
//! * `"run"` (default) — answer one power query. Fields: `dtype` (paper
//!   label, e.g. `"FP16"`, `"FP16-T"`, `"INT8"`, case-insensitive), the
//!   problem shape, `kernel` (`"gemm"` — the default — or `"gemv"` for
//!   the memory-bound decode workload), `pattern` (name, e.g.
//!   `"gaussian"`, `"sparse"`, `"sorted_rows"`, `"zeros"`), the pattern's
//!   parameter (`sparsity`/`fraction`/`count`/`probability`/`set_size`,
//!   or generic `param`), optional `mean`, `std`, `seeds`, `base_seed`,
//!   `iterations` (at most 1,000,000; absent sizes ~1.6 s of simulated
//!   run; a count whose run on the job's device ends within the 0.5 s
//!   warm-up trim is infeasible), `b_transposed`, `lattice` (sampling
//!   lattice edge), `deadline_us` (per-iteration, for DVFS planning; one
//!   shorter than the boost iteration time plans the boost clock), and
//!   `gpu` (catalog substring to pin, or `"auto"`/absent for placement).
//!
//!   **Problem shape**: `"dim": d` is the legacy square spelling
//!   (`n = m = k = d`, exactly what it always meant), and per-axis
//!   `"n"`/`"m"`/`"k"` fields express ragged `n×m×k` problems. The two
//!   compose — any explicit axis overrides the square base — and a GEMV
//!   request may omit `m` entirely (decode streams one vector; `m`
//!   defaults to 1, and whatever `m` the request carries, GEMV executes
//!   `n×1×k`). Axes are validated individually (1..=65536) and jointly
//!   against total-FLOPs and operand-footprint budgets, so ragged shapes
//!   cannot smuggle in more work than the old square `dim` cap allowed.
//!   Run and `predict` responses echo the effective `n`/`m`/`k`.
//!
//!   **Grouped requests**: `"group": [{"n":..,"m":..,"k":..}, …]` carries
//!   a grouped-GEMM list — the ragged problems one serving-framework
//!   prefill batch submits — executed, priced, and cached **as a unit**.
//!   Members share the request's dtype/pattern/kernel; each member takes
//!   the same shape fields a plain request does (per-member `dim` base,
//!   GEMV `m` defaulting to 1), validated per axis, and the group as a
//!   whole is validated against a member-count cap (64) plus the same
//!   total-FLOPs and footprint budgets, summed over members. `group` is
//!   exclusive with top-level `dim`/`n`/`m`/`k`. Member order is
//!   immaterial (a group is a multiset of problems), so permuted
//!   resubmissions are the same cache entry; responses echo the
//!   canonical `"group"` list and `"members"` count instead of a single
//!   `n`/`m`/`k`.
//!
//!   Every optional field is type-checked strictly: a field that is
//!   *present* with the wrong JSON type (`{"seeds": "8"}`, `{"lattice":
//!   true}`) is an error, never silently the default.
//! * `"batch"` — `{"requests": [...]}` of `run` objects; answered as one
//!   `{"results": [...]}` array in submission order, deduplicated through
//!   the memo cache and **power-packed**: admitted jobs execute in
//!   first-fit-decreasing predicted-watts order against the fleet budget
//!   (see [`crate::scheduler::pack_ffd`]) instead of FIFO, so the budget
//!   fills instead of trickling. A streamed batch (`"stream": true`, the
//!   TCP default) instead yields **one response line per packed round**
//!   as rounds complete, closed by a `"last": true` remainder line; see
//!   [`answer`].
//! * `"predict"` — same fields as `run`, but nothing executes: answers
//!   the pre-execution power estimate (`predicted_w`), which device would
//!   take the job, the `kernel` key the estimate was priced under, and
//!   whether that kernel's learned model (`"source": "learned"`) or the
//!   analytic probe (`"source": "analytic"`) priced it. Learned models
//!   are keyed by `(architecture, kernel)`, so a GEMV request on a fleet
//!   that has only learned GEMM answers `"analytic"`.
//! * `"model_stats"` — per-`(architecture, kernel)` learned-model health:
//!   each entry carries `arch` and `kernel` plus training observations,
//!   prequential P50/P95 absolute percentage error, drift events, and
//!   whether the model currently serves.
//! * `"stats"` — scheduler counters (cache hits/misses, steals, packing
//!   rounds, the `peak_committed_w` budget-compliance witness, ...) plus
//!   per-device utilization and total joules.
//! * `"metrics"` — the full metrics registry. `"format"` selects the
//!   encoding: `"json"` (default; a `"metrics"` array of
//!   `{name, labels, type, value}` objects, histograms carrying
//!   `count`/`min`/`max`/`p50`/`p95`/`p99`) or `"prometheus"` (a `"text"`
//!   field in the text exposition format). Counts and latency histograms
//!   are recorded live, where each event happens; the export refreshes
//!   only readings of state kept elsewhere (hit ratio, budget peak,
//!   resident answers, trace drops, per-device totals, predictor health).
//! * `"trace"` — the span ring buffer: per-request lifecycle spans
//!   (`parse` → `cache_lookup` → `features` → `pricing` → `placement` →
//!   `execute` → `feedback`, plus batch-level `pack`), each with
//!   monotonic-clock `start_us`/`end_us`/`duration_us` stamps and a
//!   free-form `detail`. Optional `request_id` filters to one request,
//!   `limit` keeps the most recent N, and `drain: true` empties the ring
//!   (exclusive with `request_id`). The response reports `dropped` — spans
//!   evicted by ring pressure — and `buffered`.
//! * `"fleet"` — the device inventory and power budget.
//! * `"ping"` — liveness check.
//!
//! `run` responses carry the predicted-vs-measured pair (`predicted_w`,
//! `predicted_source`, `measured_w`) for auto-placed jobs — plus the
//! `kernel` the run executed (and therefore the model key a `"learned"`
//! estimate came from) — so a client can audit the predictor against
//! every answer it receives.
//!
//! Responses always carry `"ok"` (`true` with the payload or `false` with
//! an `"error"` string) and a `"request_id"`: the monotonic id the daemon
//! assigned the incoming line (batch members each get their own, echoed in
//! their member result). The id is what a later `trace` query filters on.
//!
//! Both transports, the stdio loop ([`serve`]) and `wm-serve`'s TCP
//! sessions, answer a parsed line through [`answer`], which reads its
//! `op` once ([`RequestLine`]), and a line that never became a request
//! object through [`reject_line`].

use std::fmt::Display;
use std::io::{BufRead, Write};

use wm_core::RunRequest;
use wm_gpu::GemmDims;
use wm_kernels::{KernelClass, Sampling};
use wm_numerics::DType;
use wm_obs::{stage, MetricValue, SpanRecord};
use wm_patterns::{PatternKind, PatternSpec};

use crate::json::{obj, Json, JsonError};
use crate::scheduler::{FleetJob, FleetResponse, Scheduler};

/// A JSON type a request field can hold, read strictly by [`field`].
trait FieldType<'a>: Sized {
    /// The type as an error names it: `"seeds" must be {EXPECTED}`.
    const EXPECTED: &'static str;
    /// The accessor reading a value of the type.
    const READ: fn(&'a Json) -> Option<Self>;
}

impl<'a> FieldType<'a> for u64 {
    const EXPECTED: &'static str = "a non-negative integer";
    const READ: fn(&'a Json) -> Option<Self> = Json::as_u64;
}

impl<'a> FieldType<'a> for usize {
    const EXPECTED: &'static str = "a non-negative integer";
    const READ: fn(&'a Json) -> Option<Self> = Json::as_usize;
}

impl<'a> FieldType<'a> for f64 {
    const EXPECTED: &'static str = "a number";
    const READ: fn(&'a Json) -> Option<Self> = Json::as_f64;
}

impl<'a> FieldType<'a> for bool {
    const EXPECTED: &'static str = "a boolean";
    const READ: fn(&'a Json) -> Option<Self> = Json::as_bool;
}

impl<'a> FieldType<'a> for &'a str {
    const EXPECTED: &'static str = "a string";
    const READ: fn(&'a Json) -> Option<Self> = Json::as_str;
}

/// Fetch an optional field strictly: absent is `Ok(None)`, but *present
/// with the wrong type* is an error. `{"seeds": "8"}` or `{"lattice":
/// true}` must be rejected, never silently run as if the field were
/// missing — the client clearly meant to set something.
fn field<'a, T: FieldType<'a>>(v: &'a Json, key: &str) -> Result<Option<T>, String> {
    v.get(key)
        .map(|f| (T::READ)(f).ok_or_else(|| format!("\"{key}\" must be {}", T::EXPECTED)))
        .transpose()
}

/// `value` of field `key` if it lies in `1..=max`, the range every axis
/// and count shares.
fn in_range<T: Copy + PartialOrd + From<u8> + Display>(
    key: &str,
    value: T,
    max: T,
) -> Result<T, String> {
    if (T::from(1)..=max).contains(&value) {
        Ok(value)
    } else {
        Err(format!("\"{key}\" must be in 1..={max}"))
    }
}

/// Resolve the requested problem shape from the square `dim` base and
/// the per-axis `n`/`m`/`k` overrides, validating every axis. `{"dim":
/// d}` alone is the legacy square request; any axis given explicitly
/// overrides the square base, and a GEMV request may omit `m` entirely
/// (decode streams exactly one vector, so it defaults to 1). Total-work
/// budgets are checked separately, in [`check_budgets`], against the
/// request's *effective* dims.
fn parse_dims(v: &Json, kernel: KernelClass) -> Result<GemmDims, String> {
    let dim = field(v, "dim")?
        .map(|d| in_range("dim", d, MAX_AXIS))
        .transpose()?;
    let n = field(v, "n")?;
    let m = field(v, "m")?;
    let k = field(v, "k")?;
    if dim.is_none() && n.is_none() && m.is_none() && k.is_none() {
        return Err(
            "missing problem shape: give square \"dim\" and/or per-axis \"n\"/\"m\"/\"k\"".into(),
        );
    }
    let resolve =
        |label: &str, axis: Option<usize>, fallback: Option<usize>| -> Result<usize, String> {
            let value = axis.or(dim).or(fallback).ok_or_else(|| {
                format!("missing \"{label}\" (give it explicitly or via square \"dim\")")
            })?;
            in_range(label, value, MAX_AXIS)
        };
    let m_fallback = match kernel {
        KernelClass::Gemv => Some(1),
        KernelClass::Gemm => None,
    };
    Ok(GemmDims {
        n: resolve("n", n, None)?,
        m: resolve("m", m, m_fallback)?,
        k: resolve("k", k, None)?,
    })
}

/// Bound the total work a request will *execute*, summed over its
/// effective members ([`RunRequest::member_dims`], so GEMV's `n x 1 x k`
/// normalization lives in exactly one place and a group's budget is its
/// aggregate): per-axis caps alone would still admit e.g. a 65536² GEMM —
/// or 64 individually modest members that together dwarf it — so total
/// FLOPs and operand footprint are bounded too, the grouped-and-ragged
/// generalization of the old square `MAX_DIM` check.
fn check_budgets(req: &RunRequest) -> Result<(), String> {
    let members = req.member_dims();
    let what = if req.is_grouped() {
        "group too large"
    } else {
        "problem too large"
    };
    let flops: u64 = members.iter().map(GemmDims::flops).sum();
    if flops > MAX_FLOPS {
        return Err(format!(
            "{what}: {} GFLOP exceeds the {} GFLOP budget",
            flops / 1_000_000_000,
            MAX_FLOPS / 1_000_000_000
        ));
    }
    let bytes: u64 = members
        .iter()
        .map(|d| d.working_set_bytes(req.dtype.bytes()))
        .sum();
    if bytes > MAX_WORKING_SET_BYTES {
        return Err(format!(
            "{what}: {} MiB working set exceeds the {} MiB budget",
            bytes >> 20,
            MAX_WORKING_SET_BYTES >> 20
        ));
    }
    Ok(())
}

/// Parse the `"group"` member list: each member is an object carrying the
/// same shape fields a plain request does, validated per axis by
/// [`parse_dims`]. The group composes with nothing at the top level —
/// a request is either one problem or a grouped list, never both.
fn parse_group(v: &Json, group: &Json, kernel: KernelClass) -> Result<Vec<GemmDims>, String> {
    let members_json = group
        .as_arr()
        .ok_or("\"group\" must be an array of {n, m, k} member objects")?;
    for key in ["dim", "n", "m", "k"] {
        if v.get(key).is_some() {
            return Err(format!(
                "\"group\" cannot be combined with top-level \"{key}\" — spell every member inside the group"
            ));
        }
    }
    if members_json.is_empty() {
        return Err("\"group\" needs at least one member".into());
    }
    if members_json.len() > MAX_GROUP_MEMBERS {
        return Err(format!(
            "\"group\" takes at most {MAX_GROUP_MEMBERS} members, got {}",
            members_json.len()
        ));
    }
    let mut members = Vec::with_capacity(members_json.len());
    for (i, member) in members_json.iter().enumerate() {
        if !matches!(member, Json::Obj(_)) {
            return Err(format!(
                "group member {i} must be an object with \"n\"/\"m\"/\"k\""
            ));
        }
        members.push(parse_dims(member, kernel).map_err(|e| format!("group member {i}: {e}"))?);
    }
    Ok(members)
}

/// Parse a `run` request object into a fleet job.
fn parse_job(v: &Json, sched: &Scheduler) -> Result<FleetJob, String> {
    let dtype_label: &str = field(v, "dtype")?.ok_or("missing \"dtype\"")?;
    let dtype = DType::parse(dtype_label)
        .ok_or_else(|| format!("unknown dtype {dtype_label:?} (use FP32/FP16/FP16-T/BF16/INT8)"))?;
    // Absent means GEMM; *present* must be a valid string — a client
    // encoding the kernel any other way must not silently run GEMM.
    let kernel = match field(v, "kernel")? {
        None => KernelClass::Gemm,
        Some(label) => KernelClass::parse(label)
            .ok_or_else(|| format!("unknown kernel {label:?} (use \"gemm\" or \"gemv\")"))?,
    };
    let kind = parse_pattern(v)?;
    let mut spec = PatternSpec::new(kind);
    if let Some(mean) = field::<f64>(v, "mean")? {
        if !mean.is_finite() {
            return Err("\"mean\" must be finite".into());
        }
        spec = spec.with_mean(mean);
    }
    if let Some(std) = field::<f64>(v, "std")? {
        if !std.is_finite() || std <= 0.0 {
            return Err("\"std\" must be finite and positive".into());
        }
        spec = spec.with_std(std);
    }

    let mut req = match v.get("group") {
        Some(group) => {
            let members = parse_group(v, group, kernel)?;
            RunRequest::new(dtype, members[0].n, spec)
                .with_kernel(kernel)
                .with_group(members)
        }
        None => {
            let shape = parse_dims(v, kernel)?;
            RunRequest::new(dtype, shape.n, spec)
                .with_kernel(kernel)
                .with_shape(shape)
        }
    };
    check_budgets(&req)?;
    if let Some(seeds) = field(v, "seeds")? {
        req = req.with_seeds(in_range("seeds", seeds, MAX_SEEDS)?);
    }
    if let Some(base) = field(v, "base_seed")? {
        req = req.with_base_seed(base);
    }
    if let Some(iters) = field(v, "iterations")? {
        req = req.with_iterations(in_range("iterations", iters, MAX_ITERATIONS)?);
    }
    if let Some(t) = field(v, "b_transposed")? {
        req = req.with_b_transposed(t);
    }
    if let Some(edge) = field(v, "lattice")? {
        let edge = in_range("lattice", edge, MAX_AXIS)?;
        req = req.with_sampling(Sampling::Lattice {
            rows: edge,
            cols: edge,
        });
    }

    let mut job = match field::<&str>(v, "gpu")? {
        None => FleetJob::new(req),
        Some(name) if name.eq_ignore_ascii_case("auto") => FleetJob::new(req),
        Some(name) => {
            // Match on names stripped of case, spaces, `-` and `_`. A name
            // that strips to nothing names no device: every name contains
            // the empty string.
            let squash = |s: &str| s.to_ascii_lowercase().replace([' ', '-', '_'], "");
            let wanted = squash(name);
            let device = sched
                .fleet()
                .devices()
                .iter()
                .find(|d| !wanted.is_empty() && squash(d.gpu.name).contains(&wanted))
                .ok_or_else(|| format!("no fleet device matches gpu {name:?}"))?;
            FleetJob::pinned(req, device.id)
        }
    };
    if let Some(us) = field::<f64>(v, "deadline_us")? {
        // Check the converted value: a subnormal microsecond count is
        // positive but underflows to zero seconds.
        let deadline_s = us * 1e-6;
        if !deadline_s.is_finite() || deadline_s <= 0.0 {
            return Err("\"deadline_us\" must be finite and positive".into());
        }
        job = job.with_deadline_s(deadline_s);
    }
    Ok(job)
}

/// Upper bound on any single problem axis (and the sampling-lattice
/// edge): a 65536-long axis is the largest any serving shape plausibly
/// needs; anything larger is a typo or abuse.
const MAX_AXIS: usize = 65_536;
/// Total-work budget: the FLOP count of the legacy 4096-square ceiling
/// (`2 * 4096³ = 2³⁷`). Per-axis caps alone cannot bound ragged work.
const MAX_FLOPS: u64 = 1 << 37;
/// Operand-footprint budget (A + B + D at the request's element width):
/// 256 MiB, just above the legacy 4096² FP32 working set (192 MiB).
const MAX_WORKING_SET_BYTES: u64 = 256 * 1024 * 1024;
/// Upper bound on grouped-request member counts: 64 ragged problems is a
/// generous serving-framework prefill batch; anything larger should be
/// split across requests (and the aggregate budgets would throttle it
/// anyway).
const MAX_GROUP_MEMBERS: usize = 64;
/// Upper bound on the seed-averaging count.
const MAX_SEEDS: u64 = 100;
/// Upper bound on simulated kernel iterations: 50× the paper's 20k, and
/// above any auto-sized count. Each seed's telemetry trace holds one
/// sample per sampling period of the simulated run, so an unbounded count
/// could exhaust memory.
const MAX_ITERATIONS: u64 = 1_000_000;
/// Upper bound on bit counts (no supported encoding is wider than 32).
const MAX_BIT_COUNT: f64 = 64.0;
/// Upper bound on value-set sizes.
const MAX_SET_SIZE: f64 = 65536.0;

/// First present key of `keys` (or generic `"param"`), strictly numeric:
/// a present-but-non-number parameter is an error, not "absent".
fn pattern_param(v: &Json, keys: &[&str]) -> Result<Option<f64>, String> {
    for key in keys.iter().chain(["param"].iter()) {
        if let Some(value) = field(v, key)? {
            return Ok(Some(value));
        }
    }
    Ok(None)
}

/// Range-check a fractional pattern parameter: the generators `assert!`
/// on out-of-range values, so the protocol must reject them up front
/// instead of letting a bad request panic a worker.
fn unit_interval(name: &str, value: f64) -> Result<f64, String> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(format!("{name} must be in [0, 1], got {value}"))
    }
}

fn bit_count(name: &str, value: f64) -> Result<u32, String> {
    if value.is_finite() && (0.0..=MAX_BIT_COUNT).contains(&value) && value.fract() == 0.0 {
        Ok(value as u32)
    } else {
        Err(format!(
            "{name} must be an integer in 0..={MAX_BIT_COUNT}, got {value}"
        ))
    }
}

fn parse_pattern(v: &Json) -> Result<PatternKind, String> {
    let name = field(v, "pattern")?
        .unwrap_or("gaussian")
        .to_ascii_lowercase();
    let fraction = || {
        pattern_param(v, &["fraction", "sparsity", "probability"])?
            .ok_or_else(|| format!("pattern {name:?} needs a fractional parameter"))
            .and_then(|f| unit_interval("the fractional parameter", f))
    };
    let count = || {
        pattern_param(v, &["count"])?
            .ok_or_else(|| format!("pattern {name:?} needs \"count\""))
            .and_then(|c| bit_count("\"count\"", c))
    };
    match name.as_str() {
        "gaussian" => Ok(PatternKind::Gaussian),
        "value_set" => {
            let n = pattern_param(v, &["set_size"])?
                .ok_or("pattern \"value_set\" needs \"set_size\"")?;
            if !(n.is_finite() && (1.0..=MAX_SET_SIZE).contains(&n) && n.fract() == 0.0) {
                return Err(format!(
                    "\"set_size\" must be an integer in 1..={MAX_SET_SIZE}, got {n}"
                ));
            }
            Ok(PatternKind::ValueSet {
                set_size: n as usize,
            })
        }
        "constant" | "constant_random" => Ok(PatternKind::ConstantRandom),
        "bit_flips" => Ok(PatternKind::BitFlips {
            probability: fraction()?,
        }),
        "random_lsbs" => Ok(PatternKind::RandomLsbs { count: count()? }),
        "random_msbs" => Ok(PatternKind::RandomMsbs { count: count()? }),
        "sorted_rows" | "sorted" => Ok(PatternKind::SortedRows {
            fraction: fraction()?,
        }),
        "sorted_cols" => Ok(PatternKind::SortedCols {
            fraction: fraction()?,
        }),
        "sorted_within_rows" => Ok(PatternKind::SortedWithinRows {
            fraction: fraction()?,
        }),
        "sparse" => Ok(PatternKind::Sparse {
            sparsity: fraction()?,
        }),
        "sorted_then_sparse" => Ok(PatternKind::SortedThenSparse {
            sparsity: fraction()?,
        }),
        "zero_lsbs" => Ok(PatternKind::ZeroLsbs { count: count()? }),
        "zero_msbs" => Ok(PatternKind::ZeroMsbs { count: count()? }),
        "zeros" => Ok(PatternKind::Zeros),
        other => Err(format!("unknown pattern {other:?}")),
    }
}

/// The canonical `"group"` echo: one `{n, m, k}` object per member.
fn group_json(members: impl Iterator<Item = GemmDims>) -> Json {
    Json::Arr(
        members
            .map(|d| {
                obj(vec![
                    ("n", Json::Num(d.n as f64)),
                    ("m", Json::Num(d.m as f64)),
                    ("k", Json::Num(d.k as f64)),
                ])
            })
            .collect(),
    )
}

fn run_payload(r: &FleetResponse) -> Vec<(&'static str, Json)> {
    let dims = r.result.activity.dims;
    let mut fields = vec![
        ("device", Json::Num(r.device as f64)),
        ("gpu", Json::Str(r.gpu_name.to_string())),
        // The kernel the run executed — also the (architecture, kernel)
        // model key a "learned" predicted_source answered from.
        (
            "kernel",
            Json::Str(r.result.activity.kernel.label().to_string()),
        ),
    ];
    if r.result.member_activities.is_empty() {
        // The effective problem shape executed (GEMV reports m = 1,
        // whatever spelling the request used).
        fields.extend([
            ("n", Json::Num(dims.n as f64)),
            ("m", Json::Num(dims.m as f64)),
            ("k", Json::Num(dims.k as f64)),
        ]);
    } else {
        // A grouped run echoes its canonical member list instead of a
        // single shape: the group executed as one unit. Each member also
        // carries its cache provenance — `true` members were answered
        // from a previously simulated activity unit (the whole-result
        // replay case is all-`true`), `false` members were this run's
        // residue jobs.
        let member_objs: Vec<Json> = r
            .result
            .member_activities
            .iter()
            .enumerate()
            .map(|(i, a)| {
                obj(vec![
                    ("n", Json::Num(a.dims.n as f64)),
                    ("m", Json::Num(a.dims.m as f64)),
                    ("k", Json::Num(a.dims.k as f64)),
                    (
                        "cached",
                        r.member_cached
                            .get(i)
                            .map(|&c| Json::Bool(c))
                            .unwrap_or(Json::Null),
                    ),
                ])
            })
            .collect();
        fields.extend([
            (
                "members",
                Json::Num(r.result.member_activities.len() as f64),
            ),
            ("group", Json::Arr(member_objs)),
        ]);
    }
    fields.extend(vec![
        ("power_w", Json::Num(r.result.power.mean)),
        ("power_std_w", Json::Num(r.result.power.std)),
        (
            "energy_per_iter_mj",
            Json::Num(r.result.energy_per_iter.mean * 1e3),
        ),
        ("runtime_us", Json::Num(r.result.runtime.mean * 1e6)),
        ("utilization_pct", Json::Num(r.result.utilization_pct)),
        ("throttled", Json::Bool(r.result.throttled)),
        ("clock_scale", Json::Num(r.clock_scale)),
        (
            "energy_saving_pct",
            match &r.plan {
                Some(p) => Json::Num(p.energy_saving() * 100.0),
                None => Json::Null,
            },
        ),
        (
            "predicted_w",
            match r.predicted_w {
                Some(w) => Json::Num(w),
                None => Json::Null,
            },
        ),
        (
            "predicted_source",
            match r.prediction {
                Some(src) => Json::Str(src.label().to_string()),
                None => Json::Null,
            },
        ),
        ("measured_w", Json::Num(r.measured_w)),
        ("cache_hit", Json::Bool(r.cache_hit)),
    ]);
    if let Some(d) = r.deadline_s {
        // Echo the deadline the run carried, and be honest about whether
        // execution consulted it. `predicted_w` is `None` exactly when the
        // run skipped DVFS planning — a pinned job or a whole-result cache
        // replay — so the deadline never influenced the outcome. Note the
        // batch *packer* ignores deadlines fleet-wide regardless (see
        // ROADMAP: deadline-aware packing).
        fields.push(("deadline_us", Json::Num(d * 1e6)));
        fields.push(("deadline_ignored", Json::Bool(r.predicted_w.is_none())));
    }
    fields
}

/// A `batch` request after parsing, with every member's daemon request id
/// assigned (in member order, so the id stream stays deterministic).
struct ParsedBatch {
    /// Whether the batch answers one line per round instead of one blob.
    stream: bool,
    /// Per member: the client's `"id"` echo and the daemon request id.
    members: Vec<(Json, u64)>,
    /// The parseable members' jobs, in member order: the submission list.
    jobs: Vec<FleetJob>,
    /// Member index of each job.
    job_members: Vec<usize>,
    /// Per-member parse errors: `(member index, message)`.
    unparsed: Vec<(usize, String)>,
}

/// Parse a batch request, recording the parse span under `rid`;
/// `stream_batches` is the framing when the batch names none.
fn parse_batch(
    v: &Json,
    sched: &Scheduler,
    rid: u64,
    stream_batches: bool,
) -> Result<ParsedBatch, String> {
    let tracer = sched.tracer();
    let parse = tracer.start(rid, stage::PARSE);
    let stream = match field(v, "stream") {
        Ok(flag) => flag.unwrap_or(stream_batches),
        Err(msg) => {
            parse.finish("error");
            return Err(msg);
        }
    };
    let Some(requests) = v.get("requests").and_then(Json::as_arr) else {
        parse.finish("error");
        return Err("batch needs a \"requests\" array".to_string());
    };
    // Parse everything up front so one bad entry fails fast with a
    // per-entry error instead of a half-executed batch; the parseable
    // jobs then execute power-packed (FFD against the fleet budget).
    let jobs: Vec<Result<FleetJob, String>> =
        requests.iter().map(|r| parse_job(r, sched)).collect();
    parse.finish(format!("batch members={}", requests.len()));
    let mut batch = ParsedBatch {
        stream,
        members: Vec::with_capacity(requests.len()),
        jobs: Vec::new(),
        job_members: Vec::new(),
        unparsed: Vec::new(),
    };
    // Every member — parseable or not — gets its own request id; member
    // results echo it alongside the client's member "id".
    for (m, (request, job)) in requests.iter().zip(jobs).enumerate() {
        let mid = tracer.next_request_id();
        batch
            .members
            .push((request.get("id").cloned().unwrap_or(Json::Null), mid));
        match job {
            Ok(job) => {
                batch.jobs.push(job.with_request_id(mid));
                batch.job_members.push(m);
            }
            Err(msg) => batch.unparsed.push((m, msg)),
        }
    }
    Ok(batch)
}

/// Run a parsed batch through [`Scheduler::run_batch_rounds`] and hand
/// `on_round` each completed round's number, the batch's packed-round
/// count, and the round's member responses sorted by member index: the
/// one assembler behind both the blob and the streamed framing. The
/// members that failed to parse close the last round (round 0).
fn run_members(
    batch: ParsedBatch,
    sched: &Scheduler,
    rid: u64,
    mut on_round: impl FnMut(usize, usize, Vec<(usize, Json)>),
) {
    let ParsedBatch {
        members,
        jobs,
        job_members,
        mut unparsed,
        ..
    } = batch;
    let respond = |m: usize, outcome: Result<FleetResponse, String>| {
        let (id, mid) = &members[m];
        let response = match outcome {
            Ok(r) => ok_response(id.clone(), run_payload(&r)),
            Err(msg) => err_response(id.clone(), &msg),
        };
        with_request_id(response, *mid)
    };
    // Every job comes back in exactly one round; one the scheduler never
    // answered is reported in the last round, not dropped.
    let mut unanswered = vec![true; jobs.len()];
    sched.run_batch_rounds(jobs, rid, |round| {
        let mut results = Vec::with_capacity(round.results.len());
        for (j, outcome) in round.results {
            unanswered[j] = false;
            let m = job_members[j];
            results.push((m, respond(m, outcome.map_err(|e| e.to_string()))));
        }
        if round.round == 0 {
            for (j, _) in unanswered.iter().enumerate().filter(|(_, lost)| **lost) {
                let msg = "internal: batch member was never answered".to_string();
                unparsed.push((job_members[j], msg));
            }
            results.extend(unparsed.drain(..).map(|(m, msg)| (m, respond(m, Err(msg)))));
        }
        results.sort_by_key(|(m, _)| *m);
        on_round(round.round, round.rounds, results);
    });
}

fn ok_response(id: Json, payload: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![("id", id), ("ok", Json::Bool(true))];
    fields.extend(payload);
    obj(fields)
}

fn err_response(id: Json, message: &str) -> Json {
    obj(vec![
        ("id", id),
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
}

/// Append `key: value` to a response object.
fn with_field(response: Json, key: &str, value: Json) -> Json {
    match response {
        Json::Obj(mut fields) => {
            fields.push((key.to_string(), value));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// Stamp the daemon-assigned request id onto a response object.
fn with_request_id(response: Json, rid: u64) -> Json {
    with_field(response, "request_id", Json::Num(rid as f64))
}

/// One span as JSON, for `trace` responses and JSONL dumps alike.
fn span_json(s: &SpanRecord) -> Json {
    obj(vec![
        ("request_id", Json::Num(s.request_id as f64)),
        ("stage", Json::Str(s.stage.to_string())),
        ("detail", Json::Str(s.detail.clone())),
        ("start_us", Json::Num(s.start_us as f64)),
        ("end_us", Json::Num(s.end_us as f64)),
        ("duration_us", Json::Num(s.duration_us() as f64)),
    ])
}

/// The registry snapshot as a JSON array, one object per metric.
fn metrics_json(sched: &Scheduler) -> Json {
    let entries: Vec<Json> = sched
        .registry()
        .snapshot()
        .iter()
        .map(|m| {
            let labels = obj(m
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), Json::Str(v.clone())))
                .collect());
            let mut fields = vec![("name", Json::Str(m.name.clone())), ("labels", labels)];
            match &m.value {
                MetricValue::Counter(v) => fields.extend([
                    ("type", Json::Str("counter".into())),
                    ("value", Json::Num(*v as f64)),
                ]),
                MetricValue::Gauge(v) => fields.extend([
                    ("type", Json::Str("gauge".into())),
                    ("value", Json::Num(*v)),
                ]),
                MetricValue::Histogram(h) => fields.extend([
                    ("type", Json::Str("histogram".into())),
                    ("count", Json::Num(h.count as f64)),
                    ("min", Json::Num(h.min)),
                    ("max", Json::Num(h.max)),
                    ("p50", Json::Num(h.p50)),
                    ("p95", Json::Num(h.p95)),
                    ("p99", Json::Num(h.p99)),
                ]),
            }
            fields
        })
        .map(obj)
        .collect();
    Json::Arr(entries)
}

/// Ops the per-op latency histogram labels individually; anything else —
/// unknown or wrong-typed — shares the `"other"` label so hostile input
/// cannot mint unbounded label cardinality.
pub(crate) const KNOWN_OPS: &[&str] = &[
    "ping",
    "stats",
    "metrics",
    "trace",
    "predict",
    "model_stats",
    "fleet",
    "run",
    "batch",
];

/// A parsed request line with its `op` read once. [`answer`] dispatches
/// on this reading, and a transport that routes some lines itself (the
/// TCP session's `shutdown` op and its in-flight cap on `batch`) reads
/// the same one.
pub struct RequestLine<'a> {
    json: &'a Json,
    /// The op as sent (`"run"` when absent), or the strict-field error of
    /// an op that is not a string.
    op: Result<&'a str, String>,
}

impl<'a> RequestLine<'a> {
    /// Read the `op` of the request object `json`.
    pub fn new(json: &'a Json) -> Self {
        let op = field(json, "op").map(|op| op.unwrap_or("run"));
        Self { json, op }
    }

    /// The op as sent (`"run"` when absent); `None` when it is not a
    /// string.
    pub fn op(&self) -> Option<&'a str> {
        self.op.as_ref().ok().copied()
    }

    /// The op's bounded label: its entry in the known-op list, or
    /// `"other"` for an unknown or non-string op. The per-op latency
    /// histogram and the TCP session span name a line by it, so client
    /// text never becomes a metric label or a span detail.
    pub fn label(&self) -> &'static str {
        let known = self
            .op()
            .and_then(|op| KNOWN_OPS.iter().find(|&&k| k == op));
        known.copied().unwrap_or("other")
    }
}

/// Answer one parsed request line — the one entry point of both
/// transports: assign the line its monotonic request id, dispatch on its
/// op, record the per-op latency, and emit the response.
///
/// Every op but `batch` emits exactly one line. A batch answers one
/// `{"results": [...]}` blob, or **streams** one line per packed round as
/// the round completes. Its `"stream"` flag picks the framing, and
/// `stream_batches` is the transport's default for a batch without one:
/// the TCP service streams (`true`), and the stdio loop answers a blob
/// (`false`) so one-line-per-request clients are unaffected.
///
/// Streamed framing — each line is an object with the batch's `id`,
/// `"ok": true`, the slice's `"round"` (1-based packed round in execution
/// order; `0` is the final remainder: cache replays, pinned jobs,
/// placement rejections, and member parse errors), the total packed
/// `"rounds"`, the batch's `"members"` count, a `"results"` array of
/// member responses (each carrying its member `"index"` in the original
/// `requests` array, the client's member `"id"`, and the member's daemon
/// `request_id`), and `"last"` — `true` exactly on the final line, so a
/// client reads until `"last": true` and reassembles by `"index"`.
///
/// `emit` is called once per line. If it fails, the batch still drains
/// (every in-flight job is joined — a vanished client must not wedge
/// workers) but nothing further is written, and the first error is
/// returned.
pub fn answer(
    line: &RequestLine,
    sched: &Scheduler,
    stream_batches: bool,
    emit: &mut dyn FnMut(&Json) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let tracer = sched.tracer();
    let rid = tracer.next_request_id();
    let t0 = tracer.now_us();
    let observe = || {
        sched
            .request_latency(line.label())
            .observe(tracer.now_us().saturating_sub(t0) as f64);
    };
    if line.op() == Some("batch") {
        let written = answer_batch(line.json, sched, rid, stream_batches, emit);
        observe();
        return written;
    }
    let id = line.json.get("id").cloned().unwrap_or(Json::Null);
    let response = match payload(line, sched, rid) {
        Ok(fields) => ok_response(id, fields),
        Err(msg) => err_response(id, &msg),
    };
    observe();
    emit(&with_request_id(response, rid))
}

/// Answer a `batch` line in the framing [`answer`] describes.
fn answer_batch(
    v: &Json,
    sched: &Scheduler,
    rid: u64,
    stream_batches: bool,
    emit: &mut dyn FnMut(&Json) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let id = v.get("id").cloned().unwrap_or(Json::Null);
    let batch = match parse_batch(v, sched, rid, stream_batches) {
        Ok(batch) => batch,
        Err(msg) => return emit(&with_request_id(err_response(id, &msg), rid)),
    };
    let members = batch.members.len();
    if !batch.stream {
        let mut results = Vec::with_capacity(members);
        run_members(batch, sched, rid, |_, _, round| results.extend(round));
        results.sort_by_key(|(m, _)| *m);
        let results = results.into_iter().map(|(_, r)| r).collect();
        let blob = ok_response(id, vec![("results", Json::Arr(results))]);
        return emit(&with_request_id(blob, rid));
    }
    // A failed emit (client gone) stops writing, but the rounds keep
    // draining so every worker reply is joined.
    let mut written = Ok(());
    run_members(batch, sched, rid, |round, rounds, results| {
        if written.is_err() {
            return;
        }
        let results = results
            .into_iter()
            .map(|(m, r)| with_field(r, "index", Json::Num(m as f64)))
            .collect();
        let line = obj(vec![
            ("id", id.clone()),
            ("ok", Json::Bool(true)),
            ("round", Json::Num(round as f64)),
            ("rounds", Json::Num(rounds as f64)),
            ("members", Json::Num(members as f64)),
            ("results", Json::Arr(results)),
            ("last", Json::Bool(round == 0)),
        ]);
        written = emit(&with_request_id(line, rid));
    });
    written
}

/// The payload of every op but `batch`, or the error it answers.
fn payload(
    line: &RequestLine,
    sched: &Scheduler,
    rid: u64,
) -> Result<Vec<(&'static str, Json)>, String> {
    let tracer = sched.tracer();
    let v = line.json;
    let op = line.op.as_deref().map_err(|msg| {
        tracer.start(rid, stage::PARSE).finish("error");
        msg.clone()
    })?;
    // Job-carrying ops time their real parse below; the rest record an
    // instant parse span so every request id has a trail.
    if !matches!(op, "run" | "predict") {
        let detail = match line.label() {
            "other" => "error",
            known => known,
        };
        tracer.start(rid, stage::PARSE).finish(detail);
    }
    match op {
        "ping" => Ok(vec![("pong", Json::Bool(true))]),
        "stats" => {
            let s = sched.stats();
            let device_stats = sched.device_stats();
            let devices: Vec<Json> = device_stats
                .iter()
                .map(|d| {
                    obj(vec![
                        ("device", Json::Num(d.device as f64)),
                        ("gpu", Json::Str(d.gpu_name.to_string())),
                        ("jobs", Json::Num(d.jobs as f64)),
                        ("sim_time_s", Json::Num(d.sim_time_s)),
                        ("energy_j", Json::Num(d.energy_j)),
                        ("utilization_pct", Json::Num(d.utilization_pct)),
                    ])
                })
                .collect();
            let fleet_energy: f64 = device_stats.iter().map(|d| d.energy_j).sum();
            Ok(vec![
                ("submitted", Json::Num(s.submitted as f64)),
                ("completed", Json::Num(s.completed as f64)),
                ("failed", Json::Num(s.failed as f64)),
                ("cache_hits", Json::Num(s.cache_hits as f64)),
                ("cache_misses", Json::Num(s.cache_misses as f64)),
                ("dedup_joins", Json::Num(s.dedup_joins as f64)),
                // Member-granular memo accounting: how many group
                // members were answered from previously simulated
                // activity units vs simulated fresh as residue jobs.
                ("member_cache_hits", Json::Num(s.member_cache_hits as f64)),
                (
                    "member_residue_jobs",
                    Json::Num(s.member_residue_jobs as f64),
                ),
                ("steals", Json::Num(s.steals as f64)),
                ("cached_results", Json::Num(sched.cached_results() as f64)),
                // The budget-compliance witness and the packer's round
                // accounting, so a client can audit power packing
                // without the full metrics export.
                ("peak_committed_w", Json::Num(sched.peak_committed_w())),
                ("packed_batches", Json::Num(s.packed_batches as f64)),
                ("pack_rounds", Json::Num(s.pack_rounds as f64)),
                ("last_batch_rounds", Json::Num(s.last_batch_rounds as f64)),
                ("devices", Json::Arr(devices)),
                ("fleet_energy_j", Json::Num(fleet_energy)),
            ])
        }
        "metrics" => match field(v, "format")?.unwrap_or("json") {
            "json" => {
                sched.sync_metrics();
                Ok(vec![("metrics", metrics_json(sched))])
            }
            "prometheus" => {
                sched.sync_metrics();
                Ok(vec![("text", Json::Str(sched.registry().to_prometheus()))])
            }
            other => Err(format!(
                "unknown metrics format {other:?} (use \"json\" or \"prometheus\")"
            )),
        },
        "trace" => {
            let filter = field(v, "request_id")?;
            let limit = field(v, "limit")?.unwrap_or(usize::MAX);
            let drain = field(v, "drain")?.unwrap_or(false);
            if drain && filter.is_some() {
                return Err(
                    "\"drain\" empties the whole ring and cannot be combined with \"request_id\""
                        .into(),
                );
            }
            let spans = if drain {
                tracer.drain()
            } else {
                tracer.snapshot(filter, limit)
            };
            Ok(vec![
                ("spans", Json::Arr(spans.iter().map(span_json).collect())),
                ("returned", Json::Num(spans.len() as f64)),
                ("buffered", Json::Num(tracer.len() as f64)),
                ("dropped", Json::Num(tracer.dropped() as f64)),
            ])
        }
        "predict" => {
            let parse = tracer.start(rid, stage::PARSE);
            let parsed = parse_job(v, sched);
            parse.finish(if parsed.is_ok() { "predict" } else { "error" });
            let p = sched
                .predict(&parsed?.with_request_id(rid))
                .map_err(|e| e.to_string())?;
            let mut fields = vec![
                ("device", Json::Num(p.device as f64)),
                ("gpu", Json::Str(p.gpu_name.to_string())),
                ("kernel", Json::Str(p.kernel.label().to_string())),
            ];
            if p.group.is_empty() {
                fields.extend([
                    ("n", Json::Num(p.dims.n as f64)),
                    ("m", Json::Num(p.dims.m as f64)),
                    ("k", Json::Num(p.dims.k as f64)),
                ]);
            } else {
                fields.extend([
                    ("members", Json::Num(p.group.len() as f64)),
                    ("group", group_json(p.group.iter().copied())),
                ]);
            }
            fields.extend([
                ("predicted_w", Json::Num(p.predicted_w)),
                ("source", Json::Str(p.source.label().to_string())),
                ("model_observations", Json::Num(p.model_observations as f64)),
            ]);
            Ok(fields)
        }
        "model_stats" => {
            let models: Vec<Json> = sched
                .model_stats()
                .iter()
                .map(|m| {
                    obj(vec![
                        ("arch", Json::Str(m.arch.clone())),
                        ("kernel", Json::Str(m.kernel.label().to_string())),
                        ("observations", Json::Num(m.observations as f64)),
                        ("tracked_errors", Json::Num(m.tracked_errors as f64)),
                        ("p50_ape_pct", Json::Num(m.p50_ape_pct)),
                        ("p95_ape_pct", Json::Num(m.p95_ape_pct)),
                        ("window_p95_ape_pct", Json::Num(m.window_p95_ape_pct)),
                        ("drift_events", Json::Num(m.drift_events as f64)),
                        ("degraded", Json::Bool(m.degraded)),
                        ("ready", Json::Bool(m.ready)),
                    ])
                })
                .collect();
            Ok(vec![("models", Json::Arr(models))])
        }
        "fleet" => {
            let devices: Vec<Json> = sched
                .fleet()
                .devices()
                .iter()
                .map(|d| {
                    obj(vec![
                        ("id", Json::Num(d.id as f64)),
                        ("gpu", Json::Str(d.gpu.name.to_string())),
                        ("architecture", Json::Str(d.gpu.architecture.to_string())),
                        ("tdp_w", Json::Num(d.gpu.tdp_watts)),
                        ("power_cap_w", Json::Num(d.power_cap_w)),
                        ("vm_instance", Json::Num(d.vm.id as f64)),
                        ("vm_offset_w", Json::Num(d.vm.offset_w)),
                    ])
                })
                .collect();
            Ok(vec![
                ("devices", Json::Arr(devices)),
                ("power_budget_w", Json::Num(sched.fleet().power_budget_w())),
            ])
        }
        "run" => {
            let parse = tracer.start(rid, stage::PARSE);
            let parsed = parse_job(v, sched);
            parse.finish(if parsed.is_ok() { "run" } else { "error" });
            let r = sched
                .submit(parsed?.with_request_id(rid))
                .recv()
                .map_err(|e| e.to_string())?;
            Ok(run_payload(&r))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// The longest request line either transport buffers: 1 MiB.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The error text answering a request line longer than `cap` bytes.
fn oversized_line_error(cap: usize) -> String {
    format!("request line exceeds the {cap}-byte cap; line discarded")
}

/// What [`LineReader::next_line`] read.
#[derive(Debug)]
pub enum LineEvent {
    /// A request line without its newline, decoded lossily (a byte that
    /// is not UTF-8 becomes U+FFFD, so the line still gets an answer). A
    /// stream's unterminated last line counts as a line.
    Line(String),
    /// A line longer than the cap. None of it past the cap is buffered:
    /// the rest is consumed and dropped.
    Oversized,
    /// The read timed out: a socket's chance to poll for drain.
    Timeout,
    /// Clean end of stream.
    Eof,
}

/// Request lines read with a hard buffer cap, shared by the stdio loop
/// ([`serve`]) and the TCP sessions: the cap bounds memory, not only the
/// error, because an oversized line's tail is never buffered.
pub struct LineReader<R> {
    reader: R,
    cap: usize,
    buf: Vec<u8>,
    discarding: bool,
    bytes_in: u64,
}

impl<R: BufRead> LineReader<R> {
    /// Lines of `reader`, each buffered up to `cap` bytes.
    pub fn new(reader: R, cap: usize) -> Self {
        Self {
            reader,
            cap,
            buf: Vec::new(),
            discarding: false,
            bytes_in: 0,
        }
    }

    /// Every byte consumed so far, dropped ones included.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Read toward the next newline.
    pub fn next_line(&mut self) -> std::io::Result<LineEvent> {
        loop {
            let available = match self.reader.fill_buf() {
                Ok(bytes) => bytes,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(LineEvent::Timeout)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                return Ok(if self.buf.is_empty() {
                    LineEvent::Eof
                } else {
                    self.take_line()
                });
            }
            let newline = available.iter().position(|&b| b == b'\n');
            let line_bytes = newline.unwrap_or(available.len());
            let len = newline.map_or(line_bytes, |pos| pos + 1);
            let over = !self.discarding && self.buf.len() + line_bytes > self.cap;
            if !self.discarding && !over {
                self.buf.extend_from_slice(&available[..line_bytes]);
            }
            self.reader.consume(len);
            self.bytes_in += len as u64;
            if over {
                self.buf.clear();
                self.discarding = newline.is_none();
                return Ok(LineEvent::Oversized);
            }
            if newline.is_some() {
                if std::mem::take(&mut self.discarding) {
                    // The tail of an oversized line, already answered.
                    continue;
                }
                return Ok(self.take_line());
            }
        }
    }

    fn take_line(&mut self) -> LineEvent {
        let raw = std::mem::take(&mut self.buf);
        LineEvent::Line(
            String::from_utf8(raw)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
        )
    }
}

/// A request line that never became a request object.
#[derive(Debug)]
pub enum BadLine {
    /// The line is not JSON: malformed, not UTF-8, or nested too deep.
    Unparseable(JsonError),
    /// The line ran past the cap, in bytes.
    Oversized(usize),
}

/// Answer a line that never became a request object; both transports
/// answer such lines here. It still takes a request id, so every
/// response the daemon writes carries one, and the trace ring shows the
/// failed parse (`error` or `oversized`).
pub fn reject_line(sched: &Scheduler, line: BadLine) -> Json {
    let (detail, message) = match line {
        BadLine::Unparseable(e) => ("error", format!("parse error: {e}")),
        BadLine::Oversized(cap) => ("oversized", oversized_line_error(cap)),
    };
    let tracer = sched.tracer();
    let rid = tracer.next_request_id();
    tracer.start(rid, stage::PARSE).finish(detail);
    with_request_id(err_response(Json::Null, &message), rid)
}

/// Serve JSON-lines requests from `reader` to `writer` until EOF. Blank
/// lines are ignored; a line that is not JSON (or not UTF-8) and a line
/// over [`MAX_LINE_BYTES`] each get an error response with the TCP
/// session's texts, and serving goes on.
///
/// A `batch` request answers as a single blob by default, but honors an
/// explicit `"stream": true` with the TCP service's round framing — one
/// line per packed round, terminated by `"last": true` — so stdio clients
/// can opt into incremental results without a socket.
pub fn serve(
    reader: impl BufRead,
    mut writer: impl Write,
    sched: &Scheduler,
) -> std::io::Result<()> {
    let mut lines = LineReader::new(reader, MAX_LINE_BYTES);
    let mut emit = |response: &Json| -> std::io::Result<()> {
        writeln!(writer, "{response}")?;
        writer.flush()
    };
    loop {
        match lines.next_line()? {
            LineEvent::Line(line) if line.trim().is_empty() => {}
            // The trimmed slice, as the TCP session parses it, so a bad
            // line's error offset reads the same over both transports.
            LineEvent::Line(line) => match Json::parse(line.trim()) {
                Ok(v) => answer(&RequestLine::new(&v), sched, false, &mut emit)?,
                Err(e) => emit(&reject_line(sched, BadLine::Unparseable(e)))?,
            },
            LineEvent::Oversized => {
                emit(&reject_line(sched, BadLine::Oversized(MAX_LINE_BYTES)))?;
            }
            LineEvent::Timeout => {}
            LineEvent::Eof => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Fleet;

    fn sched() -> Scheduler {
        Scheduler::with_workers(Fleet::from_catalog(), 2)
    }

    fn run_line(sched: &Scheduler, line: &str) -> Json {
        let mut out = stream_line_with(sched, line, false);
        assert_eq!(out.len(), 1, "{line} -> {out:?}");
        out.remove(0)
    }

    #[test]
    fn ping_and_unknown_op() {
        let s = sched();
        let pong = run_line(&s, r#"{"id": 1, "op": "ping"}"#);
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        let bad = run_line(&s, r#"{"id": 2, "op": "frobnicate"}"#);
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn fleet_inventory_lists_devices() {
        let s = sched();
        let v = run_line(&s, r#"{"op": "fleet"}"#);
        assert_eq!(v.get("devices").unwrap().as_arr().unwrap().len(), 4);
        assert!(v.get("power_budget_w").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn run_parses_patterns_and_reports_power() {
        let s = sched();
        let v = run_line(
            &s,
            r#"{"id": 7, "dtype": "fp16-t", "dim": 128, "pattern": "sparse", "sparsity": 0.5, "seeds": 1, "lattice": 4}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert!(v.get("power_w").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(v.get("cache_hit"), Some(&Json::Bool(false)));
    }

    #[test]
    fn missing_fields_error_cleanly() {
        let s = sched();
        for (line, needle) in [
            (r#"{"dim": 64}"#, "dtype"),
            (r#"{"dtype": "fp32"}"#, "dim"),
            (r#"{"dtype": "nope", "dim": 64}"#, "unknown dtype"),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "sparse"}"#,
                "parameter",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "gpu": "tpu"}"#,
                "no fleet device",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "sparse", "sparsity": 1.5}"#,
                "must be in [0, 1]",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "bit_flips", "probability": -0.1}"#,
                "must be in [0, 1]",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "zero_lsbs", "count": 3.5}"#,
                "must be an integer",
            ),
            (
                r#"{"dtype": "fp32", "dim": 100000, "pattern": "zeros"}"#,
                "\"dim\" must be in",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "std": -5.0}"#,
                "\"std\" must be finite and positive",
            ),
        ] {
            let v = run_line(&s, line);
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line}");
            let err = v.get("error").unwrap().as_str().unwrap();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn a_gpu_name_that_strips_to_nothing_pins_no_device() {
        // Names match by substring with case, spaces, `-` and `_`
        // stripped. A name that strips to nothing must match no device:
        // every name contains the empty string, so it would pin device 0
        // and skip the power budget.
        let s = sched();
        for gpu in ["", " - ", "_"] {
            let line = format!(
                r#"{{"dtype": "fp32", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "{gpu}"}}"#
            );
            let v = run_line(&s, &line);
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line} -> {v}");
            assert_eq!(
                v.get("error").and_then(Json::as_str),
                Some(format!("no fleet device matches gpu {gpu:?}").as_str())
            );
        }
        assert_eq!(s.stats().submitted, 0, "rejected at parse, never submitted");
        // A spelled-out name still pins, however it is punctuated.
        let v = run_line(
            &s,
            r#"{"dtype": "fp32", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a-100 pcie"}"#,
        );
        assert_eq!(
            v.get("gpu").and_then(Json::as_str),
            Some("NVIDIA A100 PCIe")
        );
    }

    #[test]
    fn kernel_field_parses_and_round_trips() {
        let s = sched();
        // Default is GEMM; the response reports the executed kernel.
        let gemm = run_line(
            &s,
            r#"{"dtype": "fp16-t", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(gemm.get("ok"), Some(&Json::Bool(true)), "{gemm}");
        assert_eq!(gemm.get("kernel").unwrap().as_str(), Some("gemm"));
        let gemv = run_line(
            &s,
            r#"{"dtype": "fp16-t", "dim": 64, "kernel": "GEMV", "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(gemv.get("ok"), Some(&Json::Bool(true)), "{gemv}");
        assert_eq!(gemv.get("kernel").unwrap().as_str(), Some("gemv"));
        // Distinct kernels are distinct cache entries.
        assert_eq!(gemv.get("cache_hit"), Some(&Json::Bool(false)));
        assert!(
            gemv.get("power_w").unwrap().as_f64().unwrap()
                < gemm.get("power_w").unwrap().as_f64().unwrap(),
            "memory-bound GEMV must draw less"
        );
        // model_stats keys each entry by (arch, kernel).
        let stats = run_line(&s, r#"{"op": "model_stats"}"#);
        let models = stats.get("models").unwrap().as_arr().unwrap();
        let kernels: Vec<&str> = models
            .iter()
            .map(|m| m.get("kernel").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(kernels, ["gemm", "gemv"], "{stats}");
        // Unknown labels error cleanly.
        let bad = run_line(
            &s,
            r#"{"dtype": "fp32", "dim": 64, "kernel": "conv2d", "pattern": "zeros"}"#,
        );
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert!(bad
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown kernel"));
        // A present but non-string kernel must error, not default to GEMM.
        let non_string = run_line(
            &s,
            r#"{"dtype": "fp32", "dim": 64, "kernel": 1, "pattern": "zeros"}"#,
        );
        assert_eq!(non_string.get("ok"), Some(&Json::Bool(false)));
        assert!(non_string
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("must be a string"));
        // predict reports the kernel key it priced under.
        let p = run_line(
            &s,
            r#"{"op": "predict", "dtype": "fp16-t", "dim": 64, "kernel": "gemv", "pattern": "zeros", "seeds": 1, "lattice": 4}"#,
        );
        assert_eq!(p.get("ok"), Some(&Json::Bool(true)), "{p}");
        assert_eq!(p.get("kernel").unwrap().as_str(), Some("gemv"));
        assert_eq!(p.get("source").unwrap().as_str(), Some("analytic"));
    }

    #[test]
    fn range_check_boundaries_answer_errors_not_panics() {
        // Every boundary violation must come back as a clean error
        // response from `answer`, parsed before any worker could touch it
        // — the daemon's workers never see (let alone panic on) these.
        let s = sched();
        for (line, needle) in [
            // count boundaries: MAX_BIT_COUNT + 1 and non-integers are out.
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "zero_lsbs", "count": 65}"#,
                "must be an integer in 0..=64",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "random_msbs", "count": 64.5}"#,
                "must be an integer in 0..=64",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "zero_msbs", "count": -1}"#,
                "must be an integer in 0..=64",
            ),
            // Non-finite fractions: the parser accepts 1e999 as +inf, and
            // the range check must reject it (likewise -inf).
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "sparse", "sparsity": 1e999}"#,
                "must be in [0, 1]",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "bit_flips", "probability": -1e999}"#,
                "must be in [0, 1]",
            ),
            // set_size boundaries: 0 and MAX_SET_SIZE + 1 are out.
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "value_set", "set_size": 0}"#,
                "must be an integer in 1..=65536",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "value_set", "set_size": 65537}"#,
                "must be an integer in 1..=65536",
            ),
        ] {
            let v = run_line(&s, line);
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line}");
            let err = v.get("error").unwrap().as_str().unwrap();
            assert!(err.contains(needle), "{line} -> {err}");
        }
        // A raw NaN literal is not JSON at all: the serve loop answers a
        // parse error, it does not crash.
        let mut out = Vec::new();
        serve(
            &br#"{"dtype": "fp32", "dim": 64, "pattern": "sparse", "sparsity": NaN}"#[..],
            &mut out,
            &s,
        )
        .unwrap();
        let resp = Json::parse(std::str::from_utf8(&out).unwrap().trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        // At-boundary values are in range and must execute cleanly:
        // count = MAX_BIT_COUNT (clamped to the dtype width downstream)
        // and set_size = MAX_SET_SIZE.
        for line in [
            r#"{"dtype": "fp32", "dim": 64, "pattern": "zero_lsbs", "count": 64, "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
            r#"{"dtype": "fp32", "dim": 64, "pattern": "value_set", "set_size": 65536, "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        ] {
            let v = run_line(&s, line);
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line} -> {v}");
        }
        assert_eq!(
            s.stats().failed,
            0,
            "boundary violations must be rejected at parse, never in a worker"
        );
    }

    #[test]
    fn wrong_typed_optional_fields_error_not_default() {
        // Every optional field, present with the wrong JSON type, must be
        // rejected — never fall through to the default as if absent
        // (`{"seeds": "8"}` used to run silently with the default seeds).
        let s = sched();
        let base = r#""dtype": "fp32", "dim": 64, "pattern": "zeros""#;
        let with_base: Vec<(&str, &str)> = vec![
            (
                r#""seeds": "8""#,
                "\"seeds\" must be a non-negative integer",
            ),
            (
                r#""seeds": 3.5"#,
                "\"seeds\" must be a non-negative integer",
            ),
            (r#""seeds": -1"#, "\"seeds\" must be a non-negative integer"),
            (
                r#""base_seed": true"#,
                "\"base_seed\" must be a non-negative integer",
            ),
            (
                r#""iterations": "100""#,
                "\"iterations\" must be a non-negative integer",
            ),
            (r#""b_transposed": 1"#, "\"b_transposed\" must be a boolean"),
            (
                r#""lattice": true"#,
                "\"lattice\" must be a non-negative integer",
            ),
            (r#""mean": "0""#, "\"mean\" must be a number"),
            (r#""std": [1]"#, "\"std\" must be a number"),
            (r#""deadline_us": "5""#, "\"deadline_us\" must be a number"),
            (r#""gpu": 5"#, "\"gpu\" must be a string"),
            (r#""kernel": 1"#, "\"kernel\" must be a string"),
            (r#""n": "64""#, "\"n\" must be a non-negative integer"),
            (r#""m": [64]"#, "\"m\" must be a non-negative integer"),
            (r#""k": null"#, "\"k\" must be a non-negative integer"),
        ];
        for (field, needle) in with_base {
            let line = format!("{{{base}, {field}}}");
            let v = run_line(&s, &line);
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line} -> {v}");
            let err = v.get("error").unwrap().as_str().unwrap();
            assert!(err.contains(needle), "{line} -> {err}");
        }
        // Fields that clash with the base object (the parser reads the
        // first occurrence of a duplicate key) and pattern parameters
        // that need their matching pattern get full request lines.
        for (line, needle) in [
            (
                r#"{"dtype": 5, "dim": 64, "pattern": "zeros"}"#,
                "\"dtype\" must be a string",
            ),
            (
                r#"{"dtype": "fp32", "dim": "64", "pattern": "zeros"}"#,
                "\"dim\" must be a non-negative integer",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": 5}"#,
                "\"pattern\" must be a string",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "sparse", "sparsity": "0.5"}"#,
                "\"sparsity\" must be a number",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "zero_lsbs", "count": "6"}"#,
                "\"count\" must be a number",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "value_set", "set_size": "16"}"#,
                "\"set_size\" must be a number",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "sparse", "param": {}}"#,
                "\"param\" must be a number",
            ),
            // A wrong-typed "op" errors too (it would otherwise run).
            (
                r#"{"dtype": "fp32", "dim": 64, "pattern": "zeros", "op": 1}"#,
                "\"op\" must be a string",
            ),
        ] {
            let v = run_line(&s, line);
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line} -> {v}");
            let err = v.get("error").unwrap().as_str().unwrap();
            assert!(err.contains(needle), "{line} -> {err}");
        }
        assert_eq!(s.stats().failed, 0, "all rejected at parse");
        // The well-typed spellings of the same fields still work.
        let ok = run_line(
            &s,
            &format!("{{{base}, \"seeds\": 1, \"lattice\": 4, \"gpu\": \"a100\", \"b_transposed\": true}}"),
        );
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{ok}");
    }

    #[test]
    fn ragged_shapes_parse_run_and_echo() {
        let s = sched();
        // A ragged GEMM via explicit axes; the response echoes them.
        let v = run_line(
            &s,
            r#"{"dtype": "fp16-t", "n": 96, "m": 32, "k": 160, "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        assert_eq!(v.get("n").unwrap().as_u64(), Some(96));
        assert_eq!(v.get("m").unwrap().as_u64(), Some(32));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(160));
        assert!(v.get("power_w").unwrap().as_f64().unwrap() > 0.0);
        // Square `dim` base with one axis overridden.
        let v = run_line(
            &s,
            r#"{"dtype": "fp16-t", "dim": 64, "k": 128, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        assert_eq!(v.get("n").unwrap().as_u64(), Some(64));
        assert_eq!(v.get("m").unwrap().as_u64(), Some(64));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(128));
        // A decode GEMV may omit m entirely; the echo reports m = 1.
        let v = run_line(
            &s,
            r#"{"dtype": "fp16-t", "kernel": "gemv", "n": 64, "k": 256, "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        assert_eq!(v.get("kernel").unwrap().as_str(), Some("gemv"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(64));
        assert_eq!(v.get("m").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(256));
        // predict echoes the effective shape too.
        let p = run_line(
            &s,
            r#"{"op": "predict", "dtype": "fp16-t", "kernel": "gemv", "n": 64, "k": 256, "pattern": "gaussian", "seeds": 1, "lattice": 4}"#,
        );
        assert_eq!(p.get("ok"), Some(&Json::Bool(true)), "{p}");
        assert_eq!(p.get("n").unwrap().as_u64(), Some(64));
        assert_eq!(p.get("m").unwrap().as_u64(), Some(1));
        assert_eq!(p.get("k").unwrap().as_u64(), Some(256));
    }

    #[test]
    fn legacy_square_dim_cache_hits_its_explicit_spelling() {
        let s = sched();
        let legacy = run_line(
            &s,
            r#"{"dtype": "fp16-t", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(legacy.get("ok"), Some(&Json::Bool(true)), "{legacy}");
        assert_eq!(legacy.get("cache_hit"), Some(&Json::Bool(false)));
        // The same request spelled per-axis is the same cache entry.
        let explicit = run_line(
            &s,
            r#"{"dtype": "fp16-t", "n": 64, "m": 64, "k": 64, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(explicit.get("ok"), Some(&Json::Bool(true)), "{explicit}");
        assert_eq!(explicit.get("cache_hit"), Some(&Json::Bool(true)));
        assert_eq!(
            legacy.get("power_w").unwrap().as_f64(),
            explicit.get("power_w").unwrap().as_f64()
        );
        // Legacy square GEMV aliases its n x 1 x k spelling the same way.
        let gemv_legacy = run_line(
            &s,
            r#"{"dtype": "fp16-t", "kernel": "gemv", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(
            gemv_legacy.get("ok"),
            Some(&Json::Bool(true)),
            "{gemv_legacy}"
        );
        assert_eq!(gemv_legacy.get("m").unwrap().as_u64(), Some(1));
        let gemv_explicit = run_line(
            &s,
            r#"{"dtype": "fp16-t", "kernel": "gemv", "n": 64, "m": 1, "k": 64, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(gemv_explicit.get("cache_hit"), Some(&Json::Bool(true)));
    }

    #[test]
    fn shape_validation_rejects_missing_axes_and_blown_budgets() {
        let s = sched();
        for (line, needle) in [
            // No shape at all.
            (
                r#"{"dtype": "fp32", "pattern": "zeros"}"#,
                "missing problem shape",
            ),
            // Partial axes without a square base.
            (
                r#"{"dtype": "fp32", "n": 64, "k": 64, "pattern": "zeros"}"#,
                "missing \"m\"",
            ),
            (
                r#"{"dtype": "fp32", "m": 64, "pattern": "zeros"}"#,
                "missing \"n\"",
            ),
            // Zero and oversized axes.
            (
                r#"{"dtype": "fp32", "n": 0, "m": 64, "k": 64, "pattern": "zeros"}"#,
                "\"n\" must be in 1..=65536",
            ),
            (
                r#"{"dtype": "fp32", "dim": 100000, "pattern": "zeros"}"#,
                "\"dim\" must be in 1..=65536",
            ),
            (
                r#"{"dtype": "fp32", "dim": 64, "k": 70000, "pattern": "zeros"}"#,
                "\"k\" must be in 1..=65536",
            ),
            // Per-axis caps pass but the FLOP budget trips (2·4097³ > 2³⁷).
            (
                r#"{"dtype": "fp16-t", "dim": 4097, "pattern": "zeros"}"#,
                "GFLOP budget",
            ),
            // Cheap FLOPs, blown operand footprint (~268 MiB of FP32 A+B+D).
            (
                r#"{"dtype": "fp32", "n": 8192, "m": 8192, "k": 16, "pattern": "zeros"}"#,
                "MiB budget",
            ),
        ] {
            let v = run_line(&s, line);
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line} -> {v}");
            let err = v.get("error").unwrap().as_str().unwrap();
            assert!(err.contains(needle), "{line} -> {err}");
        }
        // The legacy square ceiling still executes: the budgets were
        // calibrated so `dim = 4096` stays exactly admissible. Parsing
        // proves admissibility; `predict` exercises the path without
        // paying for a 4096² simulation in a unit test.
        let v = run_line(
            &s,
            r#"{"op": "predict", "dtype": "fp16-t", "dim": 4096, "pattern": "zeros", "seeds": 1}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        // A GEMV's m never counts against its budgets: the same blown-m
        // shape is fine when decode executes n x 1 x k.
        let v = run_line(
            &s,
            r#"{"op": "predict", "dtype": "fp32", "kernel": "gemv", "n": 8192, "m": 8192, "k": 16, "pattern": "zeros", "seeds": 1}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        assert_eq!(s.stats().failed, 0, "rejected at parse, never in a worker");
    }

    #[test]
    fn grouped_requests_run_echo_and_cache_alias_permutations() {
        let s = sched();
        // A grouped prefill request executes as one unit and echoes the
        // canonical member list instead of a single n/m/k.
        let first = run_line(
            &s,
            r#"{"dtype": "fp16-t", "group": [{"n": 96, "m": 32, "k": 64}, {"n": 64, "m": 16, "k": 96}, {"dim": 64}], "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first}");
        assert_eq!(first.get("members").unwrap().as_u64(), Some(3));
        assert!(first.get("n").is_none(), "groups echo no top-level shape");
        let group = first.get("group").unwrap().as_arr().unwrap();
        assert_eq!(group.len(), 3);
        // Canonical (sorted) member order, with the per-member `dim`
        // square spelling expanded.
        assert_eq!(group[0].get("n").unwrap().as_u64(), Some(64));
        assert_eq!(group[0].get("m").unwrap().as_u64(), Some(16));
        assert_eq!(group[2].get("k").unwrap().as_u64(), Some(64));
        assert_eq!(first.get("cache_hit"), Some(&Json::Bool(false)));
        // A permuted resubmission is the same cache entry with the same
        // answer.
        let permuted = run_line(
            &s,
            r#"{"dtype": "fp16-t", "group": [{"dim": 64}, {"n": 64, "m": 16, "k": 96}, {"n": 96, "m": 32, "k": 64}], "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(
            permuted.get("cache_hit"),
            Some(&Json::Bool(true)),
            "{permuted}"
        );
        assert_eq!(
            first.get("power_w").unwrap().as_f64(),
            permuted.get("power_w").unwrap().as_f64()
        );
        // A 1-member group is the plain request: it hits the plain
        // request's cache entry (and vice versa).
        let plain = run_line(
            &s,
            r#"{"dtype": "fp16-t", "n": 96, "m": 32, "k": 64, "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(plain.get("ok"), Some(&Json::Bool(true)), "{plain}");
        let singleton = run_line(
            &s,
            r#"{"dtype": "fp16-t", "group": [{"n": 96, "m": 32, "k": 64}], "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(
            singleton.get("cache_hit"),
            Some(&Json::Bool(true)),
            "{singleton}"
        );
        // And it answers in the plain shape: no "members"/"group" echo.
        assert!(singleton.get("members").is_none());
        assert_eq!(singleton.get("n").unwrap().as_u64(), Some(96));
        // predict prices a group without executing and echoes the list.
        let p = run_line(
            &s,
            r#"{"op": "predict", "dtype": "fp16-t", "kernel": "gemv", "group": [{"n": 64, "k": 256}, {"n": 256, "k": 64}], "pattern": "gaussian", "seeds": 1, "lattice": 4}"#,
        );
        assert_eq!(p.get("ok"), Some(&Json::Bool(true)), "{p}");
        assert_eq!(p.get("members").unwrap().as_u64(), Some(2));
        let pg = p.get("group").unwrap().as_arr().unwrap();
        // GEMV members normalize m to 1, exactly like plain GEMV requests.
        assert_eq!(pg[0].get("m").unwrap().as_u64(), Some(1));
        assert!(p.get("predicted_w").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn group_validation_answers_errors_not_panics() {
        let s = sched();
        for (line, needle) in [
            // Empty and non-array groups.
            (
                r#"{"dtype": "fp32", "group": [], "pattern": "zeros"}"#,
                "at least one member",
            ),
            (
                r#"{"dtype": "fp32", "group": 5, "pattern": "zeros"}"#,
                "\"group\" must be an array",
            ),
            (
                r#"{"dtype": "fp32", "group": {"n": 64}, "pattern": "zeros"}"#,
                "\"group\" must be an array",
            ),
            // Member-count budget.
            (
                &format!(
                    r#"{{"dtype": "fp32", "group": [{}], "pattern": "zeros"}}"#,
                    vec![r#"{"dim": 32}"#; 65].join(", ")
                ),
                "at most 64 members",
            ),
            // Aggregate FLOPs budget: each member admissible alone
            // (2 * 4096^3 = 2^37 exactly), together double the budget.
            (
                r#"{"dtype": "fp16-t", "group": [{"dim": 4096}, {"dim": 4096}], "pattern": "zeros"}"#,
                "GFLOP budget",
            ),
            // Aggregate footprint budget: ~69 MiB per member of cheap
            // FLOPs, 4 members blow the 256 MiB cap.
            (
                r#"{"dtype": "fp32", "group": [{"n": 4096, "m": 64, "k": 4096}, {"n": 4096, "m": 64, "k": 4097}, {"n": 4096, "m": 64, "k": 4098}, {"n": 4096, "m": 64, "k": 4099}], "pattern": "zeros"}"#,
                "MiB budget",
            ),
            // Wrong-typed and out-of-range member fields.
            (
                r#"{"dtype": "fp32", "group": [{"n": "64", "m": 64, "k": 64}], "pattern": "zeros"}"#,
                "group member 0: \"n\" must be a non-negative integer",
            ),
            (
                r#"{"dtype": "fp32", "group": [{"dim": 64}, {"n": 64, "m": true, "k": 64}], "pattern": "zeros"}"#,
                "group member 1: \"m\" must be a non-negative integer",
            ),
            (
                r#"{"dtype": "fp32", "group": [{"n": 64, "k": 64}], "pattern": "zeros"}"#,
                "group member 0: missing \"m\"",
            ),
            (
                r#"{"dtype": "fp32", "group": [{"dim": 0}], "pattern": "zeros"}"#,
                "group member 0: \"dim\" must be in 1..=65536",
            ),
            (
                r#"{"dtype": "fp32", "group": [{}], "pattern": "zeros"}"#,
                "group member 0: missing problem shape",
            ),
            (
                r#"{"dtype": "fp32", "group": [64], "pattern": "zeros"}"#,
                "group member 0 must be an object",
            ),
            // Group and legacy shape fields are mutually exclusive.
            (
                r#"{"dtype": "fp32", "dim": 64, "group": [{"dim": 64}], "pattern": "zeros"}"#,
                "cannot be combined with top-level \"dim\"",
            ),
            (
                r#"{"dtype": "fp32", "k": 64, "group": [{"dim": 64}], "pattern": "zeros"}"#,
                "cannot be combined with top-level \"k\"",
            ),
        ] {
            let v = run_line(&s, line);
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line} -> {v}");
            let err = v.get("error").unwrap().as_str().unwrap();
            assert!(err.contains(needle), "{line} -> {err}");
        }
        assert_eq!(
            s.stats().failed,
            0,
            "bad groups must be rejected at parse, never in a worker"
        );
        // At-budget groups still execute: 64 members is admissible, and
        // `predict` proves admissibility without paying for the run.
        let v = run_line(
            &s,
            &format!(
                r#"{{"op": "predict", "dtype": "fp32", "group": [{}], "pattern": "zeros", "seeds": 1, "lattice": 4}}"#,
                vec![r#"{"dim": 32}"#; 64].join(", ")
            ),
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        assert_eq!(v.get("members").unwrap().as_u64(), Some(64));
    }

    #[test]
    fn run_reports_predicted_vs_measured() {
        let s = sched();
        let v = run_line(
            &s,
            r#"{"dtype": "fp16-t", "dim": 96, "pattern": "gaussian", "seeds": 1, "lattice": 4}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        // Untrained fleet: the analytic path priced the job.
        assert_eq!(
            v.get("predicted_source").unwrap().as_str(),
            Some("analytic")
        );
        let predicted = v.get("predicted_w").unwrap().as_f64().unwrap();
        let measured = v.get("measured_w").unwrap().as_f64().unwrap();
        assert_eq!(measured, v.get("power_w").unwrap().as_f64().unwrap());
        assert!(
            (predicted - measured).abs() / measured < 0.05,
            "predicted {predicted} vs measured {measured}"
        );
        // Pinned jobs skip placement: no prediction fields.
        let pinned = run_line(
            &s,
            r#"{"dtype": "fp16-t", "dim": 96, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        );
        assert_eq!(pinned.get("predicted_w"), Some(&Json::Null));
        assert_eq!(pinned.get("predicted_source"), Some(&Json::Null));
    }

    #[test]
    fn predict_op_estimates_without_executing() {
        let s = sched();
        let v = run_line(
            &s,
            r#"{"op": "predict", "dtype": "int8", "dim": 64, "pattern": "sparse", "sparsity": 0.5, "seeds": 1, "lattice": 4}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        assert!(v.get("predicted_w").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(v.get("source").unwrap().as_str(), Some("analytic"));
        assert_eq!(v.get("model_observations").unwrap().as_u64(), Some(0));
        // Nothing executed.
        let stats = run_line(&s, r#"{"op": "stats"}"#);
        assert_eq!(stats.get("completed").unwrap().as_u64(), Some(0));
        // Malformed predict requests error like runs do.
        let bad = run_line(&s, r#"{"op": "predict", "dim": 64}"#);
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn stats_carries_per_device_utilization_and_joules() {
        let s = sched();
        let v = run_line(
            &s,
            r#"{"dtype": "fp32", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "v100"}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        let stats = run_line(&s, r#"{"op": "stats"}"#);
        let devices = stats.get("devices").unwrap().as_arr().unwrap();
        assert_eq!(devices.len(), 4);
        let ran: Vec<&Json> = devices
            .iter()
            .filter(|d| d.get("jobs").unwrap().as_u64() == Some(1))
            .collect();
        assert_eq!(ran.len(), 1);
        assert_eq!(
            ran[0].get("gpu").unwrap().as_str(),
            Some("NVIDIA V100 SXM2")
        );
        let energy = ran[0].get("energy_j").unwrap().as_f64().unwrap();
        assert!(energy > 0.0);
        assert_eq!(
            stats.get("fleet_energy_j").unwrap().as_f64().unwrap(),
            energy
        );
        assert!(ran[0].get("utilization_pct").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn model_stats_op_reports_predictor_health() {
        let s = sched();
        // No runs yet: no models exist.
        let empty = run_line(&s, r#"{"op": "model_stats"}"#);
        assert_eq!(empty.get("models").unwrap().as_arr().unwrap().len(), 0);
        let v = run_line(
            &s,
            r#"{"dtype": "fp16", "dim": 64, "pattern": "gaussian", "seeds": 1, "lattice": 4}"#,
        );
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        let stats = run_line(&s, r#"{"op": "model_stats"}"#);
        let models = stats.get("models").unwrap().as_arr().unwrap();
        assert_eq!(models.len(), 1, "one architecture has observed a run");
        let m = &models[0];
        assert_eq!(m.get("observations").unwrap().as_u64(), Some(1));
        assert_eq!(m.get("ready"), Some(&Json::Bool(false)));
        assert_eq!(m.get("degraded"), Some(&Json::Bool(false)));
        assert_eq!(m.get("drift_events").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn daemon_survives_malicious_parameters() {
        // Out-of-range parameters must be rejected at parse time — and a
        // valid query afterwards must still be answered (regression: these
        // used to panic the workers and wedge the daemon).
        let s = sched();
        let input = concat!(
            r#"{"id": 1, "dtype": "fp32", "dim": 64, "pattern": "sparse", "sparsity": 1.5}"#,
            "\n",
            r#"{"id": 2, "dtype": "fp32", "dim": 64, "pattern": "sparse", "sparsity": 1.5}"#,
            "\n",
            r#"{"id": 3, "dtype": "int8", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4}"#,
            "\n",
        );
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, &s).unwrap();
        let lines: Vec<Json> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(lines[2].get("ok"), Some(&Json::Bool(true)), "{}", lines[2]);
        assert_eq!(s.stats().failed, 0, "rejected at parse, never submitted");
    }

    #[test]
    fn serve_loop_end_to_end() {
        let s = sched();
        let input = concat!(
            r#"{"id": 1, "op": "ping"}"#,
            "\n\n",
            r#"{"id": 2, "dtype": "int8", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
            "\n",
            "not json\n",
        );
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, &s).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(Json::parse(lines[0]).unwrap().get("pong").is_some());
        assert_eq!(
            Json::parse(lines[1]).unwrap().get("ok"),
            Some(&Json::Bool(true))
        );
        assert_eq!(
            Json::parse(lines[2]).unwrap().get("ok"),
            Some(&Json::Bool(false))
        );
    }

    // Auto-placed (no "gpu" pin): pinned jobs bypass the packer and
    // budget accounting, so these tests would see empty rounds and a
    // zero budget witness with a pin.
    const RUN_LINE: &str =
        r#"{"dtype": "fp32", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4}"#;
    const RUN_LINE_B: &str =
        r#"{"dtype": "fp32", "dim": 96, "pattern": "zeros", "seeds": 1, "lattice": 4}"#;

    #[test]
    fn every_response_carries_a_request_id() {
        let s = sched();
        let mut seen = Vec::new();
        for line in [
            r#"{"op": "ping"}"#,
            RUN_LINE,
            r#"{"op": "stats"}"#,
            r#"{"op": "frobnicate"}"#,
            r#"{"op": 7}"#,
        ] {
            let v = run_line(&s, line);
            let rid = v
                .get("request_id")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{line} -> {v}"));
            assert!(rid >= 1.0, "{line}");
            seen.push(rid as u64);
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "ids are unique: {seen:?}");
        // Unparseable lines get an id too, via the serve loop.
        let mut out = Vec::new();
        serve(&b"not json\n"[..], &mut out, &s).unwrap();
        let resp = Json::parse(std::str::from_utf8(&out).unwrap().trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(resp.get("request_id").and_then(Json::as_f64).is_some());
    }

    /// Every response line `serve` writes for `input`.
    fn serve_bytes(s: &Scheduler, input: &[u8]) -> Vec<Json> {
        let mut out = Vec::new();
        serve(input, &mut out, s).expect("in-memory serve cannot fail");
        std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn a_padded_bad_line_reports_the_offset_of_its_trimmed_text() {
        // The TCP session parses the trimmed line; stdio must too, so
        // the same line answers the same error over both transports.
        let s = sched();
        let lines = serve_bytes(&s, b"   {\"op\": x}\t\n");
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert_eq!(
            lines[0].get("error").and_then(Json::as_str),
            Some("parse error: unexpected character at byte 7"),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn a_line_that_is_not_utf8_is_answered_and_serving_goes_on() {
        let s = sched();
        let lines = serve_bytes(
            &s,
            b"{\"id\":1,\"op\":\"ping\"}\n\xff\xfe\n{\"id\":2,\"op\":\"ping\"}\n",
        );
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert_eq!(
            lines[0].get("pong"),
            Some(&Json::Bool(true)),
            "{}",
            lines[0]
        );
        assert_eq!(lines[1].get("ok"), Some(&Json::Bool(false)), "{}", lines[1]);
        let error = lines[1].get("error").and_then(Json::as_str).unwrap();
        assert!(error.starts_with("parse error: "), "{error}");
        assert!(lines[1].get("request_id").and_then(Json::as_u64).is_some());
        assert_eq!(lines[2].get("id"), Some(&Json::Num(2.0)), "{}", lines[2]);
        assert_eq!(
            lines[2].get("pong"),
            Some(&Json::Bool(true)),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn an_oversized_line_is_answered_without_being_buffered() {
        let s = sched();
        let mut input = vec![b'x'; 2 * MAX_LINE_BYTES];
        input.extend_from_slice(b"\n{\"op\":\"ping\"}\n");
        let lines = serve_bytes(&s, &input);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(
            lines[0].get("error").and_then(Json::as_str),
            Some(oversized_line_error(MAX_LINE_BYTES).as_str())
        );
        assert!(lines[0].get("request_id").and_then(Json::as_u64).is_some());
        assert_eq!(
            lines[1].get("pong"),
            Some(&Json::Bool(true)),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn request_latency_is_counted_per_op() {
        let s = sched();
        let input = [
            r#"{"op": "ping"}"#,
            r#"{"op": "frobnicate"}"#,
            r#"{"op": "ping"}"#,
            r#"{"op": 7}"#,
            r#"{"op": "batch", "requests": []}"#,
            r#"{"op": "ping"}"#,
        ]
        .join("\n");
        assert_eq!(serve_bytes(&s, input.as_bytes()).len(), 6);
        let count = |op| {
            s.registry()
                .histogram("wattd_request_latency_us", &[("op", op)])
                .count()
        };
        assert_eq!((count("ping"), count("other"), count("batch")), (3, 2, 1));
    }

    fn stream_line(s: &Scheduler, line: &str) -> Vec<Json> {
        stream_line_with(s, line, true)
    }

    /// Every line `answer` emits for `line` under a transport whose
    /// batches stream by default (`stream_batches`) or not.
    fn stream_line_with(s: &Scheduler, line: &str, stream_batches: bool) -> Vec<Json> {
        let v = Json::parse(line).unwrap();
        let mut out = Vec::new();
        answer(&RequestLine::new(&v), s, stream_batches, &mut |j| {
            out.push(j.clone());
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn streamed_batch_emits_rounds_in_order_then_remainder() {
        let s = sched();
        let batch = format!(
            r#"{{"id": 9, "op": "batch", "requests": [{RUN_LINE}, {{"dim": 0}}, {RUN_LINE_B}]}}"#
        );
        let lines = stream_line(&s, &batch);
        let rounds = lines[0].get("rounds").and_then(Json::as_u64).unwrap();
        assert!(rounds >= 1);
        assert_eq!(lines.len() as u64, rounds + 1, "{lines:?}");
        let mut seen_members = Vec::new();
        let mut member_rids = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.get("ok"), Some(&Json::Bool(true)), "{line}");
            assert_eq!(line.get("id").and_then(Json::as_u64), Some(9));
            assert_eq!(line.get("members").and_then(Json::as_u64), Some(3));
            assert_eq!(line.get("rounds").and_then(Json::as_u64), Some(rounds));
            assert!(line.get("request_id").is_some());
            let last = i + 1 == lines.len();
            assert_eq!(line.get("last"), Some(&Json::Bool(last)), "{line}");
            // Packed rounds stream as 1..=R in execution order; the
            // remainder (here: the parse-error member) closes as round 0.
            let round = line.get("round").and_then(Json::as_u64).unwrap();
            assert_eq!(round, if last { 0 } else { i as u64 + 1 });
            for r in line.get("results").and_then(Json::as_arr).unwrap() {
                let index = r.get("index").and_then(Json::as_u64).unwrap();
                seen_members.push(index);
                member_rids.push(r.get("request_id").and_then(Json::as_u64).unwrap());
                let ok = r.get("ok").and_then(Json::as_bool).unwrap();
                assert_eq!(ok, index != 1, "{r}");
                if ok {
                    assert!(r.get("power_w").and_then(Json::as_f64).unwrap() > 0.0);
                }
            }
        }
        seen_members.sort_unstable();
        assert_eq!(seen_members, vec![0, 1, 2], "each member exactly once");
        member_rids.sort_unstable();
        member_rids.dedup();
        assert_eq!(member_rids.len(), 3, "member request ids are distinct");
    }

    #[test]
    fn streamed_non_batch_and_opt_out_stay_single_line() {
        let s = sched();
        let pong = stream_line(&s, r#"{"id": 1, "op": "ping"}"#);
        assert_eq!(pong.len(), 1);
        assert_eq!(pong[0].get("pong"), Some(&Json::Bool(true)));
        let blob = stream_line(
            &s,
            &format!(r#"{{"op": "batch", "stream": false, "requests": [{RUN_LINE}]}}"#),
        );
        assert_eq!(blob.len(), 1);
        assert_eq!(
            blob[0].get("results").and_then(Json::as_arr).unwrap().len(),
            1
        );
        assert!(blob[0].get("round").is_none(), "opt-out keeps blob framing");
        // A wrong-typed "stream" is a strict-field error, not a default.
        let bad = stream_line(
            &s,
            &format!(r#"{{"op": "batch", "stream": "yes", "requests": [{RUN_LINE}]}}"#),
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].get("ok"), Some(&Json::Bool(false)), "{:?}", bad[0]);
    }

    #[test]
    fn streamed_batch_matches_blob_results() {
        // The same batch answered both ways must agree member for member
        // (modulo request ids): streaming changes framing, not answers.
        let s = sched();
        let batch = format!(r#"{{"op": "batch", "requests": [{RUN_LINE}, {RUN_LINE_B}]}}"#);
        let blob = run_line(&s, &batch);
        let blob_results = blob.get("results").and_then(Json::as_arr).unwrap();
        let lines = stream_line(&s, &batch);
        let mut streamed: Vec<(u64, f64, bool)> = lines
            .iter()
            .flat_map(|l| l.get("results").and_then(Json::as_arr).unwrap().to_vec())
            .map(|r| {
                (
                    r.get("index").and_then(Json::as_u64).unwrap(),
                    r.get("power_w").and_then(Json::as_f64).unwrap(),
                    r.get("cache_hit").and_then(Json::as_bool).unwrap(),
                )
            })
            .collect();
        streamed.sort_by_key(|(i, _, _)| *i);
        assert_eq!(streamed.len(), blob_results.len());
        for (m, (_, power, cache_hit)) in streamed.iter().enumerate() {
            assert_eq!(
                blob_results[m].get("power_w").and_then(Json::as_f64),
                Some(*power)
            );
            // The blob ran first, so the streamed repeat replays its cache.
            assert!(*cache_hit);
        }
    }

    #[test]
    fn grouped_runs_report_per_member_cache_provenance() {
        let s = sched();
        // Warm the 64-dim member with a plain single request: the member
        // memo is spelling-agnostic, so a later group reuses it.
        let single = r#"{"dtype": "fp16-t", "dim": 64, "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#;
        assert_eq!(run_line(&s, single).get("ok"), Some(&Json::Bool(true)));
        let group_line = r#"{"dtype": "fp16-t", "group": [{"dim": 96}, {"dim": 64}], "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#;
        let first = run_line(&s, group_line);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first}");
        assert_eq!(first.get("cache_hit"), Some(&Json::Bool(false)));
        let members = first.get("group").unwrap().as_arr().unwrap();
        assert_eq!(members.len(), 2);
        // Canonical member order: 64 before 96. The warmed member is a
        // hit, the unseen one is this run's residue.
        assert_eq!(members[0].get("n").unwrap().as_u64(), Some(64));
        assert_eq!(members[0].get("cached"), Some(&Json::Bool(true)));
        assert_eq!(members[1].get("n").unwrap().as_u64(), Some(96));
        assert_eq!(members[1].get("cached"), Some(&Json::Bool(false)));
        // A repeat is a whole-result replay: all members report cached.
        let again = run_line(&s, group_line);
        assert_eq!(again.get("cache_hit"), Some(&Json::Bool(true)));
        for m in again.get("group").unwrap().as_arr().unwrap() {
            assert_eq!(m.get("cached"), Some(&Json::Bool(true)), "{m}");
        }
        // Stats surface the member-granular counters.
        let v = run_line(&s, r#"{"op": "stats"}"#);
        let num = |key: &str| v.get(key).and_then(Json::as_f64).unwrap();
        assert!(num("member_cache_hits") >= 1.0, "{v}");
        assert!(num("member_residue_jobs") >= 1.0, "{v}");
        // Plain (ungrouped) responses never echo per-member provenance.
        assert!(run_line(&s, single).get("group").is_none());
    }

    #[test]
    fn deadline_echo_reports_when_execution_ignored_it() {
        let s = sched();
        // Auto-placed with a deadline: DVFS planning consults it, so the
        // response echoes the deadline as honored.
        let auto_line = r#"{"dtype": "fp32", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4, "deadline_us": 50000}"#;
        let v = run_line(&s, auto_line);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        let us = v.get("deadline_us").and_then(Json::as_f64).unwrap();
        assert!((us - 50000.0).abs() < 1e-6, "{v}");
        assert_eq!(v.get("deadline_ignored"), Some(&Json::Bool(false)), "{v}");
        // A cache replay never re-plans, so the deadline was ignored.
        let replay = run_line(&s, auto_line);
        assert_eq!(replay.get("cache_hit"), Some(&Json::Bool(true)));
        assert_eq!(replay.get("deadline_ignored"), Some(&Json::Bool(true)));
        // Pinned jobs run at boost without planning: ignored too.
        let pinned = run_line(
            &s,
            r#"{"dtype": "fp32", "dim": 96, "pattern": "zeros", "seeds": 1, "lattice": 4, "gpu": "a100", "deadline_us": 50000}"#,
        );
        assert_eq!(pinned.get("ok"), Some(&Json::Bool(true)), "{pinned}");
        assert_eq!(pinned.get("deadline_ignored"), Some(&Json::Bool(true)));
        // No deadline, no echo.
        let plain = run_line(&s, RUN_LINE);
        assert!(plain.get("deadline_us").is_none());
        assert!(plain.get("deadline_ignored").is_none());
    }

    #[test]
    fn stdio_serve_streams_batches_on_explicit_opt_in() {
        let s = sched();
        let input = format!(
            concat!(
                r#"{{"id": 1, "op": "batch", "requests": [{run}]}}"#,
                "\n",
                r#"{{"id": 2, "op": "batch", "stream": true, "requests": [{run}, {run_b}]}}"#,
                "\n",
            ),
            run = RUN_LINE,
            run_b = RUN_LINE_B,
        );
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, &s).unwrap();
        let lines: Vec<Json> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        // Default stays the single blob a one-line-per-request client
        // expects; "stream": true opts into the TCP round framing.
        assert!(lines.len() >= 3, "blob + at least two streamed lines");
        assert_eq!(lines[0].get("id").and_then(Json::as_u64), Some(1));
        assert!(lines[0].get("results").is_some(), "{:?}", lines[0]);
        assert!(lines[0].get("round").is_none(), "{:?}", lines[0]);
        let streamed = &lines[1..];
        for (i, line) in streamed.iter().enumerate() {
            assert_eq!(line.get("id").and_then(Json::as_u64), Some(2));
            assert!(line.get("round").is_some(), "{line}");
            let last = i + 1 == streamed.len();
            assert_eq!(line.get("last"), Some(&Json::Bool(last)), "{line}");
        }
    }

    #[test]
    fn stats_reports_packing_and_budget_witness() {
        let s = sched();
        let batch = format!(r#"{{"op": "batch", "requests": [{RUN_LINE}, {RUN_LINE_B}]}}"#);
        let b = run_line(&s, &batch);
        assert_eq!(b.get("ok"), Some(&Json::Bool(true)), "{b}");
        let v = run_line(&s, r#"{"op": "stats"}"#);
        let num = |key: &str| v.get(key).and_then(Json::as_f64).unwrap();
        assert!(num("peak_committed_w") > 0.0, "batch={b} stats={v}");
        assert_eq!(num("packed_batches"), 1.0);
        assert!(num("pack_rounds") >= 1.0);
        assert!(num("last_batch_rounds") >= 1.0);
    }

    #[test]
    fn metrics_op_exports_json_and_prometheus() {
        let s = sched();
        assert_eq!(run_line(&s, RUN_LINE).get("ok"), Some(&Json::Bool(true)));
        let v = run_line(&s, r#"{"op": "metrics"}"#);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        let metrics = v.get("metrics").and_then(Json::as_arr).unwrap();
        let find = |name: &str| {
            metrics
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        assert_eq!(
            find("fleet_jobs_completed_total").get("value"),
            Some(&Json::Num(1.0))
        );
        let latency = metrics
            .iter()
            .find(|m| {
                m.get("name").and_then(Json::as_str) == Some("fleet_job_latency_us")
                    && m.get("type").and_then(Json::as_str) == Some("histogram")
                    && m.get("count") == Some(&Json::Num(1.0))
            })
            .expect("one kernel-labelled latency histogram with one observation");
        assert!(latency.get("p50").and_then(Json::as_f64).unwrap() > 0.0);

        let p = run_line(&s, r#"{"op": "metrics", "format": "prometheus"}"#);
        assert_eq!(p.get("ok"), Some(&Json::Bool(true)));
        let text = p.get("text").and_then(Json::as_str).unwrap();
        assert!(text.contains("fleet_jobs_completed_total 1"), "{text}");
        assert!(text.contains("fleet_job_latency_us"), "{text}");
    }

    #[test]
    fn metrics_op_rejects_bad_arguments() {
        let s = sched();
        for (line, needle) in [
            (
                r#"{"op": "metrics", "format": "xml"}"#,
                "unknown metrics format",
            ),
            (r#"{"op": "metrics", "format": 3}"#, "format"),
        ] {
            let v = run_line(&s, line);
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line}");
            let err = v.get("error").and_then(Json::as_str).unwrap();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn trace_op_filters_limits_and_drains() {
        let s = sched();
        let r1 = run_line(&s, RUN_LINE);
        let rid = r1.get("request_id").and_then(Json::as_f64).unwrap() as u64;
        assert_eq!(
            run_line(&s, r#"{"op": "ping"}"#).get("ok"),
            Some(&Json::Bool(true))
        );

        let all = run_line(&s, r#"{"op": "trace"}"#);
        assert_eq!(all.get("ok"), Some(&Json::Bool(true)), "{all}");
        let total = all.get("returned").and_then(Json::as_f64).unwrap();
        assert!(total >= 7.0, "run trail + ping parse spans, got {total}");
        assert_eq!(all.get("dropped"), Some(&Json::Num(0.0)));

        let mine = run_line(&s, &format!(r#"{{"op": "trace", "request_id": {rid}}}"#));
        let spans = mine.get("spans").and_then(Json::as_arr).unwrap();
        let stages: Vec<&str> = spans
            .iter()
            .map(|sp| sp.get("stage").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            stages,
            vec![
                "parse",
                "cache_lookup",
                "features",
                "pricing",
                "placement",
                "execute",
                "feedback"
            ],
            "full fresh-run trail in lifecycle order"
        );
        for sp in spans {
            assert_eq!(sp.get("request_id"), Some(&Json::Num(rid as f64)), "{sp}");
            let start = sp.get("start_us").and_then(Json::as_f64).unwrap();
            let end = sp.get("end_us").and_then(Json::as_f64).unwrap();
            let dur = sp.get("duration_us").and_then(Json::as_f64).unwrap();
            assert!(end >= start && dur == end - start, "{sp}");
        }

        let limited = run_line(&s, r#"{"op": "trace", "limit": 2}"#);
        assert_eq!(limited.get("returned"), Some(&Json::Num(2.0)));

        let drained = run_line(&s, r#"{"op": "trace", "drain": true}"#);
        assert_eq!(drained.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(drained.get("buffered"), Some(&Json::Num(0.0)));
        // Only this trace line's own parse span remains afterwards.
        let after = run_line(&s, r#"{"op": "trace"}"#);
        assert_eq!(after.get("returned"), Some(&Json::Num(1.0)), "{after}");
    }

    #[test]
    fn predict_traces_its_walk_and_leaves_the_units_to_a_run() {
        let s = sched();
        let fields = r#""dtype": "fp16-t", "group": [{"dim": 96}, {"dim": 64}], "pattern": "gaussian", "seeds": 1, "lattice": 4"#;
        let stages_of = |rid: u64| -> Vec<String> {
            let trail = run_line(&s, &format!(r#"{{"op": "trace", "request_id": {rid}}}"#));
            trail
                .get("spans")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|sp| sp.get("stage").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        // Auto-placed first (it walks the units), then pinned (it reads
        // them): each predict line carries its own full trail.
        for pin in ["", r#""gpu": "a100", "#] {
            let p = run_line(&s, &format!(r#"{{"op": "predict", {pin}{fields}}}"#));
            assert_eq!(p.get("ok"), Some(&Json::Bool(true)), "{p}");
            let rid = p.get("request_id").and_then(Json::as_f64).unwrap() as u64;
            assert_eq!(stages_of(rid), ["parse", "features", "pricing"], "{pin}{p}");
        }
        // The units predict walked belong to another request, so a 1-seed
        // run of the same group reads every member from cache.
        let run = run_line(&s, &format!("{{{fields}}}"));
        assert_eq!(run.get("cache_hit"), Some(&Json::Bool(false)), "{run}");
        let members = run.get("group").and_then(Json::as_arr).unwrap();
        assert_eq!(members.len(), 2);
        for m in members {
            assert_eq!(m.get("cached"), Some(&Json::Bool(true)), "{m}");
        }
    }

    #[test]
    fn trace_op_rejects_bad_arguments() {
        let s = sched();
        for (line, needle) in [
            (
                r#"{"op": "trace", "drain": true, "request_id": 1}"#,
                "cannot be combined",
            ),
            (r#"{"op": "trace", "request_id": "abc"}"#, "request_id"),
            (r#"{"op": "trace", "limit": -1}"#, "limit"),
            (r#"{"op": "trace", "drain": "yes"}"#, "drain"),
        ] {
            let v = run_line(&s, line);
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line}");
            let err = v.get("error").and_then(Json::as_str).unwrap();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn trace_ring_overflow_keeps_serving() {
        use crate::device::Fleet;
        use std::sync::Arc;
        use wm_obs::{Registry, Tracer};
        // A deliberately tiny ring: a single run emits more spans than it
        // holds, so eviction is guaranteed on every request.
        let s = Scheduler::with_observability(
            Fleet::from_catalog(),
            2,
            Arc::new(Registry::new()),
            Arc::new(Tracer::new(4)),
        );
        for _ in 0..5 {
            assert_eq!(run_line(&s, RUN_LINE).get("ok"), Some(&Json::Bool(true)));
        }
        let v = run_line(&s, r#"{"op": "trace"}"#);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        assert!(v.get("returned").and_then(Json::as_f64).unwrap() <= 4.0);
        assert!(
            v.get("dropped").and_then(Json::as_f64).unwrap() > 0.0,
            "evictions counted: {v}"
        );
    }

    #[test]
    fn batch_members_get_distinct_request_ids() {
        let s = sched();
        // Distinct parseable members: identical ones race for the cache
        // (one fresh, one hit) and the hit's trail has no execute span.
        let batch =
            format!(r#"{{"op": "batch", "requests": [{RUN_LINE}, {{"dim": 0}}, {RUN_LINE_B}]}}"#);
        let v = run_line(&s, &batch);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
        let outer = v.get("request_id").and_then(Json::as_f64).unwrap() as u64;
        let results = v.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 3);
        let mut member_ids = Vec::new();
        for r in results {
            let mid = r.get("request_id").and_then(Json::as_f64).unwrap() as u64;
            assert!(mid > outer, "members allocated after the batch line");
            member_ids.push(mid);
        }
        let mut sorted = member_ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "distinct ids: {member_ids:?}");
        assert_eq!(results[1].get("ok"), Some(&Json::Bool(false)));
        // The parseable members' execute spans carry their member ids.
        let trace = run_line(
            &s,
            &format!(r#"{{"op": "trace", "request_id": {}}}"#, member_ids[0]),
        );
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(
            spans
                .iter()
                .any(|sp| sp.get("stage").and_then(Json::as_str) == Some("execute")),
            "{trace}"
        );
        // The batch line itself owns the pack span.
        let pack = run_line(&s, &format!(r#"{{"op": "trace", "request_id": {outer}}}"#));
        let spans = pack.get("spans").and_then(Json::as_arr).unwrap();
        assert!(
            spans
                .iter()
                .any(|sp| sp.get("stage").and_then(Json::as_str) == Some("pack")),
            "{pack}"
        );
    }

    #[test]
    fn cache_hit_requests_show_a_shortened_trail() {
        let s = sched();
        assert_eq!(run_line(&s, RUN_LINE).get("ok"), Some(&Json::Bool(true)));
        let hit = run_line(&s, RUN_LINE);
        assert_eq!(hit.get("ok"), Some(&Json::Bool(true)));
        let rid = hit.get("request_id").and_then(Json::as_f64).unwrap() as u64;
        let trace = run_line(&s, &format!(r#"{{"op": "trace", "request_id": {rid}}}"#));
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        let stages: Vec<&str> = spans
            .iter()
            .map(|sp| sp.get("stage").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            stages,
            vec!["parse", "cache_lookup"],
            "hit short-circuits before features/pricing/execute"
        );
        let detail = spans[1].get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.starts_with("hit"), "{detail}");
    }
}
