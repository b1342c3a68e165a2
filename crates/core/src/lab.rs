//! The `PowerLab` runner: pattern → GEMM simulation → power → telemetry.

use wm_bits::Xoshiro256pp;
use wm_gpu::{GemmDims, GpuSpec};
use wm_kernels::{
    simulate_encoded, simulate_gemv_encoded, ActivityRecord, EncodedMatrix, GemmConfig, GemmInputs,
    GemvConfig, KernelClass, Sampling,
};
use wm_matrix::Matrix;
use wm_numerics::DType;
use wm_patterns::{BaseKey, PatternSpec};
use wm_power::{evaluate_group_refs, PowerBreakdown};
use wm_telemetry::{measure, Measurement, MeasurementConfig, VmInstance};

/// Seed-stream separator (golden-ratio increment, as in SplitMix64).
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The RNG root of one seed index of a request. Seed index 0 reduces to
/// `base_seed ^ 1`.
fn seed_root(base_seed: u64, s: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(base_seed ^ (s.wrapping_mul(SEED_STRIDE).wrapping_add(s + 1)))
}

/// One seed's fixed operand-stream roots and measurement seed, derived
/// *before* any member draws: the A root is the seed root as seeded, the
/// B root is the seed root advanced one draw, and the measurement seed is
/// the seed root's third draw.
///
/// Because the three are fixed up front, a member's operands and the
/// telemetry seed no longer depend on how many members a request carries
/// or on which members were freshly generated — a plain request draws
/// exactly what it always did (`fork(0)` of draw 1, `fork(1)` of draw 2,
/// measurement from draw 3), and every group member of ordinal 0 draws
/// exactly what its own plain request would. That identity is what makes
/// member-level memo reuse sound: a single-request cache entry *is* the
/// group-member computation.
#[derive(Debug, Clone, Copy)]
struct SeedStreams {
    a_root: Xoshiro256pp,
    b_root: Xoshiro256pp,
    measure_seed: u64,
}

fn seed_streams(base_seed: u64, s: u64) -> SeedStreams {
    let mut root = seed_root(base_seed, s);
    let a_root = root;
    root.next_u64();
    let b_root = root;
    root.next_u64();
    SeedStreams {
        a_root,
        b_root,
        measure_seed: root.next_u64(),
    }
}

/// The duplicate ordinal of canonical member `i`: how many members with
/// identical effective dims precede it. Canonical order sorts equal dims
/// adjacent, so a backward run scan suffices. Ordinals — not list
/// positions — feed the operand fork tags, so a member's data depends
/// only on its own shape and its rank among identical twins: member
/// `(dims, ordinal 0)` draws exactly what the plain request of `dims`
/// draws, while twin members still get decorrelated streams.
fn ordinal_at(members: &[GemmDims], i: usize) -> u64 {
    let mut ord = 0u64;
    let mut j = i;
    while j > 0 && members[j - 1] == members[i] {
        ord += 1;
        j -= 1;
    }
    ord
}

/// The canonical member walk of a request: every effective member with
/// its duplicate ordinal, in execution order. This is the unit list that
/// member-level caching keys off — `(dims, ordinal)` plus the request's
/// shared knobs fully determine a member's operand streams.
// audit:allow(hot-path-alloc): the walk list is the product, bounded by group size
pub fn member_ordinals(req: &RunRequest) -> Vec<(GemmDims, u64)> {
    let members = req.member_dims();
    members
        .iter()
        .enumerate()
        .map(|(i, &m)| (m, ordinal_at(&members, i)))
        // audit:allow(hot-path-alloc): the walk list is the product
        .collect()
}

/// The `(member, ordinal, seed)` units of seeds `0..seeds` of a request,
/// member-major: every seed of the first canonical member, then every
/// seed of the next. Each unit is one operand walk
/// ([`member_seed_operands`]); every assembler of a run lists its units
/// here and cuts their records back apart with [`member_slices`].
pub fn unit_layout(req: &RunRequest, seeds: u64) -> Vec<(GemmDims, u64, u64)> {
    member_ordinals(req)
        .into_iter()
        .flat_map(|(m, ord)| (0..seeds).map(move |s| (m, ord, s)))
        .collect()
}

/// Cut one record per unit of [`unit_layout`]`(req, req.seeds)`, in that
/// order, into one slice per canonical member — the shape
/// [`PowerLab::run_from_activities`] takes.
///
/// # Panics
///
/// Panics unless there is exactly one record per member and seed.
pub fn member_slices<'a, T>(req: &RunRequest, records: &'a [T]) -> Vec<&'a [T]> {
    let seeds = req.seeds as usize;
    // A plain request has an empty group and one member.
    let members = req.group.len().max(1);
    assert_eq!(
        records.len(),
        members * seeds,
        "member_slices needs one record per member and seed"
    );
    records.chunks(seeds).collect()
}

/// Generate seed `seed`'s operand pair of **one member**, addressed by its
/// effective dims and duplicate ordinal (see [`member_ordinals`]) —
/// exactly the matrices [`PowerLab::run`] executes for that member and
/// seed. The pair depends on the request's shared knobs, `(member,
/// ordinal)` and the seed index alone, never on the seed count or the
/// rest of the group, so it is the operand walk behind one cacheable
/// `(member, seed)` unit: each of [`member_seed_streams`]' two operands,
/// generated.
pub fn member_seed_operands(
    req: &RunRequest,
    member: GemmDims,
    ordinal: u64,
    seed: u64,
) -> (Matrix, Matrix) {
    let [a, b] = member_seed_streams(req, member, ordinal, seed);
    (a.generate(), b.generate())
}

/// One operand of a `(member, seed)` unit before it is generated: the
/// pattern, the dtype, the stored shape and the stream the pattern starts
/// from — every input of [`PatternSpec::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperandStream {
    /// The operand's pattern (the request's `pattern_a` or `pattern_b`).
    pub pattern: PatternSpec,
    /// The request's dtype.
    pub dtype: DType,
    /// Stored rows.
    pub rows: usize,
    /// Stored columns.
    pub cols: usize,
    /// The stream the pattern starts from.
    pub rng: Xoshiro256pp,
}

impl OperandStream {
    /// The key of the base draw this operand starts with; operands of
    /// equal keys start from bit-identical bases.
    pub fn base_key(&self) -> BaseKey {
        self.pattern
            .base_key(self.dtype, self.rows, self.cols, self.rng)
    }

    /// Generate the operand.
    pub fn generate(mut self) -> Matrix {
        self.pattern
            .generate(self.dtype, self.rows, self.cols, &mut self.rng)
    }
}

/// Seed `seed`'s A and B operands of **one member**, before generation.
/// A is `n x k` from fork `2 * ordinal` of the seed's A root. B comes from
/// fork `2 * ordinal + 1` of its B root in its stored shape: `m x k` when
/// transposed (the paper's default), else `k x m`, and a GEMV's `k x 1`
/// input vector `x`. A plain request is ordinal 0, so its forks are the
/// historical 0 and 1 of the historical draws.
pub fn member_seed_streams(
    req: &RunRequest,
    member: GemmDims,
    ordinal: u64,
    seed: u64,
) -> [OperandStream; 2] {
    let SeedStreams {
        mut a_root,
        mut b_root,
        ..
    } = seed_streams(req.base_seed, seed);
    let (b_rows, b_cols) = match req.kernel {
        KernelClass::Gemm if req.b_transposed => (member.m, member.k),
        KernelClass::Gemm => (member.k, member.m),
        KernelClass::Gemv => (member.k, 1),
    };
    let operand = |pattern, rows, cols, rng| OperandStream {
        pattern,
        dtype: req.dtype,
        rows,
        cols,
        rng,
    };
    [
        operand(req.pattern_a, member.n, member.k, a_root.fork(2 * ordinal)),
        operand(req.pattern_b, b_rows, b_cols, b_root.fork(2 * ordinal + 1)),
    ]
}

/// Generate the first seed's operand pair of **one member** — the seed-0
/// case of [`member_seed_operands`]. Every pipeline walks seeds through
/// [`member_seed_operands`] (the unit walk is `wm_predict::walk_unit`);
/// this is kept only for perfbench's replay, which times it. A member of
/// ordinal 0 draws exactly what the plain request of its dims draws.
///
/// For GEMM members A is `n x k` and the stored B follows the
/// transposition flag (`m x k` transposed — the paper's default — or
/// `k x m`); for GEMV members the second operand is the `k x 1` input
/// vector `x` (same decorrelated pattern stream, vector shape).
pub fn first_seed_member_operands(
    req: &RunRequest,
    member: GemmDims,
    ordinal: u64,
) -> (Matrix, Matrix) {
    member_seed_operands(req, member, ordinal, 0)
}

/// Simulate one member's activity for **every seed** of `req`, one seed
/// after another (`per_member[s]` is seed `s`'s record) — the sequential
/// reference a unit store's per-`(member, seed)` walks must match.
///
/// The records are bit-identical to what [`PowerLab::run`] simulates for
/// this member, and device-independent (activity simulation never reads
/// the GPU spec), so they answer the member on every device and VM
/// instance. A plain request is member `(dims, 0)`, so its records are
/// also those of every group that contains its shape.
pub fn member_seed_activities(
    req: &RunRequest,
    member: GemmDims,
    ordinal: u64,
) -> Vec<ActivityRecord> {
    (0..req.seeds)
        .map(|s| {
            let (a, b) = member_seed_operands(req, member, ordinal, s);
            simulate_member_activity(req, member, &a, &b)
        })
        .collect()
}

/// Simulate one group member's kernel execution: the request supplies the
/// shared configuration (kernel, dtype, transposition, sampling), the
/// member its own `n x m x k`. Encodes both operands, then
/// [`simulate_encoded_member_activity`].
pub fn simulate_member_activity(
    req: &RunRequest,
    member: GemmDims,
    a: &Matrix,
    b: &Matrix,
) -> ActivityRecord {
    let ea = EncodedMatrix::encode(a, req.dtype);
    let eb = EncodedMatrix::encode(b, req.dtype);
    simulate_encoded_member_activity(req, member, (a, &ea), (b, &eb))
}

/// [`simulate_member_activity`] over operands already encoded in the
/// request's dtype, each given as `(values, words)`: the kernel reads the
/// words its caller encoded once and may read again (a unit walk feeds
/// the same words to its feature chunk).
pub fn simulate_encoded_member_activity(
    req: &RunRequest,
    member: GemmDims,
    (a, ea): (&Matrix, &EncodedMatrix),
    (b, eb): (&Matrix, &EncodedMatrix),
) -> ActivityRecord {
    match req.kernel {
        KernelClass::Gemm => {
            let cfg = GemmConfig::new(member, req.dtype)
                .with_b_transposed(req.b_transposed)
                .with_sampling(req.sampling);
            let inputs = GemmInputs {
                a,
                b_stored: b,
                c: None,
            };
            simulate_encoded(&inputs, ea, eb, &cfg).activity
        }
        KernelClass::Gemv => {
            let mut cfg = GemvConfig::new(req.dtype);
            cfg.sample_rows = match req.sampling {
                Sampling::Full => usize::MAX,
                Sampling::Lattice { rows, .. } => rows,
            };
            simulate_gemv_encoded(a, ea, b.as_slice(), eb, None, &cfg).activity
        }
    }
}

/// A complete experiment-point request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Kernel family to execute: GEMM (the paper's workload, default) or
    /// memory-bound GEMV (LLM decode). GEMV reads the `n x k` weight
    /// matrix from `pattern_a`'s stream and streams a `k x 1` input
    /// vector generated from `pattern_b`'s stream; its `m` axis is always
    /// 1 (see [`RunRequest::dims`]).
    pub kernel: KernelClass,
    /// Datatype setup.
    pub dtype: DType,
    /// Requested problem shape `n x m x k`. The paper's experiments are
    /// square (`n = m = k`, 2048; 512 for the RTX 6000); real serving
    /// traffic is ragged — prefill GEMMs batch `n x m x k` problems and
    /// decode GEMVs are `n x k` with `n != k`. Prefer [`RunRequest::dims`]
    /// when consuming: it normalizes the GEMV `m` axis to 1. For grouped
    /// requests this is the first canonical member; consume
    /// [`RunRequest::member_dims`] instead.
    pub shape: GemmDims,
    /// Grouped-GEMM member shapes, the way serving frameworks submit
    /// prefill work: a list of `n x m x k` problems sharing this request's
    /// dtype/pattern/kernel, executed back-to-back and priced/cached **as
    /// a unit**. Empty for a plain single-problem request. Canonicalized
    /// by [`RunRequest::with_group`]: members are sorted (a group is a
    /// multiset — permutations are the same request, so they cache-alias)
    /// and a 1-member group collapses to the plain request it is
    /// equivalent to (this list is therefore never of length 1).
    pub group: Vec<GemmDims>,
    /// Input pattern for the A operand.
    pub pattern_a: PatternSpec,
    /// Input pattern for the B operand (usually the same family, its own
    /// seed stream — the paper: "A and B matrices use the same pattern").
    pub pattern_b: PatternSpec,
    /// The paper's B-transposition switch (default true; Fig. 5a sets false).
    pub b_transposed: bool,
    /// Number of seeds to average (the paper uses 10).
    pub seeds: u64,
    /// Base seed for the whole request.
    pub base_seed: u64,
    /// Iterations per seed; `None` auto-sizes so the telemetry window is
    /// comfortably longer than the warmup trim.
    pub iterations: Option<u64>,
    /// Output-element sampling for the activity engine.
    pub sampling: Sampling,
}

impl RunRequest {
    /// A square request with the paper's defaults: same pattern on A and
    /// B, B transposed, 10 seeds, auto iterations, default sampling
    /// lattice. Ragged shapes go through [`RunRequest::with_shape`].
    pub fn new(dtype: DType, dim: usize, pattern: PatternSpec) -> Self {
        Self {
            kernel: KernelClass::Gemm,
            dtype,
            shape: GemmDims::square(dim),
            group: Vec::new(),
            pattern_a: pattern,
            pattern_b: pattern,
            b_transposed: true,
            seeds: 10,
            base_seed: 0x5EED,
            iterations: None,
            sampling: Sampling::DEFAULT,
        }
    }

    /// Select the kernel family (default [`KernelClass::Gemm`]).
    pub fn with_kernel(mut self, kernel: KernelClass) -> Self {
        self.kernel = kernel;
        self
    }

    /// Override the problem shape with a (possibly ragged) `n x m x k`.
    ///
    /// # Panics
    ///
    /// Panics if any axis is zero.
    pub fn with_shape(mut self, shape: GemmDims) -> Self {
        assert!(
            shape.n > 0 && shape.m > 0 && shape.k > 0,
            "every problem axis must be positive"
        );
        self.shape = shape;
        self
    }

    /// Replace the problem with an ordered grouped-GEMM member list: the
    /// `n x m x k` problems a serving framework submits as one prefill
    /// batch, executed back-to-back and priced/cached **as a unit**.
    ///
    /// Members are canonicalized: the list is sorted by `(n, m, k)` — a
    /// group is a multiset of problems, so permuted submissions are the
    /// *same request* (same execution, same cache entry) — and a 1-member
    /// group collapses to the equivalent plain request, which it aliases
    /// by construction.
    ///
    /// # Panics
    ///
    /// Panics if the member list is empty or any member axis is zero.
    pub fn with_group(mut self, mut members: Vec<GemmDims>) -> Self {
        assert!(!members.is_empty(), "a group needs at least one member");
        assert!(
            members.iter().all(|d| d.n > 0 && d.m > 0 && d.k > 0),
            "every member axis must be positive"
        );
        members.sort_by_key(|d| (d.n, d.m, d.k));
        self.shape = members[0];
        self.group = if members.len() == 1 {
            Vec::new()
        } else {
            members
        };
        self
    }

    /// Whether this request carries a grouped member list (≥ 2 members;
    /// 1-member groups are normalized away by [`RunRequest::with_group`]).
    pub fn is_grouped(&self) -> bool {
        !self.group.is_empty()
    }

    /// The effective member problems this request executes, in canonical
    /// order — always at least one entry. A plain request is its own
    /// single member ([`RunRequest::dims`]); a grouped request yields
    /// every member with the GEMV `m` axis normalized to 1, exactly as
    /// each member runs, **re-sorted by those effective axes**. The
    /// re-sort matters for GEMV: two spellings of the same effective
    /// member multiset can differ in the execution-ignored raw `m` (and
    /// therefore in `with_group`'s raw canonical order), but everything
    /// keyed off this list — the cache hash, the per-member operand
    /// streams, execution order — must agree they are the same request.
    /// For GEMM the raw canonical order already is the effective order
    /// and the sort is a no-op.
    // audit:allow(hot-path-alloc): the member list is the product, bounded by group size
    pub fn member_dims(&self) -> Vec<GemmDims> {
        if self.group.is_empty() {
            return vec![self.dims()];
        }
        let mut members: Vec<GemmDims> = self
            .group
            .iter()
            .map(|&d| match self.kernel {
                KernelClass::Gemm => d,
                KernelClass::Gemv => GemmDims {
                    n: d.n,
                    m: 1,
                    k: d.k,
                },
            })
            .collect();
        members.sort_by_key(|d| (d.n, d.m, d.k));
        members
    }

    /// The problem dimensions this request executes — the shape key that
    /// runtime estimators, the cache hash, and kernel-shape features work
    /// from. GEMM executes the requested shape as-is; GEMV executes
    /// `n x 1 x k` (one streamed vector, whatever `m` the shape carries),
    /// so a legacy square-`dim` GEMV and an explicit `n x 1 x k` request
    /// with the same `n`/`k` are the same execution. For grouped requests
    /// this is derived from `shape` (the first member in *raw* canonical
    /// order) — consume [`RunRequest::member_dims`] for the full
    /// effective problem list.
    pub fn dims(&self) -> GemmDims {
        match self.kernel {
            KernelClass::Gemm => self.shape,
            KernelClass::Gemv => GemmDims {
                n: self.shape.n,
                m: 1,
                k: self.shape.k,
            },
        }
    }

    /// Override the seed count.
    pub fn with_seeds(mut self, seeds: u64) -> Self {
        assert!(seeds > 0, "at least one seed required");
        self.seeds = seeds;
        self
    }

    /// Override the base seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Use a different pattern for B.
    pub fn with_pattern_b(mut self, pattern: PatternSpec) -> Self {
        self.pattern_b = pattern;
        self
    }

    /// Set the B-transposition switch.
    pub fn with_b_transposed(mut self, transposed: bool) -> Self {
        self.b_transposed = transposed;
        self
    }

    /// Override the sampling lattice.
    pub fn with_sampling(mut self, sampling: Sampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// Fix the per-seed iteration count (paper: 10k, 20k for FP16-T).
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = Some(iterations);
        self
    }
}

/// Mean/std/raw-values triple over seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedStat {
    /// Mean over seeds.
    pub mean: f64,
    /// Sample standard deviation over seeds (the paper's error bars).
    pub std: f64,
    /// The per-seed values.
    pub values: Vec<f64>,
}

impl SeedStat {
    fn from_values(values: Vec<f64>) -> Self {
        let n = values.len().max(1) as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Self {
            mean,
            std: var.sqrt(),
            values,
        }
    }
}

/// The seed-averaged outcome of one experiment point.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Measured power over seeds, watts.
    pub power: SeedStat,
    /// Measured per-iteration energy over seeds, joules.
    pub energy_per_iter: SeedStat,
    /// Measured per-iteration runtime over seeds, seconds.
    pub runtime: SeedStat,
    /// The (deterministic) power breakdown of the first seed. For grouped
    /// requests this is the *group* breakdown: member energies and
    /// runtimes summed, the governor resolved once over the combined
    /// draw ([`wm_power::evaluate_group`]).
    pub breakdown: PowerBreakdown,
    /// Activity merged across seeds (Fig. 8 statistics live here). For
    /// grouped requests: the **first member's** merged activity — the
    /// full per-member picture is in
    /// [`RunResult::member_activities`].
    pub activity: ActivityRecord,
    /// Per-member activity (each merged across seeds), in canonical
    /// member order, for grouped requests. Empty for plain requests —
    /// their single activity is [`RunResult::activity`].
    pub member_activities: Vec<ActivityRecord>,
    /// The raw per-seed telemetry summaries.
    pub measurements: Vec<Measurement>,
    /// Whether any seed throttled.
    pub throttled: bool,
    /// Mean utilization percentage.
    pub utilization_pct: f64,
}

/// The lab: a device, a VM instance, and a measurement configuration.
#[derive(Debug, Clone)]
pub struct PowerLab {
    gpu: GpuSpec,
    vm: VmInstance,
    measurement: MeasurementConfig,
}

impl PowerLab {
    /// A lab on `gpu`, provisioned as VM instance 0 (the paper pins one
    /// instance for all experiments).
    pub fn new(gpu: GpuSpec) -> Self {
        let vm = VmInstance::provision(&gpu, 0);
        Self {
            gpu,
            vm,
            measurement: MeasurementConfig::default(),
        }
    }

    /// Re-provision onto a different VM instance (used by the methodology
    /// experiments to demonstrate process variation).
    pub fn with_vm(mut self, id: u64) -> Self {
        self.vm = VmInstance::provision(&self.gpu, id);
        self
    }

    /// The device this lab drives.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The provisioned VM instance.
    pub fn vm(&self) -> &VmInstance {
        &self.vm
    }

    /// Execute a request: walk every unit of [`unit_layout`] in order —
    /// generate the seed's operands of the member and simulate them — then
    /// evaluate and measure through [`PowerLab::run_from_activities`] (a
    /// grouped request's members run back-to-back as one unit — energies
    /// and runtimes sum, the governor resolves once), and average over
    /// seeds.
    pub fn run(&self, req: &RunRequest) -> RunResult {
        let activities: Vec<ActivityRecord> = unit_layout(req, req.seeds)
            .into_iter()
            .map(|(m, ord, s)| {
                let (a, b) = member_seed_operands(req, m, ord, s);
                simulate_member_activity(req, m, &a, &b)
            })
            .collect();
        self.run_from_activities(req, &member_slices(req, &activities))
    }

    /// Whether the request's explicit `iterations` count runs every seed
    /// past the warm-up trim on this lab's device
    /// ([`MeasurementConfig::outlasts_trim`], which
    /// [`PowerLab::run_from_activities`] asserts). `Err` names the shortest
    /// seed's run, the trim and the fewest iterations that fit every seed.
    /// Auto-sized runs always fit.
    pub fn check_iterations(
        &self,
        req: &RunRequest,
        per_member: &[&[ActivityRecord]],
    ) -> Result<(), String> {
        let Some(iterations) = req.iterations else {
            return Ok(());
        };
        let t_iter_s = (0..req.seeds as usize)
            .map(|s| {
                let activities: Vec<&ActivityRecord> = per_member.iter().map(|m| &m[s]).collect();
                evaluate_group_refs(&self.gpu, &activities).t_iter_s
            })
            .fold(f64::INFINITY, f64::min);
        let cfg = &self.measurement;
        if cfg.outlasts_trim(t_iter_s, iterations) {
            return Ok(());
        }
        Err(format!(
            "{iterations} iterations run {:.3} s on {}, too short for the {} s warm-up trim; \
             use at least {} iterations",
            t_iter_s * iterations as f64,
            self.gpu.name,
            cfg.warmup_trim_s,
            cfg.min_iterations(t_iter_s)
        ))
    }

    /// Assemble a [`RunResult`] from precomputed per-member, per-seed
    /// activity records (`per_member[i][s]`: canonical member `i`, seed
    /// `s`) — the evaluate/measure half of [`PowerLab::run`] with the
    /// O(bytes) simulation half factored out, so members answered from the
    /// member-level memo cache skip straight here. Feeding it the records
    /// [`member_seed_activities`] produces (fresh or cached — they are the
    /// same records) yields a result bit-identical to [`PowerLab::run`]:
    /// the measurement seed is fixed per seed index, independent of which
    /// members were freshly simulated.
    ///
    /// # Panics
    ///
    /// Panics if `per_member` is empty or any member's record count
    /// differs from `req.seeds`.
    pub fn run_from_activities(
        &self,
        req: &RunRequest,
        per_member: &[&[ActivityRecord]],
    ) -> RunResult {
        assert!(!per_member.is_empty(), "at least one member required");
        assert!(
            per_member.iter().all(|m| m.len() == req.seeds as usize),
            "every member needs one activity record per seed"
        );
        let mut powers = Vec::with_capacity(req.seeds as usize);
        let mut energies = Vec::with_capacity(req.seeds as usize);
        let mut runtimes = Vec::with_capacity(req.seeds as usize);
        let mut measurements = Vec::with_capacity(req.seeds as usize);
        let mut merged: Vec<Option<ActivityRecord>> = vec![None; per_member.len()];
        let mut first_breakdown: Option<PowerBreakdown> = None;
        let mut throttled = false;
        let mut util_sum = 0.0;

        for s in 0..req.seeds {
            let activities: Vec<&ActivityRecord> =
                per_member.iter().map(|m| &m[s as usize]).collect();
            let breakdown = evaluate_group_refs(&self.gpu, &activities);
            let iterations = req.iterations.unwrap_or_else(|| {
                // Auto-size: ~1.6 s of simulated run, comfortably beyond
                // the 0.5 s warmup trim.
                ((1.6 / breakdown.t_iter_s).ceil() as u64).max(10)
            });
            let (_, m) = measure(
                &self.gpu,
                &breakdown,
                iterations,
                &self.vm,
                seed_streams(req.base_seed, s).measure_seed,
                &self.measurement,
            );
            powers.push(m.mean_power_w);
            energies.push(m.energy_per_iter_j);
            runtimes.push(m.t_iter_mean_s);
            util_sum += m.utilization_pct;
            throttled |= m.throttled;
            measurements.push(m);
            for (slot, activity) in merged.iter_mut().zip(&activities) {
                *slot = Some(match slot.take() {
                    None => (*activity).clone(),
                    Some(prev) => prev.merge(activity),
                });
            }
            if first_breakdown.is_none() {
                first_breakdown = Some(breakdown);
            }
        }

        let mut member_activities: Vec<ActivityRecord> = merged
            .into_iter()
            .map(|a| a.expect("at least one seed"))
            .collect();
        let activity = member_activities[0].clone();
        if !req.is_grouped() {
            member_activities.clear();
        }
        RunResult {
            power: SeedStat::from_values(powers),
            energy_per_iter: SeedStat::from_values(energies),
            runtime: SeedStat::from_values(runtimes),
            breakdown: first_breakdown.expect("at least one seed"),
            activity,
            member_activities,
            utilization_pct: util_sum / req.seeds as f64,
            measurements,
            throttled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_gpu::spec::a100_pcie;
    use wm_patterns::{PatternKind, PatternSpec};

    /// The seed-0 operand pair of a request's first canonical member.
    fn first_seed_pair(req: &RunRequest) -> (Matrix, Matrix) {
        let (m, ord) = member_ordinals(req)[0];
        first_seed_member_operands(req, m, ord)
    }

    fn quick(dtype: DType, kind: PatternKind) -> RunRequest {
        RunRequest::new(dtype, 256, PatternSpec::new(kind))
            .with_seeds(2)
            .with_sampling(Sampling::Lattice { rows: 8, cols: 8 })
    }

    #[test]
    fn run_produces_consistent_statistics() {
        let lab = PowerLab::new(a100_pcie());
        let r = lab.run(&quick(DType::Fp16Tensor, PatternKind::Gaussian));
        assert_eq!(r.power.values.len(), 2);
        assert_eq!(r.measurements.len(), 2);
        assert!(r.power.mean > lab.gpu().idle_watts);
        assert!(r.power.mean < lab.gpu().tdp_watts);
        assert!(r.runtime.mean > 0.0);
        assert!(
            (r.energy_per_iter.mean - r.power.mean * r.runtime.mean).abs()
                < 0.02 * r.energy_per_iter.mean
        );
    }

    #[test]
    fn first_seed_operands_match_what_the_run_executes() {
        // The shared first-seed helper and `run` must walk the same data:
        // a single-seed run's activity equals the activity simulated over
        // the helper's operands.
        let req = quick(DType::Fp16Tensor, PatternKind::Sparse { sparsity: 0.4 }).with_seeds(1);
        let r = PowerLab::new(a100_pcie()).run(&req);
        let (a, b) = first_seed_pair(&req);
        let act = simulate_member_activity(&req, req.dims(), &a, &b);
        assert_eq!(r.activity, act);
        // Same contract for the GEMV kernel family.
        let req = req.with_kernel(KernelClass::Gemv);
        let r = PowerLab::new(a100_pcie()).run(&req);
        let (a, x) = first_seed_pair(&req);
        assert_eq!(x.cols(), 1, "GEMV streams a vector operand");
        assert_eq!(
            r.activity,
            simulate_member_activity(&req, req.dims(), &a, &x)
        );
    }

    #[test]
    fn gemv_runs_cooler_than_gemm_and_stays_input_dependent() {
        // The memory-bound regime: same dim/dtype/pattern draws less than
        // the compute-bound GEMM, and sparsity still reduces power.
        let lab = PowerLab::new(a100_pcie());
        let gemm = lab.run(&quick(DType::Fp16Tensor, PatternKind::Gaussian));
        let gemv = lab
            .run(&quick(DType::Fp16Tensor, PatternKind::Gaussian).with_kernel(KernelClass::Gemv));
        assert_eq!(gemv.activity.kernel, KernelClass::Gemv);
        assert!(
            gemv.power.mean < gemm.power.mean,
            "GEMV {} W must sit below GEMM {} W",
            gemv.power.mean,
            gemm.power.mean
        );
        let sparse = lab.run(
            &quick(DType::Fp16Tensor, PatternKind::Sparse { sparsity: 0.8 })
                .with_kernel(KernelClass::Gemv),
        );
        assert!(
            sparse.power.mean < gemv.power.mean,
            "sparse GEMV {} W vs dense {} W",
            sparse.power.mean,
            gemv.power.mean
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let lab = PowerLab::new(a100_pcie());
        let req = quick(DType::Int8, PatternKind::Gaussian);
        let a = lab.run(&req);
        let b = lab.run(&req);
        assert_eq!(a.power, b.power);
        assert_eq!(a.activity, b.activity);
    }

    #[test]
    fn different_base_seeds_differ() {
        let lab = PowerLab::new(a100_pcie());
        let a = lab.run(&quick(DType::Fp32, PatternKind::Gaussian));
        let b = lab.run(&quick(DType::Fp32, PatternKind::Gaussian).with_base_seed(77));
        assert_ne!(a.power.mean, b.power.mean);
    }

    #[test]
    fn seed_error_bars_are_small_for_random_inputs() {
        let lab = PowerLab::new(a100_pcie());
        let r = lab.run(
            &RunRequest::new(DType::Fp16, 256, PatternSpec::new(PatternKind::Gaussian))
                .with_seeds(4)
                .with_sampling(Sampling::Lattice { rows: 8, cols: 8 }),
        );
        assert!(
            r.power.std < 0.05 * r.power.mean,
            "std {} vs mean {}",
            r.power.std,
            r.power.mean
        );
    }

    #[test]
    fn vm_choice_shifts_power() {
        let req = quick(DType::Fp16Tensor, PatternKind::Gaussian);
        let lab_a = PowerLab::new(a100_pcie());
        let lab_b = PowerLab::new(a100_pcie()).with_vm(9);
        let offset_delta = lab_a.vm().offset_w - lab_b.vm().offset_w;
        let a = lab_a.run(&req);
        let b = lab_b.run(&req);
        // The measured shift tracks the provisioned offset difference to
        // within sensor-noise averaging error.
        assert!(
            ((a.power.mean - b.power.mean) - offset_delta).abs() < 1.0,
            "measured shift {} vs offset delta {offset_delta}",
            a.power.mean - b.power.mean
        );
    }

    #[test]
    fn zeros_use_less_power_than_gaussian() {
        let lab = PowerLab::new(a100_pcie());
        let z = lab.run(&quick(DType::Fp16Tensor, PatternKind::Zeros));
        let g = lab.run(&quick(DType::Fp16Tensor, PatternKind::Gaussian));
        assert!(z.power.mean < g.power.mean);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_rejected() {
        let _ = quick(DType::Fp32, PatternKind::Gaussian).with_seeds(0);
    }

    #[test]
    #[should_panic(expected = "axis must be positive")]
    fn zero_axis_rejected() {
        let _ = quick(DType::Fp32, PatternKind::Gaussian).with_shape(GemmDims { n: 8, m: 0, k: 8 });
    }

    #[test]
    fn ragged_gemm_generates_matching_operands_and_runs() {
        let shape = GemmDims {
            n: 96,
            m: 32,
            k: 160,
        };
        let req = quick(DType::Fp16Tensor, PatternKind::Gaussian).with_shape(shape);
        assert_eq!(req.dims(), shape);
        let (a, b) = first_seed_pair(&req);
        assert_eq!((a.rows(), a.cols()), (96, 160), "A is n x k");
        assert_eq!(
            (b.rows(), b.cols()),
            (32, 160),
            "stored B is m x k (transposed)"
        );
        let (_, b_plain) = first_seed_pair(&req.clone().with_b_transposed(false));
        assert_eq!(
            (b_plain.rows(), b_plain.cols()),
            (160, 32),
            "plain B is k x m"
        );
        let r = PowerLab::new(a100_pcie()).run(&req);
        assert_eq!(r.activity.dims, shape);
        assert_eq!(r.activity.total_macs, 96 * 32 * 160);
        assert!(r.power.mean > 0.0 && r.runtime.mean > 0.0);
    }

    #[test]
    fn single_member_group_is_the_plain_request() {
        // `with_group` normalizes a 1-member group away entirely: the
        // request is structurally the plain request, so it hashes, runs,
        // and caches identically by construction.
        let plain = quick(DType::Fp16Tensor, PatternKind::Gaussian);
        let grouped = plain.clone().with_group(vec![GemmDims::square(256)]);
        assert_eq!(plain, grouped);
        assert!(!grouped.is_grouped());
        assert_eq!(grouped.member_dims(), vec![GemmDims::square(256)]);
    }

    #[test]
    fn group_members_are_order_canonical() {
        let members = vec![
            GemmDims {
                n: 64,
                m: 32,
                k: 128,
            },
            GemmDims::square(32),
            GemmDims {
                n: 64,
                m: 16,
                k: 64,
            },
        ];
        let a = quick(DType::Fp16Tensor, PatternKind::Gaussian).with_group(members.clone());
        let mut permuted = members.clone();
        permuted.reverse();
        let b = quick(DType::Fp16Tensor, PatternKind::Gaussian).with_group(permuted);
        assert_eq!(a, b, "permuted groups are the same request");
        assert!(a.is_grouped());
        assert_eq!(a.member_dims().len(), 3);
        // Canonical order is sorted by (n, m, k).
        let dims = a.member_dims();
        assert!(dims
            .windows(2)
            .all(|w| (w[0].n, w[0].m, w[0].k) <= (w[1].n, w[1].m, w[1].k)));
    }

    #[test]
    fn grouped_run_sums_members_and_reports_each() {
        let members = vec![
            GemmDims {
                n: 96,
                m: 32,
                k: 160,
            },
            GemmDims::square(64),
            GemmDims {
                n: 32,
                m: 64,
                k: 96,
            },
        ];
        let req = quick(DType::Fp16Tensor, PatternKind::Gaussian)
            .with_seeds(1)
            .with_group(members.clone());
        let lab = PowerLab::new(a100_pcie());
        let r = lab.run(&req);
        assert_eq!(r.member_activities.len(), 3);
        let total_macs: u64 = members.iter().map(|d| d.macs()).sum();
        assert_eq!(
            r.member_activities
                .iter()
                .map(|a| a.total_macs)
                .sum::<u64>(),
            total_macs,
            "every member executes its own problem"
        );
        assert_eq!(r.activity, r.member_activities[0]);
        // The group runs longer than any member alone and draws a power
        // between the coolest and hottest member (time-weighted mean).
        let singles: Vec<RunResult> = members
            .iter()
            .map(|&m| lab.run(&req.clone().with_group(vec![m])))
            .collect();
        assert!(singles.iter().all(|s| s.member_activities.is_empty()));
        let t_sum: f64 = singles.iter().map(|s| s.breakdown.t_iter_s).sum();
        assert!(
            (r.breakdown.t_iter_s - t_sum).abs() < 1e-9,
            "group time {} vs summed member time {t_sum}",
            r.breakdown.t_iter_s
        );
        let min_w = singles
            .iter()
            .map(|s| s.breakdown.total_w)
            .fold(f64::INFINITY, f64::min);
        let max_w = singles
            .iter()
            .map(|s| s.breakdown.total_w)
            .fold(0.0, f64::max);
        assert!(
            r.breakdown.total_w >= min_w && r.breakdown.total_w <= max_w,
            "group {} W outside member band [{min_w}, {max_w}]",
            r.breakdown.total_w
        );
        // Deterministic like everything else.
        let again = lab.run(&req);
        assert_eq!(r.power, again.power);
        assert_eq!(r.member_activities, again.member_activities);
    }

    #[test]
    fn group_members_draw_decorrelated_streams() {
        // Two members of identical shape must still get their own data:
        // member index feeds the fork tags.
        let req = quick(DType::Fp16Tensor, PatternKind::Gaussian)
            .with_group(vec![GemmDims::square(64), GemmDims::square(64)]);
        let all: Vec<(Matrix, Matrix)> = member_ordinals(&req)
            .into_iter()
            .map(|(m, ord)| first_seed_member_operands(&req, m, ord))
            .collect();
        assert_eq!(all.len(), 2);
        let plain = req.clone().with_group(vec![GemmDims::square(64)]);
        assert_eq!(
            all[0],
            first_seed_pair(&plain),
            "member 0 draws the plain pair"
        );
        assert_ne!(all[0].0, all[1].0, "twin members must not share A");
        assert_ne!(all[0].1, all[1].1, "twin members must not share B");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_group_rejected() {
        let _ = quick(DType::Fp32, PatternKind::Gaussian).with_group(Vec::new());
    }

    #[test]
    fn gemv_is_a_true_n_by_one_by_k_stream() {
        // Decode shape: tall-thin weights, one streamed vector. The `m`
        // axis of the requested shape is irrelevant to GEMV execution.
        let req = quick(DType::Fp16Tensor, PatternKind::Gaussian)
            .with_kernel(KernelClass::Gemv)
            .with_shape(GemmDims {
                n: 64,
                m: 1,
                k: 256,
            });
        assert_eq!(
            req.dims(),
            GemmDims {
                n: 64,
                m: 1,
                k: 256
            }
        );
        let (a, x) = first_seed_pair(&req);
        assert_eq!((a.rows(), a.cols()), (64, 256), "weights are n x k");
        assert_eq!((x.rows(), x.cols()), (256, 1), "x is a k-vector");
        let r = PowerLab::new(a100_pcie()).run(&req);
        assert_eq!(
            r.activity.dims,
            GemmDims {
                n: 64,
                m: 1,
                k: 256
            }
        );
        // A legacy square-dim GEMV request equals the explicit n x 1 x k
        // spelling of the same execution.
        let legacy = quick(DType::Fp16Tensor, PatternKind::Gaussian)
            .with_kernel(KernelClass::Gemv)
            .with_shape(GemmDims::square(128));
        let explicit = legacy.clone().with_shape(GemmDims {
            n: 128,
            m: 1,
            k: 128,
        });
        assert_eq!(legacy.dims(), explicit.dims());
        assert_eq!(first_seed_pair(&legacy), first_seed_pair(&explicit));
    }

    #[test]
    fn member_ordinals_count_equal_dims_in_canonical_order() {
        let req = quick(DType::Fp16Tensor, PatternKind::Gaussian).with_group(vec![
            GemmDims::square(64),
            GemmDims::square(32),
            GemmDims::square(64),
            GemmDims::square(64),
        ]);
        let ords = member_ordinals(&req);
        // Canonical order sorts the twins adjacent; ordinals restart at 0
        // for each distinct shape.
        assert_eq!(
            ords,
            vec![
                (GemmDims::square(32), 0),
                (GemmDims::square(64), 0),
                (GemmDims::square(64), 1),
                (GemmDims::square(64), 2),
            ]
        );
        // A plain request is a 1-member walk at ordinal 0.
        let plain = quick(DType::Fp16Tensor, PatternKind::Gaussian);
        assert_eq!(member_ordinals(&plain), vec![(plain.dims(), 0)]);
    }

    #[test]
    fn ordinal_zero_member_equals_the_plain_request() {
        // Cache-reuse soundness: the first occurrence of a shape inside a
        // group draws exactly the operands (and therefore simulates exactly
        // the activity) of the plain single request of that shape. This is
        // what lets a single-request memo entry answer a group member.
        let members = vec![
            GemmDims {
                n: 96,
                m: 32,
                k: 160,
            },
            GemmDims::square(64),
        ];
        let grouped = quick(DType::Fp16Tensor, PatternKind::Gaussian)
            .with_seeds(2)
            .with_group(members.clone());
        for &m in &members {
            let plain = grouped.clone().with_group(vec![m]);
            assert!(!plain.is_grouped());
            assert_eq!(
                first_seed_member_operands(&grouped, m, 0),
                first_seed_pair(&plain),
                "group member {m:?} at ordinal 0 must draw the plain request's operands"
            );
            assert_eq!(
                member_seed_activities(&grouped, m, 0),
                member_seed_activities(&plain, m, 0),
                "activity records are request-shape independent for {m:?}"
            );
        }
    }

    #[test]
    fn member_seed_activities_are_what_run_executes() {
        // The per-member unit of caching: walking `member_ordinals` through
        // `member_seed_activities` reproduces the per-member activities a
        // grouped run merges and reports.
        let req = quick(DType::Fp16Tensor, PatternKind::Gaussian)
            .with_seeds(1)
            .with_group(vec![
                GemmDims::square(64),
                GemmDims {
                    n: 32,
                    m: 64,
                    k: 96,
                },
            ]);
        let r = PowerLab::new(a100_pcie()).run(&req);
        let walked: Vec<ActivityRecord> = member_ordinals(&req)
            .into_iter()
            .map(|(m, ord)| member_seed_activities(&req, m, ord).remove(0))
            .collect();
        assert_eq!(r.member_activities, walked);
    }

    #[test]
    fn unit_layout_is_member_major_and_member_slices_cut_it_back() {
        let req = quick(DType::Int8, PatternKind::Gaussian)
            .with_seeds(2)
            .with_group(vec![
                GemmDims::square(64),
                GemmDims::square(32),
                GemmDims::square(64),
            ]);
        let (small, big) = (GemmDims::square(32), GemmDims::square(64));
        let layout = unit_layout(&req, req.seeds);
        assert_eq!(
            layout,
            vec![
                (small, 0, 0),
                (small, 0, 1),
                (big, 0, 0),
                (big, 0, 1),
                (big, 1, 0),
                (big, 1, 1),
            ]
        );
        let slices = member_slices(&req, &layout);
        assert_eq!(slices.len(), 3);
        for (slice, member) in slices.iter().zip(member_ordinals(&req)) {
            assert!(slice.iter().all(|&(m, ord, _)| (m, ord) == member));
        }
        assert_eq!(
            unit_layout(&req, 1),
            vec![(small, 0, 0), (big, 0, 0), (big, 1, 0)]
        );
    }

    #[test]
    #[should_panic(expected = "one record per member and seed")]
    fn member_slices_rejects_an_uneven_split() {
        let req = quick(DType::Int8, PatternKind::Gaussian)
            .with_seeds(2)
            .with_group(vec![GemmDims::square(32), GemmDims::square(64)]);
        let layout = unit_layout(&req, req.seeds);
        let _ = member_slices(&req, &layout[1..]);
    }

    #[test]
    fn run_from_activities_is_bit_identical_to_run() {
        let lab = PowerLab::new(a100_pcie());
        for req in [
            quick(DType::Fp16Tensor, PatternKind::Gaussian),
            quick(DType::Int8, PatternKind::Sparse { sparsity: 0.5 }).with_group(vec![
                GemmDims::square(64),
                GemmDims::square(64),
                GemmDims {
                    n: 96,
                    m: 32,
                    k: 160,
                },
            ]),
        ] {
            let cold = lab.run(&req);
            let per_member: Vec<Vec<ActivityRecord>> = member_ordinals(&req)
                .into_iter()
                .map(|(m, ord)| member_seed_activities(&req, m, ord))
                .collect();
            let refs: Vec<&[ActivityRecord]> = per_member.iter().map(Vec::as_slice).collect();
            let replayed = lab.run_from_activities(&req, &refs);
            assert_eq!(
                cold, replayed,
                "replay from cached activities must be bit-identical"
            );
        }
    }

    #[test]
    fn member_seed_operands_ignore_the_seed_count() {
        // A seed's operands are fixed by its index alone, so requests that
        // average different seed counts draw the same data for every seed
        // they share — what lets them share cached (member, seed) units.
        let two = quick(DType::Int8, PatternKind::Gaussian)
            .with_group(vec![GemmDims::square(64), GemmDims::square(64)]);
        let five = two.clone().with_seeds(5);
        for (m, ord) in member_ordinals(&two) {
            assert_eq!(
                member_seed_operands(&two, m, ord, 0),
                first_seed_member_operands(&two, m, ord)
            );
            let activities = member_seed_activities(&five, m, ord);
            for s in 0..two.seeds {
                let (a, b) = member_seed_operands(&two, m, ord, s);
                assert_eq!(
                    (a.clone(), b.clone()),
                    member_seed_operands(&five, m, ord, s)
                );
                assert_eq!(
                    simulate_member_activity(&five, m, &a, &b),
                    activities[s as usize]
                );
            }
        }
        let m = GemmDims::square(64);
        assert_ne!(
            member_seed_operands(&two, m, 0, 0),
            member_seed_operands(&two, m, 0, 1),
            "seeds draw decorrelated operands"
        );
    }

    #[test]
    #[should_panic(expected = "one activity record per seed")]
    fn run_from_activities_rejects_seed_mismatch() {
        let req = quick(DType::Fp32, PatternKind::Gaussian).with_seeds(2);
        let one_seed = member_seed_activities(&req.clone().with_seeds(1), req.dims(), 0);
        let refs: Vec<&[ActivityRecord]> = vec![&one_seed];
        let _ = PowerLab::new(a100_pcie()).run_from_activities(&req, &refs);
    }
}
