//! The work-stealing fleet scheduler.
//!
//! Jobs ([`FleetJob`]) arrive through `submit`, which answers a cached
//! repeat itself; the rest land on per-worker deques, and idle workers
//! steal from the back of their peers' deques. Each job flows through:
//!
//! 1. **Placement** — auto jobs read their seed-0 units (below) for
//!    features and the analytic probe, and ask [`crate::placement`] for
//!    the device + clock that fits under the fleet power budget; pinned
//!    jobs skip straight to their device.
//! 2. **Memo cache** — before step 1, `submit` hashes the job's
//!    [`answer_key`] (its request and pin, naming no device) once and
//!    reads the sharded [`MemoCache`]. A ready answer — the device that
//!    ran it and the shared result — is served right there, on the
//!    calling thread. Only a miss or a twin still in flight goes to the
//!    workers, which look the key up once more: a twin is joined before
//!    anything is placed or any budget reserved, and only a miss places
//!    the job, reserves its planned draw and assembles a run from its
//!    units. A job that fails or panics publishes no answer.
//! 3. **Reply** — the response (shared `Arc<RunResult>`, chosen device,
//!    clock, cache-hit flag) is in the job's handle when `submit` returns
//!    for a hit, and comes back over a reply channel from the worker
//!    otherwise.
//!
//! The scheduler counts submitted/completed jobs, cache hits/misses/joins
//! and steals straight into its metrics registry, their only book, and
//! keeps per-device utilization and joules — read by [`Scheduler::stats`]
//! and [`Scheduler::device_stats`].
//!
//! ## One operand walk per (member, seed)
//!
//! The [`MemoCache`] unit store holds one [`Unit`] per canonical member
//! and seed index: the seed's activity and, on seed 0, the member's
//! feature chunk, from one walk over operands generated once
//! ([`wm_predict::walk_unit`]). Features (merged once per job), the
//! analytic probe (the seed-0 activities) and execution (every seed's
//! activities) are views over it. Each unit
//! records the request that computed it: a member is `cached` only when a
//! different request paid for it.
//!
//! ## The prediction loop
//!
//! The scheduler closes the `wm-predict` learning loop: every fresh
//! (cache-miss) run feeds `(input features, measured watts)` back into
//! the shared [`PowerPredictor`] under the run's `(architecture, kernel)`
//! key, and placement consults the learned models *before* the analytic
//! model — once every device's model *for the requesting kernel* is
//! trained and healthy, admission control and clock selection run from
//! cheap input statistics alone. An untrained or drift-degraded model
//! falls back to the analytic probe path, so prediction only ever
//! short-cuts work, never gates it — and GEMV traffic on a fleet that
//! has only learned GEMM is priced analytically, never from the wrong
//! regime's coefficients.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use wm_core::{member_slices, unit_layout, PowerLab, RunRequest, RunResult};
use wm_gpu::GemmDims;
use wm_kernels::{ActivityRecord, KernelClass};
use wm_obs::{stage, Counter, Gauge, Histogram, Registry, Tracer};
use wm_optimizer::DvfsPlan;
use wm_power::{evaluate_group, group_runtime, predicted_breakdown, PowerBreakdown};
use wm_predict::{
    features_from_member_chunks, walk_unit, FeatureAccumulator, FeatureVector, ModelStats,
    PowerPredictor, PredictorState,
};

/// Default span capacity of a scheduler's trace ring
/// ([`Scheduler::with_observability`] overrides it).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Lock a mutex, recovering from poisoning instead of propagating it.
///
/// A poisoned lock means some job panicked while holding it; the worker
/// already contained that panic and answered the job with an error, so
/// the data behind the lock is a monotone accumulator mid-update at
/// worst — strictly better served slightly stale than by wedging every
/// subsequent request with a `stats poisoned` panic.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

use crate::cache::{Answer, MemoCache, Unit};
use crate::device::{Fleet, FleetDevice};
use crate::hash::{answer_key, request_key, unit_key};
use crate::placement::{place, place_learned, Placement, PlacementError, PredictionSource};
use crate::protocol::KNOWN_OPS;

/// One unit of work for the fleet.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// The power query to answer.
    pub request: RunRequest,
    /// Pin to a specific device id instead of auto placement.
    pub pin: Option<usize>,
    /// Optional per-iteration runtime deadline for the DVFS planner,
    /// seconds. Ignored for pinned jobs (they run at boost, as the paper's
    /// single-device methodology does).
    pub deadline_s: Option<f64>,
    /// Trace/request id. `None` lets [`Scheduler::submit`] assign the
    /// next monotonic id; callers that already assigned one (the `wattd`
    /// protocol stamps ids at parse time so responses echo them) set it
    /// via [`FleetJob::with_request_id`] and the scheduler keeps it.
    pub request_id: Option<u64>,
}

impl FleetJob {
    /// An auto-placed job with no deadline.
    pub fn new(request: RunRequest) -> Self {
        Self {
            request,
            pin: None,
            deadline_s: None,
            request_id: None,
        }
    }

    /// Pin the job to a device id.
    pub fn pinned(request: RunRequest, device: usize) -> Self {
        Self {
            request,
            pin: Some(device),
            deadline_s: None,
            request_id: None,
        }
    }

    /// Constrain the DVFS planner with a per-iteration deadline.
    pub fn with_deadline_s(mut self, deadline_s: f64) -> Self {
        assert!(deadline_s > 0.0, "deadline must be positive");
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Carry a caller-assigned request id into the trace trail.
    pub fn with_request_id(mut self, request_id: u64) -> Self {
        self.request_id = Some(request_id);
        self
    }
}

/// A completed job.
#[derive(Debug, Clone)]
pub struct FleetResponse {
    /// The id the job ran under — what a `trace` query filters on.
    pub request_id: u64,
    /// Device the job ran on.
    pub device: usize,
    /// Marketing name of that device.
    pub gpu_name: &'static str,
    /// Clock scale the job was planned at (1.0 for pinned/boost runs).
    pub clock_scale: f64,
    /// The DVFS plan, for auto-placed jobs on unthrottled baselines.
    pub plan: Option<DvfsPlan>,
    /// Pre-execution power estimate for auto-placed jobs, watts (at the
    /// governor-resolved clock, comparable to `measured_w`). `None` for
    /// pinned jobs, which skip placement.
    pub predicted_w: Option<f64>,
    /// Which pricing path produced `predicted_w`.
    pub prediction: Option<PredictionSource>,
    /// Measured mean board power of the run, watts (same quantity as
    /// `result.power.mean`, surfaced for predicted-vs-measured pairing).
    pub measured_w: f64,
    /// Whether the result came from the memo cache (or an in-flight join).
    pub cache_hit: bool,
    /// Per-member cache provenance of a grouped request, in canonical
    /// [`RunRequest::member_dims`] order: `true` for members whose every
    /// unit a *different* request computed (a single of the same shape,
    /// another group, an earlier `predict`), `false` for residue members
    /// this request walked — in its own features stage or in execution.
    /// Empty for plain requests; all-`true` when the whole result replayed
    /// from the memo cache.
    pub member_cached: Vec<bool>,
    /// The job's DVFS deadline, echoed back so callers can audit what the
    /// planner was (or was not) constrained by. `None` when unset.
    pub deadline_s: Option<f64>,
    /// The measurement. Shared: identical queries return the *same*
    /// allocation, so equality is bit-exact by construction.
    pub result: Arc<RunResult>,
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Pinned to a device index the fleet does not have.
    UnknownDevice(usize),
    /// No device cap can admit the job, even on an idle fleet.
    Infeasible(String),
    /// The job panicked inside the pipeline; the worker survived and the
    /// panic message is preserved here.
    Internal(String),
    /// The scheduler shut down before the job completed.
    Shutdown,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownDevice(d) => write!(f, "unknown device id {d}"),
            FleetError::Infeasible(msg) => write!(f, "infeasible job: {msg}"),
            FleetError::Internal(msg) => write!(f, "internal error: {msg}"),
            FleetError::Shutdown => write!(f, "scheduler shut down"),
        }
    }
}

/// Snapshot of scheduler counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs accepted via `submit`/`run_batch`.
    pub submitted: u64,
    /// Jobs answered (success or failure).
    pub completed: u64,
    /// Jobs answered with an error.
    pub failed: u64,
    /// Queries served from the memo cache (incl. in-flight joins).
    pub cache_hits: u64,
    /// Queries that ran the full simulation pipeline.
    pub cache_misses: u64,
    /// Cache hits that waited on an identical in-flight computation.
    pub dedup_joins: u64,
    /// Canonical members of fresh runs whose every unit another request
    /// computed.
    pub member_cache_hits: u64,
    /// Canonical members of fresh runs that walked a unit (residue jobs).
    pub member_residue_jobs: u64,
    /// Tasks a worker stole from a peer's deque.
    pub steals: u64,
    /// Batches that went through the FFD power packer (`run_batch`).
    pub packed_batches: u64,
    /// Concurrency rounds emitted by the packer, summed over batches.
    pub pack_rounds: u64,
    /// Rounds the most recent packed batch needed (0 before any batch).
    pub last_batch_rounds: u64,
}

/// Per-device execution counters (fresh computes only; cache hits run
/// nothing and therefore draw nothing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceStats {
    /// Device index in the fleet.
    pub device: usize,
    /// Marketing name of the device.
    pub gpu_name: &'static str,
    /// Fresh (cache-miss) runs executed on this device.
    pub jobs: u64,
    /// Total simulated busy time across those runs, seconds.
    pub sim_time_s: f64,
    /// Total simulated energy across those runs, joules.
    pub energy_j: f64,
    /// Mean GPU utilization (duty-cycle percentage) over those runs;
    /// 0 when the device has run nothing.
    pub utilization_pct: f64,
}

/// A pre-execution power prediction for one job (the `predict` protocol
/// op): what the fleet *would* do, with nothing executed or cached.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictOutcome {
    /// Device the job would run on.
    pub device: usize,
    /// Marketing name of that device.
    pub gpu_name: &'static str,
    /// The kernel class whose keyed model was consulted (the request's
    /// kernel — also the model key a `"learned"` answer came from).
    pub kernel: KernelClass,
    /// The effective problem shape the job would execute
    /// ([`RunRequest::dims`]: GEMV reports `m = 1`). For grouped requests
    /// this is the first canonical member; [`PredictOutcome::group`]
    /// carries the full list.
    pub dims: wm_gpu::GemmDims,
    /// Effective member shapes of a grouped request, in canonical order;
    /// empty for plain requests.
    pub group: Vec<GemmDims>,
    /// Predicted board power at the governor-resolved clock, watts.
    pub predicted_w: f64,
    /// Which pricing path produced the number.
    pub source: PredictionSource,
    /// Training observations behind that device's learned model for this
    /// kernel class (0 when untrained).
    pub model_observations: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct DeviceAccum {
    jobs: u64,
    sim_time_s: f64,
    energy_j: f64,
    util_pct_sum: f64,
}

type Reply = mpsc::Sender<Result<FleetResponse, FleetError>>;

struct Task {
    job: FleetJob,
    /// The job's [`answer_key`], hashed once in `submit`.
    key: u64,
    reply: Reply,
    /// Tracer-clock submission stamp; completion minus this is the
    /// end-to-end job latency (queue wait included) the latency
    /// histograms record.
    enqueued_us: u64,
}

struct Inner {
    fleet: Fleet,
    /// One answer per request and pin, plus the `(member, seed)` unit
    /// store that features, the analytic probe and execution all read.
    cache: MemoCache,
    /// The shared online power predictor, trained from completed runs.
    predictor: Mutex<PowerPredictor>,
    /// Per-device execution accumulators (fresh computes only).
    device_accum: Mutex<Vec<DeviceAccum>>,
    /// Per-worker deques; owner pops front, thieves pop back.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Round-robin cursor for submissions.
    next_queue: AtomicUsize,
    /// Sleep/wake for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    /// Power committed to currently running jobs, per device.
    load_w: Mutex<Vec<f64>>,
    /// Highest total committed draw ever observed, as f64 bits (committed
    /// loads are non-negative, so the bit patterns order like the values).
    peak_load_w: AtomicU64,
    /// Signalled whenever committed load drops.
    load_freed: Condvar,
    stop: AtomicBool,
    // Counts: handles into `registry`, their only book, resolved once so
    // the job path never looks a metric up.
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    steals: Counter,
    packed_batches: Counter,
    pack_rounds: Counter,
    last_batch_rounds: Gauge,
    member_hits: Counter,
    member_residues: Counter,
    /// Pricing passes that fell back to the analytic probe.
    analytic_pricings: Counter,
    /// The metrics registry this scheduler records into (shared with the
    /// protocol layer, which exports it).
    registry: Arc<Registry>,
    /// The request-id allocator and span ring.
    tracer: Arc<Tracer>,
    /// Pre-resolved latency histogram handles, one per kernel class —
    /// the hot path must not pay a registry lookup per job.
    latency_gemm: Histogram,
    latency_gemv: Histogram,
    /// The protocol's `wattd_request_latency_us{op=…}` handles: one per
    /// [`KNOWN_OPS`] entry, then `other`, each registered at its op's
    /// first answered line.
    request_latency: [OnceLock<Histogram>; KNOWN_OPS.len() + 1],
}

/// Handle to one submitted job; `recv` returns the answer, blocking until
/// a worker sends it unless `submit` answered the job already.
pub struct JobHandle(Delivery);

enum Delivery {
    /// Answered on the submitting thread: a cached repeat.
    Ready(Result<FleetResponse, FleetError>),
    /// Queued for a worker, which answers over this channel.
    Queued(mpsc::Receiver<Result<FleetResponse, FleetError>>),
}

impl JobHandle {
    /// Wait for the job's answer.
    pub fn recv(self) -> Result<FleetResponse, FleetError> {
        match self.0 {
            Delivery::Ready(outcome) => outcome,
            Delivery::Queued(rx) => rx.recv().unwrap_or(Err(FleetError::Shutdown)),
        }
    }
}

/// The fleet scheduler. Dropping it stops and joins the workers.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// A scheduler over `fleet` with [`Scheduler::default_workers`]
    /// workers.
    pub fn new(fleet: Fleet) -> Self {
        let n = Self::default_workers(&fleet);
        Self::with_workers(fleet, n)
    }

    /// The default worker count for `fleet`: one per available core,
    /// clamped to the job-level parallelism the fleet can express.
    pub fn default_workers(fleet: &Fleet) -> usize {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        cores.min(fleet.len().max(2)).max(1)
    }

    /// A scheduler with an explicit worker count and a fresh registry and
    /// trace ring of the default capacity.
    pub fn with_workers(fleet: Fleet, workers: usize) -> Self {
        Self::with_observability(
            fleet,
            workers,
            Arc::new(Registry::new()),
            Arc::new(Tracer::new(DEFAULT_TRACE_CAPACITY)),
        )
    }

    /// A scheduler recording into caller-supplied observability: `registry`
    /// holds the counts of the scheduler and its memo cache and the latency
    /// histograms, all updated where each event happens, plus the readings
    /// [`Scheduler::sync_metrics`] refreshes; `tracer` allocates request
    /// ids and buffers lifecycle spans. The common case is one pair per
    /// daemon.
    ///
    /// Schedulers sharing one registry add up their counts and histograms,
    /// and each one's [`Scheduler::stats`] and
    /// [`Scheduler::probed_requests`] report the shared totals. The
    /// readings do not add up: the last scheduler to export wins.
    pub fn with_observability(
        fleet: Fleet,
        workers: usize,
        registry: Arc<Registry>,
        tracer: Arc<Tracer>,
    ) -> Self {
        let workers = workers.max(1);
        let n_devices = fleet.len();
        let latency_gemm = registry.histogram("fleet_job_latency_us", &[("kernel", "gemm")]);
        let latency_gemv = registry.histogram("fleet_job_latency_us", &[("kernel", "gemv")]);
        let inner = Arc::new(Inner {
            fleet,
            cache: MemoCache::new(16, &registry),
            predictor: Mutex::new(PowerPredictor::new()),
            device_accum: Mutex::new(vec![DeviceAccum::default(); n_devices]),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            next_queue: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            load_w: Mutex::new(vec![0.0; n_devices]),
            peak_load_w: AtomicU64::new(0),
            load_freed: Condvar::new(),
            stop: AtomicBool::new(false),
            submitted: registry.counter("fleet_jobs_submitted_total", &[]),
            completed: registry.counter("fleet_jobs_completed_total", &[]),
            failed: registry.counter("fleet_jobs_failed_total", &[]),
            steals: registry.counter("fleet_steals_total", &[]),
            packed_batches: registry.counter("fleet_packed_batches_total", &[]),
            pack_rounds: registry.counter("fleet_pack_rounds_total", &[]),
            last_batch_rounds: registry.gauge("fleet_last_batch_rounds", &[]),
            member_hits: registry.counter("fleet_member_cache_hits_total", &[]),
            member_residues: registry.counter("fleet_member_residue_jobs_total", &[]),
            analytic_pricings: registry.counter("fleet_probed_requests", &[]),
            registry,
            tracer,
            latency_gemm,
            latency_gemv,
            request_latency: Default::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("wm-fleet-worker-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    // audit:allow(panic-paths): construction-time spawn failure, before any request is accepted
                    .expect("spawn fleet worker")
            })
            .collect();
        Self {
            inner,
            workers: handles,
        }
    }

    /// The fleet this scheduler drives.
    pub fn fleet(&self) -> &Fleet {
        &self.inner.fleet
    }

    /// The metrics registry this scheduler records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// The tracer allocating this scheduler's request ids and spans.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.inner.tracer
    }

    /// The `wattd_request_latency_us` histogram of protocol op `op`; an
    /// op outside [`KNOWN_OPS`] shares the `other` label. The handle is
    /// registered at the op's first line and resolved once.
    pub(crate) fn request_latency(&self, op: &str) -> &Histogram {
        let slot = KNOWN_OPS.iter().position(|known| *known == op);
        let label = slot.map_or("other", |i| KNOWN_OPS[i]);
        self.inner.request_latency[slot.unwrap_or(KNOWN_OPS.len())].get_or_init(|| {
            self.inner
                .registry
                .histogram("wattd_request_latency_us", &[("op", label)])
        })
    }

    /// Submit one job; returns a handle to await the answer. Jobs without
    /// a caller-assigned request id get the next monotonic one here.
    ///
    /// A job whose answer is ready in the memo cache is answered here, on
    /// the calling thread, with the worker's panic containment and
    /// accounting: its handle holds the response when `submit` returns.
    /// Only a miss, or a twin of a job still in flight, goes to the
    /// worker deques.
    pub fn submit(&self, job: FleetJob) -> JobHandle {
        let key = answer_key(&job.request, job.pin);
        self.submit_keyed(job, key)
    }

    /// [`Scheduler::submit`] for a job whose [`answer_key`] is `key`.
    fn submit_keyed(&self, mut job: FleetJob, key: u64) -> JobHandle {
        let inner = &*self.inner;
        job.request_id
            .get_or_insert_with(|| inner.tracer.next_request_id());
        inner.submitted.inc();
        let enqueued_us = inner.tracer.now_us();
        if let Some(outcome) = contained(|| replay(inner, &job, key)).transpose() {
            account(inner, job.request.kernel, enqueued_us, &outcome);
            return JobHandle(Delivery::Ready(outcome));
        }
        let (tx, rx) = mpsc::channel();
        let slot = inner.next_queue.fetch_add(1, Ordering::Relaxed) % inner.queues.len();
        lock_clean(&inner.queues[slot]).push_back(Task {
            job,
            key,
            reply: tx,
            enqueued_us,
        });
        inner.wake.notify_all();
        JobHandle(Delivery::Queued(rx))
    }

    /// Submit a batch and wait for all answers, preserving input order.
    /// Duplicate queries inside the batch are deduplicated by the memo
    /// cache (at most one simulation per distinct query).
    ///
    /// Execution order is **power-packed**, not FIFO: every auto-placed
    /// job is priced up front exactly as placement will price it (learned
    /// models when trained and healthy, the analytic probe otherwise;
    /// pricing walks each job's seed-0 units into the unit store, so
    /// execution never walks them again), and the
    /// priced jobs are first-fit-decreasing packed into concurrency
    /// rounds against the fleet power budget ([`pack_ffd`]). Each round
    /// fills the budget with the heaviest jobs that fit together — one
    /// job per device, total planned draw under the budget — instead of
    /// trickling jobs through in submission order and stranding budget
    /// headroom behind a heavy head-of-line job. Cached repeats, pinned
    /// jobs (which bypass budget accounting, as the paper's
    /// dedicated-device methodology does), and jobs no placement admits
    /// skip the packer entirely: they hold no budget, so there is nothing
    /// to pack. The first two are sifted out before pricing, so a batch of
    /// cached repeats prices nothing, spawns no thread, and is answered on
    /// the calling thread.
    ///
    /// The budget itself is still enforced at execution time by the slot
    /// reservation ([`Scheduler::peak_committed_w`] witnesses compliance);
    /// packing only chooses *which* jobs run together, so answers remain
    /// independent of timing.
    ///
    /// The packing step is recorded as a [`stage::PACK`] span under
    /// request id 0, and feeds the packing counters surfaced by
    /// [`Scheduler::stats`].
    pub fn run_batch(&self, jobs: Vec<FleetJob>) -> Vec<Result<FleetResponse, FleetError>> {
        let mut results: Vec<Option<Result<FleetResponse, FleetError>>> =
            (0..jobs.len()).map(|_| None).collect();
        self.run_batch_rounds(jobs, 0, |round| {
            for (i, outcome) in round.results {
                results[i] = Some(outcome);
            }
        });
        results
            .into_iter()
            .map(|r| {
                // Every index is written by exactly one round; a hole is a
                // packer bug, surfaced as an error instead of a panic.
                r.unwrap_or_else(|| {
                    Err(FleetError::Internal(
                        "batch job was never answered by any round".to_string(),
                    ))
                })
            })
            .collect()
    }

    /// The streaming core of [`Scheduler::run_batch`]: identical pricing,
    /// packing, and execution, with the packing span recorded under
    /// `parent_rid` (the protocol request that carried the batch), but
    /// each completed slice of the batch is handed to `on_round` the
    /// moment its barrier clears instead of accumulating into one vector.
    /// Packed rounds arrive first as rounds `1..=rounds` in execution
    /// order; the **bypass set** (cache replays, pinned jobs, and jobs
    /// placement rejects — nothing the packer touches) always arrives last
    /// as round `0`, even when empty, so a consumer can treat the round-0
    /// callback as the end-of-batch marker. The protocol builds both of a
    /// batch's framings, the blob and one line per round, from these
    /// callbacks.
    pub fn run_batch_rounds(
        &self,
        mut jobs: Vec<FleetJob>,
        parent_rid: u64,
        mut on_round: impl FnMut(BatchRound),
    ) {
        let inner = &*self.inner;
        // Ids first: the seed-0 units pricing walks must record the job
        // that will execute them, or its own walk reads as another's.
        for job in &mut jobs {
            job.request_id
                .get_or_insert_with(|| inner.tracer.next_request_id());
        }
        let keys: Vec<u64> = jobs
            .iter()
            .map(|job| answer_key(&job.request, job.pin))
            .collect();
        let pack_span = inner.tracer.start(parent_rid, stage::PACK);
        // Sift first: a repeat whose answer is cached replays without
        // running (no draw, nothing to pack), and a pinned job bypasses
        // budget accounting. This stays a whole-answer check deliberately
        // — a group whose members are all covered by the *unit* store
        // still evaluates and measures as a fresh run (committing its
        // planned draw and training the predictor), so it must be packed.
        let (to_price, mut bypass): (Vec<usize>, Vec<usize>) =
            (0..jobs.len()).partition(|&i| jobs[i].pin.is_none() && !inner.cache.contains(keys[i]));
        // Price the rest in parallel (order-preserving fan-out; each job's
        // seed-0 units land in the unit store, so the workers executing
        // the rounds walk no operand twice). `None` marks a job placement
        // rejects, which the packer must not touch.
        let pricing = crate::par::parallel_map(to_price, |i| {
            let job = &jobs[i];
            // Price as placement will. A pricing panic (malformed
            // library-level request) is not answered here: the worker
            // owns panic containment, so the job goes through unpacked
            // and comes back as a clean error. Infeasible jobs hold no
            // budget; the worker re-derives and answers the error.
            let planned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let first = first_seed(inner, &job.request, job.request_id.unwrap_or(0));
                plan_placement(inner, &job.request, job.deadline_s, &first)
            }))
            .ok()
            .and_then(Result::ok)
            .map(|p| (p.device, p.planned_power_w));
            (i, planned)
        });
        let mut priced_jobs: Vec<usize> = Vec::new();
        let mut priced: Vec<(usize, f64)> = Vec::new();
        for (i, outcome) in pricing {
            match outcome {
                Some(entry) => {
                    priced_jobs.push(i);
                    priced.push(entry);
                }
                None => bypass.push(i),
            }
        }

        let rounds = pack_ffd(inner.fleet.power_budget_w(), &priced);
        inner.packed_batches.inc();
        inner.pack_rounds.add(rounds.len() as u64);
        inner.last_batch_rounds.set(rounds.len() as f64);
        pack_span.finish(format!(
            "rounds={} priced={} bypass={}",
            rounds.len(),
            priced.len(),
            bypass.len()
        ));
        let total_rounds = rounds.len();
        // Bypass jobs first: cache replays answer inline, pinned jobs
        // take no slot, and rejections fail fast — none of them contend
        // with the packed rounds for budget.
        let bypass_handles: Vec<(usize, JobHandle)> = bypass
            .iter()
            .map(|&i| (i, self.submit_keyed(jobs[i].clone(), keys[i])))
            .collect();
        for (r, round) in rounds.iter().enumerate() {
            let handles: Vec<(usize, JobHandle)> = round
                .jobs
                .iter()
                .map(|&p| {
                    let i = priced_jobs[p];
                    (i, self.submit_keyed(jobs[i].clone(), keys[i]))
                })
                .collect();
            // The round fit under the budget when it was priced, so its
            // jobs are meant to hold their slots concurrently; the
            // barrier keeps the next round from competing with this one.
            // Workers re-derive placement at execution, and the predictor
            // may have learned from earlier rounds in the meantime — if a
            // re-priced job no longer fits alongside its round-mates, the
            // slot reservation simply delays it (degrading toward the old
            // backpressure behavior for that round), never overshooting
            // the budget.
            on_round(BatchRound {
                round: r + 1,
                rounds: total_rounds,
                results: handles
                    .into_iter()
                    .map(|(i, handle)| (i, handle.recv()))
                    .collect(),
            });
        }
        on_round(BatchRound {
            round: 0,
            rounds: total_rounds,
            results: bypass_handles
                .into_iter()
                .map(|(i, handle)| (i, handle.recv()))
                .collect(),
        });
    }

    /// Current counter snapshot, read from the registry.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            submitted: self.inner.submitted.get(),
            completed: self.inner.completed.get(),
            failed: self.inner.failed.get(),
            cache_hits: self.inner.cache.hits(),
            cache_misses: self.inner.cache.misses(),
            dedup_joins: self.inner.cache.joins(),
            member_cache_hits: self.inner.member_hits.get(),
            member_residue_jobs: self.inner.member_residues.get(),
            steals: self.inner.steals.get(),
            packed_batches: self.inner.packed_batches.get(),
            pack_rounds: self.inner.pack_rounds.get(),
            last_batch_rounds: self.inner.last_batch_rounds.get() as u64,
        }
    }

    /// Refresh the registry's readings of state kept elsewhere: the hit
    /// ratio, this scheduler's budget peak (its own witness, never merged)
    /// and resident answers, trace drops, per-device totals and predictor
    /// health. The predictor's counts stay readings because they are
    /// persisted state that a warm start restores: a counter bumped at
    /// each observation would be a second book, at odds with
    /// [`Scheduler::model_stats`] after a restore. Called by the `metrics`
    /// protocol op — and by anything else about to export the registry.
    pub fn sync_metrics(&self) {
        let reg = &self.inner.registry;
        let s = self.stats();
        let lookups = s.cache_hits + s.cache_misses;
        reg.gauge("fleet_cache_hit_ratio", &[])
            .set(if lookups == 0 {
                0.0
            } else {
                s.cache_hits as f64 / lookups as f64
            });
        reg.gauge("fleet_peak_committed_w", &[])
            .set(self.peak_committed_w());
        reg.gauge("fleet_cached_results", &[])
            .set(self.cached_results() as f64);
        reg.counter("trace_spans_dropped_total", &[])
            .store(self.inner.tracer.dropped());
        for d in self.device_stats() {
            let device = d.device.to_string();
            let labels: &[(&str, &str)] = &[("device", device.as_str()), ("gpu", d.gpu_name)];
            reg.counter("device_jobs_total", labels).store(d.jobs);
            reg.gauge("device_energy_j", labels).set(d.energy_j);
            reg.gauge("device_sim_time_s", labels).set(d.sim_time_s);
            reg.gauge("device_utilization_pct", labels)
                .set(d.utilization_pct);
        }
        for m in self.model_stats() {
            let labels: &[(&str, &str)] =
                &[("arch", m.arch.as_str()), ("kernel", m.kernel.label())];
            reg.counter("predictor_observations_total", labels)
                .store(m.observations);
            reg.counter("predictor_drift_events_total", labels)
                .store(m.drift_events);
            reg.gauge("predictor_p50_ape_pct", labels)
                .set(m.p50_ape_pct);
            reg.gauge("predictor_p95_ape_pct", labels)
                .set(m.p95_ape_pct);
            reg.gauge("predictor_ready", labels)
                .set(if m.ready { 1.0 } else { 0.0 });
        }
    }

    /// Number of answers held by the memo cache: one per distinct request
    /// and pin.
    pub fn cached_results(&self) -> usize {
        self.inner.cache.len()
    }

    /// Jobs priced on the analytic path: the requesting kernel's learned
    /// model was untrained or degraded on some device, or its rejection
    /// needed confirming. Counts pricing passes — a batch job is priced
    /// once to pack it and again when it executes, a `predict` once.
    pub fn probed_requests(&self) -> usize {
        self.inner.analytic_pricings.get() as usize
    }

    /// The highest instantaneous committed fleet draw observed so far,
    /// watts — the budget-compliance witness. The slot reservation in the
    /// execution path never commits past the fleet budget, so this is
    /// `<= fleet().power_budget_w()` by construction; tests assert it to
    /// pin the invariant (0 until the first auto-placed job runs; pinned
    /// jobs bypass budget accounting).
    pub fn peak_committed_w(&self) -> f64 {
        f64::from_bits(self.inner.peak_load_w.load(Ordering::Relaxed))
    }

    /// Per-device execution counters (utilization, simulated seconds,
    /// joules) over the fresh computes this scheduler has run.
    pub fn device_stats(&self) -> Vec<DeviceStats> {
        let accum = lock_clean(&self.inner.device_accum);
        self.inner
            .fleet
            .devices()
            .iter()
            .zip(accum.iter())
            .map(|(dev, a)| DeviceStats {
                device: dev.id,
                gpu_name: dev.gpu.name,
                jobs: a.jobs,
                sim_time_s: a.sim_time_s,
                energy_j: a.energy_j,
                utilization_pct: if a.jobs == 0 {
                    0.0
                } else {
                    a.util_pct_sum / a.jobs as f64
                },
            })
            .collect()
    }

    /// Health snapshot of every learned power model, one entry per
    /// `(architecture, kernel)` key in stable order.
    pub fn model_stats(&self) -> Vec<ModelStats> {
        lock_clean(&self.inner.predictor).stats()
    }

    /// Export the shared predictor's complete state (sufficient
    /// statistics, error histograms, drift flags) for persistence — the
    /// graceful-drain flush in `wm-serve` writes this to disk.
    pub fn predictor_snapshot(&self) -> PredictorState {
        lock_clean(&self.inner.predictor).export_state()
    }

    /// Replace the shared predictor with one rebuilt from exported state —
    /// the warm-start path after a daemon restart, skipping the training
    /// ramp. Rejects malformed state without touching the live predictor.
    pub fn restore_predictor(&self, state: PredictorState) -> Result<(), String> {
        let restored = PowerPredictor::from_state(state)?;
        *lock_clean(&self.inner.predictor) = restored;
        Ok(())
    }

    /// Predict a job's power without executing it (no result is cached):
    /// the same placement logic `submit` would run, stopping at the
    /// estimate. Learned models serve when trained and healthy; otherwise
    /// the analytic probe path answers. The seed-0 units it walks stay
    /// cached for a later run of the request. The walk and the estimate
    /// are traced as the job's `features` and `pricing` stages; a job
    /// without a request id gets the next one here, as in `submit`.
    pub fn predict(&self, job: &FleetJob) -> Result<PredictOutcome, FleetError> {
        let inner = &*self.inner;
        let rid = job
            .request_id
            .unwrap_or_else(|| inner.tracer.next_request_id());
        let feat_span = inner.tracer.start(rid, stage::FEATURES);
        let first = first_seed(inner, &job.request, rid);
        feat_span.finish("ok");
        let pricing = inner.tracer.start(rid, stage::PRICING);
        let outcome = self.estimate(job, &first);
        pricing.finish(match &outcome {
            Ok(p) => p.source.label(),
            Err(_) => "rejected",
        });
        outcome
    }

    /// The estimate behind [`Scheduler::predict`], from the job's seed-0
    /// units.
    fn estimate(&self, job: &FleetJob, first: &FirstSeed) -> Result<PredictOutcome, FleetError> {
        let inner = &*self.inner;
        let kernel = job.request.kernel;
        match job.pin {
            Some(id) => {
                let dev = inner
                    .fleet
                    .device(id)
                    .ok_or(FleetError::UnknownDevice(id))?;
                let (learned, observations) = {
                    let p = lock_clean(&inner.predictor);
                    (
                        p.predict(dev.gpu.name, kernel, &first.features),
                        p.observations(dev.gpu.name, kernel),
                    )
                };
                let (predicted_w, source) = match learned {
                    Some(pred) => {
                        // The model predicts boost-equivalent watts; the
                        // governor resolves the operating point a run
                        // would actually sustain. Grouped requests time
                        // the sum of their member kernels.
                        let rt = group_runtime(
                            &dev.gpu,
                            kernel,
                            &job.request.member_dims(),
                            job.request.dtype,
                        );
                        (
                            predicted_breakdown(&dev.gpu, &rt, pred.watts).total_w,
                            PredictionSource::Learned,
                        )
                    }
                    None => {
                        // Analytic evaluation plus the device's VM offset,
                        // matching what a run on it would measure.
                        let activity = analytic_probe(inner, first);
                        (
                            evaluate_group(&dev.gpu, &activity).total_w + dev.vm.offset_w,
                            PredictionSource::Analytic,
                        )
                    }
                };
                Ok(PredictOutcome {
                    device: dev.id,
                    gpu_name: dev.gpu.name,
                    kernel,
                    dims: job.request.dims(),
                    group: effective_group(&job.request),
                    predicted_w,
                    source,
                    model_observations: observations,
                })
            }
            None => {
                let placement = plan_placement(inner, &job.request, job.deadline_s, first)?;
                let dev = inner
                    .fleet
                    .device(placement.device)
                    .ok_or(FleetError::UnknownDevice(placement.device))?;
                let observations = lock_clean(&inner.predictor).observations(dev.gpu.name, kernel);
                Ok(PredictOutcome {
                    device: placement.device,
                    gpu_name: dev.gpu.name,
                    kernel,
                    dims: job.request.dims(),
                    group: effective_group(&job.request),
                    predicted_w: placement.predicted_w,
                    source: placement.source,
                    model_observations: observations,
                })
            }
        }
    }

    /// Feed an externally measured observation into the learned model of
    /// `device` for the request's kernel class — telemetry from real
    /// hardware, replayed traces, or a test harness. The request's input
    /// features are extracted exactly as the serving path would, and the
    /// observation lands in the `(architecture, kernel)` keyed model the
    /// request would be priced from. `measured_w` must be boost-equivalent
    /// board power (for unthrottled runs — the usual case for external
    /// telemetry worth learning from — that is simply the measured
    /// power; undo the clock scaling first if the source throttled).
    pub fn record_external(
        &self,
        device: usize,
        req: &RunRequest,
        measured_w: f64,
    ) -> Result<(), FleetError> {
        let dev = self
            .inner
            .fleet
            .device(device)
            .ok_or(FleetError::UnknownDevice(device))?;
        let features = first_seed(&self.inner, req, 0).features;
        lock_clean(&self.inner.predictor).observe(dev.gpu.name, req.kernel, &features, measured_w);
        Ok(())
    }
}

/// One completed slice of a streamed batch
/// ([`Scheduler::run_batch_rounds`]): every job of one packed round (or,
/// for `round == 0`, the bypass set) with its outcome.
#[derive(Debug)]
pub struct BatchRound {
    /// 1-based packed-round index in execution order; `0` is the bypass
    /// set (cache replays, pinned jobs, placement rejections), which is
    /// always delivered last.
    pub round: usize,
    /// Number of packed rounds in the whole batch (the bypass round is
    /// not counted).
    pub rounds: usize,
    /// `(submission index, outcome)` per job in this slice.
    pub results: Vec<(usize, Result<FleetResponse, FleetError>)>,
}

/// One concurrency round produced by the first-fit-decreasing power
/// packer ([`pack_ffd`]): jobs meant to hold their budget slots at the
/// same time.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedRound {
    /// Indices into the priced job list, in packing order.
    pub jobs: Vec<usize>,
    /// Total planned draw of the round, watts.
    pub watts: f64,
}

/// First-fit-decreasing power packing of priced jobs under a fleet
/// budget.
///
/// `priced` carries one `(placed device, planned watts)` entry per job.
/// Jobs are taken heaviest-first (ties broken by index, so packing is
/// deterministic) and each lands in the first round that still has budget
/// headroom for it and whose placed device is free — the same two
/// constraints the execution-time slot reservation enforces, which is
/// what makes a packed round actually runnable as a unit. A job whose
/// planned draw alone exceeds the budget gets a singleton round (callers
/// that price via placement never produce one — admission rejects it —
/// but the packer must not lose jobs).
///
/// Against the FIFO order this replaces, FFD never needs *more* rounds
/// and typically needs fewer: submission order strands budget headroom
/// behind whichever heavy job arrives mid-round, while
/// decreasing order fills each round's remainder with the biggest jobs
/// that still fit (the classic bin-packing result — the in-crate
/// regression test pins the comparison).
// audit:allow(hot-path-alloc): the packed rounds are the product; scratch is bounded by jobs admitted per tick
pub fn pack_ffd(budget_w: f64, priced: &[(usize, f64)]) -> Vec<PackedRound> {
    let mut order: Vec<usize> = (0..priced.len()).collect();
    order.sort_by(|&a, &b| priced[b].1.total_cmp(&priced[a].1).then(a.cmp(&b)));
    let mut rounds: Vec<(PackedRound, Vec<usize>)> = Vec::new();
    for i in order {
        let (device, watts) = priced[i];
        match rounds
            .iter_mut()
            .find(|(r, devices)| r.watts + watts <= budget_w && !devices.contains(&device))
        {
            Some((round, devices)) => {
                round.jobs.push(i);
                round.watts += watts;
                devices.push(device);
            }
            None => rounds.push((
                PackedRound {
                    jobs: vec![i],
                    watts,
                },
                vec![device],
            )),
        }
    }
    rounds.into_iter().map(|(r, _)| r).collect()
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.wake.notify_all();
        self.inner.load_freed.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn pop_task(inner: &Inner, me: usize) -> Option<(Task, bool)> {
    // Own queue first (front — FIFO for fairness)...
    if let Some(t) = lock_clean(&inner.queues[me]).pop_front() {
        return Some((t, false));
    }
    // ...then steal from the back of a peer's deque.
    for offset in 1..inner.queues.len() {
        let victim = (me + offset) % inner.queues.len();
        if let Some(t) = lock_clean(&inner.queues[victim]).pop_back() {
            return Some((t, true));
        }
    }
    None
}

fn worker_loop(inner: &Inner, me: usize) {
    loop {
        match pop_task(inner, me) {
            Some((task, stolen)) => {
                if stolen {
                    inner.steals.inc();
                }
                let Task {
                    job,
                    key,
                    reply,
                    enqueued_us,
                } = task;
                let outcome = contained(|| process(inner, &job, key));
                account(inner, job.request.kernel, enqueued_us, &outcome);
                // Receiver may have gone away (fire-and-forget submit).
                let _ = reply.send(outcome);
            }
            None => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                let guard = lock_clean(&inner.idle);
                // Sleep until a submit's notify or the timeout, which also
                // bounds the shutdown latency. Nothing is re-checked under
                // `idle`, and `submit` notifies without holding it: a task
                // pushed after the empty `pop_task` above but before this
                // wait misses its wake-up, and if every worker is asleep
                // it waits out the timeout (an open ROADMAP item).
                let _unused = inner
                    .wake
                    .wait_timeout(guard, Duration::from_millis(5))
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Effective member shapes of a grouped request (empty for plain ones) —
/// what `predict` answers echo.
fn effective_group(req: &RunRequest) -> Vec<GemmDims> {
    if req.is_grouped() {
        req.member_dims()
    } else {
        Vec::new()
    }
}

/// A request's seed-0 view of the unit store: every canonical member's
/// seed-0 unit, whose activities are the analytic probe, and the input
/// features merged from their chunks.
struct FirstSeed {
    units: Vec<Arc<Unit>>,
    features: FeatureVector,
}

/// Every member's seed-0 unit, with the feature chunks merged in
/// canonical member order — bit-identical to the sequential full-stream
/// extraction, since the accumulator merge charges the boundary toggles.
fn first_seed(inner: &Inner, req: &RunRequest, rid: u64) -> FirstSeed {
    let units = fetch_units(inner, req, rid, 1);
    let chunks: Vec<&FeatureAccumulator> = units.iter().filter_map(|u| u.chunk.as_ref()).collect();
    let features = features_from_member_chunks(req, &chunks);
    FirstSeed { units, features }
}

/// The analytic probe: every member's seed-0 activity — exactly what the
/// run executes for seed 0 — counted as one analytic pricing.
fn analytic_probe(inner: &Inner, first: &FirstSeed) -> Vec<ActivityRecord> {
    inner.analytic_pricings.inc();
    first.units.iter().map(|u| u.activity.clone()).collect()
}

/// Units `0..seeds` of every canonical member, in [`unit_layout`] order.
/// Every unit is peeked first, and only the missing ones are walked — in
/// parallel when there are several — recording `rid` as the request that
/// computed them (a unit another request is walking right now is joined,
/// not recomputed). With none missing nothing is spawned, and a lone
/// missing unit walks on the calling thread.
fn fetch_units(inner: &Inner, req: &RunRequest, rid: u64, seeds: u64) -> Vec<Arc<Unit>> {
    let walk = |(key, m, ord, s): (u64, GemmDims, u64, u64)| {
        inner.cache.unit(key, || {
            let (activity, chunk) = walk_unit(req, m, ord, s);
            Unit {
                activity,
                chunk,
                computed_by: rid,
            }
        })
    };
    let wanted: Vec<(u64, GemmDims, u64, u64)> = unit_layout(req, seeds)
        .into_iter()
        .map(|(m, ord, s)| (unit_key(req, m, ord, s), m, ord, s))
        .collect();
    let ready: Vec<Option<Arc<Unit>>> = wanted.iter().map(|w| inner.cache.peek_unit(w.0)).collect();
    let missing = wanted
        .iter()
        .zip(&ready)
        .filter(|(_, unit)| unit.is_none())
        .map(|(w, _)| *w)
        .collect();
    // One walked unit per empty slot, in order. Should that ever fall
    // short, the slot asks the store itself, which joins or walks.
    let mut walked = crate::par::parallel_map(missing, walk).into_iter();
    ready
        .into_iter()
        .zip(wanted)
        .map(|(unit, w)| unit.or_else(|| walked.next()).unwrap_or_else(|| walk(w)))
        .collect()
}

/// Execute a request from the unit store — walking only the units no
/// request walked before — and assemble the run through
/// [`PowerLab::run_from_activities`]: bit-identical to a cold
/// [`PowerLab::run`], since operand streams and measurement seeds are
/// fixed by the request alone. Returns the answer on `device` and, per
/// canonical member, whether a different request computed all of its
/// units (a member request `rid` walked any unit of is its residue); an
/// explicit iteration count too short for the measurement's warm-up trim
/// on `device` is infeasible.
fn run_with_member_reuse(
    inner: &Inner,
    req: &RunRequest,
    device: &FleetDevice,
    rid: u64,
) -> Result<(Answer, Vec<bool>), FleetError> {
    let units = fetch_units(inner, req, rid, req.seeds);
    let mut flags = Vec::new();
    let mut per_member: Vec<Vec<ActivityRecord>> = Vec::new();
    for member in member_slices(req, &units) {
        flags.push(member.iter().all(|u| u.computed_by != rid));
        per_member.push(member.iter().map(|u| u.activity.clone()).collect());
    }
    let refs: Vec<&[ActivityRecord]> = per_member.iter().map(Vec::as_slice).collect();
    let lab = PowerLab::new(device.gpu.clone()).with_vm(device.vm.id);
    lab.check_iterations(req, &refs)
        .map_err(FleetError::Infeasible)?;
    let hits = flags.iter().filter(|&&cached| cached).count() as u64;
    inner.member_hits.add(hits);
    inner.member_residues.add(flags.len() as u64 - hits);
    let answer = Answer {
        device: device.id,
        result: Arc::new(lab.run_from_activities(req, &refs)),
    };
    Ok((answer, flags))
}

/// Placement with the request's canonical key as the tie salt: the
/// learned path first (pure function of the predictor snapshot), the
/// analytic probe as the universal fallback.
fn plan_placement(
    inner: &Inner,
    req: &RunRequest,
    deadline_s: Option<f64>,
    first: &FirstSeed,
) -> Result<Placement, FleetError> {
    let salt = request_key(req);
    let learned = {
        let predictor = lock_clean(&inner.predictor);
        place_learned(
            &inner.fleet,
            &predictor,
            &first.features,
            req,
            salt,
            deadline_s,
        )
    };
    let outcome = match learned {
        Some(Ok(placement)) => Ok(placement),
        // A learned *rejection* is always confirmed analytically: a
        // rejected job never executes, so the model would get no
        // corrective observation and a high-biased model could make
        // feasible work unservable forever. The features stage already
        // walked the seed-0 activities, so the fallback costs one power
        // evaluation per device, never an operand walk.
        Some(Err(_)) | None => place(
            &inner.fleet,
            &analytic_probe(inner, first),
            salt,
            deadline_s,
        ),
    };
    outcome.map_err(|e: PlacementError| FleetError::Infeasible(e.to_string()))
}

/// Undo the governor's clock scaling on a measured power so the learned
/// model trains in **boost-equivalent** watts (see
/// `wm_predict::Prediction::watts`): measured power is
/// `idle + dyn_boost·s³ + vm_offset` (plus sensor noise), so the VM
/// process-variation offset — constant, not clock-scaled — is peeled off
/// first, the above-idle remainder is divided by `s³`, and the offset is
/// added back unscaled. For the common unthrottled case (`s = 1`) this
/// is the identity; for throttled runs it lets
/// `wm_power::predicted_breakdown` re-derive the throttle state instead
/// of mistaking TDP-capped power for a boost-feasible load, without
/// amplifying the offset by `1/s³`.
fn boost_equivalent_w(breakdown: &PowerBreakdown, measured_w: f64, vm_offset_w: f64) -> f64 {
    let s3 = breakdown.clock_scale.powi(3);
    breakdown.idle_w + (measured_w - vm_offset_w - breakdown.idle_w) / s3 + vm_offset_w
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

/// Committed-load reservation; releases (and wakes budget waiters) on
/// drop, including on unwind.
struct SlotGuard<'a> {
    inner: &'a Inner,
    device: usize,
    watts: f64,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        // Release through a poisoned lock too: skipping the release would
        // hold the device's slot forever and wedge every later job on it.
        let mut load = lock_clean(&self.inner.load_w);
        load[self.device] = (load[self.device] - self.watts).max(0.0);
        drop(load);
        self.inner.load_freed.notify_all();
    }
}

/// Wait until the placed device is free and the fleet budget absorbs the
/// job's planned draw, then commit the load. Execution-time backpressure —
/// never re-routing — keeps answers independent of timing.
fn acquire_slot<'a>(
    inner: &'a Inner,
    device: usize,
    watts: f64,
) -> Result<SlotGuard<'a>, FleetError> {
    let mut load = lock_clean(&inner.load_w);
    loop {
        let committed: f64 = load.iter().sum();
        if load[device] == 0.0 && committed + watts <= inner.fleet.power_budget_w() {
            load[device] = watts;
            // Record the high-water mark of committed draw (the budget
            // compliance witness the e2e tests assert against).
            inner
                .peak_load_w
                .fetch_max((committed + watts).to_bits(), Ordering::Relaxed);
            return Ok(SlotGuard {
                inner,
                device,
                watts,
            });
        }
        if inner.stop.load(Ordering::SeqCst) {
            return Err(FleetError::Shutdown);
        }
        let (guard, _timeout) = inner
            .load_freed
            .wait_timeout(load, Duration::from_millis(5))
            .unwrap_or_else(PoisonError::into_inner);
        load = guard;
    }
}

/// Run one job's answering step, turning a panic into
/// [`FleetError::Internal`] with its message: a panicking job must not
/// take down a worker (and with it the whole queue) or unwind into the
/// thread that submitted it. The cache's pending guard and the slot guard
/// both release their state on unwind.
fn contained<T>(answer: impl FnOnce() -> Result<T, FleetError>) -> Result<T, FleetError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(answer))
        .unwrap_or_else(|payload| Err(FleetError::Internal(panic_message(&*payload))))
}

/// Account one answered job: the failed and completed counts, and its
/// end-to-end latency from `submit` (queue wait included) in the
/// histogram of its kernel class. Every answered job lands exactly one
/// observation, so the histogram counts equal `completed` by
/// construction.
fn account(
    inner: &Inner,
    kernel: KernelClass,
    enqueued_us: u64,
    outcome: &Result<FleetResponse, FleetError>,
) {
    if outcome.is_err() {
        inner.failed.inc();
    }
    inner.completed.inc();
    let latency_us = inner.tracer.now_us().saturating_sub(enqueued_us);
    match kernel {
        KernelClass::Gemv => inner.latency_gemv.observe(latency_us as f64),
        _ => inner.latency_gemm.observe(latency_us as f64),
    }
}

/// Answer `job` from a ready memo-cache entry under its `key`, on the
/// calling thread: one counted hit, its `cache_lookup` span and the
/// replayed response. `Ok(None)` — nothing counted or recorded — when the
/// answer is absent or still in flight; the job then goes to a worker.
fn replay(inner: &Inner, job: &FleetJob, key: u64) -> Result<Option<FleetResponse>, FleetError> {
    let lookup = inner
        .tracer
        .start(job.request_id.unwrap_or(0), stage::CACHE_LOOKUP);
    let Some(answer) = inner.cache.hit(key) else {
        return Ok(None);
    };
    lookup.finish(format!("hit device={}", answer.device));
    respond(inner, job, &answer, None).map(Some)
}

fn process(inner: &Inner, job: &FleetJob, key: u64) -> Result<FleetResponse, FleetError> {
    // `submit` always assigns an id; 0 only appears for tasks forged
    // around it (none today) and keeps the trail well-formed regardless.
    let rid = job.request_id.unwrap_or(0);
    // One lookup per job. Answer stability across model evolution: a
    // repeat gets the answer its request first got, device included,
    // even if the learned model would place it elsewhere now — a
    // model-nudged re-placement would compute the same query twice and
    // answer it twice differently. A twin still in flight is joined
    // before this job places anything or reserves budget; only a miss
    // runs `run_fresh`, and only its success is published.
    let mut lookup = Some(inner.tracer.start(rid, stage::CACHE_LOOKUP));
    let mut fresh = None;
    let answer = inner.cache.answer(key, || {
        if let Some(span) = lookup.take() {
            span.finish("miss");
        }
        let (answer, placement, member_cached) = run_fresh(inner, job, rid)?;
        fresh = Some((placement, member_cached));
        Ok(answer)
    })?;
    if let Some(span) = lookup {
        span.finish(format!("hit device={}", answer.device));
    }
    respond(inner, job, &answer, fresh)
}

/// The response to `job` from its `answer`. `fresh` holds what a miss
/// computed: the placement an auto job ran under and per-member
/// provenance. `None` is a replay.
fn respond(
    inner: &Inner,
    job: &FleetJob,
    answer: &Answer,
    fresh: Option<(Option<Placement>, Vec<bool>)>,
) -> Result<FleetResponse, FleetError> {
    let dev = inner
        .fleet
        .device(answer.device)
        .ok_or(FleetError::UnknownDevice(answer.device))?;
    let cache_hit = fresh.is_none();
    // Grouped responses carry per-member provenance. A replay — or a twin
    // joined in flight — ran nothing and planned nothing, so every member
    // came from cache (an empty list for a plain request).
    let (placement, member_cached) = match fresh {
        Some((placement, flags)) if job.request.is_grouped() => (placement, flags),
        Some((placement, _)) => (placement, Vec::new()),
        None => (None, vec![true; job.request.group.len()]),
    };
    let result = Arc::clone(&answer.result);
    Ok(FleetResponse {
        request_id: job.request_id.unwrap_or(0),
        device: dev.id,
        gpu_name: dev.gpu.name,
        clock_scale: placement
            .as_ref()
            .and_then(|p| p.plan.as_ref())
            .map(|p| p.clock_scale)
            .unwrap_or(result.breakdown.clock_scale),
        plan: placement.as_ref().and_then(|p| p.plan),
        predicted_w: placement.as_ref().map(|p| p.predicted_w),
        prediction: placement.as_ref().map(|p| p.source),
        measured_w: result.power.mean,
        cache_hit,
        member_cached,
        deadline_s: job.deadline_s,
        result,
    })
}

/// A miss: place the job (auto jobs walk their seed-0 units for features
/// and pricing; pinned jobs — a wattd request's `gpu` field — name their
/// device), execute it from the unit store, account the device's run and
/// close the prediction loop. Returns the answer, the placement an auto
/// job ran under, and per canonical member whether a different request
/// computed all of its units.
fn run_fresh(
    inner: &Inner,
    job: &FleetJob,
    rid: u64,
) -> Result<(Answer, Option<Placement>, Vec<bool>), FleetError> {
    let tracer = &inner.tracer;
    // Auto jobs merge their features once, before pricing, and hand them
    // on to feedback; pinned jobs merge them only there.
    let (device_id, placement, features) = match job.pin {
        Some(id) => (id, None, None),
        None => {
            let feat_span = tracer.start(rid, stage::FEATURES);
            let first = first_seed(inner, &job.request, rid);
            feat_span.finish("ok");
            let pricing = tracer.start(rid, stage::PRICING);
            let placement = match plan_placement(inner, &job.request, job.deadline_s, &first) {
                Ok(p) => {
                    pricing.finish(p.source.label());
                    p
                }
                Err(e) => {
                    pricing.finish("rejected");
                    return Err(e);
                }
            };
            tracer.start(rid, stage::PLACEMENT).finish(format!(
                "device={} planned_w={:.1} clock={:.3}",
                placement.device,
                placement.planned_power_w,
                placement
                    .plan
                    .as_ref()
                    .map(|p| p.clock_scale)
                    .unwrap_or(1.0)
            ));
            (placement.device, Some(placement), Some(first.features))
        }
    };
    let dev = inner
        .fleet
        .device(device_id)
        .ok_or(FleetError::UnknownDevice(device_id))?;

    // Reserve an auto-placed job's planned draw while it executes (pinned
    // jobs bypass budget accounting). The guard releases on every exit
    // path, including unwind.
    let exec = tracer.start(rid, stage::EXECUTE);
    let executed = {
        let _slot = match &placement {
            Some(p) => Some(acquire_slot(inner, p.device, p.planned_power_w)?),
            None => None,
        };
        run_with_member_reuse(inner, &job.request, dev, rid)
    };
    exec.finish(match &executed {
        Ok(_) => format!("fresh device={device_id}"),
        Err(_) => "rejected".to_string(),
    });
    let (answer, member_cached) = executed?;

    let result = &answer.result;
    {
        let mut accum = lock_clean(&inner.device_accum);
        let a = &mut accum[device_id];
        a.jobs += 1;
        for m in &result.measurements {
            a.sim_time_s += m.total_time_s;
            a.energy_j += m.mean_power_w * m.total_time_s;
        }
        a.util_pct_sum += result.utilization_pct;
    }
    // A pinned job merges its features now, from the seed-0 units
    // execution just walked.
    let feedback = tracer.start(rid, stage::FEEDBACK);
    let features = features.unwrap_or_else(|| first_seed(inner, &job.request, rid).features);
    lock_clean(&inner.predictor).observe(
        dev.gpu.name,
        job.request.kernel,
        &features,
        boost_equivalent_w(&result.breakdown, result.power.mean, dev.vm.offset_w),
    );
    feedback.finish(format!("{} {}", dev.gpu.name, job.request.kernel.label()));
    Ok((answer, placement, member_cached))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_core::member_ordinals;
    use wm_gpu::spec::a100_pcie;
    use wm_gpu::{iteration_time, GemmDims};
    use wm_kernels::Sampling;
    use wm_numerics::DType;
    use wm_obs::SpanRecord;
    use wm_patterns::{PatternKind, PatternSpec};

    fn quick(kind: PatternKind, seed: u64) -> RunRequest {
        RunRequest::new(DType::Fp16Tensor, 128, PatternSpec::new(kind))
            .with_seeds(1)
            .with_base_seed(seed)
            .with_sampling(Sampling::Lattice { rows: 4, cols: 4 })
    }

    #[test]
    fn repeated_query_hits_the_cache() {
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let first = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 1)))
            .recv()
            .unwrap();
        let second = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 1)))
            .recv()
            .unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert!(Arc::ptr_eq(&first.result, &second.result));
        let stats = sched.stats();
        assert_eq!(stats.cache_misses, 1);
        assert!(stats.cache_hits >= 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn batch_answers_preserve_order_and_dedupe() {
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 4);
        let jobs = vec![
            FleetJob::new(quick(PatternKind::Gaussian, 7)),
            FleetJob::new(quick(PatternKind::Zeros, 7)),
            FleetJob::new(quick(PatternKind::Gaussian, 7)), // duplicate of [0]
            FleetJob::new(quick(PatternKind::Sparse { sparsity: 0.5 }, 7)),
        ];
        let answers = sched.run_batch(jobs);
        assert_eq!(answers.len(), 4);
        let ok: Vec<&FleetResponse> = answers.iter().map(|a| a.as_ref().unwrap()).collect();
        // Exact duplicate shares the allocation with its twin.
        assert!(Arc::ptr_eq(&ok[0].result, &ok[2].result));
        // Distinct patterns computed separately: 3 misses for 4 queries.
        assert_eq!(sched.stats().cache_misses, 3);
        // Ordering: zeros strictly below gaussian power.
        assert!(ok[1].result.power.mean < ok[0].result.power.mean);
    }

    #[test]
    fn pinned_jobs_run_on_their_device() {
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 3), 2);
        let r = sched
            .submit(FleetJob::pinned(quick(PatternKind::Gaussian, 3), 2))
            .recv()
            .unwrap();
        assert_eq!(r.device, 2);
        assert!(r.plan.is_none());
        let err = sched
            .submit(FleetJob::pinned(quick(PatternKind::Gaussian, 3), 9))
            .recv()
            .unwrap_err();
        assert_eq!(err, FleetError::UnknownDevice(9));
    }

    #[test]
    fn deterministic_across_schedulers() {
        let jobs = || {
            vec![
                FleetJob::new(quick(PatternKind::Gaussian, 11)),
                FleetJob::new(quick(PatternKind::Sparse { sparsity: 0.3 }, 11)),
                FleetJob::new(quick(PatternKind::Zeros, 11)),
            ]
        };
        let a = Scheduler::with_workers(Fleet::from_catalog(), 4).run_batch(jobs());
        let b = Scheduler::with_workers(Fleet::from_catalog(), 1).run_batch(jobs());
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.device, y.device, "placement must not depend on timing");
            assert_eq!(x.result.power, y.result.power);
            assert_eq!(x.result.activity, y.result.activity);
        }
    }

    #[test]
    fn work_stealing_spreads_a_lopsided_batch() {
        // Many jobs land round-robin on 4 queues but all the work is
        // distinct, so idle workers steal. With a single-device fleet and
        // backpressure serialising execution this still terminates.
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 4), 4);
        let jobs: Vec<FleetJob> = (0..12)
            .map(|i| FleetJob::new(quick(PatternKind::Gaussian, 100 + i)))
            .collect();
        let answers = sched.run_batch(jobs);
        assert!(answers.iter().all(|a| a.is_ok()));
        let stats = sched.stats();
        assert_eq!(stats.completed, 12);
        assert_eq!(stats.cache_misses, 12);
    }

    #[test]
    fn panicking_jobs_surface_errors_and_workers_survive() {
        // sparsity > 1 asserts deep inside the pattern generator. The
        // protocol layer rejects such requests, but the library API can
        // still submit them: the panic must come back as an error, the
        // worker must survive, and the cache key must not be wedged.
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 1), 1);
        let bad = RunRequest::new(
            DType::Fp32,
            64,
            PatternSpec::new(PatternKind::Sparse { sparsity: 1.5 }),
        )
        .with_seeds(1)
        .with_sampling(Sampling::Lattice { rows: 4, cols: 4 });
        // Auto path panics in the features stage's operand walk; pinned
        // path panics inside the cache's compute closure (exercising the
        // pending guards). Both must answer, twice each, on the single
        // worker, with the panic's own message.
        let panicked = |err: &FleetError| match err {
            FleetError::Internal(m) => m.contains("outside [0, 1]"),
            _ => false,
        };
        for _ in 0..2 {
            let err = sched.submit(FleetJob::new(bad.clone())).recv().unwrap_err();
            assert!(panicked(&err), "{err:?}");
            let err = sched
                .submit(FleetJob::pinned(bad.clone(), 0))
                .recv()
                .unwrap_err();
            assert!(panicked(&err), "{err:?}");
        }
        // The lone worker is still alive and serves valid traffic.
        let ok = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 1)))
            .recv();
        assert!(ok.is_ok(), "{ok:?}");
        assert_eq!(sched.stats().failed, 4);
    }

    #[test]
    fn cached_duplicates_skip_budget_backpressure() {
        // With a budget that admits only one running job, a stream of
        // identical queries must still be fast after the first: cached
        // answers take the peek fast path and never wait for a slot.
        let fleet = Fleet::builder()
            .device(a100_pcie())
            .power_budget_w(290.0)
            .build();
        let sched = Scheduler::with_workers(fleet, 4);
        let req = quick(PatternKind::Gaussian, 77);
        let first = sched.submit(FleetJob::new(req.clone())).recv().unwrap();
        assert!(!first.cache_hit);
        let repeats = sched.run_batch(vec![FleetJob::new(req); 8]);
        assert!(repeats.iter().all(|r| r.as_ref().unwrap().cache_hit));
        assert_eq!(sched.stats().cache_misses, 1);
    }

    /// Wait until the workers have taken every queued task.
    fn until_queues_drain(sched: &Scheduler) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while sched.inner.queues.iter().any(|q| !lock_clean(q).is_empty()) {
            assert!(
                std::time::Instant::now() < deadline,
                "no worker took the job"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_cached_repeat_is_answered_while_every_worker_is_busy() {
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 1), 1);
        let req = quick(PatternKind::Gaussian, 91);
        let first = sched.submit(FleetJob::new(req.clone())).recv().unwrap();
        // Park the only worker: a fresh auto job waits in pricing for the
        // predictor this thread holds.
        let predictor = lock_clean(&sched.inner.predictor);
        let parked = sched.submit(FleetJob::new(quick(PatternKind::Gaussian, 92)));
        until_queues_drain(&sched);
        let repeat = sched.submit(FleetJob::new(req));
        assert_eq!(
            sched.stats().completed,
            2,
            "submit answers a cached repeat itself"
        );
        let repeat = repeat.recv().unwrap();
        assert!(repeat.cache_hit);
        assert!(Arc::ptr_eq(&first.result, &repeat.result));
        drop(predictor);
        assert!(!parked.recv().unwrap().cache_hit);
        assert_eq!(sched.stats().completed, 3);
    }

    #[test]
    fn a_batch_of_cached_repeats_completes_while_every_worker_is_busy() {
        let sched = Arc::new(Scheduler::with_workers(
            Fleet::homogeneous(a100_pcie(), 1),
            1,
        ));
        let jobs: Vec<FleetJob> = (0..3)
            .map(|i| FleetJob::new(quick(PatternKind::Gaussian, 93 + i)))
            .collect();
        let firsts = sched.run_batch(jobs.clone());
        let probed = sched.probed_requests();
        let predictor = lock_clean(&sched.inner.predictor);
        let parked = sched.submit(FleetJob::new(quick(PatternKind::Gaussian, 99)));
        until_queues_drain(&sched);
        let (tx, rx) = mpsc::channel();
        let helper = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || tx.send(sched.run_batch(jobs)))
        };
        let repeats = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a batch of cached repeats waits for no worker");
        assert_eq!(
            sched.probed_requests(),
            probed,
            "the repeats priced nothing"
        );
        for (first, repeat) in firsts.iter().zip(&repeats) {
            let (first, repeat) = (first.as_ref().unwrap(), repeat.as_ref().unwrap());
            assert!(repeat.cache_hit);
            assert!(Arc::ptr_eq(&first.result, &repeat.result));
        }
        drop(predictor);
        assert!(!parked.recv().unwrap().cache_hit);
        helper.join().unwrap().unwrap();
    }

    #[test]
    fn tight_budget_serialises_but_completes() {
        // Budget admits one 200+ W job at a time; concurrent submissions
        // queue at execution and all finish.
        let fleet = Fleet::builder()
            .device(a100_pcie())
            .device(a100_pcie())
            .power_budget_w(290.0)
            .build();
        let sched = Scheduler::with_workers(fleet, 4);
        let jobs: Vec<FleetJob> = (0..6)
            .map(|i| FleetJob::new(quick(PatternKind::Gaussian, 200 + i)))
            .collect();
        let answers = sched.run_batch(jobs);
        assert!(answers.iter().all(|a| a.is_ok()), "{answers:?}");
        assert_eq!(sched.stats().completed, 6);
    }

    #[test]
    fn prediction_loop_trains_until_learned_placement_takes_over() {
        let sched = Scheduler::with_workers(Fleet::builder().device(a100_pcie()).build(), 2);
        // Early traffic is priced analytically (the model is untrained).
        let first = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 1000)))
            .recv()
            .unwrap();
        assert_eq!(first.prediction, Some(PredictionSource::Analytic));
        let predicted = first.predicted_w.expect("auto jobs carry an estimate");
        assert!(
            (predicted - first.measured_w).abs() / first.measured_w < 0.05,
            "analytic estimate {predicted} vs measured {}",
            first.measured_w
        );
        // Train past the readiness threshold with mixed distributions.
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
        let jobs: Vec<FleetJob> = (0..40u64)
            .map(|i| FleetJob::new(quick(kinds[(i % 8) as usize], 2000 + i)))
            .collect();
        for r in sched.run_batch(jobs) {
            r.unwrap();
        }
        let stats = sched.model_stats();
        assert_eq!(stats.len(), 1);
        assert!(stats[0].ready, "{stats:?}");
        // A fresh request is now priced by the learned model, skipping the
        // probe — and lands within the acceptance band of the measurement.
        let fresh = sched
            .submit(FleetJob::new(quick(
                PatternKind::Sparse { sparsity: 0.45 },
                9999,
            )))
            .recv()
            .unwrap();
        assert_eq!(fresh.prediction, Some(PredictionSource::Learned));
        let predicted = fresh.predicted_w.unwrap();
        let ape = (predicted - fresh.measured_w).abs() / fresh.measured_w;
        assert!(
            ape < 0.15,
            "learned {predicted} W vs measured {} W (APE {ape})",
            fresh.measured_w
        );
    }

    #[test]
    fn gemv_traffic_trains_its_own_model_and_never_prices_from_gemm() {
        let sched = Scheduler::with_workers(Fleet::builder().device(a100_pcie()).build(), 2);
        // Train the GEMM model past readiness.
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
        let gemm_jobs: Vec<FleetJob> = (0..40u64)
            .map(|i| FleetJob::new(quick(kinds[(i % 8) as usize], 3000 + i)))
            .collect();
        for r in sched.run_batch(gemm_jobs) {
            r.unwrap();
        }
        let stats = sched.model_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].kernel, KernelClass::Gemm);
        assert!(stats[0].ready, "{stats:?}");
        // A GEMV request must NOT be priced by the ready GEMM model: its
        // keyed model does not exist, so the analytic path answers.
        let gemv = |seed: u64, kind: PatternKind| {
            FleetJob::new(quick(kind, seed).with_kernel(KernelClass::Gemv))
        };
        let p = sched.predict(&gemv(9000, PatternKind::Gaussian)).unwrap();
        assert_eq!(p.kernel, KernelClass::Gemv);
        assert_eq!(
            p.source,
            PredictionSource::Analytic,
            "a GEMV request must never price from a GEMM-only model"
        );
        assert_eq!(p.model_observations, 0);
        // Interleave GEMV runs: they train the (arch, Gemv) key only.
        let gemv_jobs: Vec<FleetJob> = (0..40u64)
            .map(|i| gemv(5000 + i, kinds[(i % 8) as usize]))
            .collect();
        for r in sched.run_batch(gemv_jobs) {
            r.unwrap();
        }
        let stats = sched.model_stats();
        assert_eq!(stats.len(), 2, "{stats:?}");
        assert_eq!(stats[0].kernel, KernelClass::Gemm);
        assert_eq!(stats[1].kernel, KernelClass::Gemv);
        assert!(stats.iter().all(|m| m.ready), "{stats:?}");
        assert_eq!(stats[0].observations, 40, "GEMV runs must not leak");
        assert_eq!(stats[1].observations, 40);
        // Fresh GEMV traffic now prices from its own learned model and
        // lands in the acceptance band of its measurement.
        let fresh = sched
            .submit(gemv(9900, PatternKind::Sparse { sparsity: 0.45 }))
            .recv()
            .unwrap();
        assert_eq!(fresh.prediction, Some(PredictionSource::Learned));
        let predicted = fresh.predicted_w.unwrap();
        let ape = (predicted - fresh.measured_w).abs() / fresh.measured_w;
        assert!(
            ape < 0.15,
            "learned GEMV {predicted} W vs measured {} W (APE {ape})",
            fresh.measured_w
        );
    }

    #[test]
    fn probe_cache_hits_across_iteration_counts() {
        // Switching activity depends on neither the iteration count nor,
        // seed by seed, the seed count, so identical requests differing
        // only there must share their seed-0 unit instead of re-walking it.
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let units = || sched.inner.cache.unit_len();
        let req = quick(PatternKind::Gaussian, 31);
        sched
            .predict(&FleetJob::new(req.clone().with_iterations(10)))
            .unwrap();
        assert_eq!(units(), 1);
        sched
            .predict(&FleetJob::new(req.clone().with_iterations(20_000)))
            .unwrap();
        sched.predict(&FleetJob::new(req.clone())).unwrap();
        sched
            .predict(&FleetJob::new(req.clone().with_seeds(7)))
            .unwrap();
        assert_eq!(units(), 1, "iteration/seed variants must reuse the unit");
        // An activity-relevant change walks afresh.
        sched
            .predict(&FleetJob::new(req.with_base_seed(99)))
            .unwrap();
        assert_eq!(units(), 2);
    }

    #[test]
    fn device_stats_count_fresh_computes_only() {
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let req = quick(PatternKind::Gaussian, 55);
        sched.submit(FleetJob::new(req.clone())).recv().unwrap();
        sched.submit(FleetJob::new(req)).recv().unwrap(); // cache hit
        let stats = sched.device_stats();
        assert_eq!(stats.len(), 2);
        let total_jobs: u64 = stats.iter().map(|d| d.jobs).sum();
        assert_eq!(total_jobs, 1, "the repeat ran nothing");
        let busy: Vec<&DeviceStats> = stats.iter().filter(|d| d.jobs > 0).collect();
        assert_eq!(busy.len(), 1);
        assert!(busy[0].energy_j > 0.0);
        assert!(busy[0].sim_time_s > 0.0);
        assert!(busy[0].utilization_pct > 0.0 && busy[0].utilization_pct <= 100.0);
        let idle: Vec<&DeviceStats> = stats.iter().filter(|d| d.jobs == 0).collect();
        assert_eq!(idle[0].energy_j, 0.0);
        assert_eq!(idle[0].utilization_pct, 0.0);
    }

    #[test]
    fn predict_estimates_without_executing() {
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let job = FleetJob::new(quick(PatternKind::Gaussian, 77));
        let p = sched.predict(&job).unwrap();
        assert_eq!(p.source, PredictionSource::Analytic);
        assert!(p.predicted_w > 0.0);
        assert_eq!(p.model_observations, 0);
        // Nothing ran, nothing cached.
        assert_eq!(sched.stats().completed, 0);
        assert_eq!(sched.cached_results(), 0);
        // The prediction matches what the run then measures.
        let run = sched.submit(job).recv().unwrap();
        assert_eq!(run.device, p.device, "predict and run must agree");
        assert!((p.predicted_w - run.measured_w).abs() / run.measured_w < 0.05);
        // Pinned predictions answer for the pinned device.
        let pinned = sched
            .predict(&FleetJob::pinned(quick(PatternKind::Zeros, 78), 1))
            .unwrap();
        assert_eq!(pinned.device, 1);
        let missing = sched.predict(&FleetJob::pinned(quick(PatternKind::Zeros, 78), 9));
        assert_eq!(missing.unwrap_err(), FleetError::UnknownDevice(9));
    }

    #[test]
    fn throttled_measurements_round_trip_through_boost_equivalence() {
        // A throttled run measures TDP-capped power. Training on that
        // number as-is would make `predicted_breakdown` (which expects
        // boost-clock watts) report a boost-feasible, unthrottled load;
        // the boost-equivalence conversion must re-derive the throttled
        // operating point exactly.
        let gpu = wm_gpu::spec::rtx6000(); // throttles at the paper's 2048
        let rt = iteration_time(&gpu, GemmDims::square(2048), DType::Fp16Tensor);
        let s: f64 = 0.9;
        let throttled = PowerBreakdown {
            idle_w: gpu.idle_watts,
            uncore_w: 30.0,
            datapath_w: gpu.tdp_watts - gpu.idle_watts - 30.0,
            dram_w: 0.0,
            l2_w: 0.0,
            total_w: gpu.tdp_watts,
            clock_scale: s,
            throttled: true,
            t_iter_s: rt.t_iter_s / s,
            duty: 0.99,
            energy_per_iter_j: gpu.tdp_watts * rt.t_iter_s / s,
        };
        let boost_w = boost_equivalent_w(&throttled, gpu.tdp_watts, 0.0);
        assert!(
            boost_w > gpu.tdp_watts,
            "undoing s³ scaling must land above TDP: {boost_w}"
        );
        let resolved = predicted_breakdown(&gpu, &rt, boost_w);
        assert!(resolved.throttled, "the governor must re-engage");
        assert!((resolved.total_w - gpu.tdp_watts).abs() < 1e-9);
        assert!(
            (resolved.clock_scale - s).abs() < 1e-9,
            "resolved clock {} vs original {s}",
            resolved.clock_scale
        );
        // The VM process-variation offset is constant, not clock-scaled:
        // declaring it must shift the boost-equivalent target by exactly
        // the offset, never by offset/s³.
        let offset = 8.0;
        let with_offset = boost_equivalent_w(&throttled, gpu.tdp_watts + offset, offset);
        assert!(
            (with_offset - boost_w - offset).abs() < 1e-9,
            "offset amplified: {} vs {} + {offset}",
            with_offset,
            boost_w
        );
        // Unthrottled runs (the common case) pass through unchanged.
        let unthrottled = PowerBreakdown {
            clock_scale: 1.0,
            throttled: false,
            total_w: 180.0,
            ..throttled
        };
        assert_eq!(boost_equivalent_w(&unthrottled, 182.5, 3.0), 182.5);
    }

    #[test]
    fn biased_learned_rejections_fall_back_to_the_analytic_path() {
        // A model poisoned to predict far above the cap must not make
        // feasible work unservable: learned rejections are confirmed
        // analytically, and the run that then executes feeds the model
        // corrective data.
        let cap = 150.0; // admits the ~80 W analytic plan, not 400 W
        let fleet = Fleet::builder().device_with(a100_pcie(), 0, cap).build();
        let sched = Scheduler::with_workers(fleet, 1);
        for i in 0..40u64 {
            let req = quick(PatternKind::Gaussian, 5000 + i);
            sched.record_external(0, &req, 400.0).unwrap();
        }
        assert!(sched.model_stats()[0].ready, "{:?}", sched.model_stats());
        let r = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 9000)))
            .recv()
            .expect("the analytic path admits this job");
        assert_eq!(
            r.prediction,
            Some(PredictionSource::Analytic),
            "a learned rejection must be re-priced analytically"
        );
        assert!(r.predicted_w.unwrap() <= cap);
    }

    #[test]
    fn repeats_stick_to_their_original_device_as_the_model_evolves() {
        // An identical repeat must return the originally cached answer
        // even after the learned model starts steering placement — a
        // model-nudged re-placement would compute the same query twice
        // and answer it twice differently.
        let fleet = Fleet::builder()
            .device(a100_pcie())
            .device(wm_gpu::spec::rtx6000())
            .build();
        let sched = Scheduler::with_workers(fleet, 1);
        let req = quick(PatternKind::Gaussian, 4242);
        let first = sched.submit(FleetJob::new(req.clone())).recv().unwrap();
        assert!(!first.cache_hit);
        // Train both architectures so that a fresh placement must flip to
        // the *other* device: the first device's arch predicts a draw no
        // cap admits, the other a modest one.
        let other = 1 - first.device;
        for i in 0..40u64 {
            let r = quick(PatternKind::Gaussian, 6000 + i);
            sched.record_external(first.device, &r, 10_000.0).unwrap();
            sched.record_external(other, &r, 100.0).unwrap();
        }
        let fresh = sched
            .predict(&FleetJob::new(quick(PatternKind::Gaussian, 7777)))
            .unwrap();
        assert_eq!(fresh.source, PredictionSource::Learned);
        assert_eq!(fresh.device, other, "fresh traffic must flip devices");
        // The repeat still answers from the original device's cache.
        let second = sched.submit(FleetJob::new(req)).recv().unwrap();
        assert!(second.cache_hit, "repeat must not recompute");
        assert_eq!(second.device, first.device);
        assert!(Arc::ptr_eq(&first.result, &second.result));
    }

    #[test]
    fn external_observations_train_the_model() {
        let sched = Scheduler::with_workers(Fleet::builder().device(a100_pcie()).build(), 1);
        // Replayed external telemetry: a constant 200 W whatever the input.
        for i in 0..40u64 {
            let req = quick(PatternKind::Gaussian, 3000 + i);
            sched.record_external(0, &req, 200.0).unwrap();
        }
        assert!(sched.model_stats()[0].ready);
        let p = sched
            .predict(&FleetJob::new(quick(PatternKind::Gaussian, 4000)))
            .unwrap();
        assert_eq!(p.source, PredictionSource::Learned);
        assert!(
            (p.predicted_w - 200.0).abs() < 10.0,
            "learned constant law: {} W",
            p.predicted_w
        );
        assert!(sched
            .record_external(5, &quick(PatternKind::Zeros, 1), 100.0)
            .is_err());
    }

    /// The retired FIFO admission model, kept as the packing baseline:
    /// jobs are admitted strictly in submission order, and a job that
    /// does not fit the current round closes it (head-of-line blocking —
    /// exactly what execution-order backpressure used to do).
    fn pack_fifo(budget_w: f64, priced: &[(usize, f64)]) -> Vec<PackedRound> {
        let mut rounds: Vec<(PackedRound, Vec<usize>)> = Vec::new();
        for (i, &(device, watts)) in priced.iter().enumerate() {
            match rounds
                .last_mut()
                .filter(|(r, devices)| r.watts + watts <= budget_w && !devices.contains(&device))
            {
                Some((round, devices)) => {
                    round.jobs.push(i);
                    round.watts += watts;
                    devices.push(device);
                }
                None => rounds.push((
                    PackedRound {
                        jobs: vec![i],
                        watts,
                    },
                    vec![device],
                )),
            }
        }
        rounds.into_iter().map(|(r, _)| r).collect()
    }

    #[test]
    fn ffd_packs_at_least_as_densely_as_fifo_and_never_over_budget() {
        // The packing regression gate: on a deterministic synthetic
        // mixed-watt job set, FFD must admit at least as many jobs per
        // scheduling round as the old FIFO order (i.e. need no more
        // rounds) and must never pack a round past the budget.
        let budget = 500.0;
        let mut state = 0x5EED_CAFE_u64;
        let mut next = move || {
            // SplitMix64 — deterministic, no external RNG needed.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let priced: Vec<(usize, f64)> = (0..48)
            .map(|_| {
                let r = next();
                let device = (r % 8) as usize;
                let watts = 60.0 + (r >> 8) as f64 % 181.0; // 60..=240 W
                (device, watts)
            })
            .collect();
        let ffd = pack_ffd(budget, &priced);
        let fifo = pack_fifo(budget, &priced);
        for rounds in [&ffd, &fifo] {
            for round in rounds.iter() {
                assert!(round.watts <= budget, "round over budget: {round:?}");
                assert!(
                    (round.watts - round.jobs.iter().map(|&j| priced[j].1).sum::<f64>()).abs()
                        < 1e-9
                );
            }
        }
        // No job lost or duplicated by either packing.
        for rounds in [&ffd, &fifo] {
            let mut seen: Vec<usize> = rounds.iter().flat_map(|r| r.jobs.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..priced.len()).collect::<Vec<_>>());
        }
        let jobs_per_round = |rounds: &[PackedRound]| priced.len() as f64 / rounds.len() as f64;
        assert!(
            ffd.len() <= fifo.len(),
            "FFD used {} rounds where FIFO used {}",
            ffd.len(),
            fifo.len()
        );
        assert!(
            ffd.len() < fifo.len(),
            "this seed is chosen so FFD strictly beats FIFO ({} vs {} rounds, \
             {:.2} vs {:.2} jobs/round)",
            ffd.len(),
            fifo.len(),
            jobs_per_round(&ffd),
            jobs_per_round(&fifo)
        );
        // Determinism: same inputs, same packing.
        assert_eq!(ffd, pack_ffd(budget, &priced));
        // Oversize jobs are not lost: they land in singleton rounds.
        let oversize = pack_ffd(100.0, &[(0, 250.0), (1, 40.0), (2, 40.0)]);
        assert!(oversize
            .iter()
            .any(|r| r.jobs == vec![0] && r.watts == 250.0));
    }

    #[test]
    fn run_batch_fills_the_budget_and_never_exceeds_it() {
        // Three devices, a budget that fits roughly two concurrent jobs:
        // the packed batch must complete everything, the high-water mark
        // of committed draw must stay under the budget, and packing must
        // actually exercise concurrency (peak above any single job).
        let budget = 500.0;
        let fleet = Fleet::builder()
            .device(a100_pcie())
            .device(a100_pcie())
            .device(a100_pcie())
            .power_budget_w(budget)
            .build();
        let sched = Scheduler::with_workers(fleet, 4);
        // A round's jobs are *admitted* together, but whether their slot
        // reservations actually overlap depends on worker timing — a fast
        // job can release before its round-mate acquires. The budget and
        // completion invariants hold on every attempt; the concurrency
        // witness (peak above any single job) is retried with fresh jobs
        // until the overlap is observed.
        let mut max_single: f64 = 0.0;
        let mut completed = 0u64;
        let mut witnessed = false;
        for attempt in 0..5u64 {
            // Three seeds per job: batch pricing already walked seed 0, so
            // execution still simulates seeds 1-2, long enough for
            // round-mates' slot reservations to overlap.
            let jobs: Vec<FleetJob> = (0..9)
                .map(|i| {
                    let seed = 7000 + 100 * attempt + i;
                    FleetJob::new(quick(PatternKind::Gaussian, seed).with_seeds(3))
                })
                .collect();
            let answers = sched.run_batch(jobs);
            assert!(answers.iter().all(|a| a.is_ok()), "{answers:?}");
            completed += 9;
            assert_eq!(sched.stats().completed, completed);
            let peak = sched.peak_committed_w();
            assert!(peak > 0.0, "packed jobs must commit load");
            assert!(
                peak <= budget,
                "peak {peak} W exceeded the {budget} W budget"
            );
            max_single = answers
                .iter()
                .map(|a| a.as_ref().unwrap().result.breakdown.total_w)
                .fold(max_single, f64::max);
            if peak > max_single {
                witnessed = true;
                break;
            }
        }
        assert!(
            witnessed,
            "no batch ever held two jobs' slots concurrently (peak {} W, max single {max_single} W)",
            sched.peak_committed_w()
        );
    }

    #[test]
    fn grouped_jobs_cache_as_a_unit_and_alias_permutations() {
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let members = vec![
            GemmDims {
                n: 96,
                m: 32,
                k: 160,
            },
            GemmDims::square(64),
            GemmDims {
                n: 64,
                m: 16,
                k: 96,
            },
        ];
        let grouped = quick(PatternKind::Gaussian, 42).with_group(members.clone());
        let first = sched.submit(FleetJob::new(grouped)).recv().unwrap();
        assert!(!first.cache_hit);
        assert_eq!(first.result.member_activities.len(), 3);
        // A permuted resubmission is the same request: pure cache hit,
        // same allocation, same device.
        let mut permuted = members.clone();
        permuted.rotate_left(2);
        let again = sched
            .submit(FleetJob::new(
                quick(PatternKind::Gaussian, 42).with_group(permuted),
            ))
            .recv()
            .unwrap();
        assert!(again.cache_hit, "permuted group must hit the cache");
        assert!(Arc::ptr_eq(&first.result, &again.result));
        assert_eq!(first.device, again.device);
        assert_eq!(sched.stats().cache_misses, 1);
        // A member-list perturbation is a different request.
        let mut tweaked = members;
        tweaked[0].k += 32;
        let other = sched
            .submit(FleetJob::new(
                quick(PatternKind::Gaussian, 42).with_group(tweaked),
            ))
            .recv()
            .unwrap();
        assert!(!other.cache_hit);
        // The grouped request trains its kernel's model like any other
        // fresh run (one observation per *group*, not per member).
        assert_eq!(sched.model_stats()[0].observations, 2);
    }

    #[test]
    fn singles_warm_a_group_that_executes_only_the_residue() {
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        // Warm two member shapes with plain singles. Each is itself one
        // residue job in the unit store; plain responses never carry
        // member flags.
        for d in [64, 96] {
            let r = sched
                .submit(FleetJob::new(
                    quick(PatternKind::Gaussian, 42).with_shape(GemmDims::square(d)),
                ))
                .recv()
                .unwrap();
            assert!(r.member_cached.is_empty(), "plain runs carry no flags");
        }
        let s = sched.stats();
        assert_eq!((s.member_cache_hits, s.member_residue_jobs), (0, 2));
        // The group overlaps both singles: only the 128 member runs.
        let warm = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 42).with_group(
                vec![
                    GemmDims::square(128),
                    GemmDims::square(64),
                    GemmDims::square(96),
                ],
            )))
            .recv()
            .unwrap();
        assert!(!warm.cache_hit);
        assert_eq!(
            warm.member_cached,
            vec![true, true, false],
            "canonical member order is 64, 96, 128"
        );
        let s = sched.stats();
        assert_eq!((s.member_cache_hits, s.member_residue_jobs), (2, 3));
        // Full overlap: a distinct group spelled entirely from warmed
        // members misses the whole-result cache but simulates nothing.
        let full = sched
            .submit(FleetJob::new(
                quick(PatternKind::Gaussian, 42)
                    .with_group(vec![GemmDims::square(96), GemmDims::square(64)]),
            ))
            .recv()
            .unwrap();
        assert!(!full.cache_hit, "distinct group: no whole-result entry");
        assert_eq!(full.member_cached, vec![true, true]);
        let s = sched.stats();
        assert_eq!(
            (s.member_cache_hits, s.member_residue_jobs),
            (4, 3),
            "zero new member simulations on full overlap"
        );
        // A repeat of the first group replays the whole result, and the
        // replay reports every member as cached.
        let replay = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 42).with_group(
                vec![
                    GemmDims::square(64),
                    GemmDims::square(96),
                    GemmDims::square(128),
                ],
            )))
            .recv()
            .unwrap();
        assert!(replay.cache_hit);
        assert_eq!(replay.member_cached, vec![true, true, true]);
        // Reuse must be invisible in the numbers: a cold scheduler's
        // fresh run of the same group is bit-identical.
        let cold = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let fresh = cold
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 42).with_group(
                vec![
                    GemmDims::square(96),
                    GemmDims::square(128),
                    GemmDims::square(64),
                ],
            )))
            .recv()
            .unwrap();
        assert_eq!(
            *fresh.result, *warm.result,
            "partial member reuse changed the answer"
        );
    }

    #[test]
    fn grouped_predict_prices_the_group_as_a_unit() {
        let sched = Scheduler::with_workers(Fleet::builder().device(a100_pcie()).build(), 1);
        let member = GemmDims {
            n: 128,
            m: 64,
            k: 128,
        };
        let single = sched
            .predict(&FleetJob::new(
                quick(PatternKind::Gaussian, 11).with_shape(member),
            ))
            .unwrap();
        let grouped = sched
            .predict(&FleetJob::new(
                quick(PatternKind::Gaussian, 11).with_group(vec![member, member, member]),
            ))
            .unwrap();
        assert_eq!(grouped.group, vec![member, member, member]);
        assert!(single.group.is_empty());
        assert_eq!(grouped.source, PredictionSource::Analytic);
        // Time-weighted mean over near-identical members: the group's
        // power sits near the single member's, far below 3x of it.
        assert!(
            (grouped.predicted_w - single.predicted_w).abs() < 0.2 * single.predicted_w,
            "group {} W vs member {} W",
            grouped.predicted_w,
            single.predicted_w
        );
    }

    #[test]
    fn poisoned_locks_recover_instead_of_wedging() {
        // A panic while holding a stats/budget/predictor lock poisons it;
        // every read and write through those locks must recover (the data
        // is a monotone accumulator or a per-device reservation, stale at
        // worst) instead of cascading the panic into all later requests.
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 1), 1);
        sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 1)))
            .recv()
            .unwrap();
        let inner = Arc::clone(&sched.inner);
        let _ = std::thread::spawn(move || {
            let _accum = inner
                .device_accum
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let _load = inner.load_w.lock().unwrap_or_else(PoisonError::into_inner);
            let _predictor = inner
                .predictor
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            panic!("deliberately poison the scheduler locks");
        })
        .join();
        assert!(sched.inner.device_accum.is_poisoned());
        assert!(sched.inner.load_w.is_poisoned());
        // Reads recover...
        assert_eq!(sched.device_stats()[0].jobs, 1);
        assert!(sched.model_stats()[0].observations >= 1);
        // ...and so does the full serving path, fresh and cached. A fresh
        // job reserves its budget slot through the poisoned lock and must
        // release it the same way, or the device stays taken for good.
        let fresh = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 2)))
            .recv();
        assert!(fresh.is_ok(), "{fresh:?}");
        assert_eq!(*lock_clean(&sched.inner.load_w), vec![0.0], "slot leaked");
        let hit = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 1)))
            .recv()
            .unwrap();
        assert!(hit.cache_hit);
        assert_eq!(sched.device_stats()[0].jobs, 2);
    }

    #[test]
    fn cold_auto_submit_walks_each_member_seed_once() {
        // A 2-member, 3-seed group computes exactly its 6 units: seed 0 in
        // the features stage (read again by pricing and execution), seeds
        // 1-2 in execution, nothing twice.
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let req = quick(PatternKind::Gaussian, 61)
            .with_seeds(3)
            .with_group(vec![GemmDims::square(64), GemmDims::square(96)]);
        let r = sched.submit(FleetJob::new(req.clone())).recv().unwrap();
        assert_eq!(r.prediction, Some(PredictionSource::Analytic));
        assert_eq!(sched.probed_requests(), 1, "one analytic pricing");
        assert_eq!(sched.inner.cache.unit_len(), 6);
        for (m, ord) in member_ordinals(&req) {
            for s in 0..3 {
                let unit = sched
                    .inner
                    .cache
                    .peek_unit(unit_key(&req, m, ord, s))
                    .expect("every (member, seed) unit is stored");
                assert_eq!(unit.computed_by, r.request_id);
                assert_eq!(unit.chunk.is_some(), s == 0);
            }
        }
        assert_eq!(r.member_cached, vec![false, false]);
        // A predict, a repeat and a seed-count variant walk nothing.
        sched.predict(&FleetJob::new(req.clone())).unwrap();
        sched.submit(FleetJob::new(req.clone())).recv().unwrap();
        let variant = sched
            .submit(FleetJob::new(req.with_seeds(2)))
            .recv()
            .unwrap();
        assert!(!variant.cache_hit);
        assert_eq!(variant.member_cached, vec![true, true]);
        assert_eq!(sched.inner.cache.unit_len(), 6);
    }

    #[test]
    fn id_less_predict_traces_under_a_fresh_request_id() {
        // A library predict without a request id gets the next one, as
        // `submit` does: its spans and units carry that id, never 0.
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let req = quick(PatternKind::Gaussian, 83)
            .with_group(vec![GemmDims::square(64), GemmDims::square(96)]);
        sched.predict(&FleetJob::new(req.clone())).unwrap();
        let spans = sched.tracer().snapshot(None, usize::MAX);
        let stages: Vec<&str> = spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![stage::FEATURES, stage::PRICING]);
        let rid = spans[0].request_id;
        assert_ne!(rid, 0);
        assert_eq!(spans[1].request_id, rid);
        for (m, ord) in member_ordinals(&req) {
            let unit = sched
                .inner
                .cache
                .peek_unit(unit_key(&req, m, ord, 0))
                .expect("predict walks every seed-0 unit");
            assert_eq!(unit.computed_by, rid);
        }
        // The next request is a different one, so its members are cached.
        let r = sched.submit(FleetJob::new(req)).recv().unwrap();
        assert!(r.request_id > rid);
        assert_eq!(r.member_cached, vec![true, true]);
    }

    #[test]
    fn members_walked_in_the_own_features_stage_are_residue() {
        // One store serves features, pricing and execution, so by the time
        // a fresh group executes even its unseen member's seed-0 unit is
        // ready — computed by this very request in its features stage.
        // Provenance, not presence, decides: that member is residue.
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let template = || quick(PatternKind::Gaussian, 71);
        sched
            .submit(FleetJob::new(template().with_shape(GemmDims::square(64))))
            .recv()
            .unwrap();
        let before = sched.stats();
        let r = sched
            .submit(FleetJob::new(
                template().with_group(vec![GemmDims::square(64), GemmDims::square(96)]),
            ))
            .recv()
            .unwrap();
        assert_eq!(r.member_cached, vec![true, false]);
        let after = sched.stats();
        assert_eq!(after.member_residue_jobs - before.member_residue_jobs, 1);
        assert_eq!(after.member_cache_hits - before.member_cache_hits, 1);
        // The batch path prices — and so walks seed 0 — before it submits;
        // ids are fixed up front, so that walk is still the job's own.
        let before = sched.stats();
        let answers = sched.run_batch(vec![FleetJob::new(
            template().with_group(vec![GemmDims::square(64), GemmDims::square(128)]),
        )]);
        let r = answers[0].as_ref().unwrap();
        assert!(!r.cache_hit);
        assert_eq!(r.member_cached, vec![true, false]);
        let after = sched.stats();
        assert_eq!(after.member_residue_jobs - before.member_residue_jobs, 1);
    }

    #[test]
    fn spans_and_latency_histograms_track_requests() {
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let fresh = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 21)))
            .recv()
            .unwrap();
        let hit = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 21)))
            .recv()
            .unwrap();
        assert!(fresh.request_id > 0, "submit must assign an id");
        assert!(hit.request_id > fresh.request_id, "ids are monotonic");
        let tracer = sched.tracer();
        // The fresh job walked the full lifecycle...
        let stages: Vec<&str> = tracer
            .snapshot(Some(fresh.request_id), usize::MAX)
            .iter()
            .map(|s| s.stage)
            .collect();
        assert_eq!(
            stages,
            vec![
                stage::CACHE_LOOKUP,
                stage::FEATURES,
                stage::PRICING,
                stage::PLACEMENT,
                stage::EXECUTE,
                stage::FEEDBACK,
            ]
        );
        // ...while the cached repeat's trail stops at the lookup.
        let repeat: Vec<SpanRecord> = tracer.snapshot(Some(hit.request_id), usize::MAX);
        assert_eq!(repeat.len(), 1, "{repeat:?}");
        assert_eq!(repeat[0].stage, stage::CACHE_LOOKUP);
        assert!(repeat[0].detail.starts_with("hit"), "{:?}", repeat[0]);
        // Caller-assigned ids are kept, not reassigned.
        let tagged = sched
            .submit(FleetJob::new(quick(PatternKind::Zeros, 5)).with_request_id(4242))
            .recv()
            .unwrap();
        assert_eq!(tagged.request_id, 4242);
        // Every answered job landed exactly one latency observation, in
        // the histogram keyed by its kernel class.
        let gemv = sched
            .submit(FleetJob::new(
                quick(PatternKind::Gaussian, 30).with_kernel(KernelClass::Gemv),
            ))
            .recv()
            .unwrap();
        assert!(!gemv.cache_hit);
        let reg = sched.registry();
        let gemm_hist = reg.histogram("fleet_job_latency_us", &[("kernel", "gemm")]);
        let gemv_hist = reg.histogram("fleet_job_latency_us", &[("kernel", "gemv")]);
        assert_eq!(
            gemm_hist.count() + gemv_hist.count(),
            sched.stats().completed
        );
        assert_eq!(gemv_hist.count(), 1);
        // The hit ratio is a reading of the cache counters, refreshed by
        // an export.
        assert_eq!(reg.gauge("fleet_cache_hit_ratio", &[]).get(), 0.0);
        sched.sync_metrics();
        assert!(reg.gauge("fleet_cache_hit_ratio", &[]).get() > 0.0);
    }

    #[test]
    fn run_batch_accounts_packing_rounds() {
        let fleet = Fleet::builder()
            .device(a100_pcie())
            .device(a100_pcie())
            .power_budget_w(500.0)
            .build();
        let sched = Scheduler::with_workers(fleet, 2);
        let jobs: Vec<FleetJob> = (0..4)
            .map(|i| FleetJob::new(quick(PatternKind::Gaussian, 8800 + i)))
            .collect();
        let mut answers = Vec::new();
        sched.run_batch_rounds(jobs, 77, |round| {
            answers.extend(round.results.into_iter().map(|(_, outcome)| outcome));
        });
        assert_eq!(answers.len(), 4);
        assert!(answers.iter().all(|a| a.is_ok()));
        let s = sched.stats();
        assert_eq!(s.packed_batches, 1);
        assert!(s.pack_rounds >= 1);
        assert_eq!(s.last_batch_rounds, s.pack_rounds);
        let packs: Vec<SpanRecord> = sched
            .tracer()
            .snapshot(Some(77), usize::MAX)
            .into_iter()
            .filter(|sp| sp.stage == stage::PACK)
            .collect();
        assert_eq!(packs.len(), 1);
        assert!(
            packs[0]
                .detail
                .contains(&format!("rounds={}", s.pack_rounds)),
            "{:?}",
            packs[0]
        );
    }

    #[test]
    fn infeasible_jobs_are_rejected_not_queued() {
        let gpu = a100_pcie();
        let idle = gpu.idle_watts;
        let fleet = Fleet::builder().device_with(gpu, 0, idle + 1.0).build();
        let sched = Scheduler::with_workers(fleet, 1);
        let err = sched
            .submit(FleetJob::new(quick(PatternKind::Gaussian, 5)))
            .recv()
            .unwrap_err();
        assert!(matches!(err, FleetError::Infeasible(_)), "{err:?}");
        assert_eq!(sched.stats().failed, 1);
    }
}
