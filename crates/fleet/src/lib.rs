//! # wm-fleet — multi-GPU fleet scheduling and power-estimation serving
//!
//! The paper makes power a *per-request, input-dependent* quantity: the
//! same GEMM shape can draw anywhere in a ~38% band depending only on its
//! input data. That turns power estimation into a serving workload — and
//! this crate is the serving layer above the single-device
//! [`wm_core::PowerLab`]:
//!
//! * [`device`] — the [`Fleet`] model: N heterogeneous devices, each a
//!   [`wm_gpu::GpuSpec`] plus a [`wm_telemetry::VmInstance`]
//!   process-variation offset and a per-device power cap, under one
//!   fleet-wide power budget.
//! * [`hash`] — canonical hashing of requests, so the cache keys on
//!   semantic request content.
//! * [`cache`] — the sharded [`MemoCache`] with in-flight deduplication:
//!   one [`Answer`] per request and pin, so a repeat is one lookup and
//!   identical queries never run the simulator twice, and one store of
//!   `(member, seed)` [`Unit`]s holding every operand walk
//!   ([`wm_predict::walk_unit`]), which features, the analytic probe and
//!   execution all read.
//! * [`placement`] — power-capped placement: price the request on every
//!   device (learned `wm-predict` models when trained and healthy, the
//!   activity probe + power model otherwise), plan the energy-minimal
//!   clock per device with [`wm_optimizer::plan_dvfs`], and pick the
//!   cheapest device that fits under cap and budget.
//! * [`scheduler`] — the work-stealing [`Scheduler`]: `submit` answers a
//!   cached repeat on the calling thread, and only misses reach the
//!   per-worker deques, where idle workers steal; execution-time budget
//!   backpressure, running stats (cache hits/misses, steals, per-device
//!   utilization/joules), the prediction loop — every fresh run trains
//!   the shared [`wm_predict::PowerPredictor`] — and the predictor-aware
//!   power packer: `run_batch` sifts out cached repeats and pinned jobs,
//!   prices the rest and first-fit-decreasing packs the fleet budget
//!   ([`pack_ffd`]) instead of trickling FIFO.
//!   Grouped-GEMM requests ([`wm_core::RunRequest::with_group`]) flow
//!   through every layer as a single unit: one hash, one answer, one
//!   placement, one priced execution.
//! * [`protocol`] — a JSON-lines power-estimation service (the `wattd`
//!   binary in `wm-serve` speaks it over stdin/stdout or TCP), including
//!   `predict` (power without executing), `model_stats` (predictor
//!   health), `metrics` (the scheduler's `wm-obs` registry as JSON or
//!   Prometheus text), and `trace` (the request-lifecycle span ring) ops.
//!   Every response carries a monotonic `request_id`, and every request
//!   leaves a span trail (parse → cache lookup → features → pricing →
//!   placement → execute → feedback) in the scheduler's bounded trace
//!   ring. Both transports answer a parsed line through the one entry
//!   point [`answer`], which reads its `op` once ([`RequestLine`]) and
//!   streams a `batch` as one response line per packed round when the
//!   batch or the transport asks; a line that never parsed is answered
//!   by [`reject_line`].
//! * [`par`] — an order-preserving `parallel_map` over scoped threads:
//!   the fan-out under batch pricing (of the jobs left to price), unit
//!   walks (of the units not yet in the store), the figure runner and
//!   the GEMV sweeps.
//!
//! ```
//! use wm_fleet::{Fleet, FleetJob, Scheduler};
//! use wm_core::RunRequest;
//! use wm_kernels::Sampling;
//! use wm_numerics::DType;
//! use wm_patterns::{PatternKind, PatternSpec};
//!
//! let sched = Scheduler::new(Fleet::from_catalog());
//! let req = RunRequest::new(DType::Fp16Tensor, 128, PatternSpec::new(PatternKind::Gaussian))
//!     .with_seeds(1)
//!     .with_sampling(Sampling::Lattice { rows: 4, cols: 4 });
//! let first = sched.submit(FleetJob::new(req.clone())).recv().unwrap();
//! let again = sched.submit(FleetJob::new(req)).recv().unwrap();
//! assert!(!first.cache_hit && again.cache_hit);
//! assert_eq!(first.result.power, again.result.power);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod device;
pub mod hash;
pub mod json;
pub mod par;
pub mod placement;
pub mod protocol;
pub mod scheduler;

pub use cache::{Answer, MemoCache, Unit};
pub use device::{Fleet, FleetBuilder, FleetDevice};
pub use hash::{answer_key, canonical_key, request_key, unit_key, CanonicalHasher};
pub use par::parallel_map;
pub use placement::{place, place_learned, Placement, PlacementError, PredictionSource};
pub use protocol::{
    answer, reject_line, serve, BadLine, LineEvent, LineReader, RequestLine, MAX_LINE_BYTES,
};
pub use scheduler::{
    pack_ffd, BatchRound, DeviceStats, FleetError, FleetJob, FleetResponse, JobHandle, PackedRound,
    PredictOutcome, Scheduler, SchedulerStats, DEFAULT_TRACE_CAPACITY,
};
