//! # wm-obs — hermetic observability for the serving stack
//!
//! The paper's methodology is measurement-first (100 ms DCGM sampling,
//! warmup trimming, seed averaging); a serving system built on it has to
//! hold itself to the same standard. This crate is the instrumented
//! backbone: no dependencies at all, deterministic output, cheap enough
//! to stay on for every request.
//!
//! * [`histogram`] — [`LogHistogram`], the workspace's one histogram
//!   type: a deterministic, exactly-mergeable log-bucketed sketch, so
//!   shard-local recording merges bit-identically whatever the worker
//!   count. The predictor tracks its lifetime errors in one too.
//! * [`metrics`] — a thread-safe [`Registry`] of named counters, gauges,
//!   and histograms over [`LogHistogram`].
//!   Exposition is a deterministic [`Registry::snapshot`] (for JSON
//!   encoders) or [`Registry::to_prometheus`] (text format).
//! * [`trace`] — per-request lifecycle tracing: a [`Tracer`] hands out
//!   monotonic request ids, stamps spans against a process-local
//!   monotonic clock, and keeps them in a bounded ring buffer that drops
//!   the oldest spans under pressure (observability must never wedge the
//!   serving path). Spans snapshot/drain for a protocol `trace` op.
//!
//! `wm-fleet` threads both through the scheduler and the `wattd`
//! protocol (`metrics`/`trace` ops); `perfbench/` reads the span trail
//! to split each request's time by stage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod metrics;
pub mod trace;

pub use histogram::LogHistogram;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, Registry,
};
pub use trace::{stage, SpanRecord, SpanTimer, Tracer};
