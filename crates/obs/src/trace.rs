//! Request lifecycle tracing: monotonic request ids, span records, and a
//! bounded ring buffer.
//!
//! Every request admitted by the serving stack gets a process-monotonic
//! id from [`Tracer::next_request_id`]; each lifecycle stage it passes
//! through (parse → cache lookup → feature extraction → pricing →
//! placement → execution → feedback) records a [`SpanRecord`] stamped
//! against the tracer's monotonic clock. Records land in a bounded ring:
//! when it fills, the **oldest** spans are dropped (and counted) — the
//! serving path never blocks or panics on observability pressure. A
//! protocol `trace` op snapshots or drains the ring.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Canonical stage names, so every layer spells the lifecycle the same
/// way and trace consumers can match on them.
pub mod stage {
    /// Protocol-level request parsing and validation.
    pub const PARSE: &str = "parse";
    /// Canonical-hash memo-cache lookup, including the wait on a twin
    /// request still in flight, which the cache joins.
    pub const CACHE_LOOKUP: &str = "cache_lookup";
    /// Input feature extraction: each member's seed-0 unit, read from the
    /// unit store or walked into it, and the merge of their feature
    /// chunks.
    pub const FEATURES: &str = "features";
    /// Power pricing: learned model vs analytic probe.
    pub const PRICING: &str = "pricing";
    /// Device placement and DVFS planning.
    pub const PLACEMENT: &str = "placement";
    /// Execution: budget-slot reservation plus simulation of the units
    /// the store lacks. A joined twin never executes; its wait shows
    /// under `cache_lookup`.
    pub const EXECUTE: &str = "execute";
    /// Predictor training feedback after a fresh run.
    pub const FEEDBACK: &str = "feedback";
    /// Batch power-packing into concurrency rounds.
    pub const PACK: &str = "pack";
    /// Network-session attribution: one span per request served over a
    /// TCP session, carrying `session=<id> op=<op>` in its detail so a
    /// request id resolves to the connection that issued it. `<op>` is a
    /// known op, `other`, `shutdown`, `parse_error` or `oversized`, never
    /// the client's own text.
    pub const SESSION: &str = "session";
}

/// One recorded lifecycle span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request this span belongs to.
    pub request_id: u64,
    /// Lifecycle stage (one of the [`stage`] constants).
    pub stage: &'static str,
    /// Free-form stage outcome (`"hit"`, `"learned"`, `"device=2"`, …).
    pub detail: String,
    /// Start, microseconds since the tracer's epoch (monotonic clock).
    pub start_us: u64,
    /// End, microseconds since the tracer's epoch.
    pub end_us: u64,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// An in-flight span: started against the tracer's clock, recorded on
/// [`SpanTimer::finish`].
#[must_use = "a span only lands in the ring when finished"]
pub struct SpanTimer<'a> {
    tracer: &'a Tracer,
    request_id: u64,
    stage: &'static str,
    start_us: u64,
}

impl SpanTimer<'_> {
    /// Close the span with an outcome detail and record it.
    pub fn finish(self, detail: impl Into<String>) {
        let end_us = self.tracer.now_us();
        self.tracer.record(SpanRecord {
            request_id: self.request_id,
            stage: self.stage,
            detail: detail.into(),
            start_us: self.start_us,
            end_us,
        });
    }
}

/// The request-id allocator, monotonic clock, and span ring buffer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer whose ring holds at most `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 — a tracer that can hold nothing is a
    /// configuration error, not a useful object.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            dropped: AtomicU64::new(0),
        }
    }

    /// The next request id (monotonic, starting at 1).
    pub fn next_request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds since this tracer was created (monotonic clock).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Start a span now; record it by calling [`SpanTimer::finish`].
    pub fn start(&self, request_id: u64, stage: &'static str) -> SpanTimer<'_> {
        SpanTimer {
            tracer: self,
            request_id,
            stage,
            start_us: self.now_us(),
        }
    }

    /// Record a complete span. When the ring is full the oldest spans are
    /// dropped to make room (counted in [`Tracer::dropped`]) — never an
    /// error, never a panic.
    pub fn record(&self, span: SpanRecord) {
        let mut ring = self.lock();
        ring.push_back(span);
        while ring.len() > self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans currently buffered.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Spans evicted by ring pressure since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the buffered spans in arrival order, optionally filtered
    /// to one request id, truncated to the **most recent** `limit`.
    pub fn snapshot(&self, request_id: Option<u64>, limit: usize) -> Vec<SpanRecord> {
        let ring = self.lock();
        let matching: Vec<SpanRecord> = ring
            .iter()
            .filter(|s| request_id.is_none_or(|id| s.request_id == id))
            .cloned()
            .collect();
        let skip = matching.len().saturating_sub(limit);
        matching.into_iter().skip(skip).collect()
    }

    /// Take every buffered span out of the ring (arrival order), leaving
    /// it empty (the protocol `trace` op's `"drain": true`).
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.lock().drain(..).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<SpanRecord>> {
        // Same poison posture as the registry: recover, never wedge.
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotonic_from_one() {
        let t = Tracer::new(16);
        assert_eq!(t.next_request_id(), 1);
        assert_eq!(t.next_request_id(), 2);
        assert_eq!(t.next_request_id(), 3);
    }

    #[test]
    fn spans_record_and_filter() {
        let t = Tracer::new(16);
        let id = t.next_request_id();
        let timer = t.start(id, stage::PARSE);
        timer.finish("run");
        t.start(id, stage::EXECUTE).finish("fresh device=1");
        t.start(99, stage::PARSE).finish("other");
        assert_eq!(t.len(), 3);
        let mine = t.snapshot(Some(id), usize::MAX);
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].stage, stage::PARSE);
        assert_eq!(mine[1].stage, stage::EXECUTE);
        assert!(mine[1].end_us >= mine[1].start_us);
        assert!(mine[0].start_us <= mine[1].start_us, "arrival order");
        // limit keeps the most recent spans.
        let last = t.snapshot(None, 1);
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].detail, "other");
    }

    #[test]
    fn overflow_drops_oldest_without_panicking() {
        let t = Tracer::new(4);
        for i in 0..10u64 {
            t.record(SpanRecord {
                request_id: i,
                stage: stage::EXECUTE,
                detail: String::new(),
                start_us: i,
                end_us: i + 1,
            });
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let kept = t.snapshot(None, usize::MAX);
        let ids: Vec<u64> = kept.iter().map(|s| s.request_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest spans evicted first");
    }

    #[test]
    fn drain_empties_the_ring() {
        let t = Tracer::new(8);
        t.start(1, stage::PARSE).finish("run");
        t.start(2, stage::PARSE).finish("run");
        let drained = t.drain();
        assert_eq!(drained.len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Tracer::new(0);
    }
}
