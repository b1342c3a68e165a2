//! Benchmark-side spans and self-time accounting.
//!
//! A span is a named interval in nanoseconds on one run's clock. Spans of
//! one operation (the benchmark's own span around a public call, plus the
//! stage spans the program records under the same request ids) form a
//! tree by interval containment; a span's **self time** is its duration
//! minus the part of its interval that its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wm_obs::{SpanRecord, Tracer};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The operation this span belongs to (spans of different operations
    /// never nest).
    pub op: u64,
    /// The layer or stage name, e.g. `fleet.execute` or `bench.request`.
    pub name: String,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn new(op: u64, name: impl Into<String>, start: u64, end: u64) -> Self {
        Self {
            op,
            name: name.into(),
            start,
            end: end.max(start),
        }
    }

    fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span of one operation, in input order. Parents are
/// found by containment: the innermost earlier-starting span that still
/// contains a span is its parent (identical intervals nest in input
/// order).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        let (x, y) = (&spans[a], &spans[b]);
        x.start
            .cmp(&y.start)
            .then(y.end.cmp(&x.end))
            .then(a.cmp(&b))
    });
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = stack.last() {
            if spans[top].contains(&spans[i]) {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            children[parent].push((spans[i].start, spans[i].end));
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Per-name totals of self time over many operations.
#[derive(Debug, Default)]
pub struct SelfTimes {
    pub by_name: BTreeMap<String, u64>,
    pub busy: u64,
}

impl SelfTimes {
    /// Account every span, grouped by operation.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut by_op: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for s in spans {
            by_op.entry(s.op).or_default().push(s.clone());
        }
        let mut out = SelfTimes::default();
        for group in by_op.values() {
            for (span, own) in group.iter().zip(self_times(group)) {
                *out.by_name.entry(span.name.clone()).or_default() += own;
                out.busy += own;
            }
        }
        out
    }

    pub fn get(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }

    /// A name's self time as a share of all traced self time.
    pub fn share(&self, name: &str) -> f64 {
        if self.busy == 0 {
            0.0
        } else {
            self.get(name) as f64 / self.busy as f64
        }
    }
}

/// Write the spans as JSON lines.
pub fn write_spans(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"op\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
            s.op, s.name, s.start, s.end
        )?;
    }
    w.flush()
}

/// Drains a tracer's ring every few milliseconds while a traced phase
/// runs, so the ring never overflows.
pub struct Drainer {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<SpanRecord>>,
}

impl Drainer {
    pub fn start(tracer: Arc<Tracer>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut spans = Vec::new();
            while !stopped.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
                spans.extend(tracer.drain());
            }
            spans.extend(tracer.drain());
            spans
        });
        Self { stop, handle }
    }

    /// Stop draining and return every span drained since `start`.
    pub fn finish(self) -> Vec<SpanRecord> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("drainer thread")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100]
        //   lookup [10,20]
        //   execute [30,90]
        //     simulate [40,60]
        //     measure [55,80]   (overlaps simulate: union is [40,80])
        let spans = vec![
            Span::new(1, "request", 0, 100),
            Span::new(1, "lookup", 10, 20),
            Span::new(1, "execute", 30, 90),
            Span::new(1, "simulate", 40, 60),
            Span::new(1, "measure", 55, 80),
        ];
        assert_eq!(self_times(&spans), vec![100 - 10 - 60, 10, 60 - 40, 20, 25]);
        let totals = SelfTimes::from_spans(&spans);
        // Overlapping siblings (parallel work) each keep their own time.
        assert_eq!(totals.busy, 105);
        assert_eq!(totals.get("execute"), 20);
    }

    #[test]
    fn input_order_and_operations_do_not_matter() {
        let a = vec![
            Span::new(1, "child", 5, 7),
            Span::new(2, "other", 0, 50),
            Span::new(1, "root", 0, 10),
        ];
        // Operation 2's span is not a child of operation 1's root even
        // though it covers it.
        let totals = SelfTimes::from_spans(&a);
        assert_eq!(totals.get("root"), 8);
        assert_eq!(totals.get("child"), 2);
        assert_eq!(totals.get("other"), 50);
    }

    #[test]
    fn sibling_after_nested_child_is_not_its_child() {
        let spans = vec![
            Span::new(1, "root", 0, 100),
            Span::new(1, "a", 0, 40),
            Span::new(1, "a.inner", 10, 20),
            Span::new(1, "b", 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 10]);
    }

    #[test]
    fn zero_length_spans_are_harmless() {
        let spans = vec![Span::new(1, "root", 5, 5), Span::new(1, "leaf", 5, 5)];
        assert_eq!(self_times(&spans), vec![0, 0]);
    }
}
