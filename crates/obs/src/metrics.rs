//! The metrics registry: named counters, gauges, and mergeable
//! histograms with deterministic exposition.
//!
//! A metric is identified by a name plus a sorted label set; handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones that
//! bypass the registry lock on the hot path (counters and gauges are
//! single atomics; histograms take one short mutex per observation).
//! Exposition walks the registry in key order, so two registries holding
//! the same observations render byte-identically — however many workers
//! recorded them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::histogram::LogHistogram;

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the count. For a *reading* of a count another owner
    /// keeps and the registry cannot (a trace ring's drops, a predictor's
    /// observations), refreshed at export time. A count the caller itself
    /// keeps belongs in the counter directly, via [`Counter::add`].
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: the latest value of some instantaneous quantity.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram handle over a shared [`LogHistogram`].
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Mutex<LogHistogram>>);

impl Histogram {
    /// Record one observation (see [`LogHistogram::observe`]).
    pub fn observe(&self, value: f64) {
        self.lock().observe(value);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.lock().observations()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogHistogram> {
        // A panic mid-`observe` cannot leave the sketch inconsistent
        // (counts are updated atomically from the caller's view), so a
        // poisoned lock is recovered, never propagated: metrics must not
        // take the serving path down.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

enum Entry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time reading of one histogram, pre-digested for export.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Conservative P50 (bucket upper edge).
    pub p50: f64,
    /// Conservative P95.
    pub p95: f64,
    /// Conservative P99.
    pub p99: f64,
    /// Non-empty buckets in ascending order: `(upper_edge, count)`.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    fn of(h: &LogHistogram) -> Self {
        let quantile = |q| {
            if h.observations() == 0 {
                0.0
            } else {
                h.quantile(q)
            }
        };
        Self {
            count: h.observations(),
            min: h.min(),
            max: h.max(),
            p50: quantile(0.5),
            p95: quantile(0.95),
            p99: quantile(0.99),
            buckets: h.buckets().collect(),
        }
    }
}

/// The value side of one exported metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(f64),
    /// A histogram reading.
    Histogram(HistogramSnapshot),
}

/// One exported metric: name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: MetricValue,
}

/// One registered metric: its name, sorted labels, and live handle.
type RegisteredEntry = (String, Vec<(String, String)>, Entry);

/// The metrics registry. Cheap to share (`Arc<Registry>`); handles
/// returned by [`Registry::counter`] and friends are get-or-create, so
/// any component may ask for a metric by name without coordination.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, RegisteredEntry>>,
}

/// Render the registry key: `name{k="v",…}` with labels sorted by key —
/// one canonical spelling per metric identity.
fn render_key(name: &str, labels: &[(&str, &str)]) -> (String, Vec<(String, String)>) {
    assert!(
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && !name.starts_with(|c: char| c.is_ascii_digit()),
        "metric name must match [a-zA-Z_][a-zA-Z0-9_]*, got {name:?}"
    );
    let mut sorted: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    sorted.sort();
    (format_key(name, &sorted), sorted)
}

fn format_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={:?}", v)).collect();
    format!("{name}{{{}}}", inner.join(","))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the same name+labels is already registered as a
    /// different metric type (a programming error, not a runtime state).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.entry(name, labels, || Entry::Counter(Counter::default())) {
            Entry::Counter(c) => c.clone(),
            // audit:allow(panic-paths): documented fail-fast on a metric type conflict, a programming error
            other => panic!("{name:?} is registered as a {}", other.kind()),
        }
    }

    /// Get or create the gauge `name{labels}` (see [`Registry::counter`]
    /// for the type-conflict contract).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.entry(name, labels, || Entry::Gauge(Gauge::default())) {
            Entry::Gauge(g) => g.clone(),
            // audit:allow(panic-paths): documented fail-fast on a metric type conflict, a programming error
            other => panic!("{name:?} is registered as a {}", other.kind()),
        }
    }

    /// Get or create the histogram `name{labels}` (see
    /// [`Registry::counter`] for the type-conflict contract).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.entry(name, labels, || Entry::Histogram(Histogram::default())) {
            Entry::Histogram(h) => h.clone(),
            // audit:allow(panic-paths): documented fail-fast on a metric type conflict, a programming error
            other => panic!("{name:?} is registered as a {}", other.kind()),
        }
    }

    fn entry(&self, name: &str, labels: &[(&str, &str)], make: impl FnOnce() -> Entry) -> Entry {
        let (key, sorted) = render_key(name, labels);
        let mut entries = self.lock();
        let (_, _, entry) = entries
            .entry(key)
            .or_insert_with(|| (name.to_string(), sorted, make()));
        match entry {
            Entry::Counter(c) => Entry::Counter(c.clone()),
            Entry::Gauge(g) => Entry::Gauge(g.clone()),
            Entry::Histogram(h) => Entry::Histogram(h.clone()),
        }
    }

    /// A deterministic point-in-time reading of every metric, in key
    /// order. The neutral export format: JSON encoders, the Prometheus
    /// renderer and test assertions all consume this.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        self.lock()
            .values()
            .map(|(name, labels, entry)| MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: match entry {
                    Entry::Counter(c) => MetricValue::Counter(c.get()),
                    Entry::Gauge(g) => MetricValue::Gauge(g.get()),
                    Entry::Histogram(h) => MetricValue::Histogram(HistogramSnapshot::of(&h.lock())),
                },
            })
            .collect()
    }

    /// Prometheus-style text exposition. Deterministic: metrics render in
    /// key order, one `# TYPE` line per metric name, histograms as
    /// cumulative `_bucket{le="…"}` series plus `_count` (no `_sum` —
    /// the registry stores integer counts only, which is what makes its
    /// output bit-identical across worker counts).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for m in self.snapshot() {
            if m.name != last_name {
                let kind = match m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {} {}\n", m.name, kind));
                last_name = m.name.clone();
            }
            let labels = |extra: Option<(&str, String)>| -> String {
                let mut pairs: Vec<String> =
                    m.labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
                if let Some((k, v)) = extra {
                    pairs.push(format!("{k}={v:?}"));
                }
                if pairs.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", pairs.join(","))
                }
            };
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.name, labels(None)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.name, labels(None)));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (edge, count) in &h.buckets {
                        cumulative += count;
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            m.name,
                            labels(Some(("le", format!("{edge}"))))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        m.name,
                        labels(Some(("le", "+Inf".to_string()))),
                        h.count
                    ));
                    out.push_str(&format!("{}_count{} {}\n", m.name, labels(None), h.count));
                }
            }
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, RegisteredEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let r = Registry::new();
        let c = r.counter("requests_total", &[("op", "run")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same identity whatever the label order: one metric.
        let again = r.counter("requests_total", &[("op", "run")]);
        again.inc();
        assert_eq!(c.get(), 6);
        let g = r.gauge("peak_w", &[]);
        g.set(123.5);
        assert_eq!(g.get(), 123.5);
        let h = r.histogram("latency_us", &[("kernel", "gemm")]);
        h.observe(100.0);
        h.observe(200.0);
        assert_eq!(h.count(), 2);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        // Key order: latency_us < peak_w < requests_total.
        assert_eq!(snap[0].name, "latency_us");
        // A registered histogram starts empty, so its extrema are the
        // observed ones, not a zero it was born with.
        let MetricValue::Histogram(latency) = &snap[0].value else {
            panic!("latency_us is a histogram");
        };
        assert_eq!((latency.min, latency.max), (100.0, 200.0));
        assert_eq!(snap[2].name, "requests_total");
        assert_eq!(snap[2].value, MetricValue::Counter(6));
    }

    #[test]
    fn label_order_is_canonicalized() {
        let r = Registry::new();
        let a = r.counter("m", &[("b", "2"), ("a", "1")]);
        let b = r.counter("m", &[("a", "1"), ("b", "2")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "permuted labels are the same metric");
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn type_conflicts_panic() {
        let r = Registry::new();
        r.counter("x", &[]);
        r.gauge("x", &[]);
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_cumulative() {
        let build = |order: &[f64]| {
            let r = Registry::new();
            r.counter("reqs_total", &[("op", "run")]).add(3);
            r.gauge("budget_w", &[]).set(500.0);
            let h = r.histogram("lat_us", &[]);
            for &v in order {
                h.observe(v);
            }
            r.to_prometheus()
        };
        let a = build(&[10.0, 20.0, 10_000.0]);
        let b = build(&[10_000.0, 10.0, 20.0]);
        assert_eq!(a, b, "observation order must not change exposition");
        assert!(a.contains("# TYPE lat_us histogram"), "{a}");
        assert!(a.contains("lat_us_count 3"), "{a}");
        assert!(a.contains("le=\"+Inf\"} 3"), "{a}");
        assert!(a.contains("reqs_total{op=\"run\"} 3"), "{a}");
        assert!(a.contains("budget_w 500"), "{a}");
    }
}
