//! The workspace's one histogram type: a deterministic, exactly-mergeable
//! log-bucketed sketch.
//!
//! A serving stack observes microseconds and seconds in the same stream,
//! and the predictor's absolute percentage errors span fractions of a
//! point to hundreds, so [`LogHistogram`] bins by the value's binary
//! exponent — `SUBDIVISIONS` mantissa slices per power-of-two octave,
//! giving a bounded relative error at every magnitude. Counts are
//! integers only, merges are exact (associative and commutative by
//! construction), and quantile reads are pure functions of the counts,
//! so merged shard-local histograms are bit-identical to a sequential
//! one whatever the worker count. The [`crate::metrics`] registry and
//! the predictor's lifetime error tracking both build on it.

/// Mantissa slices per power-of-two octave in a [`LogHistogram`]: 16
/// slices bound the bucket's upper-edge overestimate to 1/16 ≈ 6.25%
/// relative, far finer than any latency SLO threshold built on top.
const SUBDIVISIONS: u32 = 16;
/// log2(SUBDIVISIONS) — how far a bucket key shifts past the f64
/// mantissa to recover its edge bit pattern.
const SUB_BITS: u32 = SUBDIVISIONS.trailing_zeros();

/// A deterministic, exactly-mergeable log-bucketed histogram over
/// non-negative values (latencies, watts, percentage errors — anything
/// spanning magnitudes).
///
/// Buckets are derived from the observed value's IEEE-754 bit pattern —
/// binary exponent plus the top `log2(SUBDIVISIONS)` mantissa bits — so bucketing
/// involves no transcendental math and is bit-stable across platforms.
/// Counts are integers in a sparse ordered map: merging is exact
/// (associative and commutative), and [`LogHistogram::quantile`] is a
/// pure function of the counts, reported as the conservative upper edge
/// of the bucket containing the rank (never understating).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Sparse bucket counts keyed by `(exponent << SUB_BITS) | slice`.
    counts: std::collections::BTreeMap<u32, u64>,
    total: u64,
    /// Exact extrema (order-independent, so merges stay exact).
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::collections::BTreeMap::new(),
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket key of a non-negative finite value: the f64 bit pattern
    /// truncated to its exponent plus the top mantissa slice. Zero (and
    /// subnormals' low slices) land in key 0.
    fn key(value: f64) -> u32 {
        (value.to_bits() >> (52 - SUB_BITS)) as u32
    }

    /// Upper edge of bucket `key` — the smallest value the *next* bucket
    /// would hold. Exact: reconstructed from the bit pattern.
    fn upper_edge(key: u32) -> f64 {
        f64::from_bits(((key as u64) + 1) << (52 - SUB_BITS))
    }

    /// The key of the bucket whose upper edge is exactly `edge`, if any.
    fn key_of_edge(edge: f64) -> Option<u32> {
        let key = Self::key(edge).checked_sub(1)?;
        (edge > 0.0 && Self::upper_edge(key).to_bits() == edge.to_bits()).then_some(key)
    }

    /// Record one value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or non-finite — observations are
    /// physical quantities (elapsed time, energy) and a negative one is a
    /// caller bug the sketch must not silently absorb.
    pub fn observe(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "observation must be finite and non-negative, got {value}"
        );
        *self.counts.entry(Self::key(value)).or_insert(0) += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn observations(&self) -> u64 {
        self.total
    }

    /// Smallest observed value (0 for an empty histogram).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observed value (0 for an empty histogram).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (e.g. `0.5`, `0.95`, `0.99`) as the upper edge of
    /// the bucket containing it — conservative, never understating, and at
    /// most `1/SUBDIVISIONS` above the true value in relative terms.
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q <= 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (&key, &count) in &self.counts {
            seen += count;
            if seen >= rank {
                return Self::upper_edge(key);
            }
        }
        // rank <= total, so the loop always returns; degrade to the top
        // bucket's edge rather than aborting if that invariant ever broke.
        self.counts
            .keys()
            .next_back()
            .map(|&k| Self::upper_edge(k))
            .unwrap_or(0.0)
    }

    /// Fold another histogram in (exact: integer counts add, extrema
    /// take min/max, so merge order can never change any read).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (&key, &count) in &other.counts {
            *self.counts.entry(key).or_insert(0) += count;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets in ascending order, as `(upper_edge, count)`
    /// pairs — the raw material for text exposition and persistence.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts.iter().map(|(&k, &c)| (Self::upper_edge(k), c))
    }

    /// Rebuild a histogram from its [`Self::buckets`], [`Self::min`] and
    /// [`Self::max`] — their exact inverse, for persistence.
    ///
    /// Returns `Err` (never panics) on parts no histogram produces: an
    /// edge that is not a bucket edge, edges out of ascending order, a
    /// zero count, counts that overflow, or extrema that are NaN,
    /// negative, or outside the first and last buckets. Persisted files
    /// are external input, not caller bugs.
    pub fn from_parts(buckets: &[(f64, u64)], min: f64, max: f64) -> Result<Self, String> {
        let mut h = Self::new();
        for &(edge, count) in buckets {
            let key = Self::key_of_edge(edge).ok_or_else(|| format!("{edge} is no bucket edge"))?;
            if count == 0 {
                return Err(format!("bucket {edge} has a zero count"));
            }
            if h.counts.keys().next_back().is_some_and(|&last| last >= key) {
                return Err(format!("bucket edge {edge} is out of order"));
            }
            h.counts.insert(key, count);
            h.total = h.total.checked_add(count).ok_or("bucket counts overflow")?;
        }
        if !(min.is_finite() && max.is_finite() && 0.0 <= min && min <= max) {
            return Err(format!("bad extrema: min {min}, max {max}"));
        }
        match h.counts.keys().next().zip(h.counts.keys().next_back()) {
            Some((&first, &last)) if Self::key(min) == first && Self::key(max) == last => {
                h.min = min;
                h.max = max;
            }
            // An empty histogram reads 0 for both extrema.
            None if max == 0.0 => {}
            _ => return Err(format!("extrema {min}..{max} disagree with the buckets")),
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_quantiles_bound_the_true_value() {
        let mut h = LogHistogram::new();
        // Latency-like spread: 10 us .. 1 s.
        for i in 1..=1000u64 {
            h.observe(i as f64 * 1000.0);
        }
        assert_eq!(h.observations(), 1000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Conservative: at or above the true quantile, within 1/16.
        assert!(
            (500_000.0..=500_000.0 * (1.0 + 1.0 / 16.0)).contains(&p50),
            "{p50}"
        );
        assert!(
            (990_000.0..=990_000.0 * (1.0 + 1.0 / 16.0)).contains(&p99),
            "{p99}"
        );
        assert!(p50 <= h.quantile(0.95) && h.quantile(0.95) <= p99);
        assert_eq!(h.min(), 1000.0);
        assert_eq!(h.max(), 1_000_000.0);
    }

    #[test]
    fn log_histogram_handles_zero_and_empty() {
        let empty = LogHistogram::new();
        assert_eq!(LogHistogram::default(), empty);
        assert_eq!(empty.quantile(0.95), 0.0);
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.max(), 0.0);
        let mut h = LogHistogram::new();
        h.observe(0.0);
        assert_eq!(h.observations(), 1);
        assert_eq!(h.min(), 0.0);
        // The zero bucket's upper edge is the smallest positive slice —
        // conservative and tiny, never a made-up magnitude.
        assert!(h.quantile(1.0) > 0.0 && h.quantile(1.0) < 1e-300);
    }

    #[test]
    fn log_histogram_merge_is_exact_and_order_free() {
        let values: Vec<f64> = (0..200)
            .map(|i| ((i * 37) % 199) as f64 * 17.5 + 0.25)
            .collect();
        let mut whole = LogHistogram::new();
        for &v in &values {
            whole.observe(v);
        }
        for shards in [2usize, 3, 7] {
            let mut parts: Vec<LogHistogram> = (0..shards).map(|_| LogHistogram::new()).collect();
            for (i, &v) in values.iter().enumerate() {
                parts[i % shards].observe(v);
            }
            // Merge back-to-front so the fold order differs from the
            // observation order.
            let mut merged = LogHistogram::new();
            for p in parts.iter().rev() {
                merged.merge(p);
            }
            assert_eq!(merged, whole, "{shards} shards");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn log_histogram_rejects_negatives() {
        LogHistogram::new().observe(-0.5);
    }

    #[test]
    fn from_parts_inverts_buckets_and_extrema() {
        let mut zero = LogHistogram::new();
        zero.observe(0.0);
        let mut spread = LogHistogram::new();
        for i in 1..=1000u64 {
            spread.observe(i as f64 * 1000.0 + 0.5);
        }
        for h in [LogHistogram::new(), zero, spread.clone()] {
            let buckets: Vec<(f64, u64)> = h.buckets().collect();
            let rebuilt = LogHistogram::from_parts(&buckets, h.min(), h.max());
            assert_eq!(rebuilt.as_ref(), Ok(&h));
        }

        let buckets: Vec<(f64, u64)> = spread.buckets().collect();
        let (min, max) = (spread.min(), spread.max());
        let rejects = |buckets: &[(f64, u64)], min: f64, max: f64| {
            LogHistogram::from_parts(buckets, min, max).is_err()
        };
        let mut off_edge = buckets.clone();
        off_edge[3].0 *= 1.01;
        assert!(
            rejects(&off_edge, min, max),
            "an edge that is not a bucket edge"
        );
        let mut swapped = buckets.clone();
        swapped.swap(3, 4);
        assert!(rejects(&swapped, min, max), "edges out of order");
        let mut zero_count = buckets.clone();
        zero_count[3].1 = 0;
        assert!(rejects(&zero_count, min, max), "a zero count");
        assert!(rejects(&buckets, f64::NAN, max), "a NaN min");
        assert!(rejects(&buckets, min, f64::NAN), "a NaN max");
        assert!(rejects(&buckets, -1.0, max), "a negative min");
        assert!(rejects(&[], -1.0, 0.0), "a negative min, empty");
        assert!(rejects(&buckets, min / 2.0, max), "min below the buckets");
        assert!(rejects(&[], 0.0, 1.0), "extrema without buckets");
    }
}
