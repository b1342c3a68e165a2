//! Statistics helpers, resource usage, and the result line.

use std::collections::BTreeMap;

/// The end-to-end metrics, printed by every untraced run of every
/// workload: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// The per-layer metrics, printed by every traced run of every workload
/// (0 where a workload does not exercise the layer): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("patterns.generate_us", "us"),
    ("patterns.generate_share", "share"),
    ("patterns.operand_bytes", "bytes"),
    ("kernels.simulate_us", "us"),
    ("kernels.simulate_share", "share"),
    ("kernels.sampled_macs", "count"),
    ("kernels.encoded_bytes", "bytes"),
    ("power.evaluate_us", "us"),
    ("power.evaluate_share", "share"),
    ("telemetry.measure_us", "us"),
    ("telemetry.measure_share", "share"),
    ("telemetry.samples", "count"),
    ("core.run_from_activities_us", "us"),
    ("core.run_from_activities_share", "share"),
    ("predict.features_us", "us"),
    ("predict.features_share", "share"),
    ("predict.feature_bytes", "bytes"),
    ("predict.observe_us", "us"),
    ("predict.observe_share", "share"),
    ("fleet.pricing_us", "us"),
    ("fleet.pricing_share", "share"),
    ("fleet.placement_us", "us"),
    ("fleet.placement_share", "share"),
    ("fleet.placement.learned_share", "share"),
    ("fleet.probed_requests", "count"),
    ("fleet.cache_lookup_us", "us"),
    ("fleet.cache_lookup_share", "share"),
    ("fleet.hash.canonical_key_us", "us"),
    ("fleet.hash.canonical_key_share", "share"),
    ("fleet.cache.hit_ratio", "share"),
    ("fleet.cache.member_hit_ratio", "share"),
    ("fleet.cache.joins", "count"),
    ("fleet.cached_results", "count"),
    ("fleet.queue_wait_us.p50", "us"),
    ("fleet.queue_wait_us.p99", "us"),
    ("fleet.execute_us", "us"),
    ("fleet.execute_share", "share"),
    ("fleet.pack_us", "us"),
    ("fleet.pack_share", "share"),
    ("fleet.steals", "count"),
    ("fleet.worker_busy_share", "share"),
    ("fleet.stage_coverage", "share"),
    ("fleet.member_residue_jobs", "count"),
    ("fleet.peak_committed_w", "W"),
    ("protocol.parse_us", "us"),
    ("protocol.parse_share", "share"),
    ("protocol.job_parse_us", "us"),
    ("protocol.job_parse_share", "share"),
    ("protocol.encode_us", "us"),
    ("protocol.encode_share", "share"),
    ("serve.session_us", "us"),
    ("serve.session_share", "share"),
    ("serve.socket_us", "us"),
    ("serve.socket_share", "share"),
    ("serve.bytes_in", "bytes"),
    ("serve.bytes_out", "bytes"),
    ("bench.request_us", "us"),
    ("bench.request_share", "share"),
    ("bench.tracing_overhead", "share"),
    ("load.window", "count"),
    ("load.open_loop_rps", "req/s"),
    ("load.open_loop_samples", "count"),
    ("load.p50_ms", "ms"),
    ("load.p90_ms", "ms"),
    ("load.p99_ms", "ms"),
    ("load.lateness_us.p50", "us"),
    ("load.lateness_us.p99", "us"),
    ("load.hit_ratio_target", "share"),
    ("obs.spans_dropped", "count"),
    ("process.peak_rss_mb", "MiB"),
];

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Completed operations per block of [`RATE_BLOCK`] completions.
pub const RATE_BLOCK: usize = 100;

/// Throughput of a closed loop from its completion times (microseconds,
/// ascending): the rate of every run of [`RATE_BLOCK`] completions, so the
/// estimate is continuous and a stall skews one block, not the median.
pub fn block_rates(done_us: &[u64]) -> Vec<f64> {
    done_us
        .iter()
        .step_by(RATE_BLOCK)
        .zip(done_us.iter().step_by(RATE_BLOCK).skip(1))
        .map(|(a, b)| RATE_BLOCK as f64 * 1e6 / (b - a).max(1) as f64)
        .collect()
}

/// Latencies are summarised per run of this many consecutive requests, so
/// each run's p99 has ten samples beyond it.
pub const LATENCY_CHUNK: usize = 1000;

/// Latency quantiles of a phase, each the median over chunks of
/// [`LATENCY_CHUNK`] consecutive samples of that chunk's quantile (a
/// trailing partial chunk is dropped unless it is the only one). A stall
/// inflates the tail of the one chunk it falls in instead of the run's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub chunks: usize,
}

pub fn chunked_latency(samples: &[f64]) -> Latency {
    let mut chunks: Vec<&[f64]> = samples.chunks_exact(LATENCY_CHUNK).collect();
    if chunks.is_empty() {
        chunks.push(samples);
    }
    let at = |q: f64| median(&chunks.iter().map(|c| quantile(c, q)).collect::<Vec<_>>());
    Latency {
        p50: at(0.5),
        p90: at(0.9),
        p99: at(0.99),
        chunks: chunks.len(),
    }
}

/// Record a closed loop's latencies as the gated end-to-end metrics.
pub fn set_latency(report: &mut Report, l: Latency) {
    report.set("p50_ms", l.p50);
    report.set("p90_ms", l.p90);
}

/// Record an open loop's latencies, from due time, as per-layer metrics.
pub fn set_open_loop_latency(report: &mut Report, l: Latency) {
    report.set("load.p50_ms", l.p50);
    report.set("load.p90_ms", l.p90);
    report.set("load.p99_ms", l.p99);
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: std::os::raw::c_long,
    usec: std::os::raw::c_long,
}

/// `struct rusage` as Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: std::os::raw::c_long,
    rest: [std::os::raw::c_long; 13],
}

extern "C" {
    fn getrusage(who: std::os::raw::c_int, usage: *mut Rusage) -> std::os::raw::c_int;
    fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
}

/// Make this thread's sleeps end on time: the default 50 us timer slack
/// would make every open-loop send late by that much.
pub fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (the slack in
    // nanoseconds) and only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
    }
}

/// Peak resident memory of this process so far (MiB) and its CPU time
/// (user + system, seconds).
pub fn resource_usage() -> (f64, f64) {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout, and RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return (0.0, 0.0);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (
        usage.maxrss as f64 / 1024.0,
        secs(&usage.utime) + secs(&usage.stime),
    )
}

/// What one run found: its metrics, its output checks and notes.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold (empty when correct).
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one checked operation; `problem` names what was wrong.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// A check on the run as a whole, not on one operation.
    pub fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 20 {
            self.problems.push(problem());
        }
    }

    /// Print the notes, then the one-line JSON result with the chosen
    /// metric set.
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate = {error_rate} share ({} of {} operations)",
            self.failed, self.attempted
        );
        let set = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(*name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn block_rates_measure_each_block() {
        let done: Vec<u64> = (0..=300).map(|i| i * 1000).collect();
        assert_eq!(block_rates(&done), vec![1000.0; 3]);
    }

    #[test]
    fn chunked_latency_takes_the_median_chunk() {
        let mut samples: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        // One stalled chunk does not move the result.
        samples[1000..2000].iter_mut().for_each(|v| *v += 1e6);
        let l = chunked_latency(&samples);
        assert_eq!((l.p50, l.p90, l.p99, l.chunks), (499.0, 899.0, 989.0, 3));
    }

    #[test]
    fn resource_usage_is_positive() {
        let (rss, _cpu) = resource_usage();
        assert!(rss > 0.0);
    }
}
