//! # wm-bench — criterion benches, one per paper figure
//!
//! Each bench target regenerates the corresponding figure's data series at
//! the `TEST` profile (small matrices, thin sweeps) so `cargo bench`
//! doubles as a smoke-regeneration of every figure while measuring the
//! simulation pipeline's throughput. `engine` micro-benchmarks the hot
//! paths (activity walk, encoding, bus pass); `ablations` measures the
//! power model under the component ablations that
//! `examples/ablation_study.rs` reports.
//!
//! Shared helpers live here so the bench files stay declarative.

#![forbid(unsafe_code)]

use criterion::Criterion;
use std::time::Duration;

/// Standard criterion group configuration: small sample counts, bounded
/// measurement time, so the full bench suite finishes in minutes.
pub fn configure<'c>(
    c: &'c mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'c, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    g.warm_up_time(Duration::from_secs(1));
    g
}
