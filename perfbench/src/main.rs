//! The repository's benchmark: end-to-end and per-layer cost of the
//! reproduction sweep and of the wattd serving stack.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|serve-cold|serve-warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) runs the workload once more with benchmark-side
//! spans, drains the scheduler's stage spans, replays the generated inputs
//! through the layers below the scheduler, writes every span to
//! `perfbench/out/`, and prints the per-layer metrics. The last line of
//! standard output is always the JSON result; see `perfbench/README.md`.

mod cold;
mod gen;
mod replay;
mod report;
mod sweep;
mod trace;
mod warm;

use std::time::Instant;

use wm_obs::SpanRecord;

use crate::replay::Replay;
use crate::report::{median, resource_usage, Report};
use crate::trace::{SelfTimes, Span};

/// Set-up is repeated this many times per run; the median is reported.
const SETUP_REPEATS: usize = 9;

/// Layers the replay measures on the sweep (no scheduler spans there).
pub const REPLAY_LAYERS_SWEEP: &[&str] = &[
    "patterns.generate",
    "kernels.simulate",
    "power.evaluate",
    "telemetry.measure",
    "core.run_from_activities",
    "predict.features",
    "predict.observe",
    "fleet.hash.canonical_key",
];

/// Layers below the scheduler, measured by replay on serve-cold.
pub const REPLAY_LAYERS_COLD: &[&str] = &[
    "patterns.generate",
    "kernels.simulate",
    "power.evaluate",
    "telemetry.measure",
    "core.run_from_activities",
    "fleet.hash.canonical_key",
];

/// Layers below the session, measured by replay on serve-warm.
pub const REPLAY_LAYERS_WARM: &[&str] = &[
    "protocol.parse",
    "protocol.encode",
    "fleet.hash.canonical_key",
];

/// Layers measured from the traced run's spans on the serve workloads.
pub const STAGE_LAYERS: &[&str] = &[
    "bench.request",
    "serve.socket",
    "serve.session",
    "protocol.job_parse",
    "fleet.pack",
    "fleet.cache_lookup",
    "predict.features",
    "fleet.pricing",
    "fleet.placement",
    "fleet.execute",
    "predict.observe",
];

/// The per-layer name of a scheduler or session stage span.
pub fn stage_layer(stage: &str) -> Option<&'static str> {
    Some(match stage {
        wm_obs::stage::PARSE => "protocol.job_parse",
        wm_obs::stage::CACHE_LOOKUP => "fleet.cache_lookup",
        wm_obs::stage::FEATURES => "predict.features",
        wm_obs::stage::PRICING => "fleet.pricing",
        wm_obs::stage::PLACEMENT => "fleet.placement",
        wm_obs::stage::EXECUTE => "fleet.execute",
        wm_obs::stage::FEEDBACK => "predict.observe",
        wm_obs::stage::PACK => "fleet.pack",
        wm_obs::stage::SESSION => "serve.session",
        _ => return None,
    })
}

/// A drained scheduler span as a benchmark span (tracer microseconds to
/// nanoseconds), under operation `op`.
pub fn stage_span(rec: &SpanRecord, op: u64) -> Option<Span> {
    stage_layer(rec.stage).map(|name| Span::new(op, name, rec.start_us * 1000, rec.end_us * 1000))
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    };
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

/// Run `f` [`SETUP_REPEATS`] times, dropping each result before the next
/// attempt; return the median wall time in seconds and the last result.
pub fn setup_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Per-op self time (microseconds) and share of `accounted`'s busy time
/// of each named layer.
pub fn layer_metrics(report: &mut Report, accounted: &SelfTimes, ops: u64, names: &[&str]) {
    for name in names {
        let per_op_us = accounted.get(name) as f64 / 1000.0 / ops.max(1) as f64;
        report.set(&format!("{name}_us"), per_op_us);
        report.set(&format!("{name}_share"), accounted.share(name));
    }
}

/// The counts the replay takes from shapes and results, per op.
pub fn replay_counts(report: &mut Report, replay: &Replay) {
    let per_op = |v: u64| v as f64 / replay.ops.max(1) as f64;
    report.set("patterns.operand_bytes", per_op(replay.operand_bytes));
    report.set("kernels.encoded_bytes", per_op(replay.encoded_bytes));
    report.set("kernels.sampled_macs", per_op(replay.sampled_macs));
    report.set("predict.feature_bytes", per_op(replay.feature_bytes));
    report.set("telemetry.samples", per_op(replay.telemetry_samples));
    report.note(format!(
        "replay: {} ops; byte counts are computed from operand shapes \
         (f32 storage for operand_bytes, the dtype's width for encoded_bytes)",
        replay.ops
    ));
}

/// Write the traced run's spans and print the per-layer table.
pub fn finish_trace(args: &Args, report: &mut Report, spans: &[Span]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match trace::write_spans(&path, &args.workload, spans) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
    let mut table = String::from("per-layer (self time per op, share of traced busy time):");
    for (name, _unit) in report::PER_LAYER {
        if let Some(us) = name.strip_suffix("_us") {
            let v = report.metrics.get(*name).copied().unwrap_or(0.0);
            if v > 0.0 {
                let share = report
                    .metrics
                    .get(&format!("{us}_share"))
                    .copied()
                    .unwrap_or(0.0);
                table.push_str(&format!("\n  {name:<32} {v:>12.3} us  {share:>7.4}"));
            }
        }
    }
    report.note(table);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "sweep" => sweep::run(&args, &mut report),
        "serve-cold" => cold::run(&args, &mut report),
        "serve-warm" => warm::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (sweep, serve-cold, serve-warm)");
            std::process::exit(2);
        }
    }
    let (rss_mb, cpu_s) = resource_usage();
    let peak = *report
        .metrics
        .entry("process.peak_rss_mb".to_string())
        .or_insert(rss_mb);
    report.note(format!(
        "peak_rss_mb = {peak} MiB; process CPU {cpu_s} s on {} cores",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    report.print(args.trace);
}
