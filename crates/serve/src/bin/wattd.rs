//! `wattd` — the fleet power-estimation daemon.
//!
//! Two modes share one fleet/scheduler setup:
//!
//! ```text
//! wattd [fleet flags]                # legacy: JSON-lines on stdin/stdout
//! wattd serve [fleet flags] [--addr HOST:PORT] [--max-sessions N]
//!             [--max-inflight N] [--state-dir DIR] [--snapshot-secs N]
//! ```
//!
//! The stdio mode speaks `wm_fleet::protocol` exactly as before (see that
//! module for the request schema: `run`, `batch`, `predict`,
//! `model_stats`, `stats`, `metrics`, `trace`, `fleet`, `ping`; ragged
//! `"n"`/`"m"`/`"k"` shapes; per-kernel learned models).
//!
//! `wattd serve` lifts the same protocol onto TCP (`wm_serve::Server`):
//! thread-per-connection sessions share one scheduler (fleet, memo
//! cache, predictor, metrics, traces), batches stream one line per
//! packed round, admission past `--max-sessions` gets a clean `busy`
//! line, request lines are length-capped, and `--state-dir` persists the
//! learned power models across restarts (`--snapshot-secs N` additionally
//! flushes the predictor every N seconds while serving, bounding what a
//! crash can lose; `--snapshot-secs 0` explicitly disables the periodic
//! timer and keeps drain-only flushing). SIGTERM/SIGINT (or the
//! `shutdown` op) triggers graceful drain: stop accepting, finish
//! in-flight requests, flush predictor state, exit.
//!
//! Shared fleet flags:
//!
//! ```text
//!   --gpus       comma-separated catalog substrings (default: full catalog)
//!   --budget     fleet-wide concurrent power budget in watts
//!   --cap        per-device power cap in watts (default: each device's TDP)
//!   --workers    scheduler worker threads (default: one per core)
//!   --trace-cap  span ring capacity (default: 65536; oldest spans drop)
//! ```

use std::io::{stdin, stdout, BufWriter};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use wm_fleet::{serve, Fleet, Scheduler, DEFAULT_TRACE_CAPACITY};
use wm_gpu::GpuSpec;
use wm_obs::{Registry, Tracer};
use wm_serve::{ServeConfig, Server};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Stdio,
    Serve,
}

struct Options {
    mode: Mode,
    gpus: Vec<String>,
    budget_w: Option<f64>,
    cap_w: Option<f64>,
    workers: Option<usize>,
    trace_cap: usize,
    // serve
    addr: String,
    max_sessions: usize,
    max_inflight: usize,
    state_dir: Option<PathBuf>,
    snapshot_secs: Option<u64>,
}

fn usage() -> &'static str {
    "usage: wattd [serve] [--gpus a100,h100,...] [--budget WATTS] [--cap WATTS]\n\
     \x20            [--workers N] [--trace-cap SPANS]\n\
     \x20      serve: [--addr HOST:PORT] [--max-sessions N] [--max-inflight N]\n\
     \x20             [--state-dir DIR] [--snapshot-secs N]\n\
     Default mode serves JSON-lines power queries on stdin/stdout; `serve` binds the\n\
     same protocol to TCP with streamed batches; see wm_fleet::protocol and wm_serve docs."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let defaults = ServeConfig::default();
    let mut opts = Options {
        mode: Mode::Stdio,
        gpus: Vec::new(),
        budget_w: None,
        cap_w: None,
        workers: None,
        trace_cap: DEFAULT_TRACE_CAPACITY,
        addr: "127.0.0.1:4815".to_string(),
        max_sessions: defaults.max_sessions,
        max_inflight: defaults.max_inflight,
        state_dir: None,
        snapshot_secs: defaults.snapshot_secs,
    };
    let mut it = args.iter();
    let mut first = true;
    while let Some(arg) = it.next() {
        if first {
            first = false;
            if arg == "serve" {
                opts.mode = Mode::Serve;
                continue;
            }
        }
        let mut value_for = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(str::to_string)
        };
        let parse_count = |flag: &str, value: String| {
            value
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{flag} needs a positive count"))
        };
        // NaN and infinity slip past every comparison `build_fleet` makes;
        // leaving the flag out already means "no limit".
        let parse_watts = |flag: &str, value: String| {
            value
                .parse::<f64>()
                .ok()
                .filter(|w| w.is_finite())
                .ok_or_else(|| format!("{flag} needs a finite number of watts"))
        };
        match arg.as_str() {
            "--gpus" => {
                opts.gpus = value_for("--gpus")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--budget" => {
                opts.budget_w = Some(parse_watts("--budget", value_for("--budget")?)?);
            }
            "--cap" => {
                opts.cap_w = Some(parse_watts("--cap", value_for("--cap")?)?);
            }
            "--workers" => {
                opts.workers = Some(parse_count("--workers", value_for("--workers")?)?);
            }
            "--trace-cap" => {
                opts.trace_cap = parse_count("--trace-cap", value_for("--trace-cap")?)?;
            }
            "--addr" if opts.mode == Mode::Serve => {
                opts.addr = value_for("--addr")?;
            }
            "--max-sessions" if opts.mode == Mode::Serve => {
                opts.max_sessions = parse_count("--max-sessions", value_for("--max-sessions")?)?;
            }
            "--max-inflight" if opts.mode == Mode::Serve => {
                opts.max_inflight = parse_count("--max-inflight", value_for("--max-inflight")?)?;
            }
            "--state-dir" if opts.mode == Mode::Serve => {
                opts.state_dir = Some(PathBuf::from(value_for("--state-dir")?));
            }
            "--snapshot-secs" if opts.mode == Mode::Serve => {
                // 0 is the explicit "disabled" spelling: drain-only
                // flushing, same as omitting the flag, but overriding any
                // wrapper script that injects a default interval — so this
                // flag takes any count, not `parse_count`'s positive ones.
                let secs = value_for("--snapshot-secs")?
                    .parse::<u64>()
                    .map_err(|_| "--snapshot-secs needs a non-negative count".to_string())?;
                opts.snapshot_secs = Some(secs);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn build_fleet(opts: &Options) -> Result<Fleet, String> {
    let gpus: Vec<GpuSpec> = if opts.gpus.is_empty() {
        GpuSpec::catalog()
    } else {
        opts.gpus
            .iter()
            .map(|name| {
                GpuSpec::by_name(name).ok_or_else(|| format!("no catalog GPU matches {name:?}"))
            })
            .collect::<Result<_, _>>()?
    };
    let mut b = Fleet::builder();
    for (vm_id, gpu) in gpus.into_iter().enumerate() {
        let cap = opts.cap_w.unwrap_or(gpu.tdp_watts);
        if cap <= gpu.idle_watts {
            return Err(format!(
                "--cap {cap} W is at or below {}'s idle power ({} W)",
                gpu.name, gpu.idle_watts
            ));
        }
        b = b.device_with(gpu, vm_id as u64, cap);
    }
    if let Some(w) = opts.budget_w {
        if w <= 0.0 {
            return Err("--budget must be positive".to_string());
        }
        b = b.power_budget_w(w);
    }
    Ok(b.build())
}

fn build_scheduler(opts: &Options, fleet: Fleet) -> Scheduler {
    let workers = opts
        .workers
        .unwrap_or_else(|| Scheduler::default_workers(&fleet));
    Scheduler::with_observability(
        fleet,
        workers,
        Arc::new(Registry::new()),
        Arc::new(Tracer::new(opts.trace_cap)),
    )
}

fn print_summary(sched: &Scheduler) {
    let stats = sched.stats();
    eprintln!(
        "wattd: {} completed ({} cache hits, {} misses, {} steals)",
        stats.completed, stats.cache_hits, stats.cache_misses, stats.steals
    );
    for m in sched.model_stats() {
        eprintln!(
            "wattd: model {} [{}]: {} obs, P50 {:.1}% / P95 {:.1}% APE{}",
            m.arch,
            m.kernel,
            m.observations,
            m.p50_ape_pct,
            m.p95_ape_pct,
            if m.ready { ", serving" } else { "" }
        );
    }
}

/// Process-wide termination flag, set by the SIGTERM/SIGINT handler so
/// `wattd serve` drains instead of dying mid-request. Signal plumbing is
/// the binary's job — `wm_serve` itself stays `forbid(unsafe_code)`.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // Only async-signal-safe work happens in the handler (one atomic
        // store); the drain itself runs on a normal watcher thread.
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    pub fn received() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

fn run_serve(opts: &Options, sched: Arc<Scheduler>) -> Result<(), String> {
    let cfg = ServeConfig {
        addr: opts.addr.clone(),
        max_sessions: opts.max_sessions,
        max_inflight: opts.max_inflight,
        max_line_bytes: ServeConfig::default().max_line_bytes,
        state_dir: opts.state_dir.clone(),
        snapshot_secs: opts.snapshot_secs,
    };
    let server = Server::bind(cfg, Arc::clone(&sched)).map_err(|e| format!("cannot bind: {e}"))?;
    match server.warm_start() {
        Some(Ok(models)) => eprintln!("wattd: warm start, {models} learned model(s) restored"),
        Some(Err(why)) => eprintln!("wattd: state file rejected, cold start: {why}"),
        None => {}
    }
    eprintln!(
        "wattd: listening on {} ({} session cap, drain on SIGTERM/SIGINT)",
        server.local_addr(),
        opts.max_sessions,
    );
    let handle = server.handle();
    #[cfg(unix)]
    {
        sig::install();
        let handle = handle.clone();
        std::thread::spawn(move || loop {
            if sig::received() {
                handle.shutdown();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    server.run().map_err(|e| format!("serve failed: {e}"))?;
    eprintln!("wattd: drained");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let fleet = match build_fleet(&opts) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("wattd: {msg}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "wattd: serving {} device(s), budget {:.0} W",
        fleet.len(),
        fleet.power_budget_w()
    );
    let sched = Arc::new(build_scheduler(&opts, fleet));
    let outcome = match opts.mode {
        Mode::Stdio => serve(stdin().lock(), BufWriter::new(stdout().lock()), &sched)
            .map_err(|e| format!("io error: {e}")),
        Mode::Serve => run_serve(&opts, Arc::clone(&sched)),
    };
    print_summary(&sched);
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("wattd: {msg}");
            ExitCode::FAILURE
        }
    }
}
