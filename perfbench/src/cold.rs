//! The `serve-cold` workload: an in-process scheduler on the catalog
//! fleet fed fresh, unique requests only, so the memo cache never hits and
//! every request takes the cold path (features, pricing, placement,
//! execution, predictor feedback).

use std::collections::{BTreeMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use wm_core::RunRequest;
use wm_fleet::{Fleet, FleetError, FleetJob, FleetResponse, JobHandle, Scheduler};
use wm_obs::{stage, Registry, SpanRecord, Tracer};
use wm_predict::PowerPredictor;

use crate::gen::{FreshStream, Rng};
use crate::replay::Replay;
use crate::report::{
    block_rates, chunked_latency, median, quantile, resource_usage, set_latency,
    set_open_loop_latency, Report, LATENCY_CHUNK, RATE_BLOCK,
};
use crate::trace::{Drainer, SelfTimes, Span};
use crate::{layer_metrics, setup_median, stage_span, Args, REPLAY_LAYERS_COLD, STAGE_LAYERS};

/// Open-loop arrival rate of the traced run, requests per second, fixed so
/// every run and every commit offers the same load. On a 2-core machine
/// whose capacity drifted between 1,000 and 1,800 req/s it is a third to a
/// half of it.
pub const OPEN_LOOP_RPS: f64 = 500.0;
/// Fresh requests answered during set-up, before anything is timed.
const WARMUP_REQUESTS: usize = 96;
/// A request sent later than this after its due time means the generator
/// fell behind: it counts as failed.
pub const LATE_LIMIT_US: u64 = 100_000;
/// Requests of the traced run replayed below the scheduler.
const REPLAYED: usize = 300;
/// Closed loops of an untraced serve run. Each runs on a fresh scheduler,
/// because the scheduler's caches keep every request they answer: memory
/// stays bounded and every loop starts from the same state.
pub const ROUNDS: u64 = 6;

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

pub fn scheduler() -> Scheduler {
    Scheduler::with_observability(
        Fleet::from_catalog(),
        workers(),
        Arc::new(Registry::new()),
        Arc::new(Tracer::new(wm_fleet::DEFAULT_TRACE_CAPACITY)),
    )
}

/// One answered request.
struct Done {
    rid: u64,
    due_us: u64,
    sent_us: u64,
    done_us: u64,
    device: usize,
    request: Option<RunRequest>,
}

/// Check one answer of a fresh request.
fn check(outcome: &Result<FleetResponse, FleetError>, rid: u64) -> Option<String> {
    match outcome {
        Err(e) => Some(format!("request {rid} failed: {e}")),
        Ok(r) if r.request_id != rid => Some(format!(
            "request {rid} answered under request id {}",
            r.request_id
        )),
        Ok(r) if !(r.measured_w.is_finite() && r.measured_w > 0.0) => Some(format!(
            "request {rid}: measured_w {} is not positive",
            r.measured_w
        )),
        Ok(r) if r.measured_w.to_bits() != r.result.power.mean.to_bits() => Some(format!(
            "request {rid}: measured_w differs from the result's power"
        )),
        Ok(r) if r.cache_hit => Some(format!("fresh request {rid} was answered from cache")),
        Ok(_) => None,
    }
}

/// Keep a window of `window` submissions outstanding until `budget_us`
/// has passed, then drain. Answers are awaited oldest first.
fn closed_loop(
    sched: &Scheduler,
    stream: &mut FreshStream,
    window: usize,
    budget_us: u64,
    keep: usize,
    report: &mut Report,
) -> Vec<Done> {
    let tracer = sched.tracer();
    let end = tracer.now_us() + budget_us;
    let mut inflight: VecDeque<(JobHandle, u64, u64, Option<RunRequest>)> = VecDeque::new();
    let mut done = Vec::new();
    loop {
        while inflight.len() < window && tracer.now_us() < end {
            let req = stream.next_spec().to_request();
            let rid = tracer.next_request_id();
            let kept = (done.len() + inflight.len() < keep).then(|| req.clone());
            let sent = tracer.now_us();
            let handle = sched.submit(FleetJob::new(req).with_request_id(rid));
            inflight.push_back((handle, rid, sent, kept));
        }
        let Some((handle, rid, sent, request)) = inflight.pop_front() else {
            break;
        };
        let outcome = handle.recv();
        let done_us = tracer.now_us();
        report.check(check(&outcome, rid));
        done.push(Done {
            rid,
            due_us: sent,
            sent_us: sent,
            done_us,
            device: outcome.map_or(0, |r| r.device),
            request,
        });
    }
    done
}

/// Closed-loop capacity: median block rate of the completions.
fn capacity(done: &[Done]) -> f64 {
    median(&block_rates(
        &done.iter().map(|d| d.done_us).collect::<Vec<_>>(),
    ))
}

/// Poisson arrivals at [`OPEN_LOOP_RPS`] for `budget_us`, submitted from this thread
/// at their due times; one collector thread awaits answers in submission
/// order, which is the only order the public handle offers.
fn open_loop(
    sched: &Scheduler,
    stream: &mut FreshStream,
    rng: &mut Rng,
    budget_us: u64,
    report: &mut Report,
) -> Vec<Done> {
    let mut plan = Vec::new();
    let mut at = 0.0;
    loop {
        at += rng.exp_gap(OPEN_LOOP_RPS);
        if at * 1e6 >= budget_us as f64 {
            break;
        }
        plan.push(((at * 1e6) as u64, stream.next_spec().to_request()));
    }
    let tracer = sched.tracer();
    let (done, problems) = std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(JobHandle, u64, u64, u64)>();
        let collector = s.spawn(move || {
            let mut done = Vec::new();
            let mut problems = Vec::new();
            for (handle, rid, due_us, sent_us) in rx {
                let outcome = handle.recv();
                let done_us = tracer.now_us();
                problems.push(check(&outcome, rid));
                done.push(Done {
                    rid,
                    due_us,
                    sent_us,
                    done_us,
                    device: outcome.map_or(0, |r| r.device),
                    request: None,
                });
            }
            (done, problems)
        });
        crate::report::tight_timer_slack();
        let start = tracer.now_us();
        for (offset, req) in plan {
            let due = start + offset;
            let now = tracer.now_us();
            if due > now {
                std::thread::sleep(Duration::from_micros(due - now));
            }
            let rid = tracer.next_request_id();
            let sent = tracer.now_us();
            let handle = sched.submit(FleetJob::new(req).with_request_id(rid));
            if tx.send((handle, rid, due, sent)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    for (d, p) in done.iter().zip(problems) {
        let late = d.sent_us.saturating_sub(d.due_us);
        let p = p.or_else(|| {
            (late > LATE_LIMIT_US).then(|| format!("request {} sent {late} us late", d.rid))
        });
        report.check(p);
    }
    done
}

/// Latency from due time, milliseconds, and generator lateness, us.
fn latency_and_lateness(done: &[Done]) -> (Vec<f64>, Vec<f64>) {
    (
        done.iter()
            .map(|d| d.done_us.saturating_sub(d.due_us) as f64 / 1000.0)
            .collect(),
        done.iter()
            .map(|d| d.sent_us.saturating_sub(d.due_us) as f64)
            .collect(),
    )
}

/// What the traced spans of one phase say about the scheduler.
#[derive(Debug, Default)]
struct Accounting {
    /// Benchmark spans plus the stage spans of the phase's requests.
    spans: Vec<Span>,
    /// Submission to first stage span, per request, microseconds.
    queue_waits_us: Vec<f64>,
    /// First stage start to last stage end, summed over requests, us.
    job_busy_us: u64,
    /// Stage self time summed over requests, us.
    stage_self_us: u64,
    pricing_spans: u64,
    learned_spans: u64,
}

/// Pair each answered request with its drained stage spans.
fn account(done: &[Done], records: &[SpanRecord]) -> Accounting {
    let mut by_rid: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for r in records {
        by_rid.entry(r.request_id).or_default().push(r);
    }
    let mut acc = Accounting::default();
    for d in done {
        acc.spans.push(Span::new(
            d.rid,
            "bench.request",
            d.sent_us * 1000,
            d.done_us * 1000,
        ));
        let Some(recs) = by_rid.get(&d.rid) else {
            continue;
        };
        let stages: Vec<Span> = recs.iter().filter_map(|r| stage_span(r, d.rid)).collect();
        let first = recs.iter().map(|r| r.start_us).min().unwrap_or(d.sent_us);
        let last = recs.iter().map(|r| r.end_us).max().unwrap_or(first);
        acc.queue_waits_us
            .push(first.saturating_sub(d.sent_us) as f64);
        acc.job_busy_us += last - first;
        acc.stage_self_us += SelfTimes::from_spans(&stages).busy / 1000;
        for r in recs.iter().filter(|r| r.stage == stage::PRICING) {
            acc.pricing_spans += 1;
            acc.learned_spans += u64::from(r.detail == "learned");
        }
        acc.spans.extend(stages);
    }
    acc
}

/// Scheduler counters over the measured part of the run.
pub fn fleet_counters(report: &mut Report, sched: &Scheduler, before: &wm_fleet::SchedulerStats) {
    let s = sched.stats();
    let hits = s.cache_hits - before.cache_hits;
    let misses = s.cache_misses - before.cache_misses;
    let member_hits = s.member_cache_hits - before.member_cache_hits;
    let residue = s.member_residue_jobs - before.member_residue_jobs;
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    report.set("fleet.cache.hit_ratio", ratio(hits, misses));
    report.set("fleet.cache.member_hit_ratio", ratio(member_hits, residue));
    report.set(
        "fleet.cache.joins",
        (s.dedup_joins - before.dedup_joins) as f64,
    );
    report.set("fleet.cached_results", sched.cached_results() as f64);
    report.set("fleet.probed_requests", sched.probed_requests() as f64);
    report.set("fleet.steals", (s.steals - before.steals) as f64);
    report.set("fleet.member_residue_jobs", residue as f64);
    report.set("fleet.peak_committed_w", sched.peak_committed_w());
    report.set("obs.spans_dropped", sched.tracer().dropped() as f64);
    check_budget(report, sched);
    let budget = sched.fleet().power_budget_w();
    report.note(format!(
        "scheduler: hit ratio {} ({hits} hits, {misses} misses), member hit ratio {} \
         ({member_hits} hits, {residue} residue jobs), peak committed {} W of {budget} W",
        ratio(hits, misses),
        ratio(member_hits, residue),
        sched.peak_committed_w()
    ));
}

/// The scheduler's committed draw never exceeded its fleet's budget.
fn check_budget(report: &mut Report, sched: &Scheduler) {
    let budget = sched.fleet().power_budget_w();
    report.require(sched.peak_committed_w() <= budget, || {
        format!(
            "peak committed draw {} W exceeds the fleet budget {budget} W",
            sched.peak_committed_w()
        )
    });
}

/// Answer `count` fresh requests from `stream` with `window` outstanding.
fn warm_up(sched: &Scheduler, stream: &mut FreshStream, count: usize, window: usize) {
    let mut inflight = VecDeque::new();
    for _ in 0..count {
        inflight.push_back(sched.submit(FleetJob::new(stream.next_spec().to_request())));
        if inflight.len() >= window {
            inflight.pop_front().map(JobHandle::recv);
        }
    }
    inflight.into_iter().for_each(|h| drop(h.recv()));
}

/// A fresh scheduler that has answered the set-up's warm-up requests.
fn warmed_scheduler(seed: u64, window: usize) -> Scheduler {
    let sched = scheduler();
    warm_up(
        &sched,
        &mut FreshStream::new(seed, 1),
        WARMUP_REQUESTS,
        window,
    );
    sched
}

/// The untraced run: [`ROUNDS`] closed loops of equal length, each on a
/// freshly warmed scheduler (the first on set-up's). The CPU stays
/// saturated, so neither the capacity nor the latency depends on how fast
/// an idle core wakes.
fn untraced(args: &Args, report: &mut Report, sched: Scheduler, window: usize, total_us: u64) {
    report.note(format!(
        "serve-cold: {} workers on the catalog fleet ({} devices, budget {} W); {ROUNDS} \
         closed loops with {window} outstanding, {} s in all",
        workers(),
        sched.fleet().len(),
        sched.fleet().power_budget_w(),
        total_us as f64 / 1e6
    ));
    let mut stream = FreshStream::new(args.seed, 2);
    let (mut rates, mut lat, mut cpu_s) = (Vec::new(), Vec::new(), 0.0);
    let mut sched = Some(sched);
    for _ in 0..ROUNDS {
        let sched = sched
            .take()
            .unwrap_or_else(|| warmed_scheduler(args.seed, window));
        let cpu0 = resource_usage().1;
        let done = closed_loop(&sched, &mut stream, window, total_us / ROUNDS, 0, report);
        cpu_s += resource_usage().1 - cpu0;
        rates.extend(block_rates(
            &done.iter().map(|d| d.done_us).collect::<Vec<_>>(),
        ));
        lat.extend(
            done.iter()
                .map(|d| d.done_us.saturating_sub(d.sent_us) as f64 / 1000.0),
        );
        check_budget(report, &sched);
    }
    report.note(format!(
        "closed loops: process CPU {cpu_s} s over {} s wall on {} cores",
        total_us as f64 / 1e6,
        workers()
    ));
    let rps = median(&rates);
    report.set("ops_per_s", rps);
    let l = chunked_latency(&lat);
    set_latency(report, l);
    report.note(format!(
        "capacity_rps = {rps} req/s (median over {} blocks of {RATE_BLOCK} completions; {} \
         requests completed, {window} outstanding); latency from submit p50 {} ms, p90 {} ms, \
         p99 {} ms (medians over {} runs of {LATENCY_CHUNK})",
        rates.len(),
        lat.len(),
        l.p50,
        l.p90,
        l.p99,
        l.chunks
    ));
}

pub fn run(args: &Args, report: &mut Report) {
    let window = 2 * workers();
    let (setup_s, sched) = setup_median(|| warmed_scheduler(args.seed, window));
    report.set("setup_s", setup_s);
    let total_us = (args.seconds * 1e6) as u64;
    if !args.trace {
        untraced(args, report, sched, window, total_us);
        return;
    }
    let tracer = Arc::clone(sched.tracer());
    tracer.drain();
    let before = sched.stats();
    let mut stream = FreshStream::new(args.seed, 2);
    let mut arrivals = Rng::new(args.seed ^ 0xA11);
    let open_us = total_us * 4 / 5;
    let closed_us = total_us - open_us;
    report.note(format!(
        "serve-cold (traced): {} workers on the catalog fleet ({} devices, budget {} W); \
         open loop at {OPEN_LOOP_RPS} req/s for {} s, then closed loop with {window} \
         outstanding for {} s",
        workers(),
        sched.fleet().len(),
        sched.fleet().power_budget_w(),
        open_us as f64 / 1e6,
        closed_us as f64 / 1e6
    ));

    // Open loop: latency at a fixed rate, from each request's due time.
    // It runs first: its traffic is fixed by the seed, so the memory
    // high-water mark taken after it does not depend on capacity.
    let drainer = Drainer::start(Arc::clone(&tracer));
    let open = open_loop(&sched, &mut stream, &mut arrivals, open_us, report);
    let open_records = drainer.finish();
    report.set("process.peak_rss_mb", resource_usage().0);
    let (lat, late) = latency_and_lateness(&open);
    let l = chunked_latency(&lat);
    set_open_loop_latency(report, l);
    report.set("load.window", window as f64);
    report.set("load.open_loop_rps", OPEN_LOOP_RPS);
    report.set("load.open_loop_samples", open.len() as f64);
    report.set("load.lateness_us.p50", quantile(&late, 0.5));
    report.set("load.lateness_us.p99", quantile(&late, 0.99));
    report.note(format!(
        "open loop at {OPEN_LOOP_RPS} req/s: p50 {} ms, p90 {} ms, p99 {} ms from due time (medians \
         over {} runs of {LATENCY_CHUNK} consecutive requests; {} requests); generator \
         lateness p50 {} us, p99 {} us, max {} us",
        l.p50,
        l.p90,
        l.p99,
        l.chunks,
        lat.len(),
        quantile(&late, 0.5),
        quantile(&late, 0.99),
        quantile(&late, 1.0)
    ));

    // Closed loop: an untraced and a traced half, whose difference in
    // capacity is the tracing overhead.
    let half = closed_us / 2;
    // The untraced half still empties the ring, so nothing is dropped.
    let emptier = Drainer::start(Arc::clone(&tracer));
    let plain = closed_loop(&sched, &mut stream, window, half, 0, report);
    drop(emptier.finish());
    let untraced = capacity(&plain);
    let drainer = Drainer::start(Arc::clone(&tracer));
    let closed = closed_loop(&sched, &mut stream, window, half, REPLAYED, report);
    let traced = capacity(&closed);
    report.set("bench.tracing_overhead", 1.0 - traced / untraced);
    report.note(format!(
        "tracing overhead: capacity_rps {untraced} untraced vs {traced} traced"
    ));
    let closed_acc = account(&closed, &drainer.finish());
    let open_acc = account(&open, &open_records);
    let workers_us = workers() as f64 * half as f64;
    report.set(
        "fleet.worker_busy_share",
        closed_acc.job_busy_us as f64 / workers_us,
    );
    report.set(
        "fleet.stage_coverage",
        closed_acc.stage_self_us as f64 / closed_acc.job_busy_us.max(1) as f64,
    );
    let waits: Vec<f64> = closed_acc
        .queue_waits_us
        .iter()
        .chain(&open_acc.queue_waits_us)
        .copied()
        .collect();
    report.set("fleet.queue_wait_us.p50", quantile(&waits, 0.5));
    report.set("fleet.queue_wait_us.p99", quantile(&waits, 0.99));
    let priced = closed_acc.pricing_spans + open_acc.pricing_spans;
    let learned = closed_acc.learned_spans + open_acc.learned_spans;
    report.set(
        "fleet.placement.learned_share",
        learned as f64 / priced.max(1) as f64,
    );
    report.note(format!(
        "closed loop (traced): worker busy share {}, stage self time covers {} of \
         job busy time",
        closed_acc.job_busy_us as f64 / workers_us,
        closed_acc.stage_self_us as f64 / closed_acc.job_busy_us.max(1) as f64
    ));
    let mut spans = closed_acc.spans;
    spans.extend(open_acc.spans);
    let accounted = SelfTimes::from_spans(&spans);
    let ops = (closed.len() + open.len()) as u64;
    layer_metrics(report, &accounted, ops, STAGE_LAYERS);

    let mut replay = Replay::default();
    let mut predictor = PowerPredictor::new();
    for d in closed.iter().filter(|d| d.request.is_some()) {
        let req = d.request.as_ref().expect("kept request");
        replay.request(req, sched.fleet(), d.device, &mut predictor);
    }
    layer_metrics(
        report,
        &SelfTimes::from_spans(&replay.spans),
        replay.ops,
        REPLAY_LAYERS_COLD,
    );
    crate::replay_counts(report, &replay);
    spans.extend(replay.spans);
    crate::finish_trace(args, report, &spans);
    fleet_counters(report, &sched, &before);
}
