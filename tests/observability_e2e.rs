//! End-to-end observability acceptance: a mixed-traffic session through
//! the `wattd` protocol must leave a complete, queryable trail — every
//! response carries a request id, `trace` returns each request's span
//! trail (cache hits show a shortened one), and the metrics latency
//! histogram accounts for exactly the completed jobs.

use std::sync::Arc;

use wattmul_repro::fleet::json::Json;
use wattmul_repro::fleet::{serve, Fleet, Scheduler};
use wattmul_repro::obs::{Registry, Tracer};

fn serve_lines(sched: &Scheduler, input: &str) -> Vec<Json> {
    let mut out = Vec::new();
    serve(input.as_bytes(), &mut out, sched).expect("in-memory serve cannot fail");
    std::str::from_utf8(&out)
        .expect("responses are utf-8")
        .lines()
        .map(|l| Json::parse(l).expect("every response line is valid JSON"))
        .collect()
}

fn rid_of(r: &Json) -> u64 {
    r.get("request_id")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("response lacks request_id: {r}"))
}

fn stages(trace: &Json) -> Vec<String> {
    trace
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|s| s.get("stage").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn every_request_leaves_an_accountable_trail() {
    let sched = Scheduler::with_workers(Fleet::from_catalog(), 2);
    let input = [
        // Mixed traffic: fresh runs (auto-placed square, ragged, gemv),
        // an exact repeat (cache hit), an op, and a malformed line.
        r#"{"id": 1, "dtype": "FP16-T", "dim": 64, "pattern": "gaussian", "seeds": 1, "lattice": 4}"#,
        r#"{"id": 2, "dtype": "FP32", "n": 48, "m": 32, "k": 96, "pattern": "zeros", "seeds": 1, "lattice": 4}"#,
        r#"{"id": 3, "kernel": "gemv", "dtype": "FP16-T", "n": 64, "k": 96, "pattern": "gaussian", "seeds": 1, "lattice": 4}"#,
        r#"{"id": 4, "dtype": "FP16-T", "dim": 64, "pattern": "gaussian", "seeds": 1, "lattice": 4}"#,
        r#"{"id": 5, "op": "stats"}"#,
        "definitely not json",
    ]
    .join("\n");
    let responses = serve_lines(&sched, &input);
    assert_eq!(responses.len(), 6);

    // 1. Every response — runs, ops, even the parse error — carries a
    //    distinct monotonic request id.
    let ids: Vec<u64> = responses.iter().map(rid_of).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "ids must be distinct: {ids:?}");
    for r in &responses[..4] {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    }
    assert_eq!(responses[4].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(responses[5].get("ok"), Some(&Json::Bool(false)));

    // 2. The fresh auto-placed run has the complete lifecycle trail.
    let fresh_trace = serve_lines(
        &sched,
        &format!(r#"{{"op": "trace", "request_id": {}}}"#, ids[0]),
    );
    assert_eq!(
        stages(&fresh_trace[0]),
        vec![
            "parse",
            "cache_lookup",
            "features",
            "pricing",
            "placement",
            "execute",
            "feedback"
        ],
        "{}",
        fresh_trace[0]
    );

    // 3. The exact repeat (id 4 = id 1's request) short-circuits: its
    //    trail stops at the cache lookup.
    assert_eq!(responses[3].get("cache_hit"), Some(&Json::Bool(true)));
    let hit_trace = serve_lines(
        &sched,
        &format!(r#"{{"op": "trace", "request_id": {}}}"#, ids[3]),
    );
    assert_eq!(
        stages(&hit_trace[0]),
        vec!["parse", "cache_lookup"],
        "cache hits take the shortened trail: {}",
        hit_trace[0]
    );

    // 4. The parse error's trail is a lone failed parse span.
    let err_trace = serve_lines(
        &sched,
        &format!(r#"{{"op": "trace", "request_id": {}}}"#, ids[5]),
    );
    assert_eq!(stages(&err_trace[0]), vec!["parse"]);

    // 5. The metrics latency histograms account for exactly the
    //    completed jobs — workers record one observation per answer.
    let metrics = &serve_lines(&sched, r#"{"op": "metrics"}"#)[0];
    assert_eq!(metrics.get("ok"), Some(&Json::Bool(true)), "{metrics}");
    let entries = metrics.get("metrics").and_then(Json::as_arr).unwrap();
    let completed = entries
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("fleet_jobs_completed_total"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(completed, 4.0, "{metrics}");
    let latency_count: f64 = entries
        .iter()
        .filter(|m| m.get("name").and_then(Json::as_str) == Some("fleet_job_latency_us"))
        .map(|m| m.get("count").and_then(Json::as_f64).unwrap())
        .sum();
    assert_eq!(
        latency_count, completed,
        "one latency observation per completed job"
    );
    // The gemv run landed in its own kernel label.
    let gemv_count = entries
        .iter()
        .find(|m| {
            m.get("name").and_then(Json::as_str) == Some("fleet_job_latency_us")
                && format!("{m}").contains("gemv")
        })
        .and_then(|m| m.get("count"))
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(gemv_count, 1.0);

    // 6. Prometheus exposition renders the same counters.
    let prom = &serve_lines(&sched, r#"{"op": "metrics", "format": "prometheus"}"#)[0];
    let text = prom.get("text").and_then(Json::as_str).unwrap();
    assert!(text.contains("fleet_jobs_completed_total 4"), "{text}");
    assert!(
        text.contains("# TYPE fleet_job_latency_us histogram"),
        "{text}"
    );
}

/// `n` distinct fresh runs (plus, with `repeat`, a repeat of the first),
/// answered over the stdio protocol without any `metrics` op.
fn run_jobs(sched: &Scheduler, first_seed: u64, n: u64, repeat: bool) {
    let line = |seed: u64| {
        format!(
            r#"{{"dtype": "FP32", "dim": 48, "pattern": "gaussian", "seeds": 1, "lattice": 4, "base_seed": {seed}}}"#
        )
    };
    let mut lines: Vec<String> = (first_seed..first_seed + n).map(line).collect();
    if repeat {
        lines.push(line(first_seed));
    }
    for r in serve_lines(sched, &lines.join("\n")) {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    }
}

#[test]
fn registry_counters_are_the_counts_without_an_export() {
    // No `metrics` op and no `sync_metrics` call: the registry must already
    // read what `stats()` reports, because it is where the counts live.
    let sched = Scheduler::with_workers(Fleet::from_catalog(), 2);
    run_jobs(&sched, 100, 3, true);
    let s = sched.stats();
    assert_eq!(
        (s.completed, s.cache_hits, s.member_residue_jobs),
        (4, 1, 3)
    );
    let read = |name: &str| sched.registry().counter(name, &[]).get();
    assert_eq!(read("fleet_jobs_completed_total"), s.completed);
    assert_eq!(read("fleet_cache_hits_total"), s.cache_hits);
    assert_eq!(
        read("fleet_member_residue_jobs_total"),
        s.member_residue_jobs
    );
}

#[test]
fn schedulers_sharing_a_registry_add_up_their_counts() {
    let registry = Arc::new(Registry::new());
    let build = || {
        Scheduler::with_observability(
            Fleet::from_catalog(),
            1,
            Arc::clone(&registry),
            Arc::new(Tracer::new(1024)),
        )
    };
    let (a, b) = (build(), build());
    run_jobs(&a, 200, 3, false);
    run_jobs(&b, 300, 2, false);
    // Exporting from both must not let the last exporter win.
    a.sync_metrics();
    b.sync_metrics();
    assert_eq!(registry.counter("fleet_jobs_completed_total", &[]).get(), 5);
    assert_eq!(
        a.stats().completed,
        5,
        "stats() reads the registry's totals"
    );
    assert_eq!(b.stats().completed, 5);
}
