//! End-to-end test of `wattd`'s JSON-lines protocol: a batch of
//! mixed-pattern power queries answered deterministically, with repeats
//! served from the scheduler's memo cache (asserted via the cache-hit
//! counters in the `stats` op).

use std::sync::Arc;

use wattmul_repro::core::RunRequest;
use wattmul_repro::fleet::json::Json;
use wattmul_repro::fleet::{serve, Fleet, FleetJob, Scheduler};
use wattmul_repro::gpu::spec::a100_pcie;
use wattmul_repro::numerics::DType;
use wattmul_repro::patterns::{PatternKind, PatternSpec};

fn serve_lines(sched: &Scheduler, input: &str) -> Vec<Json> {
    let mut out = Vec::new();
    serve(input.as_bytes(), &mut out, sched).expect("in-memory serve cannot fail");
    std::str::from_utf8(&out)
        .expect("responses are utf-8")
        .lines()
        .map(|l| Json::parse(l).expect("every response line is valid JSON"))
        .collect()
}

fn mixed_batch_input() -> String {
    [
        // Mixed patterns, mixed dtypes, one pinned and the rest auto-placed.
        r#"{"id": 1, "dtype": "FP16-T", "dim": 96, "pattern": "gaussian", "seeds": 1, "lattice": 4}"#,
        r#"{"id": 2, "dtype": "FP16-T", "dim": 96, "pattern": "zeros", "seeds": 1, "lattice": 4}"#,
        r#"{"id": 3, "dtype": "INT8", "dim": 96, "pattern": "sparse", "sparsity": 0.5, "seeds": 1, "lattice": 4}"#,
        r#"{"id": 4, "dtype": "FP32", "dim": 96, "pattern": "sorted_rows", "fraction": 1.0, "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
        // Exact repeat of id 1 — must be served from the memo cache.
        r#"{"id": 5, "dtype": "FP16-T", "dim": 96, "pattern": "gaussian", "seeds": 1, "lattice": 4}"#,
        r#"{"id": 6, "op": "stats"}"#,
    ]
    .join("\n")
}

#[test]
fn wattd_answers_mixed_batches_deterministically_with_caching() {
    let sched = Scheduler::with_workers(Fleet::from_catalog(), 2);
    let responses = serve_lines(&sched, &mixed_batch_input());
    assert_eq!(responses.len(), 6);

    // Every run answer is ok and physically plausible.
    for r in &responses[..5] {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        let power = r.get("power_w").unwrap().as_f64().unwrap();
        assert!(power > 0.0 && power < 1000.0, "implausible power {power}");
    }

    // Input-dependence survives the service boundary: zeros < gaussian.
    let power = |r: &Json| r.get("power_w").unwrap().as_f64().unwrap();
    assert!(power(&responses[1]) < power(&responses[0]));

    // The pinned query ran on the A100.
    assert_eq!(
        responses[3].get("gpu").unwrap().as_str().unwrap(),
        "NVIDIA A100 PCIe"
    );

    // The repeat was a cache hit with bit-identical numbers.
    assert_eq!(responses[4].get("cache_hit"), Some(&Json::Bool(true)));
    assert_eq!(responses[0].get("cache_hit"), Some(&Json::Bool(false)));
    assert_eq!(power(&responses[4]), power(&responses[0]));
    assert_eq!(
        responses[4].get("device").unwrap().as_u64(),
        responses[0].get("device").unwrap().as_u64()
    );

    // The scheduler's counters prove the repeat never re-ran `simulate`:
    // 5 run queries, only 4 distinct -> exactly 4 misses, >= 1 hit.
    let stats = &responses[5];
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(stats.get("cache_misses").unwrap().as_u64(), Some(4));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("completed").unwrap().as_u64(), Some(5));
    assert_eq!(stats.get("failed").unwrap().as_u64(), Some(0));
}

#[test]
fn wattd_batch_responses_are_identical_across_fresh_daemons() {
    // Two independent daemons (fresh scheduler, fresh cache, different
    // worker counts) must produce byte-identical answers to the same
    // query stream — determinism of the whole service, not just one run.
    let run = |workers| {
        let sched = Scheduler::with_workers(Fleet::from_catalog(), workers);
        let responses = serve_lines(&sched, &mixed_batch_input());
        // Drop the stats line: counters may legitimately differ in
        // hit-order, but the five run answers may not.
        responses[..5]
            .iter()
            .map(Json::to_string)
            .collect::<Vec<String>>()
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn wattd_batch_op_deduplicates_inside_one_request() {
    let sched = Scheduler::with_workers(Fleet::from_catalog(), 4);
    let input = concat!(
        r#"{"id": 10, "op": "batch", "requests": ["#,
        r#"{"id": "a", "dtype": "FP16", "dim": 64, "pattern": "gaussian", "seeds": 1, "lattice": 4},"#,
        r#"{"id": "b", "dtype": "FP16", "dim": 64, "pattern": "gaussian", "seeds": 1, "lattice": 4},"#,
        r#"{"id": "c", "dtype": "FP16", "dim": 64, "pattern": "constant", "seeds": 1, "lattice": 4},"#,
        r#"{"id": "d", "dim": 64}"#,
        r#"]}"#,
        "\n",
    );
    let responses = serve_lines(&sched, input);
    assert_eq!(responses.len(), 1);
    let results = responses[0].get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 4);
    // a and b are the same query: identical answers, at most one computed.
    let (a, b) = (&results[0], &results[1]);
    assert_eq!(
        a.get("power_w").unwrap().as_f64(),
        b.get("power_w").unwrap().as_f64()
    );
    // The malformed entry fails alone; the rest of the batch succeeds.
    assert_eq!(results[3].get("ok"), Some(&Json::Bool(false)));
    assert!(results[3]
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("dtype"));
    let stats = sched.stats();
    assert_eq!(stats.cache_misses, 2, "a/b deduped, c computed");
    assert_eq!(stats.cache_hits + stats.cache_misses, 3);
}

#[test]
fn infeasible_fleet_budget_rejects_heavy_queries() {
    // A fleet whose budget sits barely above idle (A100 idle: 52 W) can't
    // absorb any GEMM at any clock; the query must be rejected with a
    // protocol-level error, not hang.
    let fleet = Fleet::builder()
        .device(wattmul_repro::gpu::spec::a100_pcie())
        .power_budget_w(54.0)
        .build();
    let sched = Scheduler::with_workers(fleet, 1);
    let responses = serve_lines(
        &sched,
        r#"{"id": 1, "dtype": "FP16-T", "dim": 96, "pattern": "gaussian", "seeds": 1, "lattice": 4}"#,
    );
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
    assert!(responses[0]
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("infeasible"));
}

#[test]
fn a_pinned_run_never_takes_over_an_auto_placed_repeat() {
    // The paper keeps every experiment on one VM instance because moving
    // shifts measured power. Likewise an auto-placed request keeps the
    // device that first answered it: a later run of the same request
    // pinned to another device is an answer of its own, and no repeat of
    // the auto request — single or batched — may come back from there.
    let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
    let (req, first) = (1..64)
        .map(|base_seed| {
            let req = RunRequest::new(
                DType::Fp16Tensor,
                64,
                PatternSpec::new(PatternKind::Gaussian),
            )
            .with_seeds(1)
            .with_base_seed(base_seed);
            let first = sched.submit(FleetJob::new(req.clone())).recv().unwrap();
            (req, first)
        })
        .find(|(_, first)| first.device == 1)
        .expect("some base seed auto-places on device 1");
    assert!(!first.cache_hit);

    let pinned = sched
        .submit(FleetJob::pinned(req.clone(), 0))
        .recv()
        .unwrap();
    assert_eq!(pinned.device, 0);
    assert!(!pinned.cache_hit, "a pinned run has an answer of its own");

    let repeat = sched.submit(FleetJob::new(req.clone())).recv().unwrap();
    let batched = sched.run_batch(vec![FleetJob::new(req)]).remove(0).unwrap();
    for (path, again) in [("submit", &repeat), ("run_batch", &batched)] {
        assert!(again.cache_hit, "{path}: the repeat must replay");
        assert_eq!(
            again.device, first.device,
            "{path}: the repeat answered from device {} at {} W; its first answer was device {} at {} W",
            again.device, again.measured_w, first.device, first.measured_w
        );
        assert!(Arc::ptr_eq(&again.result, &first.result), "{path}");
    }
}
