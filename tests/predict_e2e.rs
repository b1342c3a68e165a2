//! End-to-end test of the prediction subsystem through the `wattd`
//! protocol (the PR's acceptance scenario): a session issues `run`
//! requests until the learned model is trained, then a `predict` for an
//! unseen input must land within 15% of the model-evaluated power — and
//! when observations are adversarially corrupted, the drift fallback
//! must pull the model out of serving and answer analytically instead.

use wattmul_repro::core::RunRequest;
use wattmul_repro::fleet::json::Json;
use wattmul_repro::fleet::{serve, Fleet, Scheduler};
use wattmul_repro::gpu::spec::a100_pcie;
use wattmul_repro::power::evaluate_group;
use wattmul_repro::predict::walk_first_seed;
use wattmul_repro::telemetry::VmInstance;

const DIM: usize = 96;

fn serve_lines(sched: &Scheduler, input: &str) -> Vec<Json> {
    let mut out = Vec::new();
    serve(input.as_bytes(), &mut out, sched).expect("in-memory serve cannot fail");
    std::str::from_utf8(&out)
        .expect("responses are utf-8")
        .lines()
        .map(|l| Json::parse(l).expect("every response line is valid JSON"))
        .collect()
}

/// A `run` line for one of the training input families.
fn run_line(id: u64, pattern: &str, param: &str, base_seed: u64) -> String {
    format!(
        r#"{{"id": {id}, "dtype": "FP16-T", "dim": {DIM}, "pattern": "{pattern}"{param}, "seeds": 1, "lattice": 4, "base_seed": {base_seed}}}"#
    )
}

/// 8 input families x `rounds` seeds of distinct training requests.
fn training_lines(rounds: u64) -> Vec<String> {
    let families: [(&str, &str); 8] = [
        ("gaussian", ""),
        ("sparse", r#", "sparsity": 0.3"#),
        ("sparse", r#", "sparsity": 0.7"#),
        ("sorted_rows", r#", "fraction": 0.5"#),
        ("value_set", r#", "set_size": 8"#),
        ("constant", ""),
        ("zero_lsbs", r#", "count": 6"#),
        ("zeros", ""),
    ];
    let mut lines = Vec::new();
    for round in 0..rounds {
        for (i, (pattern, param)) in families.iter().enumerate() {
            let id = round * 100 + i as u64;
            lines.push(run_line(id, pattern, param, 0xE2E_0000 + id));
        }
    }
    lines
}

/// The analytic ground truth the acceptance bound compares against: the
/// power model evaluated on the request's probe activity, on the fleet's
/// single device (VM instance 0, whose process-variation offset every
/// measurement carries).
fn model_evaluated_watts(req: &RunRequest) -> f64 {
    let gpu = a100_pcie();
    let vm = VmInstance::provision(&gpu, 0);
    evaluate_group(&gpu, &walk_first_seed(req).0).total_w + vm.offset_w
}

fn unseen_request(base_seed: u64) -> RunRequest {
    use wattmul_repro::kernels::Sampling;
    use wattmul_repro::numerics::DType;
    use wattmul_repro::patterns::{PatternKind, PatternSpec};
    RunRequest::new(
        DType::Fp16Tensor,
        DIM,
        PatternSpec::new(PatternKind::Sparse { sparsity: 0.45 }),
    )
    .with_seeds(1)
    .with_base_seed(base_seed)
    .with_sampling(Sampling::Lattice { rows: 4, cols: 4 })
}

#[test]
fn wattd_learns_to_predict_and_drift_fallback_engages() {
    let sched = Scheduler::with_workers(Fleet::builder().device(a100_pcie()).build(), 2);

    // --- Phase 1: train through the protocol with 64 distinct runs. -----
    let mut input = training_lines(8).join("\n");
    input.push('\n');
    let responses = serve_lines(&sched, &input);
    assert_eq!(responses.len(), 64);
    for r in &responses {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        assert_eq!(r.get("cache_hit"), Some(&Json::Bool(false)), "{r}");
    }
    // Every completed run trained the model.
    let stats = serve_lines(&sched, "{\"op\": \"model_stats\"}\n");
    let models = stats[0].get("models").unwrap().as_arr().unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].get("observations").unwrap().as_u64(), Some(64));
    assert_eq!(models[0].get("ready"), Some(&Json::Bool(true)), "{stats:?}");
    assert_eq!(models[0].get("degraded"), Some(&Json::Bool(false)));

    // --- Phase 2: predict an unseen input; nothing executes. ------------
    let unseen = unseen_request(0xD15C);
    let predict_line = format!(
        "{{\"id\": 900, \"op\": \"predict\", \"dtype\": \"FP16-T\", \"dim\": {DIM}, \
         \"pattern\": \"sparse\", \"sparsity\": 0.45, \"seeds\": 1, \"lattice\": 4, \
         \"base_seed\": {}}}\n",
        0xD15C
    );
    let completed_before = sched.stats().completed;
    let pred = &serve_lines(&sched, &predict_line)[0];
    assert_eq!(pred.get("ok"), Some(&Json::Bool(true)), "{pred}");
    assert_eq!(pred.get("source").unwrap().as_str(), Some("learned"));
    assert_eq!(pred.get("model_observations").unwrap().as_u64(), Some(64));
    assert_eq!(
        sched.stats().completed,
        completed_before,
        "predict must not execute a run"
    );
    let predicted_w = pred.get("predicted_w").unwrap().as_f64().unwrap();
    let truth_w = model_evaluated_watts(&unseen);
    let ape = (predicted_w - truth_w).abs() / truth_w;
    assert!(
        ape < 0.15,
        "after 64 observations the learned prediction must be within 15% of \
         the model-evaluated power: predicted {predicted_w:.1} W, model {truth_w:.1} W \
         (APE {:.1}%)",
        ape * 100.0
    );

    // --- Phase 3: adversarially corrupted observations trip drift. ------
    // Replayed "telemetry" contradicting the input features: alternating
    // gross over/under-reads, no law the features could fit.
    for i in 0..24u64 {
        let req = unseen_request(0xBAD_000 + i);
        let honest = model_evaluated_watts(&req);
        let corrupted = if i % 2 == 0 {
            honest * 5.0
        } else {
            honest * 0.2
        };
        sched.record_external(0, &req, corrupted).unwrap();
    }
    let stats = serve_lines(&sched, "{\"op\": \"model_stats\"}\n");
    let m = &stats[0].get("models").unwrap().as_arr().unwrap()[0];
    assert!(
        m.get("drift_events").unwrap().as_u64().unwrap() >= 1,
        "corruption must trip the drift detector: {m}"
    );
    assert_eq!(
        m.get("ready"),
        Some(&Json::Bool(false)),
        "a tripped model must leave serving: {m}"
    );

    // The fallback engages: the same predict now answers analytically —
    // and the analytic number is the power model itself, so it stays
    // accurate while the learned model is out.
    let pred = &serve_lines(&sched, &predict_line)[0];
    assert_eq!(pred.get("ok"), Some(&Json::Bool(true)), "{pred}");
    assert_eq!(pred.get("source").unwrap().as_str(), Some("analytic"));
    let fallback_w = pred.get("predicted_w").unwrap().as_f64().unwrap();
    assert!(
        (fallback_w - truth_w).abs() / truth_w < 0.05,
        "analytic fallback {fallback_w:.1} W vs model {truth_w:.1} W"
    );

    // Run requests keep being answered (and priced analytically) while
    // the model retrains.
    let r = &serve_lines(
        &sched,
        &format!("{}\n", run_line(950, "gaussian", "", 0xF00D)),
    )[0];
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    assert_eq!(
        r.get("predicted_source").unwrap().as_str(),
        Some("analytic")
    );
}

#[test]
fn run_responses_pair_prediction_with_measurement() {
    // The predicted/measured pair is the audit trail the subsystem rides
    // on; check it end to end on a fresh daemon, both before and after
    // the model takes over.
    let sched = Scheduler::with_workers(Fleet::builder().device(a100_pcie()).build(), 2);
    let mut input = training_lines(5).join("\n");
    input.push('\n');
    input.push_str(&run_line(800, "sparse", r#", "sparsity": 0.55"#, 0xAB1E));
    input.push('\n');
    let responses = serve_lines(&sched, &input);
    let (head, tail) = responses.split_at(responses.len() - 1);
    // Untrained phase: analytic estimates, tight against measurement.
    let first = &head[0];
    assert_eq!(
        first.get("predicted_source").unwrap().as_str(),
        Some("analytic")
    );
    // Trained phase: the last request is priced by the learned model and
    // the response carries both numbers for auditing.
    let last = &tail[0];
    assert_eq!(
        last.get("predicted_source").unwrap().as_str(),
        Some("learned"),
        "{last}"
    );
    let predicted = last.get("predicted_w").unwrap().as_f64().unwrap();
    let measured = last.get("measured_w").unwrap().as_f64().unwrap();
    assert!(
        (predicted - measured).abs() / measured < 0.15,
        "learned {predicted:.1} W vs measured {measured:.1} W"
    );
}
