//! Cross-crate integration: the full pipeline wired manually must agree
//! with the `PowerLab` façade; the figure runner and the fleet scheduler
//! must agree with it too; the DSL must agree with the pattern specs;
//! everything must be deterministic end to end.

use wattmul_repro::optimizer::PatternProgram;
use wattmul_repro::prelude::*;
use wm_bits::Xoshiro256pp;
use wm_kernels::{reference_gemm, simulate, GemmInputs};
use wm_power::evaluate;
use wm_telemetry::{measure, MeasurementConfig};

#[test]
fn manual_wiring_matches_powerlab() {
    let gpu = a100_pcie();
    let dtype = DType::Fp16;
    let dim = 128;
    let spec = PatternSpec::new(PatternKind::Sparse { sparsity: 0.25 });

    // PowerLab path.
    let lab = PowerLab::new(gpu.clone());
    let req = RunRequest::new(dtype, dim, spec)
        .with_seeds(1)
        .with_base_seed(0x5EED)
        .with_sampling(Sampling::Lattice { rows: 8, cols: 8 });
    let lab_result = lab.run(&req);

    // Manual path, mirroring PowerLab's internal seeding contract.
    let mut root = Xoshiro256pp::seed_from_u64(0x5EED ^ 1);
    let a = spec.generate(dtype, dim, dim, &mut root.fork(0));
    let b = spec.generate(dtype, dim, dim, &mut root.fork(1));
    let cfg = GemmConfig::square(dim, dtype).with_sampling(Sampling::Lattice { rows: 8, cols: 8 });
    let outcome = simulate(
        &GemmInputs {
            a: &a,
            b_stored: &b,
            c: None,
        },
        &cfg,
    );
    let breakdown = evaluate(&gpu, &outcome.activity);
    let iterations = ((1.6 / breakdown.t_iter_s).ceil() as u64).max(10);
    let (_, m) = measure(
        &gpu,
        &breakdown,
        iterations,
        lab.vm(),
        root.next_u64(),
        &MeasurementConfig::default(),
    );

    assert_eq!(lab_result.power.values[0], m.mean_power_w);
    assert_eq!(lab_result.breakdown, breakdown);
    assert_eq!(lab_result.activity, outcome.activity);
}

#[test]
fn runner_matches_powerlab_and_the_pinned_scheduler() {
    use wattmul_repro::experiments::runner::{execute, Metric, SweepPoint};
    use wattmul_repro::fleet::{Fleet, FleetJob, Scheduler};

    let base = |kind: PatternKind| {
        RunRequest::new(DType::Fp16Tensor, 64, PatternSpec::new(kind))
            .with_base_seed(0xF1C)
            .with_sampling(Sampling::Lattice { rows: 4, cols: 4 })
    };
    let sparse = base(PatternKind::Sparse { sparsity: 0.5 }).with_seeds(3);
    let twin = GemmDims {
        n: 64,
        m: 48,
        k: 32,
    };
    let grouped = base(PatternKind::Gaussian)
        .with_group(vec![twin, GemmDims::square(32), twin])
        .with_seeds(2);
    let decode = base(PatternKind::Gaussian)
        .with_kernel(KernelClass::Gemv)
        .with_shape(GemmDims { n: 96, m: 1, k: 64 })
        .with_seeds(2);
    let point = |x: f64, request: &RunRequest, gpu: GpuSpec| SweepPoint {
        series: gpu.name.to_string(),
        x,
        request: request.clone(),
        gpu,
        metric: Metric::PowerW,
    };
    let points = vec![
        point(0.0, &sparse, a100_pcie()),
        point(1.0, &grouped, a100_pcie()),
        point(2.0, &decode, a100_pcie()),
        point(3.0, &sparse, h100_sxm5()),
        point(4.0, &grouped, a100_pcie()),
    ];
    let ordinals = wattmul_repro::core::member_ordinals(&grouped);
    assert!(ordinals.contains(&(twin, 1)), "{ordinals:?} has a twin");

    // The serving path: one device per distinct GPU, each provisioned as
    // VM instance 0 like `PowerLab::new`, every point pinned to its device.
    let mut gpus: Vec<GpuSpec> = Vec::new();
    for p in &points {
        if !gpus.contains(&p.gpu) {
            gpus.push(p.gpu.clone());
        }
    }
    let fleet = gpus
        .iter()
        .fold(Fleet::builder(), |b, g| {
            b.device_with(g.clone(), 0, g.tdp_watts)
        })
        .build();
    let jobs = points
        .iter()
        .map(|p| {
            let device = gpus.iter().position(|g| *g == p.gpu).unwrap();
            FleetJob::pinned(p.request.clone(), device)
        })
        .collect();
    let served = Scheduler::new(fleet).run_batch(jobs);

    let executed = execute(points.clone());
    assert_eq!(executed.len(), points.len());
    for ((p, e), s) in points.iter().zip(&executed).zip(served) {
        assert_eq!((e.series.as_str(), e.x), (p.series.as_str(), p.x));
        let lab = PowerLab::new(p.gpu.clone()).run(&p.request);
        assert_eq!(e.result, lab, "runner vs PowerLab at x={}", p.x);
        assert_eq!(
            *s.unwrap().result,
            lab,
            "scheduler vs PowerLab at x={}",
            p.x
        );
        assert_eq!(e.stat.y, lab.power.mean);
    }
    // The H100 point must not be answerable by its A100 twin.
    assert_ne!(executed[3].result.power, executed[0].result.power);
}

#[test]
fn runner_shares_bases_and_still_matches_powerlab() {
    use wattmul_repro::core::member_seed_streams;
    use wattmul_repro::experiments::runner::{execute, Metric, SweepPoint};

    // One dtype, shape and base seed: every Gaussian-fill point below
    // starts its operands from the same base draw per seed and member.
    let request = |spec: PatternSpec| {
        RunRequest::new(DType::Fp16Tensor, 48, spec)
            .with_seeds(2)
            .with_base_seed(0xBA5E)
            .with_sampling(Sampling::Lattice { rows: 4, cols: 4 })
    };
    let of = |kind: PatternKind| request(PatternSpec::new(kind));
    let twin = GemmDims {
        n: 48,
        m: 40,
        k: 48,
    };
    let requests = vec![
        of(PatternKind::Gaussian),
        of(PatternKind::Sparse { sparsity: 0.3 }),
        of(PatternKind::Sparse { sparsity: 0.9 }),
        of(PatternKind::SortedRows { fraction: 1.0 }),
        of(PatternKind::SortedRows { fraction: 0.5 }),
        of(PatternKind::SortedCols { fraction: 1.0 }),
        of(PatternKind::SortedThenSparse { sparsity: 0.4 }),
        of(PatternKind::ZeroLsbs { count: 4 }),
        // A σ override draws another base and must not share.
        request(PatternSpec::new(PatternKind::Gaussian).with_std(21.0)),
        // Member (48³, 0) shares with the plain points; the twins differ.
        of(PatternKind::Sparse { sparsity: 0.5 }).with_group(vec![
            twin,
            GemmDims::square(48),
            twin,
        ]),
        // GEMV's 48 x 48 A operand shares with the GEMMs' A.
        of(PatternKind::Gaussian)
            .with_kernel(KernelClass::Gemv)
            .with_shape(GemmDims { n: 48, m: 1, k: 48 }),
    ];

    // The premise: bases are shared within a seed, and only there.
    let keys = |req: &RunRequest, member: GemmDims, ordinal: u64, seed: u64| {
        member_seed_streams(req, member, ordinal, seed).map(|op| op.base_key())
    };
    let square = GemmDims::square(48);
    let gaussian = keys(&requests[0], square, 0, 0);
    assert_eq!(keys(&requests[6], square, 0, 0), gaussian);
    assert_eq!(keys(&requests[9], square, 0, 0), gaussian);
    assert_eq!(keys(&requests[10], square, 0, 0)[0], gaussian[0]);
    assert_ne!(keys(&requests[8], square, 0, 0)[0], gaussian[0]);
    assert_ne!(keys(&requests[0], square, 0, 1)[0], gaussian[0]);
    assert_ne!(
        keys(&requests[9], twin, 0, 0),
        keys(&requests[9], twin, 1, 0)
    );

    let points: Vec<SweepPoint> = requests
        .iter()
        .enumerate()
        .map(|(i, request)| SweepPoint {
            series: request.pattern_a.label(),
            x: i as f64,
            request: request.clone(),
            gpu: a100_pcie(),
            metric: Metric::PowerW,
        })
        .collect();
    let executed = execute(points.clone());
    assert_eq!(executed.len(), points.len());
    for (p, e) in points.iter().zip(&executed) {
        let lab = PowerLab::new(p.gpu.clone()).run(&p.request);
        assert_eq!(e.result, lab, "runner vs PowerLab for {}", p.series);
    }
}

#[test]
fn dsl_and_pattern_spec_generate_identical_matrices() {
    // The DSL pipeline `gaussian |> sort_rows(f)` consumes the RNG in the
    // same order as PatternKind::SortedRows, so the outputs are identical.
    let dtype = DType::Fp16;
    let spec = PatternSpec::new(PatternKind::SortedRows { fraction: 0.6 });
    let program = PatternProgram::parse("gaussian |> sort_rows(0.6)").unwrap();
    let mut r1 = Xoshiro256pp::seed_from_u64(9);
    let mut r2 = Xoshiro256pp::seed_from_u64(9);
    let from_spec = spec.generate(dtype, 32, 32, &mut r1);
    let from_dsl = program.generate(dtype, 32, 32, &mut r2);
    assert_eq!(from_spec, from_dsl);
}

#[test]
fn engine_full_sampling_reproduces_reference_gemm() {
    // End-to-end numeric correctness through the umbrella crate's
    // re-exports, for every dtype.
    for dtype in DType::ALL {
        let dim = 16;
        let mut root = Xoshiro256pp::seed_from_u64(4);
        let spec = PatternSpec::new(PatternKind::Gaussian);
        let a = spec.generate(dtype, dim, dim, &mut root.fork(0));
        let b = spec.generate(dtype, dim, dim, &mut root.fork(1));
        let cfg = GemmConfig::square(dim, dtype).with_sampling(Sampling::Full);
        let outcome = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &cfg,
        );
        let reference = reference_gemm(&a, &b, None, &cfg);
        for o in &outcome.outputs {
            assert_eq!(
                o.value.to_bits(),
                reference.get(o.row, o.col).to_bits(),
                "{dtype}"
            );
        }
    }
}

#[test]
fn end_to_end_determinism() {
    let lab = PowerLab::new(h100_sxm5());
    let req = RunRequest::new(
        DType::Int8,
        128,
        PatternSpec::new(PatternKind::BitFlips { probability: 0.2 }),
    )
    .with_seeds(2)
    .with_sampling(Sampling::Lattice { rows: 8, cols: 8 });
    let a = lab.run(&req);
    let b = lab.run(&req);
    assert_eq!(a.power, b.power);
    assert_eq!(a.energy_per_iter, b.energy_per_iter);
    assert_eq!(a.runtime, b.runtime);
    assert_eq!(a.measurements, b.measurements);
}

#[test]
fn figure_io_round_trips_through_disk() {
    use wattmul_repro::experiments::{fig1_runtime, write_figure, RunProfile};
    let dir = std::env::temp_dir().join("wattmul_pipeline_io");
    let _ = std::fs::remove_dir_all(&dir);
    let figs = fig1_runtime::run(&RunProfile::TEST);
    let csv_path = write_figure(&dir, &figs[0]).unwrap();
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.lines().count() > 4, "csv should have all dtype rows");
    assert!(csv.starts_with("series,x,y,yerr"));
    let md = std::fs::read_to_string(dir.join("fig1.md")).unwrap();
    assert!(md.contains("FP16-T"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn power_model_predicts_pattern_spec_power() {
    use wattmul_repro::optimizer::PowerModelTrainer;
    let trainer = PowerModelTrainer {
        gpu: a100_pcie(),
        dtype: DType::Int8,
        dim: 128,
        seed: 3,
    };
    let model = trainer.train(&PowerModelTrainer::default_battery());
    assert!(model.r_squared > 0.98, "R^2 {}", model.r_squared);
    let unseen = PatternProgram::parse("gaussian |> sparsify(0.6)").unwrap();
    let predicted = model.predict_program(&unseen, 1);
    let truth = model.ground_truth(&unseen, 1);
    assert!(
        (predicted - truth).abs() / truth < 0.03,
        "predicted {predicted} vs truth {truth}"
    );
}

#[test]
fn throttled_run_reports_capped_power_and_stretched_runtime() {
    let gpu = rtx6000();
    let lab = PowerLab::new(gpu.clone());
    let r = lab.run(
        &RunRequest::new(
            DType::Fp16Tensor,
            2048,
            PatternSpec::new(PatternKind::Gaussian),
        )
        .with_seeds(1)
        .with_sampling(Sampling::Lattice { rows: 8, cols: 8 }),
    );
    assert!(r.throttled);
    assert!(r.breakdown.clock_scale < 1.0);
    // Measured power sits at TDP (plus VM offset and sensor noise).
    assert!((r.power.mean - gpu.tdp_watts).abs() < 8.0);
}
