//! Fitted input-dependent power models (§V: "a power model would take in
//! different data patterns as inputs ... and estimate the power usage as
//! output").
//!
//! The trainer runs a battery of pattern programs through the simulation
//! pipeline, extracts activity features, and fits a linear model by ridge
//! least squares on [`RidgeFitter`], the solver `wm-predict`'s online
//! models share. A power-aware compiler would consult exactly this object
//! when deciding which computation-preserving transform to apply.

use crate::dsl::PatternProgram;
use wm_analysis::{linear_predict, RidgeFitter};
use wm_bits::Xoshiro256pp;
use wm_gpu::GpuSpec;
use wm_kernels::{simulate, ActivityRecord, GemmConfig, GemmInputs, Sampling};
use wm_numerics::DType;
use wm_power::evaluate;

/// Number of model features (including the intercept).
pub const FEATURE_COUNT: usize = 6;

/// Feature names, aligned with the coefficient vector.
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "intercept",
    "operand_toggles_per_mac",
    "mult_activity_per_mac",
    "accum_toggles_per_mac",
    "nonzero_mac_fraction",
    "dram_toggles_per_word",
];

fn features(act: &ActivityRecord) -> [f64; FEATURE_COUNT] {
    [
        1.0,
        act.operand_toggles_per_mac(),
        act.mult_activity_per_mac,
        act.accum_toggles_per_mac,
        act.nonzero_mac_fraction,
        act.dram_toggles as f64 / act.dram_words.max(1) as f64,
    ]
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct PowerModelTrainer {
    /// Target device.
    pub gpu: GpuSpec,
    /// Datatype the model covers (coefficients are dtype-specific).
    pub dtype: DType,
    /// GEMM dimension used for training runs.
    pub dim: usize,
    /// Seed for operand generation.
    pub seed: u64,
}

impl PowerModelTrainer {
    /// A default training battery spanning every pattern family.
    pub fn default_battery() -> Vec<PatternProgram> {
        [
            "gaussian",
            "gaussian(mean=256, std=1)",
            "gaussian(std=1)",
            "value_set(4)",
            "value_set(64)",
            "constant(77)",
            "constant(77) |> flip_bits(0.25)",
            "constant(77) |> randomize_lsbs(6)",
            "constant(77) |> randomize_msbs(6)",
            "gaussian |> sort_rows(0.5)",
            "gaussian |> sort_rows(1.0)",
            "gaussian |> sort_within_rows(1.0)",
            "gaussian |> sparsify(0.3)",
            "gaussian |> sparsify(0.7)",
            "gaussian |> sort_rows(1.0) |> sparsify(0.3)",
            "gaussian |> zero_lsbs(4)",
            "gaussian |> zero_msbs(4)",
        ]
        .iter()
        .map(|s| PatternProgram::parse(s).expect("battery program must parse"))
        .collect()
    }

    fn run(&self, program: &PatternProgram, salt: u64) -> (ActivityRecord, f64) {
        let mut root = Xoshiro256pp::seed_from_u64(self.seed ^ salt);
        let a = program.generate(self.dtype, self.dim, self.dim, &mut root.fork(0));
        let b = program.generate(self.dtype, self.dim, self.dim, &mut root.fork(1));
        let cfg = GemmConfig::square(self.dim, self.dtype)
            .with_sampling(Sampling::Lattice { rows: 12, cols: 12 });
        let act = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &cfg,
        )
        .activity;
        let power = evaluate(&self.gpu, &act).total_w;
        (act, power)
    }

    /// Train on a battery of programs.
    ///
    /// # Panics
    ///
    /// Panics if fewer programs than features are supplied.
    pub fn train(&self, battery: &[PatternProgram]) -> FittedPowerModel {
        assert!(
            battery.len() >= FEATURE_COUNT,
            "need at least {FEATURE_COUNT} training programs"
        );
        // The tiny ridge keeps collinear feature sets well-posed.
        let mut fitter = RidgeFitter::new(FEATURE_COUNT, 1e-6);
        let mut xs = Vec::with_capacity(battery.len());
        let mut ys = Vec::with_capacity(battery.len());
        for (i, p) in battery.iter().enumerate() {
            let (act, power) = self.run(p, i as u64);
            let x = features(&act);
            fitter.observe(&x, power);
            xs.push(x);
            ys.push(power);
        }
        let coefficients: [f64; FEATURE_COUNT] = fitter
            .solve()
            .and_then(|beta| beta.try_into().ok())
            .expect("a positive ridge penalty keeps the normal equations solvable");
        // Training R².
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean_y) * (y - mean_y)).sum();
        let ss_res: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| {
                let pred = linear_predict(&coefficients, x);
                (y - pred) * (y - pred)
            })
            .sum();
        let r_squared = if ss_tot == 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };
        FittedPowerModel {
            coefficients,
            r_squared,
            trainer: self.clone(),
        }
    }
}

/// A trained input-dependent power model.
#[derive(Debug, Clone)]
pub struct FittedPowerModel {
    /// Linear coefficients, aligned with [`FEATURE_NAMES`].
    pub coefficients: [f64; FEATURE_COUNT],
    /// Coefficient of determination on the training battery.
    pub r_squared: f64,
    trainer: PowerModelTrainer,
}

impl FittedPowerModel {
    /// Predict power from an activity record.
    pub fn predict_activity(&self, act: &ActivityRecord) -> f64 {
        linear_predict(&self.coefficients, &features(act))
    }

    /// Predict the power of an unseen pattern program (generates operands
    /// with `salt`, runs the activity engine, applies the linear model —
    /// no power-model evaluation involved).
    pub fn predict_program(&self, program: &PatternProgram, salt: u64) -> f64 {
        let (act, _) = self.trainer.run(program, salt.wrapping_add(0xF00D));
        self.predict_activity(&act)
    }

    /// Ground-truth power of a program through the full pipeline, for
    /// validation.
    pub fn ground_truth(&self, program: &PatternProgram, salt: u64) -> f64 {
        self.trainer.run(program, salt.wrapping_add(0xF00D)).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_gpu::spec::a100_pcie;

    fn trainer() -> PowerModelTrainer {
        PowerModelTrainer {
            gpu: a100_pcie(),
            dtype: DType::Fp16Tensor,
            dim: 192,
            seed: 11,
        }
    }

    #[test]
    fn training_fits_the_generating_process() {
        let model = trainer().train(&PowerModelTrainer::default_battery());
        // The simulator's power *is* (damped-)linear in these features for
        // unthrottled runs, so the fit must be essentially exact.
        assert!(
            model.r_squared > 0.99,
            "training R^2 {} too low",
            model.r_squared
        );
    }

    #[test]
    fn predictions_generalize_to_unseen_programs() {
        let model = trainer().train(&PowerModelTrainer::default_battery());
        let unseen = [
            "gaussian |> sort_cols(1.0)",
            "gaussian |> sparsify(0.5)",
            "constant(31) |> randomize_lsbs(12)",
            "gaussian(mean=64, std=1)",
        ];
        for src in unseen {
            let p = PatternProgram::parse(src).unwrap();
            let predicted = model.predict_program(&p, 3);
            let truth = model.ground_truth(&p, 3);
            let rel = (predicted - truth).abs() / truth;
            assert!(
                rel < 0.02,
                "{src}: predicted {predicted:.1} W vs truth {truth:.1} W ({rel:.3} rel)"
            );
        }
    }

    #[test]
    fn coefficients_have_physical_signs() {
        let model = trainer().train(&PowerModelTrainer::default_battery());
        // More operand toggles must cost more power.
        assert!(
            model.coefficients[1] > 0.0,
            "operand coefficient {:?}",
            model.coefficients
        );
    }

    #[test]
    #[should_panic(expected = "training programs")]
    fn tiny_batteries_rejected() {
        let battery = vec![PatternProgram::parse("gaussian").unwrap()];
        trainer().train(&battery);
    }
}
