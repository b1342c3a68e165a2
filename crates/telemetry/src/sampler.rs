//! The DCGM-like power sampler and measurement summary.

use crate::vm::VmInstance;
use wm_bits::Xoshiro256pp;
use wm_gpu::GpuSpec;
use wm_numerics::Gaussian;
use wm_power::PowerBreakdown;

/// Sampler configuration (the paper's defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementConfig {
    /// Seconds between power samples (paper: 100 ms).
    pub sample_period_s: f64,
    /// Leading seconds discarded as warmup (paper: 500 ms).
    pub warmup_trim_s: f64,
    /// Time constant of the thermal/power warmup ramp.
    pub warmup_tau_s: f64,
    /// One sigma of the high-resolution-clock jitter on per-iteration
    /// runtime measurements, in seconds.
    pub clock_jitter_s: f64,
}

impl Default for MeasurementConfig {
    fn default() -> Self {
        Self {
            sample_period_s: 0.1,
            warmup_trim_s: 0.5,
            warmup_tau_s: 0.15,
            clock_jitter_s: 0.2e-6,
        }
    }
}

impl MeasurementConfig {
    /// Whether `iterations` back-to-back iterations of `t_iter_s` seconds
    /// each run at least one sample period past the warm-up trim: the
    /// condition [`measure`] asserts, for callers that reject a run first.
    pub fn outlasts_trim(&self, t_iter_s: f64, iterations: u64) -> bool {
        t_iter_s * iterations as f64 - self.warmup_trim_s >= self.sample_period_s
    }

    /// The fewest iterations of `t_iter_s` seconds each that
    /// [`MeasurementConfig::outlasts_trim`] accepts.
    pub fn min_iterations(&self, t_iter_s: f64) -> u64 {
        // The quotient may round up by an ulp, so step up from one below.
        let quotient = (self.warmup_trim_s + self.sample_period_s) / t_iter_s;
        let mut n = (quotient.ceil() as u64).saturating_sub(1).max(1);
        while !self.outlasts_trim(t_iter_s, n) {
            n += 1;
        }
        n
    }
}

/// One power sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Sample timestamp from run start, seconds.
    pub t_s: f64,
    /// Measured board power, watts.
    pub watts: f64,
}

/// The full sampled trace of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    /// All samples, including the warmup that summaries trim.
    pub samples: Vec<PowerSample>,
    /// The configured sample period.
    pub sample_period_s: f64,
}

/// Append `v` as fixed-point with exactly three decimals and `.` as the
/// decimal separator, rendered from integer milli-units. Rust's float
/// formatting is locale-independent today, but the CSV contract (header
/// row, dot separator, no grouping, no exponents) is load-bearing for
/// downstream parsers, so the writer makes it structural rather than
/// incidental — and skips the per-row `format!` allocation.
fn push_fixed3(out: &mut String, v: f64) {
    use std::fmt::Write;
    debug_assert!(v.is_finite(), "trace values are finite by construction");
    let v = if v.is_finite() { v } else { 0.0 };
    if v < 0.0 {
        out.push('-');
    }
    let millis = (v.abs() * 1000.0).round() as u128;
    let _infallible = write!(out, "{}.{:03}", millis / 1000, millis % 1000);
}

impl PowerTrace {
    /// Serialize as a two-column CSV with a header row (`t_s,watts`).
    ///
    /// Formatting is locale-stable by construction: every value is
    /// `-?digits.digits` with exactly three decimals, a `.` separator, and
    /// no grouping — whatever the process locale says.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 24 + 16);
        out.push_str("t_s,watts\n");
        for s in &self.samples {
            push_fixed3(&mut out, s.t_s);
            out.push(',');
            push_fixed3(&mut out, s.watts);
            out.push('\n');
        }
        out
    }
}

/// Summary statistics over the retained (post-trim) samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Mean power over retained samples, watts.
    pub mean_power_w: f64,
    /// Sample standard deviation of retained samples, watts.
    pub std_power_w: f64,
    /// Number of retained samples.
    pub samples_used: usize,
    /// Total simulated run time, seconds.
    pub total_time_s: f64,
    /// Iterations executed.
    pub iterations: u64,
    /// Mean measured per-iteration runtime (clock jitter included), s.
    pub t_iter_mean_s: f64,
    /// Std of the measured per-iteration runtime, s.
    pub t_iter_std_s: f64,
    /// Energy per iteration: mean power x mean iteration time, joules.
    pub energy_per_iter_j: f64,
    /// Whether the device throttled during the run.
    pub throttled: bool,
    /// Average GPU utilization percentage (duty cycle).
    pub utilization_pct: f64,
}

/// Run the measurement pipeline over `iterations` back-to-back GEMM
/// iterations whose steady state is `power`.
///
/// The seed controls sensor noise and clock jitter only; the VM instance
/// carries the process-variation offset. Power before the steady state
/// follows `P(t) = P_steady - (P_steady - P_idle) * exp(-t / tau)`.
///
/// # Panics
///
/// Panics if `iterations == 0` or the run is too short to retain a single
/// post-trim sample (increase the iteration count — the paper runs 10k+).
pub fn measure(
    spec: &GpuSpec,
    power: &PowerBreakdown,
    iterations: u64,
    vm: &VmInstance,
    seed: u64,
    cfg: &MeasurementConfig,
) -> (PowerTrace, Measurement) {
    assert!(iterations > 0, "cannot measure zero iterations");
    let total_time_s = power.t_iter_s * iterations as f64;
    assert!(
        cfg.outlasts_trim(power.t_iter_s, iterations),
        "run of {total_time_s:.3}s is too short for the {:.1}s trim — raise iterations",
        cfg.warmup_trim_s
    );

    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ vm.id.rotate_left(32));
    let mut noise = Gaussian::new(0.0, spec.sensor_noise_watts);
    let steady = power.total_w + vm.offset_w;
    let idle = spec.idle_watts + vm.offset_w;

    let n_samples = (total_time_s / cfg.sample_period_s).floor() as usize;
    let mut samples = Vec::with_capacity(n_samples);
    for i in 1..=n_samples {
        let t = i as f64 * cfg.sample_period_s;
        let ramp = steady - (steady - idle) * (-t / cfg.warmup_tau_s).exp();
        samples.push(PowerSample {
            t_s: t,
            watts: ramp + noise.sample(&mut rng),
        });
    }

    let retained: Vec<f64> = samples
        .iter()
        .filter(|s| s.t_s > cfg.warmup_trim_s)
        .map(|s| s.watts)
        .collect();
    assert!(!retained.is_empty(), "no samples survived the warmup trim");
    let mean = retained.iter().sum::<f64>() / retained.len() as f64;
    let var = if retained.len() > 1 {
        retained
            .iter()
            .map(|w| (w - mean) * (w - mean))
            .sum::<f64>()
            / (retained.len() - 1) as f64
    } else {
        0.0
    };

    // High-resolution-clock view of iteration runtime: jitter shrinks with
    // sqrt(iterations) because the paper reports per-iteration averages of
    // a timed batch.
    let mut jitter = Gaussian::new(0.0, cfg.clock_jitter_s / (iterations as f64).sqrt());
    let t_iter_mean_s = power.t_iter_s + jitter.sample(&mut rng);
    let t_iter_std_s = cfg.clock_jitter_s / (iterations as f64).sqrt();

    let measurement = Measurement {
        mean_power_w: mean,
        std_power_w: var.sqrt(),
        samples_used: retained.len(),
        total_time_s,
        iterations,
        t_iter_mean_s,
        t_iter_std_s,
        energy_per_iter_j: mean * t_iter_mean_s,
        throttled: power.throttled,
        utilization_pct: power.duty * 100.0,
    };
    (
        PowerTrace {
            samples,
            sample_period_s: cfg.sample_period_s,
        },
        measurement,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_gpu::spec::a100_pcie;

    fn fake_power(total_w: f64, t_iter_s: f64) -> PowerBreakdown {
        PowerBreakdown {
            idle_w: 52.0,
            uncore_w: 37.0,
            datapath_w: total_w - 52.0 - 37.0,
            dram_w: 0.0,
            l2_w: 0.0,
            total_w,
            clock_scale: 1.0,
            throttled: false,
            t_iter_s,
            duty: 0.985,
            energy_per_iter_j: total_w * t_iter_s,
        }
    }

    fn setup() -> (GpuSpec, VmInstance) {
        let g = a100_pcie();
        let vm = VmInstance::provision(&g, 1);
        (g, vm)
    }

    #[test]
    fn mean_power_tracks_steady_state() {
        let (g, vm) = setup();
        let p = fake_power(280.0, 100e-6);
        let (_, m) = measure(&g, &p, 30_000, &vm, 5, &MeasurementConfig::default());
        // 3 s run, 0.5 s trimmed: mean within noise of steady + vm offset.
        let expect = 280.0 + vm.offset_w;
        assert!(
            (m.mean_power_w - expect).abs() < 1.5,
            "mean {} vs expected {expect}",
            m.mean_power_w
        );
        assert!(m.std_power_w < 4.0);
        assert_eq!(m.samples_used, 25);
    }

    #[test]
    fn warmup_samples_are_visible_in_trace_but_trimmed_in_summary() {
        let (g, vm) = setup();
        let p = fake_power(280.0, 100e-6);
        let (trace, m) = measure(&g, &p, 30_000, &vm, 6, &MeasurementConfig::default());
        // The first sample (t = 0.1 s) sits well below steady state.
        let first = trace.samples.first().unwrap();
        assert!(
            first.watts < m.mean_power_w - 20.0,
            "first sample {} should be on the warmup ramp (mean {})",
            first.watts,
            m.mean_power_w
        );
        assert_eq!(trace.samples.len(), 30);
        assert_eq!(m.samples_used, 25);
    }

    #[test]
    fn vm_offset_shifts_the_whole_measurement() {
        let g = a100_pcie();
        let p = fake_power(250.0, 100e-6);
        let cfg = MeasurementConfig::default();
        let m1 = measure(&g, &p, 30_000, &VmInstance::provision(&g, 11), 7, &cfg).1;
        let m2 = measure(&g, &p, 30_000, &VmInstance::provision(&g, 12), 7, &cfg).1;
        let shift = (m1.mean_power_w - m2.mean_power_w).abs();
        let offset_delta =
            (VmInstance::provision(&g, 11).offset_w - VmInstance::provision(&g, 12).offset_w).abs();
        assert!(
            (shift - offset_delta).abs() < 1.0,
            "shift {shift} should track offset delta {offset_delta}"
        );
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let (g, vm) = setup();
        let p = fake_power(270.0, 90e-6);
        let cfg = MeasurementConfig::default();
        let a = measure(&g, &p, 20_000, &vm, 9, &cfg).1;
        let b = measure(&g, &p, 20_000, &vm, 9, &cfg).1;
        assert_eq!(a, b);
        let c = measure(&g, &p, 20_000, &vm, 10, &cfg).1;
        assert_ne!(a.mean_power_w, c.mean_power_w);
    }

    #[test]
    fn iteration_runtime_is_microsecond_consistent() {
        // Fig. 1's error bars: per-iteration time jitter after averaging
        // 10k iterations is far below a microsecond.
        let (g, vm) = setup();
        let p = fake_power(270.0, 90e-6);
        let m = measure(&g, &p, 10_000, &vm, 1, &MeasurementConfig::default()).1;
        assert!((m.t_iter_mean_s - 90e-6).abs() < 1e-8);
        assert!(m.t_iter_std_s < 1e-8);
    }

    #[test]
    fn energy_combines_power_and_runtime() {
        let (g, vm) = setup();
        let p = fake_power(250.0, 200e-6);
        let m = measure(&g, &p, 10_000, &vm, 2, &MeasurementConfig::default()).1;
        assert!((m.energy_per_iter_j - m.mean_power_w * m.t_iter_mean_s).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_all_samples() {
        let (g, vm) = setup();
        let p = fake_power(250.0, 100e-6);
        let (trace, _) = measure(&g, &p, 15_000, &vm, 3, &MeasurementConfig::default());
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_s,watts");
        assert_eq!(lines.len(), trace.samples.len() + 1);
        // Every data row is locale-stable fixed-point: dot separator,
        // exactly three decimals, no grouping or exponents.
        for line in &lines[1..] {
            for field in line.split(',') {
                let (int_part, frac) = field.split_once('.').expect("dot separator");
                let digits = int_part.strip_prefix('-').unwrap_or(int_part);
                assert!(!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()));
                assert_eq!(frac.len(), 3, "{field:?}");
                assert!(frac.bytes().all(|b| b.is_ascii_digit()), "{field:?}");
            }
        }
    }

    #[test]
    fn csv_formatting_is_exact_and_rounds_half_up() {
        let trace = PowerTrace {
            samples: vec![
                PowerSample {
                    t_s: 0.1,
                    watts: 1234.5,
                },
                PowerSample {
                    t_s: 0.2,
                    watts: 249.9995, // rounds up to 250.000 at 3 decimals
                },
                PowerSample {
                    t_s: 12.0,
                    watts: -3.0625,
                },
            ],
            sample_period_s: 0.1,
        };
        assert_eq!(
            trace.to_csv(),
            "t_s,watts\n0.100,1234.500\n0.200,250.000\n12.000,-3.063\n"
        );
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_runs_are_rejected() {
        let (g, vm) = setup();
        let p = fake_power(250.0, 100e-6);
        // 100 iterations x 100 us = 10 ms << 500 ms trim.
        measure(&g, &p, 100, &vm, 4, &MeasurementConfig::default());
    }

    #[test]
    fn min_iterations_is_the_trim_boundary() {
        let (g, vm) = setup();
        let cfg = MeasurementConfig::default();
        for t_iter_s in [3.25e-6, 100e-6, 0.07, 1.0] {
            let n = cfg.min_iterations(t_iter_s);
            assert!(cfg.outlasts_trim(t_iter_s, n), "{t_iter_s}");
            assert!(n == 1 || !cfg.outlasts_trim(t_iter_s, n - 1), "{t_iter_s}");
            let m = measure(&g, &fake_power(250.0, t_iter_s), n, &vm, 6, &cfg).1;
            assert!(m.samples_used >= 1, "{t_iter_s}");
        }
    }

    #[test]
    fn utilization_reports_duty_cycle() {
        let (g, vm) = setup();
        let p = fake_power(250.0, 100e-6);
        let m = measure(&g, &p, 10_000, &vm, 5, &MeasurementConfig::default()).1;
        assert!((m.utilization_pct - 98.5).abs() < 0.01);
    }
}
