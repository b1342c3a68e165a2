//! The GPU catalog: every device the paper measures, as a parameter set.
//!
//! Throughput and memory figures come from the vendor whitepapers cited by
//! the paper (Ampere/Hopper architecture whitepapers, V100/Turing specs).
//! Power-behavioural parameters (`idle_watts`, `data_sensitivity`,
//! `process_variation_watts`) are calibration anchors (see the `wm-power`
//! crate docs, Calibration): the paper reports only relative effects, which
//! is what the experiment suite validates.

use wm_numerics::DType;

/// DRAM technology of a device; affects the memory-interface energy
/// coefficients in `wm-power`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// HBM2 stacked memory (V100).
    Hbm2,
    /// HBM2e stacked memory (A100 PCIe).
    Hbm2e,
    /// HBM3 stacked memory (H100).
    Hbm3,
    /// GDDR6 discrete memory (Quadro RTX 6000).
    Gddr6,
}

impl MemoryKind {
    /// Short display label.
    pub const fn label(self) -> &'static str {
        match self {
            MemoryKind::Hbm2 => "HBM2",
            MemoryKind::Hbm2e => "HBM2e",
            MemoryKind::Hbm3 => "HBM3",
            MemoryKind::Gddr6 => "GDDR6",
        }
    }
}

/// Peak math throughput of a device, per datatype setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// FP32 SIMT, in TFLOP/s.
    pub fp32_tflops: f64,
    /// FP16 SIMT (packed half2 FMA), in TFLOP/s.
    pub fp16_tflops: f64,
    /// FP16 tensor-core (dense), in TFLOP/s.
    pub fp16_tensor_tflops: f64,
    /// INT8 (IMMA tensor ops where available, DP4A otherwise), in TOP/s.
    pub int8_tops: f64,
}

impl Throughput {
    /// Peak operations per second for a dtype setup (multiply and add
    /// count as two operations, the TFLOPS convention).
    pub fn peak_ops(&self, dtype: DType) -> f64 {
        let t = match dtype {
            DType::Fp32 => self.fp32_tflops,
            DType::Fp16 => self.fp16_tflops,
            // BF16 tensor throughput equals FP16 tensor on Ampere+ (the
            // only generations with BF16 support).
            DType::Fp16Tensor | DType::Bf16 => self.fp16_tensor_tflops,
            DType::Int8 => self.int8_tops,
        };
        t * 1e12
    }
}

/// A complete device model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. "NVIDIA A100 PCIe".
    pub name: &'static str,
    /// Architecture family, e.g. "Ampere".
    pub architecture: &'static str,
    /// Thermal design power in watts — the throttle ceiling.
    pub tdp_watts: f64,
    /// Idle board power in watts (fans, VRM, DRAM refresh, leakage).
    pub idle_watts: f64,
    /// Constant active overhead above idle whenever kernels are resident:
    /// clock tree, schedulers, instruction fetch. In watts at boost clock.
    pub uncore_watts: f64,
    /// Boost (maximum sustained) SM clock in MHz.
    pub boost_clock_mhz: f64,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// DRAM technology.
    pub memory: MemoryKind,
    /// Peak DRAM bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Peak math throughput.
    pub throughput: Throughput,
    /// Whether INT8 GEMM runs on tensor cores (IMMA) or SIMT DP4A.
    pub has_int8_tensor: bool,
    /// Fixed per-kernel-launch overhead in microseconds (driver + launch
    /// latency); sets the duty cycle of back-to-back GEMM iterations.
    pub launch_overhead_us: f64,
    /// Scale factor on the *data-dependent* part of dynamic power.
    /// 1.0 for the A100 anchor; lower for older parts (the paper observes
    /// the RTX 6000's swings are "less prominent").
    pub data_sensitivity: f64,
    /// One standard deviation of the per-VM-instance power offset (the
    /// paper observed shifts "up to 10 W" across instances).
    pub process_variation_watts: f64,
    /// One standard deviation of per-sample power-sensor noise in watts.
    pub sensor_noise_watts: f64,
}

impl GpuSpec {
    /// Peak operations per second for a dtype on this device.
    pub fn peak_ops(&self, dtype: DType) -> f64 {
        self.throughput.peak_ops(dtype)
    }

    /// All catalog devices, paper order (primary testbed first).
    pub fn catalog() -> Vec<GpuSpec> {
        vec![a100_pcie(), v100_sxm2(), h100_sxm5(), rtx6000()]
    }

    /// Look up a catalog device by (case-insensitive) substring, e.g.
    /// `"a100"`, `"H100"`, `"rtx6000"`.
    pub fn by_name(name: &str) -> Option<GpuSpec> {
        let needle = name.to_ascii_lowercase().replace([' ', '-', '_'], "");
        Self::catalog().into_iter().find(|g| {
            g.name
                .to_ascii_lowercase()
                .replace([' ', '-', '_'], "")
                .contains(&needle)
        })
    }
}

/// NVIDIA A100 PCIe 40 GB (Ampere) — the paper's primary testbed.
pub fn a100_pcie() -> GpuSpec {
    GpuSpec {
        name: "NVIDIA A100 PCIe",
        architecture: "Ampere",
        tdp_watts: 300.0,
        idle_watts: 52.0,
        uncore_watts: 38.0,
        boost_clock_mhz: 1410.0,
        sm_count: 108,
        l2_bytes: 40 << 20,
        memory: MemoryKind::Hbm2e,
        mem_bandwidth_gbps: 1935.0,
        throughput: Throughput {
            fp32_tflops: 19.5,
            fp16_tflops: 78.0,
            fp16_tensor_tflops: 312.0,
            int8_tops: 624.0,
        },
        has_int8_tensor: true,
        launch_overhead_us: 2.5,
        data_sensitivity: 1.0,
        process_variation_watts: 4.0,
        sensor_noise_watts: 1.5,
    }
}

/// NVIDIA Tesla V100 SXM2 32 GB (Volta) — Chameleon cloud node in Fig. 7.
pub fn v100_sxm2() -> GpuSpec {
    GpuSpec {
        name: "NVIDIA V100 SXM2",
        architecture: "Volta",
        tdp_watts: 300.0,
        idle_watts: 45.0,
        uncore_watts: 36.0,
        boost_clock_mhz: 1530.0,
        sm_count: 80,
        l2_bytes: 6 << 20,
        memory: MemoryKind::Hbm2,
        mem_bandwidth_gbps: 900.0,
        throughput: Throughput {
            fp32_tflops: 15.7,
            fp16_tflops: 31.4,
            fp16_tensor_tflops: 125.0,
            int8_tops: 62.8, // DP4A: no INT8 tensor cores on Volta
        },
        has_int8_tensor: false,
        launch_overhead_us: 3.0,
        data_sensitivity: 0.85,
        process_variation_watts: 4.0,
        sensor_noise_watts: 1.5,
    }
}

/// NVIDIA H100 SXM5 80 GB HBM3 (Hopper) — local-cluster node in Fig. 7.
pub fn h100_sxm5() -> GpuSpec {
    GpuSpec {
        name: "NVIDIA H100 SXM5",
        architecture: "Hopper",
        tdp_watts: 700.0,
        idle_watts: 70.0,
        uncore_watts: 75.0,
        boost_clock_mhz: 1980.0,
        sm_count: 132,
        l2_bytes: 50 << 20,
        memory: MemoryKind::Hbm3,
        mem_bandwidth_gbps: 3350.0,
        throughput: Throughput {
            fp32_tflops: 67.0,
            fp16_tflops: 134.0,
            fp16_tensor_tflops: 990.0,
            int8_tops: 1980.0,
        },
        has_int8_tensor: true,
        launch_overhead_us: 2.0,
        data_sensitivity: 1.1,
        process_variation_watts: 6.0,
        sensor_noise_watts: 2.0,
    }
}

/// NVIDIA Quadro RTX 6000 24 GB (Turing) — the oldest device in Fig. 7;
/// GDDR6, lower TDP, damped input-dependent swings, and throttles at
/// 2048x2048 (the paper ran it at 512x512).
pub fn rtx6000() -> GpuSpec {
    GpuSpec {
        name: "NVIDIA Quadro RTX 6000",
        architecture: "Turing",
        tdp_watts: 260.0,
        idle_watts: 30.0,
        uncore_watts: 30.0,
        boost_clock_mhz: 1770.0,
        sm_count: 72,
        l2_bytes: 6 << 20,
        memory: MemoryKind::Gddr6,
        mem_bandwidth_gbps: 672.0,
        throughput: Throughput {
            fp32_tflops: 16.3,
            fp16_tflops: 32.6,
            fp16_tensor_tflops: 130.5,
            int8_tops: 261.0,
        },
        has_int8_tensor: true,
        launch_overhead_us: 3.5,
        data_sensitivity: 0.45,
        process_variation_watts: 3.0,
        sensor_noise_watts: 1.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_the_four_paper_gpus() {
        let names: Vec<_> = GpuSpec::catalog().iter().map(|g| g.name).collect();
        assert_eq!(names.len(), 4);
        assert!(names.iter().any(|n| n.contains("A100")));
        assert!(names.iter().any(|n| n.contains("V100")));
        assert!(names.iter().any(|n| n.contains("H100")));
        assert!(names.iter().any(|n| n.contains("RTX 6000")));
    }

    #[test]
    fn tdps_match_the_paper() {
        assert_eq!(a100_pcie().tdp_watts, 300.0);
        assert_eq!(v100_sxm2().tdp_watts, 300.0);
        assert_eq!(h100_sxm5().tdp_watts, 700.0);
        assert_eq!(rtx6000().tdp_watts, 260.0);
    }

    #[test]
    fn by_name_is_forgiving() {
        assert_eq!(GpuSpec::by_name("a100").unwrap().name, "NVIDIA A100 PCIe");
        assert_eq!(
            GpuSpec::by_name("rtx-6000").unwrap().name,
            "NVIDIA Quadro RTX 6000"
        );
        assert_eq!(GpuSpec::by_name("H100").unwrap().architecture, "Hopper");
        assert!(GpuSpec::by_name("B200").is_none());
    }

    #[test]
    fn peak_ops_ordering_per_device() {
        // Tensor FP16 must beat SIMT FP16 which beats (or equals) FP32.
        for g in GpuSpec::catalog() {
            assert!(
                g.peak_ops(DType::Fp16Tensor) > g.peak_ops(DType::Fp16),
                "{}",
                g.name
            );
            assert!(
                g.peak_ops(DType::Fp16) > g.peak_ops(DType::Fp32),
                "{}",
                g.name
            );
        }
    }

    #[test]
    fn a100_tensor_ratio_matches_whitepaper() {
        // Ampere: 16x FP32 SIMT -> FP16 tensor ratio (312 / 19.5).
        let g = a100_pcie();
        let ratio = g.peak_ops(DType::Fp16Tensor) / g.peak_ops(DType::Fp32);
        assert!((ratio - 16.0).abs() < 0.01);
    }

    #[test]
    fn idle_below_tdp_everywhere() {
        for g in GpuSpec::catalog() {
            assert!(
                g.idle_watts + g.uncore_watts < g.tdp_watts * 0.5,
                "{}",
                g.name
            );
            assert!(g.data_sensitivity > 0.0 && g.data_sensitivity <= 1.5);
        }
    }

    #[test]
    fn rtx6000_is_the_least_data_sensitive() {
        let min = GpuSpec::catalog()
            .into_iter()
            .min_by(|a, b| a.data_sensitivity.total_cmp(&b.data_sensitivity))
            .unwrap();
        assert_eq!(min.name, "NVIDIA Quadro RTX 6000");
    }

    #[test]
    fn volta_lacks_int8_tensor() {
        assert!(!v100_sxm2().has_int8_tensor);
        assert!(a100_pcie().has_int8_tensor);
    }
}
