//! Seeded input generation. Everything a workload feeds the program is
//! drawn here from the `--seed` argument alone, so the same seed yields
//! byte-equal request lines and sweep points, and the program under test
//! only ever sees the generated inputs.

use wm_core::RunRequest;
use wm_experiments::runner::{Metric, SweepPoint};
use wm_fleet::json::{obj, Json};
use wm_gpu::GemmDims;
use wm_kernels::{KernelClass, Sampling};
use wm_numerics::DType;
use wm_patterns::{PatternKind, PatternSpec};

/// SplitMix64: a small, well-mixed deterministic stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE9C_0FFE_E123)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Exponential inter-arrival gap of a Poisson process, seconds.
    pub fn exp_gap(&mut self, rate_per_s: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate_per_s
    }
}

/// Base seeds stay below 2^53 so they survive the protocol's JSON
/// numbers exactly.
const SEED_MASK: u64 = (1 << 40) - 1;

/// The input pattern of one serving request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    Gaussian,
    Zeros,
    Sparse(f64),
}

impl Pattern {
    fn kind(self) -> PatternKind {
        match self {
            Pattern::Gaussian => PatternKind::Gaussian,
            Pattern::Zeros => PatternKind::Zeros,
            Pattern::Sparse(sparsity) => PatternKind::Sparse { sparsity },
        }
    }
}

/// One serving request, before it is spelled as a protocol line or a
/// library `RunRequest`. Every request runs one seed on a 4x4 lattice:
/// serving-sized work.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub kernel: KernelClass,
    pub dtype: DType,
    /// One member for a plain request, two or more for a group.
    pub members: Vec<GemmDims>,
    pub pattern: Pattern,
    pub base_seed: u64,
}

const LATTICE: usize = 4;

impl Spec {
    pub fn to_request(&self) -> RunRequest {
        let first = self.members[0];
        let req = RunRequest::new(self.dtype, first.n, PatternSpec::new(self.pattern.kind()))
            .with_kernel(self.kernel)
            .with_seeds(1)
            .with_base_seed(self.base_seed)
            .with_sampling(Sampling::Lattice {
                rows: LATTICE,
                cols: LATTICE,
            });
        if self.members.len() > 1 {
            req.with_group(self.members.clone())
        } else {
            req.with_shape(first)
        }
    }

    /// The protocol fields of this request (everything but `id`/`op`).
    pub fn json_fields(&self) -> Vec<(&'static str, Json)> {
        let dims = |d: GemmDims| {
            let mut f = vec![("n", Json::Num(d.n as f64))];
            if self.kernel == KernelClass::Gemm {
                f.push(("m", Json::Num(d.m as f64)));
            }
            f.push(("k", Json::Num(d.k as f64)));
            f
        };
        let mut fields = vec![("dtype", Json::Str(self.dtype.label().to_string()))];
        if self.kernel == KernelClass::Gemv {
            fields.push(("kernel", Json::Str("gemv".to_string())));
        }
        if self.members.len() > 1 {
            let members = self.members.iter().map(|&d| obj(dims(d))).collect();
            fields.push(("group", Json::Arr(members)));
        } else {
            fields.extend(dims(self.members[0]));
        }
        match self.pattern {
            Pattern::Gaussian => fields.push(("pattern", Json::Str("gaussian".to_string()))),
            Pattern::Zeros => fields.push(("pattern", Json::Str("zeros".to_string()))),
            Pattern::Sparse(s) => {
                fields.push(("pattern", Json::Str("sparse".to_string())));
                fields.push(("sparsity", Json::Num(s)));
            }
        }
        fields.push(("seeds", Json::Num(1.0)));
        fields.push(("base_seed", Json::Num(self.base_seed as f64)));
        fields.push(("lattice", Json::Num(LATTICE as f64)));
        fields
    }
}

const AXES: [usize; 5] = [32, 48, 64, 80, 96];
const DTYPES: [DType; 3] = [DType::Fp32, DType::Fp16Tensor, DType::Int8];
const PATTERNS: [Pattern; 4] = [
    Pattern::Gaussian,
    Pattern::Zeros,
    Pattern::Sparse(0.5),
    Pattern::Sparse(0.9),
];

/// Unique serving traffic: square, ragged, GEMV decode and grouped GEMM
/// shapes. Every request carries its own base seed, so no two requests
/// of one stream share a cache entry, a feature chunk or a member unit.
pub struct FreshStream {
    rng: Rng,
    seed_base: u64,
    counter: u64,
}

impl FreshStream {
    /// `lane` separates independent streams drawn from one seed.
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut rng = Rng::new(seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        let seed_base = (rng.next_u64() & SEED_MASK) & !0xF_FFFF;
        Self {
            rng,
            seed_base,
            counter: 0,
        }
    }

    pub fn next_spec(&mut self) -> Spec {
        let rng = &mut self.rng;
        self.counter += 1;
        let base_seed = (self.seed_base + self.counter) & SEED_MASK;
        let dtype = rng.pick(&DTYPES);
        let pattern = rng.pick(&PATTERNS);
        let (kernel, members) = match rng.below(4) {
            0 => (KernelClass::Gemm, vec![GemmDims::square(rng.pick(&AXES))]),
            1 => (
                KernelClass::Gemm,
                vec![GemmDims {
                    n: rng.pick(&AXES),
                    m: rng.pick(&[32, 64]),
                    k: rng.pick(&[48, 96]),
                }],
            ),
            2 => (
                KernelClass::Gemv,
                vec![GemmDims {
                    n: rng.pick(&AXES),
                    m: 1,
                    k: rng.pick(&[48, 96, 128]),
                }],
            ),
            _ => {
                let count = 2 + rng.below(2);
                let members = (0..count)
                    .map(|_| GemmDims {
                        n: rng.pick(&[32, 64]),
                        m: rng.pick(&[32, 48]),
                        k: rng.pick(&[48, 64]),
                    })
                    .collect();
                (KernelClass::Gemm, members)
            }
        };
        Spec {
            kernel,
            dtype,
            members,
            pattern,
            base_seed,
        }
    }
}

/// The square size and lattice of every sweep point.
pub const SWEEP_DIM: usize = 512;
const SWEEP_LATTICE: usize = 8;

/// One directional finding of the paper, checked on the sweep's own
/// points: the point at `low` must draw less power than the point at
/// `high` (indices into the point list).
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub name: String,
    pub low: usize,
    pub high: usize,
}

/// The sweep batch: the paper's four input variations (value
/// distribution, bit similarity, placement, sparsity) on FP32, FP16-T and
/// INT8 at one square size, one seed per point, every point pinned and
/// distinct. Returns the points and the findings they must reproduce.
pub fn sweep_points(seed: u64) -> (Vec<SweepPoint>, Vec<Finding>) {
    let mut rng = Rng::new(seed ^ 0x5A5A_0000_0000_0001);
    let gpu = wm_gpu::spec::a100_pcie();
    let mut points = Vec::new();
    let mut findings = Vec::new();
    for dtype in DTYPES {
        let base_seed = rng.next_u64() & SEED_MASK;
        let sigma = dtype.paper_sigma();
        let mut push = |series: &str, x: f64, spec: PatternSpec| {
            points.push(SweepPoint {
                series: format!("{}/{series}", dtype.label()),
                x,
                request: RunRequest::new(dtype, SWEEP_DIM, spec)
                    .with_seeds(1)
                    .with_base_seed(base_seed)
                    .with_sampling(Sampling::Lattice {
                        rows: SWEEP_LATTICE,
                        cols: SWEEP_LATTICE,
                    }),
                gpu: gpu.clone(),
                metric: Metric::PowerW,
            });
            points.len() - 1
        };
        // Value distribution: sigma, mean and value-set size.
        let dense = push(
            "distribution",
            sigma,
            PatternSpec::new(PatternKind::Gaussian),
        );
        push(
            "distribution",
            sigma / 8.0,
            PatternSpec::new(PatternKind::Gaussian).with_std(sigma / 8.0),
        );
        push(
            "distribution-mean",
            sigma,
            PatternSpec::new(PatternKind::Gaussian).with_mean(sigma),
        );
        let small_set = push(
            "value-set",
            1.0,
            PatternSpec::new(PatternKind::ValueSet { set_size: 1 }),
        );
        let large_set = push(
            "value-set",
            256.0,
            PatternSpec::new(PatternKind::ValueSet { set_size: 256 }),
        );
        // Bit similarity: random LSBs and MSBs over a constant fill.
        let (few, many) = (1, dtype.bits() / 2);
        let few_lsbs = push(
            "random-lsbs",
            few as f64,
            PatternSpec::new(PatternKind::RandomLsbs { count: few }),
        );
        let many_lsbs = push(
            "random-lsbs",
            many as f64,
            PatternSpec::new(PatternKind::RandomLsbs { count: many }),
        );
        push(
            "random-msbs",
            few as f64,
            PatternSpec::new(PatternKind::RandomMsbs { count: few }),
        );
        push(
            "random-msbs",
            many as f64,
            PatternSpec::new(PatternKind::RandomMsbs { count: many }),
        );
        // Placement: sorted rows or columns against the unsorted fill.
        let sorted_rows = push(
            "sorted-rows",
            1.0,
            PatternSpec::new(PatternKind::SortedRows { fraction: 1.0 }),
        );
        push(
            "sorted-cols",
            1.0,
            PatternSpec::new(PatternKind::SortedCols { fraction: 1.0 }),
        );
        // Sparsity.
        push(
            "sparsity",
            0.5,
            PatternSpec::new(PatternKind::Sparse { sparsity: 0.5 }),
        );
        let sparse = push(
            "sparsity",
            0.9,
            PatternSpec::new(PatternKind::Sparse { sparsity: 0.9 }),
        );
        let label = dtype.label();
        for (name, low, high) in [
            ("sparse < dense", sparse, dense),
            ("sorted < unsorted", sorted_rows, dense),
            ("small value set < large", small_set, large_set),
            ("few random LSBs < many", few_lsbs, many_lsbs),
        ] {
            findings.push(Finding {
                name: format!("{label}: {name}"),
                low,
                high,
            });
        }
    }
    (points, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64) -> Vec<String> {
        let mut s = FreshStream::new(seed, 0);
        (0..64)
            .map(|_| obj(s.next_spec().json_fields()).to_string())
            .collect()
    }

    fn sweep_text(seed: u64) -> String {
        format!("{:?}", sweep_points(seed).0)
    }

    #[test]
    fn same_seed_gives_byte_equal_inputs() {
        assert_eq!(lines(7), lines(7));
        assert_eq!(sweep_text(7), sweep_text(7));
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        assert_ne!(lines(7), lines(8));
        assert_ne!(sweep_text(7), sweep_text(8));
    }

    #[test]
    fn fresh_requests_are_unique() {
        let mut s = FreshStream::new(3, 0);
        let reqs: Vec<RunRequest> = (0..500).map(|_| s.next_spec().to_request()).collect();
        for (i, a) in reqs.iter().enumerate() {
            assert!(reqs[i + 1..].iter().all(|b| b != a), "request {i} repeats");
        }
    }

    #[test]
    fn generated_lines_parse() {
        for line in lines(11) {
            Json::parse(&line).expect("every generated line is valid JSON");
        }
    }
}
