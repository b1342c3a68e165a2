//! Canonical hashing of requests for the memo cache and placement.
//!
//! The memo cache must key on the *semantic content* of a request, not on
//! anything incidental (struct layout, allocation addresses, derive-order).
//! This module defines an explicit canonical byte encoding of every field
//! that influences a [`wm_core::RunResult`], folded through FNV-1a:
//!
//! * [`answer_key`] keys the answer store: every field [`write_request`]
//!   folds, plus the job's pin (none for an auto-placed job, else the
//!   pinned device id). It names no device;
//! * [`unit_key`] keys one `(member, seed)` unit of the unit store;
//! * [`request_key`] folds only what shapes the operands — placement's
//!   tie salt;
//! * [`canonical_key`] folds the request with a device model and VM id.
//!   The serving path no longer computes it; it is kept only for
//!   perfbench's replay.
//!
//! Two requests whose semantically relevant fields are all equal hash
//! equal — the property test in `tests/cache_properties.rs` exercises
//! this. The converse does not hold: distinct requests can collide in 64
//! bits, and nothing detects it yet, so a collision would serve one
//! request's cached answer to the other.

use wm_core::RunRequest;
use wm_gpu::{GemmDims, GpuSpec, MemoryKind};
use wm_kernels::{KernelClass, Sampling};
use wm_numerics::DType;
use wm_patterns::{PatternKind, PatternSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a canonical hasher.
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    state: u64,
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl CanonicalHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Fold raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one byte (used for enum tags).
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Fold a u64 little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a usize as u64 (portable across word sizes).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Fold a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Fold an f64 by its IEEE-754 bits, normalizing `-0.0` to `0.0` so
    /// numerically equal specs hash equal.
    pub fn write_f64(&mut self, v: f64) {
        let v = if v == 0.0 { 0.0 } else { v };
        self.write_u64(v.to_bits());
    }

    /// Fold a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

fn dtype_tag(dtype: DType) -> u8 {
    match dtype {
        DType::Fp32 => 0,
        DType::Fp16 => 1,
        DType::Fp16Tensor => 2,
        DType::Int8 => 3,
        DType::Bf16 => 4,
    }
}

fn memory_tag(kind: MemoryKind) -> u8 {
    match kind {
        MemoryKind::Hbm2 => 0,
        MemoryKind::Hbm2e => 1,
        MemoryKind::Hbm3 => 2,
        MemoryKind::Gddr6 => 3,
    }
}

fn write_pattern(h: &mut CanonicalHasher, spec: &PatternSpec) {
    match spec.kind {
        PatternKind::Gaussian => h.write_u8(0),
        PatternKind::ValueSet { set_size } => {
            h.write_u8(1);
            h.write_usize(set_size);
        }
        PatternKind::ConstantRandom => h.write_u8(2),
        PatternKind::BitFlips { probability } => {
            h.write_u8(3);
            h.write_f64(probability);
        }
        PatternKind::RandomLsbs { count } => {
            h.write_u8(4);
            h.write_u64(u64::from(count));
        }
        PatternKind::RandomMsbs { count } => {
            h.write_u8(5);
            h.write_u64(u64::from(count));
        }
        PatternKind::SortedRows { fraction } => {
            h.write_u8(6);
            h.write_f64(fraction);
        }
        PatternKind::SortedCols { fraction } => {
            h.write_u8(7);
            h.write_f64(fraction);
        }
        PatternKind::SortedWithinRows { fraction } => {
            h.write_u8(8);
            h.write_f64(fraction);
        }
        PatternKind::Sparse { sparsity } => {
            h.write_u8(9);
            h.write_f64(sparsity);
        }
        PatternKind::SortedThenSparse { sparsity } => {
            h.write_u8(10);
            h.write_f64(sparsity);
        }
        PatternKind::ZeroLsbs { count } => {
            h.write_u8(11);
            h.write_u64(u64::from(count));
        }
        PatternKind::ZeroMsbs { count } => {
            h.write_u8(12);
            h.write_u64(u64::from(count));
        }
        PatternKind::Zeros => h.write_u8(13),
    }
    h.write_f64(spec.mean);
    match spec.std {
        None => h.write_u8(0),
        Some(std) => {
            h.write_u8(1);
            h.write_f64(std);
        }
    }
}

fn write_sampling(h: &mut CanonicalHasher, sampling: Sampling) {
    match sampling {
        Sampling::Full => h.write_u8(0),
        Sampling::Lattice { rows, cols } => {
            h.write_u8(1);
            h.write_usize(rows);
            h.write_usize(cols);
        }
    }
}

/// Fold every result-relevant field of a device model.
pub fn write_gpu(h: &mut CanonicalHasher, gpu: &GpuSpec) {
    h.write_str(gpu.name);
    h.write_str(gpu.architecture);
    h.write_f64(gpu.tdp_watts);
    h.write_f64(gpu.idle_watts);
    h.write_f64(gpu.uncore_watts);
    h.write_f64(gpu.boost_clock_mhz);
    h.write_u64(u64::from(gpu.sm_count));
    h.write_u64(gpu.l2_bytes);
    h.write_u8(memory_tag(gpu.memory));
    h.write_f64(gpu.mem_bandwidth_gbps);
    h.write_f64(gpu.throughput.fp32_tflops);
    h.write_f64(gpu.throughput.fp16_tflops);
    h.write_f64(gpu.throughput.fp16_tensor_tflops);
    h.write_f64(gpu.throughput.int8_tops);
    h.write_bool(gpu.has_int8_tensor);
    h.write_f64(gpu.launch_overhead_us);
    h.write_f64(gpu.data_sensitivity);
    h.write_f64(gpu.process_variation_watts);
    h.write_f64(gpu.sensor_noise_watts);
}

/// Fold the activity-relevant fields of a request: everything that
/// determines its first-seed operands and switching activity. The
/// *effective* member dims ([`RunRequest::member_dims`]) are folded
/// length-prefixed, per member, per axis — so a legacy square-`dim` GEMV
/// and its explicit `n x 1 x k` spelling hash equal (same execution), a
/// 1-member group hashes exactly like the plain request it normalizes to,
/// and permuted groups alias because `with_group` canonicalizes member
/// order before this fold ever sees it.
fn write_activity_fields(h: &mut CanonicalHasher, req: &RunRequest) {
    h.write_u8(match req.kernel {
        KernelClass::Gemm => 0,
        KernelClass::Gemv => 1,
    });
    h.write_u8(dtype_tag(req.dtype));
    if req.is_grouped() {
        let members = req.member_dims();
        h.write_usize(members.len());
        for dims in members {
            h.write_usize(dims.n);
            h.write_usize(dims.m);
            h.write_usize(dims.k);
        }
    } else {
        // Allocation-free fast path for the common plain request: a
        // single member, encoded exactly as the general fold would (the
        // length prefix keeps plain and grouped requests unambiguous).
        let dims = req.dims();
        h.write_usize(1);
        h.write_usize(dims.n);
        h.write_usize(dims.m);
        h.write_usize(dims.k);
    }
    write_pattern(h, &req.pattern_a);
    write_pattern(h, &req.pattern_b);
    h.write_bool(req.b_transposed);
    h.write_u64(req.base_seed);
    write_sampling(h, req.sampling);
}

/// Fold every result-relevant field of a run request.
pub fn write_request(h: &mut CanonicalHasher, req: &RunRequest) {
    write_activity_fields(h, req);
    h.write_u64(req.seeds);
    match req.iterations {
        None => h.write_u8(0),
        Some(it) => {
            h.write_u8(1);
            h.write_u64(it);
        }
    }
}

/// Device-independent key of a request's first-seed data, used as
/// placement's tie salt: only the fields that shape the operands are
/// folded. `iterations` (a repeat count) and `seeds` (how many operand
/// sets a *run* averages) are deliberately excluded, so requests differing
/// only there place alike. The answer key ([`answer_key`]) keeps them:
/// they do change a run's averaged result.
pub fn request_key(req: &RunRequest) -> u64 {
    let mut h = CanonicalHasher::new();
    write_activity_fields(&mut h, req);
    h.finish()
}

/// The answer-store key of a job: every field [`write_request`] folds,
/// then a `0` tag for an auto-placed job, or a `1` tag and the pinned
/// device id. No device model or VM id is folded, so an auto job's answer
/// is one lookup whichever device first ran it.
pub fn answer_key(req: &RunRequest, pin: Option<usize>) -> u64 {
    let mut h = CanonicalHasher::new();
    write_request(&mut h, req);
    match pin {
        None => h.write_u8(0),
        Some(device) => {
            h.write_u8(1);
            h.write_usize(device);
        }
    }
    h.finish()
}

/// Canonical hash of `(RunRequest, GpuSpec, vm_id)`. The serving path
/// keys answers by [`answer_key`]; this is kept only for perfbench's
/// replay, which times it.
pub fn canonical_key(req: &RunRequest, gpu: &GpuSpec, vm_id: u64) -> u64 {
    let mut h = CanonicalHasher::new();
    write_request(&mut h, req);
    write_gpu(&mut h, gpu);
    h.write_u64(vm_id);
    h.finish()
}

// A leading domain tag keeps unit keys from ever colliding with the
// request-level folds above (which start with a 0/1 kernel tag byte).
const UNIT_DOMAIN: u8 = 0xA1;

/// Key of one `(member, seed)` unit of the memo cache's unit store
/// ([`crate::cache::Unit`]): the request-wide data shapers (kernel, dtype,
/// patterns, transpose, base seed, sampling), the member's *effective*
/// dims, its ordinal among equal-dims members in canonical order, and the
/// seed index. Deliberately no group-structure fields and no seed or
/// iteration count: the seed derivation fixes a member's seed-`s`
/// operands by `(dims, ordinal, s)` alone, so the same member inside any
/// group — or standing alone as a plain request (ordinal 0) — shares its
/// units, and so do requests that differ only in how many seeds they
/// average or iterations they run. Device-independent: neither simulation
/// nor feature extraction reads the `GpuSpec`, so one unit serves every
/// device and VM.
pub fn unit_key(req: &RunRequest, member: GemmDims, ordinal: u64, seed: u64) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_u8(UNIT_DOMAIN);
    h.write_u8(match req.kernel {
        KernelClass::Gemm => 0,
        KernelClass::Gemv => 1,
    });
    h.write_u8(dtype_tag(req.dtype));
    h.write_usize(member.n);
    h.write_usize(member.m);
    h.write_usize(member.k);
    h.write_u64(ordinal);
    write_pattern(&mut h, &req.pattern_a);
    write_pattern(&mut h, &req.pattern_b);
    h.write_bool(req.b_transposed);
    h.write_u64(req.base_seed);
    write_sampling(&mut h, req.sampling);
    h.write_u64(seed);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_gpu::spec::{a100_pcie, v100_sxm2};
    use wm_gpu::GemmDims;

    fn req() -> RunRequest {
        RunRequest::new(
            DType::Fp16Tensor,
            256,
            PatternSpec::new(PatternKind::Sparse { sparsity: 0.5 }),
        )
    }

    #[test]
    fn identical_requests_hash_equal() {
        let g = a100_pcie();
        assert_eq!(canonical_key(&req(), &g, 0), canonical_key(&req(), &g, 0));
    }

    #[test]
    fn every_field_perturbation_changes_the_key() {
        let g = a100_pcie();
        let base = canonical_key(&req(), &g, 0);
        let variants = [
            canonical_key(&req().with_kernel(wm_kernels::KernelClass::Gemv), &g, 0),
            canonical_key(&req().with_seeds(3), &g, 0),
            canonical_key(&req().with_base_seed(1), &g, 0),
            canonical_key(&req().with_b_transposed(false), &g, 0),
            canonical_key(&req().with_iterations(100), &g, 0),
            // Each problem axis perturbed independently of the others.
            canonical_key(
                &req().with_shape(GemmDims {
                    n: 257,
                    m: 256,
                    k: 256,
                }),
                &g,
                0,
            ),
            canonical_key(
                &req().with_shape(GemmDims {
                    n: 256,
                    m: 257,
                    k: 256,
                }),
                &g,
                0,
            ),
            canonical_key(
                &req().with_shape(GemmDims {
                    n: 256,
                    m: 256,
                    k: 257,
                }),
                &g,
                0,
            ),
            canonical_key(
                &req().with_sampling(Sampling::Lattice { rows: 8, cols: 8 }),
                &g,
                0,
            ),
            canonical_key(
                &req().with_pattern_b(PatternSpec::new(PatternKind::Zeros)),
                &g,
                0,
            ),
            canonical_key(&req(), &v100_sxm2(), 0),
            canonical_key(&req(), &g, 1),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided with the base key");
        }
        // And the ragged variants are pairwise distinct: the axes fold
        // in a fixed n/m/k order, never summed or mixed.
        for i in 5..8 {
            for j in (i + 1)..8 {
                assert_ne!(variants[i], variants[j], "axes {i}/{j} alias");
            }
        }
    }

    #[test]
    fn probe_key_ignores_iterations_and_seed_count() {
        // The tie salt folds only the first seed's data; neither
        // `iterations` nor `seeds` changes it, so requests differing only
        // there must place alike.
        let base = request_key(&req());
        assert_eq!(base, request_key(&req().with_iterations(100)));
        assert_eq!(base, request_key(&req().with_iterations(20_000)));
        assert_eq!(base, request_key(&req().with_seeds(3)));
        // The memo key still separates them: averaged results differ.
        let g = a100_pcie();
        assert_ne!(
            canonical_key(&req(), &g, 0),
            canonical_key(&req().with_iterations(100), &g, 0)
        );
        assert_ne!(
            canonical_key(&req(), &g, 0),
            canonical_key(&req().with_seeds(3), &g, 0)
        );
        // Activity-relevant knobs still move the probe key.
        assert_ne!(base, request_key(&req().with_base_seed(1)));
        assert_ne!(
            base,
            request_key(&req().with_shape(GemmDims {
                n: 256,
                m: 256,
                k: 128
            }))
        );
    }

    #[test]
    fn legacy_square_gemv_aliases_its_explicit_ragged_spelling() {
        // `{"dim": d, "kernel": "gemv"}` and `{"n": d, "m": 1, "k": d}`
        // are the same n x 1 x k execution: same probe key, same memo key.
        let g = a100_pcie();
        let legacy = req().with_kernel(wm_kernels::KernelClass::Gemv);
        let explicit = legacy.clone().with_shape(GemmDims {
            n: 256,
            m: 1,
            k: 256,
        });
        assert_eq!(request_key(&legacy), request_key(&explicit));
        assert_eq!(
            canonical_key(&legacy, &g, 0),
            canonical_key(&explicit, &g, 0)
        );
        // A GEMM with the same story does NOT alias: m is load-bearing.
        let gemm = req().with_shape(GemmDims {
            n: 256,
            m: 1,
            k: 256,
        });
        assert_ne!(canonical_key(&req(), &g, 0), canonical_key(&gemm, &g, 0));
    }

    #[test]
    fn group_hash_is_order_canonical_and_member_sensitive() {
        let g = a100_pcie();
        let members = vec![
            GemmDims {
                n: 256,
                m: 64,
                k: 512,
            },
            GemmDims {
                n: 128,
                m: 32,
                k: 256,
            },
            GemmDims::square(256),
        ];
        let base = canonical_key(&req().with_group(members.clone()), &g, 0);
        // Any permutation of the members is the same request.
        let mut permuted = members.clone();
        permuted.rotate_left(1);
        assert_eq!(base, canonical_key(&req().with_group(permuted), &g, 0));
        // Perturbing any single member's axis moves the key.
        for axis in 0..3 {
            let mut tweaked = members.clone();
            match axis {
                0 => tweaked[1].n += 1,
                1 => tweaked[1].m += 1,
                _ => tweaked[1].k += 1,
            }
            assert_ne!(
                base,
                canonical_key(&req().with_group(tweaked), &g, 0),
                "axis {axis} perturbation must change the key"
            );
        }
        // Dropping or duplicating a member moves the key too (the fold is
        // length-prefixed, so no concatenation ambiguity).
        assert_ne!(
            base,
            canonical_key(&req().with_group(members[..2].to_vec()), &g, 0)
        );
        let mut doubled = members.clone();
        doubled.push(members[0]);
        assert_ne!(base, canonical_key(&req().with_group(doubled), &g, 0));
        // A 1-member group is the plain request.
        assert_eq!(
            canonical_key(&req(), &g, 0),
            canonical_key(&req().with_group(vec![GemmDims::square(256)]), &g, 0)
        );
    }

    #[test]
    fn gemv_group_spellings_alias_across_raw_m_differences() {
        // Two spellings of the same effective GEMV member multiset whose
        // execution-ignored raw `m` values produce *different raw
        // canonical orders*: {(50,1,100), (50,2,30)} raw-sorts with
        // (50,1,100) first, while {(50,1,100), (50,1,30)} raw-sorts with
        // (50,1,30) first. Effectively both are {(50,1,30), (50,1,100)} —
        // member_dims re-sorts by effective axes, so the keys must agree.
        let g = a100_pcie();
        let gemv = req().with_kernel(wm_kernels::KernelClass::Gemv);
        let spelled_a = gemv.clone().with_group(vec![
            GemmDims {
                n: 50,
                m: 1,
                k: 100,
            },
            GemmDims { n: 50, m: 2, k: 30 },
        ]);
        let spelled_b = gemv.clone().with_group(vec![
            GemmDims {
                n: 50,
                m: 1,
                k: 100,
            },
            GemmDims { n: 50, m: 1, k: 30 },
        ]);
        assert_eq!(
            spelled_a.member_dims(),
            spelled_b.member_dims(),
            "same effective multiset"
        );
        assert_eq!(request_key(&spelled_a), request_key(&spelled_b));
        assert_eq!(
            canonical_key(&spelled_a, &g, 0),
            canonical_key(&spelled_b, &g, 0)
        );
        // And the executions agree operand-for-operand, member by member,
        // so the shared cache entry is sound.
        let first_seed = |r: &RunRequest| -> Vec<_> {
            wm_core::member_ordinals(r)
                .into_iter()
                .map(|(m, ord)| wm_core::first_seed_member_operands(r, m, ord))
                .collect()
        };
        assert_eq!(first_seed(&spelled_a), first_seed(&spelled_b));
        // A GEMM group with the same raw members does NOT alias: m is
        // load-bearing there.
        let gemm_a = req().with_group(vec![
            GemmDims {
                n: 50,
                m: 1,
                k: 100,
            },
            GemmDims { n: 50, m: 2, k: 30 },
        ]);
        let gemm_b = req().with_group(vec![
            GemmDims {
                n: 50,
                m: 1,
                k: 100,
            },
            GemmDims { n: 50, m: 1, k: 30 },
        ]);
        assert_ne!(canonical_key(&gemm_a, &g, 0), canonical_key(&gemm_b, &g, 0));
    }

    #[test]
    fn negative_zero_normalizes() {
        let g = a100_pcie();
        let a = RunRequest::new(
            DType::Fp32,
            64,
            PatternSpec::new(PatternKind::Gaussian).with_mean(0.0),
        );
        let b = RunRequest::new(
            DType::Fp32,
            64,
            PatternSpec::new(PatternKind::Gaussian).with_mean(-0.0),
        );
        assert_eq!(canonical_key(&a, &g, 0), canonical_key(&b, &g, 0));
    }

    #[test]
    fn request_key_ignores_device() {
        assert_eq!(request_key(&req()), request_key(&req()));
        let with_device_a = canonical_key(&req(), &a100_pcie(), 0);
        let with_device_b = canonical_key(&req(), &v100_sxm2(), 0);
        assert_ne!(with_device_a, with_device_b);
    }

    #[test]
    fn answer_key_folds_the_request_and_its_pin() {
        let auto = answer_key(&req(), None);
        assert_eq!(auto, answer_key(&req(), None));
        // The pin is part of the job: auto, pinned to device 0 and pinned
        // to device 1 are three answers.
        let pinned = answer_key(&req(), Some(0));
        assert_ne!(auto, pinned);
        assert_ne!(pinned, answer_key(&req(), Some(1)));
        // Every knob a result depends on moves the key, seed and
        // iteration counts included.
        for other in [
            req().with_seeds(3),
            req().with_iterations(100),
            req().with_base_seed(1),
            req().with_b_transposed(false),
            req().with_kernel(KernelClass::Gemv),
            req().with_sampling(Sampling::Lattice { rows: 8, cols: 8 }),
            req().with_pattern_b(PatternSpec::new(PatternKind::Zeros)),
        ] {
            assert_ne!(auto, answer_key(&other, None), "{other:?}");
        }
        // Spellings of one request share one answer.
        let members = vec![GemmDims::square(64), GemmDims::square(128)];
        let mut permuted = members.clone();
        permuted.reverse();
        assert_eq!(
            answer_key(&req().with_group(members), None),
            answer_key(&req().with_group(permuted), None)
        );
        assert_eq!(
            auto,
            answer_key(&req().with_group(vec![GemmDims::square(256)]), None)
        );
        assert_ne!(auto, request_key(&req()));
    }

    #[test]
    fn unit_keys_alias_plain_and_group_spellings() {
        // The load-bearing aliasing: a plain request's single member and
        // the same dims at ordinal 0 inside any group share every unit, so
        // single-request work answers group members and vice versa.
        let dims = GemmDims {
            n: 256,
            m: 64,
            k: 512,
        };
        let plain = req().with_shape(dims);
        let grouped = req().with_group(vec![dims, GemmDims::square(128)]);
        // Group structure is invisible: a different sibling set changes
        // nothing about this member's units.
        let other_group = req().with_group(vec![dims, GemmDims::square(32)]);
        for seed in 0..3 {
            assert_eq!(
                unit_key(&plain, dims, 0, seed),
                unit_key(&grouped, dims, 0, seed)
            );
            assert_eq!(
                unit_key(&grouped, dims, 0, seed),
                unit_key(&other_group, dims, 0, seed)
            );
        }
    }

    #[test]
    fn unit_keys_are_ordinal_seed_and_field_sensitive() {
        let dims = GemmDims::square(256);
        let base = unit_key(&req(), dims, 0, 0);
        // Twin members (same dims, higher ordinal) and later seeds draw
        // different data.
        assert_ne!(base, unit_key(&req(), dims, 1, 0));
        assert_ne!(base, unit_key(&req(), dims, 0, 1));
        assert_ne!(unit_key(&req(), dims, 1, 0), unit_key(&req(), dims, 0, 1));
        // Every data-shaping knob moves the key.
        for key in [
            unit_key(&req().with_base_seed(1), dims, 0, 0),
            unit_key(&req().with_b_transposed(false), dims, 0, 0),
            unit_key(&req(), GemmDims::square(255), 0, 0),
            unit_key(
                &req().with_pattern_b(PatternSpec::new(PatternKind::Zeros)),
                dims,
                0,
                0,
            ),
            unit_key(&req().with_kernel(KernelClass::Gemv), dims, 0, 0),
        ] {
            assert_ne!(base, key);
        }
        // Seed and iteration counts never change a seed's data: requests
        // differing only there share every seed they have in common.
        assert_eq!(base, unit_key(&req().with_seeds(3), dims, 0, 0));
        assert_eq!(
            unit_key(&req(), dims, 0, 2),
            unit_key(&req().with_seeds(3), dims, 0, 2)
        );
        assert_eq!(base, unit_key(&req().with_iterations(100), dims, 0, 0));
        // Domain separation from the request-level key on identical inputs.
        assert_ne!(base, request_key(&req()));
    }

    #[test]
    fn sampling_tags_disambiguate() {
        // Full vs a lattice must never alias.
        let g = a100_pcie();
        let full = canonical_key(&req().with_sampling(Sampling::Full), &g, 0);
        let lat = canonical_key(
            &req().with_sampling(Sampling::Lattice { rows: 32, cols: 32 }),
            &g,
            0,
        );
        assert_ne!(full, lat);
    }
}
