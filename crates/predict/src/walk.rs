//! The one operand walk of a `(member, seed)` unit.
//!
//! The paper ties GEMM power to operand bit flips, so the kernel
//! simulation and the input features read the same operand words.
//! [`walk_unit`] generates one canonical member's operands for one seed
//! index once ([`wm_core::member_seed_operands`]), encodes each operand
//! once, and reads the words for both products: the seed's switching
//! activity (MAC loop and bus pass,
//! [`wm_core::simulate_encoded_member_activity`]) and, on seed 0, the
//! member's feature chunk ([`FeatureAccumulator::add_words`]). The
//! fleet's unit store caches its units; [`walk_first_seed`] walks a whole
//! request's seed 0 for callers that keep no store.
//!
//! `wm_core::PowerLab::run` and the figure runner keep an activity-only
//! walk: they never read features, so they never fill a chunk.

use wm_core::{
    member_ordinals, member_seed_operands, simulate_encoded_member_activity, RunRequest,
};
use wm_gpu::GemmDims;
use wm_kernels::{ActivityRecord, EncodedMatrix};

use crate::features::{features_from_member_chunks, FeatureAccumulator, FeatureVector};

/// Walk seed `seed` of member `(member, ordinal)` (see
/// [`wm_core::member_ordinals`]): generate its operand pair once, encode
/// each operand once, and read the words for the seed's activity and, on
/// seed 0 only, the member's feature chunk. The activity is bit-identical
/// to `wm_core::member_seed_activities(..)[seed]`, and the chunk to
/// [`FeatureAccumulator::add_value`] over the operand values, A then B.
pub fn walk_unit(
    req: &RunRequest,
    member: GemmDims,
    ordinal: u64,
    seed: u64,
) -> (ActivityRecord, Option<FeatureAccumulator>) {
    let (a, b) = member_seed_operands(req, member, ordinal, seed);
    let ea = EncodedMatrix::encode(&a, req.dtype);
    let eb = EncodedMatrix::encode(&b, req.dtype);
    let chunk = (seed == 0).then(|| {
        let mut acc = FeatureAccumulator::new(req.dtype);
        acc.add_words(ea.words());
        acc.add_words(eb.words());
        acc
    });
    let activity = simulate_encoded_member_activity(req, member, (&a, &ea), (&b, &eb));
    (activity, chunk)
}

/// Walk seed 0 of every canonical member of `req`, in
/// [`wm_core::member_ordinals`] order: one activity record per member —
/// the analytic pricing probe — and the request's features, merged from
/// the members' chunks with [`features_from_member_chunks`].
pub fn walk_first_seed(req: &RunRequest) -> (Vec<ActivityRecord>, FeatureVector) {
    let mut activities = Vec::new();
    let mut chunks = Vec::new();
    for (member, ordinal) in member_ordinals(req) {
        let (activity, chunk) = walk_unit(req, member, ordinal, 0);
        activities.push(activity);
        chunks.extend(chunk);
    }
    let refs: Vec<&FeatureAccumulator> = chunks.iter().collect();
    (activities, features_from_member_chunks(req, &refs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_core::{first_seed_member_operands, member_seed_activities, simulate_member_activity};
    use wm_kernels::{KernelClass, Sampling};
    use wm_numerics::DType;
    use wm_patterns::{PatternKind, PatternSpec};

    /// [`FeatureAccumulator::add_value`] over one member's seed-0 operand
    /// values, A then B: the per-value reference a chunk must match.
    fn chunk_by_value(req: &RunRequest, member: GemmDims, ordinal: u64) -> FeatureAccumulator {
        let (a, b) = member_seed_operands(req, member, ordinal, 0);
        let mut acc = FeatureAccumulator::new(req.dtype);
        for &v in a.as_slice().iter().chain(b.as_slice()) {
            acc.add_value(v);
        }
        acc
    }

    /// Every walk of `req`'s units against the sequential references: the
    /// activity of [`member_seed_activities`] and, on seed 0 only, the
    /// per-value chunk.
    fn assert_units_match(req: &RunRequest, at: &str) {
        for (m, ord) in member_ordinals(req) {
            let activities = member_seed_activities(req, m, ord);
            for s in 0..req.seeds {
                let (activity, chunk) = walk_unit(req, m, ord, s);
                let at = format!("{at} {m:?}#{ord} seed {s}");
                assert_eq!(activity, activities[s as usize], "{at}");
                match chunk {
                    Some(chunk) => {
                        assert_eq!(s, 0, "{at}: only seed 0 carries a chunk");
                        assert_eq!(chunk, chunk_by_value(req, m, ord), "{at}");
                    }
                    None => assert_ne!(s, 0, "{at}: seed 0 must carry its chunk"),
                }
            }
        }
    }

    #[test]
    fn units_are_bit_identical_to_the_per_member_walks() {
        // One operand walk per (member, seed) must reproduce both
        // sequential passes: the seed's activity record of the execution
        // path and, on seed 0, the member's feature chunk.
        let base = RunRequest::new(
            DType::Fp16Tensor,
            64,
            PatternSpec::new(PatternKind::Sparse { sparsity: 0.4 }),
        )
        .with_seeds(3)
        .with_sampling(Sampling::Lattice { rows: 4, cols: 4 });
        let gemm = base.clone().with_group(vec![
            GemmDims::square(64),
            GemmDims::square(64),
            GemmDims {
                n: 32,
                m: 48,
                k: 96,
            },
        ]);
        let gemv = base
            .with_kernel(KernelClass::Gemv)
            .with_shape(GemmDims { n: 96, m: 1, k: 48 });
        for req in [gemm, gemv] {
            assert_units_match(&req, &format!("{:?}", req.kernel));
        }
    }

    #[test]
    fn units_are_bit_identical_for_every_input_family() {
        // The shared words must stand in for every pass they replace, on
        // every family the generators produce — the NaN-bearing bit
        // surgery ones included — in every dtype and both kernels. GEMV
        // is the close case: its kernel quantizes x while the feature
        // chunk reads x raw, so one encoding serves both only because
        // quantizing never changes a word.
        let kinds = [
            PatternKind::Gaussian,
            PatternKind::ValueSet { set_size: 5 },
            PatternKind::ConstantRandom,
            PatternKind::BitFlips { probability: 0.4 },
            PatternKind::RandomLsbs { count: 3 },
            PatternKind::RandomMsbs { count: 5 },
            PatternKind::SortedRows { fraction: 0.6 },
            PatternKind::SortedCols { fraction: 1.0 },
            PatternKind::SortedWithinRows { fraction: 0.5 },
            PatternKind::Sparse { sparsity: 0.5 },
            PatternKind::SortedThenSparse { sparsity: 0.2 },
            PatternKind::ZeroLsbs { count: 3 },
            PatternKind::ZeroMsbs { count: 2 },
            PatternKind::Zeros,
        ];
        for kind in kinds {
            for dtype in DType::EXTENDED {
                let gemm = RunRequest::new(dtype, 24, PatternSpec::new(kind))
                    .with_seeds(2)
                    .with_sampling(Sampling::Lattice { rows: 3, cols: 3 })
                    .with_shape(GemmDims {
                        n: 24,
                        m: 12,
                        k: 36,
                    });
                let gemv = gemm
                    .clone()
                    .with_kernel(KernelClass::Gemv)
                    .with_shape(GemmDims { n: 36, m: 1, k: 20 });
                for req in [gemm, gemv] {
                    assert_units_match(&req, &format!("{kind:?} {dtype} {:?}", req.kernel));
                }
            }
        }
    }

    #[test]
    fn first_seed_features_match_the_sequential_stream() {
        // Grouped (with twins, so ordinals matter) and plain requests:
        // member chunks merged in canonical order must be bit-identical
        // to one accumulator over the whole stream, every member's A then
        // B, and the activities must be each member's seed-0 record.
        let twin = GemmDims {
            n: 32,
            m: 16,
            k: 64,
        };
        let reqs = [
            RunRequest::new(
                DType::Fp16Tensor,
                48,
                PatternSpec::new(PatternKind::Gaussian),
            ),
            RunRequest::new(
                DType::Fp16Tensor,
                32,
                PatternSpec::new(PatternKind::Sparse { sparsity: 0.3 }),
            )
            .with_group(vec![twin, GemmDims::square(48), twin]),
        ];
        for req in reqs {
            let mut stream = FeatureAccumulator::new(req.dtype);
            let mut seed0 = Vec::new();
            for (m, ord) in member_ordinals(&req) {
                let (a, b) = first_seed_member_operands(&req, m, ord);
                stream.add_matrix(&a);
                stream.add_matrix(&b);
                seed0.push(simulate_member_activity(&req, m, &a, &b));
            }
            let (activities, features) = walk_first_seed(&req);
            assert_eq!(
                features,
                stream.finish_group(req.kernel, &req.member_dims())
            );
            assert_eq!(activities, seed0);
        }
    }

    #[test]
    fn member_chunks_are_shareable_across_request_spellings() {
        // The chunk a plain request walks is the chunk a group containing
        // the same member at ordinal 0 needs — the cache-reuse contract
        // at the feature layer.
        let dims = GemmDims {
            n: 48,
            m: 24,
            k: 96,
        };
        let template = RunRequest::new(
            DType::Fp16Tensor,
            48,
            PatternSpec::new(PatternKind::Gaussian),
        );
        let plain = template.clone().with_shape(dims);
        let group = template
            .clone()
            .with_group(vec![dims, GemmDims::square(32)]);
        assert_eq!(walk_unit(&plain, dims, 0, 0), walk_unit(&group, dims, 0, 0));
        // Twin chunks differ: the ordinal decorrelates their streams.
        assert_ne!(
            walk_unit(&group, dims, 0, 0).1,
            walk_unit(&group, dims, 1, 0).1
        );
    }
}
