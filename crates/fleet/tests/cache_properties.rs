//! Property tests for the fleet memo cache and canonical hashing:
//! identical requests hash identically, differing requests (almost
//! surely) don't, and cached results are bit-identical across repeats.

use proptest::prelude::*;
use std::sync::Arc;
use wm_core::{member_ordinals, RunRequest};
use wm_fleet::{
    canonical_key, request_key, unit_key, Answer, Fleet, FleetJob, MemoCache, Scheduler,
};
use wm_gpu::spec::{a100_pcie, h100_sxm5, rtx6000, v100_sxm2};
use wm_gpu::{GemmDims, GpuSpec};
use wm_kernels::Sampling;
use wm_numerics::DType;
use wm_patterns::{PatternKind, PatternSpec};

fn arb_dtype() -> impl Strategy<Value = DType> {
    prop::sample::select(DType::ALL.to_vec())
}

fn arb_kind() -> impl Strategy<Value = PatternKind> {
    prop_oneof![
        Just(PatternKind::Gaussian),
        Just(PatternKind::ConstantRandom),
        Just(PatternKind::Zeros),
        (1usize..32).prop_map(|n| PatternKind::ValueSet { set_size: n }),
        (0.0f64..=1.0).prop_map(|p| PatternKind::BitFlips { probability: p }),
        (0.0f64..=1.0).prop_map(|f| PatternKind::SortedRows { fraction: f }),
        (0.0f64..=1.0).prop_map(|s| PatternKind::Sparse { sparsity: s }),
        (0u32..=16).prop_map(|k| PatternKind::ZeroLsbs { count: k }),
    ]
}

fn arb_gpu() -> impl Strategy<Value = GpuSpec> {
    prop::sample::select(vec![a100_pcie(), v100_sxm2(), h100_sxm5(), rtx6000()])
}

fn arb_member() -> impl Strategy<Value = GemmDims> {
    let axis = || prop::sample::select(vec![16usize, 24, 32, 48, 64, 96]);
    (axis(), axis(), axis()).prop_map(|(n, m, k)| GemmDims { n, m, k })
}

/// Grouped-GEMM member lists: at least two members, so `with_group`
/// cannot normalize the group away.
fn arb_members() -> impl Strategy<Value = Vec<GemmDims>> {
    prop::collection::vec(arb_member(), 2..6)
}

fn arb_request() -> impl Strategy<Value = RunRequest> {
    (
        arb_dtype(),
        prop::sample::select(vec![32usize, 64, 96]),
        arb_kind(),
        1u64..4,
        any::<u64>(),
    )
        .prop_map(|(dtype, dim, kind, seeds, base_seed)| {
            RunRequest::new(dtype, dim, PatternSpec::new(kind))
                .with_seeds(seeds)
                .with_base_seed(base_seed)
                .with_sampling(Sampling::Lattice { rows: 4, cols: 4 })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn identical_requests_hash_to_the_same_key(req in arb_request(), gpu in arb_gpu(), vm in 0u64..8) {
        let twin = req.clone();
        prop_assert_eq!(canonical_key(&req, &gpu, vm), canonical_key(&twin, &gpu, vm));
        prop_assert_eq!(request_key(&req), request_key(&twin));
    }

    #[test]
    fn key_is_sensitive_to_every_request_knob(req in arb_request(), gpu in arb_gpu()) {
        let base = canonical_key(&req, &gpu, 0);
        prop_assert!(base != canonical_key(&req.clone().with_base_seed(req.base_seed ^ 1), &gpu, 0));
        prop_assert!(base != canonical_key(&req.clone().with_seeds(req.seeds + 1), &gpu, 0));
        prop_assert!(base != canonical_key(&req.clone().with_b_transposed(!req.b_transposed), &gpu, 0));
        prop_assert!(base != canonical_key(&req, &gpu, 1));
    }

    #[test]
    fn permuted_groups_cache_alias(req in arb_request(), members in arb_members(), perm_seed in any::<u64>()) {
        // A group is a multiset of problems: any permutation of the
        // member list is the same request — same canonical key, same
        // probe key, so permuted resubmissions are pure cache hits.
        let gpu = a100_pcie();
        let base = req.clone().with_group(members.clone());
        let mut shuffled = members;
        // Deterministic Fisher-Yates driven by the proptest-chosen seed.
        let mut state = perm_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let permuted = req.clone().with_group(shuffled);
        prop_assert_eq!(canonical_key(&base, &gpu, 0), canonical_key(&permuted, &gpu, 0));
        prop_assert_eq!(request_key(&base), request_key(&permuted));
    }

    #[test]
    fn any_member_axis_perturbation_changes_the_group_key(
        req in arb_request(),
        members in arb_members(),
        which in any::<u64>(),
        axis in 0usize..3,
    ) {
        let gpu = a100_pcie();
        let base = canonical_key(&req.clone().with_group(members.clone()), &gpu, 0);
        let mut tweaked = members.clone();
        let i = (which as usize) % tweaked.len();
        match axis {
            0 => tweaked[i].n += 1,
            1 => tweaked[i].m += 1,
            _ => tweaked[i].k += 1,
        }
        let key = canonical_key(&req.clone().with_group(tweaked), &gpu, 0);
        prop_assert!(base != key, "member {i} axis {axis} perturbation must move the key");
        // Membership count moves the key too: dropping a member or
        // duplicating one never aliases (the fold is length-prefixed).
        let dropped = canonical_key(&req.clone().with_group(members[1..].to_vec()), &gpu, 0);
        prop_assert!(base != dropped);
        let mut doubled = members.clone();
        doubled.push(members[0]);
        prop_assert!(base != canonical_key(&req.clone().with_group(doubled), &gpu, 0));
    }

    #[test]
    fn one_member_group_aliases_the_plain_request(req in arb_request(), gpu in arb_gpu()) {
        // `with_group` normalizes a singleton group to the plain request
        // it is equivalent to: the alias is structural, so every key —
        // memo and probe — agrees.
        let member = req.dims();
        let grouped = req.clone().with_group(vec![member]);
        prop_assert_eq!(&req, &grouped);
        prop_assert_eq!(canonical_key(&req, &gpu, 0), canonical_key(&grouped, &gpu, 0));
        prop_assert_eq!(request_key(&req), request_key(&grouped));
    }

    #[test]
    fn member_keys_are_spelling_invariant(
        req in arb_request(),
        members in arb_members(),
        perm_seed in any::<u64>(),
    ) {
        // The canonical member decomposition — and with it every unit key
        // — is invariant under permutation of the spelled list, and an
        // ordinal-0 member aliases the plain request of its shape, seed by
        // seed (the reuse edge between single and grouped traffic).
        let base = req.clone().with_group(members.clone());
        let mut shuffled = members;
        let mut state = perm_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let permuted = req.clone().with_group(shuffled);
        let keys = |r: &RunRequest| -> Vec<(u64, u64)> {
            member_ordinals(r)
                .into_iter()
                .map(|(m, o)| (unit_key(r, m, o, 0), unit_key(r, m, o, 1)))
                .collect()
        };
        prop_assert_eq!(keys(&base), keys(&permuted));
        for (m, o) in member_ordinals(&base) {
            if o == 0 {
                let plain = req.clone().with_shape(m);
                for seed in 0..req.seeds {
                    prop_assert_eq!(unit_key(&plain, m, 0, seed), unit_key(&base, m, 0, seed));
                }
            }
        }
    }

    #[test]
    fn distinct_devices_never_share_keys(req in arb_request()) {
        let keys: Vec<u64> = [a100_pcie(), v100_sxm2(), h100_sxm5(), rtx6000()]
            .iter()
            .map(|g| canonical_key(&req, g, 0))
            .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                prop_assert!(keys[i] != keys[j], "devices {i} and {j} alias");
            }
        }
    }
}

proptest! {
    // The end-to-end property costs a simulation per case; keep it small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cached_results_are_bit_identical(req in arb_request()) {
        let sched = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 2), 2);
        let first = sched.submit(FleetJob::new(req.clone())).recv().unwrap();
        let second = sched.submit(FleetJob::new(req.clone())).recv().unwrap();
        prop_assert!(!first.cache_hit, "first query must compute");
        prop_assert!(second.cache_hit, "identical repeat must hit the cache");
        // Same allocation — equality is bit-exact by construction...
        prop_assert!(Arc::ptr_eq(&first.result, &second.result));
        // ...and field-wise equality holds too (RunResult: PartialEq).
        prop_assert_eq!(&*first.result, &*second.result);
        prop_assert_eq!(first.device, second.device);
    }

    #[test]
    fn partial_member_reuse_is_invariant_to_warm_set_and_order(
        req in arb_request(),
        members in arb_members(),
        mask in any::<u64>(),
        perm_seed in any::<u64>(),
    ) {
        // Whatever subset of a group's members was warmed by earlier
        // plain singles, and in whatever order the group is spelled, the
        // grouped answer must be bit-identical to a cold scheduler's
        // fresh run — partial reuse merges are order-insensitive and
        // never change the numbers.
        let warm = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 1), 2);
        for (i, m) in members.iter().enumerate() {
            if mask >> (i % 64) & 1 == 1 {
                warm.submit(FleetJob::new(req.clone().with_shape(*m)))
                    .recv()
                    .unwrap();
            }
        }
        let mut shuffled = members.clone();
        let mut state = perm_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let warmed = warm
            .submit(FleetJob::new(req.clone().with_group(shuffled)))
            .recv()
            .unwrap();
        let cold = Scheduler::with_workers(Fleet::homogeneous(a100_pcie(), 1), 2);
        let fresh = cold
            .submit(FleetJob::new(req.clone().with_group(members.clone())))
            .recv()
            .unwrap();
        prop_assert!(!warmed.cache_hit, "distinct group spelling never whole-result hits");
        prop_assert_eq!(warmed.member_cached.len(), members.len());
        prop_assert_eq!(&*warmed.result, &*fresh.result);
    }
}

#[test]
fn memo_cache_counts_joins_as_hits() {
    let cache = MemoCache::new(4, &wm_obs::Registry::new());
    let slow = || {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let result = wm_core::PowerLab::new(a100_pcie()).run(
            &RunRequest::new(DType::Int8, 32, PatternSpec::new(PatternKind::Zeros))
                .with_seeds(1)
                .with_sampling(Sampling::Lattice { rows: 2, cols: 2 }),
        );
        Ok::<_, std::convert::Infallible>(Answer {
            device: 0,
            result: Arc::new(result),
        })
    };
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| cache.answer(99, slow));
        }
    });
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 3);
    assert_eq!(cache.hits() + cache.misses(), 4);
}
