//! Property-based tests for wm-bits invariants.

use proptest::prelude::*;
use wm_bits::{
    flip_random_bits, hamming_distance, hamming_weight, randomize_lsbs, randomize_msbs,
    slice_hamming_distance, slice_hamming_weight, stream_toggles, zero_lsbs, zero_msbs, BitWord,
    Xoshiro256pp,
};

/// The paired slice sums against per-word reference sums, at every length
/// 0..=67 (so every remainder of the pairing, and many whole pairs), over
/// words that `narrow` cuts from random `u64`s.
fn paired_sums_match<W: BitWord + std::fmt::Debug>(
    rng: &mut Xoshiro256pp,
    narrow: impl Fn(u64) -> W,
) -> Result<(), String> {
    for len in 0..=67 {
        let a: Vec<W> = (0..len).map(|_| narrow(rng.next_u64())).collect();
        let b: Vec<W> = (0..len).map(|_| narrow(rng.next_u64())).collect();
        let weight: u64 = a.iter().map(|w| u64::from(w.weight())).sum();
        let distance: u64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| u64::from(x.distance(*y)))
            .sum();
        let toggles: u64 = a.windows(2).map(|p| u64::from(p[0].distance(p[1]))).sum();
        let bits = W::BITS;
        prop_assert_eq!(
            slice_hamming_weight(&a),
            weight,
            "u{} weight, length {}",
            bits,
            len
        );
        prop_assert_eq!(
            slice_hamming_distance(&a, &b),
            distance,
            "u{} distance, length {}",
            bits,
            len
        );
        prop_assert_eq!(
            stream_toggles(&a),
            toggles,
            "u{} toggles, length {}",
            bits,
            len
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn hd_is_metric(a: u32, b: u32, c: u32) {
        // Identity of indiscernibles, symmetry, triangle inequality.
        prop_assert_eq!(hamming_distance(a, a), 0);
        prop_assert_eq!(hamming_distance(a, b), hamming_distance(b, a));
        prop_assert!(
            hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
        );
    }

    #[test]
    fn hw_subadditive_over_or(a: u64, b: u64) {
        prop_assert!(hamming_weight(a | b) <= hamming_weight(a) + hamming_weight(b));
        // And exact when disjoint.
        let b_disjoint = b & !a;
        prop_assert_eq!(
            hamming_weight(a | b_disjoint),
            hamming_weight(a) + hamming_weight(b_disjoint)
        );
    }

    #[test]
    fn zero_lsbs_clears_exactly_low_field(x in any::<u64>(), k in 0u32..=32, width in prop::sample::select(vec![8u32, 16, 32])) {
        let x = x & ((1u64 << width) - 1);
        let y = zero_lsbs(x, k, width);
        let k_eff = k.min(width);
        // Low field cleared.
        if k_eff > 0 {
            prop_assert_eq!(y & ((1u64 << k_eff) - 1), 0);
        }
        // High field preserved.
        prop_assert_eq!(y >> k_eff, x >> k_eff);
        // Idempotent.
        prop_assert_eq!(zero_lsbs(y, k, width), y);
        // Never increases Hamming weight.
        prop_assert!(hamming_weight(y) <= hamming_weight(x));
    }

    #[test]
    fn zero_msbs_clears_exactly_high_field(x in any::<u64>(), k in 0u32..=32, width in prop::sample::select(vec![8u32, 16, 32])) {
        let x = x & ((1u64 << width) - 1);
        let y = zero_msbs(x, k, width);
        let k_eff = k.min(width);
        let keep = width - k_eff;
        // High field cleared: nothing at or above `keep`.
        prop_assert_eq!(y >> keep, 0);
        // Low field preserved.
        if keep > 0 {
            let mask = (1u64 << keep) - 1;
            prop_assert_eq!(y & mask, x & mask);
        }
        prop_assert!(hamming_weight(y) <= hamming_weight(x));
    }

    #[test]
    fn lsb_and_msb_zeroing_compose_to_zero(x in any::<u64>(), width in prop::sample::select(vec![8u32, 16, 32])) {
        let x = x & ((1u64 << width) - 1);
        prop_assert_eq!(zero_msbs(zero_lsbs(x, width / 2, width), width - width / 2, width), 0);
    }

    #[test]
    fn randomize_fields_stay_in_lane(x in any::<u64>(), k in 0u32..=16, seed: u64) {
        let width = 16u32;
        let x = x & 0xFFFF;
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let lo = randomize_lsbs(x, k, width, &mut rng);
        prop_assert_eq!(lo >> k.min(width), x >> k.min(width));
        let hi = randomize_msbs(x, k, width, &mut rng);
        let keep = width - k.min(width);
        if keep > 0 {
            let mask = (1u64 << keep) - 1;
            prop_assert_eq!(hi & mask, x & mask);
        }
        // Nothing escapes the declared width.
        prop_assert_eq!(lo >> width, 0);
        prop_assert_eq!(hi >> width, 0);
    }

    #[test]
    fn flip_all_bits_is_involution(x in any::<u64>(), seed: u64, width in prop::sample::select(vec![8u32, 16, 32])) {
        let x = x & ((1u64 << width) - 1);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let flipped = flip_random_bits(x, 1.0, width, &mut rng);
        prop_assert_eq!(flipped, x ^ ((1u64 << width) - 1));
        let mut rng2 = Xoshiro256pp::seed_from_u64(seed);
        prop_assert_eq!(flip_random_bits(x, 0.0, width, &mut rng2), x);
    }

    #[test]
    fn paired_popcount_sums_equal_per_word_sums(seed: u64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        paired_sums_match(&mut rng, |x| x as u8)?;
        paired_sums_match(&mut rng, |x| x as u16)?;
        paired_sums_match(&mut rng, |x| x as u32)?;
        paired_sums_match(&mut rng, |x| x)?;
    }

    #[test]
    fn rng_bounded_uniformity_window(seed: u64, bound in 1usize..1000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_bounded(bound) < bound);
        }
    }
}
