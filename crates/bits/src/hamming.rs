//! Hamming weight and Hamming distance over machine words and slices.
//!
//! Switching activity in CMOS logic is proportional to the number of bits
//! that change state between consecutive clock cycles. The two primitive
//! quantities are:
//!
//! * **Hamming weight** `HW(x)` — the number of set bits in `x`. The paper
//!   (Fig. 8) correlates lower average Hamming weight with lower GEMM power.
//! * **Hamming distance** `HD(x, y) = HW(x ^ y)` — the number of bit
//!   positions in which `x` and `y` differ, i.e. the number of latches that
//!   toggle when a bus transitions from holding `x` to holding `y`.
//!
//! ## Paired sums
//!
//! The slice sums ([`slice_hamming_weight`], [`slice_hamming_distance`] and
//! [`stream_toggles`], which the DRAM bus pass and the feature chunk run
//! over every operand word) count two words of at most 32 bits with one
//! popcount: the pair packed into one `u64`, the first word in the low
//! half. A popcount costs about the same at either width, and the workspace
//! builds for baseline x86-64, which has no `POPCNT` instruction and counts
//! bits with a dozen-instruction sequence; pairing halves that work. The
//! sums are exact integers, so they equal the per-word sums.

/// A fixed-width machine word whose bits participate in switching-activity
/// accounting.
///
/// The trait exists so the toggle engine can be written once and run over
/// the 8-bit (INT8), 16-bit (FP16) and 32-bit (FP32) encodings used by the
/// paper without dynamic dispatch in the hot loop.
pub trait BitWord: Copy + Eq {
    /// Number of bits in this word type (8, 16, 32 or 64).
    const BITS: u32;

    /// Hamming weight: the number of set bits.
    fn weight(self) -> u32;

    /// Hamming distance to `other`: the number of differing bit positions.
    fn distance(self, other: Self) -> u32;

    /// Widen to `u64` for width-agnostic accounting.
    fn to_u64(self) -> u64;
}

macro_rules! impl_bitword {
    ($($t:ty),*) => {$(
        impl BitWord for $t {
            const BITS: u32 = <$t>::BITS;

            #[inline(always)]
            fn weight(self) -> u32 {
                self.count_ones()
            }

            #[inline(always)]
            fn distance(self, other: Self) -> u32 {
                (self ^ other).count_ones()
            }

            #[inline(always)]
            fn to_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}

impl_bitword!(u8, u16, u32, u64);

/// Hamming weight of a word: the number of set bits.
///
/// ```
/// assert_eq!(wm_bits::hamming_weight(0b1011_0001u32), 4);
/// assert_eq!(wm_bits::hamming_weight(0u32), 0);
/// assert_eq!(wm_bits::hamming_weight(u32::MAX), 32);
/// ```
#[inline(always)]
pub fn hamming_weight<W: BitWord>(x: W) -> u32 {
    x.weight()
}

/// Hamming distance between two words: the number of differing bits, which
/// equals the number of latch toggles when a register transitions from
/// holding `x` to holding `y`.
///
/// ```
/// assert_eq!(wm_bits::hamming_distance(0b1100u32, 0b1010u32), 2);
/// assert_eq!(wm_bits::hamming_distance(7u8, 7u8), 0);
/// ```
#[inline(always)]
pub fn hamming_distance<W: BitWord>(x: W, y: W) -> u32 {
    x.distance(y)
}

/// Two words of at most 32 bits packed into one `u64`, `lo` in the low
/// half: the popcount of the pair is the sum of theirs.
#[inline(always)]
fn pair(lo: u64, hi: u64) -> u64 {
    lo | hi << 32
}

/// Total Hamming weight of a slice of words, two words per popcount for
/// words of at most 32 bits (see [the module notes](self#paired-sums)).
///
/// Used to compute the paper's Fig. 8 *average Hamming weight* statistic
/// over a whole input matrix.
pub fn slice_hamming_weight<W: BitWord>(words: &[W]) -> u64 {
    if W::BITS > 32 {
        return words.iter().map(|w| u64::from(w.weight())).sum();
    }
    let pairs = words.chunks_exact(2);
    let odd = pairs
        .remainder()
        .first()
        .map_or(0, |w| u64::from(w.weight()));
    let paired: u64 = pairs
        .map(|p| u64::from(pair(p[0].to_u64(), p[1].to_u64()).count_ones()))
        .sum();
    paired + odd
}

/// Mean Hamming weight per word of a slice, `0.0` for an empty slice.
pub fn mean_hamming_weight<W: BitWord>(words: &[W]) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    slice_hamming_weight(words) as f64 / words.len() as f64
}

/// Total Hamming distance between corresponding elements of two slices,
/// two word pairs per popcount for words of at most 32 bits (see [the
/// module notes](self#paired-sums)).
///
/// This is the total number of bus toggles incurred by overwriting a
/// buffer holding `a` with the contents of `b`, one word per cycle.
///
/// # Panics
///
/// Panics if the slices have different lengths: comparing buffers of
/// unequal size indicates a logic error in the caller.
pub fn slice_hamming_distance<W: BitWord>(a: &[W], b: &[W]) -> u64 {
    assert_eq!(
        a.len(),
        b.len(),
        "hamming distance requires equal-length slices"
    );
    let each = |(&x, &y): (&W, &W)| u64::from(x.distance(y));
    if W::BITS > 32 {
        return a.iter().zip(b).map(each).sum();
    }
    let (a_pairs, b_pairs) = (a.chunks_exact(2), b.chunks_exact(2));
    let odd = a_pairs
        .remainder()
        .first()
        .zip(b_pairs.remainder().first())
        .map_or(0, each);
    let paired: u64 = a_pairs
        .zip(b_pairs)
        .map(|(x, y)| {
            let lo = x[0].to_u64() ^ y[0].to_u64();
            let hi = x[1].to_u64() ^ y[1].to_u64();
            u64::from(pair(lo, hi).count_ones())
        })
        .sum();
    paired + odd
}

/// Total Hamming distance between *consecutive* elements of a slice:
/// `sum_i HD(words[i], words[i+1])`.
///
/// This models the toggles on a single bus or latch through which the
/// slice is streamed in order — the fundamental cost model for operand
/// delivery in the paper's hypothesis. Returns 0 for slices shorter than 2.
pub fn stream_toggles<W: BitWord>(words: &[W]) -> u64 {
    match words {
        [] => 0,
        [_, later @ ..] => slice_hamming_distance(&words[..later.len()], later),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_basics() {
        assert_eq!(hamming_weight(0u8), 0);
        assert_eq!(hamming_weight(0xFFu8), 8);
        assert_eq!(hamming_weight(0x8000u16), 1);
        assert_eq!(hamming_weight(0xFFFF_FFFFu32), 32);
        assert_eq!(hamming_weight(u64::MAX), 64);
    }

    #[test]
    fn distance_is_weight_of_xor() {
        let pairs = [(0u32, 0u32), (1, 2), (0xDEAD_BEEF, 0xCAFE_BABE), (7, 7)];
        for (x, y) in pairs {
            assert_eq!(hamming_distance(x, y), (x ^ y).count_ones());
        }
    }

    #[test]
    fn distance_symmetric_and_zero_on_diagonal() {
        for x in [0u16, 1, 0xF0F0, 0xFFFF] {
            for y in [0u16, 3, 0x0F0F, 0xAAAA] {
                assert_eq!(hamming_distance(x, y), hamming_distance(y, x));
            }
            assert_eq!(hamming_distance(x, x), 0);
        }
    }

    #[test]
    fn slice_weight_sums_words() {
        let v = [0x0Fu8, 0xF0, 0xFF, 0x00];
        assert_eq!(slice_hamming_weight(&v), 4 + 4 + 8);
        assert_eq!(mean_hamming_weight(&v), 16.0 / 4.0);
    }

    #[test]
    fn mean_weight_empty_is_zero() {
        let v: [u32; 0] = [];
        assert_eq!(mean_hamming_weight(&v), 0.0);
    }

    #[test]
    fn slice_distance_pairs_up() {
        let a = [0u16, 0xFFFF, 0x00FF];
        let b = [0u16, 0x0000, 0x00FF];
        assert_eq!(slice_hamming_distance(&a, &b), 16);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn slice_distance_rejects_mismatched_lengths() {
        let _ = slice_hamming_distance(&[0u8, 1], &[0u8]);
    }

    #[test]
    fn stream_toggles_counts_consecutive_flips() {
        // 0b00 -> 0b01 -> 0b11 -> 0b00: 1 + 1 + 2 toggles.
        assert_eq!(stream_toggles(&[0b00u8, 0b01, 0b11, 0b00]), 4);
        // Constant stream never toggles.
        assert_eq!(stream_toggles(&[0xAAu8; 64]), 0);
        // Degenerate streams.
        assert_eq!(stream_toggles::<u8>(&[]), 0);
        assert_eq!(stream_toggles(&[0xFFu8]), 0);
    }

    #[test]
    fn triangle_inequality_on_words() {
        // HD is a metric; spot-check the triangle inequality.
        let (a, b, c) = (0x1234u16, 0xABCDu16, 0x0F0Fu16);
        assert!(hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c));
    }
}
