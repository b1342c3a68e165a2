//! Memory-interface activity: the DRAM/L2 bus pass.
//!
//! DRAM (and L2) data buses are wide: a transaction moves a burst of,
//! e.g., 512 bits, and dynamic energy is paid per *lane* that changes
//! state between consecutive transactions (plus a per-word base cost for
//! I/O and array access). We model the bus as `512 / dtype_bits`
//! element-wide lanes; streaming a stored matrix in row-major order drives
//! element `e` onto lane `e mod lanes`, and we count exact Hamming
//! distances per lane.
//!
//! This is the second power path through which the paper's *placement*
//! patterns act: a sorted matrix produces near-monotone lane streams with
//! tiny per-step distances, while random data toggles half the bus.

use crate::encoded::EncodedMatrix;
use wm_bits::{slice_hamming_distance, slice_hamming_weight};
use wm_gpu::{GemmDims, TileShape};

/// Width of one memory transaction in bits (a 64-byte sector).
pub const BUS_BITS: u32 = 512;

/// Result of streaming one matrix over the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusPass {
    /// Total toggled bits across all lanes.
    pub toggles: u64,
    /// Words (elements) streamed.
    pub words: u64,
    /// Total set bits streamed (termination / precharge proxy).
    pub weight: u64,
}

/// Stream a stored matrix over the modelled bus once, counting per-lane
/// toggles exactly.
pub fn bus_pass(m: &EncodedMatrix) -> BusPass {
    let lanes = (BUS_BITS / m.dtype().bits()).max(1) as usize;
    let words = m.words();
    // Lane l carries words[l], words[l + lanes], ...: every word past the
    // first bus beat toggles against the word one beat (`lanes` words)
    // earlier, so both sums are single allocation-free sweeps.
    let beats = words.len().saturating_sub(lanes);
    BusPass {
        toggles: slice_hamming_distance(&words[..beats], &words[words.len() - beats..]),
        words: words.len() as u64,
        weight: slice_hamming_weight(words),
    }
}

/// Stream both operands (A then B) and combine.
pub fn operand_bus_pass(a: &EncodedMatrix, b: &EncodedMatrix) -> BusPass {
    let pa = bus_pass(a);
    let pb = bus_pass(b);
    BusPass {
        toggles: pa.toggles + pb.toggles,
        words: pa.words + pb.words,
        weight: pa.weight + pb.weight,
    }
}

/// Tile-level L2/shared-memory replication factor: how many times the
/// average operand word streams through the on-chip path per kernel.
///
/// Each column-panel of B re-reads all of A (`ceil(M / tile.n)` panels)
/// and each row-panel of A re-reads all of B (`ceil(N / tile.m)` panels);
/// the average is weighted by operand size.
pub fn l2_replication(dims: GemmDims, tile: TileShape) -> f64 {
    let a_words = (dims.n * dims.k) as f64;
    let b_words = (dims.k * dims.m) as f64;
    let a_passes = dims.m.div_ceil(tile.n) as f64;
    let b_passes = dims.n.div_ceil(tile.m) as f64;
    (a_words * a_passes + b_words * b_passes) / (a_words + b_words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_matrix::Matrix;
    use wm_numerics::DType;

    #[test]
    fn constant_matrix_never_toggles() {
        let m = Matrix::filled(32, 32, 42.0);
        let e = EncodedMatrix::encode(&m, DType::Fp16);
        let p = bus_pass(&e);
        assert_eq!(p.toggles, 0);
        assert_eq!(p.words, 1024);
        assert!(p.weight > 0);
    }

    #[test]
    fn zero_matrix_is_fully_quiet() {
        let e = EncodedMatrix::encode(&Matrix::zeros(16, 16), DType::Fp32);
        let p = bus_pass(&e);
        assert_eq!(p.toggles, 0);
        assert_eq!(p.weight, 0);
    }

    #[test]
    fn alternating_lane_values_toggle_fully() {
        // INT8: 64 lanes. Make every element in lane 0 alternate 0x00/0xFF:
        // with 64 columns per row, element (r, 0) lands on lane 0 each row.
        let m = Matrix::from_fn(4, 64, |r, c| {
            if c == 0 {
                if r % 2 == 0 {
                    0.0
                } else {
                    -1.0 // 0xFF
                }
            } else {
                0.0
            }
        });
        let e = EncodedMatrix::encode(&m, DType::Int8);
        let p = bus_pass(&e);
        // Lane 0 transitions: 0x00 -> 0xFF -> 0x00 -> 0xFF = 3 x 8 bits.
        assert_eq!(p.toggles, 24);
    }

    #[test]
    fn sorted_data_toggles_less_than_shuffled() {
        use wm_bits::Xoshiro256pp;
        use wm_numerics::Gaussian;
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut g = Gaussian::new(0.0, 210.0);
        let mut vals: Vec<f32> = (0..4096).map(|_| g.sample_f32(&mut rng)).collect();
        let shuffled = Matrix::from_vec(64, 64, vals.clone());
        vals.sort_unstable_by(f32::total_cmp);
        let sorted = Matrix::from_vec(64, 64, vals);
        let ts = bus_pass(&EncodedMatrix::encode(&sorted, DType::Fp16)).toggles;
        let tr = bus_pass(&EncodedMatrix::encode(&shuffled, DType::Fp16)).toggles;
        // Lane striding (consecutive bursts carry elements 32 apart) keeps
        // the bus-level win moderate — the big sorting effect is on the
        // operand latches, asserted in the engine tests.
        assert!(
            (ts as f64) < tr as f64 * 0.85,
            "sorted toggles {ts} should be below random {tr} by >15%"
        );
    }

    /// The bus pass as first written: one `Option` latch per lane.
    fn reference_bus_pass(m: &EncodedMatrix) -> BusPass {
        let lanes = (BUS_BITS / m.dtype().bits()).max(1) as usize;
        let words = m.words();
        let mut toggles = 0u64;
        let mut weight = 0u64;
        let mut prev = vec![None::<u32>; lanes];
        for (i, &w) in words.iter().enumerate() {
            let lane = i % lanes;
            if let Some(p) = prev[lane] {
                toggles += u64::from((p ^ w).count_ones());
            }
            prev[lane] = Some(w);
            weight += u64::from(w.count_ones());
        }
        BusPass {
            toggles,
            words: words.len() as u64,
            weight,
        }
    }

    #[test]
    fn bus_pass_matches_the_per_lane_reference() {
        use wm_bits::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        // Shorter than one beat, exactly one, ragged, and many beats, in
        // every lane width (64/32/16 lanes).
        for (rows, cols) in [
            (1, 3),
            (1, 16),
            (2, 32),
            (1, 64),
            (7, 13),
            (5, 100),
            (33, 64),
        ] {
            let m = Matrix::from_fn(rows, cols, |_, _| f32::from_bits(rng.next_u32()));
            for dtype in DType::EXTENDED {
                let e = EncodedMatrix::encode(&m, dtype);
                assert_eq!(
                    bus_pass(&e),
                    reference_bus_pass(&e),
                    "{dtype} {rows}x{cols}"
                );
            }
        }
    }

    #[test]
    fn operand_pass_sums_both() {
        let a = EncodedMatrix::encode(&Matrix::filled(8, 8, 1.0), DType::Fp32);
        let b = EncodedMatrix::encode(&Matrix::zeros(8, 8), DType::Fp32);
        let p = operand_bus_pass(&a, &b);
        assert_eq!(p.words, 128);
        assert_eq!(p.toggles, 0);
        assert_eq!(p.weight, bus_pass(&a).weight);
    }

    #[test]
    fn l2_replication_for_square_2048() {
        // 2048/128 = 16 panels each way -> replication 16.
        let r = l2_replication(GemmDims::square(2048), TileShape::DEFAULT);
        assert!((r - 16.0).abs() < 1e-12);
    }

    #[test]
    fn l2_replication_small_problem_is_one() {
        let r = l2_replication(GemmDims::square(128), TileShape::DEFAULT);
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l2_replication_rectangular_weighted() {
        // N=128 (B streamed once), M=256 (A streamed twice).
        let dims = GemmDims {
            n: 128,
            m: 256,
            k: 64,
        };
        let r = l2_replication(dims, TileShape::DEFAULT);
        let a_words = (128 * 64) as f64;
        let b_words = (64 * 256) as f64;
        let expect = (a_words * 2.0 + b_words * 1.0) / (a_words + b_words);
        assert!((r - expect).abs() < 1e-12);
    }
}
