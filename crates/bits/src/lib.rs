//! # wm-bits — bit-level primitives for input-dependent power analysis
//!
//! This crate is the foundation of the `wattmul` reproduction of
//! *Input-Dependent Power Usage in GPUs* (SC 2024). The paper's central
//! hypothesis is that GPU power draw tracks the number of **bit flips**
//! (toggles) occurring in datapath latches, buses, and storage arrays as
//! operands stream through a GEMM kernel. Everything needed to quantify
//! that hypothesis lives here:
//!
//! * [`hamming`] — Hamming weight and Hamming distance over machine words
//!   and slices, plus the toggle count of a word stream: the raw currency
//!   of switching activity. The slice sums count two words of at most 32
//!   bits per popcount ([paired sums](hamming#paired-sums)).
//! * [`surgery`] — the bit-field manipulations behind the paper's §IV.B and
//!   §IV.D experiments: flipping random bits, randomizing or zeroing
//!   least/most-significant bits.
//! * [`rng`] — a deterministic, dependency-free xoshiro256++ PRNG (seeded
//!   via SplitMix64). All simulation randomness in the workspace flows
//!   through this generator so every experiment is bit-reproducible across
//!   platforms.
//!
//! No allocation happens in any hot path and every public function is safe
//! and deterministic, per the HPC guides used for this project.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hamming;
pub mod rng;
pub mod surgery;

pub use hamming::{
    hamming_distance, hamming_weight, slice_hamming_distance, slice_hamming_weight, stream_toggles,
    BitWord,
};
pub use rng::Xoshiro256pp;
pub use surgery::{
    flip_random_bits, randomize_lsbs, randomize_msbs, zero_lsbs, zero_msbs, BitSurgeon,
};
