//! # wm-patterns — every input pattern from the paper's §IV
//!
//! The paper's experiments vary *only* the input data of a fixed-shape
//! GEMM. This crate generates those inputs:
//!
//! | Paper section | Generator |
//! |---|---|
//! | §IV.A value distribution | [`PatternKind::Gaussian`] (σ and μ sweeps), [`PatternKind::ValueSet`] |
//! | §IV.B bit similarity | [`PatternKind::ConstantRandom`] + [`PatternKind::BitFlips`], [`PatternKind::RandomLsbs`], [`PatternKind::RandomMsbs`] |
//! | §IV.C placement | [`PatternKind::SortedRows`], [`PatternKind::SortedCols`], [`PatternKind::SortedWithinRows`] (alignment = the GEMM-level B-transposition switch) |
//! | §IV.D sparsity | [`PatternKind::Sparse`], [`PatternKind::SortedThenSparse`], [`PatternKind::ZeroLsbs`], [`PatternKind::ZeroMsbs`] |
//!
//! Every generator ([`PatternSpec::generate`]) is a **base draw** followed
//! by a **transform**:
//!
//! 1. the base draw takes logical FP32 values from a seeded Gaussian (the
//!    paper generates FP32 once and converts) and **quantizes them to the
//!    target dtype** — the matrix a kernel consumes holds exactly the values
//!    the hardware would see, so the toggle engine counts bits of the true
//!    encodings. Its [`BaseKey`] is exactly its inputs: the [`BaseKind`]
//!    (a Gaussian fill, a constant, a value set or zeros), mean and σ by
//!    bits, dtype, shape and starting RNG state;
//! 2. the transform applies the pattern's structure to the base — or, for
//!    the full row and column sorts and sort-then-sparsify, to the base's
//!    full sort — continuing from the RNG state the draw left behind.
//!
//! The paper changes one input property at a time from fixed seeds, so
//! within one dtype and seed every Gaussian-fill pattern draws the same
//! base. A batch may draw each distinct key once and transform it per
//! pattern; `generate` is exactly the two halves composed, so either way
//! the operands are bit-identical.
//!
//! Bit-level transforms (flips, LSB/MSB randomization and zeroing) operate
//! on the dtype's raw encodings via `wm-bits` surgery and decode back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bit_similarity;
pub mod distribution;
pub mod placement;
pub mod sparsity;
pub mod spec;

pub use spec::{BaseKey, BaseKind, PatternKind, PatternSpec};
