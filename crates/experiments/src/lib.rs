//! # wm-experiments — one runner per paper figure
//!
//! Each figure of the paper's evaluation has a module that constructs the
//! corresponding parameter sweep, runs it through [`runner::execute`]
//! (a request's seeds and group members are walked once, fanned out over
//! cores, however many GPUs run it), and produces a [`FigureResult`] that
//! the `wattmul` CLI binary writes as CSV plus a markdown table.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1_runtime`] | Fig. 1 — iteration runtime by datatype |
//! | [`fig2_energy`] | Fig. 2 — iteration energy by datatype |
//! | [`fig3_distribution`] | Fig. 3a/b/c — σ sweep, μ sweep, value sets |
//! | [`fig4_bit_similarity`] | Fig. 4a/b/c — bit flips, LSB/MSB randomize |
//! | [`fig5_placement`] | Fig. 5a/b/c/d — sorting variants |
//! | [`fig6_sparsity`] | Fig. 6a/b/c/d — sparsity variants |
//! | [`fig7_cross_gpu`] | Fig. 7 — V100 / A100 / H100 / RTX 6000 |
//! | [`fig8_alignment`] | Fig. 8 — alignment & Hamming weight scatter |
//! | [`methodology`] | §III claims — utilization, runtime consistency, VM variation, throttle boundaries |
//! | [`ext_gemv`] | extension — the paper's sweeps under memory-bound GEMV (LLM decode) |
//! | [`ext_bf16`] | extension — BF16 vs FP16-T bit-level comparison |
//! | [`ext_predict`] | extension — learned power-predictor error vs. training volume |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;

pub mod ext_bf16;
pub mod ext_gemv;
pub mod ext_predict;
pub mod fig1_runtime;
pub mod fig2_energy;
pub mod fig3_distribution;
pub mod fig4_bit_similarity;
pub mod fig5_placement;
pub mod fig6_sparsity;
pub mod fig7_cross_gpu;
pub mod fig8_alignment;
pub mod io;
pub mod methodology;
pub mod profile;
pub mod runner;

pub use io::write_figure;
pub use profile::RunProfile;
pub use runner::{FigureResult, PointStat, Series};
