//! # wm-analysis — statistics, correlation, and result tables
//!
//! The numerical toolkit behind the experiment harness:
//!
//! * [`fit`] — the shared incremental normal-equations core: online ridge
//!   regression with exact merge, used by the `wm-predict` online power
//!   predictor and `wm-optimizer`'s fitted power model;
//! * [`regression`] — Pearson and Spearman correlation (the paper's
//!   Fig. 8 relates power to bit alignment and Hamming weight across
//!   experiment configurations);
//! * [`table`] — markdown and CSV table writers behind the per-figure
//!   files the `wattmul` CLI writes (`wm_experiments::io`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod regression;
pub mod table;

pub use fit::{linear_predict, RidgeFitter};
pub use regression::{pearson, spearman};
pub use table::Table;
