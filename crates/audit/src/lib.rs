//! # wm-audit — hermetic static analysis for the serving stack
//!
//! The workspace's headline guarantees — bit-identical metrics and
//! hashes regardless of worker count, sessions that survive malformed
//! input, a scheduler that a panicking worker cannot wedge — were
//! enforced by convention and spot tests. This crate machine-checks
//! them. It is a zero-dependency static analyzer built on a small
//! purpose-built Rust lexer ([`lexer`]): comment/string/char-literal
//! aware, `#[cfg(test)]` aware, no external parser.
//!
//! The rules (all named, all configurable through [`AuditConfig`]):
//!
//! * **panic-paths** — no `.unwrap()` / `.expect(…)` / `panic!` /
//!   `todo!` / `unreachable!` / `unimplemented!` in non-test code of the
//!   serving crates (`fleet`, `serve`, `obs`, `predict`, `power`). A
//!   request must be answered or errored, never aborted.
//! * **lock-hygiene** — `lock().unwrap()` and `lock().expect(…)`
//!   forbidden *everywhere*: mutex poisoning must be recovered with
//!   `unwrap_or_else(PoisonError::into_inner)` so one panicking thread
//!   can never wedge a shared structure.
//! * **determinism** — wall clocks (`Instant::now` / `SystemTime::now`)
//!   only in allowlisted tracer modules, and no
//!   iteration-order-randomized `HashMap` / `HashSet` in modules that
//!   produce canonical output (hashing, JSON, metrics exposition,
//!   persistence).
//! * **unsafe-confinement** — every lib crate root carries
//!   `#![forbid(unsafe_code)]`; the `unsafe` keyword appears only in the
//!   wattd binary's signal FFI.
//! * **protocol-drift** — the `"op"` strings the protocol dispatcher
//!   knows (`KNOWN_OPS` in `protocol.rs`) must agree exactly with the
//!   README's ops table, and serve-layer ops must exist where they claim
//!   to be implemented.
//!
//! On top of the token rules, three *graph-aware* analyses consume a
//! workspace model ([`model`]) built from a lightweight item parser
//! ([`parse`]) over the same lexer — a conservative call graph plus
//! per-function lock and allocation facts:
//!
//! * **lock-order** — the lock-acquisition graph, closed transitively
//!   through the call graph, must be acyclic; no guard may be held
//!   across a `Condvar::wait` on a different lock or across a blocking
//!   call. Findings carry the edge-by-edge witness path that proves
//!   them.
//! * **metric-drift** — metric names registered in code ⇔ the README
//!   metrics table, cross-checked in both directions like protocol-drift,
//!   and each row's Kind against the accessor that registers the name.
//! * **hot-path-alloc** — the configured hot functions (feature
//!   extraction, operand generation, canonical hashing, pricing) and
//!   everything they transitively call must be allocation-free, each
//!   finding carrying its call chain from the hot root.
//!
//! Deliberate exceptions are suppressed inline with an `audit:allow`
//! annotation carrying the rule name and a mandatory reason (grammar in
//! the README); a malformed annotation is itself a violation. The
//! `wm-audit` binary exits nonzero with `file:line` diagnostics (or a
//! stable JSON report via `--format json`, rendered by [`report`]), and
//! CI runs it on every push — the invariants hold for every future PR
//! by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod analyses;
pub mod config;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod report;
pub mod rules;
pub mod workspace;

pub use config::{rule_description, rule_explanation, AuditConfig, RULE_INFO, RULE_NAMES};
pub use model::WorkspaceModel;
pub use report::render_json;
pub use rules::{audit, Violation};
