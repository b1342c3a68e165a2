//! # wm-serve — wattd as a concurrent TCP network service
//!
//! The paper's input-dependent power models only matter in production if
//! they sit behind a service many clients can hit at once. This crate
//! lifts the `wm_fleet::protocol` JSON-lines protocol off stdin/stdout
//! and onto `std::net::TcpListener` — hermetically, no external deps —
//! with thread-per-connection **sessions** all sharing one
//! [`wm_fleet::Scheduler`] (fleet, memo cache, predictor, metrics
//! registry, tracer):
//!
//! * [`server`] — the [`Server`]: a bounded accept loop (admission is
//!   tied to backpressure — past `max_sessions` a connection gets one
//!   clean `busy` error line, never a hang), per-session request/error/
//!   byte/cache-hit stats surfaced alongside the globals in the `stats`
//!   op, a per-session id woven into every request's span trail
//!   (`stage::SESSION`), a request-line length cap so one client cannot
//!   OOM the daemon with an unterminated line, and **streamed batches**:
//!   over TCP a `batch` answers one response line per packed round as
//!   rounds complete. Every line goes through the protocol's one entry
//!   point, [`wm_fleet::answer`], or, when it is not JSON or runs past
//!   the cap, [`wm_fleet::reject_line`], as over stdio. Graceful drain —
//!   [`ServerHandle::shutdown`], the serve-layer `shutdown` op, or
//!   SIGTERM in the binary — stops accepting, finishes in-flight work,
//!   flushes predictor state, then returns.
//! * [`persist`] — predictor persistence: every `(architecture, kernel)`
//!   ridge model's sufficient statistics and error histogram serialized
//!   through `wm_fleet::json` to `--state-dir`, reloaded on startup
//!   behind a version + feature-dimension + staleness check. A warm
//!   start answers `predict` from learned models immediately instead of
//!   re-paying the training ramp.
//!
//! The `wattd` binary lives here (it needs both the protocol and the
//! server): legacy stdin/stdout mode stays the default, `wattd serve`
//! binds the network service. `perfbench/` measures this server's
//! capacity and latency over loopback TCP (its `serve-warm` workload).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persist;
pub mod server;

pub use persist::{load_predictor, save_predictor, LoadOutcome, STATE_FILE, STATE_VERSION};
pub use server::{ServeConfig, Server, ServerHandle, SessionSnapshot};
