//! Rule configuration: which crates, files, and documents each rule
//! applies to.
//!
//! The defaults ([`AuditConfig::workspace_defaults`]) encode this
//! workspace's invariants; the fixture tests build configs pointing at
//! synthetic trees. Paths are workspace-root-relative with `/`
//! separators.

use std::path::{Path, PathBuf};

/// The eight audit rules: canonical name, one-line description (the
/// `--list-rules` column), and the longer rationale `--explain` prints.
pub const RULE_INFO: &[(&str, &str, &str)] = &[
    (
        "panic-paths",
        "serving crates must not panic on non-test code paths",
        "A panic in a serving crate takes a worker thread down mid-request and \
         can wedge every structure it owned. `.unwrap()`, `.expect(…)`, and the \
         panic macros are forbidden on live code paths of the configured \
         crates; return an error or contain the failure instead.",
    ),
    (
        "lock-hygiene",
        "`lock().unwrap()` is forbidden; recover from poison instead",
        "Unwrapping a poisoned lock turns one panicking thread into a cascade: \
         every later acquirer panics too. Recover with \
         `lock().unwrap_or_else(PoisonError::into_inner)` so the structure \
         stays usable.",
    ),
    (
        "determinism",
        "wall clocks and randomized-order maps only where sanctioned",
        "Replay and canonical output must be bit-stable. `Instant::now` / \
         `SystemTime::now` are confined to the tracer allowlist (where time \
         is the measurement), and canonical-output modules must use \
         `BTreeMap`/`BTreeSet` or sorted Vecs, never the \
         iteration-order-randomized `HashMap`/`HashSet`.",
    ),
    (
        "unsafe-confinement",
        "`unsafe` only in the FFI allowlist; lib roots forbid it",
        "All unsafety lives in one audited place (the wattd signal FFI). Every \
         other file is forbidden the keyword, and each lib crate root must \
         carry `#![forbid(unsafe_code)]` so a stray block cannot compile.",
    ),
    (
        "protocol-drift",
        "dispatcher ops ⇔ README ops table ⇔ serve-layer claims",
        "The wire protocol is documented exactly once, in the README ops \
         table. Every op the dispatcher knows (`KNOWN_OPS`) and every \
         serve-layer op must appear there, and every documented op must be \
         implemented — drift in either direction is a finding.",
    ),
    (
        "lock-order",
        "no lock-order cycles, no guard held across waits or blocking calls",
        "Builds the workspace lock graph transitively through the call graph: \
         an edge `a -> b` means some function acquires `b` (itself or via a \
         callee) while a guard of `a` is live. Any cycle is a potential \
         deadlock, reported once with the full edge-by-edge witness path. A \
         guard held across a `Condvar::wait` on a *different* lock, or across \
         a configured blocking call, is reported at the exact site. The \
         sanctioned hierarchy is documented in the README.",
    ),
    (
        "metric-drift",
        "registered metrics ⇔ README metrics table, names and kinds",
        "Metric names are stringly-typed and silently drift. Every name \
         registered through a `.counter(…)`/`.gauge(…)/.histogram(…)` call \
         must appear in the README metrics table, every documented name \
         must have a producer, and each row's Kind must be the accessor \
         that registers the name.",
    ),
    (
        "hot-path-alloc",
        "configured hot functions and their callees must not allocate",
        "Per-request estimation cost is the production bottleneck for power \
         prediction: the configured hot functions (feature extraction, \
         operand generation, canonical hashing, pricing) plus everything they \
         transitively call must be allocation-free. `Vec::new`, `vec!`, \
         `.to_vec()`, `.clone()`, `format!`, `String::from`, and `.collect()` \
         are findings, each carrying the call chain from the hot root as its \
         witness. An allow on the allocation line suppresses the site; an \
         allow on a `fn` declaration line sanctions that whole subtree.",
    ),
];

/// The audit rules, by canonical name.
pub const RULE_NAMES: &[&str] = &[
    "panic-paths",
    "lock-hygiene",
    "determinism",
    "unsafe-confinement",
    "protocol-drift",
    "lock-order",
    "metric-drift",
    "hot-path-alloc",
];

/// Whether `name` names a real rule (the `audit:allow` grammar rejects
/// unknown names so a typo cannot silently suppress nothing).
pub fn is_rule(name: &str) -> bool {
    RULE_NAMES.contains(&name)
}

/// The one-line description of `rule`, for `--list-rules`.
pub fn rule_description(rule: &str) -> &'static str {
    RULE_INFO
        .iter()
        .find(|(n, _, _)| *n == rule)
        .map(|(_, d, _)| *d)
        .unwrap_or("")
}

/// The full rationale of `rule`, for `--explain`.
pub fn rule_explanation(rule: &str) -> &'static str {
    RULE_INFO
        .iter()
        .find(|(n, _, _)| *n == rule)
        .map(|(_, _, e)| *e)
        .unwrap_or("")
}

/// Everything the audit needs to know about a workspace.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Workspace root; every other path is relative to it.
    pub root: PathBuf,
    /// Crate directory names (under `crates/`) whose non-test code must
    /// be panic-free: no `.unwrap()` / `.expect()` / `panic!` / `todo!`
    /// / `unreachable!` / `unimplemented!`.
    pub panic_free_crates: Vec<String>,
    /// Files allowed to read wall clocks (`Instant::now`,
    /// `SystemTime::now`): the tracer and timing harnesses, where time
    /// *is* the measurement.
    pub clock_allowed_files: Vec<String>,
    /// Files that produce canonical output (hashing, JSON, metrics
    /// exposition, persistence) and therefore must not use the
    /// iteration-order-randomized `HashMap` / `HashSet`.
    pub canonical_output_files: Vec<String>,
    /// Files allowed to contain the `unsafe` keyword (the wattd
    /// binary's signal FFI, nothing else).
    pub unsafe_allowed_files: Vec<String>,
    /// The protocol dispatch file whose `KNOWN_OPS` list anchors the
    /// protocol-drift rule. Empty disables the rule.
    pub protocol_file: String,
    /// The document carrying the ops table.
    pub readme_file: String,
    /// The exact heading line introducing the ops table in
    /// [`AuditConfig::readme_file`].
    pub readme_ops_heading: String,
    /// Ops implemented above the core protocol (serve layer), as
    /// `(op, file that must match the op string)` pairs; they must
    /// appear in the README table but not in `KNOWN_OPS`.
    pub serve_layer_ops: Vec<(String, String)>,
    /// Hot functions for the hot-path-alloc rule, as plain names or
    /// `Type::name`. They and their transitive callees must be
    /// allocation-free. Empty disables the rule.
    pub hot_path_functions: Vec<String>,
    /// The exact heading line introducing the metrics table in
    /// [`AuditConfig::readme_file`]. Empty disables metric-drift.
    pub metric_readme_heading: String,
    /// Method names that block (I/O, sleeps, channel receives); a lock
    /// guard held across one is a lock-order finding.
    pub blocking_calls: Vec<String>,
    /// Guard-returning helper functions whose argument names the lock
    /// (`lock_clean(&x.field)` acquires `field`).
    pub lock_helpers: Vec<String>,
    /// Rules to run (canonical names). Empty means all.
    pub only_rules: Vec<String>,
}

impl AuditConfig {
    /// The configuration for *this* workspace: the serving crates, the
    /// tracer clock allowlist, the canonical-output modules, the
    /// wattd signal FFI exemption, and the protocol/README pairing.
    pub fn workspace_defaults(root: &Path) -> Self {
        let s = |x: &str| x.to_string();
        AuditConfig {
            root: root.to_path_buf(),
            panic_free_crates: vec![s("fleet"), s("serve"), s("obs"), s("predict"), s("power")],
            clock_allowed_files: vec![
                // The tracer's monotonic epoch measures latency; real
                // clocks are its job.
                s("crates/obs/src/trace.rs"),
            ],
            canonical_output_files: vec![
                s("crates/fleet/src/hash.rs"),
                s("crates/fleet/src/json.rs"),
                s("crates/obs/src/histogram.rs"),
                s("crates/obs/src/metrics.rs"),
                s("crates/serve/src/persist.rs"),
            ],
            unsafe_allowed_files: vec![s("crates/serve/src/bin/wattd.rs")],
            protocol_file: s("crates/fleet/src/protocol.rs"),
            readme_file: s("README.md"),
            readme_ops_heading: s("#### Protocol ops"),
            serve_layer_ops: vec![(s("shutdown"), s("crates/serve/src/server.rs"))],
            hot_path_functions: vec![
                // The per-request estimation path EnergAIzer-style
                // serving cannot afford to let regress: feature merging,
                // operand generation, canonical hashing, pricing. Every
                // auto job merges its members' seed-0 chunks and
                // finishes its feature vector.
                s("FeatureAccumulator::merge"),
                s("FeatureAccumulator::finish_group"),
                // The operand walk of one (member, seed) unit, shared by
                // the scheduler's unit store and the figure runner.
                s("member_seed_operands"),
                // The one answer-store lookup key every job computes,
                // hit or miss.
                s("answer_key"),
                // The hit-only answer read that serves a cached repeat
                // on the submitting thread.
                s("MemoCache::hit"),
                s("pack_ffd"),
                // The unit-store key sits on the miss path right after
                // the answer lookup.
                s("unit_key"),
                // The per-word passes of a unit walk: the DRAM bus pass
                // and the feature chunk read the operands' shared words.
                s("bus_pass"),
                s("FeatureAccumulator::add_words"),
            ],
            metric_readme_heading: s("#### Metrics"),
            blocking_calls: vec![
                s("write_all"),
                s("read_exact"),
                s("read_line"),
                s("accept"),
                s("connect"),
                s("recv"),
                s("recv_timeout"),
                s("sleep"),
            ],
            lock_helpers: vec![s("lock_clean")],
            only_rules: Vec::new(),
        }
    }

    /// Whether `rule` is enabled under `only_rules`.
    pub fn rule_enabled(&self, rule: &str) -> bool {
        self.only_rules.is_empty() || self.only_rules.iter().any(|r| r == rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_are_known() {
        assert!(is_rule("panic-paths"));
        assert!(is_rule("protocol-drift"));
        assert!(!is_rule("panic_paths"));
        assert!(!is_rule(""));
    }

    #[test]
    fn rule_info_covers_every_rule_in_order() {
        assert_eq!(RULE_INFO.len(), RULE_NAMES.len());
        for (i, (name, desc, expl)) in RULE_INFO.iter().enumerate() {
            assert_eq!(*name, RULE_NAMES[i]);
            assert!(!desc.is_empty(), "{name} has no description");
            assert!(!expl.is_empty(), "{name} has no explanation");
        }
        assert_eq!(rule_description("lock-order"), RULE_INFO[5].1);
        assert!(rule_explanation("hot-path-alloc").contains("witness"));
    }

    #[test]
    fn only_rules_filters() {
        let mut cfg = AuditConfig::workspace_defaults(Path::new("."));
        assert!(cfg.rule_enabled("determinism"));
        cfg.only_rules = vec!["lock-hygiene".to_string()];
        assert!(cfg.rule_enabled("lock-hygiene"));
        assert!(!cfg.rule_enabled("determinism"));
    }
}
