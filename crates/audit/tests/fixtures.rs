//! Fixture tests for every audit rule: each rule gets a synthetic
//! workspace with a violating file (flagged at the right `file:line`),
//! a clean file (passes), and an annotated file (`audit:allow`
//! suppresses), plus the malformed-annotation cases and the headline
//! guarantee — the *real* workspace passes clean.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use wm_audit::{audit, render_json, AuditConfig, Violation, RULE_NAMES};

/// A synthetic workspace on disk, torn down on drop.
struct Fixture {
    root: PathBuf,
}

static NEXT_FIXTURE: AtomicU64 = AtomicU64::new(0);

impl Fixture {
    fn new() -> Fixture {
        let n = NEXT_FIXTURE.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("wm_audit_fixture_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
        Fixture { root }
    }

    /// Write `text` at `rel` (workspace-root-relative, `/`-separated).
    fn file(&self, rel: &str, text: &str) -> &Self {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, text).expect("write fixture file");
        self
    }

    /// A config over this fixture with the document-anchored and
    /// graph-anchored workspace specifics disabled — no protocol file,
    /// no serve-layer ops, no metrics heading, no hot functions — so
    /// each rule's tests opt back in explicitly.
    fn cfg(&self) -> AuditConfig {
        let mut cfg = AuditConfig::workspace_defaults(&self.root);
        cfg.protocol_file = String::new();
        cfg.serve_layer_ops = Vec::new();
        cfg.metric_readme_heading = String::new();
        cfg.hot_path_functions = Vec::new();
        cfg
    }

    fn run(&self, cfg: &AuditConfig) -> Vec<Violation> {
        audit(cfg).expect("fixture audit runs").0
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Assert exactly one violation of `rule` at `file:line`.
fn assert_single(violations: &[Violation], rule: &str, file: &str, line: usize) {
    assert_eq!(
        violations.len(),
        1,
        "expected exactly one violation, got: {violations:?}"
    );
    let v = &violations[0];
    assert_eq!(v.rule, rule, "{v}");
    assert_eq!(v.file, file, "{v}");
    assert_eq!(v.line, line, "{v}");
}

// ---------------------------------------------------------------- panic-paths

#[test]
fn panic_paths_flags_unwrap_in_serving_crate() {
    let fx = Fixture::new();
    fx.file(
        "crates/fleet/src/work.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    assert_single(
        &fx.run(&fx.cfg()),
        "panic-paths",
        "crates/fleet/src/work.rs",
        2,
    );
}

#[test]
fn panic_paths_flags_panic_macros_with_exact_lines() {
    let fx = Fixture::new();
    fx.file(
        "crates/serve/src/work.rs",
        "pub fn f(n: u32) -> u32 {\n    if n > 9 {\n        unreachable!(\"no\");\n    }\n    todo!()\n}\n",
    );
    let vs = fx.run(&fx.cfg());
    assert_eq!(vs.len(), 2, "{vs:?}");
    assert_eq!(
        (vs[0].rule.as_str(), vs[0].line),
        ("panic-paths", 3),
        "{vs:?}"
    );
    assert_eq!(
        (vs[1].rule.as_str(), vs[1].line),
        ("panic-paths", 5),
        "{vs:?}"
    );
}

#[test]
fn panic_paths_ignores_test_code_and_nonserving_crates() {
    let fx = Fixture::new();
    // Same unwrap, three exempt homes: a #[cfg(test)] module, a
    // tests/ file, and a crate outside the serving set.
    fx.file(
        "crates/fleet/src/work.rs",
        "pub fn f() -> u32 { 1 }\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(3u32).unwrap();\n    }\n}\n",
    )
    .file(
        "crates/fleet/tests/e2e.rs",
        "fn main() {\n    Some(3u32).unwrap();\n}\n",
    )
    .file(
        "crates/matrix/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    assert_eq!(fx.run(&fx.cfg()), Vec::new());
}

#[test]
fn panic_paths_allow_annotation_suppresses_with_reason() {
    let fx = Fixture::new();
    fx.file(
        "crates/fleet/src/work.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    // audit:allow(panic-paths): startup-only, before traffic\n    x.unwrap()\n}\n",
    );
    assert_eq!(fx.run(&fx.cfg()), Vec::new());
}

#[test]
fn multiline_chain_is_still_caught() {
    let fx = Fixture::new();
    // The unwrap is two lines below the receiver — token-level matching
    // sees through the line break.
    fx.file(
        "crates/fleet/src/work.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x\n        .unwrap()\n}\n",
    );
    assert_single(
        &fx.run(&fx.cfg()),
        "panic-paths",
        "crates/fleet/src/work.rs",
        3,
    );
}

#[test]
fn strings_and_comments_never_false_positive() {
    let fx = Fixture::new();
    fx.file(
        "crates/fleet/src/work.rs",
        "pub fn f() -> &'static str {\n    // .unwrap() and panic! in prose are fine\n    \"call .unwrap() or panic!(now)\"\n}\n",
    );
    assert_eq!(fx.run(&fx.cfg()), Vec::new());
}

// --------------------------------------------------------------- lock-hygiene

#[test]
fn lock_hygiene_flags_lock_unwrap_even_in_tests() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/tests/t.rs",
        "use std::sync::Mutex;\nfn main() {\n    let m = Mutex::new(1u32);\n    let _g = m.lock().unwrap();\n}\n",
    );
    assert_single(
        &fx.run(&fx.cfg()),
        "lock-hygiene",
        "crates/matrix/tests/t.rs",
        4,
    );
}

#[test]
fn lock_hygiene_flags_expect_and_owns_the_site() {
    let fx = Fixture::new();
    fx.file(
        "crates/fleet/src/work.rs",
        "use std::sync::Mutex;\npub fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock().expect(\"poisoned\")\n}\n",
    );
    // One diagnostic, not two: lock-hygiene owns lock().expect sites,
    // panic-paths skips them.
    assert_single(
        &fx.run(&fx.cfg()),
        "lock-hygiene",
        "crates/fleet/src/work.rs",
        3,
    );
}

#[test]
fn lock_hygiene_poison_recovery_idiom_is_clean() {
    let fx = Fixture::new();
    fx.file(
        "crates/fleet/src/work.rs",
        "use std::sync::{Mutex, PoisonError};\npub fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock().unwrap_or_else(PoisonError::into_inner)\n}\n",
    );
    assert_eq!(fx.run(&fx.cfg()), Vec::new());
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_flags_clocks_outside_allowlist() {
    let fx = Fixture::new();
    fx.file(
        "crates/fleet/src/work.rs",
        "use std::time::Instant;\npub fn f() -> Instant {\n    Instant::now()\n}\n",
    );
    assert_single(
        &fx.run(&fx.cfg()),
        "determinism",
        "crates/fleet/src/work.rs",
        3,
    );
}

#[test]
fn determinism_allows_clocks_in_allowlisted_tracer() {
    let fx = Fixture::new();
    fx.file(
        "crates/obs/src/trace.rs",
        "use std::time::Instant;\npub fn f() -> Instant {\n    Instant::now()\n}\n",
    );
    assert_eq!(fx.run(&fx.cfg()), Vec::new());
}

#[test]
fn determinism_flags_hashmap_in_canonical_output_module() {
    let fx = Fixture::new();
    fx.file(
        "crates/fleet/src/hash.rs",
        "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n",
    );
    let vs = fx.run(&fx.cfg());
    assert!(
        !vs.is_empty() && vs.iter().all(|v| v.rule == "determinism"),
        "{vs:?}"
    );
    assert_eq!(vs[0].line, 1, "first flag on the use line: {vs:?}");
}

#[test]
fn determinism_btreemap_in_canonical_output_module_is_clean() {
    let fx = Fixture::new();
    fx.file(
        "crates/fleet/src/hash.rs",
        "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u32, u32> {\n    BTreeMap::new()\n}\n",
    );
    assert_eq!(fx.run(&fx.cfg()), Vec::new());
}

// ---------------------------------------------------------- unsafe-confinement

#[test]
fn unsafe_confinement_requires_forbid_in_lib_roots() {
    let fx = Fixture::new();
    fx.file("crates/matrix/src/lib.rs", "pub fn f() -> u32 { 1 }\n");
    assert_single(
        &fx.run(&fx.cfg()),
        "unsafe-confinement",
        "crates/matrix/src/lib.rs",
        1,
    );
}

#[test]
fn unsafe_confinement_flags_unsafe_outside_allowlist() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/work.rs",
        "pub fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n",
    );
    assert_single(
        &fx.run(&fx.cfg()),
        "unsafe-confinement",
        "crates/matrix/src/work.rs",
        2,
    );
}

#[test]
fn unsafe_confinement_allowlisted_ffi_file_is_clean() {
    let fx = Fixture::new();
    fx.file(
        "crates/serve/src/bin/wattd.rs",
        "fn main() {\n    let x = 1u32;\n    let _ = unsafe { *std::ptr::addr_of!(x) };\n}\n",
    );
    assert_eq!(fx.run(&fx.cfg()), Vec::new());
}

// --------------------------------------------------------------- audit:allow

#[test]
fn malformed_allow_unknown_rule_is_a_violation() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/work.rs",
        "// audit:allow(no-such-rule): misspelled\npub fn f() -> u32 { 1 }\n",
    );
    assert_single(
        &fx.run(&fx.cfg()),
        "audit-allow",
        "crates/matrix/src/work.rs",
        1,
    );
}

#[test]
fn allow_without_reason_is_a_violation_and_suppresses_nothing() {
    let fx = Fixture::new();
    fx.file(
        "crates/fleet/src/work.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    // audit:allow(panic-paths)\n    x.unwrap()\n}\n",
    );
    let vs = fx.run(&fx.cfg());
    assert_eq!(vs.len(), 2, "{vs:?}");
    assert_eq!(vs[0].rule, "audit-allow", "{vs:?}");
    assert_eq!(vs[1].rule, "panic-paths", "{vs:?}");
}

#[test]
fn prose_mention_of_the_marker_is_not_an_annotation() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/work.rs",
        "// Deliberate exceptions use an audit:allow annotation.\npub fn f() -> u32 { 1 }\n",
    );
    assert_eq!(fx.run(&fx.cfg()), Vec::new());
}

// ------------------------------------------------------------- protocol-drift

/// A fixture whose protocol file dispatches `run` and `ping`.
fn drift_fixture(readme: &str) -> Fixture {
    let fx = Fixture::new();
    fx.file(
        "crates/fleet/src/protocol.rs",
        "pub const KNOWN_OPS: &[&str] = &[\"run\", \"ping\"];\n",
    )
    .file("README.md", readme);
    fx
}

fn drift_cfg(fx: &Fixture) -> AuditConfig {
    let mut cfg = fx.cfg();
    cfg.protocol_file = "crates/fleet/src/protocol.rs".to_string();
    cfg.only_rules = vec!["protocol-drift".to_string()];
    cfg
}

#[test]
fn protocol_drift_clean_when_table_matches() {
    let fx = drift_fixture(
        "# Svc\n\n#### Protocol ops\n\n| Op | Meaning |\n|---|---|\n| `run` | execute |\n| `ping` | liveness |\n",
    );
    assert_eq!(fx.run(&drift_cfg(&fx)), Vec::new());
}

#[test]
fn protocol_drift_flags_missing_and_undocumented_ops() {
    let fx = drift_fixture(
        "# Svc\n\n#### Protocol ops\n\n| Op | Meaning |\n|---|---|\n| `run` | execute |\n| `frobnicate` | nothing implements this |\n",
    );
    let vs = fx.run(&drift_cfg(&fx));
    assert_eq!(vs.len(), 2, "{vs:?}");
    assert!(
        vs.iter().any(|v| v.message.contains("\"ping\"")),
        "ping dispatched but undocumented: {vs:?}"
    );
    assert!(
        vs.iter()
            .any(|v| v.message.contains("\"frobnicate\"") && v.line == 8),
        "frobnicate documented but not implemented, at its table row: {vs:?}"
    );
}

#[test]
fn protocol_drift_flags_missing_readme_section() {
    let fx = drift_fixture("# Svc\n\nno ops table here\n");
    let vs = fx.run(&drift_cfg(&fx));
    assert_single(&vs, "protocol-drift", "README.md", 1);
}

#[test]
fn protocol_drift_checks_serve_layer_op_exists_in_claimed_file() {
    let fx = drift_fixture(
        "# Svc\n\n#### Protocol ops\n\n| Op | Meaning |\n|---|---|\n| `run` | execute |\n| `ping` | liveness |\n| `shutdown` | drain |\n",
    );
    let mut cfg = drift_cfg(&fx);
    cfg.serve_layer_ops = vec![(
        "shutdown".to_string(),
        "crates/serve/src/server.rs".to_string(),
    )];
    // The claimed file doesn't exist yet: flagged.
    let vs = fx.run(&cfg);
    assert_single(&vs, "protocol-drift", "crates/serve/src/server.rs", 1);
    // Once the file matches on the op string, clean.
    fx.file(
        "crates/serve/src/server.rs",
        "pub fn dispatch(op: &str) -> bool {\n    op == \"shutdown\"\n}\n",
    );
    assert_eq!(fx.run(&cfg), Vec::new());
}

// ----------------------------------------------------------------- lock-order

#[test]
fn lock_order_catches_a_seeded_two_lock_cycle_with_witness() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/locks.rs",
        "use std::sync::{Mutex, PoisonError};\n\
         pub struct S {\n    a: Mutex<u32>,\n    b: Mutex<u32>,\n}\n\
         impl S {\n\
         \x20   pub fn ab(&self) -> u32 {\n\
         \x20       let g = self.a.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       let h = self.b.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       *g + *h\n\
         \x20   }\n\
         \x20   pub fn ba(&self) -> u32 {\n\
         \x20       let g = self.b.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       let h = self.a.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       *g + *h\n\
         \x20   }\n\
         }\n",
    );
    let vs = fx.run(&fx.cfg());
    // Reported once, at the first edge of the cycle (`a -> b`, i.e. the
    // `b` acquisition under `a`'s guard on line 9).
    assert_single(&vs, "lock-order", "crates/matrix/src/locks.rs", 9);
    assert!(vs[0].message.contains("lock-order cycle"), "{}", vs[0]);
    assert_eq!(vs[0].witness.len(), 2, "{:?}", vs[0].witness);
    assert!(
        vs[0].witness[0].contains("crates/matrix/src/locks.rs:9 (in S::ab)"),
        "{:?}",
        vs[0].witness
    );
    assert!(
        vs[0].witness[1].contains("crates/matrix/src/locks.rs:14 (in S::ba)"),
        "{:?}",
        vs[0].witness
    );
}

#[test]
fn lock_order_sees_cycles_through_the_call_graph() {
    let fx = Fixture::new();
    // `top` holds `outer` while calling `low`, which locks `inner`; `rev`
    // nests them the other way — a cycle no single function exhibits.
    fx.file(
        "crates/matrix/src/locks.rs",
        "use std::sync::{Mutex, PoisonError};\n\
         pub struct S {\n    outer: Mutex<u32>,\n    inner: Mutex<u32>,\n}\n\
         impl S {\n\
         \x20   pub fn top(&self) -> u32 {\n\
         \x20       let g = self.outer.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       self.low() + *g\n\
         \x20   }\n\
         \x20   pub fn low(&self) -> u32 {\n\
         \x20       *self.inner.lock().unwrap_or_else(PoisonError::into_inner)\n\
         \x20   }\n\
         \x20   pub fn rev(&self) -> u32 {\n\
         \x20       let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       let h = self.outer.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       *g + *h\n\
         \x20   }\n\
         }\n",
    );
    let vs = fx.run(&fx.cfg());
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(vs[0].message.contains("lock-order cycle"), "{}", vs[0]);
    assert!(
        vs[0].witness.iter().any(|w| w.contains("via S::low")),
        "the indirect edge names its callee: {:?}",
        vs[0].witness
    );
}

#[test]
fn lock_order_flags_guard_held_across_wait_on_a_different_lock() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/waits.rs",
        "use std::sync::{Condvar, Mutex, PoisonError};\n\
         pub struct S {\n    stats: Mutex<u32>,\n    slot: Mutex<u32>,\n    ready: Condvar,\n}\n\
         impl S {\n\
         \x20   pub fn bad(&self) -> u32 {\n\
         \x20       let stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       slot = self.ready.wait(slot).unwrap_or_else(PoisonError::into_inner);\n\
         \x20       *stats + *slot\n\
         \x20   }\n\
         \x20   pub fn good(&self) -> u32 {\n\
         \x20       let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       slot = self.ready.wait(slot).unwrap_or_else(PoisonError::into_inner);\n\
         \x20       *slot\n\
         \x20   }\n\
         }\n",
    );
    let vs = fx.run(&fx.cfg());
    // `good` passes its own guard to the wait — sanctioned. `bad` holds
    // `stats` across a wait that can only release `slot`.
    assert_single(&vs, "lock-order", "crates/matrix/src/waits.rs", 11);
    assert!(
        vs[0].message.contains("held across `Condvar::wait`"),
        "{}",
        vs[0]
    );
    assert!(
        vs[0].witness[0].contains("`stats` acquired at"),
        "{:?}",
        vs[0].witness
    );
}

#[test]
fn lock_order_flags_guard_held_across_blocking_call() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/blocking.rs",
        "use std::io::Write;\n\
         use std::sync::{Mutex, PoisonError};\n\
         pub struct S {\n    stats: Mutex<u32>,\n}\n\
         impl S {\n\
         \x20   pub fn bad(&self, w: &mut impl Write) {\n\
         \x20       let g = self.stats.lock().unwrap_or_else(PoisonError::into_inner);\n\
         \x20       let _ = w.write_all(&[1u8]);\n\
         \x20       drop(g);\n\
         \x20   }\n\
         }\n",
    );
    let vs = fx.run(&fx.cfg());
    assert_single(&vs, "lock-order", "crates/matrix/src/blocking.rs", 9);
    assert!(
        vs[0].message.contains("blocking call `.write_all"),
        "{}",
        vs[0]
    );
}

// --------------------------------------------------------------- metric-drift

/// A config that points metric-drift at the fixture's README.
fn metric_cfg(fx: &Fixture) -> AuditConfig {
    let mut cfg = fx.cfg();
    cfg.metric_readme_heading = "#### Metrics".to_string();
    cfg.only_rules = vec!["metric-drift".to_string()];
    cfg
}

#[test]
fn metric_drift_flags_both_directions() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/m.rs",
        "pub fn record(reg: &Registry) {\n\
         \x20   reg.counter(\"good_total\", &[]).inc();\n\
         \x20   reg.counter(\"rogue_total\", &[]).inc();\n\
         }\n",
    )
    .file(
        "README.md",
        "# T\n\n#### Metrics\n\n| Metric | Kind | Meaning |\n|---|---|---|\n\
         | `good_total` | counter | fine |\n\
         | `ghost_total` | counter | documented only |\n",
    );
    let vs = fx.run(&metric_cfg(&fx));
    assert_eq!(vs.len(), 2, "{vs:?}");
    // Documented but never registered, at its table row.
    assert_eq!(
        (vs[0].file.as_str(), vs[0].line),
        ("README.md", 8),
        "{vs:?}"
    );
    assert!(vs[0].message.contains("\"ghost_total\""), "{}", vs[0]);
    // Registered but undocumented, at the registration site.
    assert_eq!(
        (vs[1].file.as_str(), vs[1].line),
        ("crates/matrix/src/m.rs", 3),
        "{vs:?}"
    );
    assert!(vs[1].message.contains("\"rogue_total\""), "{}", vs[1]);
}

#[test]
fn metric_drift_clean_when_code_and_readme_agree() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/m.rs",
        "pub fn record(reg: &Registry) {\n\
         \x20   reg.counter(\"good_total\", &[]).inc();\n\
         }\n",
    )
    .file(
        "README.md",
        "# T\n\n#### Metrics\n\n| Metric | Kind | Meaning |\n|---|---|---|\n\
         | `good_total` | counter | fine |\n",
    );
    assert_eq!(fx.run(&metric_cfg(&fx)), Vec::new());
}

#[test]
fn metric_drift_flags_a_row_whose_kind_disagrees_with_its_registration() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/m.rs",
        "pub fn record(reg: &Registry) {\n\
         \x20   reg.counter(\"good_total\", &[]).inc();\n\
         \x20   reg.counter(\"probed\", &[]).inc();\n\
         }\n",
    )
    .file(
        "README.md",
        "# T\n\n#### Metrics\n\n| Metric | Kind | Meaning |\n|---|---|---|\n\
         | `good_total` | counter | fine |\n\
         | `probed` | gauge | the kind drifted |\n",
    );
    let vs = fx.run(&metric_cfg(&fx));
    assert_single(&vs, "metric-drift", "README.md", 8);
    assert!(
        vs[0].message.contains("\"probed\" as a \"gauge\"")
            && vs[0].message.contains("crates/matrix/src/m.rs:3")
            && vs[0].message.contains("`.counter(`"),
        "{}",
        vs[0]
    );
}

#[test]
fn metric_drift_flags_missing_readme_section() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/m.rs",
        "pub fn record(reg: &Registry) {\n\
         \x20   reg.counter(\"good_total\", &[]).inc();\n\
         }\n",
    )
    .file("README.md", "# T\n\nno metrics table\n");
    let vs = fx.run(&metric_cfg(&fx));
    assert_single(&vs, "metric-drift", "README.md", 1);
}

// ------------------------------------------------------------- hot-path-alloc

/// Three-deep call chain: the allocation sits two calls below the
/// configured hot root.
const HOT_SRC: &str = "pub fn hot_root(n: usize) -> u64 {\n\
                       \x20   mid(n)\n\
                       }\n\
                       fn mid(n: usize) -> u64 {\n\
                       \x20   leaf(n)\n\
                       }\n\
                       fn leaf(n: usize) -> u64 {\n\
                       \x20   let v = vec![0u8; n];\n\
                       \x20   v.len() as u64\n\
                       }\n";

fn hot_cfg(fx: &Fixture) -> AuditConfig {
    let mut cfg = fx.cfg();
    cfg.hot_path_functions = vec!["hot_root".to_string()];
    cfg.only_rules = vec!["hot-path-alloc".to_string()];
    cfg
}

#[test]
fn hot_path_alloc_flags_transitive_allocation_two_calls_deep() {
    let fx = Fixture::new();
    fx.file("crates/matrix/src/hot.rs", HOT_SRC);
    let vs = fx.run(&hot_cfg(&fx));
    assert_single(&vs, "hot-path-alloc", "crates/matrix/src/hot.rs", 8);
    assert!(vs[0].message.contains("`vec!` allocates"), "{}", vs[0]);
    assert_eq!(
        vs[0].witness,
        [
            "hot_root (crates/matrix/src/hot.rs:1)",
            "mid (crates/matrix/src/hot.rs:4)",
            "leaf (crates/matrix/src/hot.rs:7)"
        ],
        "the witness walks the call chain from the root"
    );
}

#[test]
fn hot_path_alloc_suppressed_on_the_callee_line() {
    let fx = Fixture::new();
    // The allow sits on the allocation line deep in the callee — the
    // transitive finding at the caller's root is silenced by it.
    fx.file(
        "crates/matrix/src/hot.rs",
        &HOT_SRC.replace(
            "    let v = vec![0u8; n];",
            "    // audit:allow(hot-path-alloc): scratch reused by the caller\n    let v = vec![0u8; n];",
        ),
    );
    assert_eq!(fx.run(&hot_cfg(&fx)), Vec::new());
}

#[test]
fn hot_path_alloc_fn_decl_allow_cuts_the_subtree() {
    let fx = Fixture::new();
    // Sanctioning `mid` stops the walk: `leaf`'s allocation is never
    // visited through it.
    fx.file(
        "crates/matrix/src/hot.rs",
        &HOT_SRC.replace(
            "fn mid(n: usize) -> u64 {",
            "// audit:allow(hot-path-alloc): mid's subtree builds the product\nfn mid(n: usize) -> u64 {",
        ),
    );
    assert_eq!(fx.run(&hot_cfg(&fx)), Vec::new());
}

#[test]
fn hot_path_alloc_flags_a_missing_configured_root() {
    let fx = Fixture::new();
    fx.file(
        "crates/matrix/src/hot.rs",
        "pub fn unrelated() -> u32 { 1 }\n",
    );
    let vs = fx.run(&hot_cfg(&fx));
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(
        vs[0].message.contains("`hot_root` was not found"),
        "{}",
        vs[0]
    );
}

// -------------------------------------------------- JSON output (satellite 1)

#[test]
fn json_report_snapshot() {
    let fx = Fixture::new();
    fx.file("crates/matrix/src/hot.rs", HOT_SRC);
    let cfg = hot_cfg(&fx);
    let (vs, files) = audit(&cfg).expect("fixture audit runs");
    let json = render_json(&vs, files, &["hot-path-alloc"]);
    let expected = "{\n\
        \x20 \"schema\": \"wm-audit/v1\",\n\
        \x20 \"files\": 1,\n\
        \x20 \"rules\": [\"hot-path-alloc\"],\n\
        \x20 \"violations\": [\n\
        \x20   {\"file\": \"crates/matrix/src/hot.rs\", \"line\": 8, \"rule\": \"hot-path-alloc\", \
        \"message\": \"`vec!` allocates on the hot path rooted at `hot_root (crates/matrix/src/hot.rs:1)`\", \
        \"witness\": [\"hot_root (crates/matrix/src/hot.rs:1)\", \"mid (crates/matrix/src/hot.rs:4)\", \"leaf (crates/matrix/src/hot.rs:7)\"]}\n\
        \x20 ]\n\
        }";
    assert_eq!(json, expected);
}

// ------------------------------------------------ determinism (satellite 4)

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The call-graph builder and every analysis on top of it use only
    /// ordered containers: the same workspace must produce byte-identical
    /// diagnostics (including witness paths) run after run.
    #[test]
    fn graph_diagnostics_are_deterministic(locks in 2usize..5) {
        let fx = Fixture::new();
        // A ring of `locks` functions, each nesting lock `i` then lock
        // `(i + 1) % locks` — one seeded cycle.
        let mut src = String::from("pub struct S;\n");
        for i in 0..locks {
            src.push_str(&format!(
                "pub fn f{i}(s: &S) -> u32 {{\n    let g = lock_clean(&s.l{i});\n    let h = lock_clean(&s.l{});\n    *g + *h\n}}\n",
                (i + 1) % locks
            ));
        }
        fx.file("crates/matrix/src/ring.rs", &src);
        let cfg = fx.cfg();
        let (v1, f1) = audit(&cfg).expect("first run");
        let (v2, f2) = audit(&cfg).expect("second run");
        prop_assert!(!v1.is_empty(), "the seeded ring must be caught");
        prop_assert!(v1.iter().any(|v| v.rule == "lock-order"), "{v1:?}");
        prop_assert_eq!(
            render_json(&v1, f1, RULE_NAMES),
            render_json(&v2, f2, RULE_NAMES)
        );
    }
}

// ------------------------------------------------------------- the real thing

#[test]
fn real_workspace_passes_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = AuditConfig::workspace_defaults(&root);
    // All eight rules run: nothing in the defaults narrows the set.
    assert_eq!(RULE_NAMES.len(), 8);
    assert!(cfg.only_rules.is_empty());
    let (violations, files) = audit(&cfg).expect("workspace audit runs");
    assert!(
        violations.is_empty(),
        "the workspace must stay audit-clean:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(files > 100, "sanity: the real workspace has many files");
}
