//! The audit rules and the engine that runs them.
//!
//! Each rule scans the masked token stream produced by [`crate::lexer`]
//! (so comments and string literals can never trigger it) and emits
//! [`Violation`]s with `file:line` positions. A violation is
//! suppressible only by an inline `audit:allow` comment — the marker,
//! the parenthesized rule name(s), then a colon and a mandatory reason —
//! on the same line or the line directly above. The rule name must be
//! real and the reason must be non-empty: a malformed annotation is
//! itself a violation, so suppressions stay auditable. (The grammar is
//! spelled out in the README; it is not written literally here because
//! the annotation parser reads every comment in the workspace,
//! including this one.)

use crate::config::{is_rule, AuditConfig};
use crate::lexer::{lex, matches_seq, Lexed};
use crate::workspace::{collect_sources, SourceFile};

/// One finding: where, which rule, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Canonical rule name (or `audit-allow` for a malformed
    /// annotation).
    pub rule: String,
    /// Human-readable diagnosis.
    pub message: String,
    /// For graph findings, the proof path (one formatted step per
    /// entry: a lock-order edge, or a call chain from a hot root).
    /// Empty for token findings.
    pub witness: Vec<String>,
}

impl Violation {
    /// A witness-less violation.
    pub fn new(
        file: impl Into<String>,
        line: usize,
        rule: impl Into<String>,
        message: impl Into<String>,
    ) -> Violation {
        Violation {
            file: file.into(),
            line,
            rule: rule.into(),
            message: message.into(),
            witness: Vec::new(),
        }
    }

    /// Attach the proof path.
    pub fn with_witness(mut self, witness: Vec<String>) -> Violation {
        self.witness = witness;
        self
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `audit:allow` annotation.
#[derive(Debug)]
pub(crate) struct Allow {
    pub(crate) line: usize,
    pub(crate) rules: Vec<String>,
}

/// Parse every `audit:allow` annotation in a file's comments. A comment
/// merely *mentioning* the marker (no opening parenthesis directly
/// after it) is prose, not an annotation; an annotation with an unknown
/// rule or a missing reason becomes a violation instead of silently
/// suppressing nothing.
fn parse_allows(file: &str, lexed: &Lexed, violations: &mut Vec<Violation>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("audit:allow") else {
            continue;
        };
        let line = lexed.line_of(c.offset);
        let rest = &c.text[pos + "audit:allow".len()..];
        if !rest.starts_with('(') {
            continue; // prose about the marker, not an annotation
        }
        let bad = |msg: &str, violations: &mut Vec<Violation>| {
            violations.push(Violation {
                file: file.to_string(),
                line,
                rule: "audit-allow".to_string(),
                message: msg.to_string(),
                witness: Vec::new(),
            });
        };
        let Some(inner) = rest.strip_prefix('(').and_then(|r| r.split_once(')')) else {
            bad(
                "malformed annotation: expected `audit:allow(<rule>): <reason>`",
                violations,
            );
            continue;
        };
        let (rule_list, after) = inner;
        let rules: Vec<String> = rule_list
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            bad("annotation names no rule", violations);
            continue;
        }
        let mut ok = true;
        for r in &rules {
            if !is_rule(r) {
                bad(&format!("unknown rule {r:?} in annotation"), violations);
                ok = false;
            }
        }
        let reason_ok = after
            .trim_start()
            .strip_prefix(':')
            .map(|r| !r.trim().is_empty())
            .unwrap_or(false);
        if !reason_ok {
            bad(
                "annotation must carry a reason: `audit:allow(<rule>): <reason>`",
                violations,
            );
            ok = false;
        }
        if ok {
            allows.push(Allow { line, rules });
        }
    }
    allows
}

/// Drop violations covered by an allow on the same line or the line
/// directly above.
fn apply_allows(violations: Vec<Violation>, allows: &[(String, Vec<Allow>)]) -> Vec<Violation> {
    violations
        .into_iter()
        .filter(|v| {
            !allows.iter().any(|(file, file_allows)| {
                *file == v.file
                    && file_allows.iter().any(|a| {
                        (a.line == v.line || a.line + 1 == v.line) && a.rules.contains(&v.rule)
                    })
            })
        })
        .collect()
}

/// The panic macros the panic-paths rule forbids.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unreachable", "unimplemented"];

/// panic-paths: serving crates must not panic on non-test code paths.
fn check_panic_paths(cfg: &AuditConfig, src: &SourceFile, lexed: &Lexed, out: &mut Vec<Violation>) {
    if !cfg.panic_free_crates.contains(&src.crate_name) {
        return;
    }
    let toks = lexed.tokens();
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    for i in 0..toks.len() {
        if !src.is_live(lexed, toks[i].offset) {
            continue;
        }
        let mut hit: Option<String> = None;
        if matches_seq(&texts, i, &[".", "unwrap", "(", ")"])
            || matches_seq(&texts, i, &[".", "expect", "("])
        {
            // `.lock().unwrap()` is the lock-hygiene rule's finding;
            // don't double-report it here.
            let after_lock = i >= 3 && matches_seq(&texts, i - 3, &["lock", "(", ")"]);
            if !after_lock {
                hit = Some(format!(
                    "`.{}(…)` on a serving path can take a worker down; \
                     return an error or contain the failure",
                    texts[i + 1]
                ));
            }
        } else if PANIC_MACROS.contains(&texts[i]) && matches_seq(&texts, i + 1, &["!"]) {
            hit = Some(format!(
                "`{}!` on a serving path; serving crates must degrade, not abort",
                texts[i]
            ));
        }
        if let Some(message) = hit {
            out.push(Violation {
                file: src.rel.clone(),
                line: lexed.line_of(toks[i].offset),
                rule: "panic-paths".to_string(),
                message,
                witness: Vec::new(),
            });
        }
    }
}

/// lock-hygiene: `lock().unwrap()` / `lock().expect(…)` forbidden
/// everywhere — a panicking thread must never wedge a shared structure.
fn check_lock_hygiene(src: &SourceFile, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = lexed.tokens();
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    for i in 0..toks.len() {
        if matches_seq(&texts, i, &["lock", "(", ")", ".", "unwrap", "("])
            || matches_seq(&texts, i, &["lock", "(", ")", ".", "expect", "("])
        {
            out.push(Violation {
                file: src.rel.clone(),
                line: lexed.line_of(toks[i + 4].offset),
                rule: "lock-hygiene".to_string(),
                message: format!(
                    "`lock().{}(…)` propagates poison; recover with \
                     `lock().unwrap_or_else(PoisonError::into_inner)`",
                    texts[i + 4]
                ),
                witness: Vec::new(),
            });
        }
    }
}

/// determinism: wall clocks only in allowlisted tracer modules,
/// and no iteration-order-randomized maps in canonical-output modules.
fn check_determinism(cfg: &AuditConfig, src: &SourceFile, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = lexed.tokens();
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    let clock_allowed = cfg.clock_allowed_files.contains(&src.rel);
    let canonical = cfg.canonical_output_files.contains(&src.rel);
    for i in 0..toks.len() {
        if !src.is_live(lexed, toks[i].offset) {
            continue;
        }
        if !clock_allowed
            && (matches_seq(&texts, i, &["Instant", ":", ":", "now"])
                || matches_seq(&texts, i, &["SystemTime", ":", ":", "now"]))
        {
            out.push(Violation {
                file: src.rel.clone(),
                line: lexed.line_of(toks[i].offset),
                rule: "determinism".to_string(),
                message: format!(
                    "`{}::now()` outside the tracer allowlist makes \
                     replay nondeterministic",
                    texts[i]
                ),
                witness: Vec::new(),
            });
        }
        if canonical && (texts[i] == "HashMap" || texts[i] == "HashSet") {
            out.push(Violation {
                file: src.rel.clone(),
                line: lexed.line_of(toks[i].offset),
                rule: "determinism".to_string(),
                message: format!(
                    "`{}` in a canonical-output module: iteration order is \
                     randomized; use `BTreeMap`/`BTreeSet` or a sorted Vec",
                    texts[i]
                ),
                witness: Vec::new(),
            });
        }
    }
}

/// unsafe-confinement: `unsafe` only in allowlisted files, and every lib
/// crate root carries `#![forbid(unsafe_code)]`.
fn check_unsafe(cfg: &AuditConfig, src: &SourceFile, lexed: &Lexed, out: &mut Vec<Violation>) {
    let allowed = cfg.unsafe_allowed_files.contains(&src.rel);
    let toks = lexed.tokens();
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    if !allowed {
        for (i, t) in toks.iter().enumerate() {
            if texts[i] == "unsafe" {
                out.push(Violation::new(
                    &src.rel,
                    lexed.line_of(t.offset),
                    "unsafe-confinement",
                    "`unsafe` outside the confined FFI allowlist",
                ));
            }
        }
    }
    if src.is_lib_root {
        let has_forbid = (0..toks.len()).any(|i| {
            matches_seq(
                &texts,
                i,
                &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"],
            )
        });
        if !has_forbid {
            out.push(Violation::new(
                &src.rel,
                1,
                "unsafe-confinement",
                "lib crate root is missing `#![forbid(unsafe_code)]`",
            ));
        }
    }
}

/// One body row of a README table: its cells and 1-based line number.
pub(crate) type TableRow<'a> = (Vec<&'a str>, usize);

/// The body rows of the first `|` table after the line `heading` in
/// `readme`: each row's cells (trimmed, backticks stripped) and its
/// 1-based line number, skipping separator rows and the header row (first
/// cell `header`, any case), with the heading's line number. `None` when
/// no line is `heading`.
pub(crate) fn readme_table<'a>(
    readme: &'a str,
    heading: &str,
    header: &str,
) -> Option<(usize, Vec<TableRow<'a>>)> {
    let mut lines = readme
        .lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, raw.trim()));
    let (heading_line, _) = lines.find(|(_, line)| *line == heading)?;
    let rows = lines
        .skip_while(|(_, line)| !line.starts_with('|'))
        .take_while(|(_, line)| line.starts_with('|'))
        .map(|(line_no, line)| {
            let cells = line
                .trim_matches('|')
                .split('|')
                .map(|c| c.trim().trim_matches('`').trim())
                .collect::<Vec<_>>();
            (cells, line_no)
        })
        .filter(|(cells, _)| {
            let first = cells[0];
            let separator = first.chars().all(|c| c == '-' || c == ':' || c == ' ');
            !separator && !first.eq_ignore_ascii_case(header)
        })
        .collect();
    Some((heading_line, rows))
}

/// protocol-drift: the `"op"` strings the dispatcher knows
/// (`KNOWN_OPS`) must agree with the README ops table, and serve-layer
/// ops must exist where they claim to be implemented.
fn check_protocol_drift(cfg: &AuditConfig, sources: &[SourceFile], out: &mut Vec<Violation>) {
    if cfg.protocol_file.is_empty() {
        return;
    }
    let Some(proto) = sources.iter().find(|s| s.rel == cfg.protocol_file) else {
        out.push(Violation::new(
            &cfg.protocol_file,
            1,
            "protocol-drift",
            "protocol file not found in workspace",
        ));
        return;
    };
    let lexed = lex(&proto.text);
    let toks = lexed.tokens();
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    let Some(anchor) = (0..toks.len()).find(|&i| texts[i] == "KNOWN_OPS") else {
        out.push(Violation::new(
            &cfg.protocol_file,
            1,
            "protocol-drift",
            "no `KNOWN_OPS` list found to anchor the op inventory",
        ));
        return;
    };
    let anchor_off = toks[anchor].offset;
    let anchor_line = lexed.line_of(anchor_off);
    let end_off = toks[anchor..]
        .iter()
        .find(|t| t.text == ";")
        .map(|t| t.offset)
        .unwrap_or(proto.text.len());
    let code_ops: Vec<&str> = lexed
        .strings
        .iter()
        .filter(|s| s.offset > anchor_off && s.offset < end_off)
        .map(|s| s.text.as_str())
        .collect();
    if code_ops.is_empty() {
        out.push(Violation::new(
            &cfg.protocol_file,
            anchor_line,
            "protocol-drift",
            "`KNOWN_OPS` holds no op strings",
        ));
        return;
    }

    // The README table.
    let readme = std::fs::read_to_string(cfg.root.join(&cfg.readme_file)).unwrap_or_default();
    let Some((heading_line, rows)) = readme_table(&readme, &cfg.readme_ops_heading, "op") else {
        out.push(Violation {
            file: cfg.readme_file.clone(),
            line: 1,
            rule: "protocol-drift".to_string(),
            message: format!(
                "README has no {:?} section to check the op inventory against",
                cfg.readme_ops_heading
            ),
            witness: Vec::new(),
        });
        return;
    };
    let readme_ops: Vec<(&str, usize)> =
        rows.iter().map(|(cells, line)| (cells[0], *line)).collect();

    let mut expected: Vec<&str> = code_ops.clone();
    for (op, _) in &cfg.serve_layer_ops {
        expected.push(op);
    }
    for op in &expected {
        if !readme_ops.iter().any(|(r, _)| r == op) {
            out.push(Violation::new(
                &cfg.readme_file,
                heading_line,
                "protocol-drift",
                format!("op {op:?} is dispatched in code but missing from the ops table"),
            ));
        }
    }
    for (op, line) in &readme_ops {
        if !expected.iter().any(|e| e == op) {
            out.push(Violation {
                file: cfg.readme_file.clone(),
                line: *line,
                rule: "protocol-drift".to_string(),
                message: format!("ops table documents {op:?}, which no dispatcher implements"),
                witness: Vec::new(),
            });
        }
    }
    // Serve-layer ops must really exist where they claim to.
    for (op, file) in &cfg.serve_layer_ops {
        let found = sources
            .iter()
            .find(|s| s.rel == *file)
            .map(|s| lex(&s.text).strings.iter().any(|c| c.text == *op))
            .unwrap_or(false);
        if !found {
            out.push(Violation::new(
                file,
                1,
                "protocol-drift",
                format!("serve-layer op {op:?} not matched anywhere in this file"),
            ));
        }
    }
}

/// Run the configured audit over the workspace at `cfg.root`.
///
/// Returns the surviving violations (after `audit:allow` suppression),
/// sorted by file then line, plus the number of files scanned.
pub fn audit(cfg: &AuditConfig) -> std::io::Result<(Vec<Violation>, usize)> {
    let sources = collect_sources(&cfg.root)?;
    let mut violations = Vec::new();
    let mut allows: Vec<(String, Vec<Allow>)> = Vec::new();
    for src in &sources {
        let lexed = lex(&src.text);
        let file_allows = parse_allows(&src.rel, &lexed, &mut violations);
        if !file_allows.is_empty() {
            allows.push((src.rel.clone(), file_allows));
        }
        if cfg.rule_enabled("panic-paths") {
            check_panic_paths(cfg, src, &lexed, &mut violations);
        }
        if cfg.rule_enabled("lock-hygiene") {
            check_lock_hygiene(src, &lexed, &mut violations);
        }
        if cfg.rule_enabled("determinism") {
            check_determinism(cfg, src, &lexed, &mut violations);
        }
        if cfg.rule_enabled("unsafe-confinement") {
            check_unsafe(cfg, src, &lexed, &mut violations);
        }
    }
    if cfg.rule_enabled("protocol-drift") {
        check_protocol_drift(cfg, &sources, &mut violations);
    }
    if cfg.rule_enabled("metric-drift") {
        crate::analyses::check_metric_drift(cfg, &sources, &mut violations);
    }
    if cfg.rule_enabled("lock-order") || cfg.rule_enabled("hot-path-alloc") {
        let model = crate::model::WorkspaceModel::build(&sources, &cfg.lock_helpers);
        if cfg.rule_enabled("lock-order") {
            crate::analyses::check_lock_order(cfg, &model, &mut violations);
        }
        if cfg.rule_enabled("hot-path-alloc") {
            crate::analyses::check_hot_path_alloc(cfg, &model, &allows, &mut violations);
        }
    }
    let mut surviving = apply_allows(violations, &allows);
    surviving.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok((surviving, sources.len()))
}
