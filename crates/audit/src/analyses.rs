//! The graph-aware analyses: lock-order, metric-drift, and
//! hot-path-alloc.
//!
//! These rules consume the [`crate::model::WorkspaceModel`] (lock-order,
//! hot-path-alloc) or cross-check code against documents the way
//! protocol-drift does (metric-drift). They emit ordinary
//! [`Violation`]s through the same suppression machinery as the token
//! rules; the extra context a graph finding carries — the witness path
//! that proves it — rides in [`Violation::witness`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::AuditConfig;
use crate::lexer::lex;
use crate::model::WorkspaceModel;
use crate::rules::{readme_table, Allow, Violation};
use crate::workspace::SourceFile;

/// One lock-order edge: while a guard of `from` was live, `to` was (or
/// may transitively be) acquired.
#[derive(Debug, Clone)]
struct LockEdge {
    file: String,
    line: usize,
    in_fn: String,
    /// The callee that transitively acquires `to`, for indirect edges.
    via: Option<String>,
}

/// lock-order: build the lock-acquisition graph transitively through
/// the call graph; report cycles (potential deadlocks), guards held
/// across a `Condvar::wait` on a different lock, and guards held across
/// configured blocking calls.
pub fn check_lock_order(cfg: &AuditConfig, model: &WorkspaceModel, out: &mut Vec<Violation>) {
    let trans = model.transitive_locks();
    // Edge map: (from, to) -> first witness, in deterministic model
    // order.
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();

    for (idx, f) in model.fns.iter().enumerate() {
        if !f.is_live {
            continue;
        }
        for l in &f.locks {
            let held = |off: usize| off > l.offset && off < l.live_end;
            // Direct nesting: another lock acquired under this guard.
            for m in &f.locks {
                if held(m.offset) && m.lock != l.lock {
                    edges
                        .entry((l.lock.clone(), m.lock.clone()))
                        .or_insert_with(|| LockEdge {
                            file: f.file.clone(),
                            line: m.line,
                            in_fn: f.qualified_name(),
                            via: None,
                        });
                }
            }
            // Indirect nesting: a call under this guard whose callee
            // transitively acquires other locks; plus blocking calls.
            for c in &f.calls {
                if !held(c.offset) {
                    continue;
                }
                if cfg.blocking_calls.iter().any(|b| b == &c.name) {
                    out.push(
                        Violation::new(
                            &f.file,
                            c.line,
                            "lock-order",
                            format!(
                                "guard of `{}` held across blocking call `.{}(…)`; \
                                 release the lock before blocking",
                                l.lock, c.name
                            ),
                        )
                        .with_witness(vec![format!(
                            "`{}` acquired at {}:{} (in {})",
                            l.lock,
                            f.file,
                            l.line,
                            f.qualified_name()
                        )]),
                    );
                    continue;
                }
                for g in model.resolve(c, idx) {
                    for to in &trans[g] {
                        if *to != l.lock {
                            edges
                                .entry((l.lock.clone(), to.clone()))
                                .or_insert_with(|| LockEdge {
                                    file: f.file.clone(),
                                    line: c.line,
                                    in_fn: f.qualified_name(),
                                    via: Some(model.fns[g].qualified_name()),
                                });
                        }
                    }
                }
            }
            // A wait under this guard, unless the wait consumes exactly
            // this guard (the sanctioned same-lock pattern).
            for w in &f.waits {
                if held(w.offset) && l.guard.as_deref() != w.guard_arg.as_deref() {
                    out.push(
                        Violation::new(
                            &f.file,
                            w.line,
                            "lock-order",
                            format!(
                                "guard of `{}` held across `Condvar::wait` on `{}`; \
                                 waiting releases only the guard it is given",
                                l.lock, w.condvar
                            ),
                        )
                        .with_witness(vec![format!(
                            "`{}` acquired at {}:{} (in {})",
                            l.lock,
                            f.file,
                            l.line,
                            f.qualified_name()
                        )]),
                    );
                }
            }
        }
    }

    report_cycles(&edges, out);
}

/// Find cycles in the lock graph and report each once, with the full
/// edge-by-edge witness path.
fn report_cycles(edges: &BTreeMap<(String, String), LockEdge>, out: &mut Vec<Violation>) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().push(to.as_str());
    }
    // Mutual-reachability classes (SCCs), via per-node BFS: the graph
    // is a handful of locks, clarity beats asymptotics.
    let reach = |start: &str| -> BTreeSet<&str> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start]);
        while let Some(n) = queue.pop_front() {
            for &nb in adj.get(n).into_iter().flatten() {
                if seen.insert(nb) {
                    queue.push_back(nb);
                }
            }
        }
        seen
    };
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let reach_of: BTreeMap<&str, BTreeSet<&str>> = nodes.iter().map(|&n| (n, reach(n))).collect();
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for &n in &nodes {
        if reported.contains(n) || !reach_of[n].contains(n) {
            continue; // not on any cycle, or cycle already reported
        }
        // The SCC of n: nodes that reach n and are reached by n.
        let scc: Vec<&str> = reach_of[n]
            .iter()
            .copied()
            .filter(|&m| reach_of.get(m).map(|r| r.contains(n)).unwrap_or(false))
            .collect();
        reported.extend(scc.iter().copied());
        // Shortest cycle through the smallest member, by BFS.
        let start = *scc.first().unwrap_or(&n);
        let cycle = shortest_cycle(&adj, &scc, start);
        let path: Vec<String> = cycle
            .windows(2)
            .map(|w| {
                let e = &edges[&(w[0].to_string(), w[1].to_string())];
                match &e.via {
                    Some(via) => format!(
                        "`{}` -> `{}` at {}:{} (in {}, via {})",
                        w[0], w[1], e.file, e.line, e.in_fn, via
                    ),
                    None => format!(
                        "`{}` -> `{}` at {}:{} (in {})",
                        w[0], w[1], e.file, e.line, e.in_fn
                    ),
                }
            })
            .collect();
        let first = &edges[&(cycle[0].to_string(), cycle[1].to_string())];
        out.push(
            Violation::new(
                &first.file,
                first.line,
                "lock-order",
                format!(
                    "potential deadlock: lock-order cycle {}",
                    cycle
                        .iter()
                        .map(|l| format!("`{l}`"))
                        .collect::<Vec<_>>()
                        .join(" -> ")
                ),
            )
            .with_witness(path),
        );
    }
}

/// Shortest `start -> … -> start` cycle within `scc`, by BFS over
/// sorted adjacency (deterministic).
fn shortest_cycle<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    scc: &[&'a str],
    start: &'a str,
) -> Vec<&'a str> {
    let inside = |n: &str| scc.contains(&n);
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = VecDeque::from([start]);
    while let Some(n) = queue.pop_front() {
        for &nb in adj.get(n).into_iter().flatten() {
            if nb == start {
                // Close the cycle: start .. n, then start again.
                let mut path = vec![start];
                let mut back = Vec::new();
                let mut cur = n;
                while cur != start {
                    back.push(cur);
                    cur = parent.get(cur).copied().unwrap_or(start);
                }
                path.extend(back.iter().rev());
                path.push(start);
                return path;
            }
            if inside(nb) && !parent.contains_key(nb) && nb != start {
                parent.insert(nb, n);
                queue.push_back(nb);
            }
        }
    }
    vec![start, start]
}

/// A metric accessor reference: name, the kind its accessor registers
/// (`counter`/`gauge`/`histogram`), and where it was seen.
#[derive(Debug)]
struct MetricRef {
    name: String,
    kind: String,
    file: String,
    line: usize,
}

/// Scan one file for `.counter("…")` / `.gauge("…")` / `.histogram("…")`
/// references with a literal name, skipping `#[cfg(test)]` regions.
fn metric_refs(src: &SourceFile, out: &mut Vec<MetricRef>) {
    let lexed = lex(&src.text);
    let toks = lexed.tokens();
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    for i in 0..toks.len() {
        if !matches!(texts[i], "counter" | "gauge" | "histogram")
            || i == 0
            || texts[i - 1] != "."
            || texts.get(i + 1) != Some(&"(")
        {
            continue;
        }
        if !src.is_live(&lexed, toks[i].offset) {
            continue;
        }
        let paren = toks[i + 1].offset;
        // The literal name is the first string after `(` and before the
        // next token (the string itself is masked out of the stream).
        let next_tok = toks.get(i + 2).map(|t| t.offset).unwrap_or(usize::MAX);
        let Some(s) = lexed
            .strings
            .iter()
            .find(|s| s.offset > paren && s.offset < next_tok)
        else {
            continue; // dynamic name; not statically checkable
        };
        out.push(MetricRef {
            name: s.text.clone(),
            kind: texts[i].to_string(),
            file: src.rel.clone(),
            line: lexed.line_of(toks[i].offset),
        });
    }
}

/// metric-drift: metric names registered in code ⇔ the README metrics
/// table, cross-checked in both directions, and each documented row's
/// Kind against the accessor that registers its name.
pub fn check_metric_drift(cfg: &AuditConfig, sources: &[SourceFile], out: &mut Vec<Violation>) {
    if cfg.metric_readme_heading.is_empty() {
        return;
    }
    let mut registered: Vec<MetricRef> = Vec::new();
    for src in sources.iter().filter(|s| !s.is_test_file) {
        metric_refs(src, &mut registered);
    }
    let mut names: BTreeSet<&str> = BTreeSet::new();
    let mut first_site: Vec<&MetricRef> = Vec::new();
    for r in &registered {
        if names.insert(r.name.as_str()) {
            first_site.push(r);
        }
    }

    // The README metrics table: the name and kind cells of each row
    // under the configured heading.
    let readme = std::fs::read_to_string(cfg.root.join(&cfg.readme_file)).unwrap_or_default();
    let Some((_, rows)) = readme_table(&readme, &cfg.metric_readme_heading, "metric") else {
        out.push(Violation::new(
            &cfg.readme_file,
            1,
            "metric-drift",
            format!(
                "README has no {:?} section to check the metric inventory against",
                cfg.metric_readme_heading
            ),
        ));
        return;
    };
    let documented: Vec<(&str, &str, usize)> = rows
        .iter()
        .map(|(cells, line)| (cells[0], cells.get(1).copied().unwrap_or(""), *line))
        .collect();

    for r in &first_site {
        if !documented.iter().any(|(d, _, _)| *d == r.name) {
            out.push(Violation::new(
                &r.file,
                r.line,
                "metric-drift",
                format!(
                    "metric {:?} is registered in code but missing from the README metrics table",
                    r.name
                ),
            ));
        }
    }
    for (d, kind, line) in &documented {
        if !names.contains(d) {
            out.push(Violation::new(
                &cfg.readme_file,
                *line,
                "metric-drift",
                format!("metrics table documents {d:?}, which no producer registers"),
            ));
        } else if let Some(r) = registered.iter().find(|r| r.name == *d && r.kind != *kind) {
            out.push(Violation::new(
                &cfg.readme_file,
                *line,
                "metric-drift",
                format!(
                    "metrics table documents {d:?} as a {kind:?}, but {}:{} registers it with `.{}(`",
                    r.file, r.line, r.kind
                ),
            ));
        }
    }
}

/// Whether `file` carries an allow annotation naming `rule` on `line`
/// or the line directly above it.
fn allowed_at(allows: &[(String, Vec<Allow>)], file: &str, line: usize, rule: &str) -> bool {
    allows.iter().any(|(f, list)| {
        f == file
            && list.iter().any(|a| {
                (a.line == line || a.line + 1 == line) && a.rules.iter().any(|r| r == rule)
            })
    })
}

/// hot-path-alloc: the configured hot functions, plus everything they
/// transitively call, must be allocation-free. An allow annotation
/// naming this rule on an allocation line suppresses that site
/// (wherever the walk entered from); the same annotation on a
/// function's `fn` line sanctions the whole function *and* stops the
/// walk into its callees.
pub fn check_hot_path_alloc(
    cfg: &AuditConfig,
    model: &WorkspaceModel,
    allows: &[(String, Vec<Allow>)],
    out: &mut Vec<Violation>,
) {
    if cfg.hot_path_functions.is_empty() {
        return;
    }
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    // Witness chains: fn index -> path of "name (file:line)" entries
    // from its root.
    let mut chain: BTreeMap<usize, Vec<String>> = BTreeMap::new();

    for want in &cfg.hot_path_functions {
        let (ty, name) = match want.split_once("::") {
            Some((t, n)) => (Some(t), n),
            None => (None, want.as_str()),
        };
        let mut found = false;
        for (i, f) in model.fns.iter().enumerate() {
            if f.name == name && f.is_live && (ty.is_none() || f.impl_type.as_deref() == ty) {
                found = true;
                if visited.insert(i) {
                    chain.insert(i, vec![format!("{} ({}:{})", want, f.file, f.line)]);
                    queue.push_back(i);
                }
            }
        }
        if !found {
            out.push(Violation::new(
                "Cargo.toml",
                1,
                "hot-path-alloc",
                format!("configured hot function `{want}` was not found in the workspace"),
            ));
        }
    }

    while let Some(idx) = queue.pop_front() {
        let f = &model.fns[idx];
        if allowed_at(allows, &f.file, f.line, "hot-path-alloc") {
            continue; // sanctioned subtree: skip body and callees
        }
        let path = chain.get(&idx).cloned().unwrap_or_default();
        for a in &f.allocs {
            out.push(
                Violation::new(
                    &f.file,
                    a.line,
                    "hot-path-alloc",
                    format!(
                        "`{}` allocates on the hot path rooted at `{}`",
                        a.what,
                        path.first().map(String::as_str).unwrap_or("?")
                    ),
                )
                .with_witness(path.clone()),
            );
        }
        for c in &f.calls {
            for g in model.resolve(c, idx) {
                if model.fns[g].is_live && visited.insert(g) {
                    let mut p = path.clone();
                    p.push(format!(
                        "{} ({}:{})",
                        model.fns[g].qualified_name(),
                        model.fns[g].file,
                        model.fns[g].line
                    ));
                    chain.insert(g, p);
                    queue.push_back(g);
                }
            }
        }
    }
}
