//! Robustness property of the JSON-lines protocol: mutated `run`,
//! `predict`, `batch`, `trace` and `metrics` request trees and raw byte
//! lines, served through the stdio loop. Every non-blank line gets
//! exactly one response line — a `"stream": true` batch gets a run of
//! lines closed by exactly one `"last": true` — in input order; every
//! response is an object carrying `ok` and a `request_id`; no line panics
//! a worker; and the fleet budget holds.

use proptest::prelude::*;
use wm_fleet::json::{obj, Json};
use wm_fleet::{serve, Fleet, Scheduler};

/// The numbers a numeric mutation writes: zero, a negative, one past the
/// axis cap, 2^53, a subnormal and a huge finite value.
const NUMBERS: [f64; 6] = [0.0, -1.0, 65_537.0, 9_007_199_254_740_992.0, 1e-320, 1e308];
const DTYPES: [&str; 5] = ["fp32", "fp16", "fp16-t", "bf16", "int8"];
const DIMS: [f64; 4] = [16.0, 32.0, 48.0, 64.0];

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// A valid `run` body drawn from `bits`: dims at most 64, lattice 4, at
/// most two seeds.
fn run_fields(bits: u64) -> Vec<(&'static str, Json)> {
    let pick = |shift: u32, n: u64| ((bits >> shift) % n) as usize;
    let mut fields = vec![("dtype", text(DTYPES[pick(0, 5)]))];
    if pick(3, 4) == 0 {
        fields.push(("kernel", text("gemv")));
    }
    match pick(5, 3) {
        0 => fields.push(("dim", num(DIMS[pick(7, 4)]))),
        1 => fields.extend([
            ("n", num(DIMS[pick(7, 4)])),
            ("m", num(DIMS[pick(9, 4)])),
            ("k", num(DIMS[pick(11, 4)])),
        ]),
        _ => fields.push((
            "group",
            Json::Arr(vec![
                obj(vec![("dim", num(DIMS[pick(7, 4)]))]),
                obj(vec![
                    ("n", num(DIMS[pick(9, 4)])),
                    ("m", num(16.0)),
                    ("k", num(DIMS[pick(11, 4)])),
                ]),
            ]),
        )),
    }
    fields.extend(match pick(13, 6) {
        0 => vec![("pattern", text("zeros"))],
        1 => vec![
            ("pattern", text("gaussian")),
            ("mean", num(0.5)),
            ("std", num(2.0)),
        ],
        2 => vec![("pattern", text("sparse")), ("sparsity", num(0.5))],
        3 => vec![("pattern", text("sorted_rows")), ("fraction", num(0.5))],
        4 => vec![("pattern", text("zero_lsbs")), ("count", num(4.0))],
        _ => vec![("pattern", text("value_set")), ("set_size", num(8.0))],
    });
    fields.extend([
        ("seeds", num(1.0 + pick(16, 2) as f64)),
        ("lattice", num(4.0)),
        ("base_seed", num(pick(17, 4) as f64)),
    ]);
    match pick(19, 4) {
        0 => fields.push(("gpu", text("a100"))),
        1 => fields.push(("deadline_us", num(50_000.0))),
        _ => {}
    }
    fields
}

/// A valid request tree of op `op` (run, predict, batch, trace, metrics).
fn base_tree(op: usize, bits: u64) -> Json {
    match op {
        0 => obj(run_fields(bits)),
        1 => {
            let mut fields = vec![("op", text("predict"))];
            fields.extend(run_fields(bits));
            obj(fields)
        }
        2 => {
            let members = 1 + (bits % 3) as usize;
            let requests = (0..members)
                .map(|i| {
                    let mut fields = vec![("id", num(i as f64))];
                    fields.extend(run_fields(bits.rotate_right(8 * i as u32 + 3)));
                    obj(fields)
                })
                .collect();
            let mut fields = vec![("op", text("batch")), ("requests", Json::Arr(requests))];
            match (bits >> 40) % 3 {
                0 => fields.push(("stream", Json::Bool(true))),
                1 => fields.push(("stream", Json::Bool(false))),
                _ => {}
            }
            obj(fields)
        }
        3 => obj(vec![
            ("op", text("trace")),
            if bits & 1 == 0 {
                ("limit", num(3.0))
            } else {
                ("request_id", num(1.0))
            },
        ]),
        _ => obj(vec![
            ("op", text("metrics")),
            (
                "format",
                text(if bits & 1 == 0 { "json" } else { "prometheus" }),
            ),
        ]),
    }
}

/// One step into a tree: an object key or an array index.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every object field and array element below `v`, as paths from `v`,
/// each flagged when it holds a scalar rather than an array or object.
fn paths(v: &Json, prefix: &mut Vec<Step>, out: &mut Vec<(Vec<Step>, bool)>) {
    let children: Vec<(Step, &Json)> = match v {
        Json::Obj(fields) => fields
            .iter()
            .map(|(k, child)| (Step::Key(k.clone()), child))
            .collect(),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, child)| (Step::Index(i), child))
            .collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        prefix.push(step);
        let scalar = !matches!(child, Json::Arr(_) | Json::Obj(_));
        out.push((prefix.clone(), scalar));
        paths(child, prefix, out);
        prefix.pop();
    }
}

fn child_mut<'a>(v: &'a mut Json, step: &Step) -> Option<&'a mut Json> {
    match (v, step) {
        (Json::Obj(fields), Step::Key(key)) => {
            fields.iter_mut().find(|(k, _)| k == key).map(|(_, c)| c)
        }
        (Json::Arr(items), Step::Index(i)) => items.get_mut(*i),
        _ => None,
    }
}

fn at_mut<'a>(v: &'a mut Json, path: &[Step]) -> Option<&'a mut Json> {
    path.iter().try_fold(v, |node, step| child_mut(node, step))
}

/// One tree mutation: `kind` picks what happens, `target` where, `choice`
/// which value.
fn mutate(tree: &mut Json, kind: usize, target: u64, choice: u64) {
    let mut all = Vec::new();
    paths(tree, &mut Vec::new(), &mut all);
    if kind == 4 {
        // An array over its cap: a group of 65 members, or a batch of
        // 257, past a TCP session's default in-flight cap.
        let arrays: Vec<&Vec<Step>> = all
            .iter()
            .map(|(p, _)| p)
            .filter(|p| matches!(p.last(), Some(Step::Key(k)) if k == "group" || k == "requests"))
            .collect();
        if arrays.is_empty() {
            return;
        }
        let path = arrays[(target % arrays.len() as u64) as usize].clone();
        let cap = match path.last() {
            Some(Step::Key(k)) if k == "group" => 65,
            _ => 257,
        };
        if let Some(Json::Arr(items)) = at_mut(tree, &path) {
            let first = items.first().cloned().unwrap_or(Json::Null);
            items.resize(cap, first);
        }
        return;
    }
    // A number replaces a scalar: a field's value, not a whole member.
    let targets: Vec<&Vec<Step>> = all
        .iter()
        .filter(|(_, scalar)| kind != 1 || *scalar)
        .map(|(p, _)| p)
        .collect();
    if targets.is_empty() {
        return;
    }
    let path = targets[(target % targets.len() as u64) as usize];
    if kind == 2 {
        let (last, parent) = path.split_last().expect("paths are non-empty");
        match (at_mut(tree, parent), last) {
            (Some(Json::Obj(fields)), Step::Key(key)) => fields.retain(|(k, _)| k != key),
            (Some(Json::Arr(items)), Step::Index(i)) => {
                items.remove(*i);
            }
            _ => {}
        }
        return;
    }
    let Some(slot) = at_mut(tree, path) else {
        return;
    };
    *slot = match kind {
        0 => {
            let wrong = [
                text("8"),
                Json::Bool(true),
                Json::Null,
                Json::Arr(vec![num(1.0)]),
                obj(vec![]),
                num(5.0),
            ];
            let same = |w: &Json| std::mem::discriminant(w) == std::mem::discriminant(slot);
            let start = (choice % wrong.len() as u64) as usize;
            (0..wrong.len())
                .map(|i| &wrong[(start + i) % wrong.len()])
                .find(|w| !same(w))
                .cloned()
                .expect("six distinct types")
        }
        1 => num(NUMBERS[(choice % NUMBERS.len() as u64) as usize]),
        // Nesting past the parser's 64-level bound.
        _ => (0..65 + choice % 8).fold(Json::Arr(vec![]), |inner, _| Json::Arr(vec![inner])),
    };
}

/// One fuzzed input line before it gets its `"id"`.
#[derive(Debug, Clone)]
enum Line {
    /// A (possibly mutated) request tree.
    Tree(Json),
    /// A request tree's serialization cut short.
    Truncated(Json, u64),
    /// A request tree's serialization with a byte that is not UTF-8.
    NotUtf8(Json, u64),
    /// Whitespace only: no response.
    Blank(usize),
}

impl Line {
    /// The line's bytes, the tree carrying top-level `"id": id`.
    fn bytes(self, id: u64) -> Vec<u8> {
        let serialize = |tree: Json| {
            let mut fields = match tree {
                Json::Obj(fields) => fields,
                other => return other.to_string().into_bytes(),
            };
            fields.retain(|(k, _)| k != "id");
            fields.insert(0, ("id".to_string(), num(id as f64)));
            Json::Obj(fields).to_string().into_bytes()
        };
        match self {
            Line::Tree(tree) => serialize(tree),
            Line::Truncated(tree, at) => {
                let mut bytes = serialize(tree);
                bytes.truncate(1 + (at % (bytes.len() as u64 - 1)) as usize);
                bytes
            }
            Line::NotUtf8(tree, at) => {
                let mut bytes = serialize(tree);
                let at = (at % bytes.len() as u64) as usize;
                bytes.insert(at, 0xff);
                bytes
            }
            Line::Blank(n) => vec![b' '; n],
        }
    }
}

fn arb_tree() -> impl Strategy<Value = Json> {
    (
        0usize..5,
        any::<u64>(),
        prop::collection::vec((0usize..5, any::<u64>(), any::<u64>()), 0..4),
    )
        .prop_map(|(op, bits, mutations)| {
            let mut tree = base_tree(op, bits);
            for (kind, target, choice) in mutations {
                mutate(&mut tree, kind, target, choice);
            }
            tree
        })
}

fn arb_line() -> impl Strategy<Value = Line> {
    prop_oneof![
        arb_tree().prop_map(Line::Tree),
        arb_tree().prop_map(Line::Tree),
        arb_tree().prop_map(Line::Tree),
        (arb_tree(), any::<u64>()).prop_map(|(t, at)| Line::Truncated(t, at)),
        (arb_tree(), any::<u64>()).prop_map(|(t, at)| Line::NotUtf8(t, at)),
        (0usize..4).prop_map(Line::Blank),
    ]
}

/// The next response line, checked to be an object carrying `ok` and a
/// `request_id`, whose batch members (if any) carry them too, and which
/// no panicking worker answered.
fn next_response<'a>(out: &mut impl Iterator<Item = &'a str>) -> Result<Json, String> {
    let line = out.next().ok_or("a line went unanswered")?;
    let v = Json::parse(line).map_err(|e| format!("response {line:?} is not JSON: {e}"))?;
    let members = v.get("results").and_then(Json::as_arr).unwrap_or(&[]);
    for r in std::iter::once(&v).chain(members) {
        if r.get("ok").and_then(Json::as_bool).is_none() {
            return Err(format!("no \"ok\" in {r}"));
        }
        if r.get("request_id").and_then(Json::as_u64).is_none() {
            return Err(format!("no \"request_id\" in {r}"));
        }
        let error = r.get("error").and_then(Json::as_str).unwrap_or("");
        if error.starts_with("internal error") {
            return Err(format!("a worker panicked: {r}"));
        }
    }
    Ok(v)
}

/// Serve `lines` through stdio `serve` on a fresh scheduler and check
/// the property.
fn check(lines: &[Vec<u8>]) -> Result<(), String> {
    let sched = Scheduler::with_workers(Fleet::from_catalog(), 2);
    let input = lines.join(&b'\n');
    let mut output = Vec::new();
    serve(&input[..], &mut output, &sched).map_err(|e| e.to_string())?;
    let output = String::from_utf8(output).map_err(|e| e.to_string())?;
    let mut out = output.lines();
    for bytes in lines {
        // What the loop reads: the line decoded lossily; a blank line
        // gets no answer, and one that does not parse answers `id: null`.
        let line = String::from_utf8_lossy(bytes);
        if line.trim().is_empty() {
            continue;
        }
        let parsed = Json::parse(&line).ok();
        let id = parsed
            .as_ref()
            .and_then(|v| v.get("id"))
            .cloned()
            .unwrap_or(Json::Null);
        let streams = parsed.as_ref().is_some_and(|v| {
            v.get("op") == Some(&text("batch")) && v.get("stream") == Some(&Json::Bool(true))
        });
        let mut response = next_response(&mut out)?;
        if response.get("id") != Some(&id) {
            return Err(format!("out of order: {line:?} answered by {response}"));
        }
        if response.get("last").is_some() {
            if !streams {
                return Err(format!("{line:?} is not a streamed batch: {response}"));
            }
            while response.get("last") != Some(&Json::Bool(true)) {
                response = next_response(&mut out)?;
                if response.get("id") != Some(&id) || response.get("last").is_none() {
                    return Err(format!("stream of {line:?} broken by {response}"));
                }
            }
        }
    }
    if let Some(extra) = out.next() {
        return Err(format!("a response line answers nothing: {extra}"));
    }
    let (peak, budget) = (sched.peak_committed_w(), sched.fleet().power_budget_w());
    if peak > budget {
        return Err(format!(
            "peak committed {peak} W over the {budget} W budget"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_line_is_answered_once_in_order_within_budget(
        lines in prop::collection::vec(arb_line(), 1..8)
    ) {
        let lines: Vec<Vec<u8>> = lines
            .into_iter()
            .enumerate()
            .map(|(i, line)| line.bytes(i as u64 + 1))
            .collect();
        if let Err(msg) = check(&lines) {
            let shown: Vec<String> = lines
                .iter()
                .map(|l| String::from_utf8_lossy(l).chars().take(400).collect())
                .collect();
            prop_assert!(false, "{msg}\ninput: {shown:#?}");
        }
    }
}
