//! The `serve-warm` workload: a loopback wattd TCP server whose working
//! set was answered once during set-up. The timed mix is mostly repeats,
//! so the hit path dominates: session read loop, JSON parse and encode,
//! canonical keys over every device, and the cache wait.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use wm_core::RunRequest;
use wm_fleet::json::{obj, Json};
use wm_fleet::Scheduler;
use wm_gpu::GemmDims;
use wm_kernels::KernelClass;
use wm_numerics::DType;
use wm_obs::{SpanRecord, Tracer};
use wm_serve::{ServeConfig, Server, ServerHandle};

use crate::cold;
use crate::gen::{FreshStream, Pattern, Rng, Spec};
use crate::replay::Replay;
use crate::report::{
    block_rates, chunked_latency, median, quantile, set_latency, set_open_loop_latency, Report,
    LATENCY_CHUNK, RATE_BLOCK,
};
use crate::trace::{Drainer, SelfTimes, Span};
use crate::{layer_metrics, setup_median, stage_span, Args, REPLAY_LAYERS_WARM, STAGE_LAYERS};

/// Open-loop arrival rate of the traced run on its pipelined connection,
/// requests per second, fixed for every run and commit: it keeps the one
/// session about a fifth busy, so a slower machine does not turn into a
/// queue.
pub const OPEN_LOOP_RPS: f64 = 500.0;
/// Requests answered once during set-up; the repeats draw from them.
const WORKING_SET: usize = 256;
/// Connections that answer the working set during set-up.
const WARM_UP_CONNECTIONS: usize = 2;
/// Ops the closed loop keeps outstanding on its one pipelined connection,
/// so the session always has a line to read and never waits on the client.
const WINDOW: usize = 32;
/// Mix lanes: the closed loop and the open loop draw disjoint groups.
const CLOSED_LANE: u64 = 0;
const OPEN_LANE: u64 = 1;
/// Shares of the timed mix; the rest are streamed batches of repeats.
const REPEAT_SHARE: f64 = 0.80;
const PREDICT_SHARE: f64 = 0.10;
const GROUP_SHARE: f64 = 0.05;
const BATCH_SHARE: f64 = 1.0 - REPEAT_SHARE - PREDICT_SHARE - GROUP_SHARE;
const BATCH_SIZE: usize = 4;
/// Operations of the traced run replayed below the session.
const REPLAYED: usize = 600;

/// Shapes a working-set template is warmed on (GEMM and GEMV).
const GEMM_SHAPES: [(usize, usize, usize); 12] = [
    (32, 32, 32),
    (48, 48, 48),
    (64, 64, 64),
    (80, 80, 80),
    (96, 96, 96),
    (32, 64, 48),
    (48, 32, 96),
    (64, 32, 48),
    (80, 64, 96),
    (96, 32, 48),
    (64, 48, 32),
    (32, 48, 64),
];
const GEMV_SHAPES: [(usize, usize); 8] = [
    (32, 48),
    (48, 96),
    (64, 128),
    (80, 48),
    (96, 96),
    (32, 128),
    (64, 48),
    (96, 128),
];
const SHAPES_PER_TEMPLATE: usize = 8;

/// The working set: `WORKING_SET` plain requests, eight shapes of each of
/// 32 templates (dtype, pattern, base seed), 24 of them GEMM so groups
/// can be built from warmed members. Dtypes and patterns cycle through
/// the templates, so every seed has the same mix of costs; the seed picks
/// base seeds and shapes.
struct WorkingSet {
    specs: Vec<Spec>,
    /// Index range into `specs` of each GEMM template.
    gemm_templates: Vec<std::ops::Range<usize>>,
}

fn working_set(seed: u64) -> WorkingSet {
    let mut rng = Rng::new(seed ^ 0x3A3A);
    let mut specs = Vec::new();
    let mut gemm_templates = Vec::new();
    let templates = WORKING_SET / SHAPES_PER_TEMPLATE;
    for t in 0..templates {
        let gemm = t < templates * 3 / 4;
        let dtype = [DType::Fp32, DType::Fp16Tensor, DType::Int8][t % 3];
        let pattern = [Pattern::Gaussian, Pattern::Sparse(0.5), Pattern::Zeros][(t / 3) % 3];
        let base_seed = rng.next_u64() >> 24;
        let start = specs.len();
        let mut order: Vec<usize> = (0..if gemm { 12 } else { 8 }).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &s in order.iter().take(SHAPES_PER_TEMPLATE) {
            let (kernel, dims) = if gemm {
                let (n, m, k) = GEMM_SHAPES[s];
                (KernelClass::Gemm, GemmDims { n, m, k })
            } else {
                let (n, k) = GEMV_SHAPES[s];
                (KernelClass::Gemv, GemmDims { n, m: 1, k })
            };
            specs.push(Spec {
                kernel,
                dtype,
                members: vec![dims],
                pattern,
                base_seed,
            });
        }
        if gemm {
            gemm_templates.push(start..specs.len());
        }
    }
    WorkingSet {
        specs,
        gemm_templates,
    }
}

#[derive(Debug, Clone)]
enum Kind {
    Repeat(usize),
    Predict,
    Group,
    Batch(Vec<usize>),
}

/// One protocol line of the timed mix.
#[derive(Debug, Clone)]
struct Op {
    cid: u64,
    kind: Kind,
    line: String,
}

/// The seeded mix of one connection (`lane`).
struct Mix<'a> {
    ws: &'a WorkingSet,
    rng: Rng,
    fresh: FreshStream,
    lane: u64,
    counter: u64,
    groups: HashSet<Vec<(usize, usize, usize)>>,
}

impl<'a> Mix<'a> {
    fn new(ws: &'a WorkingSet, seed: u64, lane: u64) -> Self {
        Self {
            ws,
            rng: Rng::new(seed ^ (lane + 1).wrapping_mul(0x9E37_79B9)),
            fresh: FreshStream::new(seed, 100 + lane),
            lane,
            counter: 0,
            groups: HashSet::new(),
        }
    }

    fn line(cid: u64, op: Option<&str>, fields: Vec<(&'static str, Json)>) -> String {
        let mut all = Vec::new();
        if let Some(op) = op {
            all.push(("op", Json::Str(op.to_string())));
        }
        all.push(("id", Json::Num(cid as f64)));
        all.extend(fields);
        obj(all).to_string()
    }

    /// A group of two warmed members of one template plus one residue
    /// member from this lane's own shapes. A lane has about 40,000
    /// distinct groups; once most are drawn, a repeat is allowed rather
    /// than searching on.
    fn group(&mut self) -> Spec {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let range =
                self.ws.gemm_templates[self.rng.below(self.ws.gemm_templates.len())].clone();
            let a = range.start + self.rng.below(range.len());
            let b = range.start + self.rng.below(range.len());
            if a == b {
                continue;
            }
            // Lanes draw residues from disjoint `k` sets of equal size.
            let residue = GemmDims {
                n: self.rng.pick(&[40, 56, 72, 88]),
                m: self.rng.pick(&[24, 40, 56, 72]),
                k: 40 + 8 * self.lane as usize + 24 * self.rng.below(4),
            };
            let mut spec = self.ws.specs[a].clone();
            spec.members = vec![spec.members[0], self.ws.specs[b].members[0], residue];
            let mut key: Vec<(usize, usize, usize)> =
                spec.members.iter().map(|d| (d.n, d.m, d.k)).collect();
            key.sort_unstable();
            key.push((range.start, 0, 0));
            if self.groups.insert(key) || attempts > 64 {
                return spec;
            }
        }
    }

    fn next_op(&mut self) -> Op {
        self.counter += 1;
        let cid = (self.lane << 32) | self.counter;
        let draw = self.rng.unit();
        let n = self.ws.specs.len();
        let (kind, line) = if draw < REPEAT_SHARE {
            let i = self.rng.below(n);
            (
                Kind::Repeat(i),
                Self::line(cid, None, self.ws.specs[i].json_fields()),
            )
        } else if draw < REPEAT_SHARE + PREDICT_SHARE {
            let spec = self.fresh.next_spec();
            (
                Kind::Predict,
                Self::line(cid, Some("predict"), spec.json_fields()),
            )
        } else if draw < REPEAT_SHARE + PREDICT_SHARE + GROUP_SHARE {
            let spec = self.group();
            (Kind::Group, Self::line(cid, None, spec.json_fields()))
        } else {
            let idx: Vec<usize> = (0..BATCH_SIZE).map(|_| self.rng.below(n)).collect();
            let members = idx
                .iter()
                .enumerate()
                .map(|(j, &i)| {
                    let mut f = vec![("id", Json::Num(j as f64))];
                    f.extend(self.ws.specs[i].json_fields());
                    obj(f)
                })
                .collect();
            (
                Kind::Batch(idx),
                Self::line(cid, Some("batch"), vec![("requests", Json::Arr(members))]),
            )
        };
        Op { cid, kind, line }
    }
}

/// A loopback wattd server over its own scheduler.
struct Daemon {
    sched: Arc<Scheduler>,
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start() -> Self {
        let sched = Arc::new(cold::scheduler());
        let server =
            Server::bind(ServeConfig::default(), Arc::clone(&sched)).expect("bind loopback");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        Self {
            sched,
            addr,
            handle,
            thread,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    buf: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            buf: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Read the response lines of one op: one line, or a streamed batch
    /// up to its `"last": true` line.
    fn receive(&mut self, kind: &Kind) -> std::io::Result<Vec<String>> {
        let mut lines = Vec::new();
        loop {
            self.buf.clear();
            if self.reader.read_line(&mut self.buf)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let line = self.buf.trim_end().to_string();
            let last = !matches!(kind, Kind::Batch(_))
                || Json::parse(&line).is_ok_and(|v| v.get("last") == Some(&Json::Bool(true)));
            lines.push(line);
            if last {
                return Ok(lines);
            }
        }
    }
}

/// First answers of the working set: `(power_w, measured_w)` bits.
type Answers = Vec<(u64, u64)>;

fn num_bits(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_f64).map(f64::to_bits)
}

/// An answered op, as the client saw it.
struct Answered {
    op: Op,
    sent_us: u64,
    done_us: u64,
    due_us: u64,
    lines: Vec<String>,
}

/// Outcome of checking one answered op.
#[derive(Default)]
struct Checked {
    problem: Option<String>,
    /// Request ids the response carried (top level, then members).
    rids: Vec<u64>,
    member_hits: u64,
    members: u64,
}

fn check(a: &Answered, answers: &Answers) -> Checked {
    let mut out = Checked::default();
    let mut fail = |p: String| {
        if out.problem.is_none() {
            out.problem = Some(p);
        }
    };
    let cid = a.op.cid;
    let mut results: Vec<Json> = Vec::new();
    for raw in &a.lines {
        let Ok(v) = Json::parse(raw) else {
            fail(format!("op {cid}: unparseable response {raw}"));
            continue;
        };
        if v.get("ok") != Some(&Json::Bool(true)) {
            fail(format!("op {cid}: not ok: {raw}"));
        }
        if v.get("id").and_then(Json::as_u64) != Some(cid) {
            fail(format!("op {cid}: response carries another id: {raw}"));
        }
        match v.get("request_id").and_then(Json::as_u64) {
            Some(rid) => out.rids.push(rid),
            None => fail(format!("op {cid}: response without request_id")),
        }
        if let Some(rs) = v.get("results").and_then(Json::as_arr) {
            results.extend(rs.iter().cloned());
        } else {
            results.push(v);
        }
    }
    let same = |v: &Json, i: usize| {
        num_bits(v, "power_w") == Some(answers[i].0)
            && num_bits(v, "measured_w") == Some(answers[i].1)
    };
    match &a.op.kind {
        Kind::Repeat(i) => {
            if !results.first().is_some_and(|v| same(v, *i)) {
                fail(format!(
                    "op {cid}: repeat of working-set request {i} answered differently"
                ));
            }
        }
        Kind::Batch(idx) => {
            if results.len() != idx.len() {
                fail(format!(
                    "op {cid}: batch of {} answered {}",
                    idx.len(),
                    results.len()
                ));
            }
            for r in &results {
                let Some(j) = r.get("index").and_then(Json::as_usize) else {
                    fail(format!("op {cid}: batch member without index"));
                    continue;
                };
                match r.get("request_id").and_then(Json::as_u64) {
                    Some(rid) => out.rids.push(rid),
                    None => fail(format!("op {cid}: batch member without request_id")),
                }
                if r.get("ok") != Some(&Json::Bool(true))
                    || !idx.get(j).is_some_and(|&i| same(r, i))
                {
                    fail(format!("op {cid}: batch member {j} answered differently"));
                }
            }
        }
        Kind::Group => {
            let r = results.first();
            let w = r.and_then(|v| v.get("power_w")).and_then(Json::as_f64);
            if !w.is_some_and(|w| w.is_finite() && w > 0.0) {
                fail(format!("op {cid}: group power {w:?} is not positive"));
            }
            for m in r
                .and_then(|v| v.get("group"))
                .and_then(Json::as_arr)
                .unwrap_or(&[])
            {
                out.members += 1;
                out.member_hits += u64::from(m.get("cached") == Some(&Json::Bool(true)));
            }
        }
        Kind::Predict => {
            let w = results
                .first()
                .and_then(|v| v.get("predicted_w"))
                .and_then(Json::as_f64);
            if !w.is_some_and(|w| w.is_finite() && w > 0.0) {
                fail(format!("op {cid}: predicted power {w:?} is not positive"));
            }
        }
    }
    out
}

/// Answer the working set once over `WARM_UP_CONNECTIONS` connections
/// and return the first answers.
fn warm(daemon: &Daemon, ws: &WorkingSet) -> std::io::Result<Answers> {
    let chunks: Vec<Vec<(usize, &Spec)>> = (0..WARM_UP_CONNECTIONS)
        .map(|c| {
            ws.specs
                .iter()
                .enumerate()
                .skip(c)
                .step_by(WARM_UP_CONNECTIONS)
                .collect()
        })
        .collect();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                s.spawn(move || -> std::io::Result<Vec<(usize, (u64, u64))>> {
                    let mut conn = Conn::open(daemon.addr)?;
                    let mut out = Vec::new();
                    for &(i, spec) in chunk {
                        conn.send(&Mix::line(i as u64, None, spec.json_fields()))?;
                        let line = conn.receive(&Kind::Repeat(i))?.remove(0);
                        let v = Json::parse(&line).map_err(|e| {
                            std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                        })?;
                        let bits = num_bits(&v, "power_w").zip(num_bits(&v, "measured_w"));
                        let bits = bits.ok_or_else(|| {
                            std::io::Error::new(std::io::ErrorKind::InvalidData, line.clone())
                        })?;
                        out.push((i, bits));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client"))
            .collect::<Vec<_>>()
    });
    let mut answers = vec![(0, 0); ws.specs.len()];
    for part in parts {
        for (i, bits) in part? {
            answers[i] = bits;
        }
    }
    Ok(answers)
}

/// One pipelined connection with [`WINDOW`] ops outstanding until
/// `budget_us` has passed, then drained. The session answers in order, so
/// the oldest op's lines come first; each answered op is handed to
/// `answered` as it arrives.
fn closed_loop(
    daemon: &Daemon,
    mix: &mut Mix<'_>,
    budget_us: u64,
    mut answered: impl FnMut(Answered),
) -> std::io::Result<()> {
    let tracer: &Tracer = daemon.sched.tracer();
    let mut conn = Conn::open(daemon.addr)?;
    let end = tracer.now_us() + budget_us;
    let mut inflight: VecDeque<(Op, u64)> = VecDeque::with_capacity(WINDOW);
    loop {
        while inflight.len() < WINDOW && tracer.now_us() < end {
            let op = mix.next_op();
            let sent_us = tracer.now_us();
            conn.send(&op.line)?;
            inflight.push_back((op, sent_us));
        }
        let Some((op, sent_us)) = inflight.pop_front() else {
            return Ok(());
        };
        let lines = conn.receive(&op.kind)?;
        answered(Answered {
            op,
            sent_us,
            done_us: tracer.now_us(),
            due_us: sent_us,
            lines,
        });
    }
}

/// One pipelined connection: a sender thread writes each op at its due
/// time, this thread reads the answers (the session answers in order).
fn open_loop(
    daemon: &Daemon,
    mix: &mut Mix<'_>,
    rng: &mut Rng,
    budget_us: u64,
) -> std::io::Result<Vec<Answered>> {
    let mut plan = Vec::new();
    let mut at = 0.0;
    loop {
        at += rng.exp_gap(OPEN_LOOP_RPS);
        if at * 1e6 >= budget_us as f64 {
            break;
        }
        plan.push(((at * 1e6) as u64, mix.next_op()));
    }
    let tracer: &Tracer = daemon.sched.tracer();
    let mut conn = Conn::open(daemon.addr)?;
    let mut writer = BufWriter::new(conn.writer.get_ref().try_clone()?);
    let start = tracer.now_us() + 1000;
    let (sent, done) = std::thread::scope(|s| {
        let plan = &plan;
        let sender = s.spawn(move || -> std::io::Result<Vec<u64>> {
            crate::report::tight_timer_slack();
            let mut sent = Vec::with_capacity(plan.len());
            for (offset, op) in plan {
                let due = start + offset;
                let now = tracer.now_us();
                if due > now {
                    std::thread::sleep(Duration::from_micros(due - now));
                }
                sent.push(tracer.now_us());
                writer.write_all(op.line.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
            }
            Ok(sent)
        });
        let mut done = Vec::with_capacity(plan.len());
        for (_, op) in plan {
            match conn.receive(&op.kind) {
                Ok(lines) => done.push((tracer.now_us(), lines)),
                Err(e) => return (sender.join().expect("sender"), Err(e)),
            }
        }
        (sender.join().expect("sender"), Ok(done))
    });
    let sent = sent?;
    Ok(plan
        .into_iter()
        .zip(sent)
        .zip(done?)
        .map(|(((offset, op), sent_us), (done_us, lines))| Answered {
            op,
            sent_us,
            done_us,
            due_us: start + offset,
            lines,
        })
        .collect())
}

/// Checks, tallies and (when traced) the spans of the answered ops.
#[derive(Default)]
struct Tally {
    traced: bool,
    spans: Vec<Span>,
    /// Request id carried by a traced op's response, to its first one.
    rid_op: BTreeMap<u64, u64>,
    member_hits: u64,
    members: u64,
    bytes_in: u64,
    bytes_out: u64,
    ops: u64,
}

impl Tally {
    fn traced() -> Self {
        Self {
            traced: true,
            ..Self::default()
        }
    }

    /// Check and count one answered op.
    fn add(&mut self, a: &Answered, answers: &Answers, report: &mut Report) {
        let c = check(a, answers);
        report.check(c.problem);
        self.member_hits += c.member_hits;
        self.members += c.members;
        self.bytes_in += a.op.line.len() as u64 + 1;
        self.bytes_out += a.lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        self.ops += 1;
        if let (true, Some(&first)) = (self.traced, c.rids.first()) {
            self.spans.push(Span::new(
                first,
                "serve.socket",
                a.sent_us * 1000,
                a.done_us * 1000,
            ));
            for rid in c.rids {
                self.rid_op.insert(rid, first);
            }
        }
    }

    /// Add the drained stage spans of the traced ops.
    fn attach(&mut self, records: &[SpanRecord]) {
        for r in records {
            if let Some(&op) = self.rid_op.get(&r.request_id) {
                self.spans.extend(stage_span(r, op));
            }
        }
    }
}

/// What a closed loop keeps of each answered op: completion time and
/// latency, both in microseconds.
#[derive(Default)]
struct Timings {
    done_us: Vec<u64>,
    latency_us: Vec<u64>,
}

impl Timings {
    fn add(&mut self, a: &Answered) {
        self.done_us.push(a.done_us);
        self.latency_us.push(a.done_us.saturating_sub(a.sent_us));
    }

    /// Capacity: the median rate over blocks of completions.
    fn rate(&self) -> f64 {
        median(&block_rates(&self.done_us))
    }
}

/// Run the closed loop for `budget_us`, checking every answer as it
/// arrives and keeping only its timings.
fn measured_closed_loop(
    daemon: &Daemon,
    mix: &mut Mix<'_>,
    budget_us: u64,
    answers: &Answers,
    report: &mut Report,
    t: &mut Tally,
) -> Timings {
    let mut timings = Timings::default();
    closed_loop(daemon, mix, budget_us, |a| {
        timings.add(&a);
        t.add(&a, answers, report);
    })
    .expect("closed loop");
    timings
}

/// Check one server's timed traffic: its counters, the budget and the
/// cache hit ratio against its target.
fn server_checks(
    report: &mut Report,
    sched: &Scheduler,
    before: &wm_fleet::SchedulerStats,
    hit_target: f64,
    t: &Tally,
) {
    let member_ratio = t.member_hits as f64 / t.members.max(1) as f64;
    report.note(format!(
        "groups: client-seen member hit ratio {member_ratio} (target {})",
        2.0 / 3.0
    ));
    report.set("serve.bytes_in", t.bytes_in as f64 / t.ops.max(1) as f64);
    report.set("serve.bytes_out", t.bytes_out as f64 / t.ops.max(1) as f64);
    cold::fleet_counters(report, sched, before);
    let hits = report
        .metrics
        .get("fleet.cache.hit_ratio")
        .copied()
        .unwrap_or(0.0);
    report.require(hits > hit_target - 0.1, || {
        format!("cache hit ratio {hits} is far below its target {hit_target}")
    });
}

/// The untraced run: [`cold::ROUNDS`] closed loops of equal length, each
/// on a fresh server that has answered the working set (the first on
/// set-up's). The session always has a line to read, so neither the
/// capacity nor the latency depends on how fast an idle core wakes.
fn untraced(
    args: &Args,
    ws: &WorkingSet,
    daemon: Daemon,
    answers: &Answers,
    report: &mut Report,
    hit_target: f64,
) {
    let total_us = (args.seconds * 1e6) as u64;
    report.note(format!(
        "serve-warm: loopback wattd ({} scheduler workers), working set {WORKING_SET} \
         requests; mix {REPEAT_SHARE} repeats / {PREDICT_SHARE} predict / {GROUP_SHARE} \
         groups / {BATCH_SHARE:.2} batches of {BATCH_SIZE}; {} closed loops with {WINDOW} \
         ops outstanding on one pipelined connection, {} s in all",
        cold::workers(),
        cold::ROUNDS,
        total_us as f64 / 1e6
    ));
    let mut mix = Mix::new(ws, args.seed, CLOSED_LANE);
    let (mut rates, mut latency_ms, mut ops) = (Vec::new(), Vec::new(), 0);
    let mut daemon = Some(daemon);
    for _ in 0..cold::ROUNDS {
        let daemon = daemon.take().unwrap_or_else(|| {
            let daemon = Daemon::start();
            let again = warm(&daemon, ws).expect("warm the working set");
            report.require(again == *answers, || {
                "a fresh server answered the working set differently".to_string()
            });
            daemon
        });
        let before = daemon.sched.stats();
        let mut t = Tally::default();
        let closed = measured_closed_loop(
            &daemon,
            &mut mix,
            total_us / cold::ROUNDS,
            answers,
            report,
            &mut t,
        );
        rates.extend(block_rates(&closed.done_us));
        latency_ms.extend(closed.latency_us.iter().map(|&us| us as f64 / 1000.0));
        ops += closed.done_us.len();
        server_checks(report, &daemon.sched, &before, hit_target, &t);
    }
    let rps = median(&rates);
    report.set("ops_per_s", rps);
    let l = chunked_latency(&latency_ms);
    set_latency(report, l);
    report.note(format!(
        "capacity_rps = {rps} req/s (median over {} blocks of {RATE_BLOCK} ops; {ops} ops, \
         {WINDOW} outstanding); latency from send p50 {} ms, p90 {} ms, p99 {} ms (medians \
         over {} runs of {LATENCY_CHUNK})",
        rates.len(),
        l.p50,
        l.p90,
        l.p99,
        l.chunks
    ));
}

pub fn run(args: &Args, report: &mut Report) {
    let ws = working_set(args.seed);
    let (setup_s, (daemon, answers)) = setup_median(|| {
        let daemon = Daemon::start();
        let answers = warm(&daemon, &ws).expect("warm the working set");
        (daemon, answers)
    });
    report.set("setup_s", setup_s);
    let lookups = REPEAT_SHARE + BATCH_SHARE * BATCH_SIZE as f64;
    let hit_target = lookups / (lookups + GROUP_SHARE);
    report.set("load.hit_ratio_target", hit_target);
    report.set("load.window", WINDOW as f64);
    report.set("load.open_loop_rps", OPEN_LOOP_RPS);
    if !args.trace {
        untraced(args, &ws, daemon, &answers, report, hit_target);
        return;
    }
    daemon.sched.tracer().drain();
    let before = daemon.sched.stats();
    let total_us = (args.seconds * 1e6) as u64;
    let mut mix = Mix::new(&ws, args.seed, CLOSED_LANE);
    let t = traced(args, &ws, &daemon, &answers, &mut mix, total_us, report);
    server_checks(report, &daemon.sched, &before, hit_target, &t);
}

/// The traced run: a traced open loop at [`OPEN_LOOP_RPS`], then the
/// closed loop in an untraced and a traced half, then the replay. Returns
/// the open loop's tally.
fn traced(
    args: &Args,
    ws: &WorkingSet,
    daemon: &Daemon,
    answers: &Answers,
    mix: &mut Mix<'_>,
    total_us: u64,
    report: &mut Report,
) -> Tally {
    let tracer = Arc::clone(daemon.sched.tracer());
    let open_us = total_us * 4 / 5;
    let closed_us = total_us - open_us;
    report.note(format!(
        "serve-warm (traced): open loop at {OPEN_LOOP_RPS} req/s on one pipelined connection \
         for {} s, then closed loop with {WINDOW} outstanding for {} s",
        open_us as f64 / 1e6,
        closed_us as f64 / 1e6
    ));
    let mut open_mix = Mix::new(ws, args.seed, OPEN_LANE);
    let mut arrivals = Rng::new(args.seed ^ 0xA12);

    // Open loop first: its traffic is fixed by the seed, so the memory
    // high-water mark below does not depend on how fast the server is.
    let drainer = Drainer::start(Arc::clone(&tracer));
    let open = open_loop(daemon, &mut open_mix, &mut arrivals, open_us).expect("open loop");
    let records = drainer.finish();
    let mut t = Tally::traced();
    for a in &open {
        t.add(a, answers, report);
    }
    let lat: Vec<f64> = open
        .iter()
        .map(|a| a.done_us.saturating_sub(a.due_us) as f64 / 1000.0)
        .collect();
    let late: Vec<f64> = open
        .iter()
        .map(|a| a.sent_us.saturating_sub(a.due_us) as f64)
        .collect();
    for a in &open {
        let l = a.sent_us.saturating_sub(a.due_us);
        if l > cold::LATE_LIMIT_US {
            report.fail(format!("op {} sent {l} us late", a.op.cid));
        }
    }
    let l = chunked_latency(&lat);
    set_open_loop_latency(report, l);
    report.set("load.open_loop_samples", open.len() as f64);
    report.set("load.lateness_us.p50", quantile(&late, 0.5));
    report.set("load.lateness_us.p99", quantile(&late, 0.99));
    report.set("process.peak_rss_mb", crate::report::resource_usage().0);
    report.note(format!(
        "open loop at {OPEN_LOOP_RPS} req/s: p50 {} ms, p90 {} ms, p99 {} ms from due time (medians \
         over {} runs of {LATENCY_CHUNK} consecutive ops; {} ops); generator lateness \
         p50 {} us, p99 {} us, max {} us",
        l.p50,
        l.p90,
        l.p99,
        l.chunks,
        lat.len(),
        quantile(&late, 0.5),
        quantile(&late, 0.99),
        quantile(&late, 1.0)
    ));

    // The untraced half still empties the ring, so nothing is dropped.
    let emptier = Drainer::start(Arc::clone(&tracer));
    let plain = measured_closed_loop(
        daemon,
        mix,
        closed_us / 2,
        answers,
        report,
        &mut Tally::default(),
    );
    drop(emptier.finish());
    // The traced half's stage spans are drained but not attributed: a
    // pipelined op's round trip is mostly its wait behind the window, so
    // the per-layer costs come from the open loop's ops alone.
    let drainer = Drainer::start(Arc::clone(&tracer));
    let closed = measured_closed_loop(
        daemon,
        mix,
        closed_us / 2,
        answers,
        report,
        &mut Tally::default(),
    );
    drop(drainer.finish());
    t.attach(&records);
    report.set("bench.tracing_overhead", 1.0 - closed.rate() / plain.rate());
    report.note(format!(
        "tracing overhead: capacity_rps {} untraced vs {} traced",
        plain.rate(),
        closed.rate()
    ));

    let accounted = SelfTimes::from_spans(&t.spans);
    layer_metrics(report, &accounted, t.ops, STAGE_LAYERS);
    let mut replay = Replay::default();
    let fleet = daemon.sched.fleet();
    for a in open.iter().take(REPLAYED) {
        let runs: Vec<RunRequest> = match &a.op.kind {
            Kind::Repeat(i) => vec![ws.specs[*i].to_request()],
            Kind::Batch(idx) => idx.iter().map(|&i| ws.specs[i].to_request()).collect(),
            Kind::Predict | Kind::Group => Vec::new(),
        };
        replay.served_line(&a.op.line, &runs, &a.lines, fleet);
    }
    layer_metrics(
        report,
        &SelfTimes::from_spans(&replay.spans),
        replay.ops,
        REPLAY_LAYERS_WARM,
    );
    let mut spans = std::mem::take(&mut t.spans);
    spans.extend(replay.spans);
    crate::finish_trace(args, report, &spans);
    t
}
