//! The concurrent TCP server: thread-per-connection sessions over one
//! shared [`Scheduler`].
//!
//! Every accepted connection becomes a **session**: a numbered,
//! stat-tracked JSON-lines conversation speaking exactly the
//! `wm_fleet::protocol` schema, plus three serve-layer behaviors:
//!
//! * **Streamed batches** — every parsed line goes through the
//!   protocol's one entry point, [`wm_fleet::answer`], with batches
//!   streaming by default, so a `batch` yields one response line per
//!   packed round as rounds complete (closed by `"last": true`) instead
//!   of one blob; `"stream": false` opts a request back into the blob. A
//!   line that is not JSON or runs past the cap is answered by
//!   [`wm_fleet::reject_line`], as over stdio.
//! * **Session observability** — each request gets a `session` span
//!   ([`wm_obs::stage::SESSION`]) tying its request id to the session
//!   that issued it, named by the protocol's bounded op label
//!   ([`wm_fleet::RequestLine::label`]), and the `stats` op is augmented
//!   with the asking session's id plus per-session
//!   request/error/byte/cache-hit counts for every live session.
//! * **Backpressure, not hangs** — past `max_sessions` concurrent
//!   sessions a new connection is answered with a single clean
//!   `busy` error line and closed; a `batch` whose member count exceeds
//!   the per-session in-flight cap gets a `busy` error while the session
//!   survives; a request line longer than `max_line_bytes` gets a clean
//!   error and the oversized bytes are discarded without ever being
//!   buffered — one client cannot OOM the daemon.
//!
//! **Graceful drain**: [`ServerHandle::shutdown`] (or the serve-layer
//! `shutdown` op, or SIGTERM in the `wattd` binary) makes the accept
//! loop stop admitting, lets every session finish the request it is
//! currently serving, joins the session threads, flushes the predictor's
//! state to `state_dir` (see [`crate::persist`]), and returns.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use wm_fleet::json::{obj, Json};
use wm_fleet::{
    answer, reject_line, BadLine, LineEvent, LineReader, RequestLine, Scheduler, MAX_LINE_BYTES,
};
use wm_obs::{stage, Counter, Registry, SpanRecord};

use crate::persist::{self, LoadOutcome};

/// Network-service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 picks a free port).
    pub addr: String,
    /// Concurrent-session admission cap: connection `max_sessions + 1`
    /// gets a clean `busy` error line and is closed.
    pub max_sessions: usize,
    /// Per-session in-flight cap: the most batch members one session may
    /// have executing at once (a `batch` is the only way a session runs
    /// more than one job concurrently). Oversized batches get a `busy`
    /// error; the session survives.
    pub max_inflight: usize,
    /// Request-line length cap in bytes (default [`MAX_LINE_BYTES`], the
    /// stdio loop's cap). Longer lines are answered with a clean error and
    /// their bytes discarded unbuffered.
    pub max_line_bytes: usize,
    /// Predictor-persistence directory: loaded (behind version/staleness
    /// checks) at bind, flushed on graceful drain. `None` disables
    /// persistence.
    pub state_dir: Option<PathBuf>,
    /// Periodic predictor-snapshot interval in seconds. When positive
    /// (and `state_dir` is configured), a timer thread flushes
    /// `state_dir/predictor.json` every interval while the server runs,
    /// so a crash loses at most one interval of training — not the whole
    /// session. 0 (the default) keeps drain-only flushing: no timer
    /// thread, no periodic writes, the drain-time flush still runs.
    pub snapshot_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 64,
            max_inflight: 256,
            max_line_bytes: MAX_LINE_BYTES,
            state_dir: None,
            snapshot_secs: 0,
        }
    }
}

/// Live per-session counters (atomics — written by the session thread,
/// read by whoever answers a `stats` op).
#[derive(Debug, Default)]
struct SessionStats {
    requests: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    cache_hits: AtomicU64,
}

/// One session's counters at a point in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// Session id (1-based, in accept order).
    pub session: u64,
    /// Request lines processed (including ones answered with errors).
    pub requests: u64,
    /// Error responses emitted (top-level and per batch member).
    pub errors: u64,
    /// Request bytes consumed from the socket.
    pub bytes_in: u64,
    /// Response bytes written to the socket.
    pub bytes_out: u64,
    /// Cache-hit answers observed (top-level and per batch member).
    pub cache_hits: u64,
}

impl SessionStats {
    fn snapshot(&self, session: u64) -> SessionSnapshot {
        SessionSnapshot {
            session,
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the accept loop, the sessions, and handles.
#[derive(Debug, Default)]
struct ServerState {
    shutdown: AtomicBool,
    next_session: AtomicU64,
    active: Mutex<HashMap<u64, Arc<SessionStats>>>,
    /// `serve_sessions_rejected_total`, registered at the first rejection.
    rejected: OnceLock<Counter>,
}

impl ServerState {
    /// Open (`Some(stats)`) or close (`None`) session `sid`, setting
    /// `serve_sessions_active` to the live-session count under its lock.
    fn set_session(&self, reg: &Registry, sid: u64, stats: Option<Arc<SessionStats>>) {
        let mut active = self
            .active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match stats {
            Some(stats) => active.insert(sid, stats),
            None => active.remove(&sid),
        };
        reg.gauge("serve_sessions_active", &[])
            .set(active.len() as f64);
    }
}

/// A cloneable handle onto a running [`Server`], for triggering and
/// observing drain from outside the accept loop (tests, signal
/// handlers).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Begin graceful drain: stop accepting, finish in-flight requests,
    /// flush predictor state, return from [`Server::run`]. Idempotent.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// Snapshots of every live session, in session-id order.
    pub fn sessions(&self) -> Vec<SessionSnapshot> {
        snapshot_sessions(&self.state)
    }
}

fn snapshot_sessions(state: &ServerState) -> Vec<SessionSnapshot> {
    let mut all: Vec<SessionSnapshot> = state
        .active
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(&sid, stats)| stats.snapshot(sid))
        .collect();
    all.sort_by_key(|s| s.session);
    all
}

/// The bound-but-not-yet-running network service.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    cfg: ServeConfig,
    sched: Arc<Scheduler>,
    state: Arc<ServerState>,
    warm_start: Option<Result<usize, String>>,
}

impl Server {
    /// Bind the listener and, when `state_dir` is configured, warm-start
    /// the shared predictor from persisted state (a missing file is a
    /// cold start; a rejected file is reported via
    /// [`Server::warm_start`] and the predictor stays cold — never
    /// silently wrong).
    pub fn bind(cfg: ServeConfig, sched: Arc<Scheduler>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let warm_start = cfg.state_dir.as_deref().and_then(|dir| {
            match persist::load_predictor(dir, persist::unix_now_s()) {
                LoadOutcome::Missing => None,
                LoadOutcome::Rejected(msg) => Some(Err(msg)),
                LoadOutcome::Loaded(state) => {
                    let models = state.models.len();
                    Some(sched.restore_predictor(state).map(|()| models))
                }
            }
        });
        sched
            .registry()
            .gauge("serve_warm_start", &[])
            .set(matches!(warm_start, Some(Ok(_))) as u64 as f64);
        Ok(Server {
            listener,
            local_addr,
            cfg,
            sched,
            state: Arc::new(ServerState::default()),
            warm_start,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The warm-start outcome: `None` for a cold start (no persistence
    /// configured, or no state file), `Some(Ok(models))` after restoring
    /// that many models, `Some(Err(why))` when a state file was present
    /// but rejected.
    pub fn warm_start(&self) -> Option<&Result<usize, String>> {
        self.warm_start.as_ref()
    }

    /// A handle for triggering/observing drain while [`Server::run`]
    /// blocks.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Accept and serve sessions until drain is requested, then finish
    /// in-flight work, join every session, flush predictor state to
    /// `state_dir` (when configured), and return.
    pub fn run(self) -> std::io::Result<()> {
        let reg = Arc::clone(self.sched.registry());
        let snapshotter = self.spawn_snapshotter(&reg);
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.state.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    sessions.retain(|h| !h.is_finished());
                    let active = self
                        .state
                        .active
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .len();
                    if active >= self.cfg.max_sessions {
                        self.state
                            .rejected
                            .get_or_init(|| reg.counter("serve_sessions_rejected_total", &[]))
                            .inc();
                        reject_busy(stream, self.cfg.max_sessions);
                        continue;
                    }
                    let sid = self.state.next_session.fetch_add(1, Ordering::Relaxed) + 1;
                    reg.counter("serve_sessions_total", &[]).inc();
                    let stats = Arc::new(SessionStats::default());
                    self.state.set_session(&reg, sid, Some(Arc::clone(&stats)));
                    let ctx = SessionCtx {
                        sid,
                        stats,
                        sched: Arc::clone(&self.sched),
                        state: Arc::clone(&self.state),
                        max_inflight: self.cfg.max_inflight,
                        max_line_bytes: self.cfg.max_line_bytes,
                    };
                    sessions.push(std::thread::spawn(move || {
                        ctx.serve(stream);
                        ctx.state.set_session(ctx.sched.registry(), ctx.sid, None);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failures (e.g. a connection that
                    // aborted between accept and handshake) must not take
                    // the whole service down.
                    reg.counter("serve_accept_errors_total", &[]).inc();
                }
            }
        }
        for h in sessions {
            let _ = h.join();
        }
        if let Some(h) = snapshotter {
            let _ = h.join();
        }
        if let Some(dir) = &self.cfg.state_dir {
            persist::save_predictor(dir, &self.sched.predictor_snapshot(), persist::unix_now_s())?;
        }
        Ok(())
    }

    /// Spawn the periodic-snapshot timer when `state_dir` is configured
    /// and `snapshot_secs` is positive. The thread counts slept
    /// milliseconds instead of reading a clock (interval accuracy is not
    /// a contract; the determinism audit rule is), flushes the predictor
    /// each full interval, and exits on drain — `run` joins it before the
    /// final flush, so the drain-time snapshot always wins.
    fn spawn_snapshotter(
        &self,
        reg: &Arc<wm_obs::Registry>,
    ) -> Option<std::thread::JoinHandle<()>> {
        let dir = self.cfg.state_dir.clone()?;
        let every_ms = self
            .cfg
            .snapshot_secs
            .checked_mul(1000)
            .filter(|&ms| ms > 0)?;
        let sched = Arc::clone(&self.sched);
        let state = Arc::clone(&self.state);
        let reg = Arc::clone(reg);
        Some(std::thread::spawn(move || {
            const TICK_MS: u64 = 20;
            let mut slept_ms = 0u64;
            while !state.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(TICK_MS));
                slept_ms += TICK_MS;
                if slept_ms < every_ms {
                    continue;
                }
                slept_ms = 0;
                match persist::save_predictor(
                    &dir,
                    &sched.predictor_snapshot(),
                    persist::unix_now_s(),
                ) {
                    Ok(_path) => reg.counter("serve_snapshots_total", &[]).inc(),
                    Err(_) => reg.counter("serve_snapshot_errors_total", &[]).inc(),
                }
            }
        }))
    }
}

/// Answer an over-admission connection with one `busy` line and close
/// it — backpressure is an explicit error, never a hang.
fn reject_busy(stream: TcpStream, max_sessions: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut w = BufWriter::new(stream);
    let line = obj(vec![
        ("id", Json::Null),
        ("ok", Json::Bool(false)),
        ("busy", Json::Bool(true)),
        (
            "error",
            Json::Str(format!(
                "busy: {max_sessions} concurrent sessions already admitted; retry later"
            )),
        ),
    ]);
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

/// Everything one session thread needs.
struct SessionCtx {
    sid: u64,
    stats: Arc<SessionStats>,
    sched: Arc<Scheduler>,
    state: Arc<ServerState>,
    max_inflight: usize,
    max_line_bytes: usize,
}

impl SessionCtx {
    fn serve(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        // The read timeout is the drain-poll cadence: an idle session
        // notices shutdown within one tick.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut lines = LineReader::new(BufReader::new(read_half), self.max_line_bytes);
        let mut writer = BufWriter::new(stream);
        loop {
            let event = lines.next_line();
            self.stats
                .bytes_in
                .store(lines.bytes_in(), Ordering::Relaxed);
            match event {
                Ok(LineEvent::Line(line)) => {
                    if self.handle_line(&line, &mut writer).is_err()
                        || self.state.shutdown.load(Ordering::SeqCst)
                    {
                        break;
                    }
                }
                Ok(LineEvent::Oversized) => {
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                    let t0 = self.sched.tracer().now_us();
                    let line = BadLine::Oversized(self.max_line_bytes);
                    if self.reject(&mut writer, line, "oversized", t0).is_err() {
                        break;
                    }
                }
                Ok(LineEvent::Timeout) => {
                    if self.state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Ok(LineEvent::Eof) | Err(_) => break,
            }
        }
    }

    /// Answer one request line, streaming batches round by round.
    fn handle_line(&self, text: &str, writer: &mut BufWriter<TcpStream>) -> std::io::Result<()> {
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Ok(());
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let tracer = self.sched.tracer();
        let t0 = tracer.now_us();
        let v = match Json::parse(trimmed) {
            Ok(v) => v,
            Err(e) => return self.reject(writer, BadLine::Unparseable(e), "parse_error", t0),
        };
        let line = RequestLine::new(&v);
        let id = || v.get("id").cloned().unwrap_or(Json::Null);

        // Serve-layer op: `shutdown` triggers the same graceful drain as
        // SIGTERM, answered before the drain takes effect.
        if line.op() == Some("shutdown") {
            let rid = tracer.next_request_id();
            tracer.start(rid, stage::PARSE).finish("shutdown");
            self.state.shutdown.store(true, Ordering::SeqCst);
            let resp = obj(vec![
                ("id", id()),
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
                ("request_id", Json::Num(rid as f64)),
            ]);
            self.session_span(rid, "shutdown", t0);
            return self.emit(writer, &resp);
        }

        // Per-session in-flight cap: a batch is the only way one session
        // puts more than one job in flight, so the cap is a member cap.
        if line.op() == Some("batch") {
            let members = v
                .get("requests")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            if members > self.max_inflight {
                let rid = tracer.next_request_id();
                tracer.start(rid, stage::PARSE).finish("busy");
                let resp = obj(vec![
                    ("id", id()),
                    ("ok", Json::Bool(false)),
                    ("busy", Json::Bool(true)),
                    (
                        "error",
                        Json::Str(format!(
                            "busy: batch of {members} members exceeds this session's \
                             in-flight cap of {}",
                            self.max_inflight
                        )),
                    ),
                    ("request_id", Json::Num(rid as f64)),
                ]);
                self.session_span(rid, line.label(), t0);
                return self.emit(writer, &resp);
            }
        }

        let mut first_rid = None;
        let augment = line.op() == Some("stats");
        let result = answer(&line, &self.sched, true, &mut |resp| {
            if first_rid.is_none() {
                first_rid = resp.get("request_id").and_then(Json::as_u64);
            }
            if augment {
                self.emit(writer, &self.augment_stats(resp))
            } else {
                self.emit(writer, resp)
            }
        });
        if let Some(rid) = first_rid {
            self.session_span(rid, line.label(), t0);
        }
        result
    }

    /// Answer a line that never became a request through the protocol's
    /// [`reject_line`], attributed to this session as `op`.
    fn reject(
        &self,
        writer: &mut BufWriter<TcpStream>,
        line: BadLine,
        op: &str,
        start_us: u64,
    ) -> std::io::Result<()> {
        let resp = reject_line(&self.sched, line);
        if let Some(rid) = resp.get("request_id").and_then(Json::as_u64) {
            self.session_span(rid, op, start_us);
        }
        self.emit(writer, &resp)
    }

    /// Record the session-attribution span for one answered request. `op`
    /// is the line's bounded op label, or the serve layer's own name for
    /// a line the protocol never dispatched.
    fn session_span(&self, rid: u64, op: &str, start_us: u64) {
        let tracer = self.sched.tracer();
        tracer.record(SpanRecord {
            request_id: rid,
            stage: stage::SESSION,
            detail: format!("session={} op={op}", self.sid),
            start_us,
            end_us: tracer.now_us(),
        });
    }

    /// Write one response line; account bytes, errors, and cache hits
    /// from the response itself (top level and per batch member).
    fn emit(&self, writer: &mut BufWriter<TcpStream>, resp: &Json) -> std::io::Result<()> {
        let line = resp.to_string();
        // Tally before the line hits the wire so a client that has seen
        // its response always finds it reflected in `stats`.
        self.stats
            .bytes_out
            .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        let mut errors = 0;
        let mut hits = 0;
        let mut tally = |v: &Json| {
            if v.get("ok") == Some(&Json::Bool(false)) {
                errors += 1;
            }
            if v.get("cache_hit") == Some(&Json::Bool(true)) {
                hits += 1;
            }
        };
        tally(resp);
        if let Some(results) = resp.get("results").and_then(Json::as_arr) {
            for r in results {
                tally(r);
            }
        }
        self.stats.errors.fetch_add(errors, Ordering::Relaxed);
        self.stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
        writeln!(writer, "{line}")?;
        writer.flush()?;
        Ok(())
    }

    /// Append the serve layer's session view to a `stats` response: the
    /// asking session's id, admission counters, and one entry per live
    /// session.
    fn augment_stats(&self, resp: &Json) -> Json {
        let Json::Obj(fields) = resp else {
            return resp.clone();
        };
        let mut fields = fields.clone();
        let sessions: Vec<Json> = snapshot_sessions(&self.state)
            .into_iter()
            .map(|s| {
                obj(vec![
                    ("session", Json::Num(s.session as f64)),
                    ("requests", Json::Num(s.requests as f64)),
                    ("errors", Json::Num(s.errors as f64)),
                    ("bytes_in", Json::Num(s.bytes_in as f64)),
                    ("bytes_out", Json::Num(s.bytes_out as f64)),
                    ("cache_hits", Json::Num(s.cache_hits as f64)),
                ])
            })
            .collect();
        fields.push(("session".to_string(), Json::Num(self.sid as f64)));
        fields.push((
            "sessions_active".to_string(),
            Json::Num(sessions.len() as f64),
        ));
        // The asking session was admitted, so `serve_sessions_total` exists.
        let started = self.sched.registry().counter("serve_sessions_total", &[]);
        let rejected = self.state.rejected.get().map_or(0, Counter::get);
        fields.push((
            "sessions_started".to_string(),
            Json::Num(started.get() as f64),
        ));
        fields.push(("sessions_rejected".to_string(), Json::Num(rejected as f64)));
        fields.push(("sessions".to_string(), Json::Arr(sessions)));
        Json::Obj(fields)
    }
}
