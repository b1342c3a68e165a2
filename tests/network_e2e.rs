//! End-to-end tests of the `wattd` TCP network service (`wm-serve`):
//! real sockets against a spawned in-process server.
//!
//! Covered here (and gated in CI as `network_e2e`):
//! * two concurrent TCP clients share one scheduler — client A's fresh
//!   run is client B's memo-cache hit, under distinct request ids and
//!   distinct session ids woven into the span trail;
//! * a streamed `batch` answers one line per packed round, in round
//!   order, closing with the `"last": true` remainder line;
//! * graceful shutdown drains in-flight work and flushes predictor
//!   state; a restarted server on the same `--state-dir` answers
//!   `predict` from the persisted learned models without retraining,
//!   and a state file of an older format version starts it cold;
//! * backpressure is explicit: over-cap sessions and over-cap batches
//!   get clean `busy` errors, oversized and malformed request lines are
//!   isolated to their own response, and an abrupt client disconnect
//!   mid-batch wedges nothing;
//! * a pipelined session — many mixed request lines written before any
//!   answer is read — gets every line answered exactly once, in send
//!   order;
//! * a session span names a line's op by its bounded label, never by
//!   the client's text.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use wattmul_repro::fleet::json::{obj, Json};
use wattmul_repro::fleet::{Fleet, Scheduler};
use wattmul_repro::prelude::a100_pcie;
use wattmul_repro::serve::{ServeConfig, Server, ServerHandle};

/// A spawned loopback server and the bits needed to talk to and stop it.
struct TestServer {
    addr: String,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn spawn_server(mut cfg: ServeConfig) -> TestServer {
    let sched = Arc::new(Scheduler::with_workers(Fleet::from_catalog(), 2));
    cfg.addr = "127.0.0.1:0".to_string();
    let server = Server::bind(cfg, sched).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    TestServer {
        addr,
        handle,
        thread,
    }
}

impl TestServer {
    fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread")
            .expect("clean drain");
    }
}

/// A line-oriented protocol client over a real TCP connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("write request");
        self.writer.flush().expect("flush request");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection unexpectedly");
        Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    fn round_trip(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric {key:?} in {v}"))
}

const RUN_A: &str =
    r#"{"id": 1, "dtype": "fp32", "dim": 48, "pattern": "zeros", "seeds": 1, "lattice": 4}"#;

#[test]
fn concurrent_clients_share_cache_and_get_distinct_sessions() {
    let server = spawn_server(ServeConfig::default());
    let mut a = Client::connect(&server.addr);
    let mut b = Client::connect(&server.addr);

    // A runs fresh; B repeats the same body under its own id and must be
    // served from the shared memo cache.
    let ra = a.round_trip(RUN_A);
    assert_eq!(ra.get("ok"), Some(&Json::Bool(true)), "{ra}");
    assert_eq!(ra.get("cache_hit"), Some(&Json::Bool(false)), "{ra}");
    let rb = b.round_trip(&RUN_A.replace("\"id\": 1", "\"id\": 2"));
    assert_eq!(rb.get("ok"), Some(&Json::Bool(true)), "{rb}");
    assert_eq!(
        rb.get("cache_hit"),
        Some(&Json::Bool(true)),
        "B must hit the cache A warmed: {rb}"
    );
    let (rid_a, rid_b) = (num(&ra, "request_id"), num(&rb, "request_id"));
    assert_ne!(rid_a, rid_b, "request ids stay distinct across sessions");

    // Each session sees its own id in the augmented stats, and both are
    // listed with their counters.
    let sa = a.round_trip(r#"{"op": "stats"}"#);
    let sb = b.round_trip(r#"{"op": "stats"}"#);
    let (sid_a, sid_b) = (num(&sa, "session"), num(&sb, "session"));
    assert_ne!(sid_a, sid_b, "two connections, two sessions");
    assert!(num(&sa, "sessions_active") >= 2.0, "{sa}");
    let listed = sa.get("sessions").and_then(Json::as_arr).expect("sessions");
    assert!(listed.len() >= 2);
    let b_entry = listed
        .iter()
        .find(|s| s.get("session").and_then(Json::as_f64) == Some(sid_b))
        .expect("B is listed in A's stats view");
    assert!(num(b_entry, "cache_hits") >= 1.0, "{b_entry}");

    // The span trail ties B's request id to B's session id. The session
    // span lands just after B's response line, so poll briefly.
    let mut detail = None;
    for _ in 0..100 {
        let trace = a.round_trip(&format!(r#"{{"op": "trace", "request_id": {rid_b}}}"#));
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        detail = spans
            .iter()
            .find(|s| s.get("stage").and_then(Json::as_str) == Some("session"))
            .and_then(|s| s.get("detail").and_then(Json::as_str))
            .map(str::to_string);
        if detail.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let detail = detail.unwrap_or_else(|| panic!("no session span for request {rid_b}"));
    assert!(
        detail.contains(&format!("session={sid_b}")),
        "span detail {detail:?} must name session {sid_b}"
    );
    server.stop();
}

/// The detail of request `rid`'s session span. The span lands just
/// after the response line, so poll briefly.
fn session_detail(c: &mut Client, rid: u64) -> String {
    for _ in 0..100 {
        let trace = c.round_trip(&format!(r#"{{"op": "trace", "request_id": {rid}}}"#));
        let detail = trace
            .get("spans")
            .and_then(Json::as_arr)
            .expect("spans")
            .iter()
            .find(|s| s.get("stage").and_then(Json::as_str) == Some("session"))
            .and_then(|s| s.get("detail").and_then(Json::as_str))
            .map(str::to_string);
        if let Some(detail) = detail {
            return detail;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("no session span for request {rid}");
}

#[test]
fn session_spans_name_the_bounded_op_label() {
    // A session span names a line's op as `wattd_request_latency_us`
    // labels it: a known op or `other`. The client's op text never lands
    // in the span, so a ring that caps its span count caps its bytes.
    let server = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&server.addr);
    let sid = num(&c.round_trip(r#"{"op": "stats"}"#), "session");
    let unknown = format!(r#"{{"op": "{}"}}"#, "x".repeat(64 * 1024));
    for (line, label) in [
        (unknown.as_str(), "other"),
        (r#"{"op": 5}"#, "other"),
        (r#"{"op": "ping"}"#, "ping"),
        ("not json", "parse_error"),
    ] {
        let rid = num(&c.round_trip(line), "request_id") as u64;
        assert_eq!(
            session_detail(&mut c, rid),
            format!("session={sid} op={label}"),
            "{}",
            &line[..line.len().min(40)]
        );
    }
    server.stop();
}

#[test]
fn streamed_batch_answers_one_line_per_round_in_order() {
    let server = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&server.addr);
    c.send(
        r#"{"op": "batch", "id": 9, "requests": [
            {"dtype": "fp32", "dim": 32, "pattern": "zeros", "seeds": 1, "lattice": 4},
            {"dtype": "fp32", "dim": 48, "pattern": "gaussian", "seeds": 1, "lattice": 4},
            {"dtype": "fp16-t", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4},
            {"dtype": "nope", "dim": 32, "pattern": "zeros"}
        ]}"#
        .replace('\n', " ")
        .as_str(),
    );
    let mut lines = Vec::new();
    loop {
        let line = c.recv();
        let last = line.get("last") == Some(&Json::Bool(true));
        lines.push(line);
        if last {
            break;
        }
    }
    assert!(
        lines.len() >= 2,
        "a streamed batch emits at least one packed round plus the remainder"
    );
    let rounds_total = num(&lines[0], "rounds");
    let mut seen_members = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(line.get("id"), Some(&Json::Num(9.0)), "{line}");
        assert_eq!(line.get("ok"), Some(&Json::Bool(true)), "{line}");
        assert_eq!(num(line, "rounds"), rounds_total, "{line}");
        let round = num(line, "round");
        let is_last = i + 1 == lines.len();
        if is_last {
            // The remainder (bypass set + unparseable members) closes the
            // stream as round 0.
            assert_eq!(round, 0.0, "{line}");
            assert_eq!(line.get("last"), Some(&Json::Bool(true)), "{line}");
        } else {
            assert_eq!(round, (i + 1) as f64, "packed rounds arrive in order");
            assert_ne!(line.get("last"), Some(&Json::Bool(true)), "{line}");
        }
        for r in line.get("results").and_then(Json::as_arr).expect("results") {
            seen_members.push(num(r, "index") as usize);
        }
    }
    seen_members.sort_unstable();
    assert_eq!(
        seen_members,
        vec![0, 1, 2, 3],
        "every member answered exactly once across the stream"
    );
    // The member with the unknown field failed parse but the rest ran.
    let last_line = lines.last().unwrap();
    let remainder = last_line.get("results").and_then(Json::as_arr).unwrap();
    assert!(
        remainder
            .iter()
            .any(|r| r.get("ok") == Some(&Json::Bool(false))),
        "the malformed member is reported in the remainder: {last_line}"
    );
    server.stop();
}

#[test]
fn drain_persists_predictor_and_warm_restart_answers_without_retraining() {
    let state_dir = std::env::temp_dir().join(format!("wm_serve_e2e_state_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let cfg = || ServeConfig {
        state_dir: Some(PathBuf::from(&state_dir)),
        ..ServeConfig::default()
    };

    // Train the predictor past its serving threshold over the network:
    // distinct pinned runs so every one is a fresh observation.
    let server = spawn_server(cfg());
    let mut c = Client::connect(&server.addr);
    for seed in 0..36u64 {
        let resp = c.round_trip(&format!(
            r#"{{"dtype": "fp32", "dim": 32, "pattern": "gaussian", "base_seed": {seed}, "seeds": 1, "lattice": 4, "gpu": "a100"}}"#
        ));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }
    let stats = c.round_trip(r#"{"op": "model_stats"}"#);
    let trained_obs = stats
        .get("models")
        .and_then(Json::as_arr)
        .expect("models")
        .iter()
        .map(|m| num(m, "observations"))
        .sum::<f64>();
    assert!(trained_obs >= 36.0, "{stats}");
    // The serve-layer `shutdown` op triggers the same drain as SIGTERM.
    let bye = c.round_trip(r#"{"op": "shutdown"}"#);
    assert_eq!(bye.get("draining"), Some(&Json::Bool(true)), "{bye}");
    server.thread.join().expect("server thread").expect("drain");
    assert!(
        state_dir.join("predictor.json").is_file(),
        "drain flushed predictor state"
    );

    // A brand-new scheduler + server on the same state dir answers
    // `predict` from the learned model with zero executions.
    let restarted = spawn_server(cfg());
    let mut c2 = Client::connect(&restarted.addr);
    let p = c2.round_trip(
        r#"{"op": "predict", "dtype": "fp32", "dim": 32, "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
    );
    assert_eq!(p.get("ok"), Some(&Json::Bool(true)), "{p}");
    assert_eq!(
        p.get("source").and_then(Json::as_str),
        Some("learned"),
        "warm start must serve the persisted model: {p}"
    );
    assert!(num(&p, "model_observations") >= 36.0, "{p}");
    let s = c2.round_trip(r#"{"op": "stats"}"#);
    assert_eq!(
        num(&s, "completed"),
        0.0,
        "no retraining executions happened after restart: {s}"
    );
    restarted.stop();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A `predictor.json` as an earlier build wrote it, at format `version`
/// over `width` features with the lifetime errors as 401 linear bin
/// counts: one A100 GEMM model, past its serving threshold, whose fit
/// prices every request at 100 W.
fn old_state(version: u64, width: usize) -> String {
    let n = 40.0;
    let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
    let model = obj(vec![
        ("arch", Json::Str(a100_pcie().name.to_string())),
        ("kernel", Json::Str("gemm".to_string())),
        ("observations", Json::Num(n)),
        (
            "xtx",
            nums(
                (0..width * width)
                    .map(|i| if i % (width + 1) == 0 { n } else { 0.0 })
                    .collect(),
            ),
        ),
        (
            "xty",
            nums(
                (0..width)
                    .map(|i| if i == 0 { 100.0 * n } else { 0.0 })
                    .collect(),
            ),
        ),
        ("lifetime_counts", nums(vec![0.0; 401])),
        ("window", nums(Vec::new())),
        ("degraded", Json::Bool(false)),
        ("drift_events", Json::Num(0.0)),
    ]);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_secs();
    obj(vec![
        ("version", Json::Num(version as f64)),
        ("feature_dim", Json::Num(width as f64)),
        ("saved_unix_s", Json::Num(now as f64)),
        ("min_observations", Json::Num(32.0)),
        ("models", Json::Arr(vec![model])),
    ])
    .to_string()
}

/// Write [`old_state`] into a fresh state directory, then check that the
/// server rejects it by its version and answers from the analytic model.
fn old_state_file_is_rejected_and_wattd_starts_cold(version: u64, width: usize) {
    let state_dir =
        std::env::temp_dir().join(format!("wm_serve_e2e_v{version}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir).expect("state dir");
    std::fs::write(state_dir.join("predictor.json"), old_state(version, width))
        .expect("write state");

    let sched = Arc::new(Scheduler::with_workers(Fleet::from_catalog(), 2));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: Some(PathBuf::from(&state_dir)),
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg, Arc::clone(&sched)).expect("bind loopback");
    match server.warm_start() {
        Some(Err(why)) => assert!(why.contains(&format!("state version {version}")), "{why}"),
        other => panic!("a version-{version} state file must be rejected, got {other:?}"),
    }
    assert_eq!(sched.registry().gauge("serve_warm_start", &[]).get(), 0.0);

    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let mut c = Client::connect(&addr);
    let p = c.round_trip(
        r#"{"op": "predict", "dtype": "fp32", "dim": 32, "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
    );
    assert_eq!(p.get("ok"), Some(&Json::Bool(true)), "{p}");
    assert_eq!(
        p.get("source").and_then(Json::as_str),
        Some("analytic"),
        "a rejected state file leaves the predictor cold: {p}"
    );
    handle.shutdown();
    thread.join().expect("server thread").expect("clean drain");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Version 1: the 17-feature build, byte and value entropy included.
#[test]
fn a_version_1_state_file_is_rejected_and_wattd_starts_cold() {
    old_state_file_is_rejected_and_wattd_starts_cold(1, 17);
}

/// Version 2: today's 15 features, but the lifetime errors in 401 linear
/// bins rather than log buckets.
#[test]
fn a_version_2_state_file_is_rejected_and_wattd_starts_cold() {
    old_state_file_is_rejected_and_wattd_starts_cold(2, 15);
}

#[test]
fn periodic_snapshots_flush_predictor_while_serving() {
    let state_dir =
        std::env::temp_dir().join(format!("wm_serve_e2e_snapshot_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = spawn_server(ServeConfig {
        state_dir: Some(PathBuf::from(&state_dir)),
        snapshot_secs: 1,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(&server.addr);
    let resp = c.round_trip(
        r#"{"dtype": "fp32", "dim": 32, "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
    );
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");

    // The snapshot file must appear while the server is still serving —
    // periodic flushing, not the drain-time flush. Poll up to 30s (the
    // interval is 1s; CI machines can be slow).
    let path = state_dir.join("predictor.json");
    let mut flushed = false;
    for _ in 0..600 {
        if path.is_file() {
            flushed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(flushed, "snapshot file never appeared while serving");
    // The server is demonstrably still up after the flush.
    let pong = c.round_trip(r#"{"op": "ping"}"#);
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{pong}");
    let metrics = c.round_trip(r#"{"op": "metrics", "format": "prometheus"}"#);
    let text = metrics
        .get("text")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    assert!(
        text.contains("serve_snapshots_total"),
        "snapshot counter must be exported: {text}"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn snapshot_secs_zero_explicitly_disables_periodic_snapshots() {
    // `--snapshot-secs 0` (ServeConfig { snapshot_secs: 0 }) is the
    // explicit disabled spelling: no timer thread, no periodic writes,
    // `serve_snapshots_total` never advances — but the drain-time flush
    // still runs.
    let state_dir =
        std::env::temp_dir().join(format!("wm_serve_e2e_nosnapshot_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = spawn_server(ServeConfig {
        state_dir: Some(PathBuf::from(&state_dir)),
        snapshot_secs: 0,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(&server.addr);
    let resp = c.round_trip(
        r#"{"dtype": "fp32", "dim": 32, "pattern": "gaussian", "seeds": 1, "lattice": 4, "gpu": "a100"}"#,
    );
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");

    // Give a buggy timer ample opportunity to fire (the smallest real
    // interval is 1s), then confirm nothing was written while serving.
    std::thread::sleep(Duration::from_millis(1500));
    let pong = c.round_trip(r#"{"op": "ping"}"#);
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{pong}");
    assert!(
        !state_dir.join("predictor.json").is_file(),
        "snapshot file must not appear while serving with snapshots disabled"
    );
    let metrics = c.round_trip(r#"{"op": "metrics", "format": "prometheus"}"#);
    let text = metrics
        .get("text")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    for counter in ["serve_snapshots_total", "serve_snapshot_errors_total"] {
        for line in text.lines().filter(|l| l.starts_with(counter)) {
            assert!(
                line.ends_with(" 0"),
                "{counter} advanced with snapshots disabled: {line}"
            );
        }
    }

    // Drain-only flushing is intact: stopping the server persists state.
    server.stop();
    assert!(
        state_dir.join("predictor.json").is_file(),
        "drain flush must still run with periodic snapshots disabled"
    );
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn oversized_and_malformed_lines_are_isolated_to_their_session() {
    let server = spawn_server(ServeConfig {
        max_line_bytes: 4096,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(&server.addr);

    // An oversized line: clean error naming the cap, session survives.
    let huge = format!(
        r#"{{"dtype": "fp32", "dim": 48, "junk": "{}"}}"#,
        "x".repeat(8192)
    );
    let resp = c.round_trip(&huge);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("4096")),
        "error names the byte cap: {resp}"
    );

    // Malformed JSON: clean error, session survives.
    let resp = c.round_trip("this is not json");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");

    // And the very same connection still serves real work.
    let resp = c.round_trip(RUN_A);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");

    // A concurrent well-behaved session never noticed.
    let mut other = Client::connect(&server.addr);
    let resp = other.round_trip(&RUN_A.replace("\"id\": 1", "\"id\": 7"));
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    server.stop();
}

#[test]
fn deeply_nested_lines_answer_an_error_and_the_session_survives() {
    // The JSON parser recurses once per level: unbounded, one line of
    // `[` overflows the session thread's stack and aborts the daemon.
    let server = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&server.addr);
    let resp = c.round_trip(&"[".repeat(20_000));
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
    assert!(
        resp.get("request_id").and_then(Json::as_u64).is_some(),
        "{resp}"
    );
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("nesting")),
        "{resp}"
    );
    let pong = c.round_trip(r#"{"op": "ping"}"#);
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{pong}");
    server.stop();
}

#[test]
fn the_active_session_gauge_follows_the_live_sessions() {
    let server = spawn_server(ServeConfig::default());
    let mut a = Client::connect(&server.addr);
    let mut b = Client::connect(&server.addr);
    // A full round-trip guarantees the accept loop registered each.
    for c in [&mut a, &mut b] {
        let pong = c.round_trip(r#"{"op": "ping"}"#);
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{pong}");
    }
    drop(b);
    // The server notices the close within a read-timeout tick.
    let mut polls = 0;
    loop {
        let stats = a.round_trip(r#"{"op": "stats"}"#);
        if num(&stats, "sessions_active") == 1.0 {
            break;
        }
        polls += 1;
        assert!(polls < 500, "session B never closed: {stats}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let metrics = a.round_trip(r#"{"op": "metrics"}"#);
    let gauge = metrics
        .get("metrics")
        .and_then(Json::as_arr)
        .and_then(|all| {
            all.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("serve_sessions_active"))
        })
        .unwrap_or_else(|| panic!("no serve_sessions_active in {metrics}"));
    assert_eq!(num(gauge, "value"), 1.0, "{gauge}");
    server.stop();
}

#[test]
fn abrupt_disconnect_mid_batch_does_not_wedge_the_server() {
    let server = spawn_server(ServeConfig::default());
    {
        let mut doomed = Client::connect(&server.addr);
        doomed.send(
            r#"{"op": "batch", "id": 1, "requests": [
                {"dtype": "fp32", "dim": 64, "pattern": "gaussian", "seeds": 1, "lattice": 4},
                {"dtype": "fp32", "dim": 80, "pattern": "gaussian", "seeds": 1, "lattice": 4},
                {"dtype": "fp32", "dim": 96, "pattern": "gaussian", "seeds": 1, "lattice": 4}
            ]}"#
            .replace('\n', " ")
            .as_str(),
        );
        // Drop both halves without reading a single response line.
    }
    // The scheduler keeps serving other sessions afterwards.
    let mut c = Client::connect(&server.addr);
    let resp = c.round_trip(RUN_A);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    let stats = c.round_trip(r#"{"op": "stats"}"#);
    assert!(num(&stats, "completed") >= 1.0, "{stats}");
    server.stop();
}

#[test]
fn admission_and_inflight_caps_reject_with_busy_errors() {
    let server = spawn_server(ServeConfig {
        max_sessions: 1,
        max_inflight: 2,
        ..ServeConfig::default()
    });
    let mut admitted = Client::connect(&server.addr);
    // A full round-trip guarantees the accept loop registered us.
    let resp = admitted.round_trip(RUN_A);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");

    // The second session is over the cap: one busy line, then closed.
    let mut rejected = Client::connect(&server.addr);
    let resp = rejected.recv();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
    assert_eq!(resp.get("busy"), Some(&Json::Bool(true)), "{resp}");

    // A batch above the per-session in-flight cap: busy error, session
    // survives and keeps serving.
    let resp = admitted.round_trip(
        r#"{"op": "batch", "id": 3, "requests": [
            {"dtype": "fp32", "dim": 32, "pattern": "zeros", "seeds": 1, "lattice": 4},
            {"dtype": "fp32", "dim": 48, "pattern": "zeros", "seeds": 1, "lattice": 4},
            {"dtype": "fp32", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4}
        ]}"#
        .replace('\n', " ")
        .as_str(),
    );
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
    assert_eq!(resp.get("busy"), Some(&Json::Bool(true)), "{resp}");
    let resp = admitted.round_trip(RUN_A);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    // The admission counts are the registry's session counters.
    let stats = admitted.round_trip(r#"{"op": "stats"}"#);
    assert_eq!(num(&stats, "sessions_started"), 1.0, "{stats}");
    assert_eq!(num(&stats, "sessions_rejected"), 1.0, "{stats}");
    let sessions = server.handle.sessions();
    assert_eq!(sessions.len(), 1, "only the admitted session is live");
    assert!(sessions[0].requests >= 3, "{sessions:?}");
    server.stop();
}

#[test]
fn pipelined_session_answers_every_line_once_in_send_order() {
    let server = spawn_server(ServeConfig::default());
    let mut c = Client::connect(&server.addr);
    let run = |id: u64, body: &str| format!(r#"{{"id": {id}, {body}, "seeds": 1, "lattice": 4}}"#);
    let square = r#""dtype": "fp32", "dim": 32, "pattern": "zeros""#;
    let lines = [
        run(1, square),
        run(
            2,
            r#""dtype": "fp16-t", "n": 48, "m": 32, "k": 64, "pattern": "gaussian""#,
        ),
        run(
            3,
            r#""dtype": "fp32", "kernel": "gemv", "n": 64, "k": 48, "pattern": "sparse", "sparsity": 0.9"#,
        ),
        run(4, square),
        run(
            5,
            r#""op": "predict", "dtype": "fp32", "dim": 64, "pattern": "gaussian""#,
        ),
        r#"{"op": "batch", "id": 6, "requests": [
            {"dtype": "fp32", "dim": 32, "pattern": "gaussian", "seeds": 1, "lattice": 4},
            {"dtype": "fp32", "dim": 48, "pattern": "zeros", "seeds": 1, "lattice": 4},
            {"dtype": "fp16-t", "dim": 64, "pattern": "zeros", "seeds": 1, "lattice": 4}
        ]}"#
        .replace('\n', " "),
        r#"{"id": 7, "op": "stats"}"#.to_string(),
        r#"{"id": 8, "op": "ping"}"#.to_string(),
        run(
            9,
            r#""dtype": "fp32", "group": [{"n": 32, "m": 32, "k": 48}, {"n": 64, "m": 48, "k": 64}], "pattern": "zeros""#,
        ),
        r#"{"id": 10, "op": "ping"}"#.to_string(),
    ];
    // Every line goes out before any answer is read.
    for line in &lines {
        writeln!(c.writer, "{line}").expect("write request");
    }
    c.writer.flush().expect("flush requests");

    let mut request_ids = std::collections::HashSet::new();
    for id in 1..=lines.len() as u64 {
        let first = c.recv();
        assert_eq!(
            num(&first, "id"),
            id as f64,
            "answered out of send order: {first}"
        );
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first}");
        let rid = num(&first, "request_id");
        assert!(request_ids.insert(rid as u64), "request id {rid} reused");
        match id {
            1 => assert_eq!(first.get("cache_hit"), Some(&Json::Bool(false)), "{first}"),
            4 => assert_eq!(
                first.get("cache_hit"),
                Some(&Json::Bool(true)),
                "the repeat of line 1 is served from the cache: {first}"
            ),
            6 => {
                // The streamed batch: its round lines share the batch's id
                // and request id, and the stream closes with `"last": true`.
                let mut members = Vec::new();
                let mut line = first;
                loop {
                    assert_eq!(num(&line, "id"), 6.0, "{line}");
                    assert_eq!(line.get("ok"), Some(&Json::Bool(true)), "{line}");
                    assert_eq!(num(&line, "request_id"), rid, "{line}");
                    for r in line.get("results").and_then(Json::as_arr).expect("results") {
                        members.push(num(r, "index") as usize);
                    }
                    if line.get("last") == Some(&Json::Bool(true)) {
                        break;
                    }
                    line = c.recv();
                }
                members.sort_unstable();
                assert_eq!(members, vec![0, 1, 2], "every member answered once");
            }
            _ => {}
        }
    }
    // Nothing is left over: the next answer on the session is the next line's.
    let pong = c.round_trip(r#"{"id": 11, "op": "ping"}"#);
    assert_eq!(num(&pong, "id"), 11.0, "{pong}");
    server.stop();
}
