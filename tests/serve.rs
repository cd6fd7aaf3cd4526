//! Integration tests for the serve layer: coalescing, backlog shedding,
//! model hot-swap, and drain-under-load. The server runs in-process on a
//! kernel-assigned port; the tests speak the real wire protocols (NDJSON
//! and the HTTP shim) over real sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use rzen_engine::QueryBackend;
use rzen_obs::json::{parse, Value};
use rzen_serve::{start, Model, ServerConfig};

const FIG3: &str = include_str!("../specs/fig3.net");
const REACH: &str = "{\"op\":\"reach\",\"src\":\"u1:1\",\"dst\":\"u3:2\"}";

fn cfg(jobs: usize, backlog: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        backlog,
        timeout: Some(Duration::from_secs(30)),
        sessions: false,
        backend: QueryBackend::Portfolio,
        handle_signals: false,
        debug_ops: true,
        shards: 0,
        idle_timeout: None,
        ..ServerConfig::default()
    }
}

/// One-shot NDJSON request: connect, send one line, read one line.
fn request(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("response");
    resp.trim().to_string()
}

/// Raw HTTP exchange on the same port; returns (status line, body).
fn http(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("http response");
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn http_post_model(addr: SocketAddr, spec: &str) -> (String, String) {
    http(
        addr,
        &format!(
            "POST /model HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{spec}",
            spec.len()
        ),
    )
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key)
        .unwrap_or_else(|| panic!("response missing {key:?}: {v:?}"))
}

#[test]
fn identical_concurrent_queries_coalesce_onto_one_execution() {
    let handle = start(cfg(1, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // Occupy the single worker so the N identical queries below are all
    // concurrent: the first to admit leads (and queues), the rest join.
    let blocker = thread::spawn(move || request(addr, "{\"op\":\"sleep\",\"ms\":800}"));
    thread::sleep(Duration::from_millis(150));

    let n = 6;
    let clients: Vec<_> = (0..n)
        .map(|_| thread::spawn(move || request(addr, REACH)))
        .collect();
    let responses: Vec<Value> = clients
        .into_iter()
        .map(|c| parse(&c.join().unwrap()).expect("valid json"))
        .collect();
    blocker.join().unwrap();

    // One leader actually executed; everyone else rode its verdict.
    let coalesced = responses
        .iter()
        .filter(|r| field(r, "coalesced").as_bool() == Some(true))
        .count();
    assert_eq!(coalesced, n - 1, "exactly one leader per identical burst");
    for r in &responses {
        assert_eq!(field(r, "verdict").as_str(), Some("sat"));
        assert_eq!(
            field(r, "witness").as_str(),
            field(&responses[0], "witness").as_str(),
            "every waiter must receive the *same* fanned-out verdict"
        );
        // Nobody was served by the result cache: the burst was in flight
        // together, which is exactly what the cache cannot cover.
        assert_eq!(field(r, "cache_hit").as_bool(), Some(false));
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn connection_churn_does_not_accumulate_tracked_sockets() {
    let handle = start(cfg(1, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // Every request and health scrape below opens and closes its own
    // connection — exactly the churn a monitoring stack produces. The
    // server must drop each connection's drain-tracking entry (and with
    // it the duplicated file descriptor) when the client goes away, or a
    // long-lived process runs out of fds.
    for _ in 0..20 {
        request(addr, REACH);
        let (status, _) = http_get(addr, "/healthz");
        assert!(status.contains("200"));
    }

    // Removal happens when the server notices EOF, which can trail the
    // client's close slightly; poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.open_conns() > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        handle.open_conns(),
        0,
        "closed connections must be untracked, not leaked until shutdown"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn joiner_respects_its_own_deadline_not_the_leaders() {
    let handle = start(cfg(1, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // Occupy the single worker, then queue a leader with the default
    // (long) budget. While the leader waits for the worker, a joiner
    // arrives carrying a 100ms budget of its own.
    let blocker = thread::spawn(move || request(addr, "{\"op\":\"sleep\",\"ms\":900}"));
    thread::sleep(Duration::from_millis(150));
    let leader = thread::spawn(move || request(addr, REACH));
    thread::sleep(Duration::from_millis(150));

    let started = Instant::now();
    let resp = parse(&request(
        addr,
        "{\"id\":3,\"op\":\"reach\",\"src\":\"u1:1\",\"dst\":\"u3:2\",\"timeout_ms\":100}",
    ))
    .unwrap();
    assert_eq!(
        field(&resp, "verdict").as_str(),
        Some("timeout"),
        "a short-budget joiner must degrade to its own timeout"
    );
    assert_eq!(field(&resp, "coalesced").as_bool(), Some(true));
    assert!(
        started.elapsed() < Duration::from_millis(600),
        "the joiner must not wait out the leader's budget"
    );

    // The leader is unaffected by the joiner giving up.
    let leader_resp = parse(&leader.join().unwrap()).unwrap();
    assert_eq!(field(&leader_resp, "verdict").as_str(), Some("sat"));
    blocker.join().unwrap();

    handle.shutdown();
    handle.join();
}

#[test]
fn head_requests_get_headers_without_a_body() {
    let handle = start(cfg(1, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    for path in ["/healthz", "/metrics"] {
        let (status, body) = http(
            addr,
            &format!("HEAD {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
        );
        assert!(status.contains("200"), "HEAD {path}: {status}");
        assert!(
            body.is_empty(),
            "HEAD {path} must not carry a body: {body:?}"
        );
    }
    // The advertised Content-Length is the length GET's body would have.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(b"HEAD /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let advertised: usize = raw
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .expect("HEAD response carries Content-Length")
        .trim()
        .parse()
        .unwrap();
    let (_, get_body) = http_get(addr, "/healthz");
    assert_eq!(advertised, get_body.len());

    handle.shutdown();
    handle.join();
}

#[test]
fn full_backlog_sheds_with_explicit_overloaded() {
    // One worker, zero backlog: anything arriving while the worker is
    // busy must be shed immediately, never queued or hung.
    let handle = start(cfg(1, 0), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    let blocker = thread::spawn(move || request(addr, "{\"id\":1,\"op\":\"sleep\",\"ms\":900}"));
    thread::sleep(Duration::from_millis(150));

    let started = Instant::now();
    let resp = parse(&request(addr, "{\"id\":9,\"op\":\"sleep\",\"ms\":1}")).unwrap();
    assert_eq!(field(&resp, "error").as_str(), Some("overloaded"));
    assert_eq!(field(&resp, "id").as_u64(), Some(9), "id echoed on shed");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "shedding must be immediate, not queued behind the busy worker"
    );

    let first = parse(&blocker.join().unwrap()).unwrap();
    assert_eq!(
        field(&first, "op").as_str(),
        Some("sleep"),
        "the admitted request still completes normally"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn identical_queries_behind_a_shed_leader_are_shed_not_stranded() {
    // One shard, zero backlog, shard busy: the first of two identical
    // pipelined queries would lead a coalesce group, but it is shed. The
    // second must not be parked behind a leader that will never run.
    let handle = start(cfg(1, 0), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    let blocker = thread::spawn(move || request(addr, "{\"op\":\"sleep\",\"ms\":700}"));
    thread::sleep(Duration::from_millis(150));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let started = Instant::now();
    stream
        .write_all(format!("{REACH}\n{REACH}\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream);
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = parse(line.trim()).unwrap();
        assert_eq!(field(&resp, "error").as_str(), Some("overloaded"));
    }
    assert!(
        started.elapsed() < Duration::from_millis(400),
        "both are shed at once, neither waits for the busy shard"
    );
    blocker.join().unwrap();

    // No group was left behind: the same query now leads and is solved.
    let after = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&after, "verdict").as_str(), Some("sat"));
    assert_eq!(field(&after, "coalesced").as_bool(), Some(false));

    handle.shutdown();
    handle.join();
}

#[test]
fn model_hot_swap_is_atomic_and_correct() {
    let handle = start(cfg(1, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // Warm the server with a different query, so the REACH admitted
    // below misses the cache and waits in the shard's ring across the
    // swap (a hit would be answered by the reactor at admission).
    let drops = "{\"op\":\"drops\",\"src\":\"u1:1\",\"dst\":\"u3:2\"}";
    let before = parse(&request(addr, drops)).unwrap();
    assert_eq!(field(&before, "cache_hit").as_bool(), Some(false));
    let (_, health_before) = http_get(addr, "/healthz");
    let fp_before = field(&parse(&health_before).unwrap(), "model")
        .as_str()
        .unwrap()
        .to_string();

    // A same-shape network whose u2 ingress ACL denies everything: the
    // same reach query must flip to unsat under the new model.
    let blocked = FIG3.replace("acl-in deny-dport 5000 6000", "acl-in deny");
    assert_ne!(blocked, FIG3);

    // Occupy the worker, then admit a query against the *old* model; it
    // sits queued while the model is swapped underneath it.
    let blocker = thread::spawn(move || request(addr, "{\"op\":\"sleep\",\"ms\":800}"));
    thread::sleep(Duration::from_millis(150));
    let old_model_client = thread::spawn(move || request(addr, REACH));
    thread::sleep(Duration::from_millis(150));

    let (status, body) = http_post_model(addr, &blocked);
    assert!(status.contains("200"), "swap rejected: {status} {body}");

    // The in-flight request captured its model at admission: it must
    // answer with the old model's verdict even though it executed after
    // the swap.
    let old_resp = parse(&old_model_client.join().unwrap()).unwrap();
    assert_eq!(
        field(&old_resp, "verdict").as_str(),
        Some("sat"),
        "in-flight requests finish against the model they were admitted under"
    );
    assert_eq!(
        field(&old_resp, "cache_hit").as_bool(),
        Some(false),
        "the queued request was solved by the shard, after the swap"
    );
    blocker.join().unwrap();

    // Fresh requests see the new model (and don't hit stale cache).
    let after = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&after, "verdict").as_str(), Some("unsat"));
    assert_eq!(field(&after, "cache_hit").as_bool(), Some(false));

    let (_, health_after) = http_get(addr, "/healthz");
    let fp_after = field(&parse(&health_after).unwrap(), "model")
        .as_str()
        .unwrap()
        .to_string();
    assert_ne!(fp_before, fp_after, "healthz reports the new fingerprint");

    // A malformed spec must be rejected without disturbing the model.
    let (status, _) = http_post_model(addr, "device u1\n  intf nonsense\n");
    assert!(status.contains("400"));
    let again = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&again, "verdict").as_str(), Some("unsat"));

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_drains_inflight_work_before_exiting() {
    let handle = start(cfg(1, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    let started = Instant::now();
    let client = thread::spawn(move || request(addr, "{\"id\":5,\"op\":\"sleep\",\"ms\":700}"));
    thread::sleep(Duration::from_millis(150));

    handle.shutdown();
    // The in-flight request is answered, not dropped, even though the
    // shutdown arrived long before it finished.
    let resp = parse(&client.join().unwrap()).unwrap();
    assert_eq!(field(&resp, "op").as_str(), Some("sleep"));
    assert_eq!(field(&resp, "id").as_u64(), Some(5));
    assert!(
        started.elapsed() >= Duration::from_millis(650),
        "the drain must wait for the request, not cut it short"
    );

    // join() returns once every thread retired; afterwards the port is
    // closed for good.
    handle.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be gone after join"
    );
}

#[test]
fn requests_during_drain_are_answered_shutting_down() {
    let handle = start(cfg(1, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // Hold the worker with the first request, land the shutdown
    // mid-flight, then send a second request on the same connection: it
    // must be answered with an explicit refusal rather than silence.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(b"{\"id\":1,\"op\":\"sleep\",\"ms\":600}\n")
        .unwrap();
    thread::sleep(Duration::from_millis(150));
    handle.shutdown();
    thread::sleep(Duration::from_millis(100));
    let _ = stream.write_all(b"{\"id\":2,\"op\":\"sleep\",\"ms\":1}\n");

    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    let first = parse(first.trim()).unwrap();
    assert_eq!(field(&first, "id").as_u64(), Some(1));
    assert_eq!(field(&first, "op").as_str(), Some("sleep"));

    let mut second = String::new();
    // The second line races the socket teardown: a clean refusal and an
    // EOF are both acceptable, a hang or a dropped *in-flight* job is not.
    if reader.read_line(&mut second).is_ok() && !second.trim().is_empty() {
        let second = parse(second.trim()).unwrap();
        assert_eq!(field(&second, "error").as_str(), Some("shutting_down"));
    }
    handle.join();
}

#[test]
fn flight_recorder_follows_a_request_end_to_end() {
    let handle = start(cfg(2, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // A few fast queries, then one deliberately slow request.
    let slow_ms: u64 = 170;
    let mut reach_req = 0;
    for _ in 0..3 {
        let r = parse(&request(addr, REACH)).unwrap();
        reach_req = field(&r, "req").as_u64().unwrap();
    }
    let slow = parse(&request(
        addr,
        &format!("{{\"op\":\"sleep\",\"ms\":{slow_ms}}}"),
    ))
    .unwrap();
    let slow_req = field(&slow, "req")
        .as_u64()
        .expect("responses carry the server-minted request id");
    assert!(slow_req > 0, "request ids start at 1");

    // The id from the response line finds the same request in the ring.
    let (status, body) = http_get(addr, "/debug/requests");
    assert!(status.contains("200"), "{status}");
    let records = match parse(&body).expect("valid JSON") {
        Value::Arr(records) => records,
        other => panic!("/debug/requests must be a JSON array: {other:?}"),
    };
    let rec = records
        .iter()
        .find(|r| field(r, "req").as_u64() == Some(slow_req))
        .expect("the slow request is in the flight ring");
    assert_eq!(field(rec, "op").as_str(), Some("sleep"));
    assert_eq!(field(rec, "verdict").as_str(), Some("ok"));
    assert!(field(rec, "latency_us").as_u64().unwrap() >= slow_ms * 1000);
    // Look the reach query up by its own request id: the flight ring is
    // process-global, so "any reach record" could belong to another test.
    let reach = records
        .iter()
        .find(|r| field(r, "req").as_u64() == Some(reach_req))
        .expect("reach queries are recorded too");
    assert_eq!(field(reach, "src").as_str(), Some("u1:1"));
    assert_eq!(field(reach, "dst").as_str(), Some("u3:2"));
    assert_eq!(field(reach, "verdict").as_str(), Some("sat"));

    // The slow table holds the sleep, slowest first. It need not lead:
    // the table is process-global and concurrent tests sleep too.
    let (status, body) = http_get(addr, "/debug/slow");
    assert!(status.contains("200"), "{status}");
    let Value::Arr(slow_records) = parse(&body).expect("valid JSON") else {
        panic!("/debug/slow must be a JSON array");
    };
    assert!(
        slow_records
            .iter()
            .any(|r| field(r, "req").as_u64() == Some(slow_req)),
        "the slow request must be in the slow table: {body}"
    );
    let latencies: Vec<u64> = slow_records
        .iter()
        .map(|r| field(r, "latency_us").as_u64().unwrap())
        .collect();
    assert!(
        latencies.windows(2).all(|w| w[0] >= w[1]),
        "the slow table must be ordered slowest first: {body}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn debug_trace_capture_carries_request_ids_through_the_stack() {
    let handle = start(cfg(2, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // Keep queries flowing while the capture window is open, and make
    // every one a result-cache miss that reaches `engine.backend`,
    // whenever the window happens to open: each iteration first flips
    // the transit hop's ACL between `deny` and `permit`, which refutes
    // the cached answer either way — `deny` drops the SAT witness, and
    // an UNSAT entry in the delta's cone is never kept.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let driver = {
        let stop = stop.clone();
        thread::spawn(move || {
            for acl in ["deny", "permit"].into_iter().cycle() {
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                let delta = format!(
                    "{{\"op\":\"set-acl\",\"device\":\"u2\",\"intf\":1,\"dir\":\"in\",\"acl\":\"{acl}\"}}"
                );
                let (status, body) = http(
                    addr,
                    &format!(
                        "POST /delta HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{delta}",
                        delta.len()
                    ),
                );
                assert!(status.contains("200"), "{status} {body}");
                let resp = parse(&request(addr, REACH)).unwrap();
                assert_eq!(field(&resp, "cache_hit").as_bool(), Some(false));
            }
        })
    };

    let (status, body) = http_get(addr, "/debug/trace?ms=400");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    driver.join().unwrap();
    assert!(status.contains("200"), "{status}");
    rzen_obs::json::validate(&body).expect("/debug/trace must return valid JSON");

    // The capture shows the request id at every layer: the serve span,
    // the engine worker span, and the backend solve span.
    for span in ["serve.request", "engine.query", "engine.backend"] {
        assert!(
            body.contains(&format!("\"name\":\"{span}\"")),
            "trace capture missing {span} spans:\n{body}"
        );
    }
    assert!(
        body.contains("\"req\":"),
        "trace spans must carry the request id as an argument"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn debug_trace_window_is_validated_and_clamped() {
    let handle = start(cfg(1, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // Malformed windows are a client error, not a silent default.
    for bad in ["/debug/trace?ms=abc", "/debug/trace?ms=-5"] {
        let (status, body) = http_get(addr, bad);
        assert!(status.contains("400"), "{bad} -> {status}");
        assert!(
            body.contains("non-negative integer"),
            "the 400 names the problem: {body}"
        );
    }

    // The degenerate zero-length window is valid: an immediate, likely
    // empty capture, not an error. (The 10 s upper clamp is asserted at
    // the unit level in the serve crate — holding a connection open for
    // 10 s here would dominate the suite's runtime.)
    let (status, body) = http_get(addr, "/debug/trace?ms=0");
    assert!(status.contains("200"), "{status}");
    rzen_obs::json::validate(&body).expect("ms=0 returns valid (likely empty) JSON");

    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_http_headers_are_answered_with_431() {
    let handle = start(cfg(1, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // 16 KiB of header lines: double the server's budget.
    let mut req = String::from("GET /healthz HTTP/1.1\r\nHost: test\r\n");
    for i in 0..128 {
        req.push_str(&format!("X-Padding-{i}: {}\r\n", "x".repeat(120)));
    }
    req.push_str("Connection: close\r\n\r\n");
    let (status, body) = http(addr, &req);
    assert!(
        status.contains("431"),
        "oversized headers must get 431, got {status:?}"
    );
    assert!(body.contains("header fields too large"), "{body}");

    // A normal request on a fresh connection still works.
    let (status, _) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");

    handle.shutdown();
    handle.join();
}

#[test]
fn serve_errors_are_counted_by_kind_in_prometheus_metrics() {
    // One worker, zero backlog: easy to provoke `overloaded`.
    let handle = start(cfg(1, 0), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    let blocker = thread::spawn(move || request(addr, "{\"op\":\"sleep\",\"ms\":700}"));
    thread::sleep(Duration::from_millis(150));
    let shed = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&shed, "error").as_str(), Some("overloaded"));
    // An endpoint that does not resolve, and a line that does not parse.
    let unresolved = parse(&request(
        addr,
        "{\"op\":\"reach\",\"src\":\"nope:1\",\"dst\":\"u3:2\"}",
    ))
    .unwrap();
    assert!(field(&unresolved, "error").as_str().is_some());
    for line in [
        "{\"op\":\"hsa\",\"src\":\"u1:1\",\"dst\":\"nope:2\"}",
        "{\"op\":\"paths\",\"src\":\"u1:99\",\"dst\":\"u3:2\"}",
    ] {
        // Answered at admission, not shed behind the busy shard.
        let unresolved = parse(&request(addr, line)).unwrap();
        let error = field(&unresolved, "error").as_str();
        assert!(
            error.is_some_and(|e| e != "overloaded"),
            "{line}: {error:?}"
        );
    }
    let bad = parse(&request(addr, "{\"op\":\"warp\"}")).unwrap();
    assert!(field(&bad, "error").as_str().is_some());
    blocker.join().unwrap();

    let (_, metrics) = http_get(addr, "/metrics");
    for series in [
        "serve_errors_total{kind=\"overloaded\"}",
        "serve_errors_total{kind=\"resolve_failed\"}",
        "serve_errors_total{kind=\"bad_request\"}",
    ] {
        assert!(metrics.contains(series), "/metrics missing {series}");
    }
    // The exposition speaks Prometheus: typed families, histogram
    // buckets cumulative up to +Inf.
    assert!(metrics.contains("# TYPE serve_requests_total counter"));
    assert!(metrics.contains("# TYPE serve_request_us histogram"));
    assert!(metrics.contains("serve_request_us_bucket{le=\"+Inf\"}"));

    handle.shutdown();
    handle.join();
}

// ------------------------------------------------- slow-client torture --

#[test]
fn slow_clients_cannot_wedge_a_worker_or_corrupt_framing() {
    let handle = start(cfg(2, 16), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // NDJSON plane, dripped: the request arrives one byte at a time with
    // a long stall mid-frame. The server must hold the partial frame
    // without wedging anything.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_nodelay(true).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let line = format!("{REACH}\n");
    let bytes = line.as_bytes();
    let half = bytes.len() / 2;
    for &b in &bytes[..half] {
        slow.write_all(&[b]).unwrap();
    }
    thread::sleep(Duration::from_millis(300));

    // While the slow client is mid-stall, other clients are served: a
    // half-written frame must never hold a worker hostage.
    let quick = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&quick, "verdict").as_str(), Some("sat"));

    for &b in &bytes[half..] {
        slow.write_all(&[b]).unwrap();
        thread::sleep(Duration::from_millis(1));
    }
    // Read the response back one byte at a time.
    let mut raw = Vec::new();
    let mut one = [0u8; 1];
    loop {
        match slow.read(&mut one) {
            Ok(0) => break,
            Ok(_) => {
                raw.push(one[0]);
                if one[0] == b'\n' {
                    break;
                }
            }
            Err(e) => panic!("slow read failed: {e}"),
        }
    }
    let resp = parse(String::from_utf8(raw).unwrap().trim()).unwrap();
    assert_eq!(
        field(&resp, "verdict").as_str(),
        Some("sat"),
        "a dribbled request must parse to exactly the same verdict"
    );
    drop(slow);

    // HTTP plane, dripped: single-byte writes with a mid-header stall.
    let req = "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    let mut h = TcpStream::connect(addr).unwrap();
    h.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    for (i, &b) in req.as_bytes().iter().enumerate() {
        h.write_all(&[b]).unwrap();
        if i == 25 {
            thread::sleep(Duration::from_millis(250));
        }
    }
    let mut raw = String::new();
    h.read_to_string(&mut raw).unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 200"),
        "dribbled HTTP request must still be answered: {raw:?}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn pipelined_responses_keep_request_order_under_single_byte_reads() {
    let handle = start(cfg(2, 32), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // Eight pipelined requests whose execution times *decrease*: in the
    // reactor, later requests finish first, and the per-connection
    // sequencing must still deliver responses in request order.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let n = 8u64;
    let mut batch = String::new();
    for i in 1..=n {
        batch.push_str(&format!(
            "{{\"id\":{i},\"op\":\"sleep\",\"ms\":{}}}\n",
            (n - i + 1) * 10
        ));
    }
    stream.write_all(batch.as_bytes()).unwrap();

    // Read every response one byte at a time: framing must survive the
    // worst consumer.
    let mut raw = Vec::new();
    let mut newlines = 0;
    let mut one = [0u8; 1];
    while newlines < n {
        match stream.read(&mut one) {
            Ok(0) => break,
            Ok(_) => {
                raw.push(one[0]);
                if one[0] == b'\n' {
                    newlines += 1;
                }
            }
            Err(e) => panic!("read failed after {newlines} responses: {e}"),
        }
    }
    let raw = String::from_utf8(raw).unwrap();
    let ids: Vec<u64> = raw
        .lines()
        .map(|l| {
            field(&parse(l.trim()).expect("each line is intact JSON"), "id")
                .as_u64()
                .expect("each response echoes its id")
        })
        .collect();
    assert_eq!(
        ids,
        (1..=n).collect::<Vec<_>>(),
        "responses must come back in request order, uncorrupted"
    );

    handle.shutdown();
    handle.join();
}

// ---------------------------------------------------------- idle reaping --

#[test]
fn idle_connections_are_reaped_after_the_timeout() {
    let mut c = cfg(1, 16);
    c.idle_timeout = Some(Duration::from_millis(200));
    let handle = start(c, Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // A connection that sends nothing is closed by the server once the
    // idle window passes.
    let mut silent = TcpStream::connect(addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut one = [0u8; 1];
    match silent.read(&mut one) {
        Ok(0) => {}
        other => panic!("expected server-side close of an idle connection, got {other:?}"),
    }
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "the connection must live through (most of) the idle window"
    );
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "reaping must happen near the timeout, not at shutdown"
    );

    // An active connection is not reaped mid-request.
    let resp = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&resp, "verdict").as_str(), Some("sat"));

    let (_, metrics) = http_get(addr, "/metrics");
    assert!(
        metrics.contains("serve_idle_reaped_total"),
        "/metrics must count reaped connections:\n{metrics}"
    );

    handle.shutdown();
    handle.join();
}

// ------------------------------------------------- loop observability --

#[test]
fn metrics_expose_loop_and_shard_series() {
    let mut c = cfg(2, 16);
    c.shards = 2;
    let handle = start(c, Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    // The first reach is solved by a shard; the repeats are cache hits,
    // answered by the reactor.
    let reqs: Vec<u64> = (0..3)
        .map(|_| {
            let r = parse(&request(addr, REACH)).unwrap();
            field(&r, "req").as_u64().unwrap()
        })
        .collect();
    let (_, metrics) = http_get(addr, "/metrics");
    for series in [
        "loop_wakeups_total",
        "serve_open_connections",
        "serve_shard_queue_depth{shard=\"0\"}",
        "serve_shard_queue_depth{shard=\"1\"}",
    ] {
        assert!(
            metrics.contains(series),
            "/metrics missing {series}:\n{metrics}"
        );
    }

    // Flight records carry the shard that solved each query; a hit the
    // reactor answered has none (-1).
    let (_, body) = http_get(addr, "/debug/requests");
    let Value::Arr(records) = parse(&body).unwrap() else {
        panic!("/debug/requests must be a JSON array");
    };
    let record = |req: u64| {
        records
            .iter()
            .find(|r| field(r, "req").as_u64() == Some(req))
            .expect("reach queries are recorded")
    };
    let cold = record(reqs[0]);
    let shard = field(cold, "shard").as_u64().expect("sharded record");
    assert!(shard < 2, "shard id must be one of the two shards: {shard}");
    let hit = record(reqs[2]);
    assert_eq!(field(hit, "cache_hit").as_bool(), Some(true), "{hit:?}");
    assert!(
        matches!(field(hit, "shard"), Value::Num(n) if *n == -1.0),
        "a hit answered by the reactor has no shard: {hit:?}"
    );

    handle.shutdown();
    handle.join();
}

// ------------------------------------------------ reactor cache hits --

/// Warm the cache with one solved `REACH`, then hold the only shard with
/// a 1 s sleep: returns the server and the sleeping client.
fn warm_then_hold_the_shard(
    backlog: usize,
) -> (rzen_serve::ServerHandle, thread::JoinHandle<String>) {
    let handle = start(cfg(1, backlog), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();
    let cold = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&cold, "cache_hit").as_bool(), Some(false));
    let blocker = thread::spawn(move || request(addr, "{\"op\":\"sleep\",\"ms\":1000}"));
    // Let the sleep be admitted before the caller's next request.
    thread::sleep(Duration::from_millis(150));
    (handle, blocker)
}

#[test]
fn a_cache_hit_does_not_wait_behind_a_busy_shard() {
    let (handle, blocker) = warm_then_hold_the_shard(16);
    let started = Instant::now();
    let hit = parse(&request(handle.addr(), REACH)).unwrap();
    let took = started.elapsed();
    assert_eq!(field(&hit, "verdict").as_str(), Some("sat"));
    assert_eq!(field(&hit, "cache_hit").as_bool(), Some(true));
    assert!(
        took < Duration::from_millis(400),
        "the hit took {took:?}: it waited behind the shard's sleep"
    );
    assert_eq!(
        field(&parse(&blocker.join().unwrap()).unwrap(), "op").as_str(),
        Some("sleep")
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn a_cache_hit_is_answered_when_the_shard_is_full() {
    // Zero backlog: the sleep fills the only shard's admission cap, so a
    // request that needed the shard would be shed.
    let (handle, blocker) = warm_then_hold_the_shard(0);
    let addr = handle.addr();
    let shed = parse(&request(addr, "{\"op\":\"sleep\",\"ms\":1}")).unwrap();
    assert_eq!(field(&shed, "error").as_str(), Some("overloaded"));
    let hit = parse(&request(addr, REACH)).unwrap();
    assert_eq!(field(&hit, "verdict").as_str(), Some("sat"));
    assert_eq!(field(&hit, "cache_hit").as_bool(), Some(true));
    blocker.join().unwrap();
    handle.shutdown();
    handle.join();
}
