//! Integration tests for the profiler: the cpu view folded from the
//! trace rings, heap attribution through the counting allocator, and the
//! serve layer's `/debug/profile` endpoint.
//!
//! This binary installs [`rzen_obs::CountingAlloc`] exactly as the
//! shipped binaries do, so heap attribution is exercised end to end.
//! Tests that start captures, or need none live, serialize on a local
//! mutex.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use rzen_engine::{Engine, EngineConfig, Query, QueryBackend};
use rzen_net::spec;
use rzen_obs::export::{folded_spans, Weight};
use rzen_obs::json::Value;
use rzen_obs::trace::Capture;
use rzen_obs::{profile, trace};
use rzen_serve::{start, Model, ServerConfig, ServerHandle};

#[global_allocator]
static ALLOC: rzen_obs::CountingAlloc = rzen_obs::CountingAlloc;

const FIG3: &str = include_str!("../specs/fig3.net");
const REACH: &str = "{\"op\":\"reach\",\"src\":\"u1:1\",\"dst\":\"u3:2\"}";

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// All-pairs reach + drops queries over fig3 — the `rzen-cli batch` set.
fn batch_queries() -> Vec<Query> {
    let spec = spec::parse(FIG3).expect("spec");
    let edges = spec.edge_ports();
    let mut queries = Vec::new();
    for &src in &edges {
        for &dst in &edges {
            if src == dst {
                continue;
            }
            queries.push(Query::Reach {
                net: spec.net.clone(),
                src,
                dst,
            });
            queries.push(Query::Drops {
                net: spec.net.clone(),
                src,
                dst,
            });
        }
    }
    queries
}

fn engine(cache: bool) -> Engine {
    Engine::new(EngineConfig {
        jobs: 2,
        backend: QueryBackend::Portfolio,
        timeout: Some(Duration::from_secs(10)),
        cache,
        sessions: false,
    })
}

/// While tracing and heap counting are off, instrumented code records
/// no trace ring and the allocator counts nothing — the observable half
/// of the one-relaxed-load contract.
#[test]
fn disabled_profiling_publishes_and_counts_nothing() {
    let _g = lock();
    let before = profile::global_heap_stats();
    let ring = thread::spawn(|| {
        {
            let _span = rzen_obs::span!("test.profile.disabled");
            std::hint::black_box(vec![0u8; 1 << 16]);
        }
        rzen_obs::trace::thread_buffer_allocated()
    })
    .join()
    .expect("worker");
    assert!(!ring, "no trace ring allocated while tracing is off");
    assert_eq!(
        profile::global_heap_stats(),
        before,
        "allocator tallies do not advance while heap counting is off"
    );
}

/// A traced cache-off batch run folds into stacks whose leaf frames
/// reach into the solver substrates (sat/bdd/bitblast) — the cpu view
/// sees inside the engine, not just the outer spans.
#[test]
fn cpu_sampler_reaches_solver_leaf_frames() {
    let _g = lock();
    let queries = batch_queries();
    let capture = Capture::start();
    let report = engine(false).run_batch(&queries);
    let events = capture.finish().events;
    assert_eq!(report.results.len(), queries.len());
    let folded = folded_spans(&events, Weight::WallUs);
    let text = rzen_obs::export::folded_text(&folded);
    assert!(
        folded.iter().any(|(stack, _)| {
            let leaf = stack.rsplit(';').next().unwrap_or("");
            leaf.starts_with("sat.") || leaf.starts_with("bdd.") || leaf.starts_with("bitblast.")
        }),
        "no solver-substrate leaf frame folded; folded:\n{text}"
    );
    for line in text.lines() {
        let (stack, us) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        us.parse::<u64>().expect("µs weight");
    }
}

/// Differential heap attribution: of the bytes the allocator counted
/// during a batch run, at least 90% land on named spans; the remainder
/// sits in the explicit `<untracked>` bucket, and tracked + untracked
/// exactly cover the allocator's window.
#[test]
fn heap_view_attributes_ninety_percent_of_batch_bytes() {
    let _g = lock();
    let queries = batch_queries();
    let capture = Capture::start();
    let report = engine(false).run_batch(&queries);
    assert_eq!(report.results.len(), queries.len());
    let captured = capture.finish();
    let window = captured.alloc_bytes;
    let rows = profile::Profile::heap(&captured).rows;
    let named: u64 = rows
        .iter()
        .filter(|(stack, _)| !stack.contains(profile::UNTRACKED))
        .map(|(_, bytes)| bytes)
        .sum();
    assert!(window > 1 << 20, "a batch run allocates: {window} bytes");
    assert!(
        named as f64 >= 0.90 * window as f64,
        "named spans hold {named} of {window} bytes ({:.1}%)",
        100.0 * named as f64 / window as f64
    );
    let untracked: u64 = rows
        .iter()
        .filter(|(stack, _)| stack.contains(profile::UNTRACKED))
        .map(|(_, bytes)| bytes)
        .sum();
    assert!(
        named + untracked >= window,
        "named + <untracked> covers the window ({named} + {untracked} < {window})"
    );
}

/// Tracing and allocation counting are one switch: with only a live
/// [`Capture`], a span's allocations advance the global
/// totals and ride on its event. The recorder's own ring growth counts
/// nowhere — neither against the span open around a thread's first
/// events nor in either tally.
#[test]
fn one_switch_counts_span_bytes_but_not_the_recorder() {
    const N: u64 = 64 << 10;
    const TICKS: usize = 1_000;
    let _g = lock();
    let capture = Capture::start();
    let before = profile::global_heap_stats().alloc_bytes;
    {
        let _span = rzen_obs::span!("test.profile.switch");
        std::hint::black_box(vec![0u8; N as usize]);
    }
    let advanced = profile::global_heap_stats().alloc_bytes - before;
    // A fresh thread: its first events grow a new ring from empty.
    let (thread_delta, global_delta) = thread::spawn(|| {
        let (bytes0, count0) = profile::thread_alloc_stats();
        let global0 = profile::global_heap_stats().alloc_bytes;
        {
            let _first = rzen_obs::span!("test.profile.first");
            for _ in 0..TICKS {
                trace::instant("test.profile.tick");
            }
        }
        let (bytes1, count1) = profile::thread_alloc_stats();
        let global1 = profile::global_heap_stats().alloc_bytes;
        ((bytes1 - bytes0, count1 - count0), global1 - global0)
    })
    .join()
    .expect("fresh thread");
    let events = capture.finish().events;
    let bytes_of = |name: &str| {
        events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} recorded"))
            .alloc_bytes
    };

    assert!(advanced >= N, "global totals advanced {advanced} < {N}");
    let switch = bytes_of("test.profile.switch");
    assert!(switch >= N, "span event reports {switch} < {N} bytes");
    assert_eq!(
        bytes_of("test.profile.first"),
        0,
        "ring growth charged to the open span"
    );
    assert_eq!(thread_delta, (0, 0), "ring growth charged to the thread");
    // The ring grew by ≥ TICKS events (~100 KB); other threads are idle.
    assert!(
        global_delta < 4096,
        "ring growth reached the global totals: {global_delta} bytes"
    );
}

// --- serve endpoint ------------------------------------------------------

fn cfg() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        backlog: 64,
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

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("http response");
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Stream request lines back-to-back on one connection until told to
/// stop, so jobs keep starting *inside* any profile capture window.
fn stream_requests(addr: SocketAddr, line: &'static str, stop: &AtomicBool) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    while !stop.load(Ordering::Relaxed) {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        if reader.read_line(&mut resp).is_err() || resp.is_empty() {
            break;
        }
    }
}

/// A server kept busy by two client connections, one streaming 20 ms
/// debug `sleep`s and one streaming `reach` queries.
struct LoadedServer {
    handle: ServerHandle,
    stop: Arc<AtomicBool>,
    loaders: Vec<thread::JoinHandle<()>>,
}

impl LoadedServer {
    fn start() -> LoadedServer {
        let handle = start(cfg(), Model::parse(FIG3).unwrap()).unwrap();
        let addr = handle.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let loaders = ["{\"op\":\"sleep\",\"ms\":20}", REACH]
            .into_iter()
            .map(|line| {
                let stop = Arc::clone(&stop);
                thread::spawn(move || stream_requests(addr, line, &stop))
            })
            .collect();
        LoadedServer {
            handle,
            stop,
            loaders,
        }
    }

    fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.shutdown();
        for l in self.loaders {
            let _ = l.join();
        }
        self.handle.join();
    }
}

/// `/debug/profile` end to end on a loaded server: folded stacks with
/// serve-side frames, a well-formed standalone SVG, a heap view, 400s
/// on malformed parameters, and nonzero allocation columns in the
/// flight records of requests that ran inside the window.
#[test]
fn debug_profile_endpoint_end_to_end() {
    let _g = lock();
    let server = LoadedServer::start();
    let addr = server.handle.addr();

    let (status, folded) = http_get(addr, "/debug/profile?ms=500&view=cpu&format=folded");
    assert!(status.contains("200"), "{status}");
    assert!(
        !folded.trim().is_empty(),
        "loaded server yields span stacks"
    );
    for line in folded.lines() {
        let (stack, us) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        us.parse::<u64>().expect("µs weight");
    }
    assert!(
        folded.contains("serve.job"),
        "in-flight jobs visible in folded stacks:\n{folded}"
    );

    let (status, svg) = http_get(addr, "/debug/profile?ms=300&format=svg");
    assert!(status.contains("200"), "{status}");
    assert!(svg.starts_with("<svg xmlns=\"http://www.w3.org/2000/svg\""));
    assert!(svg.trim_end().ends_with("</svg>"));
    assert!(
        svg.contains("µs of span wall time"),
        "svg title names the unit"
    );

    let (status, heap) = http_get(addr, "/debug/profile?ms=300&view=heap&format=folded");
    assert!(status.contains("200"), "{status}");
    assert!(
        !heap.trim().is_empty(),
        "heap view has named rows or the residual bucket"
    );

    for bad in [
        "/debug/profile?ms=abc",
        "/debug/profile?ms=-5",
        "/debug/profile?view=nope",
        "/debug/profile?format=gif",
    ] {
        let (status, _) = http_get(addr, bad);
        assert!(status.contains("400"), "{bad} -> {status}");
    }

    // Requests that ran inside a capture window carry allocation columns.
    let (status, requests) = http_get(addr, "/debug/requests");
    assert!(status.contains("200"), "{status}");
    assert!(requests.contains("\"alloc_bytes\":"));
    let attributed = requests
        .split("\"alloc_bytes\":")
        .skip(1)
        .filter_map(|rest| rest.split([',', '}']).next()?.parse::<u64>().ok())
        .any(|bytes| bytes > 0);
    assert!(
        attributed,
        "some profiled request allocated: {}",
        &requests[..requests.len().min(2000)]
    );

    server.finish();
}

/// `/debug/trace` and `/debug/profile` fired together at a loaded server
/// overlap rather than queue, and each still gets a full window of its
/// own events: a capture copies the span rings, it never drains them.
#[test]
fn concurrent_trace_and_profile_captures_both_see_events() {
    let _g = lock();
    let server = LoadedServer::start();
    let addr = server.handle.addr();
    let barrier = Barrier::new(2);
    let (trace, profile) = thread::scope(|s| {
        let trace = s.spawn(|| {
            barrier.wait();
            http_get(addr, "/debug/trace?ms=300")
        });
        let profile = s.spawn(|| {
            barrier.wait();
            http_get(addr, "/debug/profile?ms=300")
        });
        (trace.join().unwrap(), profile.join().unwrap())
    });
    assert!(trace.0.contains("200"), "{}", trace.0);
    assert!(profile.0.contains("200"), "{}", profile.0);

    // The trace's spans stretch across most of its 300 ms window.
    let Value::Arr(events) = rzen_obs::json::parse(&trace.1).expect("trace json") else {
        panic!("trace is not an array");
    };
    let us = |e: &Value, key: &str| match e.get(key) {
        Some(Value::Num(v)) => *v,
        _ => 0.0,
    };
    let first = events.iter().map(|e| us(e, "ts")).fold(f64::MAX, f64::min);
    let last = events
        .iter()
        .map(|e| us(e, "ts") + us(e, "dur"))
        .fold(0.0, f64::max);
    assert!(
        last - first >= 150_000.0,
        "trace capture covers {:.0} µs of a 300 ms window",
        (last - first).max(0.0)
    );
    // The streamed 20 ms sleeps alone keep a serve.job open most of the
    // profile's 300 ms window.
    let job_us: u64 = profile
        .1
        .lines()
        .filter(|line| line.starts_with("serve.job"))
        .filter_map(|line| line.rsplit_once(' ')?.1.parse::<u64>().ok())
        .sum();
    assert!(
        job_us >= 150_000,
        "profile capture holds {job_us} µs of serve.job:\n{}",
        profile.1
    );
    server.finish();
}

/// A process-long capture — what `rzen-cli serve` holds under
/// `RZEN_TRACE=FILE` for its exit export — keeps the `serve.request`
/// spans from before a `/debug/trace` capture taken in the middle of
/// its life, and the `/debug/trace` window holds none of them.
#[test]
fn debug_trace_leaves_a_long_capture_whole() {
    let _g = lock();
    let handle = start(cfg(), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();
    let long = Capture::start();
    let send = |n: usize| {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for _ in 0..n {
            writer.write_all(format!("{REACH}\n").as_bytes()).unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            assert!(resp.contains("\"verdict\":\"sat\""), "{resp}");
        }
    };
    send(5);
    let (status, body) = http_get(addr, "/debug/trace?ms=100");
    assert!(status.contains("200"), "{status}");
    let Value::Arr(debug_events) = rzen_obs::json::parse(&body).expect("trace json") else {
        panic!("trace is not an array");
    };
    send(3);
    let window = long.finish();
    handle.shutdown();
    handle.join();

    let requests = window
        .events
        .iter()
        .filter(|e| e.name == "serve.request")
        .count();
    assert_eq!(requests, 5 + 3, "requests before and after /debug/trace");
    assert!(
        !debug_events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("serve.request")),
        "the /debug/trace window saw no request"
    );
}
