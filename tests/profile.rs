//! Integration tests for the continuous profiler: the span-stack CPU
//! sampler, heap attribution through the counting allocator, and the
//! serve layer's `/debug/profile` endpoint.
//!
//! This binary installs [`rzen_obs::CountingAlloc`] exactly as the
//! shipped binaries do, so heap attribution is exercised end to end.
//! Tests that flip the global profiling state serialize on a local
//! mutex.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use rzen_engine::{Engine, EngineConfig, Query, QueryBackend};
use rzen_net::spec;
use rzen_obs::profile;
use rzen_serve::{start, Model, ServerConfig};

#[global_allocator]
static ALLOC: rzen_obs::CountingAlloc = rzen_obs::CountingAlloc;

const FIG3: &str = include_str!("../specs/fig3.net");

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

/// While profiling is disabled, instrumented code publishes no stack
/// slot and the allocator counts nothing — the observable half of the
/// one-relaxed-load contract.
#[test]
fn disabled_profiling_publishes_and_counts_nothing() {
    let _g = lock();
    let before = profile::global_heap_stats();
    let slot = thread::spawn(|| {
        {
            let _span = rzen_obs::span!("test.profile.disabled");
            std::hint::black_box(vec![0u8; 1 << 16]);
        }
        profile::thread_slot_allocated()
    })
    .join()
    .expect("worker");
    assert!(!slot, "no stack slot registered while profiling is off");
    assert_eq!(
        profile::global_heap_stats(),
        before,
        "allocator tallies do not advance while profiling is off"
    );
}

/// Double start is refused, stop-without-start is a no-op, and the
/// sampler winds down cleanly every time.
#[test]
fn sampler_start_stop_is_idempotent() {
    let _g = lock();
    assert!(!profile::stop(), "stop without start");
    assert!(profile::start(499));
    assert!(!profile::start(499), "second start refused");
    assert!(profile::is_running());
    assert!(profile::stop());
    assert!(!profile::stop(), "second stop refused");
    // A full second cycle works after the first.
    assert!(profile::start(499));
    assert!(profile::stop());
}

/// A cache-off batch run under the sampler yields folded stacks whose
/// leaf frames reach into the solver substrates (sat/bdd/bitblast) —
/// the profiler sees inside the engine, not just the outer spans.
#[test]
fn cpu_sampler_reaches_solver_leaf_frames() {
    let _g = lock();
    let queries = batch_queries();
    profile::reset();
    assert!(profile::start(1_997));
    let engine = engine(false);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut solver_leaves = false;
    while !solver_leaves && Instant::now() < deadline {
        let report = engine.run_batch(&queries);
        assert_eq!(report.results.len(), queries.len());
        solver_leaves = profile::cpu_folded().iter().any(|(stack, _)| {
            let leaf = stack.rsplit(';').next().unwrap_or("");
            leaf.starts_with("sat.") || leaf.starts_with("bdd.") || leaf.starts_with("bitblast.")
        });
    }
    assert!(profile::stop());
    let folded = profile::render_folded_cpu();
    assert!(
        solver_leaves,
        "no solver-substrate leaf frame sampled; folded:\n{folded}"
    );
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("sample count");
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
    profile::reset();
    assert!(profile::start(99));
    let window_start = profile::global_heap_stats().alloc_bytes;
    let report = engine(false).run_batch(&queries);
    assert_eq!(report.results.len(), queries.len());
    let window = profile::global_heap_stats().alloc_bytes - window_start;
    assert!(profile::stop());
    let rows = profile::heap_folded();
    let named: u64 = rows
        .iter()
        .filter(|(stack, _, _)| !stack.contains(profile::UNTRACKED))
        .map(|(_, bytes, _)| bytes)
        .sum();
    assert!(window > 1 << 20, "a batch run allocates: {window} bytes");
    assert!(
        named as f64 >= 0.90 * window as f64,
        "named spans hold {named} of {window} bytes ({:.1}%)",
        100.0 * named as f64 / window as f64
    );
    let untracked: u64 = rows
        .iter()
        .filter(|(stack, _, _)| stack.contains(profile::UNTRACKED))
        .map(|(_, bytes, _)| bytes)
        .sum();
    assert!(
        named + untracked >= window,
        "named + <untracked> covers the window ({named} + {untracked} < {window})"
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
        sample_hz: 1_499,
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
fn stream_requests(addr: SocketAddr, line: &'static str, stop: &std::sync::atomic::AtomicBool) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        if reader.read_line(&mut resp).is_err() || resp.is_empty() {
            break;
        }
    }
}

/// `/debug/profile` end to end on a loaded server: folded stacks with
/// serve-side frames, a well-formed standalone SVG, a heap view, 400s
/// on malformed parameters, and nonzero allocation columns in the
/// flight records of requests that ran inside the window.
#[test]
fn debug_profile_endpoint_end_to_end() {
    let _g = lock();
    let handle = start(cfg(), Model::parse(FIG3).unwrap()).unwrap();
    let addr = handle.addr();

    static STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    let loaders = [
        thread::spawn(move || stream_requests(addr, "{\"op\":\"sleep\",\"ms\":20}", &STOP)),
        thread::spawn(move || {
            stream_requests(
                addr,
                "{\"op\":\"reach\",\"src\":\"u1:1\",\"dst\":\"u3:2\"}",
                &STOP,
            )
        }),
    ];

    let (status, folded) = http_get(addr, "/debug/profile?ms=500&view=cpu&format=folded");
    assert!(status.contains("200"), "{status}");
    assert!(!folded.trim().is_empty(), "loaded server yields samples");
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("sample count");
    }
    assert!(
        folded.contains("serve.job"),
        "in-flight jobs visible in folded stacks:\n{folded}"
    );

    let (status, svg) = http_get(addr, "/debug/profile?ms=300&format=svg");
    assert!(status.contains("200"), "{status}");
    assert!(svg.starts_with("<svg xmlns=\"http://www.w3.org/2000/svg\""));
    assert!(svg.trim_end().ends_with("</svg>"));

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

    STOP.store(true, std::sync::atomic::Ordering::Relaxed);
    handle.shutdown();
    for l in loaders {
        let _ = l.join();
    }
    handle.join();
}
