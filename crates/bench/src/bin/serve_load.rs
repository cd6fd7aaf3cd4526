//! Closed-loop load generator for the serve layer.
//!
//! Starts an in-process server on a kernel-assigned port, then sweeps
//! client concurrency: each client opens one connection and issues
//! requests back-to-back (closed loop), drawing round-robin from the
//! all-pairs reach/drops query set over the spec's edge ports — the same
//! set `rzen-cli batch` runs. Latency quantiles come from an
//! [`rzen_obs::Histogram`]; before every sweep, the server's verdicts
//! are checked identical to the engine batch path on the same query set.
//!
//! Two modes, one sweep, each run verdict-gated against batch:
//!
//! - default: the server at its default two shards. Writes
//!   `results/serve_throughput.csv`.
//! - `shard-sweep`: 1/2/4 engine shards. Writes
//!   `results/serve_shard_scaling.csv`. On a single-core host the
//!   scaling columns are flat — see KNOWN_FAILURES.md.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rzen_engine::{Engine, EngineConfig, Query, QueryBackend, Verdict};
use rzen_net::spec::Spec;
use rzen_obs::Histogram;
use rzen_serve::{start, Model, ServerConfig, ServerHandle};

const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shard_sweep = args.iter().any(|a| a == "shard-sweep");
    let per_client: usize = args
        .iter()
        .find(|a| *a != "shard-sweep")
        .map_or(200, |a| a.parse().expect("REQS"));

    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3.net");
    let text = std::fs::read_to_string(spec_path).expect("spec");
    let model = Model::parse(&text).expect("parse");
    let requests = Arc::new(request_set(&model.spec));
    println!(
        "{} distinct requests over the edge ports of fig3.net",
        requests.len()
    );

    if shard_sweep {
        run_sweeps(
            &text,
            &requests,
            per_client,
            &[1, 2, 4],
            "serve_shard_scaling.csv",
        );
    } else {
        run_sweeps(&text, &requests, per_client, &[2], "serve_throughput.csv");
    }
}

fn serve(text: &str, shards: usize) -> ServerHandle {
    start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            backlog: 256,
            timeout: Some(Duration::from_secs(10)),
            sessions: false,
            backend: QueryBackend::Portfolio,
            handle_signals: false,
            debug_ops: false,
            sample_hz: rzen_obs::profile::DEFAULT_SAMPLE_HZ,
            shards,
            idle_timeout: None,
            ..ServerConfig::default()
        },
        Model::parse(text).expect("parse"),
    )
    .expect("bind")
}

#[derive(Clone, Copy)]
struct Sample {
    clients: usize,
    total: usize,
    qps: f64,
    p50: u64,
    p99: u64,
    shed: usize,
}

/// One client-count sweep against a running server.
fn sweep(addr: SocketAddr, requests: &Arc<Vec<(String, Query)>>, per_client: usize) -> Vec<Sample> {
    let mut out = Vec::new();
    for &clients in &CLIENT_COUNTS {
        let hist = Arc::new(Histogram::new());
        let t0 = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let hist = hist.clone();
                let requests = requests.clone();
                thread::spawn(move || client_loop(addr, &requests, c, per_client, &hist))
            })
            .collect();
        let mut shed = 0usize;
        for w in workers {
            shed += w.join().expect("client");
        }
        let wall = t0.elapsed().as_secs_f64();
        let total = clients * per_client;
        out.push(Sample {
            clients,
            total,
            qps: total as f64 / wall,
            p50: hist.quantile(0.50),
            p99: hist.quantile(0.99),
            shed,
        });
    }
    out
}

/// One client-count sweep per shard count, each verdict-gated against
/// the batch path, written to `csv`.
fn run_sweeps(
    text: &str,
    requests: &Arc<Vec<(String, Query)>>,
    per_client: usize,
    shard_counts: &[usize],
    csv: &str,
) {
    let mut rows = Vec::new();
    for &shards in shard_counts {
        let handle = serve(text, shards);
        let addr = handle.addr();
        println!("[shards={shards}] server on {addr}");
        verify_against_batch(addr, requests);
        for s in sweep(addr, requests, per_client) {
            println!(
                "[shards={shards}] clients={:<2} requests={:<5} qps={:>8.0} p50={:>6}us p99={:>6}us shed={}",
                s.clients, s.total, s.qps, s.p50, s.p99, s.shed
            );
            rows.push(format!(
                "{shards},{},{},{:.1},{},{},{}",
                s.clients, s.total, s.qps, s.p50, s.p99, s.shed
            ));
        }
        handle.shutdown();
        handle.join();
    }
    let path = rzen_bench::write_csv(csv, "shards,clients,requests,qps,p50_us,p99_us,shed", &rows)
        .expect("write csv");
    println!("wrote {}", path.display());
}

/// All-pairs reach + drops request lines over the spec's edge ports —
/// the same query set `rzen-cli batch` runs.
fn request_set(spec: &Spec) -> Vec<(String, Query)> {
    let edges = spec.edge_ports();
    let mut out = Vec::new();
    for &src in &edges {
        for &dst in &edges {
            if src == dst {
                continue;
            }
            let (s, d) = (spec.endpoint_name(src), spec.endpoint_name(dst));
            out.push((
                format!("{{\"op\":\"reach\",\"src\":\"{s}\",\"dst\":\"{d}\"}}"),
                Query::Reach {
                    net: spec.net.clone(),
                    src,
                    dst,
                },
            ));
            out.push((
                format!("{{\"op\":\"drops\",\"src\":\"{s}\",\"dst\":\"{d}\"}}"),
                Query::Drops {
                    net: spec.net.clone(),
                    src,
                    dst,
                },
            ));
        }
    }
    out
}

/// The acceptance gate: the server must answer the query set with
/// verdicts identical to the engine batch path (what `rzen-cli batch`
/// prints).
fn verify_against_batch(addr: SocketAddr, requests: &[(String, Query)]) {
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        backend: QueryBackend::Portfolio,
        timeout: Some(Duration::from_secs(10)),
        cache: true,
        sessions: false,
    });
    let queries: Vec<Query> = requests.iter().map(|(_, q)| q.clone()).collect();
    let report = engine.run_batch(&queries);
    let batch: Vec<&str> = report
        .results
        .iter()
        .map(|r| verdict_str(&r.verdict))
        .collect();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut served = Vec::new();
    for (line, _) in requests {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response");
        let v = rzen_obs::json::parse(resp.trim())
            .expect("valid response json")
            .get("verdict")
            .and_then(|v| v.as_str().map(str::to_string))
            .expect("verdict member");
        served.push(v);
    }
    assert_eq!(
        served, batch,
        "server verdicts must be identical to the batch path"
    );
    println!(
        "verdict equivalence: {} served verdicts match the batch path",
        served.len()
    );
}

fn verdict_str(v: &Verdict) -> &'static str {
    match v {
        Verdict::Sat(_) => "sat",
        Verdict::Unsat => "unsat",
        Verdict::Timeout => "timeout",
        Verdict::Cancelled => "cancelled",
        Verdict::Error(_) => "error",
    }
}

/// One closed-loop client: `n` requests back-to-back on one connection.
/// Returns how many were shed (`overloaded`).
fn client_loop(
    addr: SocketAddr,
    requests: &[(String, Query)],
    seed: usize,
    n: usize,
    hist: &Histogram,
) -> usize {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut shed = 0;
    for i in 0..n {
        // Stagger clients over the request set so identical concurrent
        // queries (and thus coalescing + cache hits) occur naturally.
        let (line, _) = &requests[(seed + i) % requests.len()];
        let t0 = Instant::now();
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response");
        hist.observe(t0.elapsed().as_micros() as u64);
        if resp.contains("\"error\":\"overloaded\"") {
            shed += 1;
        }
    }
    shed
}
