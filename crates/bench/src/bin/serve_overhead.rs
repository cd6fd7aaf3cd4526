//! Interleaved overhead study: tracing × profiling on the serve path.
//!
//! One in-process server, three arms measured round-robin within every
//! round so background-load drift hits all arms alike:
//!
//! * `base`    — tracing off, profiler off (the always-on flight
//!   recorder and metrics stay on; they are part of the baseline)
//! * `trace`   — span recording enabled (`RZEN_TRACE=1` equivalent)
//! * `profile` — the span-stack sampler running at 99 Hz with heap
//!   attribution (the counting allocator is installed in this binary,
//!   as it is in `rzen-cli`)
//!
//! The arm order flips every round, and each cell keeps its best qps /
//! lowest quantiles across rounds (best-of-N: the host has multi-second
//! background-load drift, so "each arm's quietest window" is the usable
//! estimator — same methodology as the PR 7 study). Writes
//! `results/serve_overhead.csv`.
//!
//! ```text
//! serve_overhead [PER_CLIENT] [ROUNDS]     # defaults 3000, 7
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rzen_engine::QueryBackend;
use rzen_net::spec::Spec;
use rzen_obs::Histogram;
use rzen_serve::{start, Model, ServerConfig};

/// The profiler arm must pay the realistic allocator cost, exactly as
/// the shipped binaries do.
#[global_allocator]
static ALLOC: rzen_obs::CountingAlloc = rzen_obs::CountingAlloc;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Arm {
    Base,
    Trace,
    Profile,
}

impl Arm {
    const ALL: [Arm; 3] = [Arm::Base, Arm::Trace, Arm::Profile];

    fn name(self) -> &'static str {
        match self {
            Arm::Base => "base",
            Arm::Trace => "trace",
            Arm::Profile => "profile",
        }
    }

    fn set(self) {
        match self {
            Arm::Base => {}
            Arm::Trace => rzen_obs::trace::set_enabled(true),
            Arm::Profile => {
                rzen_obs::profile::reset();
                rzen_obs::profile::start(rzen_obs::profile::DEFAULT_SAMPLE_HZ);
            }
        }
    }

    fn clear(self) {
        match self {
            Arm::Base => {}
            Arm::Trace => {
                rzen_obs::trace::set_enabled(false);
                rzen_obs::trace::clear();
            }
            Arm::Profile => {
                rzen_obs::profile::stop();
            }
        }
    }
}

/// One arm's best observation for one client count.
#[derive(Clone, Copy)]
struct Cell {
    qps: f64,
    p50: u64,
    p99: u64,
}

impl Default for Cell {
    fn default() -> Self {
        Cell {
            qps: 0.0,
            p50: u64::MAX,
            p99: u64::MAX,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let per_client: usize = args
        .first()
        .map_or(3000, |a| a.parse().expect("PER_CLIENT"));
    let rounds: usize = args.get(1).map_or(7, |a| a.parse().expect("ROUNDS"));
    let client_counts = [1usize, 2, 4, 8];

    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig3.net");
    let text = std::fs::read_to_string(spec_path).expect("spec");
    let model = Model::parse(&text).expect("parse");
    let requests = Arc::new(request_set(&model.spec));

    let handle = start(
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
            shards: 0,
            idle_timeout: None,
            ..ServerConfig::default()
        },
        model,
    )
    .expect("bind");
    let addr = handle.addr();
    println!(
        "server on {addr}; {} requests over fig3.net edge ports; \
         {rounds} rounds x {} clients x {per_client} req/client x 3 arms",
        requests.len(),
        client_counts.len()
    );

    // best[clients-index][arm-index]
    let mut best = vec![[Cell::default(); 3]; client_counts.len()];
    for round in 0..rounds {
        // Flip the arm order every round so slow drift (thermal,
        // background load) cannot systematically favor one arm.
        let mut order = Arm::ALL;
        if round % 2 == 1 {
            order.reverse();
        }
        for &arm in &order {
            arm.set();
            for (ci, &clients) in client_counts.iter().enumerate() {
                let (qps, p50, p99) = measure(addr, &requests, clients, per_client);
                let cell = &mut best[ci][arm as usize];
                cell.qps = cell.qps.max(qps);
                cell.p50 = cell.p50.min(p50);
                cell.p99 = cell.p99.min(p99);
                println!(
                    "round={round} arm={:<7} clients={clients} qps={qps:>8.0} \
                     p50={p50:>5}us p99={p99:>5}us",
                    arm.name()
                );
            }
            arm.clear();
        }
    }

    handle.shutdown();
    handle.join();

    let mut rows = Vec::new();
    for (ci, &clients) in client_counts.iter().enumerate() {
        let [base, trace, profile] = best[ci];
        rows.push(format!(
            "{clients},{},{rounds},{:.0},{},{},{:.0},{},{},{:.0},{},{},{:.3},{:.3},{:.3},{:.3}",
            clients * per_client,
            base.qps,
            base.p50,
            base.p99,
            trace.qps,
            trace.p50,
            trace.p99,
            profile.qps,
            profile.p50,
            profile.p99,
            trace.qps / base.qps,
            profile.qps / base.qps,
            base.p50 as f64 / profile.p50.max(1) as f64,
            base.p99 as f64 / profile.p99.max(1) as f64,
        ));
    }
    let path = rzen_bench::write_csv(
        "serve_overhead.csv",
        "clients,requests,rounds,base_qps,base_p50_us,base_p99_us,\
         trace_qps,trace_p50_us,trace_p99_us,profile_qps,profile_p50_us,profile_p99_us,\
         trace_qps_ratio,profile_qps_ratio,profile_p50_ratio,profile_p99_ratio",
        &rows,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
    for row in &rows {
        println!("{row}");
    }
}

/// All-pairs reach + drops request lines over the spec's edge ports —
/// the same query set `rzen-cli batch` and `serve_load` run.
fn request_set(spec: &Spec) -> Vec<String> {
    let edges = spec.edge_ports();
    let mut out = Vec::new();
    for &src in &edges {
        for &dst in &edges {
            if src == dst {
                continue;
            }
            let (s, d) = (spec.endpoint_name(src), spec.endpoint_name(dst));
            out.push(format!(
                "{{\"op\":\"reach\",\"src\":\"{s}\",\"dst\":\"{d}\"}}"
            ));
            out.push(format!(
                "{{\"op\":\"drops\",\"src\":\"{s}\",\"dst\":\"{d}\"}}"
            ));
        }
    }
    out
}

/// One closed-loop sweep at a fixed client count; returns (qps, p50, p99).
fn measure(
    addr: SocketAddr,
    requests: &Arc<Vec<String>>,
    clients: usize,
    n: usize,
) -> (f64, u64, u64) {
    let hist = Arc::new(Histogram::new());
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let hist = hist.clone();
            let requests = requests.clone();
            thread::spawn(move || client_loop(addr, &requests, c, n, &hist))
        })
        .collect();
    for w in workers {
        w.join().expect("client");
    }
    let wall = t0.elapsed().as_secs_f64();
    let qps = (clients * n) as f64 / wall;
    (qps, hist.quantile(0.50), hist.quantile(0.99))
}

/// One closed-loop client: `n` requests back-to-back on one connection.
fn client_loop(addr: SocketAddr, requests: &[String], seed: usize, n: usize, hist: &Histogram) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for i in 0..n {
        let line = &requests[(seed + i) % requests.len()];
        let t0 = Instant::now();
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response");
        hist.observe(t0.elapsed().as_micros() as u64);
    }
}
