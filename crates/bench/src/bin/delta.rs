//! Incremental-delta speedup benchmark.
//!
//! For a sweep of spine-leaf fabric sizes, measures what one-line model
//! churn costs a live server two ways: a full `POST /model` hot-swap of
//! the equivalent patched spec (clears the result cache) versus a
//! `POST /delta` carrying the single ACL op (evicts only the changed
//! leaf's cone of influence). The cost metric is how many of the
//! all-pairs reach/drops queries have to actually re-solve afterwards,
//! plus the wall-clock of re-answering the full set; both paths must
//! produce identical verdicts or the run aborts.
//!
//! Writes `results/delta_speedup.csv`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rzen_engine::QueryBackend;
use rzen_net::{gen, spec};
use rzen_serve::{start, Model, ServerConfig};

/// The one-line change under test: a telnet filter on leaf1's host port.
const DELTA_OP: &str =
    "{\"op\":\"set-acl\",\"device\":\"leaf1\",\"intf\":99,\"dir\":\"in\",\"acl\":\"deny-dport 23 23\"}";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let leaves: Vec<usize> = if args.is_empty() {
        vec![4, 8, 12]
    } else {
        args.iter().map(|a| a.parse().expect("LEAVES")).collect()
    };

    let mut rows = Vec::new();
    for &n_leaves in &leaves {
        rows.push(run_size(2, n_leaves));
    }

    let path = rzen_bench::write_csv(
        "delta_speedup.csv",
        "spec,spines,leaves,queries,resolves_full,wall_full_ms,resolves_delta,wall_delta_ms,resolve_ratio,wall_speedup",
        &rows,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
}

fn run_size(n_spines: usize, n_leaves: usize) -> String {
    let base = spec::Spec::from_network(gen::spine_leaf(n_spines, n_leaves)).expect("spec");
    let base_text = spec::serialize(&base).expect("serialize");

    // The full-swap arm posts the *equivalent* patched spec: same change,
    // expressed as a whole model.
    let ops = rzen_delta::parse_ops(DELTA_OP).expect("ops");
    let mut patched = base.clone();
    rzen_delta::apply_all(&mut patched, &ops).expect("apply");
    let patched_text = spec::serialize(&patched).expect("serialize patched");

    let handle = start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            backlog: 1024,
            timeout: Some(Duration::from_secs(60)),
            sessions: false,
            backend: QueryBackend::Portfolio,
            handle_signals: false,
            debug_ops: false,
            sample_hz: rzen_obs::profile::DEFAULT_SAMPLE_HZ,
            shards: 0,
            idle_timeout: None,
            ..ServerConfig::default()
        },
        Model::parse(&base_text).expect("model"),
    )
    .expect("bind");
    let addr = handle.addr();

    let requests = request_set(&base);
    let n = requests.len();

    // Arm 1: warm cache, full hot-swap, re-answer everything.
    run_set(addr, &requests); // warm
    post(addr, "/model", &patched_text);
    let t0 = Instant::now();
    let (full_verdicts, resolves_full) = run_set(addr, &requests);
    let wall_full = t0.elapsed().as_secs_f64() * 1e3;

    // Arm 2: restore, re-warm, one-line delta, re-answer everything.
    post(addr, "/model", &base_text);
    run_set(addr, &requests); // re-warm
    post(addr, "/delta", DELTA_OP);
    let t0 = Instant::now();
    let (delta_verdicts, resolves_delta) = run_set(addr, &requests);
    let wall_delta = t0.elapsed().as_secs_f64() * 1e3;

    handle.shutdown();
    handle.join();

    assert_eq!(
        full_verdicts, delta_verdicts,
        "spine_leaf({n_spines},{n_leaves}): delta and full swap must agree on every verdict"
    );
    assert!(resolves_delta > 0, "the delta must invalidate something");

    let ratio = resolves_full as f64 / resolves_delta as f64;
    let speedup = wall_full / wall_delta;
    println!(
        "spine_leaf({n_spines},{n_leaves}): {n} queries | full swap re-solves {resolves_full} in {wall_full:.0}ms | \
         delta re-solves {resolves_delta} in {wall_delta:.0}ms | {ratio:.1}x fewer re-solves, {speedup:.1}x wall"
    );
    format!(
        "spine_leaf,{n_spines},{n_leaves},{n},{resolves_full},{wall_full:.1},{resolves_delta},{wall_delta:.1},{ratio:.2},{speedup:.2}"
    )
}

/// All-pairs reach + drops over the fabric's host ports.
fn request_set(spec: &spec::Spec) -> Vec<String> {
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

/// Send every request on one connection; return the verdicts and how many
/// were real re-solves (not answered from the result cache).
fn run_set(addr: SocketAddr, requests: &[String]) -> (Vec<String>, usize) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut verdicts = Vec::with_capacity(requests.len());
    let mut resolves = 0usize;
    for line in requests {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response");
        let v = rzen_obs::json::parse(resp.trim()).expect("response json");
        let verdict = v
            .get("verdict")
            .and_then(|x| x.as_str().map(str::to_string))
            .unwrap_or_else(|| panic!("no verdict in {resp}"));
        if v.get("cache_hit").and_then(|x| x.as_bool()) != Some(true) {
            resolves += 1;
        }
        verdicts.push(verdict);
    }
    (verdicts, resolves)
}

/// One-shot HTTP POST; panics unless the server answers 200.
fn post(addr: SocketAddr, path: &str, body: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("http response");
    let status = raw.lines().next().unwrap_or("");
    assert!(status.contains("200"), "POST {path} failed: {raw}");
}
