//! `rzen` — the command-line network verifier.
//!
//! Load a network spec (see [`spec`] for the format) and run queries:
//!
//! ```text
//! rzen-cli reach  SPEC SRC DST            # find a delivered packet (SAT per path)
//! rzen-cli drops  SPEC SRC DST [PREFIX]   # find a dropped packet (composition bugs);
//!                                     # PREFIX restricts the destination
//! rzen-cli hsa    SPEC SRC DST            # exact reachable-set size (transformers)
//! rzen-cli paths  SPEC SRC DST            # enumerate simple paths
//! rzen-cli show   SPEC                    # print the parsed network
//! rzen-cli batch  SPEC [--jobs N] [--timeout-ms MS] [--backend bdd|smt|portfolio]
//!                                     # all-pairs reach+drops over the edge
//!                                     # ports, solved by the parallel
//!                                     # portfolio engine with a stats table
//! ```
//!
//! `SRC`/`DST` are `device:port` endpoints. Example:
//!
//! ```text
//! cargo run --release -p rzen-cli --bin rzen-cli -- reach fig3.net u1:1 u3:2
//! ```

#![warn(missing_docs)]

pub use rzen_net::spec;

/// Heap attribution needs the counting allocator installed at the binary
/// level; while profiling is disabled its cost is one relaxed atomic
/// load per allocator call.
#[global_allocator]
static ALLOC: rzen_obs::CountingAlloc = rzen_obs::CountingAlloc;

use rzen::{TransformerSpace, Zen, ZenFunction};
use rzen_net::analyses::{anteater, hsa};
use rzen_net::device::fold_paths;
use rzen_net::headers::{HeaderFields, Packet, PacketFields};
use rzen_obs::trace::Capture;
use rzen_serve::proto::describe_header;

/// The usage text, shared by `--help` (stdout, exit 0) and error paths
/// (stderr, exit 2).
fn usage_text() -> String {
    [
        "usage: rzen-cli <reach|drops|hsa|paths|show> SPEC [SRC DST]",
        "       rzen-cli delta SPEC DELTA.ndjson [--out FILE]",
        "       rzen-cli batch SPEC [--jobs N] [--timeout-ms MS] [--backend bdd|smt|portfolio]",
        "                       [--sessions on|off] [--trace-out FILE]",
        "                       [--stats-json FILE] [--verdicts-json FILE] [--metrics]",
        "                       [--profile-out FILE]",
        "       rzen-cli serve SPEC [--addr HOST:PORT] [--jobs N] [--backlog N] [--idle-timeout-ms MS]",
        "                       [--timeout-ms MS] [--sessions on|off] [--backend ...]",
        "                       [--flight-recorder-size N]",
        "       rzen-cli --version | --help",
        "  SRC/DST are device:port endpoints, e.g. u1:1",
        "  delta applies an NDJSON op sequence (set-acl, set-route, link-up/down,",
        "  add/remove-device) to the spec and reports the per-device fingerprint",
        "  moves; --out FILE writes the patched spec (\"-\" for stdout)",
        "  --sessions on|off  keep each runner's solver session across queries; off (the",
        "                     default) drops each query's session after its reply",
        "  --trace-out FILE   write a Chrome trace-event JSON file (chrome://tracing)",
        "  --stats-json FILE  write the batch report + metrics snapshot as JSON",
        "  --verdicts-json FILE  write just the verdicts (stable across modes) as JSON",
        "  --metrics          print the metrics registry and slow table after the batch",
        "  --profile-out FILE trace the batch and write its span stacks folded, in µs",
        "                     of span wall time (a flamegraph SVG when FILE ends in .svg)",
        "  --flight-recorder-size N  ring capacity of the serve flight recorder",
        "  --idle-timeout-ms MS  close client connections silent for MS milliseconds",
        "  serve answers NDJSON queries on a TCP socket, plus HTTP GET /healthz,",
        "  GET /metrics (Prometheus format), GET /debug/requests|slow|trace?ms=N,",
        "  GET /debug/profile?ms=N&view=cpu|heap&format=folded|svg,",
        "  and POST /model (spec hot-swap); SIGTERM drains gracefully",
        "  RZEN_TRACE=1|FILE  enable tracing from the environment (FILE also exports)",
    ]
    .join("\n")
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The value after the flag at `flags[i]`, or fail naming what it needs.
fn flag_value<'a>(flags: &'a [String], i: usize, needs: &str) -> &'a str {
    match flags.get(i + 1) {
        Some(v) => v,
        None => fail(&format!("{} needs {needs}", flags[i])),
    }
}

/// Parse the value of `flag`, failing with its name.
fn parse_flag<T: std::str::FromStr<Err: std::fmt::Display>>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|e| fail(&format!("bad {flag} {v:?}: {e}")))
}

/// Apply `flags[i]` and its value to `cfg` if it is one of the engine
/// flags `batch` and `serve` share: `--jobs`, `--timeout-ms`,
/// `--sessions`, `--backend`. Returns whether it was.
fn engine_flag(cfg: &mut rzen_engine::EngineConfig, flags: &[String], i: usize) -> bool {
    use rzen_engine::QueryBackend;
    let flag = flags[i].as_str();
    match flag {
        "--jobs" => {
            cfg.jobs = parse_flag(flag, flag_value(flags, i, "N"));
            if cfg.jobs == 0 {
                fail("--jobs must be at least 1");
            }
        }
        "--timeout-ms" => {
            let ms = parse_flag(flag, flag_value(flags, i, "MS"));
            cfg.timeout = Some(std::time::Duration::from_millis(ms));
        }
        "--sessions" => {
            cfg.sessions = match flag_value(flags, i, "on|off") {
                "on" => true,
                "off" => false,
                other => fail(&format!("bad --sessions {other:?} (on|off)")),
            }
        }
        "--backend" => {
            cfg.backend = match flag_value(flags, i, "bdd|smt|portfolio") {
                "bdd" => QueryBackend::Bdd,
                "smt" => QueryBackend::Smt,
                "portfolio" => QueryBackend::Portfolio,
                other => fail(&format!("unknown backend {other:?} (bdd|smt|portfolio)")),
            }
        }
        _ => return false,
    }
    true
}

fn main() {
    // RZEN_TRACE=1 records for the whole run; RZEN_TRACE=<path> also
    // names a Chrome-trace export file (an explicit --trace-out flag wins).
    let env_trace = Capture::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--version" | "-V") => {
            println!("rzen-cli {}", env!("CARGO_PKG_VERSION"));
            return;
        }
        Some("--help" | "-h") => {
            println!("{}", usage_text());
            return;
        }
        _ => {}
    }
    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(c), Some(p)) => (c.as_str(), p),
        _ => usage(),
    };
    // Validate the subcommand before touching the filesystem: a typo'd
    // command must exit with usage, not a confusing spec-read error.
    const COMMANDS: &[&str] = &[
        "reach", "drops", "hsa", "paths", "show", "batch", "serve", "delta",
    ];
    if !COMMANDS.contains(&cmd) {
        eprintln!("error: unknown command {cmd:?}");
        usage();
    }
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));

    if cmd == "serve" {
        run_serve(&text, &args[2..], env_trace);
        return;
    }
    let spec = spec::parse(&text).unwrap_or_else(|e| fail(&e));

    if cmd == "batch" {
        run_batch(&spec, &args[2..], env_trace);
        return;
    }

    if cmd == "delta" {
        run_delta(&spec, &args[2..]);
        return;
    }

    if cmd == "show" {
        println!(
            "{} devices, {} links",
            spec.net.devices.len(),
            spec.net.links.len()
        );
        for (i, d) in spec.net.devices.iter().enumerate() {
            let ports: Vec<String> = d.interfaces.iter().map(|x| x.id.to_string()).collect();
            println!("  [{i}] {} ports {{{}}}", d.name, ports.join(", "));
        }
        for l in &spec.net.links {
            println!(
                "  {}:{} -> {}:{}",
                spec.net.devices[l.from_device].name,
                l.from_intf,
                spec.net.devices[l.to_device].name,
                l.to_intf
            );
        }
        return;
    }

    let (src, dst) = match (args.get(2), args.get(3)) {
        (Some(s), Some(d)) => (
            spec.endpoint(s).unwrap_or_else(|e| fail(&e)),
            spec.endpoint(d).unwrap_or_else(|e| fail(&e)),
        ),
        _ => usage(),
    };

    match cmd {
        "paths" => {
            let paths = spec.net.paths(src.0, src.1, dst.0, dst.1);
            println!("{} simple path(s)", paths.len());
            for p in &paths {
                let names: Vec<String> = p
                    .iter()
                    .map(|h| format!("[in {} out {}]", h.intf_in.id, h.intf_out.id))
                    .collect();
                println!("  {}", names.join(" -> "));
            }
        }
        "reach" => match anteater::reachable(&spec.net, src.0, src.1, dst.0, dst.1) {
            Some(w) => {
                println!("REACHABLE via a {}-hop path", w.path.len());
                println!("  witness: {}", describe_header(&w.packet.overlay_header));
            }
            None => println!("UNREACHABLE: no packet is delivered on any simple path"),
        },
        "drops" => {
            // A packet that enters but reaches the destination on NO
            // path (a true blackhole) — the composition-bug query of the
            // paper's §2. An optional destination prefix narrows the
            // search to traffic that *should* be delivered.
            let dst_prefix: Option<rzen_net::ip::Prefix> = args
                .get(4)
                .map(|p| p.parse().unwrap_or_else(|e: String| fail(&e)));
            let paths = spec.net.paths(src.0, src.1, dst.0, dst.1);
            if paths.is_empty() {
                println!("NO PATHS: the endpoints are not connected");
                return;
            }
            // The model is the identity; the formula is built in the
            // predicate, which may borrow `paths`.
            let f = ZenFunction::new(|p: Zen<Packet>| p);
            match f.find(
                |p, _| {
                    let delivered = fold_paths(&paths, p, Zen::bool(false), |any, out| {
                        any.or(out.is_some())
                    });
                    let base = p.underlay_header().is_none().and(!delivered);
                    match dst_prefix {
                        Some(pre) => base.and(pre.matches(p.overlay_header().dst_ip())),
                        None => base,
                    }
                },
                &rzen::FindOptions::bdd(),
            ) {
                Some(w) => {
                    println!("DROPPED on all {} path(s):", paths.len());
                    println!("  witness: {}", describe_header(&w.overlay_header));
                }
                None => println!("NO DROPS: every matching packet is delivered on some path"),
            }
        }
        "hsa" => {
            let space = TransformerSpace::new();
            let set = hsa::reachable_set(&spec.net, &space, src.0, src.1, dst.0);
            if set.is_empty() {
                println!("UNREACHABLE (exact set is empty)");
            } else {
                println!("reachable packet set: 2^{:.1} packets", set.count().log2());
                if let Some(sample) = set.element() {
                    println!("  sample: {}", describe_header(&sample.overlay_header));
                }
            }
        }
        _ => usage(),
    }
}

/// `delta`: apply an NDJSON op sequence to the spec offline and report what
/// moved — touched devices, per-device fingerprint churn, and the composite
/// model identity before and after. `--out FILE` writes the patched spec.
fn run_delta(spec: &spec::Spec, flags: &[String]) {
    let delta_path = match flags.first() {
        Some(p) if !p.starts_with("--") => p.clone(),
        _ => usage(),
    };
    let mut out: Option<String> = None;
    let mut i = 1;
    while i < flags.len() {
        match flags[i].as_str() {
            "--out" => {
                out = Some(flag_value(flags, i, "FILE").to_string());
                i += 2;
            }
            other => fail(&format!("unknown delta flag {other:?}")),
        }
    }

    let text = std::fs::read_to_string(&delta_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {delta_path}: {e}")));
    let ops = rzen_delta::parse_ops(&text).unwrap_or_else(|e| fail(&e));
    if ops.is_empty() {
        fail("delta file contains no ops");
    }

    let fp_before = rzen_delta::composite_fingerprint(&spec.net);
    let leaves_before: Vec<(String, u64)> = spec
        .net
        .devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name.clone(), rzen_delta::device_fingerprint(&spec.net, i)))
        .collect();

    let mut patched = spec.clone();
    let applied = rzen_delta::apply_all(&mut patched, &ops).unwrap_or_else(|e| fail(&e));
    let fp_after = rzen_delta::composite_fingerprint(&patched.net);

    println!(
        "applied {} op(s); touched: {}",
        applied.steps.len(),
        if applied.touched.is_empty() {
            "(none)".to_string()
        } else {
            applied.touched.join(", ")
        }
    );
    println!("model: {fp_before:016x} -> {fp_after:016x}");
    // Per-device leaf hashes, matched by name: indices can shift when
    // devices are added or removed mid-sequence.
    for (i, d) in patched.net.devices.iter().enumerate() {
        let new_fp = rzen_delta::device_fingerprint(&patched.net, i);
        match leaves_before.iter().find(|(n, _)| *n == d.name) {
            Some((_, old_fp)) if *old_fp == new_fp => {}
            Some((_, old_fp)) => println!("  {}: {old_fp:016x} -> {new_fp:016x}", d.name),
            None => println!("  {}: (new) {new_fp:016x}", d.name),
        }
    }
    for (name, old_fp) in &leaves_before {
        if !patched.net.devices.iter().any(|d| d.name == *name) {
            println!("  {name}: {old_fp:016x} -> (removed)");
        }
    }

    if let Some(path) = out {
        let rendered = spec::serialize(&patched).unwrap_or_else(|e| fail(&e));
        if path == "-" {
            print!("{rendered}");
        } else {
            std::fs::write(&path, rendered)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            println!("wrote patched spec to {path}");
        }
    }
}

/// `batch`: all-pairs reach + drops over the spec's edge ports, run by the
/// parallel portfolio engine.
fn run_batch(spec: &spec::Spec, flags: &[String], env_trace: Option<(Capture, Option<String>)>) {
    use rzen_engine::{Engine, EngineConfig, Query, Verdict};

    let mut cfg = EngineConfig {
        jobs: 4,
        ..Default::default()
    };
    let mut trace_out: Option<String> = None;
    let mut stats_json: Option<String> = None;
    let mut verdicts_json: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut show_metrics = false;
    let mut i = 0;
    while i < flags.len() {
        if engine_flag(&mut cfg, flags, i) {
            i += 2;
            continue;
        }
        let file = match flags[i].as_str() {
            "--profile-out" => &mut profile_out,
            "--trace-out" => &mut trace_out,
            "--stats-json" => &mut stats_json,
            "--verdicts-json" => &mut verdicts_json,
            "--metrics" => {
                show_metrics = true;
                i += 1;
                continue;
            }
            other => fail(&format!("unknown batch flag {other:?}")),
        };
        *file = Some(flag_value(flags, i, "FILE").to_string());
        i += 2;
    }

    // One capture feeds the trace and the profile: RZEN_TRACE's, which
    // has recorded since startup, or one started for --trace-out /
    // --profile-out. A --trace-out path wins over RZEN_TRACE's.
    let (env_capture, env_path) = env_trace.unzip();
    let trace_path = trace_out.or(env_path.flatten());
    let capture = env_capture
        .or_else(|| (trace_path.is_some() || profile_out.is_some()).then(Capture::start));

    let edges = spec.edge_ports();
    if edges.len() < 2 {
        fail("batch needs at least two edge ports (interfaces not used by any link)");
    }
    let mut queries = Vec::new();
    let mut labels = Vec::new();
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
            labels.push(format!(
                "reach {} -> {}",
                spec.endpoint_name(src),
                spec.endpoint_name(dst)
            ));
            queries.push(Query::Drops {
                net: spec.net.clone(),
                src,
                dst,
            });
            labels.push(format!(
                "drops {} -> {}",
                spec.endpoint_name(src),
                spec.endpoint_name(dst)
            ));
        }
    }

    println!(
        "{} edge ports, {} queries, {} workers",
        edges.len(),
        queries.len(),
        cfg.jobs
    );
    let engine = Engine::new(cfg);
    let report = engine.run_batch(&queries);
    for (r, label) in report.results.iter().zip(&labels) {
        let verdict = match &r.verdict {
            Verdict::Sat(_) => "SAT",
            Verdict::Unsat => "unsat",
            Verdict::Timeout => "TIMEOUT",
            Verdict::Cancelled => "cancelled",
            Verdict::Error(_) => "ERROR",
        };
        let via = match (r.cache_hit, r.winner_name()) {
            (true, _) => " (cache)".to_string(),
            (false, Some(winner)) => format!(" ({winner})"),
            (false, None) => String::new(),
        };
        let detail = match &r.verdict {
            Verdict::Sat(rzen_engine::Witness::Packet(p)) => {
                format!("  witness {}", describe_header(&p.overlay_header))
            }
            _ => String::new(),
        };
        println!("  {label:<24} {verdict}{via}{detail}");
    }
    println!("{}", report.stats);

    if let Some(path) = &stats_json {
        std::fs::write(path, report.to_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        println!("stats json -> {path}");
    }
    if let Some(path) = &verdicts_json {
        std::fs::write(path, report.verdicts_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        println!("verdicts json -> {path}");
    }
    if let Some(window) = capture.map(Capture::finish) {
        if let Some(path) = &trace_path {
            std::fs::write(path, rzen_obs::export::chrome_trace(&window.events))
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            println!("chrome trace -> {path} ({} events)", window.events.len());
        }
        if let Some(path) = &profile_out {
            let profile = rzen_obs::profile::Profile::cpu(&window);
            std::fs::write(path, profile.render(path.ends_with(".svg")))
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            println!(
                "cpu profile -> {path} ({} stacks, {} µs of span wall time, \
                 {} events lost)",
                profile.rows.len(),
                profile.total(),
                window.dropped
            );
        }
        if show_metrics {
            print!("{}", rzen_obs::export::phase_report(&window));
        }
    }
    if show_metrics {
        print!("{}", rzen_obs::metrics::registry().render_text());
        print!("{}", rzen_obs::flight::render_slow_text());
    }
}

/// `serve`: run the TCP query server until SIGTERM/ctrl-c, then drain
/// and flush a final metrics (and, under `RZEN_TRACE=FILE`, Chrome-trace)
/// snapshot.
fn run_serve(spec_text: &str, flags: &[String], env_trace: Option<(Capture, Option<String>)>) {
    use std::io::Write as _;

    let mut cfg = rzen_serve::ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        handle_signals: true,
        ..Default::default()
    };
    let mut engine = rzen_engine::EngineConfig {
        jobs: cfg.jobs,
        backend: cfg.backend,
        timeout: cfg.timeout,
        cache: true,
        sessions: cfg.sessions,
    };
    let mut i = 0;
    while i < flags.len() {
        if engine_flag(&mut engine, flags, i) {
            i += 2;
            continue;
        }
        let flag = flags[i].as_str();
        match flag {
            "--addr" => cfg.addr = flag_value(flags, i, "HOST:PORT").to_string(),
            "--backlog" => cfg.backlog = parse_flag(flag, flag_value(flags, i, "N")),
            "--idle-timeout-ms" => {
                let ms = parse_flag(flag, flag_value(flags, i, "MS"));
                if ms == 0 {
                    fail("--idle-timeout-ms must be at least 1");
                }
                cfg.idle_timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--debug-ops" => {
                cfg.debug_ops = true;
                i += 1;
                continue;
            }
            "--flight-recorder-size" => {
                let n = parse_flag(flag, flag_value(flags, i, "N"));
                if n == 0 {
                    fail("--flight-recorder-size must be at least 1");
                }
                rzen_obs::flight::set_capacity(n);
            }
            other => fail(&format!("unknown serve flag {other:?}")),
        }
        i += 2;
    }
    cfg.jobs = engine.jobs;
    cfg.backend = engine.backend;
    cfg.timeout = engine.timeout;
    cfg.sessions = engine.sessions;

    let model = rzen_serve::Model::parse(spec_text).unwrap_or_else(|e| fail(&e));
    let handle =
        rzen_serve::start(cfg, model).unwrap_or_else(|e| fail(&format!("cannot bind: {e}")));
    // Exact bound address on a flushed line: CI and scripts parse this to
    // learn the port when --addr used :0.
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.join();

    // Final observability snapshot after the drain: every in-flight span
    // is closed by now, so the export is complete.
    eprint!("{}", rzen_obs::metrics::registry().render_text());
    if let Some((capture, Some(path))) = env_trace {
        let events = capture.finish().events;
        std::fs::write(&path, rzen_obs::export::chrome_trace(&events))
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("chrome trace -> {path} ({} events)", events.len());
    }
    println!("drained; bye");
}
