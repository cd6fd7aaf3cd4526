//! Observability integration tests: the disabled-path overhead contract
//! on the substrate hot paths, cross-subsystem span coverage through the
//! batch engine, and metric accumulation.
//!
//! The disabled-path test needs no capture live anywhere in the process,
//! so every test here is serialized behind one mutex (the test harness
//! runs each `#[test]` on its own thread, so the thread-local buffer
//! checks see a fresh thread per test).

use rzen_bdd::BddManager;
use rzen_engine::{Engine, EngineConfig, Query, QueryBackend};
use rzen_net::gen::random_acl;
use rzen_sat::{Lit, SolveStatus, Solver};

/// Tests that start captures, or need none live, must not interleave.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drive the BDD manager's `mk()` choke point hard: a blend of
/// conjunctions, disjunctions, and parities over 24 variables.
fn mk_heavy_workload() {
    let mut m = BddManager::new();
    let mut acc = m.constant(true);
    let mut parity = m.constant(false);
    for v in 0..24u32 {
        let x = m.var(v);
        let y = m.var((v * 7 + 3) % 24);
        let clause = m.or(x, y);
        acc = m.and(acc, clause);
        parity = m.xor(parity, x);
    }
    let both = m.and(acc, parity);
    assert!(m.stats().nodes > 24, "workload must exercise mk()");
    std::hint::black_box(both);
}

/// Drive CDCL `propagate()` hard: the pigeonhole principle PHP(5,4),
/// unsatisfiable with real conflict analysis.
fn propagate_heavy_workload() {
    let n_holes = 4usize;
    let n_pigeons = 5usize;
    let mut s = Solver::new();
    let vars: Vec<Vec<Lit>> = (0..n_pigeons)
        .map(|_| (0..n_holes).map(|_| Lit::pos(s.new_var())).collect())
        .collect();
    for p in &vars {
        s.add_clause(p);
    }
    for h in 0..n_holes {
        for (a, pa) in vars.iter().enumerate() {
            for pb in &vars[a + 1..] {
                s.add_clause(&[!pa[h], !pb[h]]);
            }
        }
    }
    assert_eq!(s.solve_limited(&[]), SolveStatus::Unsat);
    assert!(s.stats.propagations > 0);
}

#[test]
fn disabled_hot_paths_allocate_and_record_nothing() {
    let _g = lock();
    let recorded_before = rzen_obs::trace::events_recorded();

    mk_heavy_workload();
    propagate_heavy_workload();

    // The whole disabled-path cost is one relaxed load per hook: no event
    // was recorded anywhere, and this thread never allocated (or locked)
    // a trace ring buffer.
    assert_eq!(
        rzen_obs::trace::events_recorded(),
        recorded_before,
        "disabled tracing must record nothing"
    );
    assert!(
        !rzen_obs::trace::thread_buffer_allocated(),
        "disabled tracing must not allocate a ring buffer"
    );
}

#[test]
fn enabled_batch_records_spans_from_four_subsystems() {
    let _g = lock();
    let capture = rzen_obs::trace::Capture::start();

    let acl = random_acl(40, 1);
    let last = acl.rules.len() as u16;
    let queries = [
        Query::AclFind {
            acl: acl.clone(),
            target_line: last,
        },
        Query::AclFind {
            acl,
            target_line: last + 1,
        },
    ];
    // Sequential per-backend batches: both substrates run to completion,
    // so their spans are recorded deterministically (a portfolio race
    // could cancel one side before its solve span opens).
    for backend in [QueryBackend::Bdd, QueryBackend::Smt] {
        Engine::new(EngineConfig {
            jobs: 2,
            backend,
            timeout: None,
            cache: false,
            sessions: false,
        })
        .run_batch(&queries);
    }

    let window = capture.finish();
    let events = &window.events;
    let subsystems: std::collections::BTreeSet<&str> = events
        .iter()
        .map(|e| e.name.split('.').next().unwrap())
        .collect();
    for want in ["bdd", "sat", "bitblast", "engine"] {
        assert!(
            subsystems.contains(want),
            "no spans from {want:?}; saw {subsystems:?}"
        );
    }
    // Spans carry real durations and the exporters accept the batch.
    assert!(events
        .iter()
        .any(|e| e.phase == rzen_obs::trace::Phase::Span && e.name == "engine.batch"));
    let trace = rzen_obs::export::chrome_trace(events);
    rzen_obs::json::validate(&trace).expect("chrome trace must be valid JSON");
    let report = rzen_obs::export::phase_report(&window);
    assert!(report.contains("engine.batch"));
}

#[test]
fn metrics_accumulate_across_batches() {
    let _g = lock();
    let solves = rzen_obs::metrics::registry().counter("bdd.solves", "");
    let queries_counter = rzen_obs::metrics::registry().counter("engine.queries", "");
    let before_solves = solves.get();
    let before_queries = queries_counter.get();

    let acl = random_acl(30, 2);
    let last = acl.rules.len() as u16;
    Engine::new(EngineConfig {
        jobs: 1,
        backend: QueryBackend::Bdd,
        timeout: None,
        cache: false,
        sessions: false,
    })
    .run_batch(&[Query::AclFind {
        acl,
        target_line: last,
    }]);

    assert!(solves.get() > before_solves, "bdd.solves must advance");
    assert_eq!(queries_counter.get(), before_queries + 1);
    // The registry snapshot renders to valid JSON for --stats-json.
    let mut json = rzen_obs::json::Writer::new();
    rzen_obs::metrics::registry().write_json(&mut json);
    rzen_obs::json::validate(&json.finish()).expect("metrics JSON must be valid");
}

#[test]
fn query_latency_histogram_records_decision_time() {
    let _g = lock();
    let hist = rzen_obs::metrics::registry().histogram("engine.query_us", "");
    let before_count = hist.count();
    let before_sum = hist.sum();

    let acl = random_acl(40, 3);
    let last = acl.rules.len() as u16;
    let queries = [
        Query::AclFind {
            acl: acl.clone(),
            target_line: last,
        },
        Query::AclFind {
            acl,
            target_line: last + 1,
        },
    ];
    let report = Engine::new(EngineConfig {
        jobs: 2,
        backend: QueryBackend::Portfolio,
        timeout: None,
        cache: false,
        sessions: false,
    })
    .run_batch(&queries);

    // One observation per solved query, and the recorded latencies are
    // the decision-time stamps from the results — for a portfolio race
    // that is when the winner answered, not when the loser finished
    // draining.
    assert_eq!(hist.count(), before_count + queries.len() as u64);
    let observed: u64 = report
        .results
        .iter()
        .map(|r| r.latency.as_micros() as u64)
        .sum();
    assert_eq!(hist.sum() - before_sum, observed);
}

/// Assert one Prometheus text exposition is internally well formed:
/// every sample belongs to a family announced by a `# TYPE` line,
/// counter families end in `_total`, and every histogram series has
/// ascending `le` bounds, nondecreasing cumulative bucket values, and a
/// `+Inf` bucket equal to its `_count`.
fn assert_exposition_well_formed(text: &str) {
    use std::collections::HashMap;
    let mut kinds: HashMap<&str, &str> = HashMap::new();
    // Per histogram series (family + labels-without-le): the cumulative
    // bucket values in emission order, the last finite le bound, the
    // +Inf value, and the _count value.
    let mut last_cum: HashMap<String, u64> = HashMap::new();
    let mut last_le: HashMap<String, u64> = HashMap::new();
    let mut infs: HashMap<String, u64> = HashMap::new();
    let mut counts: HashMap<String, u64> = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            kinds.insert(it.next().unwrap(), it.next().expect("TYPE carries a kind"));
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed sample line {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        let name = series.split('{').next().unwrap();
        // A histogram's samples carry _bucket/_sum/_count suffixes on
        // the family name; everything else samples the family directly.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| {
                name.strip_suffix(s)
                    .filter(|f| kinds.get(f) == Some(&"histogram"))
            })
            .unwrap_or(name);
        let kind = *kinds
            .get(family)
            .unwrap_or_else(|| panic!("sample before its # TYPE line: {line:?}"));
        match kind {
            "counter" => assert!(
                family.ends_with("_total"),
                "counter family {family} must end in _total"
            ),
            "gauge" => {}
            "histogram" => {
                let labels = &series[name.len()..];
                if name.ends_with("_bucket") {
                    let le_start = labels
                        .rfind("le=\"")
                        .unwrap_or_else(|| panic!("bucket sample without le: {line:?}"));
                    let le = &labels[le_start + 4..labels.len() - 2];
                    let key = format!(
                        "{family}{}",
                        labels[..le_start]
                            .trim_end_matches(',')
                            .trim_end_matches('{')
                    );
                    let cum = value as u64;
                    if le == "+Inf" {
                        infs.insert(key, cum);
                    } else {
                        let le: u64 = le
                            .parse()
                            .unwrap_or_else(|_| panic!("non-integer le in {line:?}"));
                        if let Some(&prev) = last_le.get(&key) {
                            assert!(le > prev, "le bounds must ascend: {line:?}");
                        }
                        if let Some(&prev) = last_cum.get(&key) {
                            assert!(
                                cum >= prev,
                                "cumulative buckets must not decrease: {line:?}"
                            );
                        }
                        last_le.insert(key.clone(), le);
                        last_cum.insert(key, cum);
                    }
                } else if name.ends_with("_count") {
                    counts.insert(
                        format!("{family}{}", labels.trim_end_matches('}')),
                        value as u64,
                    );
                }
            }
            other => panic!("unknown metric kind {other:?}"),
        }
    }
    for (key, inf) in &infs {
        if let Some(&last) = last_cum.get(key) {
            assert!(
                *inf >= last,
                "+Inf bucket below the last finite bucket: {key}"
            );
        }
        assert_eq!(
            counts.get(key),
            Some(inf),
            "+Inf bucket must equal _count for {key}"
        );
    }
    assert!(!infs.is_empty(), "exposition carries no histograms?");
}

#[test]
fn prometheus_exposition_stays_well_formed_under_concurrent_updates() {
    let _g = lock();
    let reg = rzen_obs::metrics::registry();
    // A label value needing every escape in the book.
    reg.counter_with(
        "obs_test.weird_labels",
        "label escaping fixture",
        &[("path", "a\\b\"c\nd")],
    )
    .inc();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|t: u64| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let reg = rzen_obs::metrics::registry();
                let h = reg.histogram("obs_test.expo_us", "exposition fixture histogram");
                let parity = if t.is_multiple_of(2) { "even" } else { "odd" };
                let c = reg.counter_with(
                    "obs_test.expo_events",
                    "exposition fixture counter",
                    &[("src", parity)],
                );
                let mut v: u64 = t + 1;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    h.observe(v % 100_000);
                    c.inc();
                    v = v
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                }
            })
        })
        .collect();

    // Render repeatedly *while* the writers hammer the registry: each
    // exposition must be internally consistent on its own — in
    // particular +Inf == _count, which the renderer guarantees by
    // deriving both from one read of the bucket array.
    for _ in 0..25 {
        assert_exposition_well_formed(&reg.render_prometheus());
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }

    let text = reg.render_prometheus();
    assert_exposition_well_formed(&text);
    assert!(text.contains("# HELP obs_test_expo_events_total exposition fixture counter"));
    assert!(text.contains("# TYPE obs_test_expo_events_total counter"));
    assert!(text.contains("obs_test_expo_events_total{src=\"even\"}"));
    assert!(text.contains("obs_test_expo_events_total{src=\"odd\"}"));
    assert!(text.contains("# TYPE obs_test_expo_us histogram"));
    assert!(
        text.contains("path=\"a\\\\b\\\"c\\nd\""),
        "label values must escape backslash, quote, and newline:\n{text}"
    );
}

/// A served query is looked up in the result cache once: the reactor's
/// probe, whose miss ticket the shard solves with. One cold `reach`
/// moves the miss counter by exactly one, one warm repeat the hit
/// counter by exactly one.
#[test]
fn a_served_query_is_looked_up_once() {
    use std::io::{BufRead, BufReader, Write};

    let _g = lock();
    let spec = include_str!("../specs/fig3.net");
    let handle = rzen_serve::start(
        rzen_serve::ServerConfig {
            jobs: 1,
            ..rzen_serve::ServerConfig::default()
        },
        rzen_serve::Model::parse(spec).unwrap(),
    )
    .unwrap();
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut reach = || {
        writer
            .write_all(b"{\"op\":\"reach\",\"src\":\"u1:1\",\"dst\":\"u3:2\"}\n")
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    let hits = rzen_obs::metrics::registry().counter("engine.cache.hits", "");
    let misses = rzen_obs::metrics::registry().counter("engine.cache.misses", "");

    let (h0, m0) = (hits.get(), misses.get());
    let cold = reach();
    assert!(cold.contains("\"cache_hit\":false"), "{cold}");
    assert_eq!((hits.get() - h0, misses.get() - m0), (0, 1), "cold reach");

    let (h0, m0) = (hits.get(), misses.get());
    let warm = reach();
    assert!(warm.contains("\"cache_hit\":true"), "{warm}");
    assert_eq!((hits.get() - h0, misses.get() - m0), (1, 0), "warm reach");

    handle.shutdown();
    handle.join();
}
