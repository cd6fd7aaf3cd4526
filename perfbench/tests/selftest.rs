//! The harness checks itself: a wrong expectation or a wrong witness
//! must surface as failed ops and an incorrect run, and what the binary
//! prints must be what `BENCHMARK.json` declares.

use perfbench::inputs::{Inputs, Kind};
use perfbench::measure::{end_to_end, RunConfig, QUICK_SCALE};
use perfbench::oracle::{self, Oracle};
use perfbench::report::Report;
use perfbench::run::set_up;
use perfbench::traced::PER_LAYER;
use rzen_engine::{Query, Verdict, Witness};
use rzen_obs::json::{parse, Value};

fn report_of(attempted: usize, failed: usize) -> Report {
    Report {
        workload: "selftest",
        seed: 0,
        attempted,
        failed,
        metrics: vec![],
        notes: vec![],
    }
}

#[test]
fn corrupting_one_expected_line_fails_ops_and_the_run() {
    let kind = Kind::AclSessions;
    let inputs = Inputs::generate(kind, 7, QUICK_SCALE);
    let mut oracle = Oracle::compute_unpinned(&inputs);
    assert!(oracle.problems.is_empty(), "{:?}", oracle.problems);

    let pinned = oracle.render(&inputs);
    oracle.pin(&inputs, &pinned);
    assert!(
        oracle.problems.is_empty(),
        "the oracle's own rendering must pin cleanly"
    );
    let (mut state, mut warm) = set_up(kind, 7, QUICK_SCALE).unwrap();
    state.judge(&mut warm, &oracle);
    assert_eq!(warm.failed, 0);
    assert!(report_of(warm.attempted, warm.failed).correct());

    let corrupted = pinned.replacen(" sat\n", " unsat\n", 1);
    assert_ne!(corrupted, pinned);
    oracle.pin(&inputs, &corrupted);
    assert_eq!(oracle.problems.len(), 1, "{:?}", oracle.problems);
    let mut again = state.run(0, QUICK_SCALE).unwrap();
    state.judge(&mut again, &oracle);
    // The query is asked once per pass; all three answers now count as wrong.
    assert_eq!(again.failed, 3);
    let report = report_of(again.attempted, again.failed);
    assert!(!report.correct());
    assert!(report.json_line().starts_with("{\"correct\":false"));
    state.tear_down();
}

#[test]
fn flipping_one_witness_bit_fails_the_op() {
    let kind = Kind::FabricBatch;
    let inputs = Inputs::generate(kind, 3, QUICK_SCALE);
    let oracle = Oracle::compute_unpinned(&inputs);
    let (mut state, mut round) = set_up(kind, 3, QUICK_SCALE).unwrap();
    state.judge(&mut round, &oracle);
    assert_eq!(round.failed, 0);

    // A delivered packet must be addressed into the destination leaf's
    // /16: the top bit of the address the fabric routes on decides it.
    let order = round.order.clone();
    let (_, results) = &mut round.passes[0];
    let hit = results
        .iter_mut()
        .find(|r| matches!(inputs.cases[order[r.index]].query, Query::Reach { .. }))
        .expect("the quick subset holds a reach query");
    let Verdict::Sat(Witness::Packet(p)) = &mut hit.verdict else {
        panic!("reach across the fabric is satisfiable");
    };
    match &mut p.underlay_header {
        Some(u) => u.dst_ip ^= 1 << 31,
        None => p.overlay_header.dst_ip ^= 1 << 31,
    }
    state.judge(&mut round, &oracle);
    assert_eq!(round.failed, 1);
    state.tear_down();

    // The same flip on the wire form a served answer carries.
    let reach = inputs
        .cases
        .iter()
        .find(|c| matches!(c.query, Query::Reach { .. }))
        .unwrap();
    let Query::Reach { dst, .. } = &reach.query else {
        unreachable!()
    };
    let leaf = (dst.0 - perfbench::inputs::SPINES) as u32;
    let good = format!("dst=10.{leaf}.0.1 src=1.2.3.4 dport=80 sport=1024 proto=6");
    let bad = format!("dst=138.{leaf}.0.1 src=1.2.3.4 dport=80 sport=1024 proto=6");
    assert!(oracle::served_ok(
        &reach.query,
        Some(Some(true)),
        "sat",
        Some(&good),
        &mut None
    ));
    assert!(!oracle::served_ok(
        &reach.query,
        Some(Some(true)),
        "sat",
        Some(&bad),
        &mut None
    ));
    assert!(!oracle::served_ok(
        &reach.query,
        Some(Some(true)),
        "unsat",
        None,
        &mut None
    ));
}

fn declared(list: &Value) -> Vec<(String, String)> {
    let Value::Arr(items) = list else {
        panic!("not a list")
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn the_binary_reports_exactly_what_benchmark_json_declares() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();

    let per_layer = declared(doc.get("per_layer").unwrap());
    let ours: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(per_layer, ours);

    let Some(Value::Arr(workloads)) = doc.get("workloads") else {
        panic!("workloads")
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, Kind::ALL.map(Kind::name));

    // One quick untraced run: the driver's line carries the end-to-end
    // list, name for name and unit for unit; no metric is ever 0; the
    // line parses; and every bound is one the issue and the benchmark
    // contract both allow.
    let report = end_to_end(&RunConfig {
        kind: Kind::AclSessions,
        seed: 2,
        seconds: 0.0,
        quick: true,
    })
    .unwrap();
    assert!(report.correct());
    let printed: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(printed, declared(doc.get("end_to_end").unwrap()));
    assert_eq!(
        report.metrics.iter().map(|m| m.name).collect::<Vec<_>>(),
        [
            "setup_s",
            "verdicts_per_s",
            "verdict_p50_ms",
            "verdict_p95_ms",
            "cpu_ms_per_verdict",
            "peak_heap_mb"
        ]
    );
    assert!(report.metrics.iter().all(|m| m.value > 0.0));
    let line = parse(&report.json_line()).unwrap();
    let Value::Obj(keys) = &line else {
        panic!("not an object")
    };
    assert_eq!(
        keys.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        ["correct", "attempted", "failed", "metrics"]
    );
    // Every bound is within the benchmark contract's ceiling, and
    // `setup_s` carries the largest, as the contract asks.
    let Some(Value::Arr(end_to_end_list)) = doc.get("end_to_end") else {
        panic!("end_to_end")
    };
    let bound = |m: &Value| match m.get("bound") {
        Some(Value::Num(b)) => *b,
        _ => panic!("bound"),
    };
    let setup = end_to_end_list
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .map(bound)
        .expect("setup_s is declared");
    for m in end_to_end_list {
        assert!(bound(m) > 0.0 && bound(m) <= setup && setup <= 0.25);
    }
}
