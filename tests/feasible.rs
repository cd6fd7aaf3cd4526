//! Reach and drops are solved over a pair's feasible paths
//! (`Network::feasible_paths`), the simple paths some packet may
//! survive. These tests hold the engine's verdicts to a solve of the same
//! query over all simple paths, on both backends, and check that a pair
//! no packet can cross is answered without a solve.

use std::path::PathBuf;

use rzen::{Backend, FindOptions, Zen, ZenFunction};
use rzen_engine::{BatchReport, Engine, EngineConfig, Query, QueryBackend, Verdict};
use rzen_net::device::fold_paths;
use rzen_net::gen::{leaf_prefix, spine_leaf};
use rzen_net::headers::Packet;
use rzen_net::topology::Network;

/// A tunnel and a DNAT that decide where packets go: `x` only routes
/// 198.51.100.0/24 into `b`, whose ingress DNAT sends it on to `d`, and
/// `a`'s tunnel carries everything to `c`.
const TUNNEL_AND_DNAT: &str = "\
device a
  intf 1
  intf 2 gre-start 192.168.0.1 192.168.0.3
device x
  intf 1
  intf 2
device b
  intf 1
  intf 2
  intf 3
  intf 4 dnat 198.51.100.0/24 10.0.0.5
device c
  intf 1 gre-end 192.168.0.1 192.168.0.3
  intf 2
device d
  intf 1
  intf 2
route a 0.0.0.0/0 2
route x 198.51.100.0/24 2
route b 10.0.0.0/8 3
route b 192.168.0.3/32 2
route c 0.0.0.0/0 2
route d 0.0.0.0/0 2
link a:2 b:1
link x:2 b:4
link b:2 c:1
link b:3 d:1
";

/// `spine_leaf(2, 4)` with leaf 0's FIB missing leaf 1's prefix: leaf 0
/// has simple paths to leaf 1, and no packet takes any of them.
fn fabric_missing_a_route() -> Network {
    let mut net = spine_leaf(2, 4);
    for i in &mut net.devices[2].interfaces {
        i.table.rules.retain(|r| r.prefix != leaf_prefix(1));
    }
    net
}

/// Reach and drops over every ordered pair of `ports` of `net`.
fn pair_queries(net: &Network, ports: &[(usize, u8)]) -> Vec<Query> {
    let mut queries = Vec::new();
    for &src in ports {
        for &dst in ports.iter().filter(|&&d| d != src) {
            queries.push(Query::Reach {
                net: net.clone(),
                src,
                dst,
            });
            queries.push(Query::Drops {
                net: net.clone(),
                src,
                dst,
            });
        }
    }
    queries
}

fn leaves(s: usize, l: usize) -> Vec<(usize, u8)> {
    (s..s + l).map(|d| (d, 99)).collect()
}

/// Every edge-port pair of every `specs/*.net` and of the tunnel/DNAT
/// network, the leaf pairs of two small fabrics, and of the fabric with
/// a missing route.
fn queries() -> Vec<Query> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut texts: Vec<String> = std::fs::read_dir(dir)
        .expect("specs dir")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "net"))
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    texts.push(TUNNEL_AND_DNAT.into());
    let mut queries = Vec::new();
    for text in &texts {
        let spec = rzen_net::spec::parse(text).expect("spec");
        queries.extend(pair_queries(&spec.net, &spec.edge_ports()));
    }
    for (s, l) in [(2, 4), (3, 3)] {
        queries.extend(pair_queries(&spine_leaf(s, l), &leaves(s, l)));
    }
    queries.extend(pair_queries(&fabric_missing_a_route(), &leaves(2, 4)));
    queries
}

fn run(queries: &[Query], backend: QueryBackend) -> BatchReport {
    Engine::new(EngineConfig {
        jobs: 2,
        backend,
        timeout: None,
        cache: false,
        sessions: false,
    })
    .run_batch(queries)
}

/// The verdict class of a `Reach`/`Drops` solved by core's fresh
/// pipeline over **all** the pair's simple paths; a witness must check
/// out.
fn over_simple_paths(query: &Query, backend: Backend) -> &'static str {
    let (Query::Reach { net, src, dst } | Query::Drops { net, src, dst }) = query else {
        unreachable!("only topology queries here")
    };
    let reach = matches!(query, Query::Reach { .. });
    rzen::reset_ctx();
    let paths = net.paths(src.0, src.1, dst.0, dst.1);
    let cond = |p, _| {
        if reach {
            fold_paths(&paths, p, Zen::bool(false), |any, out| {
                any.or(out.is_some())
            })
        } else {
            fold_paths(&paths, p, Zen::bool(true), |all, out| {
                all.and(out.is_none())
            })
        }
    };
    let f = ZenFunction::new(|p: Zen<Packet>| p);
    let opts = FindOptions {
        backend,
        ..FindOptions::default()
    };
    let found = f.find(cond, &opts);
    rzen::reset_ctx();
    match found {
        Some(p) => {
            let w = rzen_engine::Witness::Packet(p);
            assert!(query.check_witness(&w), "{query:?}: bad witness {w:?}");
            "sat"
        }
        None => "unsat",
    }
}

fn class(v: &Verdict) -> &'static str {
    match v {
        Verdict::Sat(_) => "sat",
        Verdict::Unsat => "unsat",
        other => panic!("not decisive: {other:?}"),
    }
}

/// The engine (feasible paths) and a solve over all simple paths give
/// every query the same verdict class, on both backends, and every
/// engine witness passes `check_witness`, which folds over all simple
/// paths.
#[test]
fn feasible_and_simple_paths_give_the_same_verdicts() {
    let queries = queries();
    for (backend, core) in [
        (QueryBackend::Bdd, Backend::Bdd),
        (QueryBackend::Smt, Backend::Smt),
    ] {
        let report = run(&queries, backend);
        let mut unsat = 0;
        for (q, r) in queries.iter().zip(&report.results) {
            let got = class(&r.verdict);
            assert_eq!(got, over_simple_paths(q, core), "{backend:?}: {q:?}");
            if let Verdict::Sat(w) = &r.verdict {
                assert!(q.check_witness(w), "{backend:?}: {q:?}: bad witness");
            }
            unsat += (got == "unsat") as usize;
        }
        assert!(unsat > 0, "the set has UNSAT verdicts to agree on");
    }
}

/// A pair whose simple paths no packet survives: reach is UNSAT without
/// a solve (no backend reports stats), and the drops witness, which no
/// solver found either, is dropped on every simple path.
#[test]
fn a_pair_with_no_feasible_path_is_answered_without_a_solve() {
    let net = fabric_missing_a_route();
    let (src, dst) = ((2, 99), (3, 99));
    assert!(!net.paths(src.0, src.1, dst.0, dst.1).is_empty());
    assert!(net.feasible_paths(src.0, src.1, dst.0, dst.1).is_empty());
    let queries = vec![
        Query::Reach {
            net: net.clone(),
            src,
            dst,
        },
        Query::Drops { net, src, dst },
    ];
    for backend in [QueryBackend::Bdd, QueryBackend::Smt] {
        let report = run(&queries, backend);
        let (reach, drops) = (&report.results[0], &report.results[1]);
        assert_eq!(reach.verdict, Verdict::Unsat, "{backend:?}");
        let Verdict::Sat(w) = &drops.verdict else {
            panic!("{backend:?}: drops is {:?}", drops.verdict);
        };
        assert!(queries[1].check_witness(w), "{backend:?}: {w:?}");
        for r in [reach, drops] {
            assert!(
                r.sat_stats.is_none() && r.bdd_stats.is_none(),
                "{backend:?}: {} ran a solve",
                r.kind
            );
        }
    }
}

/// In the tunnel/DNAT network, the paths a rewrite opens stay feasible
/// and the ones it closes do not: `x`'s packets reach `d` only as their
/// DNAT target, and `a`'s reach `c` only through the tunnel.
#[test]
fn rewrites_keep_the_paths_they_open() {
    let net = rzen_net::spec::parse(TUNNEL_AND_DNAT).expect("spec").net;
    let (a, x, c, d) = ((0, 1), (1, 1), (3, 2), (4, 2));
    let feasible = |s: (usize, u8), t: (usize, u8)| net.feasible_paths(s.0, s.1, t.0, t.1).len();
    assert_eq!(feasible(x, d), 1);
    assert_eq!(feasible(x, c), 0);
    assert_eq!(feasible(a, c), 1);
    assert_eq!(feasible(a, d), 0);
    assert_eq!(net.paths(a.0, a.1, d.0, d.1).len(), 1);
}
