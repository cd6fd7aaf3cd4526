//! Deterministic work counts of record for the fabric slice: the
//! all-pairs reach+drops set of `spine_leaf(2, 8)` solved in-process,
//! one job, cache and sessions off. The counts are pinned exactly, so a
//! rise fails here whatever the host's speed; a change that lowers one
//! rewrites its pin and says so in CHANGES.md.

use rzen_engine::{BatchReport, Engine, EngineConfig, Query, QueryBackend, Verdict};
use rzen_net::gen::spine_leaf;

/// Reach and drops for every ordered leaf pair of `spine_leaf(s, l)`,
/// host port to host port.
fn fabric_queries(s: usize, l: usize) -> Vec<Query> {
    let net = spine_leaf(s, l);
    let mut queries = Vec::new();
    for a in s..s + l {
        for b in (s..s + l).filter(|&b| b != a) {
            let (src, dst) = ((a, 99), (b, 99));
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

fn run(queries: &[Query], backend: QueryBackend) -> BatchReport {
    let report = Engine::new(EngineConfig {
        jobs: 1,
        backend,
        timeout: None,
        cache: false,
        sessions: false,
    })
    .run_batch(queries);
    assert!(
        report
            .results
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Sat(_))),
        "every fabric pair is reachable and has a dropped packet"
    );
    report
}

/// SMT (vars created, propagations, conflicts) summed over the queries.
fn smt_counts(report: &BatchReport) -> (u64, u64, u64) {
    report
        .results
        .iter()
        .map(|r| r.sat_stats.as_ref().expect("smt stats"))
        .fold((0, 0, 0), |(v, p, c), s| {
            (v + s.vars_created, p + s.propagations, c + s.conflicts)
        })
}

/// The 112-query `spine_leaf(2, 8)` set's SMT and BDD work: each query
/// folds over its pair's one feasible path, not all 14 simple paths.
#[test]
fn fabric_slice_counts_are_pinned() {
    let queries = fabric_queries(2, 8);
    assert_eq!(queries.len(), 112);
    let (vars, propagations, conflicts) = smt_counts(&run(&queries, QueryBackend::Smt));
    let nodes = run(&queries, QueryBackend::Bdd).stats.bdd_nodes;
    assert_eq!(
        (vars, propagations, conflicts, nodes),
        (11_556, 11_556, 0, 211_932),
        "(SMT vars created, propagations, conflicts, BDD nodes)"
    );
}

/// Each leaf pair of a spine-leaf fabric has exactly one route, and the
/// walk finds it and only it: `spine_leaf(4, 12)` has 19,564 simple
/// paths between two leaves.
#[test]
fn every_fabric_leaf_pair_has_one_feasible_path() {
    for s in 1..=4 {
        for l in 2..=12 {
            let net = spine_leaf(s, l);
            for a in s..s + l {
                for b in (s..s + l).filter(|&b| b != a) {
                    let n = net.feasible_paths(a, 99, b, 99).len();
                    assert_eq!(n, 1, "spine_leaf({s}, {l}): leaf {a} -> leaf {b}");
                }
            }
        }
    }
}

/// A query's CNF does not grow with the spine count: SMT vars created
/// per `spine_leaf(4, 12)` query stay within 2x of a `spine_leaf(2, 8)`
/// query.
#[test]
fn cnf_per_query_does_not_grow_with_the_fabric() {
    let per_query = |s, l| {
        let queries = fabric_queries(s, l);
        let (vars, _, _) = smt_counts(&run(&queries, QueryBackend::Smt));
        vars as f64 / queries.len() as f64
    };
    let (small, large) = (per_query(2, 8), per_query(4, 12));
    assert!(
        large <= 2.0 * small,
        "{large:.1} CNF vars per spine_leaf(4, 12) query against {small:.1} per spine_leaf(2, 8) query"
    );
}
