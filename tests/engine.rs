//! Integration tests for the batch query engine: differential agreement
//! between portfolio and single-backend runs, cancellation soundness
//! (never a wrong verdict), and cache-hit fidelity.

use std::time::Duration;

use rzen::{Backend, Budget, FindOptions, FindOutcome, Zen, ZenFunction};
use rzen_engine::{Engine, EngineConfig, Query, QueryBackend, Verdict};
use rzen_net::acl::{Acl, AclRule};
use rzen_net::gen::{random_acl, random_route_map, spine_leaf};
use rzen_net::topology::DeltaStep;

/// A mixed batch of seeded-random queries with a spread of Sat and Unsat
/// answers: last-line finds (reachable), beyond-last-line finds
/// (unsatisfiable), route-map clause finds, and fabric reachability.
fn mixed_queries() -> Vec<Query> {
    let mut queries = Vec::new();
    for seed in 0..7u64 {
        let acl = random_acl(60, seed);
        let last = acl.rules.len() as u16;
        queries.push(Query::AclFind {
            acl: acl.clone(),
            target_line: last,
        });
        // No rule with this index exists, so the query is Unsat.
        queries.push(Query::AclFind {
            acl,
            target_line: last + 1,
        });
    }
    for seed in 0..5u64 {
        let map = random_route_map(8, seed);
        let last = map.clauses.len() as u16;
        queries.push(Query::RouteMapFind {
            map: map.clone(),
            target_clause: last,
            list_bound: 3,
        });
        queries.push(Query::RouteMapFind {
            map,
            target_clause: last + 1,
            list_bound: 3,
        });
    }
    let net = spine_leaf(2, 3);
    for (src, dst) in [(2usize, 3usize), (3, 4), (4, 2)] {
        queries.push(Query::Reach {
            net: net.clone(),
            src: (src, 99),
            dst: (dst, 99),
        });
        queries.push(Query::Drops {
            net: net.clone(),
            src: (src, 99),
            dst: (dst, 99),
        });
    }
    assert_eq!(queries.len(), 30);
    queries
}

fn verdict_kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::Sat(_) => "sat",
        Verdict::Unsat => "unsat",
        Verdict::Timeout => "timeout",
        Verdict::Cancelled => "cancelled",
        Verdict::Error(_) => "error",
    }
}

/// Every way a query can reach a backend: runner keeps a session or not,
/// crossed with which runners the worker owns.
fn solve_modes() -> impl Iterator<Item = (bool, QueryBackend)> {
    [false, true].into_iter().flat_map(|sessions| {
        [
            QueryBackend::Bdd,
            QueryBackend::Smt,
            QueryBackend::Portfolio,
        ]
        .into_iter()
        .map(move |backend| (sessions, backend))
    })
}

/// Out of bounds for the 3-device fabric, so path enumeration panics.
fn poison_query() -> Query {
    Query::Reach {
        net: spine_leaf(1, 2),
        src: (99, 99),
        dst: (0, 99),
    }
}

#[test]
fn portfolio_agrees_with_each_sequential_backend() {
    let queries = mixed_queries();
    let run = |backend: QueryBackend, jobs: usize| {
        Engine::new(EngineConfig {
            jobs,
            backend,
            timeout: None,
            cache: false,
            sessions: false,
        })
        .run_batch(&queries)
    };
    let bdd = run(QueryBackend::Bdd, 1);
    let smt = run(QueryBackend::Smt, 1);
    let portfolio = run(QueryBackend::Portfolio, 4);

    for (i, q) in queries.iter().enumerate() {
        let kb = verdict_kind(&bdd.results[i].verdict);
        let ks = verdict_kind(&smt.results[i].verdict);
        let kp = verdict_kind(&portfolio.results[i].verdict);
        assert_eq!(kb, ks, "query {i} ({}): bdd vs smt disagree", q.kind());
        assert_eq!(kb, kp, "query {i} ({}): portfolio disagrees", q.kind());
        // Witnesses may legitimately differ between backends; each must
        // check out against the concrete reference semantics.
        for report in [&bdd, &smt, &portfolio] {
            if let Verdict::Sat(w) = &report.results[i].verdict {
                assert!(q.check_witness(w), "query {i} ({}): bad witness", q.kind());
            }
        }
    }
    // The batch has both kinds of answers, so agreement is non-vacuous.
    assert!(portfolio.stats.sat > 0 && portfolio.stats.unsat > 0);
    // Portfolio attributes every decisive verdict to a winning backend.
    assert_eq!(
        portfolio.stats.bdd_wins + portfolio.stats.smt_wins,
        queries.len()
    );
}

#[test]
fn cancelled_find_is_never_a_wrong_verdict() {
    // A pre-cancelled budget must yield Cancelled from both backends —
    // deterministically, regardless of how satisfiable the query is.
    let budget = Budget::unlimited();
    budget.cancel();
    for opts in [FindOptions::bdd(), FindOptions::smt()] {
        for seed in 0..3u64 {
            let acl = random_acl(40, seed);
            let last = acl.rules.len() as u16;
            let f = ZenFunction::new(move |h| acl.clone().matched_line(h));
            let report = f.find_budgeted(|_, line| line.eq(Zen::val(last)), &opts, &budget);
            assert!(
                matches!(report.outcome, FindOutcome::Cancelled),
                "backend {:?} returned a verdict under a cancelled budget",
                opts.backend
            );
        }
    }
    rzen::reset_ctx();
}

#[test]
fn solver_stays_usable_after_cancellation() {
    // Cancellation must not poison later solves on the same thread.
    let cancelled = Budget::unlimited();
    cancelled.cancel();
    let acl = random_acl(40, 7);
    let last = acl.rules.len() as u16;
    let mk = {
        let acl = acl.clone();
        move || {
            let acl = acl.clone();
            ZenFunction::new(move |h| acl.clone().matched_line(h))
        }
    };
    for opts in [FindOptions::bdd(), FindOptions::smt()] {
        let report = mk().find_budgeted(|_, line| line.eq(Zen::val(last)), &opts, &cancelled);
        assert!(matches!(report.outcome, FindOutcome::Cancelled));
        let report = mk().find_budgeted(
            |_, line| line.eq(Zen::val(last)),
            &opts,
            &Budget::unlimited(),
        );
        let FindOutcome::Found(h) = report.outcome else {
            panic!("fresh budget must solve normally after a cancellation");
        };
        assert_eq!(acl.matched_line_concrete(&h), last);
    }
    rzen::reset_ctx();
}

#[test]
fn expired_timeout_degrades_to_timeout_without_wedging_the_batch() {
    let queries = mixed_queries();
    // Ground truth under an unlimited budget, for cross-checking any
    // verdict that sneaks in before the first budget poll.
    let truth = Engine::new(EngineConfig {
        jobs: 1,
        backend: QueryBackend::Bdd,
        timeout: None,
        cache: false,
        sessions: false,
    })
    .run_batch(&queries);

    for (sessions, backend) in solve_modes() {
        let engine = Engine::new(EngineConfig {
            jobs: 4,
            backend,
            timeout: Some(Duration::ZERO),
            cache: true,
            sessions,
        });
        let mode = format!("sessions={sessions} backend={backend:?}");
        let report = engine.run_batch(&queries);
        assert_eq!(report.results.len(), queries.len(), "{mode}: must complete");
        for r in &report.results {
            // Queries small enough to be decided during compilation
            // (constant folding, empty path sets) may legitimately finish
            // before the first budget poll — but a decisive verdict must
            // never be WRONG.
            match &r.verdict {
                Verdict::Timeout => {}
                Verdict::Sat(w) => {
                    assert_eq!(verdict_kind(&truth.results[r.index].verdict), "sat");
                    assert!(
                        queries[r.index].check_witness(w),
                        "{mode}: timeout race gave a bogus witness"
                    );
                }
                Verdict::Unsat => {
                    assert_eq!(verdict_kind(&truth.results[r.index].verdict), "unsat");
                }
                Verdict::Cancelled => panic!("{mode}: expired deadline should map to Timeout"),
                Verdict::Error(e) => panic!("{mode}: no query in this batch panics: {e}"),
            }
        }
        assert!(
            report.stats.timeout > 0,
            "{mode}: heavy queries must time out"
        );
    }
}

#[test]
fn cache_hits_reproduce_cold_verdicts() {
    let queries = mixed_queries();
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        backend: QueryBackend::Portfolio,
        timeout: None,
        cache: true,
        sessions: false,
    });
    let cold = engine.run_batch(&queries);
    assert_eq!(cold.stats.cache_hits, 0, "first run is all misses");
    let warm = engine.run_batch(&queries);
    assert_eq!(
        warm.stats.cache_hits,
        queries.len(),
        "every decisive verdict must be served from cache on the second run"
    );
    for (c, w) in cold.results.iter().zip(&warm.results) {
        assert!(w.cache_hit);
        assert_eq!(c.verdict, w.verdict, "cache hit changed the verdict");
    }
    // Cache hits skip solving entirely: no substrate stats attached.
    assert!(warm
        .results
        .iter()
        .all(|r| r.sat_stats.is_none() && r.bdd_stats.is_none()));
}

#[test]
fn duplicate_queries_in_one_batch_share_the_cache() {
    let acl = random_acl(50, 11);
    let last = acl.rules.len() as u16;
    let q = Query::AclFind {
        acl,
        target_line: last,
    };
    let queries: Vec<Query> = std::iter::repeat_with(|| q.clone()).take(8).collect();
    let engine = Engine::new(EngineConfig {
        jobs: 1, // deterministic: the first solve populates the cache
        backend: QueryBackend::Portfolio,
        timeout: None,
        cache: true,
        sessions: false,
    });
    let report = engine.run_batch(&queries);
    assert_eq!(report.stats.cache_hits, 7);
    assert!(report
        .results
        .iter()
        .all(|r| matches!(r.verdict, Verdict::Sat(_))));
}

#[test]
fn engine_does_not_disturb_the_callers_context() {
    // Building a symbolic expression, then solving — a batch, or one
    // query through a worker the test thread itself holds — then using
    // the expression must work: only runner threads ever reset a context.
    let x = Zen::<u8>::symbolic(2);
    let expr = x.eq(Zen::val(42u8));
    let acl = random_acl(30, 3);
    let last = acl.rules.len() as u16;
    let q = Query::AclFind {
        acl,
        target_line: last,
    };
    for (sessions, backend) in solve_modes() {
        let engine = Engine::new(EngineConfig {
            backend,
            sessions,
            ..EngineConfig::default()
        });
        let mode = format!("sessions={sessions} backend={backend:?}");
        let batch = engine.run_batch(std::slice::from_ref(&q));
        assert!(
            matches!(batch.results[0].verdict, Verdict::Sat(_)),
            "{mode}"
        );

        // `run_one` on the calling thread, including across a poisoned
        // query: the runner that panicked must be rebuilt, not lost.
        engine.clear_cache();
        let worker = engine.serve_worker();
        let one = |q: &Query| {
            let ctx = rzen_obs::RequestCtx::mint(q.model_fingerprint(), 0);
            engine.run_one(q, Budget::unlimited(), &worker, ctx).verdict
        };
        assert!(matches!(one(&poison_query()), Verdict::Error(_)), "{mode}");
        assert!(
            matches!(one(&q), Verdict::Sat(_)),
            "{mode}: the runner must survive a poisoned query"
        );
    }
    // A delta sweep over in-cone SAT entries replays their witnesses,
    // which builds expressions, but never in the caller's context.
    let old = spine_leaf(2, 3);
    let mut new = old.clone();
    new.devices[3].interfaces.last_mut().unwrap().acl_in = Some(Acl {
        rules: vec![
            AclRule {
                dst_ports: (23, 23),
                ..AclRule::any(false)
            },
            AclRule::any(true),
        ],
    });
    let engine = Engine::new(EngineConfig::default());
    let leaf1_pairs: Vec<Query> = [(2, 99), (4, 99)]
        .into_iter()
        .flat_map(|other| [((3, 99), other), (other, (3, 99))])
        .flat_map(|(src, dst)| {
            [
                Query::Reach {
                    net: old.clone(),
                    src,
                    dst,
                },
                Query::Drops {
                    net: old.clone(),
                    src,
                    dst,
                },
            ]
        })
        .collect();
    engine.run_batch(&leaf1_pairs);
    let exprs = rzen::with_ctx(|ctx| ctx.num_exprs());
    let stats = engine.apply_delta(&old, &new, &[DeltaStep]);
    assert!(stats.revalidated > 0, "{stats:?}");
    assert_eq!(
        rzen::with_ctx(|ctx| ctx.num_exprs()),
        exprs,
        "a delta sweep grew the caller's context"
    );

    // The caller's handles are still alive and solvable.
    let f = ZenFunction::new(move |_: Zen<u8>| expr);
    assert!(f.find(|_, r| r, &FindOptions::bdd()).is_some());
    rzen::reset_ctx();
}

#[test]
fn per_backend_stats_are_populated() {
    let acl = random_acl(80, 5);
    let last = acl.rules.len() as u16;
    let q = Query::AclFind {
        acl,
        target_line: last,
    };
    let run = |backend| {
        Engine::new(EngineConfig {
            jobs: 1,
            backend,
            timeout: None,
            cache: false,
            sessions: false,
        })
        .run_batch(std::slice::from_ref(&q))
    };
    let bdd = run(QueryBackend::Bdd);
    assert!(bdd.stats.bdd_nodes > 0);
    assert_eq!(bdd.stats.bdd_wins, 1);
    let smt = run(QueryBackend::Smt);
    assert!(smt.stats.sat_propagations > 0);
    assert_eq!(smt.stats.smt_wins, 1);
    // The solve happened under backend `Backend::Smt` — sanity-check the
    // public enum is what the result reports.
    assert_eq!(smt.results[0].winner, Some(Backend::Smt));
}

#[test]
fn poisoned_query_does_not_abort_the_batch() {
    // Regression: a panic inside one query used to unwind its worker and
    // abort the whole batch at slot collection.
    let mut queries = mixed_queries();
    let poison = poison_query();
    let idx = queries.len() / 2;
    queries.insert(idx, poison.clone());
    for (sessions, backend) in solve_modes() {
        let engine = Engine::new(EngineConfig {
            jobs: 4,
            backend,
            timeout: None,
            cache: true,
            sessions,
        });
        let mode = format!("sessions={sessions} backend={backend:?}");
        let report = engine.run_batch(&queries);
        assert_eq!(report.results.len(), queries.len(), "{mode}: must complete");
        assert!(
            matches!(report.results[idx].verdict, Verdict::Error(_)),
            "{mode}: the poisoned query must surface as an error, got {:?}",
            report.results[idx].verdict
        );
        assert_eq!(report.stats.errors, 1, "{mode}");
        for (i, r) in report.results.iter().enumerate() {
            if i == idx {
                continue;
            }
            assert!(
                matches!(r.verdict, Verdict::Sat(_) | Verdict::Unsat),
                "{mode}: query {i} must still be decided despite the poisoned neighbor"
            );
        }
        // Errors are never cached: a rerun re-executes (and re-fails) the
        // poisoned query instead of replaying a bogus cached verdict.
        let rerun = engine.run_batch(std::slice::from_ref(&poison));
        assert!(
            matches!(rerun.results[0].verdict, Verdict::Error(_)),
            "{mode}"
        );
        assert!(!rerun.results[0].cache_hit, "{mode}");
        if sessions {
            probes_after_a_panic_rebuild_the_model(backend, &poison);
        }
    }
}

/// On one worker, the poison lands between probes of one ACL: the session
/// memoised the ACL before the panic, and the probes after it must be
/// answered over a model built in the rebuilt arena — the memo goes with
/// the session.
fn probes_after_a_panic_rebuild_the_model(backend: QueryBackend, poison: &Query) {
    let acl = random_acl(60, 3);
    let last = acl.rules.len() as u16;
    let probe = |target_line| Query::AclFind {
        acl: acl.clone(),
        target_line,
    };
    let batch = [
        probe(last),
        poison.clone(),
        probe(last - 1),
        probe(last + 1),
    ];
    let run = |sessions| {
        Engine::new(EngineConfig {
            jobs: 1,
            backend,
            timeout: None,
            cache: false,
            sessions,
        })
        .run_batch(&batch)
    };
    let (fresh, session) = (run(false), run(true));
    for (i, q) in batch.iter().enumerate() {
        let (f, s) = (&fresh.results[i].verdict, &session.results[i].verdict);
        assert_eq!(verdict_kind(f), verdict_kind(s), "{backend:?} query {i}");
        if let Verdict::Sat(w) = s {
            assert!(q.check_witness(w), "{backend:?} query {i}: bad witness");
        }
    }
    assert!(matches!(session.results[1].verdict, Verdict::Error(_)));
    assert_eq!(verdict_kind(&session.results[3].verdict), "unsat");
}

#[test]
fn empty_batch_yields_a_well_formed_report() {
    // The idle path: no queries must mean no worker spawn and a report
    // whose every statistic is defined (percentiles on zero samples used
    // to index into an empty vector).
    for sessions in [false, true] {
        let engine = Engine::new(EngineConfig {
            jobs: 4,
            backend: QueryBackend::Portfolio,
            timeout: None,
            cache: true,
            sessions,
        });
        let report = engine.run_batch(&[]);
        assert!(report.results.is_empty());
        assert_eq!(report.stats.total, 0);
        assert_eq!(report.stats.errors, 0);
        assert_eq!(report.stats.cache_hits, 0);
        assert_eq!(report.stats.latency_p50, Duration::ZERO);
        assert_eq!(report.stats.latency_p95, Duration::ZERO);
        assert_eq!(report.stats.latency_max, Duration::ZERO);
        // The human rendering must not divide by zero either.
        let _ = format!("{}", report.stats);
    }
}
