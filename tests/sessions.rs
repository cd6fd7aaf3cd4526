//! Session-mode engine tests: differential agreement between long-lived
//! per-worker solver sessions, sessions scoped to one query, and core's
//! fresh `find` pipeline; reuse-counter sanity; and cancellation-mid-session
//! recovery.

use std::hash::{Hash, Hasher};

use rzen::{Backend, Budget, FindOptions, FindOutcome, SolverSession, Zen, ZenFunction};
use rzen_engine::{
    BatchReport, Engine, EngineConfig, Query, QueryBackend, QueryResult, Verdict, Witness,
};
use rzen_net::acl::{Acl, AclRule};
use rzen_net::device::fold_paths;
use rzen_net::gen::{random_acl, random_route_map, spine_leaf};
use rzen_net::headers::Packet;
use rzen_net::routing::{Clause, MatchCond, RouteMap};

/// `AclFind` probes over `seeds` same-model families: for each
/// `random_acl(rules, seed)`, one query per offset, targeting line
/// `last + offset` (offset 1 is the unsatisfiable line past the end).
fn acl_families(rules: usize, seeds: u64, offsets: &[i16]) -> Vec<Query> {
    let mut queries = Vec::new();
    for seed in 0..seeds {
        let acl = random_acl(rules, seed);
        let last = acl.rules.len() as i16;
        for offset in offsets {
            queries.push(Query::AclFind {
                acl: acl.clone(),
                target_line: (last + offset) as u16,
            });
        }
    }
    queries
}

/// The same mixed 30-query batch as `tests/engine.rs`: per-model pairs of
/// Sat and Unsat ACL line finds, route-map clause finds, and fabric
/// reach/drops — every [`Query`] kind, with same-model groups so sessions
/// have something to reuse.
fn mixed_queries() -> Vec<Query> {
    let mut queries = acl_families(60, 7, &[0, 1]);
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

fn run(queries: &[Query], backend: QueryBackend, jobs: usize, sessions: bool) -> BatchReport {
    Engine::new(EngineConfig {
        jobs,
        backend,
        timeout: None,
        cache: false, // force every query through a real solve
        sessions,
    })
    .run_batch(queries)
}

/// The verdict kind of `query` from core's fresh pipeline
/// (`ZenFunction::find_budgeted`, one throwaway solver per call), with the
/// model built from public API only. It shares only the bit-level
/// compiler and the solver substrates with the engine's session path, so
/// it is the independent oracle for both engine modes; a witness must
/// check out.
fn fresh_oracle(query: &Query, backend: QueryBackend) -> &'static str {
    rzen::reset_ctx();
    let opts = FindOptions {
        backend: match backend {
            QueryBackend::Smt => Backend::Smt,
            QueryBackend::Bdd | QueryBackend::Portfolio => Backend::Bdd,
        },
        ..FindOptions::default()
    };
    let budget = Budget::unlimited();
    let witness = match query {
        Query::AclFind { acl, target_line } => {
            let (acl, k) = (acl.clone(), *target_line);
            let f = ZenFunction::new(move |h| acl.matched_line(h));
            let report = f.find_budgeted(|_, line| line.eq(Zen::val(k)), &opts, &budget);
            found(report.outcome).map(Witness::Header)
        }
        Query::RouteMapFind {
            map,
            target_clause,
            list_bound,
        } => {
            let (map, k) = (map.clone(), *target_clause);
            let f = ZenFunction::new(move |a| map.matched_clause(a));
            let opts = opts.with_list_bound(*list_bound);
            let report = f.find_budgeted(|_, clause| clause.eq(Zen::val(k)), &opts, &budget);
            found(report.outcome).map(|a| Witness::Announcement(Box::new(a)))
        }
        Query::Reach { net, src, dst } | Query::Drops { net, src, dst } => {
            let reach = matches!(query, Query::Reach { .. });
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
            found(f.find_budgeted(cond, &opts, &budget).outcome).map(Witness::Packet)
        }
    };
    rzen::reset_ctx();
    match witness {
        Some(w) => {
            assert!(
                query.check_witness(&w),
                "{query:?}: bad fresh-oracle witness"
            );
            "sat"
        }
        None => "unsat",
    }
}

fn found<A>(outcome: FindOutcome<A>) -> Option<A> {
    match outcome {
        FindOutcome::Found(a) => Some(a),
        FindOutcome::Unsat => None,
        FindOutcome::Cancelled => unreachable!("unlimited budget"),
    }
}

#[test]
fn sessions_agree_with_fresh_on_mixed_batch() {
    let queries = mixed_queries();
    for backend in [
        QueryBackend::Bdd,
        QueryBackend::Smt,
        QueryBackend::Portfolio,
    ] {
        let per_query = run(&queries, backend, 2, false);
        let session = run(&queries, backend, 2, true);
        for (i, q) in queries.iter().enumerate() {
            let kp = verdict_kind(&per_query.results[i].verdict);
            let ks = verdict_kind(&session.results[i].verdict);
            let kf = fresh_oracle(q, backend);
            assert_eq!(
                (kp, ks),
                (kf, kf),
                "query {i} ({}) under {backend:?}: (sessions off, on) disagree with core's fresh find",
                q.kind()
            );
            // Witnesses may differ (any model is a model) but all must
            // check out against the concrete semantics.
            for report in [&per_query, &session] {
                if let Verdict::Sat(w) = &report.results[i].verdict {
                    assert!(q.check_witness(w), "query {i} ({}): bad witness", q.kind());
                }
            }
        }
        assert!(session.stats.sat > 0 && session.stats.unsat > 0);
    }
}

/// Sessions off scopes each runner's session to one query: it is dropped
/// and the context reset after every reply. So a query's solver counters
/// cannot depend on what ran before it on the same runner — the same
/// batch in reverse order reports the very same counts per query. A
/// runner that kept its session would hand later same-model queries its
/// gate table, learnt clauses and BDD nodes, and their counts would move.
#[test]
fn sessions_off_carries_nothing_between_queries() {
    let forward = mixed_queries();
    let reverse: Vec<Query> = forward.iter().rev().cloned().collect();
    let counts = |r: &QueryResult| {
        let sat = r
            .sat_stats
            .map(|s| (s.vars_created, s.conflicts, s.decisions, s.propagations));
        (sat, r.bdd_stats)
    };
    for backend in [QueryBackend::Smt, QueryBackend::Bdd] {
        let fwd = run(&forward, backend, 1, false);
        let mut rev: Vec<_> = run(&reverse, backend, 1, false)
            .results
            .iter()
            .map(counts)
            .collect();
        rev.reverse();
        for (i, (r, reversed)) in fwd.results.iter().zip(&rev).enumerate() {
            let forwards = counts(r);
            assert!(forwards.0.is_some() || forwards.1.is_some());
            assert_eq!(
                &forwards,
                reversed,
                "query {i} ({}) under {backend:?}: counts depend on the queries before it",
                forward[i].kind()
            );
        }
    }
}

/// A session shares BDD nodes between queries, so a batch through one
/// session must not report more nodes than the same batch with a manager
/// per query. Each query reports the nodes it allocated; the first query
/// of a session counts the terminals, as a fresh manager's solve does.
/// (Reporting the session's arena size instead summed it over queries:
/// 75 142 nodes with sessions on against 44 253 off.)
#[test]
fn session_bdd_nodes_count_what_each_query_allocated() {
    let spec = rzen_net::spec::parse(include_str!("../specs/spine_leaf.net")).unwrap();
    let edges = spec.edge_ports();
    let mut queries = Vec::new();
    for &src in &edges {
        for &dst in edges.iter().filter(|&&d| d != src) {
            let net = spec.net.clone();
            queries.push(Query::Reach {
                net: net.clone(),
                src,
                dst,
            });
            queries.push(Query::Drops { net, src, dst });
        }
    }
    let nodes = |sessions| {
        run(&queries, QueryBackend::Bdd, 1, sessions)
            .stats
            .bdd_nodes
    };
    let (off, on) = (nodes(false), nodes(true));
    assert_eq!(
        off, 42_782,
        "a one-query session reports a fresh manager's nodes"
    );
    assert!(on <= off, "sessions on reported {on} BDD nodes, off {off}");
}

#[test]
fn session_reuse_counters_advance() {
    let queries = mixed_queries();

    // One worker, SMT only: every query lands on the same session, so the
    // second query of each same-model pair must hit the bitblast cache,
    // and learnt clauses from earlier queries must still be loaded when
    // later ones start.
    let smt = run(&queries, QueryBackend::Smt, 1, true);
    assert!(
        smt.stats.session_bitblast_hits > 0,
        "same-model queries must reuse compiled bitblast nodes"
    );
    assert!(
        smt.stats.session_sat_carried > 0,
        "learnt clauses must carry over between queries in a session"
    );

    // BDD side: the shared manager's node table persists, so queries
    // after the first see a non-trivial arena.
    let bdd = run(&queries, QueryBackend::Bdd, 1, true);
    assert!(
        bdd.stats.session_bitblast_hits > 0,
        "BDD compilation must reuse the session's node cache"
    );
    assert!(
        bdd.stats.session_bdd_reused > 0,
        "the BDD unique table must persist across queries"
    );

    // Affinity: with more workers than model groups would fill, queries
    // over the same model are still routed to one worker, so reuse
    // survives parallel dispatch.
    let parallel = run(&queries, QueryBackend::Portfolio, 4, true);
    assert!(
        parallel.stats.session_bitblast_hits > 0,
        "fingerprint affinity must keep same-model queries on one session"
    );

    // Fresh mode attaches no session counters at all.
    let fresh = run(&queries, QueryBackend::Smt, 1, false);
    assert_eq!(fresh.stats.session_bitblast_hits, 0);
    assert_eq!(fresh.stats.session_sat_carried, 0);
    assert!(fresh.results.iter().all(|r| r.session.is_none()));
}

/// What CI used to gate as a wall-clock ratio (`--gate-smt 1.2`, on a
/// host with ±30 % noise), held on the deterministic counters that
/// speedup comes from. Same workload: three 120-rule ACL families, six
/// probed lines each incl. the unsatisfiable one past the end, one worker.
#[test]
fn acl_family_sessions_skip_most_of_the_compilation() {
    let queries = acl_families(120, 3, &[0, -1, -2, 1, -4, -5]);
    let fresh = run(&queries, QueryBackend::Smt, 1, false);
    let session = run(&queries, QueryBackend::Smt, 1, true);
    let total = |report: &BatchReport, counter: fn(&QueryResult) -> u64| -> u64 {
        report.results.iter().map(counter).sum()
    };

    // Measured on the gate-DAG encoder (PR 24): 3,260 hits (each standing
    // for a whole cached sub-DAG) against 5,543 nodes compiled, and 10,813
    // solver variables against 63,374 in fresh mode (the per-gate Tseitin
    // encoder it replaced: 16,766 against 108,110). The two gates watch
    // different layers now. A session whose bitblast cache is bypassed
    // scores 0 hits against 22,918 nodes compiled and fails the first —
    // while still creating few variables, because the session's gate
    // table finds every recompiled gate by structural hash. The second
    // fails when the `CnfAlg` does not outlive the query (ratio 1); its
    // 3.5 is the old gate's 0.6 of the measured ratio (5.86).
    let hits = session.stats.session_bitblast_hits;
    let compiled = total(&session, |r| r.session.unwrap().bitblast_compiled);
    assert!(
        hits * 5 >= compiled * 2,
        "bitblast cache served {hits} lookups against {compiled} nodes compiled"
    );
    let vars = |report| total(report, |r| r.sat_stats.unwrap().vars_created);
    let (vars_session, vars_fresh) = (vars(&session), vars(&fresh));
    assert!(
        vars_session * 7 <= vars_fresh * 2,
        "sessions created {vars_session} solver variables, fresh mode {vars_fresh}"
    );
}

/// The fabric family's counterpart: perfbench's `fabric-batch` queries
/// (all-pairs reach and drops between the eight leaves of
/// `spine_leaf(2, 8)`), one worker, fresh against sessions. Every pair's
/// cone is built from the same per-device guards over the ingress
/// packet, so a session should compile each device once and re-find it
/// from then on.
#[test]
fn fabric_family_sessions_reuse_the_device_guards() {
    let net = spine_leaf(2, 8);
    let leaves = 2..10usize;
    let mut queries = Vec::new();
    for src in leaves.clone() {
        for dst in leaves.clone().filter(|&d| d != src) {
            let (src, dst) = ((src, 99), (dst, 99));
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
    assert_eq!(queries.len(), 112);
    let fresh = run(&queries, QueryBackend::Smt, 1, false);
    let session = run(&queries, QueryBackend::Smt, 1, true);
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            verdict_kind(&fresh.results[i].verdict),
            verdict_kind(&session.results[i].verdict),
            "query {i} ({}): session mode disagrees with fresh",
            q.kind()
        );
    }
    let total = |report: &BatchReport, counter: fn(&QueryResult) -> u64| -> u64 {
        report.results.iter().map(counter).sum()
    };

    // Measured with guards over the ingress packet: 4,726 hits against
    // 5,639 nodes compiled (0.84), and 2,708 session variables against
    // 27,142 fresh (10.0×). With the `Option`-threaded fold that built
    // each guard once per path prefix, 14,604 hits against 26,960
    // compiled (0.54) and 194,383 against 636,622 variables (3.3×): both
    // gates fail there.
    let hits = session.stats.session_bitblast_hits;
    let compiled = total(&session, |r| r.session.unwrap().bitblast_compiled);
    assert!(
        hits * 4 >= compiled * 3,
        "bitblast cache served {hits} lookups against {compiled} nodes compiled"
    );
    let vars = |report| total(report, |r| r.sat_stats.unwrap().vars_created);
    let (vars_session, vars_fresh) = (vars(&session), vars(&fresh));
    assert!(
        vars_session * 6 <= vars_fresh,
        "sessions created {vars_session} solver variables, fresh mode {vars_fresh}"
    );
}

#[test]
fn cancellation_mid_session_leaves_session_usable() {
    // Mirrors tests/budget.rs at the session level: a cancelled query must
    // not poison the long-lived solver state behind it.
    for backend in [Backend::Bdd, Backend::Smt] {
        rzen::reset_ctx();
        let mut session = SolverSession::new(backend);
        let acl = random_acl(40, 7);
        let last = acl.rules.len() as u16;
        let mk = {
            let acl = acl.clone();
            move || {
                let acl = acl.clone();
                ZenFunction::new(move |h| acl.clone().matched_line(h))
            }
        };
        let opts = FindOptions::default();

        let cancelled = Budget::unlimited();
        cancelled.cancel();
        let report = mk().find_in_session(
            |_, line| line.eq(Zen::val(last)),
            &opts,
            &cancelled,
            &mut session,
        );
        assert!(
            matches!(report.outcome, FindOutcome::Cancelled),
            "{backend:?}: pre-cancelled budget must yield Cancelled"
        );

        // The same session must then solve normally — and produce a
        // correct witness, not a leftover of the interrupted solve.
        let report = mk().find_in_session(
            |_, line| line.eq(Zen::val(last)),
            &opts,
            &Budget::unlimited(),
            &mut session,
        );
        let FindOutcome::Found(h) = report.outcome else {
            panic!("{backend:?}: session must stay usable after a cancellation");
        };
        assert_eq!(acl.matched_line_concrete(&h), last);

        // And an unsatisfiable query on the same session stays Unsat.
        let report = mk().find_in_session(
            |_, line| line.eq(Zen::val(last + 1)),
            &opts,
            &Budget::unlimited(),
            &mut session,
        );
        assert!(matches!(report.outcome, FindOutcome::Unsat));
        assert_eq!(session.stats().queries, 3);
    }
    rzen::reset_ctx();
}

/// The compile-once gate. A warm session builds a model's output once;
/// from the second probe on, a probe pays only for its own root. With
/// folding, `line == k` over the first-match chain is the conjunction
/// `!m1 & .. & !m(k-1) & mk` of the rules' match conditions: building it
/// walks the chain once (a constant comparison per rule) and adds k - 1
/// `And`s and their `Not`s, and the variable order walks only those.
/// Measured over a 400-rule ACL: line 1 costs 402 lookups and no visit,
/// line 399 after line 400 costs 1 198 lookups (on the bound) and 398
/// visits. With the model rebuilt for each probe and the order walked
/// afresh, as sessions did before the memo, line 1 cost 11 836 lookups
/// and 54 visits, line 399 12 632 lookups and 6 743 visits.
#[test]
fn warm_probes_cost_their_root_not_the_model() {
    let acl = random_acl(400, 5);
    let rules = acl.rules.len() as u64;
    let last = rules as u16;
    let lines = [last, 1, last + 1, 7, last - 1, 2, 100, last];
    let live: Vec<bool> = lines
        .iter()
        .map(|&k| {
            rzen::reset_ctx();
            let acl = acl.clone();
            ZenFunction::new(move |h| acl.matched_line(h))
                .find(|_, line| line.eq(Zen::val(k)), &FindOptions::default())
                .is_some()
        })
        .collect();
    for backend in [Backend::Bdd, Backend::Smt] {
        rzen::reset_ctx();
        let mut session = SolverSession::new(backend);
        let interns = || rzen::with_ctx(|ctx| ctx.num_interns());
        for (i, &k) in lines.iter().enumerate() {
            let (interns0, visits0) = (interns(), session.order_visits());
            let report = session.find_model(
                &acl,
                Acl::matched_line,
                |_, line| line.eq(Zen::val(k)),
                &FindOptions::default(),
                &Budget::unlimited(),
            );
            let (interns, visits) = (interns() - interns0, session.order_visits() - visits0);
            match report.outcome {
                FindOutcome::Found(h) => {
                    assert!(live[i], "{backend:?}: line {k} is dead");
                    assert_eq!(acl.matched_line_concrete(&h), k, "{backend:?}");
                }
                FindOutcome::Unsat => assert!(!live[i], "{backend:?}: line {k} is live"),
                FindOutcome::Cancelled => unreachable!("unlimited budget"),
            }
            if i == 0 {
                continue;
            }
            let k = u64::from(k);
            assert!(
                interns <= rules + 2 * k + 16,
                "{backend:?} probe {i} (line {k}): {interns} hash-cons lookups"
            );
            assert!(
                visits <= 2 * k + 8,
                "{backend:?} probe {i} (line {k}): {visits} variable-order visits"
            );
        }
        assert_eq!(session.stats().model_hits, lines.len() as u64 - 1);
    }
    rzen::reset_ctx();
}

/// The memo's reuse counter through the engine: on a one-model-per-session
/// batch every probe after a model's first finds it memoised.
#[test]
fn every_probe_after_a_models_first_hits_the_memo() {
    let offsets = [0, -1, -2, 1, -4, -5];
    let queries = acl_families(120, 3, &offsets);
    for backend in [QueryBackend::Bdd, QueryBackend::Smt] {
        for jobs in [1, 2] {
            let report = run(&queries, backend, jobs, true);
            let hits: u64 = report
                .results
                .iter()
                .map(|r| r.session.unwrap().model_hits)
                .sum();
            assert_eq!(
                hits,
                queries.len() as u64 - 3,
                "{backend:?} jobs={jobs}: memo hits"
            );
        }
    }
}

/// Verdict kinds of `queries`, after checking every witness and holding
/// each verdict to core's fresh pipeline.
fn checked_verdicts(queries: &[Query], backend: QueryBackend, sessions: bool) -> Vec<&'static str> {
    let report = run(queries, backend, 1, sessions);
    queries
        .iter()
        .zip(&report.results)
        .map(|(q, r)| {
            if let Verdict::Sat(w) = &r.verdict {
                assert!(q.check_witness(w), "{q:?}: bad witness");
            }
            let kind = verdict_kind(&r.verdict);
            assert_eq!(
                kind,
                fresh_oracle(q, backend),
                "{q:?}: disagrees with core's fresh find"
            );
            kind
        })
        .collect()
}

/// Memo keys are whole models and list bounds: two ACLs one port bound
/// apart, and one route map at two list bounds, each pair with opposite
/// verdicts, probed interleaved through one session.
#[test]
fn memo_tells_apart_models_one_bound_apart() {
    let acl = |hi: u16| Acl {
        rules: vec![
            AclRule {
                dst_ports: (0, hi),
                ..AclRule::any(false)
            },
            AclRule::any(true),
        ],
    };
    // Line 2 is shadowed when rule 1 covers every port, live otherwise.
    let (shadowed, live) = (acl(u16::MAX), acl(u16::MAX - 1));
    // Clause 2 is reachable only by an AS path longer than 2.
    let map = RouteMap {
        clauses: vec![
            Clause {
                conds: vec![MatchCond::AsPathLengthLe(2)],
                actions: vec![],
                permit: false,
            },
            Clause {
                conds: vec![],
                actions: vec![],
                permit: true,
            },
        ],
    };
    let mut queries = Vec::new();
    for round in 0..3u16 {
        for acl in [&shadowed, &live] {
            queries.push(Query::AclFind {
                acl: acl.clone(),
                target_line: 2,
            });
        }
        for list_bound in [2, 3] {
            queries.push(Query::RouteMapFind {
                map: map.clone(),
                target_clause: 2 - round % 2,
                list_bound,
            });
        }
    }
    let want = ["unsat", "sat", "unsat", "sat", "unsat", "sat", "sat", "sat"];
    for backend in [
        QueryBackend::Bdd,
        QueryBackend::Smt,
        QueryBackend::Portfolio,
    ] {
        let fresh = checked_verdicts(&queries, backend, false);
        let session = checked_verdicts(&queries, backend, true);
        assert_eq!(
            session, fresh,
            "{backend:?}: session mode disagrees with fresh"
        );
        assert_eq!(fresh[..8], want, "{backend:?}");
    }
}

/// A model whose hash ignores its value: every instance lands in one
/// memo bucket, so only the full comparison keeps them apart.
#[derive(Clone, PartialEq, Eq)]
struct Colliding(u16);

impl Hash for Colliding {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

#[test]
fn memo_compares_models_not_hashes() {
    for backend in [Backend::Bdd, Backend::Smt] {
        rzen::reset_ctx();
        let mut session = SolverSession::new(backend);
        for k in [1u16, 2, 1, 3, 2] {
            // Find the x with x + k == 10: the answer moves with the model.
            let report = session.find_model(
                &Colliding(k),
                |m: &Colliding, x: Zen<u16>| x + Zen::val(m.0),
                |_, sum| sum.eq(Zen::val(10u16)),
                &FindOptions::default(),
                &Budget::unlimited(),
            );
            assert_eq!(report.outcome, FindOutcome::Found(10 - k), "{backend:?}");
        }
        assert_eq!(session.stats().model_hits, 2, "{backend:?}");
    }
    rzen::reset_ctx();
}
