//! The staged replay: one query taken through the public functions of
//! each layer, one span per call.
//!
//! `Query::run_with` is crate-private, so the split of a fresh solve
//! into stages is rebuilt here from what the crates export:
//! `Network::paths` → the model closure applied to `Zen::symbolic` →
//! `BitCompiler::compile` over `CnfAlg` → `Solver::solve_limited` →
//! `extract_env` + `eval` (and `compute_order` + `compile_bool` +
//! `any_sat` for the BDD backend), and finally dropping the solver,
//! which the engine also pays for inside a query's latency. The verdict
//! is compared with the
//! engine's by the caller; the summed stage time is compared with the
//! engine's latency for the same fresh query (`stage_sum_ratio`).

use std::time::Instant;

use rzen::backend::bdd::compile_bool;
use rzen::backend::bitblast::BitCompiler;
use rzen::backend::interp::{eval, Env};
use rzen::backend::ordering::compute_order;
use rzen::backend::smt::{extract_env, CnfAlg};
use rzen::ir::VarId;
use rzen::{with_ctx, Backend, Sort, Value, Zen, ZenType};
use rzen_bdd::BddManager;
use rzen_engine::{Query, Witness};
use rzen_net::device::forward_along;
use rzen_net::headers::{Header, Packet};
use rzen_sat::SolveStatus;

use crate::trace;

/// Exact work counters summed over the replayed queries. They depend
/// only on the inputs, so they must repeat bit for bit.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Queries replayed.
    pub queries: u64,
    /// Source/destination pairs whose paths were enumerated.
    pub pairs: u64,
    /// Simple paths enumerated.
    pub paths: u64,
    /// IR nodes the model closures created (`Context::num_exprs` delta).
    pub ir_nodes: u64,
    /// CNF variables allocated.
    pub cnf_vars: u64,
    /// CNF clauses asserted.
    pub cnf_clauses: u64,
    /// CDCL counters, summed.
    pub sat: rzen_sat::Stats,
    /// BDD nodes allocated.
    pub bdd_nodes: u64,
    /// Unique-table entries at the end of each compile, summed.
    pub bdd_unique: u64,
    /// Op-cache probes.
    pub bdd_lookups: u64,
    /// Op-cache probes that hit.
    pub bdd_hits: u64,
}

/// The replay of one query.
pub struct Replayed {
    /// The witness found, `None` for UNSAT.
    pub witness: Option<Witness>,
    /// Summed wall time of the stages, microseconds (glue between the
    /// stages excluded).
    pub staged_us: f64,
}

/// Time `f` as one stage: a span under `name`, and its wall time added
/// to `acc`.
fn stage<R>(name: &'static str, req: u64, acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let _span = trace::span(name, req);
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64() * 1e6;
    r
}

fn add_sat(total: &mut rzen_sat::Stats, s: &rzen_sat::Stats) {
    total.conflicts += s.conflicts;
    total.decisions += s.decisions;
    total.propagations += s.propagations;
    total.restarts += s.restarts;
    total.learned_clauses += s.learned_clauses;
    total.deleted_clauses += s.deleted_clauses;
    total.reduce_dbs += s.reduce_dbs;
    total.gcs += s.gcs;
    total.eliminated_vars += s.eliminated_vars;
}

/// Solve `cond` over the symbolic `input` in stages and read the input
/// back out of the model.
fn solve_staged<A: ZenType>(
    input: Zen<A>,
    cond: Zen<bool>,
    backend: Backend,
    req: u64,
    counts: &mut Counts,
    acc: &mut f64,
) -> Option<A> {
    let (input, cond) = (input.expr_id(), cond.expr_id());
    let read_back = |env: &Env| A::from_value(&with_ctx(|ctx| eval(ctx, input, env)));
    match backend {
        Backend::Smt => {
            let mut alg = CnfAlg::new();
            let asserted = stage("core.bitblast", req, acc, || {
                with_ctx(|ctx| {
                    let root = *BitCompiler::new(&mut alg).compile(ctx, cond).as_bool();
                    alg.assert_true(root)
                })
            });
            counts.cnf_vars += alg.solver.num_vars() as u64;
            counts.cnf_clauses += alg.solver.num_clauses() as u64;
            let status = if asserted {
                stage("sat.solve", req, acc, || alg.solver.solve_limited(&[]))
            } else {
                SolveStatus::Unsat
            };
            add_sat(&mut counts.sat, &alg.solver.stats);
            assert_ne!(
                status,
                SolveStatus::Unknown,
                "no budget was set, the solve cannot stop early"
            );
            let found = (status == SolveStatus::Sat).then(|| {
                stage("core.witness", req, acc, || {
                    read_back(&with_ctx(|ctx| extract_env(ctx, &alg)))
                })
            });
            // The engine pays for freeing the solver inside its latency.
            stage("sat.teardown", req, acc, || drop(alg));
            found
        }
        Backend::Bdd => {
            let mut m = BddManager::new();
            let (root, order) = stage("bdd.compile", req, acc, || {
                with_ctx(|ctx| {
                    let order = compute_order(ctx, &[cond], true);
                    compile_bool(ctx, &mut m, order, cond)
                })
            });
            let stats = m.stats();
            counts.bdd_nodes += stats.nodes as u64;
            counts.bdd_unique += stats.unique_entries as u64;
            counts.bdd_lookups += stats.cache_lookups;
            counts.bdd_hits += stats.cache_hits;
            let path = stage("bdd.any_sat", req, acc, || m.any_sat(root));
            let found = path.map(|path| {
                stage("core.witness", req, acc, || {
                    // Levels on the satisfying path carry their value;
                    // every other bit of every ordered variable is zero.
                    let mut bits: std::collections::BTreeMap<VarId, u64> =
                        std::collections::BTreeMap::new();
                    for (var, bit, level) in order.assignments() {
                        let set = path.iter().any(|&(l, v)| l == level && v);
                        *bits.entry(var).or_insert(0) |= u64::from(set) << bit;
                    }
                    let mut env = Env::new();
                    with_ctx(|ctx| {
                        for (var, value) in bits {
                            let sort = ctx.var_sort(var);
                            env.bind(
                                var,
                                match sort {
                                    Sort::Bool => Value::Bool(value & 1 == 1),
                                    _ => Value::int(sort, value),
                                },
                            );
                        }
                    });
                    read_back(&env)
                })
            });
            stage("bdd.teardown", req, acc, || drop(m));
            found
        }
    }
}

/// Replay `query` on `backend`, stage by stage.
pub fn replay(query: &Query, backend: Backend, req: u64, counts: &mut Counts) -> Replayed {
    let mut acc = 0.0;
    counts.queries += 1;
    stage("core.ctx_reset", req, &mut acc, rzen::reset_ctx);
    let nodes_before = with_ctx(|ctx| ctx.num_exprs());
    let witness = match query {
        Query::AclFind { acl, target_line } => {
            let (input, cond) = stage("core.ir_build", req, &mut acc, || {
                let h = Zen::<Header>::symbolic(4);
                (h, acl.matched_line(h).eq(Zen::val(*target_line)))
            });
            counts.ir_nodes += (with_ctx(|ctx| ctx.num_exprs()) - nodes_before) as u64;
            solve_staged(input, cond, backend, req, counts, &mut acc).map(Witness::Header)
        }
        Query::Reach { net, src, dst } | Query::Drops { net, src, dst } => {
            let reach = matches!(query, Query::Reach { .. });
            let paths = stage("net.paths", req, &mut acc, || {
                net.paths(src.0, src.1, dst.0, dst.1)
            });
            counts.pairs += 1;
            counts.paths += paths.len() as u64;
            if paths.is_empty() {
                // No path: nothing is delivered, everything is dropped.
                let all_dropped = Witness::Packet(Packet::plain(Header::new(0, 0, 0, 0, 0)));
                return Replayed {
                    witness: (!reach).then_some(all_dropped),
                    staged_us: acc,
                };
            }
            let (input, cond) = stage("core.ir_build", req, &mut acc, || {
                let p = Zen::<Packet>::symbolic(4);
                let cond = if reach {
                    paths.iter().fold(Zen::bool(false), |any, path| {
                        any.or(forward_along(path, p).is_some())
                    })
                } else {
                    paths.iter().fold(Zen::bool(true), |all, path| {
                        all.and(forward_along(path, p).is_none())
                    })
                };
                (p, cond)
            });
            counts.ir_nodes += (with_ctx(|ctx| ctx.num_exprs()) - nodes_before) as u64;
            solve_staged(input, cond, backend, req, counts, &mut acc).map(Witness::Packet)
        }
        Query::RouteMapFind { .. } => unreachable!("no workload issues route-map queries"),
    };
    Replayed {
        witness,
        staged_us: acc,
    }
}
