//! Incremental solver sessions: long-lived solver state shared across
//! queries on one worker thread.
//!
//! The paper's framework funnels every analysis through one bit-level
//! translation (§6); a batch of queries over the same ACL, route map, or
//! topology therefore shares most of its circuit. A [`SolverSession`]
//! exploits that three ways:
//!
//! * **Bitblast cache** — compiled circuit nodes are kept across queries,
//!   keyed by hash-consed [`ExprId`]. Identical sub-DAGs (the model
//!   encoding shared by an all-pairs batch) bit-blast once per session.
//! * **SAT session** — one [`CnfAlg`] (gate table and [`rzen_sat::Solver`])
//!   lives for the whole session, so a gate an earlier query built or
//!   emitted is found by structural hash and costs nothing again. Each
//!   query requires its root's cone, guards the root by a fresh
//!   activation literal `a` (`¬a ∨ root` plus the assumption `a`), is
//!   solved with `solve_limited(&[a])`, and retired by permanently
//!   asserting `¬a`, which makes the query's guard clause vacuous while
//!   every learnt clause — implied by the monotone clause database alone —
//!   carries over to later queries.
//! * **BDD session** — one [`BddManager`] lives for the whole session, so
//!   the unique table and computed cache persist (the cache is bounded by
//!   the arena; nodes are never collected). The variable order is
//!   *extended* per query ([`extend_order`]) so earlier queries' levels
//!   never move, and it remembers what it walked, so a query adding a
//!   root above an ordered model walks only the root.
//!
//! Above all three sits the **model memo** ([`SolverSession::find_model`]):
//! a model's output over the session's symbolic input is built once per
//! (input type, builder, list bound, model value), so a warm probe adds
//! only its predicate to the expression arena.
//!
//! A session scoped to one query is the fresh pipeline plus the SAT
//! guard (one activation variable, guard clause and retirement unit), and
//! it reports the same counters: each solve flushes the backend's
//! `smt.*` / `bdd.*` / `bitblast.gates_*` counters from what that query
//! did, and its BDD stats count the nodes and unique-table entries the
//! query added. The engine solves every query through a session, kept
//! for one query or for a runner's life.
//!
//! Sessions are inherently thread-bound: circuit nodes are `Rc`-shared and
//! `ExprId`s index the thread-local context. Create a session only after
//! [`crate::reset_ctx`], and never reset the context while the session is
//! alive — the caches are keyed by `ExprId`s of the current arena. A panic
//! while solving leaves the session in an unspecified (but memory-safe)
//! state; discard it and start a fresh one (the engine's workers do).

use std::any::{Any, TypeId};
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;

use rzen_bdd::{Bdd, BddManager, BddStats, FastHashMap};
use rzen_sat::{Lit, SolveStatus, Stats};

use crate::backend::bdd::{env_from_levels, flush_obs_stats, BddAlg};
use crate::backend::bitblast::{children, BitCompiler, SymVal};
use crate::backend::ordering::{extend_order, VarOrder};
use crate::backend::smt::{extract_env, flush_solve_counts, CLit, CnfAlg, GLit, POS};
use crate::backend::SolveOutcome;
use crate::budget::Budget;
use crate::ctx::{with_ctx, Context};
use crate::function::{report, Backend, FindOptions, FindReport};
use crate::ir::ExprId;
use crate::lang::{Zen, ZenType};
use crate::sorts::Sort;

/// Cumulative reuse counters for one [`SolverSession`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries solved through the session.
    pub queries: u64,
    /// Bitblast-cache lookups served by nodes compiled for an *earlier*
    /// query (summed over both backends).
    pub bitblast_hits: u64,
    /// Circuit nodes compiled fresh (summed over both backends).
    pub bitblast_compiled: u64,
    /// Learnt clauses alive in the SAT solver at query start, summed over
    /// queries — the clause carryover earlier queries paid for.
    pub sat_clauses_carried: u64,
    /// BDD nodes alive in the shared manager at query start (terminals
    /// excluded), summed over queries.
    pub bdd_nodes_reused: u64,
    /// [`SolverSession::find_model`] calls whose model output the memo
    /// already held, so the model was not rebuilt.
    pub model_hits: u64,
}

impl SessionStats {
    /// Counter-wise difference `self - earlier` (both snapshots of the
    /// same monotone session counters).
    pub fn delta_since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            queries: self.queries - earlier.queries,
            bitblast_hits: self.bitblast_hits - earlier.bitblast_hits,
            bitblast_compiled: self.bitblast_compiled - earlier.bitblast_compiled,
            sat_clauses_carried: self.sat_clauses_carried - earlier.sat_clauses_carried,
            bdd_nodes_reused: self.bdd_nodes_reused - earlier.bdd_nodes_reused,
            model_hits: self.model_hits - earlier.model_hits,
        }
    }

    /// Add another snapshot's counters into this one.
    pub fn absorb(&mut self, other: &SessionStats) {
        self.queries += other.queries;
        self.bitblast_hits += other.bitblast_hits;
        self.bitblast_compiled += other.bitblast_compiled;
        self.sat_clauses_carried += other.sat_clauses_carried;
        self.bdd_nodes_reused += other.bdd_nodes_reused;
        self.model_hits += other.model_hits;
    }
}

/// Long-lived solver state for one worker thread; see the module docs.
pub struct SolverSession {
    backend: Backend,
    smt: Option<SmtSession>,
    bdd: Option<BddSession>,
    /// Symbolic inputs reused across queries, keyed by (input type, list
    /// bound). Reusing the *same* input variables is what lets the
    /// hash-consed arena share model sub-DAGs between queries; fresh
    /// variables per query would defeat every cache below.
    inputs: FastHashMap<(TypeId, u16), ExprId>,
    /// Model outputs over `inputs`, bucketed by (input type and builder,
    /// list bound, model hash). Each entry keeps the model it was built
    /// from, and a lookup compares that in full: a hash is a bucket, not
    /// an identity.
    models: FastHashMap<(TypeId, u16, u64), Vec<Memoised>>,
    stats: SessionStats,
}

/// A memoised model output, with the model value it was built from.
type Memoised = (Box<dyn Any>, ExprId);

impl SolverSession {
    /// A fresh session for `backend`. Call on a thread whose context has
    /// just been reset and holds no other live `Zen` handles.
    pub fn new(backend: Backend) -> SolverSession {
        SolverSession {
            backend,
            smt: None,
            bdd: None,
            inputs: FastHashMap::default(),
            models: FastHashMap::default(),
            stats: SessionStats::default(),
        }
    }

    /// The backend this session solves with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Snapshot of the cumulative reuse counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The SAT session's footprint — (gates in the table, solver variables
    /// in use) — once an SMT query ran. A long session must see both
    /// plateau.
    pub fn smt_footprint(&self) -> Option<(usize, usize)> {
        let alg = &self.smt.as_ref()?.alg;
        let vars = alg.solver.num_vars() - alg.solver.num_free_vars();
        Some((alg.live_gates(), vars))
    }

    /// Expression nodes the BDD session's [`extend_order`] calls visited
    /// so far (0 before a BDD query ran): a warm probe visits only the
    /// nodes its root added.
    pub fn order_visits(&self) -> u64 {
        self.bdd.as_ref().map_or(0, |b| b.order.visits())
    }

    /// The session's symbolic input of type `A` under `list_bound`,
    /// created on first use. Reusing the *same* input variables is what
    /// lets the hash-consed arena share model sub-DAGs between queries.
    pub(crate) fn input<A: ZenType>(&mut self, list_bound: u16) -> Zen<A> {
        let key = (TypeId::of::<A>(), list_bound);
        Zen::from_id(
            *self
                .inputs
                .entry(key)
                .or_insert_with(|| Zen::<A>::symbolic(list_bound).id),
        )
    }

    /// Find an input `a` with `pred(a, build(model, a))`, like
    /// [`crate::ZenFunction::find_in_session`] over the model, except that
    /// the model's output over the session input is built only by the
    /// first call for an equal `model` (same input type, builder and
    /// `opts.list_bound`). Later calls find it in the session's memo and
    /// add only the predicate to the expression arena: no model clone, no
    /// rebuild. The memo lives and dies with the session.
    ///
    /// `build` must be a function of its arguments alone — the memo is
    /// keyed by its type — so it must capture nothing (a fn item such as
    /// `Acl::matched_line`, or a capture-free closure); this is checked at
    /// compile time.
    pub fn find_model<M, A, R, F>(
        &mut self,
        model: &M,
        build: F,
        pred: impl FnOnce(Zen<A>, Zen<R>) -> Zen<bool>,
        opts: &FindOptions,
        budget: &Budget,
    ) -> FindReport<A>
    where
        M: Clone + Hash + Eq + 'static,
        A: ZenType,
        R: ZenType,
        F: Fn(&M, Zen<A>) -> Zen<R> + 'static,
    {
        const {
            assert!(
                std::mem::size_of::<F>() == 0,
                "find_model: the builder must capture nothing"
            )
        };
        let input = self.input::<A>(opts.list_bound);
        let key = (
            TypeId::of::<(A, F)>(),
            opts.list_bound,
            self.models.hasher().hash_one(model),
        );
        let bucket = self.models.entry(key).or_default();
        let out = match bucket
            .iter()
            .find(|(m, _)| m.downcast_ref::<M>() == Some(model))
        {
            Some(&(_, out)) => {
                self.stats.model_hits += 1;
                rzen_obs::counter!(
                    "session.model.hits",
                    "session probes that found their model's output memoised"
                )
                .inc();
                Zen::from_id(out)
            }
            None => {
                rzen_obs::counter!(
                    "session.model.builds",
                    "model outputs built into a session's memo"
                )
                .inc();
                let out = build(model, input);
                bucket.push((Box::new(model.clone()), out.id));
                out
            }
        };
        let cond = pred(input, out);
        self.find(input, cond, opts, budget)
    }

    /// Solve `cond`, a condition over the session input `input`, and read
    /// the witness off `input`.
    pub(crate) fn find<A: ZenType>(
        &mut self,
        input: Zen<A>,
        cond: Zen<bool>,
        opts: &FindOptions,
        budget: &Budget,
    ) -> FindReport<A> {
        let (solved, sat_stats, bdd_stats) =
            with_ctx(|ctx| self.solve(ctx, cond.id, opts.ordering_analysis, budget));
        report(input, solved, sat_stats, bdd_stats)
    }

    /// Solve `root` under `budget` with this session's backend, reusing
    /// carried state and recording reuse counters.
    fn solve(
        &mut self,
        ctx: &Context,
        root: ExprId,
        use_interactions: bool,
        budget: &Budget,
    ) -> (SolveOutcome, Option<Stats>, Option<BddStats>) {
        assert_eq!(ctx.sort_of(root), Sort::Bool, "solve: root must be Bool");
        self.stats.queries += 1;
        rzen_obs::counter!("session.queries", "queries solved through solver sessions").inc();
        match self.backend {
            Backend::Smt => {
                let (o, s) = self.smt.get_or_insert_with(SmtSession::new).solve(
                    ctx,
                    root,
                    budget,
                    &mut self.stats,
                );
                (o, Some(s), None)
            }
            Backend::Bdd => {
                let (o, s) = self.bdd.get_or_insert_with(BddSession::new).solve(
                    ctx,
                    root,
                    use_interactions,
                    budget,
                    &mut self.stats,
                );
                (o, None, Some(s))
            }
        }
    }
}

/// Persistent SAT backend state: one gate table, one CDCL solver and one
/// bitblast cache for the whole session.
struct SmtSession {
    alg: CnfAlg,
    cache: FastHashMap<u32, Rc<SymVal<CLit>>>,
    /// The roots of the queries solved since the last inprocessing pass:
    /// the bitblast cache keeps what they reach (see
    /// [`SmtSession::quiesce`]). (A fixed age of a query or two evicts a
    /// model between two of its own queries once passes recur and
    /// queries over several models interleave.)
    roots: Vec<ExprId>,
    /// `Stats::vars_created` right after the last inprocessing pass, for
    /// the growth-based inprocessing trigger. The monotone creation
    /// counter (not `num_vars`) is what must be metered: with index
    /// recycling the variable count plateaus even while queries keep
    /// compiling fresh circuitry.
    inprocess_created: u64,
}

/// Inprocess when at least this many variables were created since the
/// last pass (with the relative trigger below). Growth is the right
/// trigger because a retired query's dead cone is roughly the variables
/// it compiled: lots of growth means lots of junk slowing search down,
/// while a quiet stretch of cache-hit queries needs no pass at all.
const MIN_INPROCESS_GROWTH: u64 = 2048;

impl SmtSession {
    fn new() -> SmtSession {
        let mut alg = CnfAlg::new();
        // Long-lived session: eliminated variables' indices are recycled
        // so the per-variable arrays stay sized to the live formula, not
        // to everything ever compiled. Sound here because the session
        // only reads model values of frozen (input-bit) variables.
        alg.solver.set_recycle_eliminated(true);
        SmtSession {
            alg,
            cache: FastHashMap::default(),
            roots: Vec::new(),
            inprocess_created: 0,
        }
    }

    /// Session quiesce point, run after each query once its activation
    /// literal (if it had one) is retired. Always runs the cheap level-0 simplification (which
    /// propagates the retirement unit and, once enough retirements
    /// accumulated, sweeps out the satisfied guard/learnt clauses); once
    /// enough new variables accumulated since the last pass
    /// ([`MIN_INPROCESS_GROWTH`]), it also evicts stale bitblast-cache
    /// entries and runs subsumption + bounded variable elimination with
    /// the session interface frozen.
    ///
    /// Frozen set = the emitted input bits (models are read off them) and
    /// every emitted literal the bitblast cache holds (future queries
    /// re-use those as compiled circuit outputs). It is recomputed from
    /// scratch each time, so evicting a cache entry *unfreezes* its
    /// literal. Elimination then erases a retired query's dead cone (every
    /// resolvent of an unconstrained gate definition is a tautology),
    /// which keeps per-query search cost flat over a long session. An
    /// unfrozen gate may still be mentioned again — the structural hash
    /// finds it — which is why eliminated gates are un-emitted right after
    /// the pass: the next user emits a fresh copy.
    fn quiesce(&mut self, ctx: &Context) {
        let _span = rzen_obs::span!("session.smt.quiesce");
        let before = self.alg.solver.stats;
        let mut alive = self.alg.solver.simplify();
        // Growth-based trigger: inprocess once the variables created since
        // the last pass rival what that pass left alive (dead weight ≈
        // live work), with an absolute floor so tiny models don't churn.
        // `live` counts the newcomers too, hence the subtraction — without
        // it a session inprocessed exactly once in its life.
        let nv = self.alg.solver.num_vars() as u64;
        let live = nv.saturating_sub(self.alg.solver.num_free_vars() as u64);
        let grown = self
            .alg
            .solver
            .stats
            .vars_created
            .saturating_sub(self.inprocess_created);
        if alive && grown >= live.saturating_sub(grown).max(MIN_INPROCESS_GROWTH) {
            // Evict cache entries not *reachable* (in the expression DAG)
            // from the root of a query solved since the previous pass.
            // That is exactly what those queries used: a compile that hits
            // the cache does not descend, but the entry it hit is under
            // its root, and so is the hot model's interior — still live,
            // and unfreezing it would make BVE re-dissolve the whole model
            // every pass. Reachability keeps the hot closure frozen while
            // retired queries' predicate cones (unreachable from any hot
            // root) age out. An evicted entry is only a recompile on a
            // future miss, never a soundness issue.
            let mut live: FastHashMap<u32, ()> = FastHashMap::default();
            let mut stack = std::mem::take(&mut self.roots);
            while let Some(e) = stack.pop() {
                if live.insert(e.0, ()).is_some() {
                    continue;
                }
                stack.extend(children(ctx, e));
            }
            self.roots = stack;
            self.cache.retain(|k, _| live.contains_key(k));

            // (a) Gates no retained entry can reach go too, so the table
            // plateaus with the cache; (b) what the outside world can
            // still mention — input bits and cached literals, where
            // emitted — is frozen; (c) whatever elimination took anyway
            // is un-emitted before any `new_var` can recycle its index.
            let mut held: Vec<GLit> = Vec::new();
            SymVal::for_each_bit(self.cache.values(), |b| {
                if let CLit::L(l) = b {
                    held.push(*l);
                }
            });
            self.alg.sweep(held.iter().copied());
            self.alg.solver.clear_frozen();
            let inputs = self.alg.var_bits().map(|(_, _, l)| l);
            let cached = held.iter().filter_map(|&l| self.alg.solver_lit(l));
            for l in inputs.chain(cached).collect::<Vec<Lit>>() {
                self.alg.solver.set_frozen(l.var(), true);
            }
            alive = self.alg.solver.inprocess();
            self.alg.unemit_eliminated();
            self.inprocess_created = self.alg.solver.stats.vars_created;
        }
        // A session formula is satisfiable with all activations off; the
        // only way simplification can derive UNSAT is a corrupted session.
        debug_assert!(alive, "session clause database became unsatisfiable");
        rzen_sat::flush_obs_stats(&self.alg.solver, &before);
    }

    fn solve(
        &mut self,
        ctx: &Context,
        root: ExprId,
        budget: &Budget,
        session_stats: &mut SessionStats,
    ) -> (SolveOutcome, Stats) {
        let _span = rzen_obs::span!("smt.solve", "root" => root.0);
        let carried = self.alg.solver.num_learnts() as u64;
        session_stats.sat_clauses_carried += carried;
        rzen_obs::counter!(
            "session.sat.carried",
            "learnt clauses alive at query start (summed over session queries)"
        )
        .add(carried);

        let stats_before = self.alg.solver.stats;
        let clauses_before = self.alg.solver.num_clauses();
        let gates_before = (self.alg.gates_built, self.alg.gates_emitted);
        let seed = std::mem::take(&mut self.cache);
        let mut compiler = BitCompiler::with_seed_cache(&mut self.alg, seed);
        let sym = compiler.compile(ctx, root);
        let b = *sym.as_bool();
        session_stats.bitblast_hits += compiler.seed_hits();
        session_stats.bitblast_compiled += compiler.compiled() as u64;
        rzen_obs::counter!(
            "session.bitblast.hits",
            "bitblast-cache lookups served across queries"
        )
        .add(compiler.seed_hits());
        self.cache = compiler.into_cache();
        self.roots.push(root);

        let mut activation = None;
        let outcome = match b {
            CLit::F => SolveOutcome::Unsat,
            // Gate building is linear and not interrupted; honor a budget
            // that expired during it before searching.
            _ if budget.is_exhausted() => SolveOutcome::Cancelled,
            CLit::T | CLit::L(_) => {
                // Guard the root behind a fresh activation literal so it
                // can be retired after this query without poisoning the
                // clause database for the next one.
                if let CLit::L(l) = b {
                    let l = self.alg.require(l, POS);
                    let a = Lit::pos(self.alg.solver.new_var());
                    self.alg.solver.add_clause(&[!a, l]);
                    activation = Some(a);
                }
                self.alg.solver.clear_budget();
                self.alg.solver.set_interrupt(budget.cancel_flag());
                if let Some(deadline) = budget.deadline() {
                    self.alg.solver.set_deadline(deadline);
                }
                let status = self.alg.solver.solve_limited(activation.as_slice());
                self.alg.solver.clear_budget();
                match status {
                    SolveStatus::Sat => SolveOutcome::Sat(extract_env(ctx, &self.alg)),
                    SolveStatus::Unsat => SolveOutcome::Unsat,
                    SolveStatus::Unknown => SolveOutcome::Cancelled,
                }
            }
        };
        let stats = stats_delta(&self.alg.solver.stats, &stats_before);
        // Clauses as the fresh pipeline counts them: what the solve left
        // in the database, here net of what its level-0 sweep deleted.
        let clauses = self.alg.solver.num_clauses().saturating_sub(clauses_before);
        flush_solve_counts(
            stats.vars_created,
            clauses as u64,
            self.alg.gates_built - gates_before.0,
            self.alg.gates_emitted - gates_before.1,
        );
        // Retire the guard: `¬a` makes this query's root clause vacuous
        // for every later query, whatever the verdict was. The quiesce
        // pass then deletes what the retirement made redundant instead of
        // letting propagation scan it forever.
        if let Some(a) = activation {
            self.alg.solver.add_clause(&[!a]);
        }
        self.quiesce(ctx);
        (outcome, stats)
    }
}

fn stats_delta(after: &Stats, before: &Stats) -> Stats {
    Stats {
        conflicts: after.conflicts - before.conflicts,
        decisions: after.decisions - before.decisions,
        propagations: after.propagations - before.propagations,
        restarts: after.restarts - before.restarts,
        learned_clauses: after.learned_clauses - before.learned_clauses,
        deleted_clauses: after.deleted_clauses - before.deleted_clauses,
        lbd_sum: after.lbd_sum - before.lbd_sum,
        reduce_dbs: after.reduce_dbs - before.reduce_dbs,
        gcs: after.gcs - before.gcs,
        subsumed: after.subsumed - before.subsumed,
        strengthened: after.strengthened - before.strengthened,
        eliminated_vars: after.eliminated_vars - before.eliminated_vars,
        vars_created: after.vars_created - before.vars_created,
    }
}

/// Persistent BDD backend state: one manager (unique table + computed
/// cache) and one ever-growing variable order for the whole session. An
/// interrupted query leaves the manager usable: it evicts only its own
/// bitblast entries.
struct BddSession {
    m: BddManager,
    order: VarOrder,
    cache: FastHashMap<u32, Rc<SymVal<Bdd>>>,
    /// The manager's counters when the last query ended (all zero before
    /// the first): a query reports the nodes and unique-table entries it
    /// added, so the first query of a session reports what a fresh
    /// manager's solve does, terminals included.
    flushed: BddStats,
}

impl BddSession {
    fn new() -> BddSession {
        BddSession {
            m: BddManager::new(),
            order: VarOrder::with_base(0),
            cache: FastHashMap::default(),
            flushed: BddStats::default(),
        }
    }

    fn solve(
        &mut self,
        ctx: &Context,
        root: ExprId,
        use_interactions: bool,
        budget: &Budget,
        session_stats: &mut SessionStats,
    ) -> (SolveOutcome, BddStats) {
        let _span = rzen_obs::span!("bdd.solve", "root" => root.0);
        let reused = (self.m.arena_size() as u64).saturating_sub(2);
        session_stats.bdd_nodes_reused += reused;
        rzen_obs::counter!(
            "session.bdd.reused",
            "BDD nodes alive at query start (summed over session queries)"
        )
        .add(reused);

        // Append levels for this query's unseen variables; earlier
        // queries' levels are pinned and never move.
        {
            let _span = rzen_obs::span!("bdd.order");
            extend_order(ctx, &mut self.order, &[root], use_interactions);
        }
        // (Re)arm the budget; this also resets the manager's interrupt
        // latch left by a cancelled earlier query.
        self.m
            .set_budget(Some(budget.cancel_flag()), budget.deadline());
        let order = std::mem::replace(&mut self.order, VarOrder::with_base(0));
        let seed = std::mem::take(&mut self.cache);
        let mut alg = BddAlg {
            m: &mut self.m,
            order,
        };
        let mut compiler = BitCompiler::with_seed_cache(&mut alg, seed);
        let sym = compiler.compile(ctx, root);
        let b = *sym.as_bool();
        session_stats.bitblast_hits += compiler.seed_hits();
        session_stats.bitblast_compiled += compiler.compiled() as u64;
        rzen_obs::counter!(
            "session.bitblast.hits",
            "bitblast-cache lookups served across queries"
        )
        .add(compiler.seed_hits());
        let inserted = compiler.take_inserted();
        let mut cache = compiler.into_cache();
        self.order = alg.order;
        let now = self.m.stats();
        let stats = bdd_stats_delta(&now, &std::mem::replace(&mut self.flushed, now));
        flush_obs_stats(&stats);

        if self.m.interrupted() {
            // Nodes compiled during an interrupted build hold garbage
            // handles (the manager suppresses writes once interrupted);
            // evict exactly those. Entries that predate this query were
            // built to completion and stay valid.
            for k in inserted {
                cache.remove(&k);
            }
            self.cache = cache;
            self.m.set_budget(None, None);
            return (SolveOutcome::Cancelled, stats);
        }
        self.cache = cache;
        let sat_model = {
            let _span = rzen_obs::span!("bdd.any_sat");
            self.m.any_sat(b)
        };
        self.m.set_budget(None, None);
        let Some(model) = sat_model else {
            return (SolveOutcome::Unsat, stats);
        };
        let mut level_bits: FastHashMap<u32, bool> = FastHashMap::default();
        for (level, val) in model {
            level_bits.insert(level, val);
        }
        let env = env_from_levels(ctx, &self.order, |level| {
            level_bits.get(&level).copied().unwrap_or(false)
        });
        (SolveOutcome::Sat(env), stats)
    }
}

fn bdd_stats_delta(after: &BddStats, before: &BddStats) -> BddStats {
    BddStats {
        nodes: after.nodes - before.nodes,
        unique_entries: after.unique_entries - before.unique_entries,
        cache_lookups: after.cache_lookups - before.cache_lookups,
        cache_hits: after.cache_hits - before.cache_hits,
    }
}
