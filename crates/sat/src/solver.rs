//! The CDCL solver core, rebuilt to MiniSat lineage on the flat clause
//! arena ([`crate::arena`]).
//!
//! Hot-path design:
//!
//! * clauses live inline in a `u32` arena (one pointer chase per clause,
//!   headers adjacent to literals),
//! * **binary clauses get dedicated watch lists** storing the implied
//!   literal inline, so propagating them never touches clause memory, and
//!   they are drained before long clauses,
//! * every watch list lives in one flat pool ([`crate::watch`]), and new
//!   clauses are attached in bulk at the next propagation,
//! * long-clause watchers carry a blocker literal that skips the clause
//!   when already satisfied,
//! * assignments are MiniSat-encoded `u8`s so a literal's value is one
//!   load and one xor.
//!
//! Database hygiene (what keeps long-lived incremental sessions fast):
//!
//! * learnt clauses carry an LBD (glue) score; reduction sorts by
//!   (LBD, activity) and keeps glue/binary/locked clauses,
//! * the reduction ceiling follows MiniSat's geometric schedule
//!   (`max_learnts × 1.1` every `100 × 1.5^k` conflicts),
//! * [`Solver::simplify`] removes satisfied clauses and false literals at
//!   level 0 — this is what retires a session query's guard clauses and
//!   its now-vacuous learnt clauses,
//! * deleted clauses are compacted by a relocating GC once a fifth of the
//!   arena is waste; watch lists are rebuilt and reason references
//!   forwarded (see [`Solver::garbage_collect`]),
//! * [`Solver::inprocess`] (in [`crate::simplify`]) adds subsumption,
//!   self-subsumption, and bounded variable elimination at level 0.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::arena::{CRef, ClauseArena};
use crate::heap::ActivityHeap;
use crate::types::{lbool, lit_val, Lit, Var};
use crate::watch::{self, Kind, WatchPool, Watcher};

/// Solver statistics, exposed for benchmarking and debugging.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clauses learnt from conflicts (including unit facts).
    pub learned_clauses: u64,
    /// Number of learnt clauses deleted by database reduction or level-0
    /// simplification.
    pub deleted_clauses: u64,
    /// Summed LBD (glue) of learnt clauses at creation; `/ learned_clauses`
    /// is the average glue.
    pub lbd_sum: u64,
    /// Clause-database reductions performed.
    pub reduce_dbs: u64,
    /// Arena garbage collections performed.
    pub gcs: u64,
    /// Clauses removed because another clause subsumes them.
    pub subsumed: u64,
    /// Literals removed by self-subsuming resolution / level-0
    /// strengthening.
    pub strengthened: u64,
    /// Variables removed by bounded variable elimination.
    pub eliminated_vars: u64,
    /// Total `new_var` calls, counting recycled indices. Monotone even
    /// when [`Solver::num_vars`] plateaus under index recycling, so
    /// long-lived sessions can meter how much fresh circuitry arrived
    /// since their last inprocessing pass.
    pub vars_created: u64,
}

/// Result of a budgeted solve ([`Solver::solve_limited`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// Satisfiable; a model is available through [`Solver::value`].
    Sat,
    /// Unsatisfiable (under the given assumptions).
    Unsat,
    /// The interrupt flag was raised or the deadline passed before the
    /// search finished. The solver remains usable: learnt clauses are
    /// kept and a later call may complete the query.
    Unknown,
}

/// Internal outcome of one restart-bounded `search` run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SearchResult {
    Sat,
    Unsat,
    Restart,
    Interrupted,
}

/// A CDCL SAT solver. See the crate documentation for the feature list.
pub struct Solver {
    pub(crate) arena: ClauseArena,
    /// Problem (non-learnt) clauses, purged of deleted entries at level-0
    /// simplification points.
    pub(crate) clauses: Vec<CRef>,
    /// Learnt clauses.
    pub(crate) learnts: Vec<CRef>,
    /// Every watch list — binary and long, per literal — in one pool.
    watches: WatchPool,
    pub(crate) assigns: Vec<u8>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    heap: ActivityHeap,
    pub(crate) trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    pub(crate) reason: Vec<CRef>,
    pub(crate) level: Vec<u32>,
    seen: Vec<bool>,
    /// Frozen variables must not be eliminated by inprocessing: the caller
    /// may still mention them in future clauses or assumptions.
    pub(crate) frozen: Vec<bool>,
    /// Variables removed by bounded variable elimination. Never decided,
    /// never assigned; their model values are reconstructed from
    /// `elim_clauses` after a SAT answer.
    pub(crate) eliminated: Vec<bool>,
    /// Clauses removed by variable elimination, encoded for model
    /// extension as groups `[lit₀(=the eliminated var's literal), …, len]`
    /// walked back-to-front.
    pub(crate) elim_clauses: Vec<u32>,
    pub(crate) ok: bool,
    model: Vec<bool>,
    /// Statistics for the most recent `solve` call sequence.
    pub stats: Stats,
    /// Cooperative cancellation flag, shared with the caller (and, in a
    /// portfolio, with the competing backend). Checked every few dozen
    /// conflicts / few hundred decisions so the hot loops stay hot.
    interrupt: Option<Arc<AtomicBool>>,
    /// Wall-clock cutoff for budgeted solves.
    deadline: Option<Instant>,
    // Geometric clause-database reduction schedule (MiniSat).
    max_learnts: f64,
    learntsize_adjust_confl: f64,
    learntsize_adjust_cnt: i64,
    /// Trail size at the last database sweep; `simplify` re-sweeps only
    /// after [`SIMPLIFY_MIN_TRAIL_DELTA`] further level-0 facts.
    simp_trail_size: usize,
    /// Arena high-water mark at the end of the last inprocessing pass.
    /// Backward subsumption seeds its worklist only with clauses allocated
    /// past it: older clauses were already checked as subsumers against
    /// each other. Reset to 0 by the relocating GC (offsets move), which
    /// conservatively re-checks everything on the next pass.
    pub(crate) subsume_checked_mark: u32,
    /// Variable indices freed by elimination, available for reuse when
    /// [`Solver::set_recycle_eliminated`] is on. Without recycling a
    /// long-lived session's per-variable arrays grow with every query
    /// ever retired, and each O(vars) pass (watch rebuilds, occurrence
    /// lists, model extraction) slows down linearly over the session's
    /// life.
    pub(crate) free_vars: Vec<Var>,
    pub(crate) recycle_eliminated: bool,
    /// Inprocessing scratch (occurrence lists, resolution stamps) kept
    /// across passes so their capacities amortize; see
    /// [`crate::simplify::Inprocessor`].
    pub(crate) ip_scratch: Option<Box<crate::simplify::Inprocessor>>,
    // Reusable scratch buffers — reduce_db and analyze allocate nothing
    // in steady state.
    reduce_scratch: Vec<CRef>,
    add_scratch: Vec<Lit>,
    learnt_scratch: Vec<Lit>,
    clear_scratch: Vec<Var>,
    /// Stamp array (indexed by decision level) for LBD computation.
    lbd_stamp: Vec<u32>,
    lbd_gen: u32,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const CLA_DECAY: f32 = 1.0 / 0.999;
const RESTART_BASE: u64 = 100;
/// `max_learnts` floor: below this many learnts, reduction never runs.
const MIN_LEARNTS: f64 = 2000.0;
const LEARNTSIZE_FACTOR: f64 = 1.0 / 3.0;
const LEARNTSIZE_INC: f64 = 1.1;
const LEARNTSIZE_ADJUST_START: f64 = 100.0;
const LEARNTSIZE_ADJUST_INC: f64 = 1.5;
/// `simplify` sweeps the whole database only after this many new level-0
/// facts; below it the sweep costs more than the satisfied clauses it
/// would remove. Sessions quiesce after every query, so without this gate
/// the O(database) sweep runs per retire and dominates incremental solving.
const SIMPLIFY_MIN_TRAIL_DELTA: usize = 32;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Create an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: ClauseArena::new(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: WatchPool::default(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: ActivityHeap::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            seen: Vec::new(),
            frozen: Vec::new(),
            eliminated: Vec::new(),
            elim_clauses: Vec::new(),
            ok: true,
            model: Vec::new(),
            stats: Stats::default(),
            interrupt: None,
            deadline: None,
            max_learnts: 0.0,
            learntsize_adjust_confl: LEARNTSIZE_ADJUST_START,
            learntsize_adjust_cnt: LEARNTSIZE_ADJUST_START as i64,
            simp_trail_size: 0,
            subsume_checked_mark: 0,
            free_vars: Vec::new(),
            recycle_eliminated: false,
            ip_scratch: None,
            reduce_scratch: Vec::new(),
            add_scratch: Vec::new(),
            learnt_scratch: Vec::new(),
            clear_scratch: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_gen: 0,
        }
    }

    /// Install a cooperative interrupt flag: when another thread stores
    /// `true`, a running [`Solver::solve_limited`] returns
    /// [`SolveStatus::Unknown`] at its next check point.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Install a wall-clock deadline with the same effect as the
    /// interrupt flag.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Remove any interrupt flag and deadline.
    pub fn clear_budget(&mut self) {
        self.interrupt = None;
        self.deadline = None;
    }

    #[inline]
    fn budget_exhausted(&self) -> bool {
        if let Some(flag) = &self.interrupt {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        self.stats.vars_created += 1;
        if let Some(v) = self.free_vars.pop() {
            // A recycled index: unassigned and clause-free since its
            // elimination (inprocessing deleted every clause mentioning
            // it and rebuilt the watches), so only the elimination mark
            // and stale reason/level bookkeeping need resetting. Stale
            // activity is kept — VSIDS decay washes it out.
            debug_assert!(!lbool::is_defined(self.assigns[v.index()]));
            self.eliminated[v.index()] = false;
            self.frozen[v.index()] = false;
            self.reason[v.index()] = CRef::UNDEF;
            self.level[v.index()] = 0;
            self.polarity[v.index()] = false;
            if !self.heap.contains(v) {
                self.heap.insert(v, &self.activity);
            }
            return v;
        }
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(lbool::UNDEF);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.reason.push(CRef::UNDEF);
        self.level.push(0);
        self.seen.push(false);
        self.frozen.push(false);
        self.eliminated.push(false);
        self.watches.add_var();
        self.lbd_stamp.push(0);
        self.heap.grow(self.assigns.len());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of learnt clauses currently in the database. Across
    /// incremental solves this is the state that carries over from one
    /// query to the next (minus what database reduction deleted).
    pub fn num_learnts(&self) -> usize {
        self.learnts.len()
    }

    /// Number of problem (non-learnt) clauses. A count the arena keeps,
    /// not a scan.
    pub fn num_clauses(&self) -> usize {
        self.arena.problem_clauses()
    }

    /// Bytes currently held by the clause arena (live + not-yet-collected
    /// waste). This is the number the `sat.arena_bytes` gauge reports.
    pub fn arena_bytes(&self) -> usize {
        self.arena.capacity_bytes()
    }

    /// Bytes currently held by the watch pool and its per-list offsets.
    /// This is the number the `sat.watch_bytes` gauge reports.
    pub fn watch_bytes(&self) -> usize {
        self.watches.bytes()
    }

    /// Mark `v` as frozen: inprocessing will never eliminate it. Freeze
    /// every variable that may appear in future clauses or assumptions
    /// (session interface variables, cached circuit outputs).
    pub fn set_frozen(&mut self, v: Var, frozen: bool) {
        self.frozen[v.index()] = frozen;
    }

    /// Unfreeze every variable. Sessions recompute their interface before
    /// each inprocessing pass — a variable the outside world stopped
    /// referencing (an evicted cache entry's circuit) becomes eligible for
    /// elimination only through this reset.
    pub fn clear_frozen(&mut self) {
        for f in &mut self.frozen {
            *f = false;
        }
    }

    /// Has `v` been removed by bounded variable elimination?
    pub fn is_eliminated(&self, v: Var) -> bool {
        self.eliminated[v.index()]
    }

    /// Let [`Solver::new_var`] reuse the indices of eliminated variables.
    ///
    /// This is the long-lived-session mode: without it every retired
    /// query's variables stay allocated forever, all per-variable arrays
    /// grow without bound, and each O(vars) operation slows down linearly
    /// over the session's life. The trade: eliminated variables are no
    /// longer recorded for model extension, so after an elimination their
    /// model values are unspecified. Callers must only read model values
    /// of variables they kept frozen — which a session does anyway, since
    /// an unfrozen variable is by definition one nothing will ever
    /// reference again.
    pub fn set_recycle_eliminated(&mut self, on: bool) {
        self.recycle_eliminated = on;
    }

    /// Variable indices currently parked on the recycling free list.
    /// `num_vars() - num_free_vars()` is the live variable count.
    pub fn num_free_vars(&self) -> usize {
        self.free_vars.len()
    }

    #[inline]
    pub(crate) fn value_lit(&self, l: Lit) -> u8 {
        lit_val(&self.assigns, l)
    }

    #[inline]
    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause. Returns `false` if the formula became trivially
    /// unsatisfiable (empty clause after simplification at level 0).
    /// Must be called at decision level 0 (i.e. before/between `solve`s).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "add_clause above level 0");
        if !self.ok {
            return false;
        }
        debug_assert!(
            lits.iter().all(|l| !self.eliminated[l.var().index()]),
            "clause mentions an eliminated variable; freeze it before inprocessing"
        );
        // Simplify in the solver's scratch buffer: sort/dedup, drop false
        // literals, detect tautology.
        let mut ls = std::mem::take(&mut self.add_scratch);
        ls.clear();
        ls.extend_from_slice(lits);
        ls.sort_unstable();
        ls.dedup();
        let mut kept = 0;
        let mut redundant = false;
        for i in 0..ls.len() {
            let l = ls[i];
            // Tautology (l and ¬l are adjacent) or satisfied at level 0.
            if ls.get(i + 1) == Some(&!l) || self.value_lit(l) == lbool::TRUE {
                redundant = true;
                break;
            }
            if self.value_lit(l) != lbool::FALSE {
                ls[kept] = l;
                kept += 1;
            }
        }
        if !redundant {
            match kept {
                0 => self.ok = false,
                1 => {
                    self.unchecked_enqueue(ls[0], CRef::UNDEF);
                    self.ok = self.propagate() == CRef::UNDEF;
                }
                _ => {
                    let cref = self.arena.alloc(&ls[..kept], false);
                    self.clauses.push(cref);
                    self.watches.queue(cref);
                }
            }
        }
        self.add_scratch = ls;
        self.ok
    }

    /// Clear and re-install every watcher from the clause lists. Used
    /// after garbage collection and level-0 clause-database rewrites,
    /// where patching individual lists would cost more than rebuilding.
    pub(crate) fn rebuild_watches(&mut self) {
        let arena = &self.arena;
        let live = self.clauses.iter().chain(&self.learnts).copied();
        self.watches
            .rebuild(arena, live.filter(|&c| !arena.is_deleted(c)));
    }

    #[inline]
    pub(crate) fn unchecked_enqueue(&mut self, l: Lit, from: CRef) {
        debug_assert!(!lbool::is_defined(self.value_lit(l)));
        let v = l.var();
        self.assigns[v.index()] = lbool::from_bool(l.is_pos());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = from;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause or [`CRef::UNDEF`].
    ///
    /// Clauses added since the last call are attached first, in bulk.
    /// Binary watch lists are drained first: their implication is inline
    /// in the watcher, so the common Tseitin-gate case never touches
    /// clause memory. Long clauses then use the standard MiniSat
    /// watched-literal scan with blockers over the arena.
    pub(crate) fn propagate(&mut self) -> CRef {
        // Trace gate: when tracing is disabled this is exactly one relaxed
        // atomic load and a branch — the hot-path overhead contract that
        // `tests/obs.rs` asserts.
        if rzen_obs::trace::enabled() {
            rzen_obs::counter!("sat.propagate.calls", "unit-propagation runs (traced runs)").inc();
        }
        self.watches.settle(&self.arena);
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            // Binary clauses first: value check + enqueue, nothing else.
            for k in self.watches.range(watch::list(p, Kind::Bin)) {
                let w = self.watches.get(k);
                let v = lit_val(&self.assigns, w.blocker);
                if v == lbool::FALSE {
                    self.qhead = self.trail.len();
                    return w.cref;
                }
                if !lbool::is_defined(v) {
                    self.unchecked_enqueue(w.blocker, w.cref);
                }
            }

            // Long clauses, compacted in place: `i` reads, `j` writes back
            // the watchers that stay. A watcher that moves goes to another
            // literal's list, which never relocates this one.
            let false_lit = !p;
            let list = watch::list(p, Kind::Long);
            let ws = self.watches.range(list);
            let mut i = ws.start;
            let mut j = ws.start;
            let mut conflict = CRef::UNDEF;
            'watches: while i < ws.end {
                let w = self.watches.get(i);
                i += 1;
                if lit_val(&self.assigns, w.blocker) == lbool::TRUE {
                    self.watches.set(j, w);
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                if self.arena.is_deleted(cref) {
                    continue; // lazily drop watchers of deleted clauses
                }
                // Normalize so the false literal (¬p) is at position 1.
                let first = {
                    let lits = self.arena.lits_mut(cref);
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                    lits[0]
                };
                if first != w.blocker && lit_val(&self.assigns, first) == lbool::TRUE {
                    self.watches.set(
                        j,
                        Watcher {
                            cref,
                            blocker: first,
                        },
                    );
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                {
                    let lits = self.arena.lits_mut(cref);
                    for k in 2..lits.len() {
                        let lk = lits[k];
                        if lit_val(&self.assigns, lk) != lbool::FALSE {
                            lits.swap(1, k);
                            self.watches.push(
                                watch::list(!lk, Kind::Long),
                                Watcher {
                                    cref,
                                    blocker: first,
                                },
                            );
                            continue 'watches;
                        }
                    }
                }
                // No new watch: clause is unit or conflicting.
                self.watches.set(
                    j,
                    Watcher {
                        cref,
                        blocker: first,
                    },
                );
                j += 1;
                if lit_val(&self.assigns, first) == lbool::FALSE {
                    // Conflict: copy the remaining watchers back and stop.
                    while i < ws.end {
                        self.watches.set(j, self.watches.get(i));
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = cref;
                } else {
                    self.unchecked_enqueue(first, cref);
                }
            }
            self.watches.truncate(list, j - ws.start);
            if conflict != CRef::UNDEF {
                return conflict;
            }
        }
        CRef::UNDEF
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: CRef) {
        let act = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, act);
        if act > 1e20 || !act.is_finite() {
            self.rescale_clause_activities();
        }
    }

    /// Rescale all learnt-clause activities and `cla_inc`, mirroring the
    /// variable-activity path. Non-finite values (an overflowed increment
    /// added to an activity) are clamped so reduction's `total_cmp` sort
    /// always sees ordered floats.
    fn rescale_clause_activities(&mut self) {
        for &c in &self.learnts {
            let a = self.arena.activity(c) * 1e-20;
            self.arena
                .set_activity(c, if a.is_finite() { a } else { 0.0 });
        }
        self.cla_inc *= 1e-20;
        if !self.cla_inc.is_finite() || self.cla_inc < f32::MIN_POSITIVE {
            self.cla_inc = 1.0;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc *= VAR_DECAY;
        self.cla_inc *= CLA_DECAY;
        if self.cla_inc > 1e20 {
            self.rescale_clause_activities();
        }
    }

    /// Number of distinct decision levels among `lits` — the LBD ("glue")
    /// of a learnt clause.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_gen = self.lbd_gen.wrapping_add(1);
        let gen = self.lbd_gen;
        let mut lbd = 0u32;
        for &l in lits {
            let lv = self.level[l.var().index()] as usize;
            if self.lbd_stamp[lv] != gen {
                self.lbd_stamp[lv] = gen;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis with local (reason-subsumption) clause
    /// minimization. Fills `learnt` (asserting literal first) and returns
    /// the backjump level.
    fn analyze(&mut self, mut confl: CRef, learnt: &mut Vec<Lit>) -> u32 {
        learnt.clear();
        learnt.push(Lit(0)); // slot 0 = asserting literal
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut to_clear = std::mem::take(&mut self.clear_scratch);
        to_clear.clear();
        loop {
            if self.arena.is_learnt(confl) {
                self.bump_clause(confl);
                // Glucose-style LBD refresh for clauses used in conflicts
                // (inlined compute_lbd to keep the arena borrow field-local).
                self.lbd_gen = self.lbd_gen.wrapping_add(1);
                let gen = self.lbd_gen;
                let mut lbd = 0u32;
                {
                    let level = &self.level;
                    let stamp = &mut self.lbd_stamp;
                    for &l in self.arena.lits(confl) {
                        let lv = level[l.var().index()] as usize;
                        if stamp[lv] != gen {
                            stamp[lv] = gen;
                            lbd += 1;
                        }
                    }
                }
                if lbd < self.arena.lbd(confl) {
                    self.arena.set_lbd(confl, lbd);
                }
            }
            for idx in 0..self.arena.size(confl) {
                let q = self.arena.lit(confl, idx);
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            confl = self.reason[pl.var().index()];
            debug_assert_ne!(confl, CRef::UNDEF, "resolved literal must have a reason");
        }
        learnt[0] = !p.unwrap();

        // Local minimization: a literal whose reason clause is entirely
        // made of already-seen (or level-0) literals is implied by the
        // rest of the learnt clause and can be dropped.
        let mut w = 1;
        for r in 1..learnt.len() {
            let l = learnt[r];
            let reason = self.reason[l.var().index()];
            let redundant = reason != CRef::UNDEF && {
                let mut red = true;
                for idx in 0..self.arena.size(reason) {
                    let q = self.arena.lit(reason, idx);
                    if q.var() == l.var() {
                        continue;
                    }
                    if !self.seen[q.var().index()] && self.level[q.var().index()] > 0 {
                        red = false;
                        break;
                    }
                }
                red
            };
            if !redundant {
                learnt[w] = l;
                w += 1;
            }
        }
        learnt.truncate(w);

        // Backjump level: highest level among the non-asserting literals.
        let mut bt = 0;
        let mut max_i = 1;
        for (i, &l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > bt {
                bt = lv;
                max_i = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, max_i);
        }
        for &v in &to_clear {
            self.seen[v.index()] = false;
        }
        to_clear.clear();
        self.clear_scratch = to_clear;
        bt
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().unwrap();
            let v = l.var();
            self.polarity[v.index()] = l.is_pos();
            self.assigns[v.index()] = lbool::UNDEF;
            self.reason[v.index()] = CRef::UNDEF;
            if !self.heap.contains(v) {
                self.heap.insert(v, &self.activity);
            }
        }
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if !lbool::is_defined(self.assigns[v.index()]) && !self.eliminated[v.index()] {
                return Some(v);
            }
        }
        None
    }

    /// Is `cref` the reason for its first literal's assignment? Such
    /// clauses must survive database reduction.
    fn locked(&self, cref: CRef) -> bool {
        let l0 = self.arena.lit(cref, 0);
        self.value_lit(l0) == lbool::TRUE && self.reason[l0.var().index()] == cref
    }

    /// Reduce the learnt-clause database: sort by (LBD desc, activity asc)
    /// and drop the worse half, keeping binary clauses, glue clauses
    /// (LBD ≤ 2), and clauses locked as reasons. Allocation-free in steady
    /// state: the sort buffer is a reusable scratch held on the solver.
    fn reduce_db(&mut self) {
        self.stats.reduce_dbs += 1;
        let mut refs = std::mem::take(&mut self.reduce_scratch);
        refs.clear();
        refs.extend_from_slice(&self.learnts);
        {
            let arena = &self.arena;
            // Worst first: high LBD, then low activity. `total_cmp` keeps
            // the sort total even if an activity reached inf/NaN before
            // rescaling clamped it.
            refs.sort_by(|&a, &b| {
                arena
                    .lbd(b)
                    .cmp(&arena.lbd(a))
                    .then(arena.activity(a).total_cmp(&arena.activity(b)))
            });
        }
        let extra_lim = self.cla_inc / refs.len().max(1) as f32;
        let half = refs.len() / 2;
        let mut removed = 0u64;
        for (idx, &cref) in refs.iter().enumerate() {
            if self.arena.is_deleted(cref) {
                continue;
            }
            if self.arena.size(cref) <= 2 || self.arena.lbd(cref) <= 2 || self.locked(cref) {
                continue;
            }
            if idx < half || self.arena.activity(cref) < extra_lim {
                self.arena.delete(cref);
                removed += 1;
            }
        }
        refs.clear();
        self.reduce_scratch = refs;
        let arena = &self.arena;
        self.learnts.retain(|&c| !arena.is_deleted(c));
        self.stats.deleted_clauses += removed;
        self.maybe_gc();
    }

    /// Run the relocating GC if at least a fifth of the arena is waste.
    /// Returns whether a collection (which rebuilds the watch lists)
    /// actually ran, so callers holding stale watches know whether they
    /// still owe a [`Solver::rebuild_watches`].
    pub(crate) fn maybe_gc(&mut self) -> bool {
        if self.arena.len_words() > 1024 && self.arena.wasted_words() * 5 > self.arena.len_words() {
            self.garbage_collect();
            return true;
        }
        false
    }

    /// Relocating garbage collection: copy live clauses into a fresh
    /// arena, forward every root (clause lists, trail reasons), and
    /// rebuild the watch lists. Deleted clauses are dropped; level-0
    /// reasons pointing at deleted clauses are cleared (they are never
    /// resolved on).
    fn garbage_collect(&mut self) {
        let mut to = self.arena.gc_target();
        {
            let arena = &self.arena;
            self.clauses.retain(|&c| !arena.is_deleted(c));
            self.learnts.retain(|&c| !arena.is_deleted(c));
        }
        // Problem clauses relocate in list order = allocation order, so
        // the subsumption watermark maps to the new offset of the first
        // clause at-or-past it; everything before stays "already checked".
        let old_mark = self.subsume_checked_mark;
        let mut new_mark = None;
        for i in 0..self.clauses.len() {
            if new_mark.is_none() && self.clauses[i].0 >= old_mark {
                new_mark = Some(to.len_words() as u32);
            }
            self.clauses[i] = self.arena.reloc(self.clauses[i], &mut to);
        }
        let new_mark = new_mark.unwrap_or(to.len_words() as u32);
        for i in 0..self.learnts.len() {
            self.learnts[i] = self.arena.reloc(self.learnts[i], &mut to);
        }
        for ti in 0..self.trail.len() {
            let v = self.trail[ti].var();
            let r = self.reason[v.index()];
            if r == CRef::UNDEF {
                continue;
            }
            if self.arena.is_deleted(r) {
                debug_assert_eq!(
                    self.level[v.index()],
                    0,
                    "a reason above level 0 was deleted"
                );
                self.reason[v.index()] = CRef::UNDEF;
            } else {
                self.reason[v.index()] = self.arena.reloc(r, &mut to);
            }
        }
        self.arena = to;
        self.stats.gcs += 1;
        self.subsume_checked_mark = new_mark;
        self.rebuild_watches();
    }

    /// Level-0 database simplification: propagate pending units, remove
    /// satisfied clauses, and strip false literals. In an incremental
    /// session this is what retires a finished query: asserting `¬a` for
    /// its activation literal makes the query's guard clause and most of
    /// its learnt clauses satisfied, and this pass deletes them instead of
    /// letting propagation scan them forever. Returns `false` if the
    /// formula is now unsatisfiable.
    ///
    /// The sweep itself is O(database) — worth it only once enough new
    /// level-0 facts accumulated, so it is skipped until the trail grew by
    /// `SIMPLIFY_MIN_TRAIL_DELTA` (32) since the last sweep. (Propagation of
    /// pending units always runs.) Use [`Solver::simplify_force`] to sweep
    /// unconditionally.
    pub fn simplify(&mut self) -> bool {
        self.simplify_inner(false)
    }

    /// [`Solver::simplify`] without the trail-growth gate: always sweeps.
    /// Inprocessing runs this first so the occurrence lists it builds see
    /// no satisfied clauses or false literals.
    pub fn simplify_force(&mut self) -> bool {
        self.simplify_inner(true)
    }

    fn simplify_inner(&mut self, force: bool) -> bool {
        let _span = rzen_obs::span!("sat.simplify");
        assert_eq!(self.decision_level(), 0, "simplify above level 0");
        if !self.ok {
            return false;
        }
        if self.propagate() != CRef::UNDEF {
            self.ok = false;
            return false;
        }
        let grown = self.trail.len().saturating_sub(self.simp_trail_size);
        if grown == 0 || (!force && grown < SIMPLIFY_MIN_TRAIL_DELTA) {
            return true; // not enough new facts to pay for the sweep
        }
        let _sweep = rzen_obs::span!("sat.simplify.sweep");
        self.sweep_list(false);
        self.sweep_list(true);
        if self.propagate() != CRef::UNDEF {
            self.ok = false;
            return false;
        }
        self.rebuild_watches();
        self.simp_trail_size = self.trail.len();
        self.maybe_gc();
        true
    }

    /// Sweep both clause lists without rebuilding the watches: the entry
    /// sweep of [`Solver::inprocess`], which tears the watches down anyway
    /// (subsumption strengthens clauses in place, BVE adds resolvents) and
    /// rebuilds them exactly once at the end. Callers must not propagate
    /// until then.
    pub(crate) fn sweep_for_inprocess(&mut self) {
        if self.trail.len() == self.simp_trail_size {
            return; // no new facts since the last sweep: nothing to find
        }
        self.sweep_list(false);
        self.sweep_list(true);
        self.simp_trail_size = self.trail.len();
    }

    /// Remove satisfied clauses and false literals from one clause list
    /// at level 0. Watches must be rebuilt afterwards.
    fn sweep_list(&mut self, learnt_list: bool) {
        let mut list = if learnt_list {
            std::mem::take(&mut self.learnts)
        } else {
            std::mem::take(&mut self.clauses)
        };
        let mut removed = 0u64;
        list.retain(|&cref| {
            if self.arena.is_deleted(cref) {
                return false;
            }
            let mut satisfied = false;
            let mut false_lits = 0usize;
            for idx in 0..self.arena.size(cref) {
                match self.value_lit(self.arena.lit(cref, idx)) {
                    lbool::TRUE => {
                        satisfied = true;
                        break;
                    }
                    lbool::FALSE => false_lits += 1,
                    _ => {}
                }
            }
            if satisfied {
                self.arena.delete(cref);
                if learnt_list {
                    removed += 1;
                }
                return false;
            }
            if false_lits > 0 {
                let size = self.arena.size(cref);
                let new_size = size - false_lits;
                debug_assert!(
                    new_size >= 2,
                    "a unit/empty clause survived level-0 propagation"
                );
                let assigns = &self.assigns;
                let lits = self.arena.lits_mut(cref);
                let mut w = 0;
                for r in 0..size {
                    if lit_val(assigns, lits[r]) != lbool::FALSE {
                        lits[w] = lits[r];
                        w += 1;
                    }
                }
                self.arena.shrink(cref, new_size);
                self.stats.strengthened += false_lits as u64;
            }
            true
        });
        if learnt_list {
            self.learnts = list;
            self.stats.deleted_clauses += removed;
        } else {
            self.clauses = list;
        }
    }

    /// Luby restart sequence (0-indexed): 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
    fn luby(mut x: u64) -> u64 {
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) / 2;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// Solve the formula with no assumptions.
    pub fn solve(&mut self) -> bool {
        self.solve_with_assumptions(&[])
    }

    /// Solve under the given assumptions. Learnt clauses persist across
    /// calls, making repeated related queries cheap.
    ///
    /// If a budget ([`Solver::set_interrupt`] / [`Solver::set_deadline`])
    /// is installed and exhausted mid-search, this returns `false` like an
    /// UNSAT result; callers that need to distinguish must use
    /// [`Solver::solve_limited`].
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> bool {
        self.solve_limited(assumptions) == SolveStatus::Sat
    }

    /// Solve under the given assumptions, honoring any installed
    /// interrupt flag and deadline. Returns [`SolveStatus::Unknown`] when
    /// the budget ran out first; the solver stays usable afterwards.
    pub fn solve_limited(&mut self, assumptions: &[Lit]) -> SolveStatus {
        let _span = rzen_obs::span!(
            "sat.solve",
            "vars" => self.num_vars() as u64,
            "clauses" => self.clauses.len() as u64
        );
        let before = self.stats;
        let status = self.solve_limited_inner(assumptions);
        rzen_obs::counter!("sat.solves", "CDCL solve calls").inc();
        flush_obs_stats(self, &before);
        status
    }

    fn solve_limited_inner(&mut self, assumptions: &[Lit]) -> SolveStatus {
        if !self.ok {
            return SolveStatus::Unsat;
        }
        debug_assert!(
            assumptions
                .iter()
                .all(|l| !self.eliminated[l.var().index()]),
            "assumption over an eliminated variable"
        );
        self.cancel_until(0);
        if self.budget_exhausted() {
            return SolveStatus::Unknown;
        }
        if !self.simplify() {
            return SolveStatus::Unsat;
        }
        // Geometric clause-database reduction schedule: the ceiling starts
        // proportional to the problem size and grows by ×1.1 every
        // 100·1.5^k conflicts.
        self.max_learnts = (self.clauses.len() as f64 * LEARNTSIZE_FACTOR).max(MIN_LEARNTS);
        self.learntsize_adjust_confl = LEARNTSIZE_ADJUST_START;
        self.learntsize_adjust_cnt = LEARNTSIZE_ADJUST_START as i64;
        let mut restarts = 0u64;
        loop {
            let budget = RESTART_BASE * Self::luby(restarts);
            let result = {
                let _span = rzen_obs::span!("sat.search", "restart" => restarts);
                self.search(budget, assumptions)
            };
            match result {
                SearchResult::Sat => {
                    self.model = self.assigns.iter().map(|&a| a == lbool::TRUE).collect();
                    crate::simplify::extend_model(&self.elim_clauses, &mut self.model);
                    self.cancel_until(0);
                    return SolveStatus::Sat;
                }
                SearchResult::Unsat => {
                    self.cancel_until(0);
                    return SolveStatus::Unsat;
                }
                SearchResult::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    rzen_obs::trace::instant1("sat.restart", "conflicts", self.stats.conflicts);
                    self.cancel_until(0);
                }
                SearchResult::Interrupted => {
                    self.cancel_until(0);
                    return SolveStatus::Unknown;
                }
            }
        }
    }

    /// Run CDCL until a result, a conflict-budget restart, exhaustion, or
    /// a budget interruption.
    fn search(&mut self, budget: u64, assumptions: &[Lit]) -> SearchResult {
        let mut conflicts = 0u64;
        loop {
            let confl = self.propagate();
            if confl != CRef::UNDEF {
                conflicts += 1;
                self.stats.conflicts += 1;
                // Poll the budget on a conflict cadence: often enough to
                // stop within milliseconds, rare enough to stay off the
                // profile. The sampled trace event shares the cadence.
                if self.stats.conflicts & 0x3F == 0 {
                    rzen_obs::trace::instant1("sat.conflict", "total", self.stats.conflicts);
                    if self.budget_exhausted() {
                        return SearchResult::Interrupted;
                    }
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchResult::Unsat;
                }
                let mut learnt = std::mem::take(&mut self.learnt_scratch);
                let bt = self.analyze(confl, &mut learnt);
                self.cancel_until(bt);
                self.stats.learned_clauses += 1;
                if learnt.len() == 1 {
                    // A unit learnt clause is a permanent level-0 fact.
                    debug_assert_eq!(bt, 0);
                    self.stats.lbd_sum += 1;
                    self.unchecked_enqueue(learnt[0], CRef::UNDEF);
                } else {
                    let cref = self.arena.alloc(&learnt, true);
                    let lbd = self.compute_lbd(&learnt);
                    self.arena.set_lbd(cref, lbd);
                    self.stats.lbd_sum += lbd as u64;
                    self.learnts.push(cref);
                    self.watches.attach_now(&self.arena, cref);
                    self.bump_clause(cref);
                    self.unchecked_enqueue(learnt[0], cref);
                }
                self.learnt_scratch = learnt;
                self.decay_activities();
                self.learntsize_adjust_cnt -= 1;
                if self.learntsize_adjust_cnt <= 0 {
                    self.learntsize_adjust_confl *= LEARNTSIZE_ADJUST_INC;
                    self.learntsize_adjust_cnt = self.learntsize_adjust_confl as i64;
                    self.max_learnts *= LEARNTSIZE_INC;
                }
                if conflicts >= budget {
                    return SearchResult::Restart;
                }
                if self.learnts.len() as f64 - self.trail.len() as f64 >= self.max_learnts {
                    self.reduce_db();
                }
            } else {
                // Decide: assumptions first, then VSIDS.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value_lit(a) {
                        lbool::TRUE => {
                            // Already implied: introduce an empty decision
                            // level so assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        // All decisions below are assumption-forced, so a
                        // false assumption here means the assumption set is
                        // inconsistent with the formula.
                        lbool::FALSE => return SearchResult::Unsat,
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, CRef::UNDEF);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => return SearchResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        // Second poll cadence for instances that rarely
                        // conflict (long propagation-dominated runs).
                        if self.stats.decisions & 0xFF == 0 {
                            rzen_obs::trace::instant1("sat.decide", "total", self.stats.decisions);
                            if self.budget_exhausted() {
                                return SearchResult::Interrupted;
                            }
                        }
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(v, self.polarity[v.index()]);
                        self.unchecked_enqueue(lit, CRef::UNDEF);
                    }
                }
            }
        }
    }

    /// The value of `v` in the most recent satisfying model.
    /// Panics if the last `solve` did not return `true`.
    pub fn value(&self, v: Var) -> bool {
        assert!(
            !self.model.is_empty(),
            "no model: last solve was UNSAT or never ran"
        );
        self.model[v.index()]
    }
}

/// Fold what `solver` did since the `before` snapshot of its [`Stats`]
/// into the global obs metric registry, and set its memory gauges.
/// Called once per `solve_limited` (and by session layers after
/// out-of-band inprocessing), so the per-step hot loops never touch an
/// atomic metric.
pub fn flush_obs_stats(solver: &Solver, before: &Stats) {
    let after = &solver.stats;
    rzen_obs::counter!("sat.conflicts", "CDCL conflicts across all solves")
        .add(after.conflicts - before.conflicts);
    rzen_obs::counter!("sat.decisions", "CDCL decisions across all solves")
        .add(after.decisions - before.decisions);
    rzen_obs::counter!("sat.propagations", "literals propagated across all solves")
        .add(after.propagations - before.propagations);
    rzen_obs::counter!("sat.restarts", "CDCL restarts across all solves")
        .add(after.restarts - before.restarts);
    rzen_obs::counter!("sat.learned_clauses", "clauses learnt across all solves")
        .add(after.learned_clauses - before.learned_clauses);
    rzen_obs::counter!(
        "sat.lbd_sum",
        "summed LBD (glue) of learnt clauses at creation"
    )
    .add(after.lbd_sum - before.lbd_sum);
    rzen_obs::counter!(
        "sat.deleted_clauses",
        "learnt clauses deleted by reduction/simplification"
    )
    .add(after.deleted_clauses - before.deleted_clauses);
    rzen_obs::counter!("sat.reduce_dbs", "clause-database reductions")
        .add(after.reduce_dbs - before.reduce_dbs);
    rzen_obs::counter!("sat.gc_runs", "clause-arena garbage collections")
        .add(after.gcs - before.gcs);
    rzen_obs::counter!("sat.subsumed", "clauses removed by subsumption")
        .add(after.subsumed - before.subsumed);
    rzen_obs::counter!(
        "sat.strengthened",
        "literals removed by strengthening/self-subsumption"
    )
    .add(after.strengthened - before.strengthened);
    rzen_obs::counter!(
        "sat.eliminated_vars",
        "variables removed by bounded variable elimination"
    )
    .add(after.eliminated_vars - before.eliminated_vars);
    rzen_obs::gauge!(
        "sat.arena_bytes",
        "bytes held by the SAT clause arena (live + uncollected waste)"
    )
    .set(solver.arena_bytes() as i64);
    rzen_obs::gauge!(
        "sat.watch_bytes",
        "bytes held by the SAT watch pool and its per-list offsets"
    )
    .set(solver.watch_bytes() as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]));
        assert!(s.solve());
        assert!(s.value(v[0]) || s.value(v[1]));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0])]);
        assert!(!s.solve());
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        lits(&mut s, 3);
        assert!(s.solve());
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::neg(v[2]), Lit::pos(v[3])]);
        assert!(s.solve());
        assert!(s.value(v[0]) && s.value(v[1]) && s.value(v[2]) && s.value(v[3]));
    }

    #[test]
    fn tautological_clause_ignored() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]));
        assert!(s.add_clause(&[Lit::neg(v[1])]));
        assert!(s.solve());
        assert!(!s.value(v[1]));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p[i][j]: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)] // column-wise over p
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert!(!s.solve());
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5;
        let m = 4;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // column-wise over p
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert!(!s.solve());
    }

    #[test]
    fn assumptions_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        assert!(s.solve_with_assumptions(&[Lit::neg(v[0])]));
        assert!(s.value(v[1]));
        assert!(!s.solve_with_assumptions(&[Lit::neg(v[0]), Lit::neg(v[1])]));
        // Solver is reusable after an UNSAT-under-assumptions call.
        assert!(s.solve());
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(!s.solve_with_assumptions(&[Lit::pos(v[0]), Lit::neg(v[0])]));
        assert!(s.solve());
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, ... forces alternation; satisfiable.
        let mut s = Solver::new();
        let n = 20;
        let v = lits(&mut s, n);
        for i in 0..n - 1 {
            let (a, b) = (v[i], v[i + 1]);
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        }
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(s.solve());
        for (i, &var) in v.iter().enumerate() {
            assert_eq!(s.value(var), i % 2 == 0);
        }
    }

    #[test]
    fn xor_cycle_odd_unsat() {
        // An odd cycle of inequalities (graph 2-coloring of an odd cycle).
        let mut s = Solver::new();
        let n = 7;
        let v = lits(&mut s, n);
        for i in 0..n {
            let (a, b) = (v[i], v[(i + 1) % n]);
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        }
        assert!(!s.solve());
    }

    #[test]
    fn luby_sequence() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn duplicate_literals_handled() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[0])]));
        assert!(s.solve());
    }

    #[test]
    fn add_clause_after_unsat_is_noop() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0])]);
        assert!(!s.add_clause(&[Lit::pos(v[0])]));
        assert!(!s.solve());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        s.solve();
        assert!(s.stats.decisions + s.stats.propagations > 0);
    }

    fn pigeonhole(n: usize, m: usize) -> Solver {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // column-wise over p
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        s
    }

    #[test]
    fn learned_clause_stat_counts() {
        let mut s = pigeonhole(5, 4);
        assert!(!s.solve());
        assert!(s.stats.learned_clauses > 0);
        assert!(s.stats.lbd_sum > 0, "learnt clauses must carry an LBD");
    }

    #[test]
    fn pre_raised_interrupt_returns_unknown() {
        let mut s = pigeonhole(5, 4);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Arc::clone(&flag));
        assert_eq!(s.solve_limited(&[]), SolveStatus::Unknown);
        // Clearing the budget completes the query with the true answer.
        s.clear_budget();
        assert_eq!(s.solve_limited(&[]), SolveStatus::Unsat);
    }

    #[test]
    fn expired_deadline_interrupts_hard_instance() {
        // Large enough that the search cannot finish before the very
        // first budget check.
        let mut s = pigeonhole(9, 8);
        s.set_deadline(Instant::now());
        assert_eq!(s.solve_limited(&[]), SolveStatus::Unknown);
        // Unknown must never be cached as a verdict: the solver still
        // works once the deadline is lifted.
        s.clear_budget();
        assert_eq!(s.solve_limited(&[]), SolveStatus::Unsat);
    }

    #[test]
    fn budgeted_sat_still_produces_model() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s.set_interrupt(Arc::new(AtomicBool::new(false)));
        s.set_deadline(Instant::now() + std::time::Duration::from_secs(60));
        assert_eq!(s.solve_limited(&[]), SolveStatus::Sat);
        assert!(s.value(v[0]) || s.value(v[1]));
    }

    #[test]
    fn clause_activity_overflow_does_not_panic_reduce_db() {
        // Regression: cla_inc used to overflow f32 to inf, poisoning
        // clause activities; the activity sort then hit
        // `partial_cmp(..).unwrap()` on NaN and aborted the worker.
        // With total_cmp + rescaling this must stay alive and ordered.
        let mut s = pigeonhole(6, 5);
        // Force the overflow directly: a pathological increment and
        // poisoned activities, exactly what ~90k undecayed conflicts
        // produce.
        s.cla_inc = f32::MAX;
        s.solve(); // learns clauses, bumps with the huge increment
        for &c in s.learnts.clone().iter().take(3) {
            s.arena.set_activity(c, f32::NAN);
        }
        s.cla_inc = f32::INFINITY;
        s.decay_activities(); // must rescale, clamp, and not panic
        assert!(s.cla_inc.is_finite() && s.cla_inc > 0.0);
        if !s.learnts.is_empty() {
            s.reduce_db(); // must not panic on the sort
        }
        for &c in &s.learnts {
            assert!(
                s.arena.activity(c).is_finite(),
                "rescale must clamp non-finite activities"
            );
        }
    }

    #[test]
    fn simplify_removes_satisfied_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[3]), Lit::pos(v[1])]);
        assert_eq!(s.num_clauses(), 2);
        // Satisfy the first clause at level 0. One unit is below the
        // sweep gate's trail-delta, so force the sweep.
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(s.simplify_force());
        // Clause 1 is satisfied (removed); clause 2 lost its false ¬v0.
        assert_eq!(s.num_clauses(), 1);
        assert!(s.stats.strengthened >= 1);
        assert!(s.solve());
    }

    #[test]
    fn gc_compacts_deleted_clauses_and_preserves_answers() {
        let mut s = Solver::new();
        let v = lits(&mut s, 30);
        // A satisfiable band of medium clauses.
        for i in 0..27 {
            s.add_clause(&[Lit::pos(v[i]), Lit::pos(v[i + 1]), Lit::pos(v[i + 2])]);
        }
        // Satisfy + retire most of them via level-0 facts.
        for &vi in v.iter().take(27) {
            s.add_clause(&[Lit::pos(vi)]);
        }
        assert!(s.simplify_force());
        let before = s.arena.len_words();
        // Force a GC regardless of the 20% threshold by deleting and
        // collecting repeatedly through simplify; at minimum the waste
        // accounting must see the deletions.
        assert!(s.arena.wasted_words() > 0 || s.arena.len_words() < before || s.stats.gcs > 0);
        assert!(s.solve());
        for &vi in v.iter().take(27) {
            assert!(s.value(vi));
        }
    }

    #[test]
    fn clause_count_matches_a_scan_across_add_solve_inprocess_gc() {
        let scan = |s: &Solver| {
            s.clauses
                .iter()
                .filter(|&&c| !s.arena.is_deleted(c))
                .count()
        };
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.num_clauses(), scan(&s));
        assert!(!s.solve(), "learnt clauses are not problem clauses");
        assert_eq!(s.num_clauses(), scan(&s));
        // A guarded band of long clauses, retired: the sweep deletes it
        // and the waste triggers a relocating collection.
        let mut s = Solver::new();
        let g = s.new_var();
        let v = lits(&mut s, 40);
        for i in 0..300 {
            let (a, b, c) = (v[i % 38], v[i % 38 + 1], v[(i * 7) % 38 + 2]);
            s.add_clause(&[Lit::pos(a), Lit::neg(b), Lit::pos(c), Lit::neg(g)]);
        }
        for i in 0..38 {
            s.add_clause(&[Lit::pos(v[i]), Lit::pos(v[i + 1]), Lit::pos(v[i + 2])]);
        }
        assert_eq!(s.num_clauses(), scan(&s));
        assert!(s.solve_with_assumptions(&[Lit::pos(g)]));
        assert_eq!(s.num_clauses(), scan(&s));
        s.add_clause(&[Lit::neg(g)]);
        assert!(s.simplify_force());
        assert!(
            s.stats.gcs > 0,
            "the retired band never triggered a collection"
        );
        assert_eq!(s.num_clauses(), scan(&s));
        // Subsumption, strengthening and elimination delete and add.
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1]), Lit::pos(v[5])]);
        for &x in &v[..20] {
            s.set_frozen(x, true);
        }
        assert!(s.inprocess());
        assert!(s.stats.subsumed + s.stats.eliminated_vars > 0);
        assert_eq!(s.num_clauses(), scan(&s));
        assert!(s.solve());
        assert_eq!(s.num_clauses(), scan(&s));
    }

    #[test]
    fn binary_clause_propagation_and_conflict() {
        // Pure-binary chain a → b → c plus ¬c: conflict found in the
        // binary fast path, analysis still sound.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        s.add_clause(&[Lit::neg(v[2])]);
        assert!(s.solve());
        assert!(!s.value(v[0]));
        // And the UNSAT case.
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(!s.solve());
    }
}
