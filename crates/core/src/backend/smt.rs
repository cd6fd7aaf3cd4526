//! The SMT-style solver backend: bitvector bitblasting to a gate DAG,
//! cone-of-influence CNF emission, and the CDCL engine in `rzen-sat`.
//!
//! The paper's SMT backend "encodes all primitive operations using the
//! theory of bitvectors before bitblasting the formulas to SAT" via Z3
//! (§6), whose preprocessor shares and prunes terms before any clause
//! exists. No Z3 exists in this environment, so [`CnfAlg`] does that part
//! itself: the shared bit-level compiler builds hash-consed gates over
//! [`CLit`]s, and a gate reaches the solver only when a constraint
//! [`CnfAlg::require`]s it, in the polarity it is needed in.

use rzen_bdd::FastHashMap;
use rzen_sat::{Lit, SolveStatus, Solver, Stats, Var};

use crate::backend::bitblast::BitCompiler;
use crate::backend::boolalg::BoolAlg;
use crate::backend::interp::Env;
use crate::backend::SolveOutcome;
use crate::budget::Budget;
use crate::ctx::Context;
use crate::ir::{ExprId, VarId};
use crate::sorts::Sort;
use crate::value::Value;

/// A literal over [`CnfAlg`]'s gate table: gate index and negation bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GLit(u32);

impl GLit {
    fn gate(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn negated(self) -> bool {
        self.0 & 1 == 1
    }
}

impl std::ops::Not for GLit {
    type Output = GLit;
    fn not(self) -> GLit {
        GLit(self.0 ^ 1)
    }
}

/// A CNF-level Boolean: a constant or a gate literal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CLit {
    /// Constant true.
    T,
    /// Constant false.
    F,
    /// A literal over the gate table.
    L(GLit),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Op {
    /// Bit `b` of symbolic variable `a`.
    Input,
    And,
    Xor,
    /// `a ? b : c`.
    Ite,
    /// A swept slot awaiting reuse.
    Free,
}

/// The structural-hash key: operator and operand literal codes.
type Key = (Op, u32, u32, u32);

struct Gate {
    key: Key,
    /// The solver variable, once some constraint required the gate.
    var: Option<Var>,
    /// Which Plaisted–Greenbaum halves the solver holds ([`POS`]`|`[`NEG`]).
    emitted: u8,
}

/// Polarity "`gate → definition`": a model setting the literal true makes
/// its circuit true.
pub const POS: u8 = 1;
/// Polarity "`definition → gate`": a model setting the literal false makes
/// its circuit false.
pub const NEG: u8 = 2;

/// The [`BoolAlg`] over a hash-consed gate DAG in front of a CDCL solver.
///
/// Connectives only build gates — `and`/`xor`/`ite` over gate literals,
/// inputs as gates, `or` as a negated `and` — with keys normalised so
/// structurally equal circuits are one gate. Nothing reaches the solver
/// until [`CnfAlg::require`] walks the cone of a literal some constraint
/// mentions.
#[derive(Default)]
pub struct CnfAlg {
    /// The underlying CDCL solver.
    pub solver: Solver,
    gates: Vec<Gate>,
    table: FastHashMap<Key, u32>,
    /// Input gates; never swept.
    inputs: Vec<u32>,
    /// Swept slots, reused by the next gates built.
    free: Vec<u32>,
    /// Gates ever built.
    pub gates_built: u64,
    /// Gates ever given a solver variable.
    pub gates_emitted: u64,
    /// [`CnfAlg::require`]'s work stack, kept so its capacity amortizes.
    require_stack: Vec<Task>,
}

/// A step of [`CnfAlg::require`]'s walk.
enum Task {
    /// Make sure these halves of the literal's definition are emitted.
    Visit(GLit, u8),
    /// Emit these halves of the gate; its operands are done.
    Emit(usize, u8),
}

impl CnfAlg {
    /// Fresh algebra over a fresh solver.
    pub fn new() -> Self {
        Self::default()
    }

    fn mk(&mut self, key: Key) -> CLit {
        if let Some(&g) = self.table.get(&key) {
            return CLit::L(GLit(g << 1));
        }
        self.gates_built += 1;
        let gate = Gate {
            key,
            var: None,
            emitted: 0,
        };
        let g = self.free.pop().unwrap_or(self.gates.len() as u32);
        match self.gates.get_mut(g as usize) {
            Some(slot) => *slot = gate,
            None => self.gates.push(gate),
        }
        if key.0 == Op::Input {
            self.inputs.push(g);
        }
        self.table.insert(key, g);
        CLit::L(GLit(g << 1))
    }

    /// The solver literal of `l`, if its gate was emitted.
    pub(crate) fn solver_lit(&self, l: GLit) -> Option<Lit> {
        let v = self.gates[l.gate()].var?;
        Some(if l.negated() {
            Lit::neg(v)
        } else {
            Lit::pos(v)
        })
    }

    /// Iterate over the emitted (var, bit) → literal assignments. An input
    /// bit outside every required cone has no solver variable and is not
    /// listed.
    pub fn var_bits(&self) -> impl Iterator<Item = (VarId, u32, Lit)> + '_ {
        self.inputs.iter().filter_map(|&g| {
            let gate = &self.gates[g as usize];
            Some((VarId(gate.key.1), gate.key.2, Lit::pos(gate.var?)))
        })
    }

    /// Gates currently in the table, inputs included.
    pub(crate) fn live_gates(&self) -> usize {
        self.gates.len() - self.free.len()
    }

    /// Emit the un-emitted cone of `l` so the solver holds its definition
    /// in the polarities `pol`, and return its solver literal. Each gate
    /// contributes only the Plaisted–Greenbaum half its users need (both
    /// under `xor` and under an `ite` condition); a gate needed in the
    /// other polarity later gets the missing half then.
    ///
    /// Solver variables are allocated post-order, a gate's index above its
    /// operands': `eliminate_vars` walks indices downward, and so takes a
    /// dead cone apart root-first in one pass instead of one per layer.
    pub fn require(&mut self, l: GLit, pol: u8) -> Lit {
        let mut stack = std::mem::take(&mut self.require_stack);
        stack.push(Task::Visit(l, pol));
        while let Some(task) = stack.pop() {
            match task {
                Task::Visit(l, pol) => {
                    // ¬g true is g false: a negated literal swaps halves.
                    let pol = if l.negated() {
                        (pol & POS) << 1 | pol >> 1
                    } else {
                        pol
                    };
                    let gate = &self.gates[l.gate()];
                    let need = pol & !gate.emitted;
                    if need == 0 {
                        continue;
                    }
                    stack.push(Task::Emit(l.gate(), need));
                    let (op, a, b, c) = gate.key;
                    let both = POS | NEG;
                    match op {
                        Op::And => stack.extend([a, b].map(|x| Task::Visit(GLit(x), need))),
                        Op::Xor => stack.extend([a, b].map(|x| Task::Visit(GLit(x), both))),
                        Op::Ite => stack.extend([
                            Task::Visit(GLit(a), both),
                            Task::Visit(GLit(b), need),
                            Task::Visit(GLit(c), need),
                        ]),
                        Op::Input | Op::Free => {}
                    }
                }
                Task::Emit(g, need) => {
                    // A sibling path may have emitted it since the visit.
                    let need = need & !self.gates[g].emitted;
                    if need == 0 {
                        continue;
                    }
                    self.gates[g].emitted |= need;
                    let o = Lit::pos(match self.gates[g].var {
                        Some(v) => v,
                        None => {
                            self.gates_emitted += 1;
                            *self.gates[g].var.insert(self.solver.new_var())
                        }
                    });
                    let (op, a, b, c) = self.gates[g].key;
                    if op == Op::Input {
                        continue;
                    }
                    let lit = |x: u32| self.solver_lit(GLit(x)).expect("operands emit first");
                    let (x, y) = (lit(a), lit(b));
                    let e = if op == Op::Ite { lit(c) } else { y };
                    let (pos, neg): (&[&[Lit]], &[&[Lit]]) = match op {
                        Op::And => (&[&[!o, x], &[!o, y]], &[&[o, !x, !y]]),
                        Op::Xor => (&[&[!o, x, y], &[!o, !x, !y]], &[&[o, !x, y], &[o, x, !y]]),
                        _ => (&[&[!o, !x, y], &[!o, x, e]], &[&[o, !x, !y], &[o, x, !e]]),
                    };
                    for (half, clauses) in [(POS, pos), (NEG, neg)] {
                        if need & half != 0 {
                            for clause in clauses {
                                self.solver.add_clause(clause);
                            }
                        }
                    }
                }
            }
        }
        self.require_stack = stack;
        self.solver_lit(l).expect("a required literal is emitted")
    }

    /// Assert a [`CLit`] as a unit constraint, emitting the cone it needs.
    /// Returns `false` if the formula became unsatisfiable.
    pub fn assert_true(&mut self, b: CLit) -> bool {
        match b {
            CLit::T => true,
            CLit::F => false,
            CLit::L(l) => {
                let l = self.require(l, POS);
                self.solver.add_clause(&[l])
            }
        }
    }

    /// Session contract (a): drop every gate not reachable through
    /// operands from `roots` or an input — hash entry removed, slot on the
    /// free list — so a long session's table plateaus.
    pub(crate) fn sweep(&mut self, roots: impl Iterator<Item = GLit>) {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<usize> = roots.map(GLit::gate).collect();
        stack.extend(self.inputs.iter().map(|&g| g as usize));
        while let Some(g) = stack.pop() {
            if std::mem::replace(&mut live[g], true) {
                continue;
            }
            let (op, a, b, c) = self.gates[g].key;
            if matches!(op, Op::And | Op::Xor | Op::Ite) {
                stack.extend([a, b].map(|x| GLit(x).gate()));
            }
            if op == Op::Ite {
                stack.push(GLit(c).gate());
            }
        }
        for (g, live) in live.into_iter().enumerate() {
            let gate = &mut self.gates[g];
            if !live && gate.key.0 != Op::Free {
                self.table.remove(&gate.key);
                *gate = Gate {
                    key: (Op::Free, 0, 0, 0),
                    var: None,
                    emitted: 0,
                };
                self.free.push(g as u32);
            }
        }
    }

    /// Session contract (c): forget the emission of every gate whose
    /// variable inprocessing eliminated. Must run after `inprocess()` and
    /// before the next `new_var` can recycle such an index, or the
    /// structural hash would hand out a literal over an eliminated or
    /// reused variable. The gate stays in the table; its next user emits
    /// it afresh.
    pub(crate) fn unemit_eliminated(&mut self) {
        for gate in &mut self.gates {
            if gate.var.is_some_and(|v| self.solver.is_eliminated(v)) {
                gate.var = None;
                gate.emitted = 0;
            }
        }
    }
}

impl BoolAlg for CnfAlg {
    type B = CLit;

    fn lit(&mut self, b: bool) -> CLit {
        if b {
            CLit::T
        } else {
            CLit::F
        }
    }

    fn var_bit(&mut self, var: VarId, bit: u32) -> CLit {
        self.mk((Op::Input, var.0, bit, 0))
    }

    fn not(&mut self, a: &CLit) -> CLit {
        match *a {
            CLit::T => CLit::F,
            CLit::F => CLit::T,
            CLit::L(l) => CLit::L(!l),
        }
    }

    fn and(&mut self, a: &CLit, b: &CLit) -> CLit {
        match (*a, *b) {
            (CLit::F, _) | (_, CLit::F) => CLit::F,
            (CLit::T, x) | (x, CLit::T) => x,
            (CLit::L(x), CLit::L(y)) if x == y => CLit::L(x),
            (CLit::L(x), CLit::L(y)) if x == !y => CLit::F,
            (CLit::L(x), CLit::L(y)) => self.mk((Op::And, x.0.min(y.0), x.0.max(y.0), 0)),
        }
    }

    fn or(&mut self, a: &CLit, b: &CLit) -> CLit {
        let (na, nb) = (self.not(a), self.not(b));
        let nor = self.and(&na, &nb);
        self.not(&nor)
    }

    fn xor(&mut self, a: &CLit, b: &CLit) -> CLit {
        match (*a, *b) {
            (CLit::F, x) | (x, CLit::F) => x,
            (CLit::T, x) | (x, CLit::T) => self.not(&x),
            (CLit::L(x), CLit::L(y)) if x == y => CLit::F,
            (CLit::L(x), CLit::L(y)) if x == !y => CLit::T,
            (CLit::L(x), CLit::L(y)) => {
                // ¬x ⊕ y = ¬(x ⊕ y): the gate is over the bare operands.
                let (p, q) = (x.0 & !1, y.0 & !1);
                let g = self.mk((Op::Xor, p.min(q), p.max(q), 0));
                if x.negated() != y.negated() {
                    self.not(&g)
                } else {
                    g
                }
            }
        }
    }

    fn ite(&mut self, c: &CLit, t: &CLit, e: &CLit) -> CLit {
        let cl = match *c {
            CLit::T => return *t,
            CLit::F => return *e,
            CLit::L(cl) => cl,
        };
        // An arm that mentions the condition is a constant where it is
        // read: ite(c, c, e) = ite(c, ⊤, e), ite(c, t, ¬c) = ite(c, t, ⊤).
        let arm = |x: CLit, taken: bool| match x {
            CLit::L(x) if x == cl || x == !cl => {
                if (x == cl) == taken {
                    CLit::T
                } else {
                    CLit::F
                }
            }
            x => x,
        };
        match (arm(*t, true), arm(*e, false)) {
            (t, e) if t == e => t,
            (CLit::T, CLit::F) => *c,
            (CLit::F, CLit::T) => self.not(c),
            (CLit::T, x) => self.or(c, &x),
            (CLit::F, x) => {
                let nc = self.not(c);
                self.and(&nc, &x)
            }
            (x, CLit::T) => {
                let nc = self.not(c);
                self.or(&nc, &x)
            }
            (x, CLit::F) => self.and(c, &x),
            // ite(c, ¬e, e) = c ⊕ e
            (CLit::L(t), CLit::L(e)) if t == !e => self.xor(c, &CLit::L(e)),
            (CLit::L(t), CLit::L(e)) => {
                // Normal form: positive condition, positive then-arm.
                let (cl, t, e) = if cl.negated() {
                    (!cl, e, t)
                } else {
                    (cl, t, e)
                };
                if t.negated() {
                    let g = self.mk((Op::Ite, cl.0, (!t).0, (!e).0));
                    self.not(&g)
                } else {
                    self.mk((Op::Ite, cl.0, t.0, e.0))
                }
            }
        }
    }

    fn const_of(&self, b: &CLit) -> Option<bool> {
        match b {
            CLit::T => Some(true),
            CLit::F => Some(false),
            CLit::L(_) => None,
        }
    }
}

/// Solve a boolean expression with the SAT pipeline; `Some(env)` maps each
/// variable to a concrete value on success.
pub fn solve(ctx: &Context, root: ExprId) -> Option<Env> {
    match solve_budgeted(ctx, root, &Budget::unlimited()).0 {
        SolveOutcome::Sat(env) => Some(env),
        SolveOutcome::Unsat => None,
        SolveOutcome::Cancelled => unreachable!("unlimited budget cannot cancel"),
    }
}

/// [`solve`] under a cooperative [`Budget`], also reporting the CDCL
/// solver's search statistics. The budget is polled on conflict and
/// decision boundaries inside the search loop.
pub fn solve_budgeted(ctx: &Context, root: ExprId, budget: &Budget) -> (SolveOutcome, Stats) {
    assert_eq!(ctx.sort_of(root), Sort::Bool, "solve: root must be Bool");
    let _span = rzen_obs::span!("smt.solve", "root" => root.0);
    let mut alg = CnfAlg::new();
    let b = *BitCompiler::new(&mut alg).compile(ctx, root).as_bool();
    // Gate building and emission are linear and not interrupted; honor a
    // budget that expired during them before starting the search.
    let status = if !alg.assert_true(b) {
        SolveStatus::Unsat
    } else if budget.is_exhausted() {
        SolveStatus::Unknown
    } else {
        alg.solver.set_interrupt(budget.cancel_flag());
        if let Some(deadline) = budget.deadline() {
            alg.solver.set_deadline(deadline);
        }
        alg.solver.solve_limited(&[])
    };
    flush_solve_counts(
        alg.solver.num_vars() as u64,
        alg.solver.num_clauses() as u64,
        alg.gates_built,
        alg.gates_emitted,
    );
    let stats = alg.solver.stats;
    match status {
        SolveStatus::Sat => (SolveOutcome::Sat(extract_env(ctx, &alg)), stats),
        SolveStatus::Unsat => (SolveOutcome::Unsat, stats),
        SolveStatus::Unknown => (SolveOutcome::Cancelled, stats),
    }
}

/// Fold one solve's encoding counts into the metrics registry: the
/// solver variables and problem clauses it added, and built-vs-emitted
/// gates (how much of what the compiler built the verdict needed).
pub(crate) fn flush_solve_counts(vars: u64, clauses: u64, built: u64, emitted: u64) {
    rzen_obs::counter!("smt.solves", "SMT backend solve calls").inc();
    rzen_obs::counter!("smt.vars", "CNF variables allocated (summed over solves)").add(vars);
    rzen_obs::counter!("smt.clauses", "CNF clauses asserted (summed over solves)").add(clauses);
    rzen_obs::counter!("bitblast.gates_built", "gates added to the CNF gate table").add(built);
    rzen_obs::counter!(
        "bitblast.gates_emitted",
        "gates given a solver variable (cone of a required literal)"
    )
    .add(emitted);
}

/// Read a model out of a satisfied solver. Only emitted input bits have a
/// solver variable; a bit outside every required cone reads as 0 (an
/// unbound variable takes its sort's default), which is as good as any
/// value: the caller completes the witness with `interp::eval` over the
/// symbolic input, and a checker such as `Query::check_witness` replays
/// it concretely.
pub fn extract_env(ctx: &Context, alg: &CnfAlg) -> Env {
    let mut acc: FastHashMap<u32, u64> = FastHashMap::default();
    for (var, bit, lit) in alg.var_bits() {
        let value = alg.solver.value(lit.var()) == lit.is_pos();
        if value {
            *acc.entry(var.0).or_insert(0) |= 1u64 << bit;
        } else {
            acc.entry(var.0).or_insert(0);
        }
    }
    let mut env = Env::new();
    for (var_idx, bits) in acc {
        let var = VarId(var_idx);
        let sort = ctx.var_sort(var);
        let val = match sort {
            Sort::Bool => Value::Bool(bits & 1 == 1),
            Sort::BitVec { .. } => Value::int(sort, bits),
            Sort::Struct(_) => unreachable!(),
        };
        env.bind(var, val);
    }
    env
}
