//! `ZenFunction`: the handle through which models are analyzed.
//!
//! Mirrors the paper's API surface: `Function(...)` wraps a model,
//! `Find` searches for an input satisfying a property of the input/output
//! pair (§4), `Transformer` lifts the model to a set transformer (§4),
//! `GenerateInputs` derives test inputs (§8), and `Compile` produces an
//! efficient executable implementation (§8).

use std::rc::Rc;

use crate::backend::compile::{bind_value, compile, Program};
use crate::backend::interp::{eval, Env};
use crate::backend::SolveOutcome;
use crate::budget::Budget;
use crate::ctx::with_ctx;
use crate::ir::ExprId;
use crate::lang::{Zen, ZenType};
use crate::session::SolverSession;
use crate::stateset::{StateSetTransformer, TransformerSpace};

/// Which solver pipeline `find` uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Compile to a binary decision diagram (with the §6 variable-ordering
    /// interaction analysis) and pick a satisfying path.
    Bdd,
    /// Bitblast to CNF and run the CDCL SAT solver — the paper's SMT
    /// pipeline ("theory of bitvectors, then bitblast to SAT").
    Smt,
}

/// Options for [`ZenFunction::find`] and related symbolic queries.
#[derive(Clone, Copy, Debug)]
pub struct FindOptions {
    /// Solver backend.
    pub backend: Backend,
    /// Maximum symbolic list length (the paper's "optional parameter to
    /// the Find function" controlling list size).
    pub list_bound: u16,
    /// Whether the BDD backend runs the variable-ordering interaction
    /// analysis (disable only to measure the ablation).
    pub ordering_analysis: bool,
}

impl Default for FindOptions {
    fn default() -> Self {
        FindOptions {
            backend: Backend::Bdd,
            list_bound: 4,
            ordering_analysis: true,
        }
    }
}

impl FindOptions {
    /// Options selecting the BDD backend.
    pub fn bdd() -> Self {
        FindOptions {
            backend: Backend::Bdd,
            ..Default::default()
        }
    }

    /// Options selecting the SAT/SMT backend.
    pub fn smt() -> Self {
        FindOptions {
            backend: Backend::Smt,
            ..Default::default()
        }
    }

    /// Set the list bound.
    pub fn with_list_bound(mut self, bound: u16) -> Self {
        self.list_bound = bound;
        self
    }
}

/// Outcome of a budgeted [`ZenFunction::find_budgeted`] query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FindOutcome<A> {
    /// An input satisfying the predicate.
    Found(A),
    /// No satisfying input exists (up to the list bound).
    Unsat,
    /// The budget ran out before the solver reached a verdict.
    Cancelled,
}

/// A budgeted find result together with the substrate counters of
/// whichever solver ran.
#[derive(Clone, Debug)]
pub struct FindReport<A> {
    /// The verdict.
    pub outcome: FindOutcome<A>,
    /// CDCL search statistics (SMT backend only).
    pub sat_stats: Option<rzen_sat::Stats>,
    /// BDD manager counters (BDD backend only).
    pub bdd_stats: Option<rzen_bdd::BddStats>,
}

/// The report for a solve of a condition over `input`: a model of the
/// condition is read back as the input it assigns.
pub(crate) fn report<A: ZenType>(
    input: Zen<A>,
    solved: SolveOutcome,
    sat_stats: Option<rzen_sat::Stats>,
    bdd_stats: Option<rzen_bdd::BddStats>,
) -> FindReport<A> {
    let outcome = match solved {
        SolveOutcome::Sat(env) => {
            let v = with_ctx(|ctx| eval(ctx, input.id, &env));
            FindOutcome::Found(A::from_value(&v))
        }
        SolveOutcome::Unsat => FindOutcome::Unsat,
        SolveOutcome::Cancelled => FindOutcome::Cancelled,
    };
    FindReport {
        outcome,
        sat_stats,
        bdd_stats,
    }
}

/// A unary model: a function from `Zen<A>` to `Zen<R>` that the library
/// can simulate, verify, transform, and compile. Use tuple inputs (or
/// [`ZenFunction2`]/[`ZenFunction3`]) for multiple arguments.
pub struct ZenFunction<A, R> {
    f: Rc<dyn Fn(Zen<A>) -> Zen<R>>,
}

impl<A, R> Clone for ZenFunction<A, R> {
    fn clone(&self) -> Self {
        ZenFunction { f: self.f.clone() }
    }
}

impl<A: ZenType, R: ZenType> ZenFunction<A, R> {
    /// Wrap a model.
    pub fn new(f: impl Fn(Zen<A>) -> Zen<R> + 'static) -> Self {
        ZenFunction { f: Rc::new(f) }
    }

    /// Apply to a symbolic argument (building the expression).
    pub fn apply(&self, x: Zen<A>) -> Zen<R> {
        (self.f)(x)
    }

    /// Simulate: run the model on a concrete input. This is exact — list
    /// sizes follow the input, no bound applies.
    pub fn evaluate(&self, a: &A) -> R {
        let out = (self.f)(Zen::constant(a));
        let v = with_ctx(|ctx| eval(ctx, out.id, &Env::new()));
        R::from_value(&v)
    }

    /// Find an input for which `pred(input, output)` holds, or `None` if
    /// no such input exists (up to the list bound).
    pub fn find(
        &self,
        pred: impl FnOnce(Zen<A>, Zen<R>) -> Zen<bool>,
        opts: &FindOptions,
    ) -> Option<A> {
        match self.find_budgeted(pred, opts, &Budget::unlimited()).outcome {
            FindOutcome::Found(a) => Some(a),
            FindOutcome::Unsat => None,
            FindOutcome::Cancelled => unreachable!("unlimited budget cannot cancel"),
        }
    }

    /// [`ZenFunction::find`] under a cooperative [`Budget`]. A raised flag
    /// or expired deadline yields [`FindOutcome::Cancelled`] — never a
    /// wrong verdict — and the report carries the substrate counters of
    /// the backend that ran.
    pub fn find_budgeted(
        &self,
        pred: impl FnOnce(Zen<A>, Zen<R>) -> Zen<bool>,
        opts: &FindOptions,
        budget: &Budget,
    ) -> FindReport<A> {
        let input = Zen::<A>::symbolic(opts.list_bound);
        let out = (self.f)(input);
        let cond = pred(input, out);
        let (solved, sat_stats, bdd_stats) = match opts.backend {
            Backend::Bdd => {
                let (o, s) = with_ctx(|ctx| {
                    crate::backend::bdd::solve_budgeted(
                        ctx,
                        cond.id,
                        opts.ordering_analysis,
                        budget,
                    )
                });
                (o, None, Some(s))
            }
            Backend::Smt => {
                let (o, s) =
                    with_ctx(|ctx| crate::backend::smt::solve_budgeted(ctx, cond.id, budget));
                (o, Some(s), None)
            }
        };
        report(input, solved, sat_stats, bdd_stats)
    }

    /// [`ZenFunction::find_budgeted`] through a long-lived
    /// [`SolverSession`]: the symbolic input, compiled circuit nodes, and
    /// solver state (learnt clauses / BDD tables) persist across calls on
    /// the same session. `opts.backend` is ignored — the session's backend
    /// rules. See [`crate::session`] for the thread-affinity contract.
    pub fn find_in_session(
        &self,
        pred: impl FnOnce(Zen<A>, Zen<R>) -> Zen<bool>,
        opts: &FindOptions,
        budget: &Budget,
        session: &mut SolverSession,
    ) -> FindReport<A> {
        // Reuse the session's symbolic input for this (type, bound): the
        // hash-consed arena then shares every model sub-DAG with earlier
        // queries over the same model, which is what the session's caches
        // key on.
        let input = session.input::<A>(opts.list_bound);
        let out = (self.f)(input);
        session.find(input, pred(input, out), opts, budget)
    }

    /// Decide whether `pred(input, output)` holds for **all** inputs
    /// (up to the list bound); returns a counterexample input otherwise.
    pub fn verify(
        &self,
        pred: impl FnOnce(Zen<A>, Zen<R>) -> Zen<bool>,
        opts: &FindOptions,
    ) -> Result<(), A> {
        match self.find(|a, r| !pred(a, r), opts) {
            None => Ok(()),
            Some(cex) => Err(cex),
        }
    }

    /// Lift the model to a state-set transformer in `space` (§4
    /// "Computing with sets").
    pub fn transformer(&self, space: &TransformerSpace) -> StateSetTransformer<A, R> {
        space.transformer(self)
    }

    /// Generate concrete inputs covering the model's decision structure
    /// (§8 "Testing implementations").
    pub fn generate_inputs(&self, opts: &FindOptions, max_inputs: usize) -> Vec<A> {
        crate::geninputs::generate_inputs(self, opts, max_inputs)
    }

    /// Compile to a register bytecode program for fast repeated concrete
    /// execution (§8 "Synthesizing implementations"). Lists are truncated
    /// to `list_bound` elements.
    pub fn compile(&self, list_bound: u16) -> CompiledFunction<A, R> {
        let input = Zen::<A>::symbolic(list_bound);
        let out = (self.f)(input);
        let prog = with_ctx(|ctx| compile(ctx, out.id));
        CompiledFunction {
            prog,
            input_shape: input.id,
            _t: std::marker::PhantomData,
        }
    }
}

/// A model compiled to a register program. Created by
/// [`ZenFunction::compile`].
pub struct CompiledFunction<A, R> {
    prog: Program,
    input_shape: ExprId,
    _t: std::marker::PhantomData<fn(&A) -> R>,
}

impl<A: ZenType, R: ZenType> CompiledFunction<A, R> {
    /// Execute on a concrete input.
    pub fn call(&self, a: &A) -> R {
        let v = a.to_value();
        let mut env = Env::new();
        with_ctx(|ctx| bind_value(ctx, self.input_shape, &v, &mut env));
        let out = self.prog.run(&env);
        R::from_value(&out)
    }

    /// Number of VM instructions (diagnostics).
    pub fn size(&self) -> usize {
        self.prog.len()
    }
}

/// A binary model, represented internally over a pair input.
pub struct ZenFunction2<A, B, R> {
    inner: ZenFunction<(A, B), R>,
}

impl<A: ZenType, B: ZenType, R: ZenType> ZenFunction2<A, B, R> {
    /// Wrap a two-argument model.
    pub fn new(f: impl Fn(Zen<A>, Zen<B>) -> Zen<R> + 'static) -> Self {
        ZenFunction2 {
            inner: ZenFunction::new(move |p: Zen<(A, B)>| f(p.item1(), p.item2())),
        }
    }

    /// The underlying unary function over the tuple input.
    pub fn as_unary(&self) -> &ZenFunction<(A, B), R> {
        &self.inner
    }

    /// Simulate on concrete inputs.
    pub fn evaluate(&self, a: &A, b: &B) -> R {
        self.inner.evaluate(&(a.clone(), b.clone()))
    }

    /// Find inputs satisfying a property of inputs and output.
    pub fn find(
        &self,
        pred: impl FnOnce(Zen<A>, Zen<B>, Zen<R>) -> Zen<bool>,
        opts: &FindOptions,
    ) -> Option<(A, B)> {
        self.inner.find(|p, r| pred(p.item1(), p.item2(), r), opts)
    }
}

/// A ternary model, represented internally over a triple input.
pub struct ZenFunction3<A, B, C, R> {
    inner: ZenFunction<(A, B, C), R>,
}

impl<A: ZenType, B: ZenType, C: ZenType, R: ZenType> ZenFunction3<A, B, C, R> {
    /// Wrap a three-argument model.
    pub fn new(f: impl Fn(Zen<A>, Zen<B>, Zen<C>) -> Zen<R> + 'static) -> Self {
        ZenFunction3 {
            inner: ZenFunction::new(move |p: Zen<(A, B, C)>| f(p.item1(), p.item2(), p.item3())),
        }
    }

    /// The underlying unary function over the triple input.
    pub fn as_unary(&self) -> &ZenFunction<(A, B, C), R> {
        &self.inner
    }

    /// Simulate on concrete inputs.
    pub fn evaluate(&self, a: &A, b: &B, c: &C) -> R {
        self.inner.evaluate(&(a.clone(), b.clone(), c.clone()))
    }

    /// Find inputs satisfying a property of inputs and output.
    pub fn find(
        &self,
        pred: impl FnOnce(Zen<A>, Zen<B>, Zen<C>, Zen<R>) -> Zen<bool>,
        opts: &FindOptions,
    ) -> Option<(A, B, C)> {
        self.inner
            .find(|p, r| pred(p.item1(), p.item2(), p.item3(), r), opts)
    }
}
