//! Test input generation (§8 "Testing implementations").
//!
//! "Given a Zen function f, `f.GenerateInputs()` produces test inputs with
//! a high-degree of coverage based on symbolic execution." The generator
//! walks the conditional spine of the model's output expression — for an
//! ACL or route-map model, one branch per rule — and solves each path
//! condition with the incremental SAT backend (one solver, one assumption
//! set per path), yielding a concrete input that drives execution down
//! that path. For an ACL this produces exactly the paper's example: "test
//! packets that match on every single rule in the ACL".

use rzen_sat::Lit;

use crate::backend::bitblast::BitCompiler;
use crate::backend::interp::eval;
use crate::backend::smt::{CLit, CnfAlg, NEG, POS};
use crate::ctx::with_ctx;
use crate::function::{FindOptions, ZenFunction};
use crate::ir::{Expr, ExprId};
use crate::lang::{Zen, ZenType};
use crate::value::Value;

/// One path through the conditional spine: (condition, required polarity)
/// pairs.
type Path = Vec<(ExprId, bool)>;

/// Enumerate root-to-leaf paths through the `If` spine of `root`, capped
/// at `max_paths`.
fn spine_paths(root: ExprId, max_paths: usize) -> Vec<Path> {
    let mut out: Vec<Path> = Vec::new();
    let mut stack: Vec<(ExprId, Path)> = vec![(root, Vec::new())];
    with_ctx(|ctx| {
        while let Some((e, pc)) = stack.pop() {
            if out.len() >= max_paths {
                break;
            }
            match ctx.expr(e) {
                Expr::If(c, t, f) => {
                    let (c, t, f) = (*c, *t, *f);
                    let mut pt = pc.clone();
                    pt.push((c, true));
                    let mut pf = pc;
                    pf.push((c, false));
                    stack.push((f, pf));
                    stack.push((t, pt));
                }
                _ => out.push(pc),
            }
        }
    });
    out
}

/// Generate up to `max_inputs` distinct concrete inputs covering the
/// model's decision structure.
pub fn generate_inputs<A: ZenType, R: ZenType>(
    f: &ZenFunction<A, R>,
    opts: &FindOptions,
    max_inputs: usize,
) -> Vec<A> {
    let input = Zen::<A>::symbolic(opts.list_bound);
    let out = f.apply(input);
    let paths = spine_paths(out.expr_id(), max_inputs.saturating_mul(2).max(16));

    // Compile every distinct condition once into a shared solver; each
    // path is then a set of assumptions — incremental solving reuses all
    // learnt clauses across paths.
    let mut alg = CnfAlg::new();
    let mut cond_lits: rzen_bdd::FastHashMap<u32, CLit> = rzen_bdd::FastHashMap::default();
    with_ctx(|ctx| {
        let mut compiler = BitCompiler::new(&mut alg);
        for path in &paths {
            for &(c, _) in path {
                cond_lits.entry(c.0).or_insert_with(|| {
                    let sym = compiler.compile(ctx, c);
                    *sym.as_bool()
                });
            }
        }
    });
    // Paths assume their conditions both ways: the solver needs each
    // one's definition in both polarities.
    for b in cond_lits.values() {
        if let CLit::L(l) = *b {
            alg.require(l, POS | NEG);
        }
    }

    let mut results: Vec<A> = Vec::new();
    let mut seen: Vec<Value> = Vec::new();
    for path in paths {
        if results.len() >= max_inputs {
            break;
        }
        let mut assumptions: Vec<Lit> = Vec::new();
        let mut infeasible = false;
        for (c, want) in path {
            match cond_lits[&c.0] {
                CLit::T => infeasible |= !want,
                CLit::F => infeasible |= want,
                CLit::L(l) => {
                    let l = alg.solver_lit(l).expect("required above");
                    assumptions.push(if want { l } else { !l })
                }
            }
        }
        if infeasible {
            continue;
        }
        if !alg.solver.solve_with_assumptions(&assumptions) {
            continue;
        }
        let env = with_ctx(|ctx| crate::backend::smt::extract_env(ctx, &alg));
        let v = with_ctx(|ctx| eval(ctx, input.expr_id(), &env));
        if seen.contains(&v) {
            continue;
        }
        seen.push(v.clone());
        results.push(A::from_value(&v));
    }
    results
}
