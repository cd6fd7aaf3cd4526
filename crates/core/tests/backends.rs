//! Cross-backend differential tests: the same model must behave
//! identically under the interpreter, the compiled VM, the BDD solver,
//! the SAT solver, and (soundly) the ternary evaluator. This is the
//! paper's central claim — one model, many analyses — as an executable
//! invariant.

use proptest::prelude::*;
use rzen::backend::bdd::BddAlg;
use rzen::backend::boolalg::BoolAlg;
use rzen::backend::ordering::compute_order;
use rzen::backend::smt::{CLit, CnfAlg, NEG, POS};
use rzen::backend::ternary::TernaryAlg;
use rzen::ir::{Expr, VarId};
use rzen::{
    pair, zen_struct, zif, Backend, Budget, FindOptions, FindOutcome, SolverSession, Zen,
    ZenFunction, ZenType,
};
use rzen_bdd::BddManager;
use rzen_sat::Lit;

/// A small typed expression AST over an input pair (u8, u8) that we can
/// build into a model.
#[derive(Clone, Debug)]
enum Prog {
    InA,
    InB,
    Const(u8),
    Add(Box<Prog>, Box<Prog>),
    Sub(Box<Prog>, Box<Prog>),
    Mul(Box<Prog>, Box<Prog>),
    And(Box<Prog>, Box<Prog>),
    Or(Box<Prog>, Box<Prog>),
    Xor(Box<Prog>, Box<Prog>),
    Shl(Box<Prog>, Box<Prog>),
    Shr(Box<Prog>, Box<Prog>),
    IfLt(Box<Prog>, Box<Prog>, Box<Prog>, Box<Prog>),
    IfEq(Box<Prog>, Box<Prog>, Box<Prog>, Box<Prog>),
}

fn prog_strategy() -> impl Strategy<Value = Prog> {
    let leaf = prop_oneof![
        Just(Prog::InA),
        Just(Prog::InB),
        any::<u8>().prop_map(Prog::Const),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        let b = inner.clone();
        prop_oneof![
            (inner.clone(), b.clone()).prop_map(|(x, y)| Prog::Add(Box::new(x), Box::new(y))),
            (inner.clone(), b.clone()).prop_map(|(x, y)| Prog::Sub(Box::new(x), Box::new(y))),
            (inner.clone(), b.clone()).prop_map(|(x, y)| Prog::Mul(Box::new(x), Box::new(y))),
            (inner.clone(), b.clone()).prop_map(|(x, y)| Prog::And(Box::new(x), Box::new(y))),
            (inner.clone(), b.clone()).prop_map(|(x, y)| Prog::Or(Box::new(x), Box::new(y))),
            (inner.clone(), b.clone()).prop_map(|(x, y)| Prog::Xor(Box::new(x), Box::new(y))),
            (inner.clone(), b.clone()).prop_map(|(x, y)| Prog::Shl(Box::new(x), Box::new(y))),
            (inner.clone(), b.clone()).prop_map(|(x, y)| Prog::Shr(Box::new(x), Box::new(y))),
            (inner.clone(), b.clone(), b.clone(), b.clone()).prop_map(|(c1, c2, t, e)| {
                Prog::IfLt(Box::new(c1), Box::new(c2), Box::new(t), Box::new(e))
            }),
            (inner.clone(), b.clone(), b.clone(), b).prop_map(|(c1, c2, t, e)| {
                Prog::IfEq(Box::new(c1), Box::new(c2), Box::new(t), Box::new(e))
            }),
        ]
    })
}

/// Reference semantics in plain Rust.
fn run_native(p: &Prog, a: u8, b: u8) -> u8 {
    match p {
        Prog::InA => a,
        Prog::InB => b,
        Prog::Const(c) => *c,
        Prog::Add(x, y) => run_native(x, a, b).wrapping_add(run_native(y, a, b)),
        Prog::Sub(x, y) => run_native(x, a, b).wrapping_sub(run_native(y, a, b)),
        Prog::Mul(x, y) => run_native(x, a, b).wrapping_mul(run_native(y, a, b)),
        Prog::And(x, y) => run_native(x, a, b) & run_native(y, a, b),
        Prog::Or(x, y) => run_native(x, a, b) | run_native(y, a, b),
        Prog::Xor(x, y) => run_native(x, a, b) ^ run_native(y, a, b),
        Prog::Shl(x, y) => {
            let amt = run_native(y, a, b);
            if amt >= 8 {
                0
            } else {
                run_native(x, a, b) << amt
            }
        }
        Prog::Shr(x, y) => {
            let amt = run_native(y, a, b);
            if amt >= 8 {
                0
            } else {
                run_native(x, a, b) >> amt
            }
        }
        Prog::IfLt(c1, c2, t, e) => {
            if run_native(c1, a, b) < run_native(c2, a, b) {
                run_native(t, a, b)
            } else {
                run_native(e, a, b)
            }
        }
        Prog::IfEq(c1, c2, t, e) => {
            if run_native(c1, a, b) == run_native(c2, a, b) {
                run_native(t, a, b)
            } else {
                run_native(e, a, b)
            }
        }
    }
}

/// Build the same program as a Zen expression.
fn build_zen(p: &Prog, a: Zen<u8>, b: Zen<u8>) -> Zen<u8> {
    match p {
        Prog::InA => a,
        Prog::InB => b,
        Prog::Const(c) => Zen::val(*c),
        Prog::Add(x, y) => build_zen(x, a, b) + build_zen(y, a, b),
        Prog::Sub(x, y) => build_zen(x, a, b) - build_zen(y, a, b),
        Prog::Mul(x, y) => build_zen(x, a, b) * build_zen(y, a, b),
        Prog::And(x, y) => build_zen(x, a, b) & build_zen(y, a, b),
        Prog::Or(x, y) => build_zen(x, a, b) | build_zen(y, a, b),
        Prog::Xor(x, y) => build_zen(x, a, b) ^ build_zen(y, a, b),
        Prog::Shl(x, y) => build_zen(x, a, b) << build_zen(y, a, b),
        Prog::Shr(x, y) => build_zen(x, a, b) >> build_zen(y, a, b),
        Prog::IfLt(c1, c2, t, e) => zif(
            build_zen(c1, a, b).lt(build_zen(c2, a, b)),
            build_zen(t, a, b),
            build_zen(e, a, b),
        ),
        Prog::IfEq(c1, c2, t, e) => zif(
            build_zen(c1, a, b).eq(build_zen(c2, a, b)),
            build_zen(t, a, b),
            build_zen(e, a, b),
        ),
    }
}

fn as_function(p: &Prog) -> ZenFunction<(u8, u8), u8> {
    let p = p.clone();
    ZenFunction::new(move |input: Zen<(u8, u8)>| build_zen(&p, input.item1(), input.item2()))
}

// ---------------------------------------------------------------------
// The `BoolAlg` contract, gate by gate.
// ---------------------------------------------------------------------

/// An operand shape: a constant, or one of three fresh variables, plain
/// or negated — `x` beside `¬x` is what the normalisers' collapses see.
type Atom = (Option<usize>, bool);

/// `n` fresh Boolean variables of the thread's context.
fn fresh_vars(n: usize) -> Vec<VarId> {
    (0..n)
        .map(|_| {
            let id = Zen::<bool>::symbolic(0).expr_id();
            rzen::with_ctx(|ctx| match ctx.expr(id) {
                Expr::Var(v) => *v,
                other => unreachable!("a symbolic bool is a variable, not {other:?}"),
            })
        })
        .collect()
}

fn atom<A: BoolAlg>(alg: &mut A, vars: &[VarId], (var, flag): Atom) -> A::B {
    match var {
        None => alg.lit(flag),
        Some(i) => {
            let x = alg.var_bit(vars[i], 0);
            if flag {
                alg.not(&x)
            } else {
                x
            }
        }
    }
}

/// Truth-table agreement of every connective on every operand shape.
/// `value(alg, vars, b, a)` is the instantiation's own decision procedure:
/// the value of `b` when the three variables are `a`, or `None` where it
/// cannot tell. One algebra per connective, so later shapes find earlier
/// gates half-emitted.
fn laws<A: BoolAlg>(
    mk: impl Fn() -> A,
    value: impl Fn(&mut A, &[VarId], &A::B, [bool; 3]) -> Option<bool>,
) {
    let vars = fresh_vars(3);
    type Build<A> = fn(&mut A, &[<A as BoolAlg>::B]) -> <A as BoolAlg>::B;
    type Connective<A> = (&'static str, usize, Build<A>, fn(&[bool]) -> bool);
    let ops: [Connective<A>; 6] = [
        ("not", 1, |g, x| g.not(&x[0]), |v| !v[0]),
        ("and", 2, |g, x| g.and(&x[0], &x[1]), |v| v[0] & v[1]),
        ("or", 2, |g, x| g.or(&x[0], &x[1]), |v| v[0] | v[1]),
        ("xor", 2, |g, x| g.xor(&x[0], &x[1]), |v| v[0] ^ v[1]),
        ("iff", 2, |g, x| g.iff(&x[0], &x[1]), |v| v[0] == v[1]),
        (
            "ite",
            3,
            |g, x| g.ite(&x[0], &x[1], &x[2]),
            |v| if v[0] { v[1] } else { v[2] },
        ),
    ];
    for (name, arity, build, truth) in ops {
        let mut alg = mk();
        for shape in 0..8usize.pow(arity as u32) {
            let atoms: Vec<Atom> = (0..arity)
                .map(|k| shape >> (3 * k) & 7)
                .map(|d| ((d >= 2).then(|| d / 2 - 1), d % 2 == 1))
                .collect();
            let operands: Vec<A::B> = atoms.iter().map(|&a| atom(&mut alg, &vars, a)).collect();
            let out = build(&mut alg, &operands);
            for bits in 0..8u8 {
                let a = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
                let inputs: Vec<bool> = atoms
                    .iter()
                    .map(|&(var, flag)| var.map_or(flag, |i| a[i] ^ flag))
                    .collect();
                if let Some(v) = value(&mut alg, &vars, &out, a) {
                    assert_eq!(v, truth(&inputs), "{name} over {atoms:?} under {a:?}");
                }
            }
        }
    }
}

/// Can `b` be `want` under `assume`? Decided by the solver through
/// `require` in the polarity the question needs.
fn cnf_can(alg: &mut CnfAlg, b: CLit, want: bool, assume: &[Lit]) -> bool {
    match b {
        CLit::T => want,
        CLit::F => !want,
        CLit::L(g) => {
            let l = alg.require(if want { g } else { !g }, POS);
            let mut assume = assume.to_vec();
            assume.push(l);
            alg.solver.solve_with_assumptions(&assume)
        }
    }
}

#[test]
fn boolalg_laws_hold_on_every_instantiation() {
    // CNF: the miter, solved through `require`, once per polarity.
    laws(CnfAlg::new, |alg, vars, b, a| {
        let assume: Vec<Lit> = (0..3)
            .map(|i| {
                let CLit::L(x) = alg.var_bit(vars[i], 0) else {
                    unreachable!("inputs are gates")
                };
                let l = alg.require(x, POS);
                if a[i] {
                    l
                } else {
                    !l
                }
            })
            .collect();
        let (t, f) = (
            cnf_can(alg, *b, true, &assume),
            cnf_can(alg, *b, false, &assume),
        );
        assert_ne!(t, f, "a total assignment leaves exactly one value possible");
        Some(t)
    });
    // BDD: `any_sat` of the function conjoined with the assignment's cube.
    laws(
        || BddAlg {
            m: Box::leak(Box::new(BddManager::new())),
            order: rzen::with_ctx(|ctx| compute_order(ctx, &[], false)),
        },
        |alg, vars, b, a| {
            let mut on = *b;
            let mut off = alg.m.not(*b);
            for (i, &bit) in a.iter().enumerate() {
                let x = alg.var_bit(vars[i], 0);
                let x = if bit { x } else { alg.m.not(x) };
                on = alg.m.and(on, x);
                off = alg.m.and(off, x);
            }
            let (t, f) = (alg.m.any_sat(on).is_some(), alg.m.any_sat(off).is_some());
            assert_ne!(t, f);
            Some(t)
        },
    );
    // Ternary, nothing known: whatever it commits to holds everywhere.
    laws(TernaryAlg::new, |_, _, b, _| *b);
}

/// A random gate DAG over four inputs: each entry is (connective, three
/// operand picks among the earlier nodes, negation mask); the last node
/// is the root.
type DagSpec = Vec<(u8, u8, u8, u8, u8)>;

const DAG_INPUTS: usize = 4;

fn dag_strategy() -> impl Strategy<Value = DagSpec> {
    prop::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
        ),
        1..24,
    )
}

/// Build `spec` over any algebra; `nodes[i]` for `i < DAG_INPUTS` are the
/// inputs. The concrete `bool` instance below is the reference.
fn build_dag<A: BoolAlg>(alg: &mut A, vars: &[VarId], spec: &DagSpec) -> Vec<A::B> {
    let mut nodes: Vec<A::B> = vars.iter().map(|&v| alg.var_bit(v, 0)).collect();
    for &(op, a, b, c, negs) in spec {
        let mut pick = |k: u8, neg: bool| {
            let x = nodes[k as usize % nodes.len()].clone();
            if neg {
                alg.not(&x)
            } else {
                x
            }
        };
        let (a, b, c) = (
            pick(a, negs & 1 != 0),
            pick(b, negs & 2 != 0),
            pick(c, negs & 4 != 0),
        );
        nodes.push(match op % 5 {
            0 => alg.and(&a, &b),
            1 => alg.or(&a, &b),
            2 => alg.xor(&a, &b),
            3 => alg.iff(&a, &b),
            _ => alg.ite(&a, &b, &c),
        });
    }
    nodes
}

/// Plain Booleans under one assignment (bit `i` for `vars[i]`).
struct Concrete<'a>(&'a [VarId], u8);

impl BoolAlg for Concrete<'_> {
    type B = bool;
    fn lit(&mut self, b: bool) -> bool {
        b
    }
    fn var_bit(&mut self, var: VarId, _: u32) -> bool {
        self.1 >> self.0.iter().position(|&v| v == var).expect("a DAG input") & 1 == 1
    }
    fn not(&mut self, a: &bool) -> bool {
        !a
    }
    fn and(&mut self, a: &bool, b: &bool) -> bool {
        a & b
    }
    fn or(&mut self, a: &bool, b: &bool) -> bool {
        a | b
    }
    fn const_of(&self, b: &bool) -> Option<bool> {
        Some(*b)
    }
}

/// Plaisted–Greenbaum emission against both halves everywhere, against
/// the truth table: same verdict on the root, a model that replays, and
/// every interior node decidable both ways on gates other nodes left
/// half-emitted.
fn check_dag(spec: &DagSpec) -> Result<(), TestCaseError> {
    let vars = fresh_vars(DAG_INPUTS);
    let tables: Vec<Vec<bool>> = (0..1u8 << DAG_INPUTS)
        .map(|bits| build_dag(&mut Concrete(&vars, bits), &vars, spec))
        .collect();
    let root = tables[0].len() - 1;
    let expect = tables.iter().any(|t| t[root]);

    let mut pg = CnfAlg::new();
    let nodes = build_dag(&mut pg, &vars, spec);
    prop_assert_eq!(
        pg.assert_true(nodes[root]) && pg.solver.solve(),
        expect,
        "PG"
    );
    if expect {
        let mut bits = 0u8;
        for (var, _, lit) in pg.var_bits() {
            let i = vars.iter().position(|&v| v == var).expect("a DAG input");
            bits |= u8::from(pg.solver.value(lit.var()) == lit.is_pos()) << i;
        }
        prop_assert!(
            tables[bits as usize][root],
            "PG model {:04b} does not replay",
            bits
        );
    }

    let mut both = CnfAlg::new();
    let nodes = build_dag(&mut both, &vars, spec);
    for n in &nodes {
        if let CLit::L(g) = *n {
            both.require(g, POS | NEG);
        }
    }
    prop_assert_eq!(
        both.assert_true(nodes[root]) && both.solver.solve(),
        expect,
        "both halves"
    );

    let mut shared = CnfAlg::new();
    let nodes = build_dag(&mut shared, &vars, spec);
    for (i, n) in nodes.iter().enumerate() {
        for want in [true, false] {
            let expect = tables.iter().any(|t| t[i] == want);
            prop_assert_eq!(
                cnf_can(&mut shared, *n, want, &[]),
                expect,
                "node {} = {}",
                i,
                want
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Struct- and option-sorted programs: the shapes `forward_along` builds.
// ---------------------------------------------------------------------

zen_struct! {
    pub struct Rec : RecFields {
        a, with_a: u8;
        pt, with_pt: (u8, u8);
        tag, with_tag: bool;
    }
}

/// Programs of sort `Option<Rec>` over the input pair. Every conditional
/// is struct-sorted, so the compiler leaves it pending until a field is
/// projected (`IfALt`, `Hop`), the value is compared (`IfEq`) or the root
/// is handed out.
#[derive(Clone, Debug)]
enum SProg {
    /// `some(Rec { a: inA, pt: (inB, inA), tag: false })`
    In,
    Nothing,
    IfSome(Box<SProg>, Box<SProg>, Box<SProg>),
    IfEq(Box<SProg>, Box<SProg>, Box<SProg>, Box<SProg>),
    IfALt(Box<SProg>, u8, Box<SProg>, Box<SProg>),
    /// One forwarding hop: `None` stays `None`, a guard on a field may
    /// drop, `with` rewrites a field from two others.
    Hop(Box<SProg>, u8),
    /// Nested `with`: swap the pair, flip the tag.
    Swap(Box<SProg>),
}

fn sprog_strategy() -> impl Strategy<Value = SProg> {
    let leaf = prop_oneof![Just(SProg::In), Just(SProg::In), Just(SProg::Nothing)];
    leaf.prop_recursive(4, 24, 4, |inner| {
        let b = || inner.clone().prop_map(Box::new);
        prop_oneof![
            (b(), b(), b()).prop_map(|(c, t, e)| SProg::IfSome(c, t, e)),
            (b(), b(), b(), b()).prop_map(|(x, y, t, e)| SProg::IfEq(x, y, t, e)),
            (b(), any::<u8>(), b(), b()).prop_map(|(x, k, t, e)| SProg::IfALt(x, k, t, e)),
            (b(), any::<u8>()).prop_map(|(x, k)| SProg::Hop(x, k)),
            (b(), any::<u8>()).prop_map(|(x, k)| SProg::Hop(x, k)),
            b().prop_map(SProg::Swap),
        ]
    })
}

fn build_sprog(p: &SProg, input: Zen<(u8, u8)>) -> Zen<Option<Rec>> {
    let go = |p: &SProg| build_sprog(p, input);
    let none = || Zen::<Option<Rec>>::none(0);
    match p {
        SProg::In => Zen::some(Rec::create(
            input.item1(),
            pair(input.item2(), input.item1()),
            Zen::bool(false),
        )),
        SProg::Nothing => none(),
        SProg::IfSome(c, t, e) => zif(go(c).is_some(), go(t), go(e)),
        SProg::IfEq(x, y, t, e) => zif(go(x).eq(go(y)), go(t), go(e)),
        SProg::IfALt(x, k, t, e) => zif(go(x).value().a().lt(Zen::val(*k)), go(t), go(e)),
        SProg::Hop(x, k) => {
            let x = go(x);
            let r = x.value();
            let sent = Zen::some(r.with_a(r.a() + r.pt().item1()));
            zif(
                x.is_some(),
                zif(r.a().lt(Zen::val(*k)), sent, none()),
                none(),
            )
        }
        SProg::Swap(x) => {
            let x = go(x);
            let r = x.value();
            let swapped = r.with_pt(pair(r.pt().item2(), r.pt().item1()));
            zif(x.is_some(), Zen::some(swapped.with_tag(!r.tag())), none())
        }
    }
}

/// `p` at `input` on every backend against the interpreter: forced (the
/// ternary root, `Eq` against the expected value), projected (field by
/// field, no struct comparison anywhere) and cached (the same questions
/// again through one session per solver, which by then holds the pending
/// muxes).
type Pred<'a> = dyn Fn(Zen<(u8, u8)>, Zen<Option<Rec>>) -> Zen<bool> + 'a;

fn check_sprog(p: &SProg, input: (u8, u8)) -> Result<(), TestCaseError> {
    rzen::reset_ctx();
    let f = {
        let p = p.clone();
        ZenFunction::new(move |i: Zen<(u8, u8)>| build_sprog(&p, i))
    };
    let expect = f.evaluate(&input);

    let at_input = build_sprog(p, Zen::constant(&input));
    let t = rzen::with_ctx(|ctx| rzen::backend::ternary::eval(ctx, at_input.expr_id(), None));
    prop_assert_eq!(
        rzen::with_ctx(|ctx| t.concrete(ctx)),
        Some(expect.to_value())
    );

    let here = move |i: Zen<(u8, u8)>| i.eq(Zen::constant(&input));
    let want = expect.clone();
    let differs_by_field = move |out: Zen<Option<Rec>>| match &want {
        None => out.is_some(),
        Some(r) => {
            let v = out.value();
            (!out.is_some())
                .or(v.a().ne(Zen::val(r.a)))
                .or(v.pt().item1().ne(Zen::val(r.pt.0)))
                .or(v.pt().item2().ne(Zen::val(r.pt.1)))
                .or(v.tag().ne(Zen::bool(r.tag)))
        }
    };
    for backend in [Backend::Bdd, Backend::Smt] {
        let opts = FindOptions {
            backend,
            ..FindOptions::default()
        };
        let mut session = SolverSession::new(backend);
        for warm in [false, true, true] {
            let mut find = |pred: &Pred| {
                let pred = |i, o| pred(i, o);
                let budget = Budget::unlimited();
                match warm {
                    false => f.find_budgeted(pred, &opts, &budget).outcome,
                    true => {
                        f.find_in_session(pred, &opts, &budget, &mut session)
                            .outcome
                    }
                }
            };
            let projected = find(&|i, o| here(i).and(differs_by_field(o)));
            prop_assert_eq!(projected, FindOutcome::Unsat, "{:?} projected", backend);
            let forced = find(&|i, o| here(i).and(o.ne(Zen::constant(&expect))));
            prop_assert_eq!(forced, FindOutcome::Unsat, "{:?} forced", backend);
            // Unpinned: any input with this output will do, if it replays.
            match find(&|_, o| o.eq(Zen::constant(&expect))) {
                FindOutcome::Found(w) => prop_assert_eq!(f.evaluate(&w), expect.clone()),
                other => prop_assert!(false, "{:?} lost the witness: {:?}", backend, other),
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interpreter (simulation) and bytecode VM agree with native Rust.
    #[test]
    fn simulate_and_compile_match_native(p in prog_strategy(),
                                         inputs in prop::collection::vec((any::<u8>(), any::<u8>()), 4)) {
        let f = as_function(&p);
        let compiled = f.compile(0);
        for (a, b) in inputs {
            let expect = run_native(&p, a, b);
            prop_assert_eq!(f.evaluate(&(a, b)), expect);
            prop_assert_eq!(compiled.call(&(a, b)), expect);
        }
    }

    /// Both solver backends find correct witnesses and agree on
    /// satisfiability, checked against exhaustive enumeration.
    #[test]
    fn solvers_match_enumeration(p in prog_strategy(), target in any::<u8>()) {
        let f = as_function(&p);
        let exists = (0..=255u16).any(|a| (0..=255u16).step_by(17).any(|b| {
            run_native(&p, a as u8, b as u8) == target
        }));
        // Constrain b to multiples of 17 so enumeration stays fast and the
        // predicate is non-trivial.
        for backend in [Backend::Bdd, Backend::Smt] {
            let opts = FindOptions { backend, ..FindOptions::default() };
            let found = f.find(
                |input, out| {
                    let b = input.item2();
                    let is_mult = (0..=255u16).step_by(17)
                        .map(|k| b.eq(Zen::val(k as u8)))
                        .reduce(|x, y| x.or(y))
                        .unwrap();
                    out.eq(Zen::val(target)).and(is_mult)
                },
                &opts,
            );
            match found {
                Some((a, b)) => {
                    prop_assert!(b % 17 == 0);
                    prop_assert_eq!(run_native(&p, a, b), target, "backend {:?}", backend);
                }
                None => prop_assert!(!exists, "backend {:?} missed a witness", backend),
            }
        }
    }

    /// The ternary evaluator is sound: with fully-known inputs it is
    /// exact; with unknown inputs, whenever it claims a definite result,
    /// that result matches the concrete semantics for every input.
    #[test]
    fn ternary_is_sound(p in prog_strategy(), a in any::<u8>(), b in any::<u8>()) {
        // Fully concrete: must be exact.
        let expr = build_zen(&p, Zen::val(a), Zen::val(b));
        let t = rzen::with_ctx(|ctx| rzen::backend::ternary::eval(ctx, expr.expr_id(), None));
        let conc = rzen::with_ctx(|ctx| t.concrete(ctx));
        let expect = run_native(&p, a, b);
        prop_assert_eq!(conc, Some(rzen::Value::int(rzen::Sort::bv(8), expect as u64)));

        // Partially known (b unknown): definite output bits must hold for
        // every b.
        let sym_b = Zen::<u8>::symbolic(0);
        let expr = build_zen(&p, Zen::val(a), sym_b);
        let t = rzen::with_ctx(|ctx| rzen::backend::ternary::eval(ctx, expr.expr_id(), None));
        if let Some(v) = rzen::with_ctx(|ctx| t.concrete(ctx)) {
            // Output is fully determined: check against a few concrete b.
            for b in [0u8, 1, 17, 255] {
                prop_assert_eq!(v.as_bits() as u8, run_native(&p, a, b));
            }
        }
    }

    /// Gate-level: Plaisted–Greenbaum emission on random DAGs.
    #[test]
    fn pg_emission_matches_truth_tables(spec in dag_strategy()) {
        check_dag(&spec)?;
    }

    /// Struct-, option- and tuple-sorted conditionals on all backends.
    #[test]
    fn struct_programs_match_interp(p in sprog_strategy(), input in (any::<u8>(), any::<u8>())) {
        check_sprog(&p, input)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20000))]

    /// The law suite's long run (CI: `cargo test -p rzen --test backends
    /// -- --ignored`).
    #[test]
    #[ignore = "long run; CI has a step for it"]
    fn law_suite_long(spec in dag_strategy(), p in sprog_strategy(),
                      input in (any::<u8>(), any::<u8>())) {
        check_dag(&spec)?;
        check_sprog(&p, input)?;
    }
}

/// A root that ignores half its input: the ignored half is built into
/// gates, never emitted, absent from the model, and reads as zero in the
/// completed witness.
#[test]
fn input_bits_outside_the_cone_read_as_zero() {
    use rzen::backend::bitblast::BitCompiler;
    use rzen::backend::{interp, smt};
    rzen::reset_ctx();
    let p = Zen::<(u8, u8)>::symbolic(0);
    let bumped = pair(p.item1(), p.item2() + Zen::val(1u8));
    let picked = zif(p.item2().lt(Zen::val(9u8)), bumped, p);
    let root = picked.item1().eq(Zen::val(7u8)).expr_id();

    let mut alg = CnfAlg::new();
    let b = rzen::with_ctx(|ctx| *BitCompiler::new(&mut alg).compile(ctx, root).as_bool());
    assert!(alg.assert_true(b) && alg.solver.solve());
    assert_eq!(alg.var_bits().count(), 8, "item1's bits and nothing else");
    assert!(
        alg.gates_built > alg.gates_emitted,
        "item2's adder was built"
    );

    let witness = rzen::with_ctx(|ctx| {
        let env = smt::extract_env(ctx, &alg);
        interp::eval(ctx, p.expr_id(), &env)
    });
    assert_eq!(<(u8, u8)>::from_value(&witness), (7, 0));
}

#[test]
fn find_agreement_on_structured_model() {
    // A model with structs, options and comparisons, checked on both
    // backends for the same verification outcome.
    let f = ZenFunction::new(|x: Zen<u32>| {
        let masked = x & 0xFFFF_0000u32;
        zif(
            masked.eq(Zen::val(0x0A00_0000)),
            Zen::some(x),
            Zen::<Option<u32>>::none(0),
        )
    });
    for backend in [Backend::Bdd, Backend::Smt] {
        let opts = FindOptions {
            backend,
            ..FindOptions::default()
        };
        let w = f.find(|_, out| out.is_some(), &opts).unwrap();
        assert_eq!(w & 0xFFFF_0000, 0x0A00_0000, "{backend:?}");
        assert!(f
            .find(
                |x, out| out.is_some().and(x.lt(Zen::val(0x0A00_0000))),
                &opts
            )
            .is_none());
    }
}

#[test]
fn ordering_ablation_same_answers() {
    // Disabling the interaction analysis must not change results, only
    // performance. (u16, not u32: without interleaving, equality of two
    // sequentially-ordered w-bit variables needs O(2^w) BDD nodes — the
    // blowup the paper's §6 heuristic exists to avoid.)
    let f = ZenFunction::new(|p: Zen<(u16, u16)>| p.item1().eq(p.item2()));
    let with = FindOptions {
        ordering_analysis: true,
        ..FindOptions::bdd()
    };
    let without = FindOptions {
        ordering_analysis: false,
        ..FindOptions::bdd()
    };
    let (a1, b1) = f.find(|_, out| out, &with).unwrap();
    let (a2, b2) = f.find(|_, out| out, &without).unwrap();
    assert_eq!(a1, b1);
    assert_eq!(a2, b2);
}

#[test]
fn compiled_function_handles_structs_and_lists() {
    let f = ZenFunction::new(|l: Zen<Vec<u16>>| l.fold(Zen::val(0u16), |acc, x| acc + x));
    let compiled = f.compile(4);
    assert_eq!(compiled.call(&vec![1, 2, 3]), 6);
    assert_eq!(compiled.call(&vec![]), 0);
    assert_eq!(compiled.call(&vec![10, 20, 30, 40]), 100);
    // Lists longer than the bound are truncated by the compiled shape.
    assert_eq!(compiled.call(&vec![1, 1, 1, 1, 1]), 4);
    assert!(compiled.size() > 0);
}

#[test]
fn generate_inputs_covers_branches() {
    // A 4-way decision ladder: expect one input per branch.
    let f = ZenFunction::new(|x: Zen<u8>| {
        zif(
            x.lt(Zen::val(10)),
            Zen::val(0u8),
            zif(
                x.lt(Zen::val(100)),
                Zen::val(1u8),
                zif(x.lt(Zen::val(200)), Zen::val(2u8), Zen::val(3u8)),
            ),
        )
    });
    let inputs = f.generate_inputs(&FindOptions::smt(), 16);
    let classes: std::collections::BTreeSet<u8> = inputs.iter().map(|&x| f.evaluate(&x)).collect();
    assert_eq!(classes, (0..=3).collect());
}
