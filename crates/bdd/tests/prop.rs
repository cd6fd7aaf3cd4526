//! Property-based tests for the BDD package: random Boolean formulas over a
//! small variable set are built both as BDDs and as naive truth tables; the
//! two representations must agree on every assignment, on satisfiability
//! counts, and under quantification.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::TestRng;
use rzen_bdd::{Bdd, BddManager, BDD_FALSE, BDD_TRUE};

const NVARS: u32 = 5;

/// A formula AST we can evaluate both ways.
#[derive(Clone, Debug)]
enum Formula {
    Var(u32),
    Const(bool),
    Not(Box<Formula>),
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
    Xor(Box<Formula>, Box<Formula>),
    Ite(Box<Formula>, Box<Formula>, Box<Formula>),
}

fn formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        (0..NVARS).prop_map(Formula::Var),
        any::<bool>().prop_map(Formula::Const),
    ];
    leaf.prop_recursive(4, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Formula::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn eval_formula(f: &Formula, assignment: u32) -> bool {
    match f {
        Formula::Var(v) => assignment & (1 << v) != 0,
        Formula::Const(b) => *b,
        Formula::Not(a) => !eval_formula(a, assignment),
        Formula::And(a, b) => eval_formula(a, assignment) && eval_formula(b, assignment),
        Formula::Or(a, b) => eval_formula(a, assignment) || eval_formula(b, assignment),
        Formula::Xor(a, b) => eval_formula(a, assignment) ^ eval_formula(b, assignment),
        Formula::Ite(c, a, b) => {
            if eval_formula(c, assignment) {
                eval_formula(a, assignment)
            } else {
                eval_formula(b, assignment)
            }
        }
    }
}

fn build_bdd(m: &mut BddManager, f: &Formula) -> Bdd {
    match f {
        Formula::Var(v) => m.var(*v),
        Formula::Const(b) => m.constant(*b),
        Formula::Not(a) => {
            let x = build_bdd(m, a);
            m.not(x)
        }
        Formula::And(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.and(x, y)
        }
        Formula::Or(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.or(x, y)
        }
        Formula::Xor(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.xor(x, y)
        }
        Formula::Ite(c, a, b) => {
            let x = build_bdd(m, c);
            let y = build_bdd(m, a);
            let z = build_bdd(m, b);
            m.ite(x, y, z)
        }
    }
}

proptest! {
    #[test]
    fn bdd_matches_truth_table(f in formula_strategy()) {
        let mut m = BddManager::new();
        for v in 0..NVARS { m.var(v); }
        let b = build_bdd(&mut m, &f);
        for a in 0..(1u32 << NVARS) {
            let expect = eval_formula(&f, a);
            let got = m.eval(b, |v| a & (1 << v) != 0);
            prop_assert_eq!(got, expect, "assignment {:05b}", a);
        }
    }

    #[test]
    fn sat_count_matches_enumeration(f in formula_strategy()) {
        let mut m = BddManager::new();
        for v in 0..NVARS { m.var(v); }
        let b = build_bdd(&mut m, &f);
        let expect = (0..(1u32 << NVARS)).filter(|&a| eval_formula(&f, a)).count();
        prop_assert_eq!(m.sat_count(b, NVARS), expect as f64);
    }

    #[test]
    fn any_sat_is_sound_and_complete(f in formula_strategy()) {
        let mut m = BddManager::new();
        for v in 0..NVARS { m.var(v); }
        let b = build_bdd(&mut m, &f);
        let exists = (0..(1u32 << NVARS)).any(|a| eval_formula(&f, a));
        match m.any_sat_total(b, NVARS) {
            None => prop_assert!(!exists),
            Some(total) => {
                prop_assert!(exists);
                let mut a = 0u32;
                for (v, &bit) in total.iter().enumerate() {
                    if bit { a |= 1 << v; }
                }
                prop_assert!(eval_formula(&f, a));
            }
        }
    }

    #[test]
    fn exists_matches_enumeration(f in formula_strategy(), qvar in 0..NVARS) {
        let mut m = BddManager::new();
        for v in 0..NVARS { m.var(v); }
        let b = build_bdd(&mut m, &f);
        let c = m.cube(&[qvar]);
        let e = m.exists(b, c);
        for a in 0..(1u32 << NVARS) {
            let a0 = a & !(1 << qvar);
            let a1 = a | (1 << qvar);
            let expect = eval_formula(&f, a0) || eval_formula(&f, a1);
            let got = m.eval(e, |v| a & (1 << v) != 0);
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn forall_matches_enumeration(f in formula_strategy(), qvar in 0..NVARS) {
        let mut m = BddManager::new();
        for v in 0..NVARS { m.var(v); }
        let b = build_bdd(&mut m, &f);
        let c = m.cube(&[qvar]);
        let e = m.forall(b, c);
        for a in 0..(1u32 << NVARS) {
            let a0 = a & !(1 << qvar);
            let a1 = a | (1 << qvar);
            let expect = eval_formula(&f, a0) && eval_formula(&f, a1);
            let got = m.eval(e, |v| a & (1 << v) != 0);
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn and_exists_matches_two_step(f in formula_strategy(), g in formula_strategy()) {
        let mut m = BddManager::new();
        for v in 0..NVARS { m.var(v); }
        let bf = build_bdd(&mut m, &f);
        let bg = build_bdd(&mut m, &g);
        let c = m.cube(&[0, 2, 4]);
        let one_step = m.and_exists(bf, bg, c);
        let conj = m.and(bf, bg);
        let two_step = m.exists(conj, c);
        prop_assert_eq!(one_step, two_step);
    }

    #[test]
    fn replace_shift_preserves_semantics(f in formula_strategy()) {
        let mut m = BddManager::new();
        // Allocate the shifted block too.
        for v in 0..(2 * NVARS) { m.var(v); }
        let b = build_bdd(&mut m, &f);
        let pairs: Vec<(u32, u32)> = (0..NVARS).map(|v| (v, v + NVARS)).collect();
        let map = m.varmap(&pairs);
        let shifted = m.replace(b, map);
        for a in 0..(1u32 << NVARS) {
            let expect = eval_formula(&f, a);
            let got = m.eval(shifted, |v| v >= NVARS && (a & (1 << (v - NVARS))) != 0);
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn tautology_check_consistent(f in formula_strategy()) {
        let mut m = BddManager::new();
        for v in 0..NVARS { m.var(v); }
        let b = build_bdd(&mut m, &f);
        let taut = (0..(1u32 << NVARS)).all(|a| eval_formula(&f, a));
        let unsat = (0..(1u32 << NVARS)).all(|a| !eval_formula(&f, a));
        prop_assert_eq!(b == BDD_TRUE, taut);
        prop_assert_eq!(b == BDD_FALSE, unsat);
    }
}

/// Every operation on the same operands, checked against the truth
/// tables, with one manager for every case: its computed cache fills,
/// grows with the arena and overwrites entries across operations and
/// cases, so an entry read under the wrong key shows as a wrong function.
fn one_manager_for_every_case(cases: u32) {
    let mut m = BddManager::new();
    // The block `replace` shifts into.
    for v in 0..(2 * NVARS) {
        m.var(v);
    }
    let pairs: Vec<(u32, u32)> = (0..NVARS).map(|v| (v, v + NVARS)).collect();
    let strategy = (
        formula_strategy(),
        formula_strategy(),
        formula_strategy(),
        0..NVARS,
    );
    for case in 0..cases {
        let mut rng = TestRng::for_case("one_manager_for_every_case", case as u64);
        let (f, g, h, q) = strategy.generate(&mut rng);
        if let Err(e) = check_every_op(&mut m, &pairs, &f, &g, &h, q) {
            panic!("case {case}/{cases}: {}", e.0);
        }
    }
    assert!(m.arena_size() > 1024, "the cache never grew");
}

fn check_every_op(
    m: &mut BddManager,
    pairs: &[(u32, u32)],
    f: &Formula,
    g: &Formula,
    h: &Formula,
    q: u32,
) -> Result<(), TestCaseError> {
    let (bf, bg, bh) = (build_bdd(m, f), build_bdd(m, g), build_bdd(m, h));
    let cube = m.cube(&[q]);
    let shift = m.varmap(pairs);
    let and = m.and(bf, bg);
    let or = m.or(bf, bg);
    let xor = m.xor(bf, bg);
    let not = m.not(bf);
    let ite = m.ite(bf, bg, bh);
    let exists = m.exists(bf, cube);
    let forall = m.forall(bf, cube);
    let and_exists = m.and_exists(bf, bg, cube);
    let replace = m.replace(bf, shift);
    for a in 0..(1u32 << NVARS) {
        let (fa, ga) = (eval_formula(f, a), eval_formula(g, a));
        let (a0, a1) = (a & !(1 << q), a | (1 << q));
        let (f0, f1) = (eval_formula(f, a0), eval_formula(f, a1));
        let fg0 = f0 && eval_formula(g, a0);
        let fg1 = f1 && eval_formula(g, a1);
        let at = |b: Bdd| m.eval(b, |v| a & (1 << v) != 0);
        prop_assert_eq!(at(and), fa && ga, "and at {:05b}", a);
        prop_assert_eq!(at(or), fa || ga, "or at {:05b}", a);
        prop_assert_eq!(at(xor), fa ^ ga, "xor at {:05b}", a);
        prop_assert_eq!(at(not), !fa, "not at {:05b}", a);
        let ite_expect = if fa { ga } else { eval_formula(h, a) };
        prop_assert_eq!(at(ite), ite_expect, "ite at {:05b}", a);
        prop_assert_eq!(at(exists), f0 || f1, "exists at {:05b}", a);
        prop_assert_eq!(at(forall), f0 && f1, "forall at {:05b}", a);
        prop_assert_eq!(at(and_exists), fg0 || fg1, "and_exists at {:05b}", a);
        let shifted = m.eval(replace, |v| v >= NVARS && a & (1 << (v - NVARS)) != 0);
        prop_assert_eq!(shifted, fa, "replace at {:05b}", a);
    }
    Ok(())
}

/// 1 024 cases grow the arena, and so the cache, past 1 024 nodes.
#[test]
fn one_manager_agrees_with_truth_tables() {
    one_manager_for_every_case(1024);
}

/// The long run (CI: `cargo test -p rzen-bdd --test prop -- --ignored`).
#[test]
#[ignore = "long run; CI has a step for it"]
fn one_manager_agrees_with_truth_tables_long() {
    one_manager_for_every_case(20_000);
}

/// `x0 y0 ∨ … ∨ x(k-1) y(k-1)` with every `x` above every `y`, ORed
/// with the pairs shifted by `s`: exponential in `k` under this order.
fn pairs_far_apart(m: &mut BddManager, k: u32, s: u32) -> Bdd {
    let mut f = BDD_FALSE;
    for i in 0..k {
        let x = m.var(i);
        let y = m.var(k + (i + s) % k);
        let xy = m.and(x, y);
        f = m.or(f, xy);
    }
    f
}

/// Do `a` in `ma` and `b` in `mb` have the same diagram, node for node?
fn same_diagram(ma: &BddManager, a: Bdd, mb: &BddManager, b: Bdd) -> bool {
    let mut seen = HashMap::new();
    let mut stack = vec![(a, b)];
    while let Some((a, b)) = stack.pop() {
        if *seen.entry(a).or_insert(b) != b {
            return false;
        }
        if ma.is_terminal(a) || mb.is_terminal(b) {
            if a != b {
                return false;
            }
            continue;
        }
        if ma.level(a) != mb.level(b) {
            return false;
        }
        stack.push((ma.low(a), mb.low(b)));
        stack.push((ma.high(a), mb.high(b)));
    }
    true
}

/// An op interrupted mid-recursion leaves no entry behind: once the
/// budget is lifted, the same op in the same manager, with its cache kept,
/// builds exactly the diagram a fresh manager builds.
#[test]
fn an_interrupted_op_leaves_the_cache_valid() {
    let mut m = BddManager::new();
    let f = pairs_far_apart(&mut m, 10, 0);
    let g = pairs_far_apart(&mut m, 10, 1);
    let before = m.arena_size();
    // Raised before the op starts: `mk` sees it at its next poll, a few
    // thousand calls into the op.
    m.set_budget(Some(Arc::new(AtomicBool::new(true))), None);
    m.xor(f, g);
    assert!(m.interrupted());
    assert!(m.arena_size() > before, "the op was cut before it started");
    m.set_budget(None, None);
    let again = m.xor(f, g);

    let mut fresh = BddManager::new();
    let ff = pairs_far_apart(&mut fresh, 10, 0);
    let fg = pairs_far_apart(&mut fresh, 10, 1);
    let expect = fresh.xor(ff, fg);
    assert!(same_diagram(&m, again, &fresh, expect));
}
