//! Property tests: the CDCL solver must agree with a brute-force enumerator
//! on random CNF instances, and models it returns must actually satisfy the
//! formula.

use proptest::prelude::*;
use rzen_sat::{Lit, Solver, Var};

const NVARS: u32 = 8;

/// A clause as a set of (var, positive) pairs.
type TestClause = Vec<(u32, bool)>;

fn clause_strategy() -> impl Strategy<Value = TestClause> {
    prop::collection::vec(((0..NVARS), any::<bool>()), 1..5)
}

fn cnf_strategy() -> impl Strategy<Value = Vec<TestClause>> {
    prop::collection::vec(clause_strategy(), 0..30)
}

fn eval_cnf(cnf: &[TestClause], assignment: u32) -> bool {
    cnf.iter().all(|clause| {
        clause
            .iter()
            .any(|&(v, pos)| (assignment & (1 << v) != 0) == pos)
    })
}

fn brute_force_sat(cnf: &[TestClause]) -> bool {
    (0..(1u32 << NVARS)).any(|a| eval_cnf(cnf, a))
}

fn load(cnf: &[TestClause]) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..NVARS).map(|_| s.new_var()).collect();
    for clause in cnf {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(v, pos)| Lit::new(vars[v as usize], pos))
            .collect();
        s.add_clause(&lits);
    }
    (s, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn solver_agrees_with_brute_force(cnf in cnf_strategy()) {
        let (mut s, vars) = load(&cnf);
        let sat = s.solve();
        prop_assert_eq!(sat, brute_force_sat(&cnf));
        if sat {
            let mut a = 0u32;
            for (i, &v) in vars.iter().enumerate() {
                if s.value(v) {
                    a |= 1 << i;
                }
            }
            prop_assert!(eval_cnf(&cnf, a), "returned model does not satisfy formula");
        }
    }

    #[test]
    fn assumptions_match_strengthened_formula(cnf in cnf_strategy(),
                                              assume in prop::collection::vec(((0..NVARS), any::<bool>()), 0..4)) {
        // Deduplicate assumption vars to avoid contradictory duplicates
        // (those are valid too, but tested separately).
        let mut seen = std::collections::HashSet::new();
        let assume: Vec<(u32, bool)> = assume.into_iter().filter(|&(v, _)| seen.insert(v)).collect();

        let (mut s, vars) = load(&cnf);
        let lits: Vec<Lit> = assume.iter().map(|&(v, pos)| Lit::new(vars[v as usize], pos)).collect();
        let got = s.solve_with_assumptions(&lits);

        // Reference: add assumptions as unit clauses to a fresh formula.
        let mut strengthened = cnf.clone();
        for &(v, pos) in &assume {
            strengthened.push(vec![(v, pos)]);
        }
        prop_assert_eq!(got, brute_force_sat(&strengthened));

        // The solver must remain usable afterwards and agree on the
        // original formula.
        prop_assert_eq!(s.solve(), brute_force_sat(&cnf));
    }

    #[test]
    fn repeated_solves_are_consistent(cnf in cnf_strategy()) {
        let (mut s, _) = load(&cnf);
        let first = s.solve();
        for _ in 0..3 {
            prop_assert_eq!(s.solve(), first);
        }
    }
}

// ---------------------------------------------------------------------------
// Wider differential suite: 20 variables, binary-heavy clauses, and an
// inprocessing pass in the middle of loading. This is the configuration the
// session substrate actually runs — short clauses ride the binary watch
// fast path, and inprocessing (subsumption + bounded variable elimination)
// must not change any verdict or corrupt any returned model.
// ---------------------------------------------------------------------------

const NVARS_WIDE: u32 = 20;

fn wide_clause_strategy() -> impl Strategy<Value = TestClause> {
    // 1..4 literals: units and binaries dominate, exercising the binary
    // watch lists and the unit-collapse path in strengthening.
    prop::collection::vec(((0..NVARS_WIDE), any::<bool>()), 1..4)
}

fn wide_cnf_strategy() -> impl Strategy<Value = Vec<TestClause>> {
    prop::collection::vec(wide_clause_strategy(), 0..24)
}

fn brute_force_sat_wide(cnf: &[TestClause]) -> bool {
    (0..(1u32 << NVARS_WIDE)).any(|a| eval_cnf(cnf, a))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inprocessing_preserves_verdict_and_model(cnf in wide_cnf_strategy()) {
        let half = cnf.len() / 2;
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..NVARS_WIDE).map(|_| s.new_var()).collect();
        // Variables the second half still mentions must survive
        // elimination; everything else is fair game for BVE (their model
        // values come back through elim-clause model extension).
        for clause in &cnf[half..] {
            for &(v, _) in clause {
                s.set_frozen(vars[v as usize], true);
            }
        }
        let mut alive = true;
        for clause in &cnf[..half] {
            let lits: Vec<Lit> = clause.iter()
                .map(|&(v, pos)| Lit::new(vars[v as usize], pos)).collect();
            alive &= s.add_clause(&lits);
        }
        if alive {
            alive = s.inprocess();
        }
        for clause in &cnf[half..] {
            let lits: Vec<Lit> = clause.iter()
                .map(|&(v, pos)| Lit::new(vars[v as usize], pos)).collect();
            alive &= s.add_clause(&lits);
        }
        let sat = alive && s.solve();
        prop_assert_eq!(sat, brute_force_sat_wide(&cnf));
        if sat {
            let mut a = 0u32;
            for (i, &v) in vars.iter().enumerate() {
                if s.value(v) {
                    a |= 1 << i;
                }
            }
            prop_assert!(eval_cnf(&cnf, a), "model wrong after inprocessing");
        }
    }

    #[test]
    fn incremental_matches_fresh(groups in prop::collection::vec(wide_cnf_strategy(), 1..4)) {
        // Session usage pattern: each clause group is guarded by an
        // activation literal, solved under assumptions, and the solver is
        // inprocessed between rounds. Every round must agree with a fresh
        // solver given the accumulated groups as hard clauses.
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..NVARS_WIDE).map(|_| s.new_var()).collect();
        for &v in &vars {
            s.set_frozen(v, true); // future groups may mention any of them
        }
        let acts: Vec<Var> = groups.iter().map(|_| {
            let a = s.new_var();
            s.set_frozen(a, true);
            a
        }).collect();
        let mut alive = true;
        let mut accumulated: Vec<TestClause> = Vec::new();
        for (gi, group) in groups.iter().enumerate() {
            for clause in group {
                let mut lits: Vec<Lit> = clause.iter()
                    .map(|&(v, pos)| Lit::new(vars[v as usize], pos)).collect();
                lits.push(Lit::neg(acts[gi])); // active only under the assumption
                alive &= s.add_clause(&lits);
            }
            accumulated.extend(group.iter().cloned());
            let assumptions: Vec<Lit> =
                acts[..=gi].iter().map(|&a| Lit::pos(a)).collect();
            let got = alive && s.solve_with_assumptions(&assumptions);
            prop_assert_eq!(got, brute_force_sat_wide(&accumulated),
                "incremental verdict diverged from fresh at round {}", gi);
            // Quiesce between rounds, as a session would.
            if alive {
                alive = s.inprocess();
                prop_assert!(alive, "activation-guarded groups are always satisfiable");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A long-lived session on the watch pool: index recycling on, one group
// of clauses loaded per round under its own activation literal, with a
// unit clause arriving mid-load (propagation then attaches a partial
// batch into lists that already hold earlier rounds' watchers), level-0
// simplification and inprocessing interleaved at random, and a retired
// junk cone per round so the arena collects and indices recycle. Every
// verdict is checked against brute force over the groups still active.
// ---------------------------------------------------------------------------

/// A round's throwaway cone under `act`: chained AND-gate Tseitin
/// definitions over fresh variables with the root asserted (the
/// `arena_mem.rs` shape). Satisfiable, and disjoint from the test
/// variables.
fn junk_cone(s: &mut Solver, act: Var, width: usize) -> bool {
    let xs: Vec<Var> = (0..width).map(|_| s.new_var()).collect();
    let mut ok = true;
    for w in xs.windows(3) {
        let (o, a, b) = (w[0], w[1], w[2]);
        ok &= s.add_clause(&[Lit::neg(o), Lit::pos(a), Lit::neg(act)]);
        ok &= s.add_clause(&[Lit::neg(o), Lit::pos(b), Lit::neg(act)]);
        ok &= s.add_clause(&[Lit::pos(o), Lit::neg(a), Lit::neg(b), Lit::neg(act)]);
    }
    ok & s.add_clause(&[Lit::pos(xs[0]), Lit::neg(act)])
}

fn round_strategy() -> impl Strategy<Value = (Vec<TestClause>, bool, u8)> {
    // (group, keep it active after its round, quiesce: none / simplify /
    // simplify + inprocess)
    (
        prop::collection::vec(clause_strategy(), 0..12),
        any::<bool>(),
        0..3u8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pooled_session_matches_brute_force(rounds in prop::collection::vec(round_strategy(), 3..7)) {
        let mut s = Solver::new();
        s.set_recycle_eliminated(true);
        let vars: Vec<Var> = (0..NVARS).map(|_| s.new_var()).collect();
        for &v in &vars {
            s.set_frozen(v, true); // any later group may mention them
        }
        let mut active: Vec<Var> = Vec::new();
        let mut formula: Vec<TestClause> = Vec::new();
        let mut alive = true;
        for (ri, (group, keep, quiesce)) in rounds.iter().enumerate() {
            let act = s.new_var();
            let junk = s.new_var();
            s.set_frozen(act, true);
            s.set_frozen(junk, true);
            alive &= junk_cone(&mut s, junk, 100);
            for (ci, clause) in group.iter().enumerate() {
                if ci == group.len() / 2 {
                    let t = s.new_var();
                    alive &= s.add_clause(&[Lit::pos(t)]);
                }
                let mut lits: Vec<Lit> = clause.iter()
                    .map(|&(v, pos)| Lit::new(vars[v as usize], pos)).collect();
                lits.push(Lit::neg(act));
                alive &= s.add_clause(&lits);
            }
            let mut assumptions: Vec<Lit> = active.iter().map(|&a| Lit::pos(a)).collect();
            assumptions.extend([Lit::pos(act), Lit::pos(junk)]);
            let expected: Vec<TestClause> = formula.iter().chain(group).cloned().collect();
            let got = alive && s.solve_with_assumptions(&assumptions);
            prop_assert_eq!(got, brute_force_sat(&expected), "verdict diverged at round {}", ri);
            if got {
                let a = vars.iter().enumerate()
                    .filter(|&(_, &v)| s.value(v))
                    .fold(0u32, |a, (i, _)| a | 1 << i);
                prop_assert!(eval_cnf(&expected, a), "model wrong at round {}", ri);
            }
            // Retire the junk cone, and the group unless it stays.
            s.set_frozen(junk, false);
            alive &= s.add_clause(&[Lit::neg(junk)]);
            if *keep {
                active.push(act);
                formula.extend(group.iter().cloned());
            } else {
                s.set_frozen(act, false);
                alive &= s.add_clause(&[Lit::neg(act)]);
            }
            if *quiesce > 0 {
                alive &= s.simplify_force();
            }
            if *quiesce > 1 {
                alive &= s.inprocess();
            }
            prop_assert!(alive, "retired and guarded groups never make the formula unsatisfiable");
        }
        prop_assert!(s.simplify_force() && s.inprocess());
        prop_assert!(s.stats.gcs > 0, "the retired cones never triggered a collection");
        prop_assert!(s.num_free_vars() > 0, "no index was freed for recycling");
        let assumptions: Vec<Lit> = active.iter().map(|&a| Lit::pos(a)).collect();
        prop_assert_eq!(s.solve_with_assumptions(&assumptions), brute_force_sat(&formula));
    }
}
