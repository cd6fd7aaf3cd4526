//! Session-lifecycle memory: a long-lived solver fed 100 incremental
//! queries (each a fresh activation-guarded cone, retired afterwards) must
//! not grow without bound. Inprocessing + relocating GC must reclaim arena
//! bytes, index recycling must keep the variable count plateaued at the
//! live formula instead of the all-time total, and the watch pool must
//! plateau with it.

use rzen_sat::{Lit, Solver, Var};

/// One query's private cone: a chain of AND-gate Tseitin definitions over
/// fresh variables, rooted under an activation literal.
fn add_query_cone(s: &mut Solver, act: Var, width: usize) -> bool {
    let xs: Vec<Var> = (0..width).map(|_| s.new_var()).collect();
    let mut ok = true;
    for w in xs.windows(3) {
        let (o, a, b) = (w[0], w[1], w[2]);
        // o <-> a & b, guarded by the activation literal.
        ok &= s.add_clause(&[Lit::neg(o), Lit::pos(a), Lit::neg(act)]);
        ok &= s.add_clause(&[Lit::neg(o), Lit::pos(b), Lit::neg(act)]);
        ok &= s.add_clause(&[Lit::pos(o), Lit::neg(a), Lit::neg(b), Lit::neg(act)]);
    }
    // Constrain the root so search has something to decide.
    ok &= s.add_clause(&[Lit::pos(xs[0]), Lit::neg(act)]);
    ok
}

#[test]
fn arena_reclaimed_across_100_incremental_solves() {
    const QUERIES: usize = 100;
    const WIDTH: usize = 60;

    let mut s = Solver::new();
    // Long-lived session mode: nothing reads a retired query's model
    // values, so eliminated indices may be recycled.
    s.set_recycle_eliminated(true);

    let mut peak_arena = 0usize;
    // Watch-pool bytes over the first and the second fifty queries.
    let mut peak_watch = [0usize; 2];
    let mut max_vars = 0usize;
    for q in 0..QUERIES {
        let act = s.new_var();
        s.set_frozen(act, true);
        assert!(add_query_cone(&mut s, act, WIDTH));
        assert!(
            s.solve_with_assumptions(&[Lit::pos(act)]),
            "query {q} must be SAT"
        );
        // Retire: the activation literal goes false forever, killing the
        // whole cone at level 0.
        s.set_frozen(act, false);
        assert!(s.add_clause(&[Lit::neg(act)]));
        // Quiesce every few retires, as the session layer does.
        if q % 5 == 4 {
            assert!(s.simplify_force());
            assert!(s.inprocess());
        }
        peak_arena = peak_arena.max(s.arena_bytes());
        let half = &mut peak_watch[q * 2 / QUERIES];
        *half = (*half).max(s.watch_bytes());
        max_vars = max_vars.max(s.num_vars());
    }
    assert!(s.simplify_force());
    assert!(s.inprocess());

    let created = (WIDTH + 1) * QUERIES;
    assert_eq!(s.stats.vars_created as usize, created);
    // Index recycling: the live variable count plateaus at a small
    // multiple of one query's cone, nowhere near the all-time total.
    assert!(
        max_vars < created / 2,
        "variable indices not recycled: peaked at {max_vars} of {created} created"
    );
    // Dead cones were eliminated and their arena space collected.
    assert!(s.stats.eliminated_vars > 0, "BVE never fired");
    assert!(s.stats.gcs > 0, "relocating GC never ran");
    let final_arena = s.arena_bytes();
    assert!(
        final_arena < peak_arena,
        "arena not reclaimed: final {final_arena} >= peak {peak_arena}"
    );
    // The steady-state arena holds a handful of live cones at most: far
    // below 100 queries' worth of clauses (~40 bytes/clause * ~180
    // clauses/query).
    assert!(
        final_arena < QUERIES * WIDTH * 40 / 2,
        "arena grew with query count: {final_arena} bytes after {QUERIES} queries"
    );
    // The watch pool plateaus with the live formula: compaction and the
    // rebuilds at quiesce points hand back what retired cones used, so
    // the second fifty queries never need more than the first fifty.
    assert!(
        peak_watch[1] <= peak_watch[0],
        "watch pool grew with query count: peak {} bytes over queries 50-99, {} over 0-49",
        peak_watch[1],
        peak_watch[0]
    );

    // The session is still sound after all that churn.
    let act = s.new_var();
    assert!(add_query_cone(&mut s, act, WIDTH));
    assert!(s.solve_with_assumptions(&[Lit::pos(act)]));
}
