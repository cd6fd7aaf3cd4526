//! The incremental BDD variable order against the from-scratch analysis.
//!
//! A session's order walks only nodes no earlier call walked and runs the
//! interaction analysis only when that walk meets a variable node. It must
//! still assign exactly the levels of the analysis it replaced, which
//! walked every node under each query's roots and formed its clusters
//! afresh. The reference below is a test-local copy of that analysis.
//! Scripts mix ACL and route-map models at two list bounds, so later
//! queries bring in new variables (every (type, bound) pair is a symbolic
//! input of its own, as in a session), and some roots relate two models
//! or two inputs, so new clusters form across old variables.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rzen::backend::ordering::{compute_order, extend_order};
use rzen::ir::{Expr, ExprId, VarId};
use rzen::{with_ctx, Sort, Zen};
use rzen_net::gen::{random_acl, random_route_map};
use rzen_net::routing::Announcement;
use rzen_net::Header;

/// Levels assigned so far by the reference: (var, bit) -> level.
#[derive(Default)]
struct Reference {
    levels: HashMap<(VarId, u32), u32>,
    next: u32,
}

fn children(e: &Expr) -> Vec<ExprId> {
    match e {
        Expr::Var(_) | Expr::ConstBool(_) | Expr::ConstInt { .. } => vec![],
        Expr::Not(a) | Expr::BvNot(a) | Expr::GetField(a, _) | Expr::Cast(a, _) => vec![*a],
        Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Bv(_, a, b)
        | Expr::Eq(a, b)
        | Expr::Cmp(_, a, b) => vec![*a, *b],
        Expr::If(c, t, f) => vec![*c, *t, *f],
        Expr::MakeStruct(_, fs) => fs.to_vec(),
    }
}

/// Up to 256 variables under `root` in DFS order; `None` past the cap.
fn collect_vars(ctx: &rzen::ctx::Context, root: ExprId) -> Option<Vec<VarId>> {
    let (mut out, mut visited, mut stack) = (Vec::new(), HashSet::new(), vec![root]);
    while let Some(e) = stack.pop() {
        if !visited.insert(e) {
            continue;
        }
        if let Expr::Var(v) = ctx.expr(e) {
            out.push(*v);
            if out.len() > 256 {
                return None;
            }
        }
        let mut kids = children(ctx.expr(e));
        kids.reverse();
        stack.extend(kids);
    }
    Some(out)
}

fn find(parent: &mut HashMap<VarId, VarId>, x: VarId) -> VarId {
    let p = *parent.get(&x).unwrap_or(&x);
    if p == x {
        return x;
    }
    let root = find(parent, p);
    parent.insert(x, root);
    root
}

fn union(parent: &mut HashMap<VarId, VarId>, a: VarId, b: VarId) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent.insert(ra, rb);
    }
}

impl Reference {
    /// One call of the from-scratch analysis.
    fn extend(&mut self, ctx: &rzen::ctx::Context, roots: &[ExprId], interactions: bool) {
        let mut occurrence: Vec<VarId> = Vec::new();
        let mut seen = HashSet::new();
        let mut parent = HashMap::new();
        let (mut visited, mut stack) = (HashSet::new(), roots.to_vec());
        while let Some(e) = stack.pop() {
            if !visited.insert(e) {
                continue;
            }
            let node = ctx.expr(e);
            if let Expr::Var(v) = node {
                if seen.insert(*v) {
                    occurrence.push(*v);
                }
            }
            if let (true, Expr::Eq(a, b) | Expr::Cmp(_, a, b) | Expr::Bv(_, a, b)) =
                (interactions, node)
            {
                match (collect_vars(ctx, *a), collect_vars(ctx, *b)) {
                    (Some(va), Some(vb)) if va.len() == vb.len() => {
                        for (x, y) in va.iter().zip(&vb) {
                            union(&mut parent, *x, *y);
                        }
                    }
                    (Some(va), Some(vb)) => {
                        for w in va.windows(2).chain(vb.windows(2)) {
                            union(&mut parent, w[0], w[1]);
                        }
                        if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                            union(&mut parent, *x, *y);
                        }
                    }
                    _ => {}
                }
            }
            let mut kids = children(node);
            kids.reverse();
            stack.extend(kids);
        }
        occurrence.sort_unstable();
        let mut clusters: Vec<(VarId, Vec<VarId>)> = Vec::new();
        for v in occurrence {
            let root = find(&mut parent, v);
            match clusters.iter_mut().find(|(r, _)| *r == root) {
                Some((_, members)) => members.push(v),
                None => clusters.push((root, vec![v])),
            }
        }
        for (_, members) in clusters {
            let width = |v: VarId| match ctx.var_sort(v) {
                Sort::Bool => 1,
                Sort::BitVec { width, .. } => width as u32,
                Sort::Struct(_) => unreachable!("variables are primitive"),
            };
            let max_w = members.iter().map(|&v| width(v)).max().unwrap_or(0);
            for p in (0..max_w).rev() {
                for &m in &members {
                    if p < width(m) && !self.levels.contains_key(&(m, p)) {
                        self.levels.insert((m, p), self.next);
                        self.next += 1;
                    }
                }
            }
        }
    }
}

/// One random session script of `steps` queries; panics on the first
/// query after which the two orders differ.
fn check_script(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    rzen::reset_ctx();
    let interactions = rng.gen_bool(0.8);
    let mut order = with_ctx(|ctx| compute_order(ctx, &[], interactions));
    let mut reference = Reference::default();
    // Small model pools, so models recur and warm queries are common.
    let acls: Vec<_> = (0..3)
        .map(|i| random_acl(rng.gen_range(3..16usize), seed * 8 + i))
        .collect();
    let maps: Vec<_> = (0..2)
        .map(|i| random_route_map(rng.gen_range(2..7usize), seed * 8 + i))
        .collect();
    let mut headers: HashMap<u16, Zen<Header>> = HashMap::new();
    let mut announcements: HashMap<u16, Zen<Announcement>> = HashMap::new();
    for step in 0..steps {
        let (hb, ab) = (rng.gen_range(2..4u16), rng.gen_range(2..4u16));
        let h = *headers.entry(hb).or_insert_with(|| Zen::symbolic(hb));
        let a = *announcements.entry(ab).or_insert_with(|| Zen::symbolic(ab));
        let acl = &acls[rng.gen_range(0..acls.len())];
        let map = &maps[rng.gen_range(0..maps.len())];
        let line = acl.matched_line(h);
        let clause = map.matched_clause(a);
        let k = rng.gen_range(0..=acl.rules.len() as u16 + 1);
        let root = match rng.gen_range(0..6u32) {
            0 | 1 => line.eq(Zen::val(k)),
            2 => clause.eq(Zen::val(rng.gen_range(0..=map.clauses.len() as u16))),
            // Two models related: clusters form across their inputs.
            3 => line.eq(clause),
            4 => {
                // Two header inputs compared field by field.
                let other = *headers
                    .entry(5 - hb)
                    .or_insert_with(|| Zen::symbolic(5 - hb));
                h.eq(other).and(line.eq(Zen::val(k)))
            }
            _ => line.eq(Zen::val(k)).or(clause.eq(Zen::val(1))),
        };
        let root = root.expr_id();
        with_ctx(|ctx| {
            extend_order(ctx, &mut order, &[root], interactions);
            reference.extend(ctx, &[root], interactions);
        });
        let mut got: Vec<(VarId, u32, u32)> = order.assignments().collect();
        let mut want: Vec<(VarId, u32, u32)> = reference
            .levels
            .iter()
            .map(|(&(v, b), &l)| (v, b, l))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert!(
            got == want && order.num_levels() == reference.next,
            "script {seed}, query {step}: incremental order differs from the from-scratch walk"
        );
    }
    rzen::reset_ctx();
}

#[test]
fn incremental_order_matches_from_scratch_walk() {
    for seed in 0..40 {
        check_script(seed, 12);
    }
}

/// The long run (CI): 2 000 scripts.
#[test]
#[ignore]
fn incremental_order_matches_from_scratch_walk_long() {
    for seed in 0..2_000 {
        check_script(seed, 12);
    }
}
