//! BDD variable-ordering interaction analysis (§6 of the paper).
//!
//! "Zen uses a custom analysis, similar to alias analyses in traditional
//! programming languages, to find a strategy for ordering variables. […]
//! when two variables are compared for (in)equality, Zen ensures their
//! orderings will be interleaved, as any other ordering will result in an
//! exponential memory blowup."
//!
//! The analysis walks the expression DAG once. At every binary operation
//! that relates two subexpressions bit-by-bit (equality, comparisons, and
//! arithmetic/bitwise operators), it collects the symbolic variables on
//! each side and merges them into interaction clusters with a union-find.
//! The final order walks variables in first-occurrence order and, whenever
//! it meets an unemitted cluster, emits the *whole* cluster with the bits
//! of its members interleaved (most significant bits first, so IP-prefix
//! constraints stay shallow).
//!
//! An order grown over many calls (a BDD session's) is incremental: a call
//! walks only nodes no earlier call walked, and runs the analysis only
//! when that walk meets a variable node — see [`extend_order`].

use rzen_bdd::{FastHashMap, FastHashSet};

use crate::backend::bitblast::children;
use crate::ctx::Context;
use crate::ir::{Expr, ExprId, VarId};
use crate::sorts::Sort;

/// A computed assignment of (variable, bit) pairs to solver levels.
pub struct VarOrder {
    map: FastHashMap<(u32, u32), u32>,
    next: u32,
    /// Nodes some [`extend_order`] call on this order walked. Closed under
    /// children, and every variable under a walked node has all its bits
    /// assigned.
    walked: NodeSet,
    /// [`collect_vars`] per interaction operand: a pure function of the
    /// hash-consed node, so it is computed once per order.
    vars_under: FastHashMap<u32, Option<Box<[VarId]>>>,
    /// Nodes visited by [`extend_order`] calls on this order.
    visits: u64,
}

impl VarOrder {
    /// An empty order whose on-demand allocations start at `base`.
    pub(crate) fn with_base(base: u32) -> VarOrder {
        VarOrder {
            map: FastHashMap::default(),
            next: base,
            walked: NodeSet::default(),
            vars_under: FastHashMap::default(),
            visits: 0,
        }
    }

    /// Pin a (var, bit) pair to an explicit level (used by the state-set
    /// machinery to lay variables out on the canonical interleaved
    /// blocks).
    pub(crate) fn force(&mut self, key: (VarId, u32), level: u32) {
        self.map.insert((key.0 .0, key.1), level);
    }

    /// The solver level for bit `bit` (LSB = 0) of `var`, allocating a new
    /// level for bits never seen by the analysis.
    pub fn level(&mut self, var: VarId, bit: u32) -> u32 {
        *self.map.entry((var.0, bit)).or_insert_with(|| {
            let l = self.next;
            self.next += 1;
            l
        })
    }

    /// Number of levels allocated so far.
    pub fn num_levels(&self) -> u32 {
        self.next
    }

    /// Iterate over all (var, bit) → level assignments.
    pub fn assignments(&self) -> impl Iterator<Item = (VarId, u32, u32)> + '_ {
        self.map.iter().map(|(&(v, b), &l)| (VarId(v), b, l))
    }

    /// Expression nodes the [`extend_order`] calls on this order visited
    /// so far, variable collection included (diagnostics: a warm session
    /// probe visits only the nodes its root added).
    pub(crate) fn visits(&self) -> u64 {
        self.visits
    }
}

/// A set of expression nodes, one bit per `ExprId` (ids are dense).
#[derive(Default)]
struct NodeSet(Vec<u64>);

impl NodeSet {
    /// Add `e`; `false` if it was already present.
    fn insert(&mut self, e: ExprId) -> bool {
        let (word, bit) = (e.0 as usize / 64, 1u64 << (e.0 % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }
}

/// Cap on the number of variables collected per operand when looking for
/// interactions; operands bigger than this are treated as "interacts with
/// everything on the other side".
const COLLECT_CAP: usize = 256;

struct UnionFind {
    parent: FastHashMap<u32, u32>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind {
            parent: FastHashMap::default(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let p = *self.parent.get(&x).unwrap_or(&x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// Compute a variable order for the given roots. With `interactions`
/// disabled (the ablation), variables are laid out sequentially in
/// first-occurrence order with no interleaving.
pub fn compute_order(ctx: &Context, roots: &[ExprId], interactions: bool) -> VarOrder {
    let mut order = VarOrder::with_base(0);
    extend_order(ctx, &mut order, roots, interactions);
    order
}

/// Extend an existing order with the variables reachable from `roots`
/// that have no level yet. (Var, bit) pairs already assigned keep their
/// levels; new pairs are appended after the current maximum, with the
/// same cluster-interleaved layout [`compute_order`] produces. This is
/// how a [`crate::session::SolverSession`]'s shared BDD manager absorbs
/// each new query without disturbing the levels earlier queries pinned.
///
/// The levels are exactly those of a from-scratch analysis of `roots`
/// (every reachable node walked, clusters formed afresh). What makes it
/// incremental: a walk below a node some earlier call walked finds only
/// variables that have all their levels, and assigns nothing. So the call
/// first walks the nodes that are new to this order, and runs the full
/// analysis only if that walk meets a `Var` node — in a session, when a
/// query brings a new symbolic input. A probe that adds a root above an
/// already-walked model costs the few nodes it added.
pub fn extend_order(ctx: &Context, order: &mut VarOrder, roots: &[ExprId], interactions: bool) {
    let mut stack: Vec<ExprId> = roots.to_vec();
    while let Some(e) = stack.pop() {
        if !order.walked.insert(e) {
            continue;
        }
        order.visits += 1;
        if let Expr::Var(_) = ctx.expr(e) {
            // This walk stops half-marked; the analysis walks and marks
            // everything reachable, which restores the invariant.
            assign_levels(ctx, order, roots, interactions);
            return;
        }
        stack.extend(children(ctx, e));
    }
}

/// The interaction analysis of everything reachable from `roots`: assign
/// levels to the unassigned bits of its variables, and mark it walked.
fn assign_levels(ctx: &Context, order: &mut VarOrder, roots: &[ExprId], interactions: bool) {
    let VarOrder {
        map,
        next,
        walked,
        vars_under,
        visits,
    } = order;
    // Pass 1: first-occurrence order of variables, and interaction edges.
    let mut occurrence: Vec<VarId> = Vec::new();
    let mut seen_vars: FastHashSet<u32> = FastHashSet::default();
    let mut uf = UnionFind::new();
    let mut visited = NodeSet::default();
    let mut stack: Vec<ExprId> = roots.to_vec();
    // Depth-first, children pushed in reverse so occurrence order is
    // left-to-right.
    while let Some(e) = stack.pop() {
        if !visited.insert(e) {
            continue;
        }
        walked.insert(e);
        *visits += 1;
        if let Expr::Var(v) = ctx.expr(e) {
            if seen_vars.insert(v.0) {
                occurrence.push(*v);
            }
        }
        if interactions {
            if let Some((a, b)) = interaction_operands(ctx, e) {
                for x in [a, b] {
                    vars_under
                        .entry(x.0)
                        .or_insert_with(|| collect_vars(ctx, x, visits));
                }
                merge_interaction(
                    &mut uf,
                    vars_under[&a.0].as_deref(),
                    vars_under[&b.0].as_deref(),
                );
            }
        }
        let mut kids = children(ctx, e);
        kids.reverse();
        stack.extend(kids);
    }

    // Pass 2: group variables by cluster. Variables are laid out in
    // *creation* order (the order `make_symbolic` allocated them, i.e.
    // struct field order — the layout a domain expert would pick by
    // hand), with each interaction cluster emitted at its first member's
    // position.
    occurrence.sort_unstable();
    let mut cluster_of: FastHashMap<u32, Vec<VarId>> = FastHashMap::default();
    let mut cluster_order: Vec<u32> = Vec::new();
    for &v in &occurrence {
        let root = uf.find(v.0);
        let entry = cluster_of.entry(root).or_insert_with(|| {
            cluster_order.push(root);
            Vec::new()
        });
        entry.push(v);
    }

    // Pass 3: emit levels — per cluster, interleave member bits MSB-first.
    // Pairs that already have a level (earlier queries in a session) are
    // skipped, so within the appended range new clusters still interleave.
    for root in cluster_order {
        let members = &cluster_of[&root];
        let widths: Vec<u32> = members.iter().map(|&v| var_width(ctx, v)).collect();
        let max_w = widths.iter().copied().max().unwrap_or(0);
        // p counts down from the most significant bit position.
        for p in (0..max_w).rev() {
            for (m, &w) in members.iter().zip(&widths) {
                if p < w && !map.contains_key(&(m.0, p)) {
                    map.insert((m.0, p), *next);
                    *next += 1;
                }
            }
        }
    }
}

fn var_width(ctx: &Context, v: VarId) -> u32 {
    match ctx.var_sort(v) {
        Sort::Bool => 1,
        Sort::BitVec { width, .. } => width as u32,
        Sort::Struct(_) => unreachable!("variables are primitive"),
    }
}

/// If this node relates two subexpressions bit-by-bit, its operands.
fn interaction_operands(ctx: &Context, e: ExprId) -> Option<(ExprId, ExprId)> {
    match ctx.expr(e) {
        Expr::Eq(a, b) | Expr::Cmp(_, a, b) | Expr::Bv(_, a, b) => Some((*a, *b)),
        _ => None,
    }
}

/// Collect up to [`COLLECT_CAP`] variables under a node, in DFS order.
/// Returns `None` when the cap is exceeded.
fn collect_vars(ctx: &Context, root: ExprId, visits: &mut u64) -> Option<Box<[VarId]>> {
    let mut out = Vec::new();
    let mut visited: FastHashSet<u32> = FastHashSet::default();
    let mut stack = vec![root];
    while let Some(e) = stack.pop() {
        if !visited.insert(e.0) {
            continue;
        }
        *visits += 1;
        if let Expr::Var(v) = ctx.expr(e) {
            out.push(*v);
            if out.len() > COLLECT_CAP {
                return None;
            }
        }
        let mut kids = children(ctx, e);
        kids.reverse();
        stack.extend(kids);
    }
    Some(out.into_boxed_slice())
}

fn merge_interaction(uf: &mut UnionFind, a: Option<&[VarId]>, b: Option<&[VarId]>) {
    match (a, b) {
        (Some(va), Some(vb)) if va.len() == vb.len() => {
            // Structurally aligned (e.g. two symbolic packets compared for
            // equality): merge position-wise, interleaving corresponding
            // fields.
            for (x, y) in va.iter().zip(vb) {
                uf.union(x.0, y.0);
            }
        }
        (Some(va), Some(vb)) => {
            // Unaligned: merge conservatively into one cluster.
            for w in va.windows(2) {
                uf.union(w[0].0, w[1].0);
            }
            for w in vb.windows(2) {
                uf.union(w[0].0, w[1].0);
            }
            if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                uf.union(x.0, y.0);
            }
        }
        _ => {
            // One side too large: leave ordering to occurrence order rather
            // than build one giant cluster.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{reset_ctx, with_ctx};
    use crate::ir::Bv2;

    #[test]
    fn equality_interleaves_operand_bits() {
        reset_ctx();
        let (order, x, y) = with_ctx(|ctx| {
            let x = ctx.mk_var(Sort::bv(8));
            let y = ctx.mk_var(Sort::bv(8));
            let eq = ctx.mk_eq(x, y);
            (compute_order(ctx, &[eq], true), x, y)
        });
        let _ = (x, y);
        let mut asg: Vec<(u32, u32, u32)> =
            order.assignments().map(|(v, b, l)| (l, v.0, b)).collect();
        asg.sort();
        // Levels alternate between the two variables, MSB first.
        assert_eq!(asg[0].2, 7); // MSB of first var at level 0
        assert_eq!(asg[1].2, 7); // MSB of second var at level 1
        assert_ne!(asg[0].1, asg[1].1); // different vars adjacent
        assert_eq!(asg.len(), 16);
        for pair in asg.chunks(2) {
            assert_eq!(pair[0].2, pair[1].2, "same bit significance adjacent");
            assert_ne!(pair[0].1, pair[1].1);
        }
    }

    #[test]
    fn unrelated_vars_stay_sequential() {
        reset_ctx();
        let order = with_ctx(|ctx| {
            let x = ctx.mk_var(Sort::bv(4));
            let y = ctx.mk_var(Sort::bv(4));
            let k = ctx.mk_int(Sort::bv(4), 3);
            let e1 = ctx.mk_cmp(crate::ir::CmpOp::Lt, x, k);
            let e2 = ctx.mk_cmp(crate::ir::CmpOp::Lt, y, k);
            let both = ctx.mk_and(e1, e2);
            compute_order(ctx, &[both], true)
        });
        let mut asg: Vec<(u32, u32)> = order.assignments().map(|(v, _, l)| (l, v.0)).collect();
        asg.sort();
        // First 4 levels all belong to var 0, next 4 to var 1.
        assert!(asg[..4].iter().all(|&(_, v)| v == asg[0].1));
        assert!(asg[4..].iter().all(|&(_, v)| v == asg[4].1));
    }

    #[test]
    fn ablation_flag_disables_interleaving() {
        reset_ctx();
        let order = with_ctx(|ctx| {
            let x = ctx.mk_var(Sort::bv(8));
            let y = ctx.mk_var(Sort::bv(8));
            let eq = ctx.mk_eq(x, y);
            compute_order(ctx, &[eq], false)
        });
        let mut asg: Vec<(u32, u32)> = order.assignments().map(|(v, _, l)| (l, v.0)).collect();
        asg.sort();
        // Sequential: the first 8 levels belong to one variable.
        assert!(asg[..8].iter().all(|&(_, v)| v == asg[0].1));
    }

    #[test]
    fn arithmetic_interaction_merges() {
        reset_ctx();
        let order = with_ctx(|ctx| {
            let x = ctx.mk_var(Sort::bv(8));
            let y = ctx.mk_var(Sort::bv(8));
            let sum = ctx.mk_bv(Bv2::Add, x, y);
            let k = ctx.mk_int(Sort::bv(8), 9);
            let q = ctx.mk_eq(sum, k);
            compute_order(ctx, &[q], true)
        });
        let mut asg: Vec<(u32, u32)> = order.assignments().map(|(v, _, l)| (l, v.0)).collect();
        asg.sort();
        // Adder operands interleave as well.
        assert_ne!(asg[0].1, asg[1].1);
    }

    #[test]
    fn unseen_bits_get_fresh_levels() {
        let mut order = VarOrder::with_base(100);
        let l1 = order.level(crate::ir::VarId(0), 0);
        let l2 = order.level(crate::ir::VarId(0), 1);
        let l1_again = order.level(crate::ir::VarId(0), 0);
        assert_eq!(l1, 100);
        assert_eq!(l2, 101);
        assert_eq!(l1, l1_again);
    }
}
