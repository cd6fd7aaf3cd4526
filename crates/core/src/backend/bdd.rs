//! The BDD solver backend.

use rzen_bdd::{Bdd, BddManager, BddStats, BDD_FALSE, BDD_TRUE};

use crate::backend::bitblast::BitCompiler;
use crate::backend::boolalg::BoolAlg;
use crate::backend::interp::Env;
use crate::backend::ordering::{compute_order, VarOrder};
use crate::backend::SolveOutcome;
use crate::budget::Budget;
use crate::ctx::Context;
use crate::ir::{ExprId, VarId};
use crate::sorts::Sort;
use crate::value::Value;

/// The [`BoolAlg`] over BDD nodes. Variable bits are placed according to a
/// precomputed [`VarOrder`].
pub struct BddAlg<'m> {
    /// The underlying manager.
    pub m: &'m mut BddManager,
    /// The (mutable — unseen bits get fresh levels) variable order.
    pub order: VarOrder,
}

impl BoolAlg for BddAlg<'_> {
    type B = Bdd;

    fn lit(&mut self, b: bool) -> Bdd {
        self.m.constant(b)
    }

    fn var_bit(&mut self, var: VarId, bit: u32) -> Bdd {
        let level = self.order.level(var, bit);
        self.m.var(level)
    }

    fn not(&mut self, a: &Bdd) -> Bdd {
        self.m.not(*a)
    }

    fn and(&mut self, a: &Bdd, b: &Bdd) -> Bdd {
        self.m.and(*a, *b)
    }

    fn or(&mut self, a: &Bdd, b: &Bdd) -> Bdd {
        self.m.or(*a, *b)
    }

    fn xor(&mut self, a: &Bdd, b: &Bdd) -> Bdd {
        self.m.xor(*a, *b)
    }

    fn ite(&mut self, c: &Bdd, t: &Bdd, e: &Bdd) -> Bdd {
        self.m.ite(*c, *t, *e)
    }

    fn const_of(&self, b: &Bdd) -> Option<bool> {
        match *b {
            BDD_TRUE => Some(true),
            BDD_FALSE => Some(false),
            _ => None,
        }
    }
}

/// Solve a boolean expression: find a satisfying assignment for its
/// variables, or `None` if it is unsatisfiable. `use_interactions` enables
/// the §6 variable-ordering interaction analysis (disable only for the
/// ordering ablation bench).
pub fn solve(ctx: &Context, root: ExprId, use_interactions: bool) -> Option<Env> {
    match solve_budgeted(ctx, root, use_interactions, &Budget::unlimited()).0 {
        SolveOutcome::Sat(env) => Some(env),
        SolveOutcome::Unsat => None,
        SolveOutcome::Cancelled => unreachable!("unlimited budget cannot cancel"),
    }
}

/// [`solve`] under a cooperative [`Budget`], also reporting the manager's
/// substrate counters. The budget is polled inside the manager's
/// hash-consing choke point, so even a single huge conjunction unwinds
/// promptly once the flag is raised or the deadline passes.
pub fn solve_budgeted(
    ctx: &Context,
    root: ExprId,
    use_interactions: bool,
    budget: &Budget,
) -> (SolveOutcome, BddStats) {
    assert_eq!(ctx.sort_of(root), Sort::Bool, "solve: root must be Bool");
    let _span = rzen_obs::span!("bdd.solve", "root" => root.0);
    let order = {
        let _span = rzen_obs::span!("bdd.order");
        compute_order(ctx, &[root], use_interactions)
    };
    let mut m = BddManager::new();
    m.set_budget(Some(budget.cancel_flag()), budget.deadline());
    let mut alg = BddAlg { m: &mut m, order };
    let mut compiler = BitCompiler::new(&mut alg);
    let sym = compiler.compile(ctx, root);
    let b = *sym.as_bool();
    let order = alg.order;
    let stats = m.stats();
    flush_obs_stats(&stats);
    if m.interrupted() {
        // In-flight handles are meaningless once interrupted; the manager
        // is dropped without reading them.
        return (SolveOutcome::Cancelled, stats);
    }
    let sat_model = {
        let _span = rzen_obs::span!("bdd.any_sat");
        m.any_sat(b)
    };
    let Some(model) = sat_model else {
        return (SolveOutcome::Unsat, stats);
    };
    // Partial model: levels on the satisfying path. Translate back to
    // variable bits; everything else defaults to zero.
    let mut level_bits: rzen_bdd::FastHashMap<u32, bool> = rzen_bdd::FastHashMap::default();
    for (level, val) in model {
        level_bits.insert(level, val);
    }
    let env = env_from_levels(ctx, &order, |level| {
        level_bits.get(&level).copied().unwrap_or(false)
    });
    (SolveOutcome::Sat(env), stats)
}

/// Fold one solve's substrate counters into the global metrics registry.
/// Called once per solve, never inside the hash-consing hot loop.
pub(crate) fn flush_obs_stats(stats: &BddStats) {
    rzen_obs::counter!("bdd.solves", "BDD backend solve calls").inc();
    rzen_obs::counter!("bdd.nodes", "BDD nodes allocated (summed over solves)")
        .add(stats.nodes as u64);
    rzen_obs::counter!("bdd.opcache.lookups", "op-cache probes").add(stats.cache_lookups);
    rzen_obs::counter!("bdd.opcache.hits", "op-cache probes that hit").add(stats.cache_hits);
    rzen_obs::histogram!("bdd.unique.entries", "unique-table entries a solve added")
        .observe(stats.unique_entries as u64);
}

/// Build an [`Env`] by reading each ordered variable bit through `bit_at`.
pub(crate) fn env_from_levels(
    ctx: &Context,
    order: &VarOrder,
    bit_at: impl Fn(u32) -> bool,
) -> Env {
    let mut acc: rzen_bdd::FastHashMap<u32, u64> = rzen_bdd::FastHashMap::default();
    for (var, bit, level) in order.assignments() {
        if bit_at(level) {
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

/// Compile a boolean expression to a BDD in a caller-provided manager with
/// a caller-provided order (used by the state-set machinery and the
/// baseline comparisons).
pub fn compile_bool(
    ctx: &Context,
    m: &mut BddManager,
    order: VarOrder,
    root: ExprId,
) -> (Bdd, VarOrder) {
    let mut alg = BddAlg { m, order };
    let mut compiler = BitCompiler::new(&mut alg);
    let sym = compiler.compile(ctx, root);
    let b = *sym.as_bool();
    (b, alg.order)
}
