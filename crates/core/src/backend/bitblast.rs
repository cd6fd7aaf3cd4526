//! The bit-level compiler: IR expressions → Boolean circuits over an
//! abstract [`BoolAlg`].
//!
//! This is the single translation shared by the BDD, SAT, and ternary
//! backends. Bitvectors become little-endian bit vectors; structs become
//! trees of bit vectors; arithmetic becomes ripple-carry/shift-add
//! circuits; comparisons become MSB-first comparator chains.
//!
//! The compiler is iterative (explicit work stack) because network models
//! routinely produce conditionals nested tens of thousands deep (a 15,000
//! line ACL is a 15,000-deep `if` chain) — recursing would overflow the
//! stack.

use std::rc::Rc;

use rzen_bdd::FastHashMap;

use crate::backend::boolalg::BoolAlg;
use crate::ctx::Context;
use crate::ir::{Bv2, CmpOp, Expr, ExprId};
use crate::sorts::Sort;

/// A compiled symbolic value: the circuit-level image of an expression.
#[derive(Clone, Debug)]
pub enum SymVal<B> {
    /// A single Boolean.
    Bool(B),
    /// A bitvector, least-significant bit first.
    Bv(Vec<B>),
    /// A struct, one entry per field.
    Struct(Vec<Rc<SymVal<B>>>),
    /// A struct-sorted conditional `c ? t : f` whose fields nobody has read
    /// yet. `GetField` pushes its projection through and muxes only the
    /// field asked for; `Eq` and [`BitCompiler::compile`]'s returned root
    /// force it, so values handed out of the compiler never contain one.
    Mux(B, Rc<SymVal<B>>, Rc<SymVal<B>>),
}

impl<B: Clone> SymVal<B> {
    /// The Boolean, for `Bool` values.
    pub fn as_bool(&self) -> &B {
        match self {
            SymVal::Bool(b) => b,
            _ => panic!("expected Bool SymVal"),
        }
    }

    /// The bits, for `Bv` values.
    pub fn as_bits(&self) -> &[B] {
        match self {
            SymVal::Bv(bits) => bits,
            _ => panic!("expected Bv SymVal"),
        }
    }

    /// Flatten to a single bit list (field order; bitvectors MSB-first so
    /// the flattened layout matches the variable-ordering convention).
    pub fn flatten(&self, out: &mut Vec<B>) {
        match self {
            SymVal::Bool(b) => out.push(b.clone()),
            SymVal::Bv(bits) => out.extend(bits.iter().rev().cloned()),
            SymVal::Struct(fs) => {
                for f in fs {
                    f.flatten(out);
                }
            }
            SymVal::Mux(..) => panic!("flatten over a pending Mux"),
        }
    }

    /// Call `f` on every bit reachable from `roots`, pending muxes'
    /// conditions and arms included. Shared nodes are visited once and the
    /// walk is iterative: a session cache holds `If` chains as deep as a
    /// rule list is long, each entry pointing into the next.
    pub fn for_each_bit<'a>(roots: impl Iterator<Item = &'a Rc<Self>>, mut f: impl FnMut(&B))
    where
        B: 'a,
    {
        let mut seen = rzen_bdd::FastHashSet::default();
        let mut stack: Vec<&Rc<Self>> = roots.collect();
        while let Some(v) = stack.pop() {
            if !seen.insert(Rc::as_ptr(v)) {
                continue;
            }
            match &**v {
                SymVal::Bool(b) => f(b),
                SymVal::Bv(bits) => bits.iter().for_each(&mut f),
                SymVal::Struct(fs) => stack.extend(fs),
                SymVal::Mux(c, t, e) => {
                    f(c);
                    stack.extend([t, e]);
                }
            }
        }
    }
}

/// Compile an expression to a circuit over `alg`. Results are memoized per
/// node, so shared subexpressions are compiled once.
pub struct BitCompiler<'a, A: BoolAlg> {
    alg: &'a mut A,
    cache: FastHashMap<u32, Rc<SymVal<A::B>>>,
    /// Keys inserted by *this* compiler (as opposed to seed entries).
    inserted: FastHashMap<u32, ()>,
    seed_hits: u64,
    /// Projections already pushed through a pending [`SymVal::Mux`], keyed
    /// by (node address, field); the node rides along so the address
    /// cannot be reused while the entry lives. Per compiler, not per
    /// session: an interrupted BDD compile leaves garbage handles here.
    projected: Projections<A::B>,
}

/// (node address, field) → (the node, kept alive; its projected field).
type Projections<B> = FastHashMap<(*const SymVal<B>, usize), (Rc<SymVal<B>>, Rc<SymVal<B>>)>;

impl<'a, A: BoolAlg> BitCompiler<'a, A> {
    /// Create a compiler over the given algebra.
    pub fn new(alg: &'a mut A) -> Self {
        Self::with_seed_cache(alg, FastHashMap::default())
    }

    /// Create a compiler seeded with a node cache carried over from
    /// earlier queries in a solver session. Seed entries are reused
    /// without recompiling — sound because `ExprId`s are hash-consed and
    /// stable for the lifetime of the thread-local context — and
    /// [`BitCompiler::seed_hits`] counts how often that happens.
    pub fn with_seed_cache(alg: &'a mut A, cache: FastHashMap<u32, Rc<SymVal<A::B>>>) -> Self {
        BitCompiler {
            alg,
            cache,
            inserted: FastHashMap::default(),
            seed_hits: 0,
            projected: FastHashMap::default(),
        }
    }

    /// Hand the (grown) node cache back to the session for the next query.
    pub fn into_cache(self) -> FastHashMap<u32, Rc<SymVal<A::B>>> {
        self.cache
    }

    /// Node lookups served by seed entries (entries that predate this
    /// compiler) — the cross-query reuse counter.
    pub fn seed_hits(&self) -> u64 {
        self.seed_hits
    }

    /// Nodes compiled (newly inserted) by this compiler.
    pub fn compiled(&self) -> usize {
        self.inserted.len()
    }

    /// Drain the keys this compiler inserted, so a session can evict them
    /// after an interrupted BDD compile (whose in-flight node handles are
    /// garbage by the manager's budget contract).
    pub fn take_inserted(&mut self) -> Vec<u32> {
        self.inserted.drain().map(|(k, ())| k).collect()
    }

    /// Access the underlying algebra.
    pub fn alg(&mut self) -> &mut A {
        self.alg
    }

    /// Compile `root` (and everything it references). The returned value
    /// contains no pending [`SymVal::Mux`].
    pub fn compile(&mut self, ctx: &Context, root: ExprId) -> Rc<SymVal<A::B>> {
        let _span = rzen_obs::span!("bitblast.compile", "root" => root.0);
        let cached_before = self.cache.len();
        enum Task {
            Visit(ExprId),
            Build(ExprId),
        }
        let mut stack = vec![Task::Visit(root)];
        while let Some(task) = stack.pop() {
            match task {
                Task::Visit(e) => {
                    if self.cache.contains_key(&e.0) {
                        if !self.inserted.contains_key(&e.0) {
                            self.seed_hits += 1;
                        }
                        continue;
                    }
                    stack.push(Task::Build(e));
                    for c in children(ctx, e) {
                        if self.cache.contains_key(&c.0) {
                            if !self.inserted.contains_key(&c.0) {
                                self.seed_hits += 1;
                            }
                        } else {
                            stack.push(Task::Visit(c));
                        }
                    }
                }
                Task::Build(e) => {
                    if self.cache.contains_key(&e.0) {
                        continue;
                    }
                    let v = self.build(ctx, e);
                    self.cache.insert(e.0, v);
                    self.inserted.insert(e.0, ());
                }
            }
        }
        rzen_obs::counter!("bitblast.exprs", "IR expressions lowered to circuits")
            .add((self.cache.len() - cached_before) as u64);
        let v = self.get(root);
        self.force(&v)
    }

    fn get(&self, e: ExprId) -> Rc<SymVal<A::B>> {
        self.cache[&e.0].clone()
    }

    fn build(&mut self, ctx: &Context, e: ExprId) -> Rc<SymVal<A::B>> {
        let alg = &mut *self.alg;
        match ctx.expr(e) {
            Expr::Var(v) => {
                let v = *v;
                match ctx.var_sort(v) {
                    Sort::Bool => Rc::new(SymVal::Bool(alg.var_bit(v, 0))),
                    Sort::BitVec { width, .. } => {
                        let bits = (0..width as u32).map(|i| alg.var_bit(v, i)).collect();
                        Rc::new(SymVal::Bv(bits))
                    }
                    Sort::Struct(_) => unreachable!("variables are primitive"),
                }
            }
            Expr::ConstBool(b) => Rc::new(SymVal::Bool(alg.lit(*b))),
            Expr::ConstInt { sort, bits } => {
                let Sort::BitVec { width, .. } = sort else {
                    unreachable!()
                };
                let bs = (0..*width as u32)
                    .map(|i| alg.lit(bits >> i & 1 == 1))
                    .collect();
                Rc::new(SymVal::Bv(bs))
            }
            Expr::Not(a) => {
                let a = self.get(*a);
                Rc::new(SymVal::Bool(self.alg.not(a.as_bool())))
            }
            Expr::And(a, b) => {
                let (a, b) = (self.get(*a), self.get(*b));
                Rc::new(SymVal::Bool(self.alg.and(a.as_bool(), b.as_bool())))
            }
            Expr::Or(a, b) => {
                let (a, b) = (self.get(*a), self.get(*b));
                Rc::new(SymVal::Bool(self.alg.or(a.as_bool(), b.as_bool())))
            }
            Expr::BvNot(a) => {
                let a = self.get(*a);
                let bits = a.as_bits().iter().map(|x| self.alg.not(x)).collect();
                Rc::new(SymVal::Bv(bits))
            }
            Expr::Bv(op, a, b) => {
                let sort = ctx.sort_of(*a);
                let (a, b) = (self.get(*a), self.get(*b));
                let bits = self.bv_op(*op, sort, a.as_bits(), b.as_bits());
                Rc::new(SymVal::Bv(bits))
            }
            Expr::Eq(a, b) => {
                let (a, b) = (self.get(*a), self.get(*b));
                let (a, b) = (self.force(&a), self.force(&b));
                let mut fa = Vec::new();
                let mut fb = Vec::new();
                a.flatten(&mut fa);
                b.flatten(&mut fb);
                debug_assert_eq!(fa.len(), fb.len());
                let mut acc = self.alg.lit(true);
                for (x, y) in fa.iter().zip(&fb) {
                    let eq = self.alg.iff(x, y);
                    acc = self.alg.and(&acc, &eq);
                }
                Rc::new(SymVal::Bool(acc))
            }
            Expr::Cmp(op, a, b) => {
                let sort = ctx.sort_of(*a);
                let Sort::BitVec { signed, .. } = sort else {
                    unreachable!()
                };
                let (a, b) = (self.get(*a), self.get(*b));
                let r = self.compare(*op, signed, a.as_bits(), b.as_bits());
                Rc::new(SymVal::Bool(r))
            }
            Expr::If(c, t, f) => {
                let c = self.get(*c);
                let (t, f) = (self.get(*t), self.get(*f));
                self.mux(c.as_bool().clone(), &t, &f)
            }
            Expr::MakeStruct(_, fs) => {
                let fields = fs.iter().map(|&f| self.get(f)).collect();
                Rc::new(SymVal::Struct(fields))
            }
            Expr::GetField(a, idx) => {
                let a = self.get(*a);
                self.project(&a, *idx as usize)
            }
            Expr::Cast(a, to) => {
                let from = ctx.sort_of(*a);
                let Sort::BitVec { signed, .. } = from else {
                    unreachable!()
                };
                let Sort::BitVec { width: wt, .. } = *to else {
                    unreachable!()
                };
                let a = self.get(*a);
                let src = a.as_bits();
                let fill = if signed {
                    src[src.len() - 1].clone()
                } else {
                    self.alg.lit(false)
                };
                let bits = (0..wt as usize)
                    .map(|i| src.get(i).cloned().unwrap_or_else(|| fill.clone()))
                    .collect();
                Rc::new(SymVal::Bv(bits))
            }
        }
    }

    fn mux(&mut self, c: A::B, t: &Rc<SymVal<A::B>>, f: &Rc<SymVal<A::B>>) -> Rc<SymVal<A::B>> {
        // Short-circuit constant conditions: the whole branch is shared,
        // not rebuilt.
        match self.alg.const_of(&c) {
            Some(true) => return t.clone(),
            Some(false) => return f.clone(),
            None => {}
        }
        match (&**t, &**f) {
            (SymVal::Bool(a), SymVal::Bool(b)) => Rc::new(SymVal::Bool(self.alg.ite(&c, a, b))),
            (SymVal::Bv(ta), SymVal::Bv(fb)) => {
                debug_assert_eq!(ta.len(), fb.len());
                let bits = ta
                    .iter()
                    .zip(fb)
                    .map(|(x, y)| self.alg.ite(&c, x, y))
                    .collect();
                Rc::new(SymVal::Bv(bits))
            }
            // Struct-shaped arms: most readers want one field (`is_some`
            // of an `Option<Packet>`), so nothing is muxed until asked.
            (SymVal::Struct(_) | SymVal::Mux(..), SymVal::Struct(_) | SymVal::Mux(..)) => {
                Rc::new(SymVal::Mux(c, t.clone(), f.clone()))
            }
            _ => panic!("mux over mismatched shapes"),
        }
    }

    /// Field `idx` of a struct-shaped value: the field itself, or the mux
    /// of that field alone through every pending [`SymVal::Mux`] above it.
    /// Iterative and memoised per node — `If` chains over structs are as
    /// deep as a route map is long, and shared.
    fn project(&mut self, root: &Rc<SymVal<A::B>>, idx: usize) -> Rc<SymVal<A::B>> {
        let mut parents = Vec::new();
        let mut v = root.clone();
        loop {
            if let Some(r) = self.projection(&v, idx) {
                match parents.pop() {
                    Some(parent) => v = parent,
                    None => return r,
                }
                continue;
            }
            let SymVal::Mux(c, t, f) = &*v else {
                unreachable!("projection of a struct is immediate")
            };
            match (self.projection(t, idx), self.projection(f, idx)) {
                (Some(a), Some(b)) => {
                    let r = self.mux(c.clone(), &a, &b);
                    self.projected.insert((Rc::as_ptr(&v), idx), (v.clone(), r));
                }
                (a, _) => {
                    let arm = if a.is_none() { t } else { f }.clone();
                    parents.push(std::mem::replace(&mut v, arm));
                }
            }
        }
    }

    /// [`BitCompiler::project`]'s answer where no mux needs building.
    fn projection(&self, v: &Rc<SymVal<A::B>>, idx: usize) -> Option<Rc<SymVal<A::B>>> {
        match &**v {
            SymVal::Struct(fs) => Some(fs[idx].clone()),
            SymVal::Mux(..) => Some(self.projected.get(&(Rc::as_ptr(v), idx))?.1.clone()),
            _ => panic!("projection of a non-struct"),
        }
    }

    /// `v` with every pending mux inside it built, field by field.
    /// Recursion follows struct nesting only; chains go through
    /// [`BitCompiler::project`].
    fn force(&mut self, v: &Rc<SymVal<A::B>>) -> Rc<SymVal<A::B>> {
        let mut shape = v;
        while let SymVal::Mux(_, t, _) = &**shape {
            shape = t;
        }
        let SymVal::Struct(fs) = &**shape else {
            return v.clone();
        };
        let fields = (0..fs.len())
            .map(|i| {
                let field = self.project(v, i);
                self.force(&field)
            })
            .collect();
        Rc::new(SymVal::Struct(fields))
    }

    fn bv_op(&mut self, op: Bv2, sort: Sort, a: &[A::B], b: &[A::B]) -> Vec<A::B> {
        let Sort::BitVec { signed, .. } = sort else {
            unreachable!()
        };
        match op {
            Bv2::And => a.iter().zip(b).map(|(x, y)| self.alg.and(x, y)).collect(),
            Bv2::Or => a.iter().zip(b).map(|(x, y)| self.alg.or(x, y)).collect(),
            Bv2::Xor => a.iter().zip(b).map(|(x, y)| self.alg.xor(x, y)).collect(),
            Bv2::Add => {
                let zero = self.alg.lit(false);
                self.adder(a, b, zero).0
            }
            Bv2::Sub => {
                // a - b = a + ¬b + 1
                let nb: Vec<A::B> = b.iter().map(|x| self.alg.not(x)).collect();
                let one = self.alg.lit(true);
                self.adder(a, &nb, one).0
            }
            Bv2::Mul => {
                let w = a.len();
                let mut acc: Vec<A::B> = (0..w).map(|_| self.alg.lit(false)).collect();
                for (i, bi) in b.iter().enumerate() {
                    // Partial product: (a << i) gated by b[i].
                    let mut pp: Vec<A::B> = (0..w).map(|_| self.alg.lit(false)).collect();
                    for j in 0..w - i {
                        pp[i + j] = self.alg.and(&a[j], bi);
                    }
                    let zero = self.alg.lit(false);
                    acc = self.adder(&acc, &pp, zero).0;
                }
                acc
            }
            Bv2::Shl => self.shifter(a, b, false, false),
            Bv2::Shr => self.shifter(a, b, true, signed),
        }
    }

    /// Ripple-carry adder; returns (sum bits, carry-out).
    fn adder(&mut self, a: &[A::B], b: &[A::B], carry_in: A::B) -> (Vec<A::B>, A::B) {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = carry_in;
        let mut out = Vec::with_capacity(a.len());
        for (x, y) in a.iter().zip(b) {
            let xy = self.alg.xor(x, y);
            let sum = self.alg.xor(&xy, &carry);
            // carry' = (x ∧ y) ∨ (carry ∧ (x ⊕ y))
            let c1 = self.alg.and(x, y);
            let c2 = self.alg.and(&carry, &xy);
            carry = self.alg.or(&c1, &c2);
            out.push(sum);
        }
        (out, carry)
    }

    /// Barrel shifter by a symbolic amount. `right` selects direction;
    /// `arith` fills with the sign bit instead of zero (arithmetic right
    /// shift). Shifting by ≥ width yields the fill bit everywhere.
    fn shifter(&mut self, a: &[A::B], amount: &[A::B], right: bool, arith: bool) -> Vec<A::B> {
        let w = a.len();
        let fill = if arith {
            a[w - 1].clone()
        } else {
            self.alg.lit(false)
        };
        let mut cur: Vec<A::B> = a.to_vec();
        // Stages for amount bits that shift within the width.
        let stages = usize::BITS - (w - 1).leading_zeros(); // ceil(log2(w)), w >= 1
        for (k, amount_bit) in amount.iter().enumerate() {
            let bit = &amount_bit.clone();
            if (k as u32) < stages {
                let sh = 1usize << k;
                let shifted: Vec<A::B> = (0..w)
                    .map(|i| {
                        let src = if right {
                            i.checked_add(sh).filter(|&s| s < w)
                        } else {
                            i.checked_sub(sh)
                        };
                        match src {
                            Some(s) => cur[s].clone(),
                            None => fill.clone(),
                        }
                    })
                    .collect();
                cur = (0..w)
                    .map(|i| self.alg.ite(bit, &shifted[i], &cur[i]))
                    .collect();
            } else {
                // This amount bit alone shifts everything out.
                cur = (0..w).map(|i| self.alg.ite(bit, &fill, &cur[i])).collect();
            }
        }
        cur
    }

    /// MSB-first magnitude comparator.
    fn compare(&mut self, op: CmpOp, signed: bool, a: &[A::B], b: &[A::B]) -> A::B {
        // Signed comparison = unsigned comparison with the sign bit
        // flipped on both operands.
        let w = a.len();
        let (a, b): (Vec<A::B>, Vec<A::B>) = if signed {
            let mut a2 = a.to_vec();
            let mut b2 = b.to_vec();
            a2[w - 1] = self.alg.not(&a[w - 1]);
            b2[w - 1] = self.alg.not(&b[w - 1]);
            (a2, b2)
        } else {
            (a.to_vec(), b.to_vec())
        };
        let mut lt = self.alg.lit(false);
        let mut eq = self.alg.lit(true);
        for i in (0..w).rev() {
            let na = self.alg.not(&a[i]);
            let here = self.alg.and(&na, &b[i]);
            let here = self.alg.and(&eq, &here);
            lt = self.alg.or(&lt, &here);
            let same = self.alg.iff(&a[i], &b[i]);
            eq = self.alg.and(&eq, &same);
        }
        match op {
            CmpOp::Lt => lt,
            CmpOp::Le => self.alg.or(&lt, &eq),
        }
    }
}

/// The direct children of a node.
pub(crate) fn children(ctx: &Context, e: ExprId) -> Vec<ExprId> {
    match ctx.expr(e) {
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
