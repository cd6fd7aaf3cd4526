//! The hash-consed intermediate representation.
//!
//! This is the abstract language of the paper's Fig. 9: constants,
//! logical/arithmetic/bitwise operators, object creation and field access,
//! and conditionals. Lists and options do not appear here — they are
//! lowered to struct sorts by the frontend (the paper's `adapt` mechanism).
//!
//! Expressions are interned in a thread-local arena ([`crate::ctx`]) with
//! eager constant folding and algebraic simplification, so semantically
//! trivial expressions never materialize and structurally equal expressions
//! share one node. `ExprId` equality is therefore cheap structural equality.

use crate::ctx::Context;
use crate::sorts::{Sort, StructId};
use crate::value::Value;

/// Index of an interned expression in the thread-local context.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ExprId(pub(crate) u32);

/// Index of a symbolic variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The variable's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Binary bitvector operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Bv2 {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shifting past the width yields zero).
    Shl,
    /// Right shift (logical for unsigned sorts, arithmetic for signed).
    Shr,
}

/// Comparison operators other than equality. Signedness comes from the
/// operand sort.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
}

/// An interned expression node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A symbolic variable (always of primitive sort: the frontend creates
    /// composite symbolic values as structs of primitive variables).
    Var(VarId),
    /// A boolean constant.
    ConstBool(bool),
    /// A bitvector constant.
    ConstInt {
        /// The bitvector sort.
        sort: Sort,
        /// Raw bits (masked to the width).
        bits: u64,
    },
    /// Boolean negation.
    Not(ExprId),
    /// Boolean conjunction.
    And(ExprId, ExprId),
    /// Boolean disjunction.
    Or(ExprId, ExprId),
    /// Bitwise complement.
    BvNot(ExprId),
    /// A binary bitvector operation.
    Bv(Bv2, ExprId, ExprId),
    /// Equality, over any sort (structs compare field-wise).
    Eq(ExprId, ExprId),
    /// An order comparison over bitvectors.
    Cmp(CmpOp, ExprId, ExprId),
    /// Conditional.
    If(ExprId, ExprId, ExprId),
    /// Struct construction.
    MakeStruct(StructId, Box<[ExprId]>),
    /// Struct field projection.
    GetField(ExprId, u32),
    /// Bitvector width/signedness conversion: widening zero-extends
    /// unsigned sources and sign-extends signed sources; narrowing
    /// truncates.
    Cast(ExprId, Sort),
}

impl Context {
    /// The sort of an expression.
    pub fn sort_of(&self, e: ExprId) -> Sort {
        self.sorts_of[e.0 as usize]
    }

    /// Is the expression a compile-time constant?
    pub fn is_const(&self, e: ExprId) -> bool {
        self.const_flags[e.0 as usize]
    }

    /// Look at an interned node.
    pub fn expr(&self, e: ExprId) -> &Expr {
        &self.exprs[e.0 as usize]
    }

    /// The sort of a variable.
    pub fn var_sort(&self, v: VarId) -> Sort {
        self.var_sorts[v.0 as usize]
    }

    fn intern(&mut self, expr: Expr, sort: Sort) -> ExprId {
        self.interns += 1;
        if let Some(&id) = self.cons.get(&expr) {
            return ExprId(id);
        }
        let konst = match &expr {
            Expr::Var(_) => false,
            Expr::ConstBool(_) | Expr::ConstInt { .. } => true,
            Expr::Not(a) | Expr::BvNot(a) | Expr::GetField(a, _) | Expr::Cast(a, _) => {
                self.is_const(*a)
            }
            Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Bv(_, a, b)
            | Expr::Eq(a, b)
            | Expr::Cmp(_, a, b) => self.is_const(*a) && self.is_const(*b),
            Expr::If(c, t, e) => self.is_const(*c) && self.is_const(*t) && self.is_const(*e),
            Expr::MakeStruct(_, fs) => fs.iter().all(|f| self.is_const(*f)),
        };
        let id = self.exprs.len() as u32;
        self.exprs.push(expr.clone());
        self.sorts_of.push(sort);
        self.const_flags.push(konst);
        self.cons.insert(expr, id);
        ExprId(id)
    }

    /// Allocate a fresh symbolic variable of a primitive sort.
    pub fn mk_var(&mut self, sort: Sort) -> ExprId {
        assert!(
            !matches!(sort, Sort::Struct(_)),
            "variables must be of primitive sort; composite symbolics are \
             built as structs of primitive variables"
        );
        let v = VarId(self.var_sorts.len() as u32);
        self.var_sorts.push(sort);
        self.intern(Expr::Var(v), sort)
    }

    /// A boolean constant.
    pub fn mk_bool(&mut self, b: bool) -> ExprId {
        self.intern(Expr::ConstBool(b), Sort::Bool)
    }

    /// A bitvector constant (bits are masked to the width).
    pub fn mk_int(&mut self, sort: Sort, bits: u64) -> ExprId {
        assert!(sort.is_bitvec(), "mk_int needs a bitvector sort");
        self.intern(
            Expr::ConstInt {
                sort,
                bits: bits & sort.mask(),
            },
            sort,
        )
    }

    /// Boolean negation, with folding.
    pub fn mk_not(&mut self, a: ExprId) -> ExprId {
        assert_eq!(self.sort_of(a), Sort::Bool, "not: operand must be Bool");
        match *self.expr(a) {
            Expr::ConstBool(b) => self.mk_bool(!b),
            Expr::Not(inner) => inner,
            _ => self.intern(Expr::Not(a), Sort::Bool),
        }
    }

    /// Boolean conjunction, with folding.
    pub fn mk_and(&mut self, a: ExprId, b: ExprId) -> ExprId {
        assert_eq!(self.sort_of(a), Sort::Bool, "and: operands must be Bool");
        assert_eq!(self.sort_of(b), Sort::Bool, "and: operands must be Bool");
        if self.fold {
            if let Expr::ConstBool(x) = *self.expr(a) {
                return if x { b } else { self.mk_bool(false) };
            }
            if let Expr::ConstBool(x) = *self.expr(b) {
                return if x { a } else { self.mk_bool(false) };
            }
            if a == b {
                return a;
            }
            if self.is_complement(a, b) {
                return self.mk_bool(false);
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern(Expr::And(a, b), Sort::Bool)
    }

    /// Boolean disjunction, with folding.
    pub fn mk_or(&mut self, a: ExprId, b: ExprId) -> ExprId {
        assert_eq!(self.sort_of(a), Sort::Bool, "or: operands must be Bool");
        assert_eq!(self.sort_of(b), Sort::Bool, "or: operands must be Bool");
        if self.fold {
            if let Expr::ConstBool(x) = *self.expr(a) {
                return if x { self.mk_bool(true) } else { b };
            }
            if let Expr::ConstBool(x) = *self.expr(b) {
                return if x { self.mk_bool(true) } else { a };
            }
            if a == b {
                return a;
            }
            if self.is_complement(a, b) {
                return self.mk_bool(true);
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern(Expr::Or(a, b), Sort::Bool)
    }

    fn is_complement(&self, a: ExprId, b: ExprId) -> bool {
        matches!(*self.expr(a), Expr::Not(x) if x == b)
            || matches!(*self.expr(b), Expr::Not(x) if x == a)
    }

    /// Bitwise complement.
    pub fn mk_bvnot(&mut self, a: ExprId) -> ExprId {
        let sort = self.sort_of(a);
        assert!(sort.is_bitvec(), "bvnot: operand must be a bitvector");
        match *self.expr(a) {
            Expr::ConstInt { bits, .. } => self.mk_int(sort, !bits),
            Expr::BvNot(inner) => inner,
            _ => self.intern(Expr::BvNot(a), sort),
        }
    }

    /// A binary bitvector operation, with folding and identity
    /// simplification.
    pub fn mk_bv(&mut self, op: Bv2, a: ExprId, b: ExprId) -> ExprId {
        let sort = self.sort_of(a);
        assert!(sort.is_bitvec(), "{op:?}: operands must be bitvectors");
        assert_eq!(sort, self.sort_of(b), "{op:?}: operand sorts must match");
        if self.fold {
            let ca = self.const_bits(a);
            let cb = self.const_bits(b);
            if let (Some(x), Some(y)) = (ca, cb) {
                return self.mk_int(sort, crate::semantics::bv_bin(op, sort, x, y));
            }
            // Identities (conservative: only ones valid for all operands).
            if let Some(y) = cb {
                match op {
                    Bv2::Add | Bv2::Sub | Bv2::Or | Bv2::Xor | Bv2::Shl | Bv2::Shr if y == 0 => {
                        return a
                    }
                    Bv2::Mul if y == 1 => return a,
                    Bv2::Mul if y == 0 => return self.mk_int(sort, 0),
                    Bv2::And if y == 0 => return self.mk_int(sort, 0),
                    Bv2::And if y == sort.mask() => return a,
                    Bv2::Or if y == sort.mask() => return self.mk_int(sort, sort.mask()),
                    _ => {}
                }
            }
            if let Some(x) = ca {
                match op {
                    Bv2::Add | Bv2::Or | Bv2::Xor if x == 0 => return b,
                    Bv2::Mul if x == 1 => return b,
                    Bv2::Mul if x == 0 => return self.mk_int(sort, 0),
                    Bv2::And if x == 0 => return self.mk_int(sort, 0),
                    Bv2::And if x == sort.mask() => return b,
                    _ => {}
                }
            }
            if a == b {
                match op {
                    Bv2::And | Bv2::Or => return a,
                    Bv2::Xor | Bv2::Sub => return self.mk_int(sort, 0),
                    _ => {}
                }
            }
        }
        // Canonicalize commutative operators for better sharing.
        let (a, b) = match op {
            Bv2::Add | Bv2::Mul | Bv2::And | Bv2::Or | Bv2::Xor => (a.min(b), a.max(b)),
            _ => (a, b),
        };
        self.intern(Expr::Bv(op, a, b), sort)
    }

    fn const_bits(&self, e: ExprId) -> Option<u64> {
        match *self.expr(e) {
            Expr::ConstInt { bits, .. } => Some(bits),
            _ => None,
        }
    }

    /// Equality over any sort (structs compare all fields).
    pub fn mk_eq(&mut self, a: ExprId, b: ExprId) -> ExprId {
        assert_eq!(
            self.sort_of(a),
            self.sort_of(b),
            "eq: operand sorts must match ({:?} vs {:?})",
            self.sort_of(a),
            self.sort_of(b)
        );
        if self.fold {
            if a == b {
                return self.mk_bool(true);
            }
            if self.is_const(a) && self.is_const(b) {
                let va = self.eval_const(a);
                let vb = self.eval_const(b);
                return self.mk_bool(va == vb);
            }
            // Push a comparison against a constant through a conditional
            // spine: Eq(If(c,t,e), k) = If(c, Eq(t,k), Eq(e,k)). For the
            // ubiquitous "which rule matched" pattern this turns a
            // comparison of a deep value-mux into the first-match Boolean
            // structure a hand-written encoding would use. Iterative:
            // rule chains are tens of thousands deep.
            let (spine, konst) = if self.is_const(b) { (a, b) } else { (b, a) };
            if self.is_const(konst) && matches!(self.expr(spine), Expr::If(..)) {
                let mut conds = Vec::new();
                let mut cur = spine;
                while let Expr::If(c, t, e) = *self.expr(cur) {
                    conds.push((c, t));
                    cur = e;
                }
                let mut acc = self.mk_eq_nofold_spine(cur, konst);
                for (c, t) in conds.into_iter().rev() {
                    let teq = self.mk_eq_nofold_spine(t, konst);
                    acc = self.mk_if(c, teq, acc);
                }
                return acc;
            }
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern(Expr::Eq(a, b), Sort::Bool)
    }

    /// Equality used while expanding a conditional spine: applies the
    /// constant foldings but not the spine rewrite again (the operand is a
    /// branch leaf, which may itself be another — shallower — spine; one
    /// level of recursion per nested spine is fine).
    fn mk_eq_nofold_spine(&mut self, a: ExprId, k: ExprId) -> ExprId {
        if a == k {
            return self.mk_bool(true);
        }
        if self.is_const(a) && self.is_const(k) {
            let va = self.eval_const(a);
            let vk = self.eval_const(k);
            return self.mk_bool(va == vk);
        }
        let (a, b) = (a.min(k), a.max(k));
        self.intern(Expr::Eq(a, b), Sort::Bool)
    }

    /// An order comparison over bitvectors.
    pub fn mk_cmp(&mut self, op: CmpOp, a: ExprId, b: ExprId) -> ExprId {
        let sort = self.sort_of(a);
        assert!(sort.is_bitvec(), "{op:?}: operands must be bitvectors");
        assert_eq!(sort, self.sort_of(b), "{op:?}: operand sorts must match");
        if self.fold {
            if let (Some(x), Some(y)) = (self.const_bits(a), self.const_bits(b)) {
                return self.mk_bool(crate::semantics::bv_cmp(op, sort, x, y));
            }
            if a == b {
                return self.mk_bool(op == CmpOp::Le);
            }
        }
        self.intern(Expr::Cmp(op, a, b), Sort::Bool)
    }

    /// Conditional, with branch folding.
    pub fn mk_if(&mut self, c: ExprId, t: ExprId, e: ExprId) -> ExprId {
        assert_eq!(self.sort_of(c), Sort::Bool, "if: condition must be Bool");
        let sort = self.sort_of(t);
        assert_eq!(sort, self.sort_of(e), "if: branch sorts must match");
        if self.fold {
            if let Expr::ConstBool(b) = *self.expr(c) {
                return if b { t } else { e };
            }
            if t == e {
                return t;
            }
            if sort == Sort::Bool {
                // Lower boolean conditionals to connectives: gives the
                // backends simpler circuits and enables further folding.
                if let Expr::ConstBool(tb) = *self.expr(t) {
                    return if tb {
                        self.mk_or(c, e)
                    } else {
                        let nc = self.mk_not(c);
                        self.mk_and(nc, e)
                    };
                }
                if let Expr::ConstBool(eb) = *self.expr(e) {
                    return if eb {
                        let nc = self.mk_not(c);
                        self.mk_or(nc, t)
                    } else {
                        self.mk_and(c, t)
                    };
                }
            }
        }
        self.intern(Expr::If(c, t, e), sort)
    }

    /// Struct construction. Field sorts are checked against the registered
    /// layout.
    pub fn mk_struct(&mut self, id: StructId, fields: Vec<ExprId>) -> ExprId {
        {
            let info = self.struct_info(id);
            assert_eq!(
                info.fields.len(),
                fields.len(),
                "make_struct {}: wrong number of fields",
                info.name
            );
        }
        for (i, &f) in fields.iter().enumerate() {
            let expect = self.struct_info(id).fields[i].1;
            assert_eq!(
                self.sort_of(f),
                expect,
                "make_struct {}: field {} sort mismatch",
                self.struct_info(id).name,
                self.struct_info(id).fields[i].0
            );
        }
        self.intern(
            Expr::MakeStruct(id, fields.into_boxed_slice()),
            Sort::Struct(id),
        )
    }

    /// Struct field projection, folding through `MakeStruct`.
    pub fn mk_get(&mut self, e: ExprId, idx: u32) -> ExprId {
        let Sort::Struct(id) = self.sort_of(e) else {
            panic!("get_field: operand is not a struct");
        };
        let info = self.struct_info(id);
        assert!(
            (idx as usize) < info.fields.len(),
            "get_field {}: index {} out of range",
            info.name,
            idx
        );
        let field_sort = info.fields[idx as usize].1;
        if self.fold {
            if let Expr::MakeStruct(_, fs) = self.expr(e) {
                return fs[idx as usize];
            }
        }
        self.intern(Expr::GetField(e, idx), field_sort)
    }

    /// Bitvector conversion to another width/signedness (the paper's
    /// host-language numeric conversions). Widening zero-extends unsigned
    /// sources and sign-extends signed sources; narrowing truncates.
    pub fn mk_cast(&mut self, e: ExprId, to: Sort) -> ExprId {
        let from = self.sort_of(e);
        assert!(
            from.is_bitvec() && to.is_bitvec(),
            "cast: bitvector sorts only"
        );
        if from == to {
            return e;
        }
        if self.fold {
            if let Expr::ConstInt { bits, .. } = *self.expr(e) {
                let out = crate::semantics::bv_cast(from, to, bits);
                return self.mk_int(to, out);
            }
            // Collapse chained casts when the middle keeps all the bits.
            if let Expr::Cast(inner, _) = *self.expr(e) {
                let inner_sort = self.sort_of(inner);
                let (Sort::BitVec { width: wi, .. }, Sort::BitVec { width: wm, .. }) =
                    (inner_sort, from)
                else {
                    unreachable!()
                };
                if wm >= wi {
                    // No information was lost at the middle step; but the
                    // extension kind still depends on the middle sort, so
                    // only collapse when the signedness agrees.
                    if matches!(
                        (inner_sort, from),
                        (
                            Sort::BitVec { signed: a, .. },
                            Sort::BitVec { signed: b, .. }
                        ) if a == b
                    ) {
                        return self.mk_cast(inner, to);
                    }
                }
            }
        }
        self.intern(Expr::Cast(e, to), to)
    }

    /// Functional field update `e[idx := v]`, lowered to projection and
    /// reconstruction.
    pub fn mk_with(&mut self, e: ExprId, idx: u32, v: ExprId) -> ExprId {
        let Sort::Struct(id) = self.sort_of(e) else {
            panic!("with_field: operand is not a struct");
        };
        let n = self.struct_info(id).fields.len();
        let mut fields = Vec::with_capacity(n);
        for i in 0..n as u32 {
            if i == idx {
                fields.push(v);
            } else {
                fields.push(self.mk_get(e, i));
            }
        }
        self.mk_struct(id, fields)
    }

    /// The default ("zero") constant of a sort: `false`, `0`, or a struct of
    /// defaults. Used to pad list slots beyond the length (the list
    /// canonicity invariant, see `lang::list`).
    pub fn mk_default(&mut self, sort: Sort) -> ExprId {
        match sort {
            Sort::Bool => self.mk_bool(false),
            Sort::BitVec { .. } => self.mk_int(sort, 0),
            Sort::Struct(id) => {
                let field_sorts: Vec<Sort> =
                    self.struct_info(id).fields.iter().map(|f| f.1).collect();
                let fields = field_sorts
                    .into_iter()
                    .map(|s| self.mk_default(s))
                    .collect();
                self.mk_struct(id, fields)
            }
        }
    }

    /// Lift a concrete [`Value`] to a constant expression.
    pub fn mk_const_value(&mut self, v: &Value) -> ExprId {
        match v {
            Value::Bool(b) => self.mk_bool(*b),
            Value::Int { sort, bits } => self.mk_int(*sort, *bits),
            Value::Struct(id, fields) => {
                let fs = fields.iter().map(|f| self.mk_const_value(f)).collect();
                self.mk_struct(*id, fs)
            }
        }
    }

    /// Evaluate a constant expression to a [`Value`]. Panics if the
    /// expression contains variables (check [`Context::is_const`] first).
    pub fn eval_const(&self, e: ExprId) -> Value {
        assert!(self.is_const(e), "eval_const on non-constant expression");
        match self.expr(e).clone() {
            Expr::Var(_) => unreachable!(),
            Expr::ConstBool(b) => Value::Bool(b),
            Expr::ConstInt { sort, bits } => Value::Int { sort, bits },
            Expr::Not(a) => Value::Bool(!self.eval_const(a).as_bool()),
            Expr::And(a, b) => {
                Value::Bool(self.eval_const(a).as_bool() && self.eval_const(b).as_bool())
            }
            Expr::Or(a, b) => {
                Value::Bool(self.eval_const(a).as_bool() || self.eval_const(b).as_bool())
            }
            Expr::BvNot(a) => {
                let sort = self.sort_of(a);
                Value::int(sort, !self.eval_const(a).as_bits())
            }
            Expr::Bv(op, a, b) => {
                let sort = self.sort_of(a);
                let x = self.eval_const(a).as_bits();
                let y = self.eval_const(b).as_bits();
                Value::int(sort, crate::semantics::bv_bin(op, sort, x, y))
            }
            Expr::Eq(a, b) => Value::Bool(self.eval_const(a) == self.eval_const(b)),
            Expr::Cmp(op, a, b) => {
                let sort = self.sort_of(a);
                let x = self.eval_const(a).as_bits();
                let y = self.eval_const(b).as_bits();
                Value::Bool(crate::semantics::bv_cmp(op, sort, x, y))
            }
            Expr::If(c, t, e2) => {
                if self.eval_const(c).as_bool() {
                    self.eval_const(t)
                } else {
                    self.eval_const(e2)
                }
            }
            Expr::MakeStruct(id, fs) => {
                Value::Struct(id, fs.iter().map(|&f| self.eval_const(f)).collect())
            }
            Expr::GetField(a, idx) => self.eval_const(a).fields()[idx as usize].clone(),
            Expr::Cast(a, to) => {
                let from = self.sort_of(a);
                let bits = self.eval_const(a).as_bits();
                Value::int(to, crate::semantics::bv_cast(from, to, bits))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{reset_ctx, with_ctx};

    fn bv8(ctx: &mut Context, v: u64) -> ExprId {
        ctx.mk_int(Sort::bv(8), v)
    }

    #[test]
    fn constant_folding_arithmetic() {
        reset_ctx();
        with_ctx(|ctx| {
            let a = bv8(ctx, 200);
            let b = bv8(ctx, 100);
            let s = ctx.mk_bv(Bv2::Add, a, b);
            assert_eq!(
                *ctx.expr(s),
                Expr::ConstInt {
                    sort: Sort::bv(8),
                    bits: 44
                }
            );
        });
    }

    #[test]
    fn identity_simplifications() {
        reset_ctx();
        with_ctx(|ctx| {
            let x = ctx.mk_var(Sort::bv(8));
            let zero = bv8(ctx, 0);
            let ones = bv8(ctx, 0xFF);
            assert_eq!(ctx.mk_bv(Bv2::Add, x, zero), x);
            assert_eq!(ctx.mk_bv(Bv2::And, x, ones), x);
            assert_eq!(ctx.mk_bv(Bv2::And, x, zero), zero);
            assert_eq!(ctx.mk_bv(Bv2::Or, x, zero), x);
            assert_eq!(ctx.mk_bv(Bv2::Xor, x, x), zero);
            assert_eq!(ctx.mk_bv(Bv2::Sub, x, x), zero);
            let one = bv8(ctx, 1);
            assert_eq!(ctx.mk_bv(Bv2::Mul, x, one), x);
        });
    }

    #[test]
    fn boolean_simplifications() {
        reset_ctx();
        with_ctx(|ctx| {
            let x = ctx.mk_var(Sort::Bool);
            let t = ctx.mk_bool(true);
            let f = ctx.mk_bool(false);
            assert_eq!(ctx.mk_and(x, t), x);
            assert_eq!(ctx.mk_and(x, f), f);
            assert_eq!(ctx.mk_or(x, f), x);
            assert_eq!(ctx.mk_or(x, t), t);
            let nx = ctx.mk_not(x);
            assert_eq!(ctx.mk_not(nx), x);
            assert_eq!(ctx.mk_and(x, nx), f);
            assert_eq!(ctx.mk_or(x, nx), t);
        });
    }

    #[test]
    fn if_folding() {
        reset_ctx();
        with_ctx(|ctx| {
            let c = ctx.mk_var(Sort::Bool);
            let t = ctx.mk_bool(true);
            let f = ctx.mk_bool(false);
            let a = bv8(ctx, 1);
            let b = bv8(ctx, 2);
            assert_eq!(ctx.mk_if(t, a, b), a);
            assert_eq!(ctx.mk_if(f, a, b), b);
            assert_eq!(ctx.mk_if(c, a, a), a);
            // Boolean conditionals lower to connectives.
            assert_eq!(ctx.mk_if(c, t, f), c);
            let nc = ctx.mk_not(c);
            assert_eq!(ctx.mk_if(c, f, t), nc);
        });
    }

    #[test]
    fn eq_spine_rewrite_produces_first_match_structure() {
        reset_ctx();
        with_ctx(|ctx| {
            // if c1 then 1 else if c2 then 2 else 0, compared against 2.
            let c1 = ctx.mk_var(Sort::Bool);
            let c2 = ctx.mk_var(Sort::Bool);
            let v0 = bv8(ctx, 0);
            let v1 = bv8(ctx, 1);
            let v2 = bv8(ctx, 2);
            let inner = ctx.mk_if(c2, v2, v0);
            let spine = ctx.mk_if(c1, v1, inner);
            let q = ctx.mk_eq(spine, v2);
            // Expected: !c1 && c2.
            let nc1 = ctx.mk_not(c1);
            let expect = ctx.mk_and(nc1, c2);
            assert_eq!(q, expect);
        });
    }

    #[test]
    fn eq_same_node_is_true() {
        reset_ctx();
        with_ctx(|ctx| {
            let x = ctx.mk_var(Sort::bv(16));
            let t = ctx.mk_bool(true);
            assert_eq!(ctx.mk_eq(x, x), t);
        });
    }

    #[test]
    fn cmp_folding() {
        reset_ctx();
        with_ctx(|ctx| {
            let a = bv8(ctx, 3);
            let b = bv8(ctx, 7);
            let t = ctx.mk_bool(true);
            let f = ctx.mk_bool(false);
            assert_eq!(ctx.mk_cmp(CmpOp::Lt, a, b), t);
            assert_eq!(ctx.mk_cmp(CmpOp::Lt, b, a), f);
            let x = ctx.mk_var(Sort::bv(8));
            assert_eq!(ctx.mk_cmp(CmpOp::Le, x, x), t);
            assert_eq!(ctx.mk_cmp(CmpOp::Lt, x, x), f);
        });
    }

    #[test]
    fn get_field_through_make_struct() {
        reset_ctx();
        with_ctx(|ctx| {
            let id = ctx.register_struct(
                crate::sorts::StructKey::Named("p".into()),
                crate::sorts::StructInfo {
                    name: "P".into(),
                    fields: vec![("a".into(), Sort::bv(8)), ("b".into(), Sort::Bool)],
                },
            );
            let a = ctx.mk_var(Sort::bv(8));
            let b = ctx.mk_var(Sort::Bool);
            let s = ctx.mk_struct(id, vec![a, b]);
            assert_eq!(ctx.mk_get(s, 0), a);
            assert_eq!(ctx.mk_get(s, 1), b);
            // with_field rebuilds with the replacement in place.
            let c = ctx.mk_var(Sort::Bool);
            let s2 = ctx.mk_with(s, 1, c);
            assert_eq!(ctx.mk_get(s2, 0), a);
            assert_eq!(ctx.mk_get(s2, 1), c);
        });
    }

    #[test]
    fn defaults_are_zero_values() {
        reset_ctx();
        with_ctx(|ctx| {
            let d = ctx.mk_default(Sort::bv(32));
            assert_eq!(ctx.eval_const(d), Value::int(Sort::bv(32), 0));
            let d = ctx.mk_default(Sort::Bool);
            assert_eq!(ctx.eval_const(d), Value::Bool(false));
        });
    }

    #[test]
    fn hash_consing_dedups() {
        reset_ctx();
        with_ctx(|ctx| {
            let x = ctx.mk_var(Sort::bv(8));
            let y = ctx.mk_var(Sort::bv(8));
            let e1 = ctx.mk_bv(Bv2::Add, x, y);
            let e2 = ctx.mk_bv(Bv2::Add, x, y);
            let e3 = ctx.mk_bv(Bv2::Add, y, x); // commutative canonicalization
            assert_eq!(e1, e2);
            assert_eq!(e1, e3);
        });
    }

    #[test]
    #[should_panic(expected = "sorts must match")]
    fn sort_mismatch_panics() {
        reset_ctx();
        with_ctx(|ctx| {
            let a = ctx.mk_int(Sort::bv(8), 1);
            let b = ctx.mk_int(Sort::bv(16), 1);
            ctx.mk_bv(Bv2::Add, a, b);
        });
    }
}
