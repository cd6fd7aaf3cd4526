//! The [`ZenType`] trait: rzen's substitute for the C# implementation's
//! runtime reflection.
//!
//! The paper's Zen "uses the reflection capabilities of C# to introspect
//! the types of objects at runtime" (§6). Rust has no runtime reflection,
//! so each modelable type describes itself through this trait: its sort,
//! conversions to and from concrete [`Value`]s, and how to build a fresh
//! symbolic instance. `zen_struct!` implements it for user structs;
//! implementations for primitives, options, tuples, and bounded lists live
//! here.

use crate::ctx::with_ctx;
use crate::ir::ExprId;
use crate::sorts::{Sort, StructId, StructInfo, StructKey};
use crate::value::Value;

/// A Rust type that can be modeled in the Zen language.
pub trait ZenType: Clone + 'static {
    /// The sort of this type. `bound` is the number of element slots given
    /// to each list in the type (ignored by list-free types); it plays the
    /// role of the paper's "optional parameter to the Find function" that
    /// controls the maximum list length.
    fn sort(bound: u16) -> Sort;

    /// Convert a concrete value into the IR value representation. Lists
    /// use exactly as many slots as they have elements.
    fn to_value(&self) -> Value;

    /// Read a concrete value back from the IR representation (e.g. a
    /// decoded solver model).
    fn from_value(v: &Value) -> Self;

    /// Build a fresh symbolic instance: a tree of structs over fresh
    /// primitive variables, with lists canonicalized (slots beyond the
    /// length hold defaults).
    fn make_symbolic(bound: u16) -> ExprId;

    /// Build a fresh *raw* symbolic instance: a pure struct-of-variables
    /// tree with no canonicalization guards, so that variable bits align
    /// positionally with the sort's flattened value bits. This is the
    /// representation used by state-set transformers, which operate on raw
    /// bit spaces (like HSA's header spaces).
    fn make_raw_symbolic(bound: u16) -> ExprId;
}

/// A fixed-width integer primitive usable with arithmetic operators and
/// order comparisons.
pub trait ZenInt: ZenType + Copy {
    /// The bitvector sort of this type.
    const SORT: Sort;

    /// Raw bits of the value (two's complement for signed types).
    fn to_bits(self) -> u64;

    /// Reconstruct from raw bits.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! int_impl {
    ($t:ty, $width:expr, $signed:expr) => {
        impl ZenType for $t {
            fn sort(_bound: u16) -> Sort {
                <$t as ZenInt>::SORT
            }
            fn to_value(&self) -> Value {
                Value::int(<$t as ZenInt>::SORT, ZenInt::to_bits(*self))
            }
            fn from_value(v: &Value) -> Self {
                <$t as ZenInt>::from_bits(v.as_bits())
            }
            fn make_symbolic(_bound: u16) -> ExprId {
                with_ctx(|ctx| ctx.mk_var(<$t as ZenInt>::SORT))
            }
            fn make_raw_symbolic(_bound: u16) -> ExprId {
                with_ctx(|ctx| ctx.mk_var(<$t as ZenInt>::SORT))
            }
        }
        impl ZenInt for $t {
            const SORT: Sort = Sort::BitVec {
                width: $width,
                signed: $signed,
            };
            fn to_bits(self) -> u64 {
                self as u64
            }
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    };
}

int_impl!(u8, 8, false);
int_impl!(u16, 16, false);
int_impl!(u32, 32, false);
int_impl!(u64, 64, false);
int_impl!(i8, 8, true);
int_impl!(i16, 16, true);
int_impl!(i32, 32, true);
int_impl!(i64, 64, true);

impl ZenType for bool {
    fn sort(_bound: u16) -> Sort {
        Sort::Bool
    }
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn from_value(v: &Value) -> Self {
        v.as_bool()
    }
    fn make_symbolic(_bound: u16) -> ExprId {
        with_ctx(|ctx| ctx.mk_var(Sort::Bool))
    }
    fn make_raw_symbolic(_bound: u16) -> ExprId {
        with_ctx(|ctx| ctx.mk_var(Sort::Bool))
    }
}

/// Register (or look up) the option struct sort for a payload sort.
pub(crate) fn option_struct_id(payload: Sort) -> StructId {
    with_ctx(|ctx| {
        let key = StructKey::Option(payload);
        if let Some(id) = ctx.struct_id(&key) {
            return id;
        }
        let info = StructInfo {
            name: "Option".into(),
            fields: vec![("has".into(), Sort::Bool), ("val".into(), payload)],
        };
        ctx.register_struct(key, info)
    })
}

impl<T: ZenType> ZenType for Option<T> {
    fn sort(bound: u16) -> Sort {
        Sort::Struct(option_struct_id(T::sort(bound)))
    }
    fn to_value(&self) -> Value {
        match self {
            Some(v) => {
                let val = v.to_value();
                let id = option_struct_id(val.sort());
                Value::Struct(id, vec![Value::Bool(true), val])
            }
            None => {
                // Payload defaults to the zero value of the bound-0 sort;
                // unification pads it when mixed with larger list sorts.
                let payload = T::sort(0);
                let id = option_struct_id(payload);
                let dflt = with_ctx(|ctx| {
                    let e = ctx.mk_default(payload);
                    ctx.eval_const(e)
                });
                Value::Struct(id, vec![Value::Bool(false), dflt])
            }
        }
    }
    fn from_value(v: &Value) -> Self {
        let fs = v.fields();
        if fs[0].as_bool() {
            Some(T::from_value(&fs[1]))
        } else {
            None
        }
    }
    fn make_symbolic(bound: u16) -> ExprId {
        // Recursive calls happen before taking the context borrow: the
        // context is a thread-local RefCell and must not be re-entered.
        let payload_sort = T::sort(bound);
        let id = option_struct_id(payload_sort);
        let val_sym = T::make_symbolic(bound);
        with_ctx(|ctx| {
            let has = ctx.mk_var(Sort::Bool);
            // Canonicity: the payload is the default unless `has` holds.
            let dflt = ctx.mk_default(payload_sort);
            let val = ctx.mk_if(has, val_sym, dflt);
            ctx.mk_struct(id, vec![has, val])
        })
    }
    fn make_raw_symbolic(bound: u16) -> ExprId {
        let payload_sort = T::sort(bound);
        let id = option_struct_id(payload_sort);
        let val = T::make_raw_symbolic(bound);
        with_ctx(|ctx| {
            let has = ctx.mk_var(Sort::Bool);
            ctx.mk_struct(id, vec![has, val])
        })
    }
}

/// Register (or look up) the tuple struct sort for component sorts.
pub(crate) fn tuple_sort(sorts: &[Sort]) -> Sort {
    with_ctx(|ctx| {
        let fields = sorts
            .iter()
            .enumerate()
            .map(|(i, &s)| (format!("item{}", i + 1), s))
            .collect();
        let id = ctx.register_struct(
            StructKey::Tuple(sorts.to_vec()),
            StructInfo {
                name: format!("Tuple{}", sorts.len()),
                fields,
            },
        );
        Sort::Struct(id)
    })
}

macro_rules! tuple_impl {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: ZenType),+> ZenType for ($($name,)+) {
            fn sort(bound: u16) -> Sort {
                tuple_sort(&[$($name::sort(bound)),+])
            }
            fn to_value(&self) -> Value {
                let vals = vec![$(self.$idx.to_value()),+];
                let sorts: Vec<Sort> = vals.iter().map(|v| v.sort()).collect();
                let Sort::Struct(id) = tuple_sort(&sorts) else { unreachable!() };
                Value::Struct(id, vals)
            }
            fn from_value(v: &Value) -> Self {
                let fs = v.fields();
                ($($name::from_value(&fs[$idx]),)+)
            }
            fn make_symbolic(bound: u16) -> ExprId {
                let fields = vec![$($name::make_symbolic(bound)),+];
                let Sort::Struct(id) = Self::sort(bound) else { unreachable!() };
                with_ctx(|ctx| ctx.mk_struct(id, fields))
            }
            fn make_raw_symbolic(bound: u16) -> ExprId {
                let fields = vec![$($name::make_raw_symbolic(bound)),+];
                let Sort::Struct(id) = Self::sort(bound) else { unreachable!() };
                with_ctx(|ctx| ctx.mk_struct(id, fields))
            }
        }
    };
}

tuple_impl!(A: 0, B: 1);
tuple_impl!(A: 0, B: 1, C: 2);
tuple_impl!(A: 0, B: 1, C: 2, D: 3);

/// Register (or look up) the list struct sort for an element sort and slot
/// count. Layout: `{ len: u16, e0..e{slots-1}: elem }`.
pub(crate) fn list_struct_id(elem: Sort, slots: u16) -> StructId {
    with_ctx(|ctx| {
        let mut fields = vec![("len".to_string(), Sort::bv(16))];
        for i in 0..slots {
            fields.push((format!("e{i}"), elem));
        }
        ctx.register_struct(
            StructKey::List(elem, slots),
            StructInfo {
                name: format!("List[{slots}]"),
                fields,
            },
        )
    })
}

/// If `sort` is a list sort, its element sort and slot count.
pub(crate) fn list_sort_parts(sort: Sort) -> Option<(Sort, u16)> {
    let Sort::Struct(id) = sort else { return None };
    with_ctx(|ctx| match ctx.struct_key(id) {
        StructKey::List(elem, slots) => Some((*elem, *slots)),
        _ => None,
    })
}

impl<T: ZenType> ZenType for Vec<T> {
    fn sort(bound: u16) -> Sort {
        Sort::Struct(list_struct_id(T::sort(bound), bound))
    }
    fn to_value(&self) -> Value {
        let vals: Vec<Value> = self.iter().map(|v| v.to_value()).collect();
        // All element values must share one sort: unify by padding any
        // nested lists to the maximum slot count seen.
        let elem_sort = crate::lang::unify::unify_value_sorts(&vals, || T::sort(0));
        let vals: Vec<Value> = vals
            .iter()
            .map(|v| crate::lang::unify::coerce_value(v, elem_sort))
            .collect();
        let slots = vals.len() as u16;
        let id = list_struct_id(elem_sort, slots);
        let mut fields = vec![Value::int(Sort::bv(16), slots as u64)];
        fields.extend(vals);
        Value::Struct(id, fields)
    }
    fn from_value(v: &Value) -> Self {
        let fs = v.fields();
        let len = (fs[0].as_bits() as usize).min(fs.len() - 1);
        fs[1..=len].iter().map(T::from_value).collect()
    }
    fn make_symbolic(bound: u16) -> ExprId {
        let elem_sort = T::sort(bound);
        let elems: Vec<ExprId> = (0..bound).map(|_| T::make_symbolic(bound)).collect();
        with_ctx(|ctx| {
            let id = list_struct_id_raw(ctx, elem_sort, bound);
            let len_var = ctx.mk_var(Sort::bv(16));
            // Canonical length: clamp to the slot count.
            let bound_c = ctx.mk_int(Sort::bv(16), bound as u64);
            let le = ctx.mk_cmp(crate::ir::CmpOp::Le, len_var, bound_c);
            let len = ctx.mk_if(le, len_var, bound_c);
            // Canonical slots: defaults beyond the length.
            let mut fields = vec![len];
            for (i, &e) in elems.iter().enumerate() {
                let idx = ctx.mk_int(Sort::bv(16), i as u64);
                let valid = ctx.mk_cmp(crate::ir::CmpOp::Lt, idx, len);
                let dflt = ctx.mk_default(elem_sort);
                fields.push(ctx.mk_if(valid, e, dflt));
            }
            ctx.mk_struct(id, fields)
        })
    }
    fn make_raw_symbolic(bound: u16) -> ExprId {
        let elem_sort = T::sort(bound);
        let elems: Vec<ExprId> = (0..bound).map(|_| T::make_raw_symbolic(bound)).collect();
        with_ctx(|ctx| {
            let id = list_struct_id_raw(ctx, elem_sort, bound);
            let mut fields = vec![ctx.mk_var(Sort::bv(16))];
            fields.extend(elems);
            ctx.mk_struct(id, fields)
        })
    }
}

/// Like [`list_struct_id`] but callable while already holding the context.
pub(crate) fn list_struct_id_raw(
    ctx: &mut crate::ctx::Context,
    elem: Sort,
    slots: u16,
) -> StructId {
    let mut fields = vec![("len".to_string(), Sort::bv(16))];
    for i in 0..slots {
        fields.push((format!("e{i}"), elem));
    }
    ctx.register_struct(
        StructKey::List(elem, slots),
        StructInfo {
            name: format!("List[{slots}]"),
            fields,
        },
    )
}
