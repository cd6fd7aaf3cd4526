//! The `zen_struct!` macro: model a Rust struct in the Zen language.
//!
//! This replaces the C# implementation's runtime reflection over object
//! fields. The macro generates the plain Rust struct, a [`crate::ZenType`]
//! implementation, an extension trait with typed field accessors on
//! `Zen<YourStruct>`, and a `create` constructor for building symbolic
//! instances — everything the paper's `Create<T>(...)`, `e.f` and
//! `e1[f:=e2]` forms provide.
//!
//! # Syntax
//!
//! The struct name is followed by the name of the generated accessor
//! trait (Rust's coherence rules forbid inherent methods on the foreign
//! type `Zen<T>`, so accessors live on a trait you bring into scope).
//! Each field line is `getter, setter : Type;`:
//!
//! ```
//! use rzen::{zen_struct, Zen};
//!
//! zen_struct! {
//!     /// An IPv4 header (paper Fig. 4).
//!     pub struct Header : HeaderFields {
//!         dst_ip, with_dst_ip: u32;
//!         src_ip, with_src_ip: u32;
//!     }
//! }
//!
//! let h = Zen::<Header>::symbolic(0);
//! let swapped = h.with_dst_ip(h.src_ip()).with_src_ip(h.dst_ip());
//! let _check: Zen<bool> = swapped.dst_ip().eq(h.src_ip());
//! ```

use std::any::TypeId;

use crate::ctx::with_ctx;
use crate::ir::ExprId;
use crate::sorts::{Sort, StructInfo, StructKey};
use crate::value::Value;

/// Implementation detail of `zen_struct!`: register (or look up) the sort
/// of a user struct with the given field sorts.
#[doc(hidden)]
pub fn __register_user_struct<T: 'static>(
    name: &str,
    field_names: &[&str],
    sorts: Vec<Sort>,
) -> Sort {
    with_ctx(|ctx| {
        let key = StructKey::Type(TypeId::of::<T>(), sorts);
        if let Some(id) = ctx.struct_id(&key) {
            return Sort::Struct(id);
        }
        let StructKey::Type(_, sorts) = &key else {
            unreachable!()
        };
        let names = field_names.iter().map(|s| s.to_string());
        let info = StructInfo {
            name: name.to_string(),
            fields: names.zip(sorts.iter().copied()).collect(),
        };
        Sort::Struct(ctx.register_struct(key, info))
    })
}

/// Implementation detail of `zen_struct!`: build a concrete struct value.
#[doc(hidden)]
pub fn __user_struct_value<T: 'static>(
    name: &str,
    field_names: &[&str],
    vals: Vec<Value>,
) -> Value {
    let sorts: Vec<Sort> = vals.iter().map(|v| v.sort()).collect();
    let Sort::Struct(id) = __register_user_struct::<T>(name, field_names, sorts) else {
        unreachable!()
    };
    Value::Struct(id, vals)
}

/// Implementation detail of `zen_struct!`: build a struct expression from
/// field expressions.
#[doc(hidden)]
pub fn __make_user_struct<T: 'static>(
    name: &str,
    field_names: &[&str],
    fields: Vec<ExprId>,
) -> ExprId {
    let sorts: Vec<Sort> = with_ctx(|ctx| fields.iter().map(|&f| ctx.sort_of(f)).collect());
    let Sort::Struct(id) = __register_user_struct::<T>(name, field_names, sorts) else {
        unreachable!()
    };
    with_ctx(|ctx| ctx.mk_struct(id, fields))
}

/// Model a Rust struct in the Zen language. See the module docs
/// for syntax and an example.
#[macro_export]
macro_rules! zen_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident : $ext:ident {
            $( $(#[$fmeta:meta])* $field:ident, $setter:ident : $ftype:ty );+ $(;)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq)]
        $vis struct $name {
            $( $(#[$fmeta])* pub $field : $ftype ),+
        }

        impl $crate::ZenType for $name {
            fn sort(bound: u16) -> $crate::Sort {
                let sorts = vec![ $( <$ftype as $crate::ZenType>::sort(bound) ),+ ];
                $crate::__register_user_struct::<$name>(
                    stringify!($name), &[ $( stringify!($field) ),+ ], sorts)
            }
            fn to_value(&self) -> $crate::Value {
                let vals = vec![ $( $crate::ZenType::to_value(&self.$field) ),+ ];
                $crate::__user_struct_value::<$name>(
                    stringify!($name), &[ $( stringify!($field) ),+ ], vals)
            }
            fn from_value(v: &$crate::Value) -> Self {
                let fs = v.fields();
                let mut it = fs.iter();
                $name {
                    $( $field : $crate::ZenType::from_value(
                        it.next().expect("missing struct field in value")) ),+
                }
            }
            fn make_symbolic(bound: u16) -> $crate::ExprId {
                let fields = vec![ $( <$ftype as $crate::ZenType>::make_symbolic(bound) ),+ ];
                $crate::__make_user_struct::<$name>(
                    stringify!($name), &[ $( stringify!($field) ),+ ], fields)
            }
            fn make_raw_symbolic(bound: u16) -> $crate::ExprId {
                let fields = vec![ $( <$ftype as $crate::ZenType>::make_raw_symbolic(bound) ),+ ];
                $crate::__make_user_struct::<$name>(
                    stringify!($name), &[ $( stringify!($field) ),+ ], fields)
            }
        }

        impl $name {
            /// Build a symbolic instance from symbolic field values (the
            /// paper's `Create<T>(...)`).
            #[allow(clippy::too_many_arguments)]
            $vis fn create( $( $field : $crate::Zen<$ftype> ),+ ) -> $crate::Zen<$name> {
                let fields = vec![ $( $field.expr_id() ),+ ];
                $crate::Zen::from_id($crate::__make_user_struct::<$name>(
                    stringify!($name), &[ $( stringify!($field) ),+ ], fields))
            }
        }

        /// Typed field accessors for the corresponding `Zen<T>` handle
        /// (generated by `zen_struct!`). Bring this trait into scope to
        /// project (`e.f`) and functionally update (`e1[f := e2]`) fields.
        $vis trait $ext {
            $(
                /// Project this field (the paper's `e.f`).
                fn $field(self) -> $crate::Zen<$ftype>;
                /// Functionally update this field (the paper's
                /// `e1[f := e2]`).
                fn $setter(self, v: $crate::Zen<$ftype>) -> $crate::Zen<$name>;
            )+
        }

        impl $ext for $crate::Zen<$name> {
            $crate::zen_struct!(@methods $name, 0u32, $( $field, $setter : $ftype ; )+);
        }
    };

    (@methods $name:ident, $idx:expr, $field:ident, $setter:ident : $ftype:ty ; $($rest:tt)* ) => {
        fn $field(self) -> $crate::Zen<$ftype> {
            self.project($idx)
        }
        fn $setter(self, v: $crate::Zen<$ftype>) -> $crate::Zen<$name> {
            self.with_field($idx, v)
        }
        $crate::zen_struct!(@methods $name, $idx + 1u32, $($rest)*);
    };

    (@methods $name:ident, $idx:expr, ) => {};
}
