//! The thread-local expression context.
//!
//! All expressions built through the `Zen<T>` frontend are interned here.
//! Each thread owns one context, so `Zen<T>` handles are `Copy` but not
//! `Send` — they are indices into this thread's arena. This mirrors the C#
//! implementation's use of a global hash-consing table while staying
//! idiomatic in Rust (no locks on the hot path).

use std::cell::RefCell;

use rzen_bdd::FastHashMap;

use crate::ir::Expr;
use crate::sorts::{Sort, StructId, StructInfo, StructKey};

/// The expression arena, struct-sort registry, and variable table for one
/// thread. Access it through [`with_ctx`]; most users never touch it
/// directly — the `Zen<T>` API does.
pub struct Context {
    pub(crate) exprs: Vec<Expr>,
    pub(crate) sorts_of: Vec<Sort>,
    pub(crate) const_flags: Vec<bool>,
    pub(crate) cons: FastHashMap<Expr, u32>,
    /// Hash-cons lookups so far, hits included.
    pub(crate) interns: u64,
    pub(crate) structs: Vec<StructInfo>,
    pub(crate) struct_keys: Vec<StructKey>,
    pub(crate) struct_index: FastHashMap<StructKey, StructId>,
    pub(crate) var_sorts: Vec<Sort>,
    /// Whether eager constant folding and algebraic simplification are
    /// applied at node creation. On by default; the `fold_ablation` bench
    /// turns it off to measure its effect.
    pub fold: bool,
}

impl Context {
    fn new() -> Self {
        Context {
            exprs: Vec::new(),
            sorts_of: Vec::new(),
            const_flags: Vec::new(),
            cons: FastHashMap::default(),
            interns: 0,
            structs: Vec::new(),
            struct_keys: Vec::new(),
            struct_index: FastHashMap::default(),
            var_sorts: Vec::new(),
            fold: true,
        }
    }

    /// Register a struct sort under a key, or return the existing id if the
    /// key was registered before. The layout must match on re-registration.
    pub fn register_struct(&mut self, key: StructKey, info: StructInfo) -> StructId {
        if let Some(id) = self.struct_id(&key) {
            debug_assert_eq!(
                self.structs[id.0 as usize].fields, info.fields,
                "struct key re-registered with a different layout"
            );
            return id;
        }
        let id = StructId(self.structs.len() as u32);
        self.structs.push(info);
        self.struct_keys.push(key.clone());
        self.struct_index.insert(key, id);
        id
    }

    /// The id registered under `key`, if any. Hot registration paths ask
    /// this first, so a repeat registration builds no [`StructInfo`].
    pub(crate) fn struct_id(&self, key: &StructKey) -> Option<StructId> {
        self.struct_index.get(key).copied()
    }

    /// Layout of a registered struct sort.
    pub fn struct_info(&self, id: StructId) -> &StructInfo {
        &self.structs[id.0 as usize]
    }

    /// The key under which a struct sort was registered (reveals whether it
    /// is a list, option, tuple, or user type).
    pub fn struct_key(&self, id: StructId) -> &StructKey {
        &self.struct_keys[id.0 as usize]
    }

    /// Total number of primitive bits in a sort when flattened (used by the
    /// solver backends).
    pub fn sort_bits(&self, sort: Sort) -> u32 {
        match sort {
            Sort::Bool => 1,
            Sort::BitVec { width, .. } => width as u32,
            Sort::Struct(id) => {
                let field_sorts: Vec<Sort> =
                    self.struct_info(id).fields.iter().map(|f| f.1).collect();
                field_sorts.into_iter().map(|s| self.sort_bits(s)).sum()
            }
        }
    }

    /// Number of interned expressions (diagnostics).
    pub fn num_exprs(&self) -> usize {
        self.exprs.len()
    }

    /// Number of hash-cons lookups, hits included, since the context was
    /// created or reset (diagnostics: `num_interns() - num_exprs()` is the
    /// work spent re-finding nodes that already existed).
    pub fn num_interns(&self) -> u64 {
        self.interns
    }

    /// Number of allocated symbolic variables (diagnostics).
    pub fn num_vars(&self) -> usize {
        self.var_sorts.len()
    }
}

thread_local! {
    static CTX: RefCell<Context> = RefCell::new(Context::new());
}

/// Run a closure with exclusive access to this thread's context.
///
/// The closure must not call back into any `rzen` API that itself uses the
/// context (all public frontend operations are leaf operations, so this
/// only matters if you work with the context directly).
pub fn with_ctx<R>(f: impl FnOnce(&mut Context) -> R) -> R {
    CTX.with(|c| f(&mut c.borrow_mut()))
}

/// Discard the entire thread-local context: all expressions, variables,
/// and struct registrations.
///
/// Every outstanding `Zen<T>` handle on this thread is invalidated — using
/// one afterwards is a logic error (it will panic or silently refer to a
/// different expression). Intended for long-running processes and benchmark
/// loops that build many independent models and would otherwise grow the
/// arena without bound.
pub fn reset_ctx() {
    CTX.with(|c| *c.borrow_mut() = Context::new());
}

/// Enable or disable eager folding (see [`Context::fold`]); returns the
/// previous setting.
pub fn set_folding(on: bool) -> bool {
    with_ctx(|ctx| std::mem::replace(&mut ctx.fold, on))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_registration_is_idempotent() {
        reset_ctx();
        let info = || StructInfo {
            name: "Pair".into(),
            fields: vec![("a".into(), Sort::bv(8)), ("b".into(), Sort::Bool)],
        };
        let (id1, id2) = with_ctx(|ctx| {
            (
                ctx.register_struct(StructKey::Named("pair".into()), info()),
                ctx.register_struct(StructKey::Named("pair".into()), info()),
            )
        });
        assert_eq!(id1, id2);
    }

    #[test]
    fn sort_bits_flattens() {
        reset_ctx();
        with_ctx(|ctx| {
            let inner = ctx.register_struct(
                StructKey::Named("inner".into()),
                StructInfo {
                    name: "Inner".into(),
                    fields: vec![("x".into(), Sort::bv(32)), ("f".into(), Sort::Bool)],
                },
            );
            let outer = ctx.register_struct(
                StructKey::Named("outer".into()),
                StructInfo {
                    name: "Outer".into(),
                    fields: vec![
                        ("i".into(), Sort::Struct(inner)),
                        ("y".into(), Sort::bv(16)),
                    ],
                },
            );
            assert_eq!(ctx.sort_bits(Sort::Struct(outer)), 32 + 1 + 16);
            assert_eq!(ctx.sort_bits(Sort::Bool), 1);
        });
    }

    #[test]
    fn reset_clears_everything() {
        with_ctx(|ctx| {
            ctx.mk_bool(true);
        });
        reset_ctx();
        assert_eq!(with_ctx(|ctx| ctx.num_exprs()), 0);
    }
}
