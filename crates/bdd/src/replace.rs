//! Variable replacement (renaming) — the "BDD substitution operation" of
//! the paper's §6.
//!
//! rzen allocates separate variable blocks for the input and output spaces of
//! a state-set transformer, and converts sets between blocks at runtime with
//! [`BddManager::replace`]. When the mapping preserves variable order (the
//! common case: blocks are interleaved), renaming is a linear-time recursive
//! rewrite; otherwise it falls back to the general quantification-based
//! substitution `∃src. f ∧ ⋀ᵢ (srcᵢ ↔ dstᵢ)`.

use crate::manager::{Bdd, BddManager, Op};

/// An interned variable mapping. Obtain one from [`BddManager::varmap`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VarMap(pub(crate) u32);

impl BddManager {
    /// Intern a variable mapping given as (source, target) pairs. Variables
    /// not mentioned map to themselves. Sources must be distinct.
    pub fn varmap(&mut self, pairs: &[(u32, u32)]) -> VarMap {
        let max = pairs
            .iter()
            .flat_map(|&(s, t)| [s, t])
            .max()
            .map_or(0, |m| m + 1);
        let mut table: Vec<u32> = (0..max).collect();
        for &(src, dst) in pairs {
            assert_eq!(
                table[src as usize], src,
                "duplicate source variable {src} in varmap"
            );
            table[src as usize] = dst;
        }
        if let Some(&id) = self.varmap_index.get(&table) {
            return VarMap(id);
        }
        let id = self.varmaps.len() as u32;
        self.varmaps.push(table.clone());
        self.varmap_index.insert(table, id);
        VarMap(id)
    }

    #[inline]
    fn map_var(&self, m: VarMap, v: u32) -> u32 {
        let t = &self.varmaps[m.0 as usize];
        t.get(v as usize).copied().unwrap_or(v)
    }

    /// Rename the variables of `f` according to `map`.
    ///
    /// Targets of non-identity entries must not occur in the support of `f`
    /// (renaming into occupied variables is ambiguous); this is checked in
    /// debug builds.
    pub fn replace(&mut self, f: Bdd, map: VarMap) -> Bdd {
        let support = self.support(f);
        debug_assert!(
            {
                let targets: Vec<u32> = support
                    .iter()
                    .filter(|&&v| self.map_var(map, v) != v)
                    .map(|&v| self.map_var(map, v))
                    .collect();
                targets.iter().all(|t| !support.contains(t))
            },
            "replace target overlaps support"
        );
        // Fast path: the mapping is order-preserving on the support.
        let monotone = support
            .windows(2)
            .all(|w| self.map_var(map, w[0]) < self.map_var(map, w[1]));
        if monotone {
            return Bdd(self.replace_rec(f.0, map));
        }
        // General path: substitution by constrain-and-quantify.
        let mut constraint = crate::manager::BDD_TRUE;
        let mut sources = Vec::new();
        for &v in &support {
            let t = self.map_var(map, v);
            if t != v {
                sources.push(v);
                let sv = self.var(v);
                let tv = self.var(t);
                let eq = self.iff(sv, tv);
                constraint = self.and(constraint, eq);
            }
        }
        let cube = self.cube(&sources);
        self.and_exists(f, constraint, cube)
    }

    fn replace_rec(&mut self, f: u32, map: VarMap) -> u32 {
        if f <= 1 {
            return f;
        }
        if let Some(r) = self.cached(f, map.0, Op::Replace as u32) {
            return r;
        }
        let n = self.node(f);
        let lo = self.replace_rec(n.lo, map);
        let hi = self.replace_rec(n.hi, map);
        let v = self.map_var(map, n.var);
        let r = self.mk(v, lo, hi);
        self.remember(f, map.0, Op::Replace as u32, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_single_var() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let map = m.varmap(&[(0, 1)]);
        assert_eq!(m.replace(x, map), y);
    }

    #[test]
    fn rename_shift_block() {
        let mut m = BddManager::new();
        // interleaved blocks: evens are inputs, odds outputs.
        let x0 = m.var(0);
        let x2 = m.var(2);
        let f = m.and(x0, x2);
        let map = m.varmap(&[(0, 1), (2, 3)]);
        let y1 = m.var(1);
        let y3 = m.var(3);
        let expect = m.and(y1, y3);
        assert_eq!(m.replace(f, map), expect);
    }

    #[test]
    fn identity_map_is_noop() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.xor(x, y);
        let map = m.varmap(&[]);
        assert_eq!(m.replace(f, map), f);
    }

    #[test]
    fn non_monotone_rename_falls_back() {
        let mut m = BddManager::new();
        // f over vars {0,1}; swap-like rename to {3,2}: 0->3, 1->2 is not
        // order preserving (0<1 but 3>2).
        let x = m.var(0);
        let y = m.var(1);
        m.var(2);
        m.var(3);
        // f = x ∧ ¬y
        let ny = m.not(y);
        let f = m.and(x, ny);
        let map = m.varmap(&[(0, 3), (1, 2)]);
        let g = m.replace(f, map);
        // expected: var3 ∧ ¬var2
        let v3 = m.var(3);
        let v2 = m.var(2);
        let nv2 = m.not(v2);
        let expect = m.and(v3, nv2);
        assert_eq!(g, expect);
    }

    #[test]
    fn replace_preserves_sat_count() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.or(x, y);
        let map = m.varmap(&[(0, 4), (1, 5)]);
        let g = m.replace(f, map);
        assert_eq!(m.sat_count(f, 2), m.sat_count_over(g, &[4, 5]));
    }
}
