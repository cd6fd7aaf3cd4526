//! Interned variable sets ("cubes") used as quantification domains.
//!
//! Quantification (`exists`, `forall`, `and_exists`) is memoized per
//! `(node, cube)` pair, so the set of quantified variables needs a stable,
//! cheap identity. The manager interns each distinct sorted variable set once
//! and hands out a small [`Cube`] id.

use crate::manager::{BddManager, Op};

/// An interned, sorted set of BDD variables, used to specify which variables
/// a quantifier eliminates. Obtain one from [`BddManager::cube`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Cube(pub(crate) u32);

impl BddManager {
    /// Intern the given variable set (duplicates are removed, order is
    /// irrelevant) and return its id.
    pub fn cube(&mut self, vars: &[u32]) -> Cube {
        let mut sorted: Vec<u32> = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(&id) = self.cube_index.get(&sorted) {
            return Cube(id);
        }
        let id = self.cubes.len() as u32;
        // `and_exists` keys its cache slots with `id | 1 << 31`, which must
        // stay below every operation tag.
        assert!(id | 1 << 31 < Op::Replace as u32, "too many cubes");
        self.cubes.push(sorted.clone());
        self.cube_index.insert(sorted, id);
        Cube(id)
    }

    /// The variables in a cube, sorted ascending.
    pub fn cube_vars(&self, c: Cube) -> &[u32] {
        &self.cubes[c.0 as usize]
    }

    pub(crate) fn cube_contains(&self, c: Cube, var: u32) -> bool {
        self.cubes[c.0 as usize].binary_search(&var).is_ok()
    }

    /// Does the cube contain any variable at or below (i.e. with index >=)
    /// the given level? Used to stop quantifier recursion early.
    pub(crate) fn cube_has_var_geq(&self, c: Cube, level: u32) -> bool {
        self.cubes[c.0 as usize]
            .last()
            .is_some_and(|&max| max >= level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_sorts() {
        let mut m = BddManager::new();
        let a = m.cube(&[3, 1, 2, 1]);
        let b = m.cube(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(m.cube_vars(a), &[1, 2, 3]);
    }

    #[test]
    fn distinct_sets_distinct_ids() {
        let mut m = BddManager::new();
        let a = m.cube(&[1, 2]);
        let b = m.cube(&[1, 3]);
        assert_ne!(a, b);
    }

    #[test]
    fn contains_and_geq() {
        let mut m = BddManager::new();
        let c = m.cube(&[2, 5, 9]);
        assert!(m.cube_contains(c, 5));
        assert!(!m.cube_contains(c, 4));
        assert!(m.cube_has_var_geq(c, 9));
        assert!(!m.cube_has_var_geq(c, 10));
        let empty = m.cube(&[]);
        assert!(!m.cube_has_var_geq(empty, 0));
    }
}
