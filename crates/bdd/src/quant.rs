//! Quantification and relational products.
//!
//! These operations are the engine behind rzen's state-set transformers:
//! `transform_forward(S) = rename(∃X. S(X) ∧ R(X,Y))` is one `and_exists`
//! (the classic pre/post *image* computation, cf. the model-checking
//! literature) followed by one `replace`.

use crate::cube::Cube;
use crate::manager::{Bdd, BddManager, Op};

impl BddManager {
    /// Existential quantification `∃ vars. f`.
    pub fn exists(&mut self, f: Bdd, vars: Cube) -> Bdd {
        let _span = rzen_obs::span!("bdd.exists", "root" => f.0);
        Bdd(self.exists_rec(f.0, vars))
    }

    /// Universal quantification `∀ vars. f`.
    pub fn forall(&mut self, f: Bdd, vars: Cube) -> Bdd {
        let _span = rzen_obs::span!("bdd.forall", "root" => f.0);
        // ∀x.f = ¬∃x.¬f
        let nf = self.not(f);
        let e = self.exists(nf, vars);
        self.not(e)
    }

    fn exists_rec(&mut self, f: u32, vars: Cube) -> u32 {
        if f <= 1 {
            return f;
        }
        let n = self.node(f);
        if !self.cube_has_var_geq(vars, n.var) {
            // No quantified variable occurs in f.
            return f;
        }
        if let Some(r) = self.cached(f, vars.0, Op::Exists as u32) {
            return r;
        }
        let lo = self.exists_rec(n.lo, vars);
        let r = if self.cube_contains(vars, n.var) {
            if lo == 1 {
                1
            } else {
                let hi = self.exists_rec(n.hi, vars);
                self.apply(Op::Or, lo, hi)
            }
        } else {
            let hi = self.exists_rec(n.hi, vars);
            self.mk(n.var, lo, hi)
        };
        self.remember(f, vars.0, Op::Exists as u32, r)
    }

    /// The relational product `∃ vars. f ∧ g`, computed in one pass without
    /// materializing the (often much larger) conjunction `f ∧ g`.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: Cube) -> Bdd {
        let _span = rzen_obs::span!("bdd.and_exists", "f" => f.0, "g" => g.0);
        Bdd(self.and_exists_rec(f.0, g.0, vars))
    }

    fn and_exists_rec(&mut self, f: u32, g: u32, vars: Cube) -> u32 {
        if f == 0 || g == 0 {
            return 0;
        }
        if f == 1 {
            return self.exists_rec(g, vars);
        }
        if g == 1 || f == g {
            return self.exists_rec(f, vars);
        }
        let (f, g) = if f < g { (f, g) } else { (g, f) };
        let var = self.node(f).var.min(self.node(g).var);
        if !self.cube_has_var_geq(vars, var) {
            return self.apply(Op::And, f, g);
        }
        // The cube id with the top bit set: never a node index, never a tag.
        let key = vars.0 | 1 << 31;
        if let Some(r) = self.cached(f, g, key) {
            return r;
        }
        let (flo, fhi) = self.cofactors(f, var);
        let (glo, ghi) = self.cofactors(g, var);
        let lo = self.and_exists_rec(flo, glo, vars);
        let r = if self.cube_contains(vars, var) {
            if lo == 1 {
                1
            } else {
                let hi = self.and_exists_rec(fhi, ghi, vars);
                self.apply(Op::Or, lo, hi)
            }
        } else {
            let hi = self.and_exists_rec(fhi, ghi, vars);
            self.mk(var, lo, hi)
        };
        self.remember(f, g, key, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{BDD_FALSE, BDD_TRUE};

    #[test]
    fn exists_removes_variable() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.and(x, y);
        let c = m.cube(&[0]);
        // ∃x. x∧y = y
        assert_eq!(m.exists(f, c), y);
    }

    #[test]
    fn exists_of_tautology_pair() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let nx = m.not(x);
        let c = m.cube(&[0]);
        // ∃x. x = true; ∃x. ¬x = true
        assert_eq!(m.exists(x, c), BDD_TRUE);
        assert_eq!(m.exists(nx, c), BDD_TRUE);
    }

    #[test]
    fn exists_unrelated_var_is_identity() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.xor(x, y);
        let c = m.cube(&[5]);
        m.var(5);
        assert_eq!(m.exists(f, c), f);
    }

    #[test]
    fn forall_dual() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.or(x, y);
        let cx = m.cube(&[0]);
        // ∀x. x∨y = y
        assert_eq!(m.forall(f, cx), y);
        // ∀x. x = false
        assert_eq!(m.forall(x, cx), BDD_FALSE);
    }

    #[test]
    fn and_exists_equals_exists_of_and() {
        let mut m = BddManager::new();
        let vars: Vec<Bdd> = (0..4).map(|i| m.var(i)).collect();
        let f = {
            let a = m.xor(vars[0], vars[1]);
            m.or(a, vars[2])
        };
        let g = {
            let b = m.and(vars[1], vars[3]);
            m.iff(b, vars[0])
        };
        let c = m.cube(&[1, 3]);
        let direct = {
            let fg = m.and(f, g);
            m.exists(fg, c)
        };
        assert_eq!(m.and_exists(f, g, c), direct);
    }

    #[test]
    fn exists_multiple_vars() {
        let mut m = BddManager::new();
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let xy = m.and(x, y);
        let f = m.and(xy, z);
        let c = m.cube(&[0, 1, 2]);
        assert_eq!(m.exists(f, c), BDD_TRUE);
        let empty = m.cube(&[]);
        assert_eq!(m.exists(f, empty), f);
    }
}
