//! Quantification: `∃`, `∀` and the fused relational product `∃x. f ∧ g`.
//!
//! Variable sets are passed as *cubes* — conjunctions of positive literals —
//! built with [`Manager::cube`]. Cubes are ordinary BDDs, so they are
//! hash-consed and make excellent cache keys.

use crate::manager::{Bdd, Manager, Var};

impl Manager {
    /// Builds the positive cube `v₀ ∧ v₁ ∧ …` over `vars`.
    ///
    /// The variable list may be in any order and may contain duplicates.
    pub fn cube(&mut self, vars: &[Var]) -> Bdd {
        let mut sorted: Vec<Var> = vars.to_vec();
        sorted.sort();
        sorted.dedup();
        // Build bottom-up so each mk call respects the order invariant.
        let mut acc = Bdd::TRUE;
        for v in sorted.into_iter().rev() {
            acc = self.mk(v.0, Bdd::FALSE, acc);
        }
        acc
    }

    /// Existential quantification `∃ vars. f` with `vars` given as a cube.
    pub fn exists(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        debug_assert!(self.is_cube(cube), "exists: second argument must be a positive cube");
        self.exists_rec(f, cube)
    }

    /// Existential quantification over a single variable.
    pub fn exists_one(&mut self, f: Bdd, v: Var) -> Bdd {
        let cube = self.cube(&[v]);
        self.exists(f, cube)
    }

    /// Universal quantification `∀ vars. f`, via `¬∃ vars. ¬f`.
    pub fn forall(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        let nf = self.not(f);
        let e = self.exists(nf, cube);
        self.not(e)
    }

    /// The relational product `∃ cube. f ∧ g`, fused so the conjunction is
    /// never fully materialized. This is the workhorse of every symbolic
    /// fixed-point step (image computation).
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, cube: Bdd) -> Bdd {
        debug_assert!(self.is_cube(cube), "and_exists: third argument must be a positive cube");
        self.and_exists_rec(f, g, cube)
    }

    fn exists_rec(&mut self, f: Bdd, mut cube: Bdd) -> Bdd {
        if f.is_const() || cube.is_true() {
            return f;
        }
        let fl = self.level(f);
        // Skip quantified variables that can no longer occur in f.
        while !cube.is_true() && self.level(cube) < fl {
            cube = self.hi(cube);
        }
        if cube.is_true() {
            return f;
        }
        if let Some(r) = self.caches.exists_get(f, cube) {
            return r;
        }
        let (f0, f1) = self.cof(f);
        let r = if fl == self.level(cube) {
            let rest = self.hi(cube);
            let lo = self.exists_rec(f0, rest);
            if lo.is_true() {
                // Short-circuit: lo ∨ hi is already TRUE.
                Bdd::TRUE
            } else {
                let hi = self.exists_rec(f1, rest);
                self.or(lo, hi)
            }
        } else {
            let lo = self.exists_rec(f0, cube);
            let hi = self.exists_rec(f1, cube);
            self.mk(fl, lo, hi)
        };
        self.caches.exists_put(f, cube, r);
        r
    }

    fn and_exists_rec(&mut self, mut f: Bdd, mut g: Bdd, mut cube: Bdd) -> Bdd {
        // Terminal rules for the conjunction.
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() && g.is_true() {
            return Bdd::TRUE;
        }
        if f.0 ^ 1 == g.0 {
            // f ∧ ¬f under any quantification is still false.
            return Bdd::FALSE;
        }
        if f.is_true() {
            return self.exists_rec(g, cube);
        }
        if g.is_true() || f == g {
            return self.exists_rec(f, cube);
        }
        if cube.is_true() {
            return self.and(f, g);
        }
        if f.0 > g.0 {
            std::mem::swap(&mut f, &mut g);
        }
        let top = self.level(f).min(self.level(g));
        while !cube.is_true() && self.level(cube) < top {
            cube = self.hi(cube);
        }
        if cube.is_true() {
            return self.and(f, g);
        }
        if let Some(r) = self.caches.and_exists_get(f, g, cube) {
            return r;
        }
        let (f0, f1) = self.cof_at(f, top);
        let (g0, g1) = self.cof_at(g, top);
        let r = if self.level(cube) == top {
            let rest = self.hi(cube);
            let lo = self.and_exists_rec(f0, g0, rest);
            if lo.is_true() {
                Bdd::TRUE
            } else {
                let hi = self.and_exists_rec(f1, g1, rest);
                self.or(lo, hi)
            }
        } else {
            let lo = self.and_exists_rec(f0, g0, cube);
            let hi = self.and_exists_rec(f1, g1, cube);
            self.mk(top, lo, hi)
        };
        self.caches.and_exists_put(f, g, cube, r);
        r
    }

    /// Builds the mixed-polarity literal cube `l₀ ∧ l₁ ∧ …` where `lᵢ` is
    /// `v` or `¬v` per the paired boolean. Duplicates are allowed when
    /// consistent; contradictory literals yield [`Bdd::FALSE`].
    pub fn literal_cube(&mut self, literals: &[(Var, bool)]) -> Bdd {
        let mut sorted: Vec<(Var, bool)> = literals.to_vec();
        sorted.sort();
        sorted.dedup();
        for w in sorted.windows(2) {
            if w[0].0 == w[1].0 {
                return Bdd::FALSE; // v ∧ ¬v
            }
        }
        let mut acc = Bdd::TRUE;
        for (v, positive) in sorted.into_iter().rev() {
            acc = if positive {
                self.mk(v.0, Bdd::FALSE, acc)
            } else {
                self.mk(v.0, acc, Bdd::FALSE)
            };
        }
        acc
    }

    /// The generalized cofactor of `f` by a (mixed-polarity) literal
    /// `cube`, built with [`Manager::literal_cube`]: every variable the
    /// cube constrains is fixed to its literal's polarity and removed —
    /// equal to chaining [`Manager::restrict`] per literal, but a single
    /// traversal with a single cache entry, which is what the witness
    /// extractor's configuration-pinning hot path wants.
    pub fn restrict_cube(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        debug_assert!(self.is_literal_cube(cube), "restrict_cube: not a literal cube");
        if cube.is_false() {
            // A contradictory cube constrains nothing meaningfully; treat
            // it as the empty restriction of FALSE.
            return Bdd::FALSE;
        }
        self.restrict_cube_rec(f, cube)
    }

    /// Per-pair convenience wrapper over [`Manager::restrict_cube`].
    pub fn restrict_many(&mut self, f: Bdd, fixed: &[(Var, bool)]) -> Bdd {
        let cube = self.literal_cube(fixed);
        self.restrict_cube(f, cube)
    }

    fn restrict_cube_rec(&mut self, f: Bdd, mut cube: Bdd) -> Bdd {
        if f.is_const() || cube.is_true() {
            return f;
        }
        // Skip cube literals above f's root: they constrain variables f no
        // longer tests.
        let fl = self.level(f);
        while !cube.is_true() && self.level(cube) < fl {
            let (lo, hi) = self.cof(cube);
            cube = if lo.is_false() { hi } else { lo };
        }
        if cube.is_true() {
            return f;
        }
        // Restriction commutes with complement: cache regular handles only.
        let c = f.parity();
        let g = Bdd(f.0 ^ c);
        if let Some(r) = self.caches.cofactor_get(g, cube) {
            return Bdd(r.0 ^ c);
        }
        let (g0, g1) = self.cof(g);
        let r = if fl == self.level(cube) {
            let (clo, chi) = self.cof(cube);
            if clo.is_false() {
                self.restrict_cube_rec(g1, chi)
            } else {
                self.restrict_cube_rec(g0, clo)
            }
        } else {
            let lo = self.restrict_cube_rec(g0, cube);
            let hi = self.restrict_cube_rec(g1, cube);
            self.mk(fl, lo, hi)
        };
        self.caches.cofactor_put(g, cube, r);
        Bdd(r.0 ^ c)
    }

    /// Is `f` a literal cube (every node has a FALSE cofactor, ending in
    /// TRUE — polarities arbitrary)? Used in debug assertions.
    pub fn is_literal_cube(&self, f: Bdd) -> bool {
        if f.is_false() {
            return true; // contradictory cube
        }
        let mut cur = f;
        while !cur.is_const() {
            let (lo, hi) = self.cof(cur);
            cur = match (lo.is_false(), hi.is_false()) {
                (true, _) => hi,
                (_, true) => lo,
                _ => return false,
            };
        }
        cur.is_true()
    }

    /// Is `f` a positive cube (every node's low cofactor is FALSE, ending
    /// in TRUE)? Used in debug assertions.
    pub fn is_cube(&self, f: Bdd) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let (lo, hi) = self.cof(cur);
            if lo != Bdd::FALSE {
                return false;
            }
            cur = hi;
        }
        cur.is_true()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (Manager, Vec<Var>) {
        let mut m = Manager::new();
        let vars = m.new_vars(n);
        (m, vars)
    }

    #[test]
    fn cube_structure() {
        let (mut m, v) = setup(3);
        let c = m.cube(&[v[2], v[0]]);
        assert!(m.is_cube(c));
        assert_eq!(m.support(c), vec![v[0], v[2]]);
        // Duplicates are fine.
        let c2 = m.cube(&[v[0], v[2], v[0]]);
        assert_eq!(c, c2);
        assert_eq!(m.cube(&[]), Bdd::TRUE);
    }

    #[test]
    fn exists_removes_var() {
        let (mut m, v) = setup(2);
        let fa = m.var(v[0]);
        let fb = m.var(v[1]);
        let f = m.and(fa, fb);
        let e = m.exists_one(f, v[1]);
        assert_eq!(e, fa);
        let both = m.cube(&[v[0], v[1]]);
        let e2 = m.exists(f, both);
        assert!(e2.is_true());
    }

    #[test]
    fn exists_or_distributes() {
        // ∃x.(f ∨ g) == (∃x.f) ∨ (∃x.g)
        let (mut m, v) = setup(3);
        let f = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            m.and(a, b)
        };
        let g = {
            let b = m.nvar(v[1]);
            let c = m.var(v[2]);
            m.and(b, c)
        };
        let fg = m.or(f, g);
        let left = m.exists_one(fg, v[1]);
        let ef = m.exists_one(f, v[1]);
        let eg = m.exists_one(g, v[1]);
        let right = m.or(ef, eg);
        assert_eq!(left, right);
    }

    #[test]
    fn forall_dual() {
        let (mut m, v) = setup(2);
        let fa = m.var(v[0]);
        let fb = m.var(v[1]);
        let f = m.or(fa, fb);
        // ∀b. a ∨ b == a
        let b = m.cube(&[v[1]]);
        let g = m.forall(f, b);
        assert_eq!(g, fa);
        // ∀a,b. a ∨ b == false
        let both = m.cube(&[v[0], v[1]]);
        let h = m.forall(f, both);
        assert!(h.is_false());
    }

    #[test]
    fn and_exists_matches_unfused() {
        let (mut m, v) = setup(4);
        // f = (v0 ↔ v2) ∧ v1 ; g = (v2 ∨ v3)
        let f = {
            let a = m.var(v[0]);
            let c = m.var(v[2]);
            let eq = m.iff(a, c);
            let b = m.var(v[1]);
            m.and(eq, b)
        };
        let g = {
            let c = m.var(v[2]);
            let d = m.var(v[3]);
            m.or(c, d)
        };
        let cube = m.cube(&[v[2]]);
        let fused = m.and_exists(f, g, cube);
        let conj = m.and(f, g);
        let unfused = m.exists(conj, cube);
        assert_eq!(fused, unfused);
    }

    #[test]
    fn restrict_cube_equals_chained_restricts() {
        let (mut m, v) = setup(4);
        // f = (v0 ⊕ v1) ∨ (v2 ∧ ¬v3)
        let f = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            let x = m.xor(a, b);
            let c = m.var(v[2]);
            let nd = m.nvar(v[3]);
            let cd = m.and(c, nd);
            m.or(x, cd)
        };
        for bits in 0..16u32 {
            for mask in 0..16u32 {
                let fixed: Vec<(Var, bool)> = (0..4)
                    .filter(|i| (mask >> i) & 1 == 1)
                    .map(|i| (v[i], (bits >> i) & 1 == 1))
                    .collect();
                let fused = m.restrict_many(f, &fixed);
                let mut chained = f;
                for &(var, val) in &fixed {
                    chained = m.restrict(chained, var, val);
                }
                assert_eq!(fused, chained, "mask={mask:04b} bits={bits:04b}");
            }
        }
        // Contradictory cube.
        let contradiction = m.literal_cube(&[(v[0], true), (v[0], false)]);
        assert!(contradiction.is_false());
        assert!(m.is_literal_cube(contradiction));
    }

    #[test]
    fn literal_cube_structure() {
        let (mut m, v) = setup(3);
        let c = m.literal_cube(&[(v[2], false), (v[0], true)]);
        assert!(m.is_literal_cube(c));
        assert!(!m.is_cube(c), "mixed polarity is not a positive cube");
        assert!(m.eval(c, &[true, false, false]));
        assert!(m.eval(c, &[true, true, false]));
        assert!(!m.eval(c, &[true, false, true]));
        assert!(!m.eval(c, &[false, false, false]));
        let pos = m.cube(&[v[0], v[1]]);
        assert!(m.is_literal_cube(pos), "positive cubes are literal cubes");
    }

    #[test]
    fn and_exists_terminal_cases() {
        let (mut m, v) = setup(2);
        let fa = m.var(v[0]);
        let cube = m.cube(&[v[0]]);
        assert_eq!(m.and_exists(Bdd::FALSE, fa, cube), Bdd::FALSE);
        assert_eq!(m.and_exists(fa, Bdd::TRUE, cube), Bdd::TRUE);
        let nb = m.nvar(v[1]);
        let got = m.and_exists(Bdd::TRUE, nb, cube);
        assert_eq!(got, nb);
    }
}
