//! Variable renaming (simultaneous variable-to-variable substitution).
//!
//! Renaming moves a relation between *slots*: the fixed-point solver keeps,
//! say, a summary relation over the canonical parameter variables and renames
//! it onto the variables of a quantified instance at application sites.
//!
//! The implementation is a vector compose: at each node the substituted
//! variable is re-introduced with `ite`, which is correct for **any**
//! injective map — including order-reversing maps and swaps — not just
//! monotone ones. Monotone maps (the common case here, thanks to interleaved
//! allocation) degenerate to a cheap single pass.

use crate::hasher::FxHashMap;
use crate::manager::{Bdd, Manager, Var};

/// A simultaneous variable-to-variable substitution.
///
/// Build one with [`VarMap::new`]; apply it with [`Manager::rename`].
///
/// # Example
///
/// ```
/// use getafix_bdd::{Manager, VarMap};
/// let mut m = Manager::new();
/// let x = m.new_var();
/// let y = m.new_var();
/// let fx = m.var(x);
/// let map = VarMap::new([(x, y)]);
/// let fy = m.rename(fx, &map);
/// assert_eq!(fy, m.var(y));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarMap {
    /// Sorted by source level; sources unique.
    pairs: Vec<(u32, u32)>,
}

impl VarMap {
    /// Creates a map sending each `(from, to)` pair's `from` to `to`.
    ///
    /// Identity pairs are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a source or target variable occurs twice (the substitution
    /// must be a partial injection).
    pub fn new<I: IntoIterator<Item = (Var, Var)>>(pairs: I) -> Self {
        let mut v: Vec<(u32, u32)> =
            pairs.into_iter().filter(|(a, b)| a != b).map(|(a, b)| (a.0, b.0)).collect();
        v.sort_unstable();
        for w in v.windows(2) {
            assert_ne!(w[0].0, w[1].0, "VarMap: duplicate source variable v{}", w[0].0);
        }
        let mut targets: Vec<u32> = v.iter().map(|&(_, b)| b).collect();
        targets.sort_unstable();
        for w in targets.windows(2) {
            assert_ne!(w[0], w[1], "VarMap: duplicate target variable v{}", w[0]);
        }
        VarMap { pairs: v }
    }

    /// The inverse substitution (targets become sources).
    pub fn inverse(&self) -> VarMap {
        let mut pairs: Vec<(u32, u32)> = self.pairs.iter().map(|&(a, b)| (b, a)).collect();
        pairs.sort_unstable();
        VarMap { pairs }
    }

    /// Is this the identity substitution?
    pub fn is_identity(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The image of `v` under the substitution (identity if unmapped).
    pub fn apply(&self, v: Var) -> Var {
        match self.pairs.binary_search_by_key(&v.0, |&(a, _)| a) {
            Ok(i) => Var(self.pairs[i].1),
            Err(_) => v,
        }
    }

    /// Iterates over the non-identity `(from, to)` pairs in source order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Var)> + '_ {
        self.pairs.iter().map(|&(a, b)| (Var(a), Var(b)))
    }

    pub(crate) fn key(&self) -> &[(u32, u32)] {
        &self.pairs
    }
}

impl Manager {
    /// Applies the substitution `map` to `f`.
    pub fn rename(&mut self, f: Bdd, map: &VarMap) -> Bdd {
        if map.is_identity() || f.is_const() {
            return f;
        }
        let id = self.intern_map(map);
        self.rename_rec(f, map, id)
    }

    /// Convenience wrapper: rename with an ad-hoc pair list.
    pub fn rename_pairs(&mut self, f: Bdd, pairs: &[(Var, Var)]) -> Bdd {
        let map = VarMap::new(pairs.iter().copied());
        self.rename(f, &map)
    }

    fn rename_rec(&mut self, f: Bdd, map: &VarMap, id: u32) -> Bdd {
        if f.is_const() {
            return f;
        }
        // Renaming commutes with complement, so the cache only ever stores
        // regular handles; the parity is re-applied outside.
        let c = f.0 & 1;
        let g = Bdd(f.0 ^ c);
        if let Some(r) = self.caches.rename_get(g, id) {
            return Bdd(r.0 ^ c);
        }
        let var = self.level(g);
        let (g0, g1) = self.cof(g);
        let lo = self.rename_rec(g0, map, id);
        let hi = self.rename_rec(g1, map, id);
        let target = map.apply(Var(var));
        let r = if target.0 == var && target.0 < self.level(lo).min(self.level(hi)) {
            self.mk(var, lo, hi)
        } else {
            let tv = self.var(target);
            self.ite(tv, hi, lo)
        };
        self.caches.rename_put(g, id, r);
        Bdd(r.0 ^ c)
    }

    /// The fused image operation `∃ cube. rename(f, map) ∧ g`.
    ///
    /// Relation application is exactly this shape: a stored relation is
    /// renamed from its formal columns onto argument/scratch columns,
    /// constrained by equalities `g`, and the scratch columns are
    /// quantified away. Fusing the three steps never materializes the
    /// renamed intermediate when the substitution is order-preserving on
    /// `f`'s support — the common case under interleaved allocation. An
    /// order-scrambling map falls back to [`Manager::rename`] followed by
    /// [`Manager::and_exists`], so the result is identical either way.
    /// With an empty cube there is nothing to fuse: the call is a plain
    /// [`Manager::rename`] conjoined with `g`, and skips the map's
    /// monotonicity check.
    pub fn rename_and_exists(&mut self, f: Bdd, map: &VarMap, g: Bdd, cube: Bdd) -> Bdd {
        debug_assert!(self.is_cube(cube), "rename_and_exists: last argument must be a cube");
        if cube.is_true() {
            let r = self.rename(f, map);
            return self.and(r, g);
        }
        if map.is_identity() {
            return self.and_exists(f, g, cube);
        }
        if !self.map_is_monotone_on(f, map) {
            let r = self.rename(f, map);
            return self.and_exists(r, g, cube);
        }
        let id = self.intern_map(map);
        self.rename_and_exists_rec(f, map, id, g, cube)
    }

    /// Is `map` strictly order-preserving over the support of `f` (so a
    /// source-order traversal of `f` visits target levels in order)?
    fn map_is_monotone_on(&self, f: Bdd, map: &VarMap) -> bool {
        let mut last: Option<u32> = None;
        for v in self.support(f) {
            let t = map.apply(v).0;
            if last.is_some_and(|p| t <= p) {
                return false;
            }
            last = Some(t);
        }
        true
    }

    fn rename_and_exists_rec(
        &mut self,
        f: Bdd,
        map: &VarMap,
        id: u32,
        g: Bdd,
        mut cube: Bdd,
    ) -> Bdd {
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() {
            return self.exists(g, cube);
        }
        if g.is_true() {
            let r = self.rename_rec(f, map, id);
            return self.exists(r, cube);
        }
        // `f`'s effective level is its root variable *after* renaming;
        // monotonicity of the map on f's support keeps the traversal
        // consistent with the target order.
        let ftop = map.apply(Var(self.level(f))).0;
        let top = ftop.min(self.level(g));
        while !cube.is_true() && self.level(cube) < top {
            cube = self.hi(cube);
        }
        if cube.is_true() {
            let r = self.rename_rec(f, map, id);
            return self.and(r, g);
        }
        if let Some(r) = self.caches.rename_and_exists_get(f, id, g, cube) {
            return r;
        }
        let (f0, f1) = if ftop == top { self.cof(f) } else { (f, f) };
        let (g0, g1) = self.cof_at(g, top);
        let r = if self.level(cube) == top {
            let rest = self.hi(cube);
            let lo = self.rename_and_exists_rec(f0, map, id, g0, rest);
            if lo.is_true() {
                Bdd::TRUE
            } else {
                let hi = self.rename_and_exists_rec(f1, map, id, g1, rest);
                self.or(lo, hi)
            }
        } else {
            let lo = self.rename_and_exists_rec(f0, map, id, g0, cube);
            let hi = self.rename_and_exists_rec(f1, map, id, g1, cube);
            self.mk(top, lo, hi)
        };
        self.caches.rename_and_exists_put(f, id, g, cube, r);
        r
    }

    /// Interns a map so renames can be cached by a stable small id.
    fn intern_map(&mut self, map: &VarMap) -> u32 {
        if let Some(&id) = self.map_registry.get(map.key()) {
            return id;
        }
        let id = u32::try_from(self.map_registry.len()).expect("more than 2^32 rename maps");
        self.map_registry.insert(map.key().to_vec(), id);
        id
    }
}

/// Registry type stored on the manager (see `manager.rs`).
pub(crate) type MapRegistry = FxHashMap<Vec<(u32, u32)>, u32>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_literal() {
        let mut m = Manager::new();
        let x = m.new_var();
        let y = m.new_var();
        let fx = m.var(x);
        let map = VarMap::new([(x, y)]);
        let got = m.rename(fx, &map);
        let want = m.var(y);
        assert_eq!(got, want);
    }

    #[test]
    fn rename_monotone_block() {
        // (x0 ∧ ¬x1) renamed to (x2 ∧ ¬x3)
        let mut m = Manager::new();
        let v = m.new_vars(4);
        let a = m.var(v[0]);
        let nb = m.nvar(v[1]);
        let f = m.and(a, nb);
        let map = VarMap::new([(v[0], v[2]), (v[1], v[3])]);
        let got = m.rename(f, &map);
        let c = m.var(v[2]);
        let nd = m.nvar(v[3]);
        let want = m.and(c, nd);
        assert_eq!(got, want);
    }

    #[test]
    fn rename_swap() {
        // Swapping variables must work even though it is not monotone.
        let mut m = Manager::new();
        let v = m.new_vars(2);
        let a = m.var(v[0]);
        let nb = m.nvar(v[1]);
        let f = m.and(a, nb); // x ∧ ¬y
        let map = VarMap::new([(v[0], v[1]), (v[1], v[0])]);
        let got = m.rename(f, &map); // y ∧ ¬x
        let b = m.var(v[1]);
        let na = m.nvar(v[0]);
        let want = m.and(b, na);
        assert_eq!(got, want);
    }

    #[test]
    fn rename_reversing() {
        // Order-reversing map across three variables.
        let mut m = Manager::new();
        let v = m.new_vars(6);
        let f = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            let c = m.var(v[2]);
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        let map = VarMap::new([(v[0], v[5]), (v[1], v[4]), (v[2], v[3])]);
        let got = m.rename(f, &map);
        let want = {
            let a = m.var(v[5]);
            let b = m.var(v[4]);
            let c = m.var(v[3]);
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        assert_eq!(got, want);
    }

    #[test]
    fn rename_roundtrip() {
        let mut m = Manager::new();
        let v = m.new_vars(4);
        let f = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            m.xor(a, b)
        };
        let map = VarMap::new([(v[0], v[2]), (v[1], v[3])]);
        let g = m.rename(f, &map);
        let back = m.rename(g, &map.inverse());
        assert_eq!(back, f);
    }

    #[test]
    fn identity_map_is_noop() {
        let mut m = Manager::new();
        let v = m.new_vars(2);
        let a = m.var(v[0]);
        let map = VarMap::new([(v[0], v[0])]);
        assert!(map.is_identity());
        assert_eq!(m.rename(a, &map), a);
    }

    #[test]
    fn rename_and_exists_matches_unfused() {
        // ∃s. rename(f)[x→s] ∧ (s = y)  ==  f with x renamed to y.
        let mut m = Manager::new();
        let v = m.new_vars(6);
        let f = {
            let a = m.var(v[0]);
            let b = m.nvar(v[1]);
            m.and(a, b)
        };
        // Monotone map v0→v2, v1→v3 (the fused fast path).
        let map = VarMap::new([(v[0], v[2]), (v[1], v[3])]);
        let eqs = {
            let a2 = m.var(v[2]);
            let a4 = m.var(v[4]);
            let e1 = m.iff(a2, a4);
            let a3 = m.var(v[3]);
            let a5 = m.var(v[5]);
            let e2 = m.iff(a3, a5);
            m.and(e1, e2)
        };
        let cube = m.cube(&[v[2], v[3]]);
        let fused = m.rename_and_exists(f, &map, eqs, cube);
        let renamed = m.rename(f, &map);
        let unfused = m.and_exists(renamed, eqs, cube);
        assert_eq!(fused, unfused);
    }

    #[test]
    fn rename_and_exists_scrambled_map_falls_back() {
        // An order-reversing map must still produce the unfused result.
        let mut m = Manager::new();
        let v = m.new_vars(5);
        let f = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            m.xor(a, b)
        };
        let map = VarMap::new([(v[0], v[3]), (v[1], v[2])]);
        let g = m.var(v[4]);
        let cube = m.cube(&[v[3]]);
        let fused = m.rename_and_exists(f, &map, g, cube);
        let renamed = m.rename(f, &map);
        let unfused = m.and_exists(renamed, g, cube);
        assert_eq!(fused, unfused);
    }

    #[test]
    fn rename_and_exists_with_an_empty_cube_is_rename_and() {
        // Nothing to quantify: the call is `rename(f) ∧ g`, for monotone
        // and order-reversing maps alike, and a plain rename when g = ⊤.
        let mut m = Manager::new();
        let v = m.new_vars(5);
        let f = {
            let a = m.var(v[0]);
            let b = m.nvar(v[1]);
            m.and(a, b)
        };
        let g = m.var(v[4]);
        for map in
            [VarMap::new([(v[0], v[2]), (v[1], v[3])]), VarMap::new([(v[0], v[3]), (v[1], v[2])])]
        {
            let renamed = m.rename(f, &map);
            let want = m.and(renamed, g);
            assert_eq!(m.rename_and_exists(f, &map, g, Bdd::TRUE), want);
            assert_eq!(m.rename_and_exists(f, &map, Bdd::TRUE, Bdd::TRUE), renamed);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate source")]
    fn duplicate_source_rejected() {
        let _ = VarMap::new([(Var(0), Var(1)), (Var(0), Var(2))]);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_target_rejected() {
        let _ = VarMap::new([(Var(0), Var(2)), (Var(1), Var(2))]);
    }
}
