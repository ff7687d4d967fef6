//! Variable renaming (simultaneous variable-to-variable substitution).
//!
//! Renaming moves a relation between *slots*: the fixed-point solver keeps,
//! say, a summary relation over the canonical parameter variables and renames
//! it onto the variables of a quantified instance at application sites.
//!
//! The implementation is a vector compose: at each node the substituted
//! variable is re-introduced with `ite`, which is correct for **any**
//! injective map — including order-reversing maps and swaps — not just
//! monotone ones. Wherever the target lies above both renamed children,
//! `ite` would build exactly the node `(target, lo, hi)`, so the node is
//! made directly; a monotone map therefore degenerates to a cheap single
//! pass that never touches the ITE cache.
//!
//! # Fusion is decided by the map
//!
//! [`Manager::rename_and_exists`] renames, conjoins and quantifies in one
//! traversal when the substitution is *strictly order-preserving*: a
//! source-order walk of the relation then meets the targets in order too.
//! [`VarMap::new`] decides that once, from the pairs themselves, identity
//! pairs included, in the same pass that sorts them — no call walks the
//! relation's support to find out. The caller's side of the bargain is
//! that the relation's support lies within the map's sources (an identity
//! pair names a source that stays put), which the solver's allocation plan
//! keeps by listing every formal column and ordering each channel so its
//! applications preserve order.

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
    /// Sorted by source level; sources unique; identity pairs dropped.
    pairs: Vec<(u32, u32)>,
    /// Do the pairs, identity pairs included, send sources in increasing
    /// order to targets in strictly increasing order?
    order_preserving: bool,
    /// Every source, identity pairs included, sorted: the domain
    /// [`Manager::rename_and_exists`] checks its argument's support against
    /// in debug builds.
    #[cfg(debug_assertions)]
    sources: Vec<u32>,
}

impl VarMap {
    /// Creates a map sending each `(from, to)` pair's `from` to `to`.
    ///
    /// Identity pairs drop out of the substitution but still count as
    /// sources: they decide, with the others, whether the map is
    /// [order-preserving](VarMap::is_order_preserving), and they belong to
    /// the domain [`Manager::rename_and_exists`] requires its relation's
    /// support to lie within.
    ///
    /// # Panics
    ///
    /// Panics if a source variable occurs twice, or a target variable
    /// occurs twice among the non-identity pairs (the substitution must be
    /// a partial injection).
    pub fn new<I: IntoIterator<Item = (Var, Var)>>(pairs: I) -> Self {
        let mut v: Vec<(u32, u32)> = pairs.into_iter().map(|(a, b)| (a.0, b.0)).collect();
        v.sort_unstable();
        for w in v.windows(2) {
            assert_ne!(w[0].0, w[1].0, "VarMap: duplicate source variable v{}", w[0].0);
        }
        let order_preserving = v.windows(2).all(|w| w[0].1 < w[1].1);
        #[cfg(debug_assertions)]
        let sources = v.iter().map(|&(a, _)| a).collect();
        v.retain(|(a, b)| a != b);
        let mut targets: Vec<u32> = v.iter().map(|&(_, b)| b).collect();
        targets.sort_unstable();
        for w in targets.windows(2) {
            assert_ne!(w[0], w[1], "VarMap: duplicate target variable v{}", w[0]);
        }
        VarMap {
            pairs: v,
            order_preserving,
            #[cfg(debug_assertions)]
            sources,
        }
    }

    /// The inverse substitution (targets become sources). The inverse of a
    /// strictly monotone map is strictly monotone, and of any other map is
    /// not, so the order flag carries over.
    pub fn inverse(&self) -> VarMap {
        let mut pairs: Vec<(u32, u32)> = self.pairs.iter().map(|&(a, b)| (b, a)).collect();
        pairs.sort_unstable();
        #[cfg(debug_assertions)]
        let sources = {
            let mut s: Vec<u32> = self.sources.iter().map(|&v| self.apply(Var(v)).0).collect();
            s.sort_unstable();
            s
        };
        VarMap {
            pairs,
            order_preserving: self.order_preserving,
            #[cfg(debug_assertions)]
            sources,
        }
    }

    /// Is this the identity substitution?
    pub fn is_identity(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Does the map send its sources, identity pairs included, to targets
    /// in the same strict order? Decided once, in [`VarMap::new`]; it is
    /// what lets [`Manager::rename_and_exists`] fuse.
    pub fn is_order_preserving(&self) -> bool {
        self.order_preserving
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
        // A target above both renamed children makes `mk` the canonical
        // node `ite(target, hi, lo)` would build, without the ITE cache or
        // the literal `var(target)`.
        let target = map.apply(Var(var)).0;
        let r = if target < self.level(lo).min(self.level(hi)) {
            self.mk(target, lo, hi)
        } else {
            let tv = self.var(Var(target));
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
    /// quantified away. With an empty cube there is nothing to fuse: the
    /// call is a plain [`Manager::rename`] conjoined with `g`. Otherwise it
    /// fuses exactly when `map` is
    /// [order-preserving](VarMap::is_order_preserving), a flag the map
    /// computed when it was built: the three steps then run as one
    /// traversal that never materializes the renamed intermediate. Any
    /// other map falls back to [`Manager::rename`] followed by
    /// [`Manager::and_exists`], so the result is identical either way;
    /// [`ManagerStats::rename_fallbacks`] counts those calls.
    ///
    /// Precondition: `f`'s support lies within the map's sources, identity
    /// pairs included — the order flag speaks for those variables only.
    /// Debug builds assert it; release builds never walk `f`'s support.
    ///
    /// [`ManagerStats::rename_fallbacks`]: crate::ManagerStats::rename_fallbacks
    pub fn rename_and_exists(&mut self, f: Bdd, map: &VarMap, g: Bdd, cube: Bdd) -> Bdd {
        debug_assert!(self.is_cube(cube), "rename_and_exists: last argument must be a cube");
        #[cfg(debug_assertions)]
        for v in self.support(f) {
            assert!(
                map.sources.binary_search(&v.0).is_ok(),
                "rename_and_exists: v{} is in the relation's support but not a map source",
                v.0
            );
        }
        if cube.is_true() {
            let r = self.rename(f, map);
            return self.and(r, g);
        }
        if map.is_identity() {
            return self.and_exists(f, g, cube);
        }
        if !map.is_order_preserving() {
            self.stats.rename_fallbacks += 1;
            let r = self.rename(f, map);
            return self.and_exists(r, g, cube);
        }
        let id = self.intern_map(map);
        self.rename_and_exists_rec(f, map, id, g, cube)
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

    /// The order flag counts identity pairs: `v0→v3, v1→v1, v2→v5` keeps
    /// the order of its non-identity pairs, but a source-order walk of `f`
    /// would meet `v3` before the unmoved `v1`. The call must fall back,
    /// count it, and still equal `rename` then `and_exists`.
    #[test]
    fn an_out_of_order_identity_pair_falls_back() {
        let mut m = Manager::new();
        let v = m.new_vars(6);
        let f = {
            let (a, b, c) = (m.var(v[0]), m.var(v[1]), m.var(v[2]));
            let ab = m.xor(a, b);
            let bc = m.and(b, c);
            m.or(ab, bc)
        };
        let map = VarMap::new([(v[0], v[3]), (v[1], v[1]), (v[2], v[5])]);
        assert!(!map.is_order_preserving());
        assert!(!map.inverse().is_order_preserving());
        let g = {
            let (d, e) = (m.var(v[3]), m.var(v[4]));
            m.iff(d, e)
        };
        let cube = m.cube(&[v[3]]);
        let before = m.stats().rename_fallbacks;
        let fused = m.rename_and_exists(f, &map, g, cube);
        assert_eq!(m.stats().rename_fallbacks, before + 1);
        let renamed = m.rename(f, &map);
        let unfused = m.and_exists(renamed, g, cube);
        assert_eq!(fused, unfused);
    }

    /// An order-preserving map with identity pairs fuses, and so does its
    /// inverse; nothing is counted.
    #[test]
    fn an_order_preserving_map_with_identity_pairs_fuses() {
        let mut m = Manager::new();
        let v = m.new_vars(6);
        let f = {
            let (a, b, c) = (m.var(v[0]), m.var(v[2]), m.var(v[4]));
            let ab = m.xor(a, b);
            m.and(ab, c)
        };
        let map = VarMap::new([(v[0], v[1]), (v[2], v[2]), (v[4], v[5])]);
        assert!(map.is_order_preserving());
        assert!(map.inverse().is_order_preserving());
        let g = m.nvar(v[3]);
        let cube = m.cube(&[v[1], v[3]]);
        let fused = m.rename_and_exists(f, &map, g, cube);
        assert_eq!(m.stats().rename_fallbacks, 0);
        let renamed = m.rename(f, &map);
        let unfused = m.and_exists(renamed, g, cube);
        assert_eq!(fused, unfused);
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
