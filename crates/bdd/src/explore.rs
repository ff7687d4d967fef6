//! Model enumeration and DAG exploration: satisfying cubes, shortest
//! witnesses, node counting and support computation.
//!
//! All walks here are complement-edge-agnostic: they traverse through the
//! parity-applying cofactor accessors ([`Manager::lo`], [`Manager::hi`]),
//! so a path through a complemented edge sees exactly the cofactors of the
//! *function*, not of the stored node. Node-counting walks, by contrast,
//! deliberately ignore the complement bit — `f` and `¬f` share a DAG, and
//! the honest memory footprint counts each arena node once.

use crate::manager::{Bdd, Manager, Var};

/// Reusable visited-set for DAG walks, keyed by arena index.
///
/// A dense bitset plus a scratch stack: membership tests are one shift and
/// mask (no hashing), and repeat calls reuse the buffers — clearing is a
/// `memset` over exactly the words a walk can touch, and no allocation
/// happens once the buffers have grown to the arena size.
#[derive(Debug, Default)]
pub(crate) struct VisitSet {
    words: Vec<u64>,
    stack: Vec<u32>,
}

impl VisitSet {
    /// Prepares for a walk over an arena of `nodes` entries: clears (and,
    /// if needed, grows) the bitset.
    fn begin(&mut self, nodes: usize) {
        let w = nodes.div_ceil(64);
        if self.words.len() < w {
            self.words.clear();
            self.words.resize(w, 0);
        } else {
            self.words[..w].fill(0);
        }
        self.stack.clear();
    }

    /// Marks arena index `idx` visited; returns whether it was new.
    #[inline]
    fn insert(&mut self, idx: u32) -> bool {
        let w = (idx >> 6) as usize;
        let bit = 1u64 << (idx & 63);
        let new = self.words[w] & bit == 0;
        self.words[w] |= bit;
        new
    }
}

/// Iterator over the satisfying *cubes* of a BDD.
///
/// Each item is a partial assignment — the variables actually tested on one
/// root-to-TRUE path. Variables absent from a cube may take either value.
///
/// # Ordering guarantees
///
/// * **Within a cube** the `(Var, bool)` pairs appear in ascending *level*
///   order (the manager's variable order), top of the diagram first.
/// * **Across cubes** the iterator yields root-to-TRUE paths in depth-first
///   order taking the 0-branch before the 1-branch at every node, i.e.
///   cubes come out in lexicographic order of their branch choices along
///   the variable order. Two different cubes are disjoint as sets of
///   models (they diverge at the first node where their paths split).
/// * The union of the yielded cubes covers exactly the satisfying
///   assignments of the function.
///
/// These guarantees are stated over the *function*, independent of the
/// complement-edge encoding: branch directions are those of the parity-
/// applied cofactors, so the same function yields the same cube sequence
/// whether its handle happens to be complemented or not.
///
/// Produced by [`Manager::cubes`].
///
/// # Example
///
/// ```
/// use getafix_bdd::Manager;
/// let mut m = Manager::new();
/// let x = m.new_var();
/// let y = m.new_var();
/// let fx = m.var(x);
/// let fy = m.var(y);
/// let f = m.or(fx, fy);
/// let cubes: Vec<_> = m.cubes(f).collect();
/// assert_eq!(cubes.len(), 2); // paths: x=0,y=1 and x=1
/// ```
#[derive(Debug)]
pub struct CubeIter<'a> {
    manager: &'a Manager,
    /// DFS stack of (node, path-so-far).
    stack: Vec<(Bdd, Vec<(Var, bool)>)>,
}

impl<'a> Iterator for CubeIter<'a> {
    type Item = Vec<(Var, bool)>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, path)) = self.stack.pop() {
            if node.is_true() {
                return Some(path);
            }
            if node.is_false() {
                continue;
            }
            let v = self.manager.root_var(node).expect("non-terminal");
            let lo = self.manager.lo(node);
            let hi = self.manager.hi(node);
            // Push hi first so lo (the 0-branch) is yielded first: cubes come
            // out in lexicographic order of the tested variables.
            let mut hi_path = path.clone();
            hi_path.push((v, true));
            self.stack.push((hi, hi_path));
            let mut lo_path = path;
            lo_path.push((v, false));
            self.stack.push((lo, lo_path));
        }
        None
    }
}

impl Manager {
    /// Iterates over the satisfying cubes of `f` (root-to-TRUE paths).
    pub fn cubes(&self, f: Bdd) -> CubeIter<'_> {
        CubeIter { manager: self, stack: vec![(f, Vec::new())] }
    }

    /// Picks a single *shortest* satisfying cube of `f`: a partial
    /// assignment with the fewest tested variables among all root-to-TRUE
    /// paths (ties broken toward the 0-branch). Variables absent from the
    /// cube may take either value; filling them arbitrarily yields a model.
    ///
    /// Returns `None` iff `f` is unsatisfiable. Pairs are in ascending
    /// level order, like [`Manager::cubes`].
    ///
    /// # Example
    ///
    /// ```
    /// use getafix_bdd::Manager;
    /// let mut m = Manager::new();
    /// let x = m.new_var();
    /// let y = m.new_var();
    /// let z = m.new_var();
    /// // f = (x ∧ y) ∨ (x ∧ z). The two root-to-TRUE paths are
    /// // {x=1, y=1} and {x=1, y=0, z=1}; the shorter one wins.
    /// let f = {
    ///     let (fx, fy, fz) = (m.var(x), m.var(y), m.var(z));
    ///     let xy = m.and(fx, fy);
    ///     let xz = m.and(fx, fz);
    ///     m.or(xy, xz)
    /// };
    /// assert_eq!(m.sat_one(f), Some(vec![(x, true), (y, true)]));
    /// assert_eq!(m.sat_one(m.constant(false)), None);
    /// assert_eq!(m.sat_one(m.constant(true)), Some(vec![]));
    /// ```
    pub fn sat_one(&self, f: Bdd) -> Option<Vec<(Var, bool)>> {
        if f.is_false() {
            return None;
        }
        // DP over the DAG: depth(handle) = length of its shortest path to
        // TRUE (∞ when TRUE is unreachable). Keyed on the full handle —
        // with complement edges, `f` and `¬f` reach TRUE along different
        // paths even though they share nodes.
        let mut depth: crate::hasher::FxHashMap<u32, usize> = crate::hasher::FxHashMap::default();
        fn measure(m: &Manager, f: Bdd, depth: &mut crate::hasher::FxHashMap<u32, usize>) -> usize {
            if f.is_true() {
                return 0;
            }
            if f.is_false() {
                return usize::MAX;
            }
            if let Some(&d) = depth.get(&f.index()) {
                return d;
            }
            let lo = measure(m, m.lo(f), depth);
            let hi = measure(m, m.hi(f), depth);
            let d = lo.min(hi).saturating_add(1);
            depth.insert(f.index(), d);
            d
        }
        measure(self, f, &mut depth);
        // Walk greedily along the shortest side; prefer lo on ties.
        let mut cube = Vec::new();
        let mut cur = f;
        while !cur.is_true() {
            let v = self.root_var(cur).expect("non-terminal");
            let (lo, hi) = (self.lo(cur), self.hi(cur));
            let d = |n: Bdd| -> usize {
                if n.is_true() {
                    0
                } else if n.is_false() {
                    usize::MAX
                } else {
                    depth[&n.index()]
                }
            };
            if d(lo) <= d(hi) {
                cube.push((v, false));
                cur = lo;
            } else {
                cube.push((v, true));
                cur = hi;
            }
        }
        Some(cube)
    }

    /// The number of nodes in the DAG rooted at `f` (terminal included).
    ///
    /// With complement edges a function and its negation share every node,
    /// so `node_count(f) == node_count(¬f)`.
    pub fn node_count(&self, f: Bdd) -> usize {
        self.node_count_many(std::slice::from_ref(&f))
    }

    /// The number of distinct DAG nodes reachable from any of `roots`
    /// (shared structure counted once, the terminal included). This is the
    /// honest memory footprint of a *set* of functions — summing
    /// [`Manager::node_count`] per root would double-count shared subgraphs.
    ///
    /// Visited nodes are tracked in a reusable bitset keyed by arena index:
    /// O(1) per node with no hashing, and zero allocation on repeat calls
    /// once the scratch buffers have grown to the arena size.
    pub fn node_count_many(&self, roots: &[Bdd]) -> usize {
        let mut visit = self.visit.borrow_mut();
        visit.begin(self.nodes.len());
        let mut count = 0usize;
        for r in roots {
            let i = r.node_index();
            if visit.insert(i) {
                count += 1;
                if i > 0 {
                    visit.stack.push(i);
                }
            }
        }
        while let Some(i) = visit.stack.pop() {
            let n = self.nodes[i as usize];
            for edge in [n.lo, n.hi] {
                let j = edge >> 1;
                if visit.insert(j) {
                    count += 1;
                    if j > 0 {
                        visit.stack.push(j);
                    }
                }
            }
        }
        count
    }

    /// The set of variables appearing in `f`, in increasing level order.
    pub fn support(&self, f: Bdd) -> Vec<Var> {
        let mut visit = self.visit.borrow_mut();
        visit.begin(self.nodes.len());
        let mut vars = std::collections::BTreeSet::new();
        let i = f.node_index();
        if i > 0 && visit.insert(i) {
            visit.stack.push(i);
        }
        while let Some(i) = visit.stack.pop() {
            let n = self.nodes[i as usize];
            vars.insert(n.var);
            for edge in [n.lo, n.hi] {
                let j = edge >> 1;
                if j > 0 && visit.insert(j) {
                    visit.stack.push(j);
                }
            }
        }
        vars.into_iter().map(Var).collect()
    }

    /// Enumerates *total* satisfying assignments of `f` over the variables
    /// `vars`, expanding the don't-cares in each cube.
    ///
    /// Intended for tests and tiny relations; the result can be exponential.
    pub fn all_models(&self, f: Bdd, vars: &[Var]) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        for cube in self.cubes(f) {
            let fixed: std::collections::HashMap<u32, bool> =
                cube.iter().map(|&(v, b)| (v.0, b)).collect();
            let free: Vec<usize> = vars
                .iter()
                .enumerate()
                .filter(|(_, v)| !fixed.contains_key(&v.0))
                .map(|(i, _)| i)
                .collect();
            let mut base: Vec<bool> =
                vars.iter().map(|v| fixed.get(&v.0).copied().unwrap_or(false)).collect();
            let combos = 1usize << free.len();
            for bits in 0..combos {
                for (j, &idx) in free.iter().enumerate() {
                    base[idx] = (bits >> j) & 1 == 1;
                }
                out.push(base.clone());
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubes_of_constants() {
        let m = Manager::new();
        assert_eq!(m.cubes(Bdd::FALSE).count(), 0);
        let cubes: Vec<_> = m.cubes(Bdd::TRUE).collect();
        assert_eq!(cubes, vec![Vec::new()]);
    }

    #[test]
    fn cubes_cover_exactly_the_models() {
        let mut m = Manager::new();
        let v = m.new_vars(3);
        // f = (v0 ∧ v1) ∨ ¬v2  — check via all_models against eval.
        let f = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            let ab = m.and(a, b);
            let nc = m.nvar(v[2]);
            m.or(ab, nc)
        };
        let models = m.all_models(f, &v);
        let mut expect = Vec::new();
        for bits in 0..8u32 {
            let a = [(bits & 1) == 1, (bits & 2) == 2, (bits & 4) == 4];
            if m.eval(f, &a) {
                expect.push(a.to_vec());
            }
        }
        expect.sort();
        assert_eq!(models, expect);
    }

    #[test]
    fn sat_one_is_shortest_and_satisfying() {
        let mut m = Manager::new();
        let v = m.new_vars(4);
        // f = (v0 ∧ v1 ∧ v2) ∨ (v1 ∧ v3) ∨ v2 — shortest cube is {v2 = 1}.
        let f = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            let c = m.var(v[2]);
            let d = m.var(v[3]);
            let ab = m.and(a, b);
            let abc = m.and(ab, c);
            let bd = m.and(b, d);
            let x = m.or(abc, bd);
            m.or(x, c)
        };
        let cube = m.sat_one(f).expect("satisfiable");
        // Every cube of the function has ≥ 1 literal; ours must be minimal
        // across all cubes the iterator yields.
        let min = m.cubes(f).map(|c| c.len()).min().unwrap();
        assert_eq!(cube.len(), min);
        // Filling don't-cares with false is a model.
        let mut env = vec![false; 4];
        for &(var, val) in &cube {
            env[var.level() as usize] = val;
        }
        assert!(m.eval(f, &env));
    }

    #[test]
    fn model_count_matches_sat_count() {
        let mut m = Manager::new();
        let v = m.new_vars(4);
        let f = {
            let a = m.var(v[0]);
            let b = m.var(v[1]);
            let c = m.var(v[2]);
            let x = m.xor(a, b);
            m.or(x, c)
        };
        let models = m.all_models(f, &v);
        assert_eq!(models.len() as f64, m.sat_count(f, 4));
    }

    #[test]
    fn support_and_node_count() {
        let mut m = Manager::new();
        let a = m.new_var();
        let _skip = m.new_var();
        let c = m.new_var();
        let fa = m.var(a);
        let fc = m.var(c);
        let f = m.and(fa, fc);
        assert_eq!(m.support(f), vec![a, c]);
        // nodes: a-node, c-node and the shared terminal (complement edges
        // collapse TRUE and FALSE onto one node).
        assert_eq!(m.node_count(f), 3);
        // A function and its complement share the whole DAG.
        let nf = m.not(f);
        assert_eq!(m.node_count(nf), 3);
        assert_eq!(m.node_count_many(&[f, nf]), 3);
    }

    #[test]
    fn node_count_reuses_scratch_without_allocating() {
        let mut m = Manager::new();
        let v = m.new_vars(6);
        let mut f = Bdd::FALSE;
        for &var in &v {
            let a = m.var(var);
            f = m.xor(f, a);
        }
        let first = m.node_count(f);
        // Repeat calls must agree (the bitset is cleared correctly) and
        // walk the same DAG.
        for _ in 0..10 {
            assert_eq!(m.node_count(f), first);
        }
        let g = m.var(v[0]);
        assert_eq!(m.node_count(g), 2);
        assert_eq!(m.node_count(f), first);
    }
}
