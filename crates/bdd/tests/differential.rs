//! Differential tests: the complement-edge kernel vs a brute-force
//! truth-table oracle.
//!
//! Every operation — including `ite`, `restrict`, the fused
//! `rename_and_exists` image and complement parity across a garbage
//! collection — is compared against the semantics computed by enumerating
//! all assignments of a small variable pool. A second group of
//! (non-random) regression tests pins down the *ordering guarantees* of
//! [`Manager::sat_one`] and [`Manager::cubes`], which must be stated over
//! the function and therefore survive the complement-edge encoding. A
//! third group checks the kernel's bookkeeping rules: the unique table's
//! growth rebuild keeps every handle, and the peaks read at each
//! collection and in `stats()` are the true maxima of the footprint.

use getafix_bdd::{Bdd, Manager, Var, VarMap};
use proptest::prelude::*;

const NVARS: usize = 5;

/// A tiny expression language for generating test functions.
#[derive(Debug, Clone)]
enum Expr {
    Const(bool),
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self, env: &[bool]) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Var(i) => env[*i],
            Expr::Not(e) => !e.eval(env),
            Expr::And(a, b) => a.eval(env) && b.eval(env),
            Expr::Or(a, b) => a.eval(env) || b.eval(env),
            Expr::Xor(a, b) => a.eval(env) ^ b.eval(env),
        }
    }

    fn build(&self, m: &mut Manager, vars: &[Var]) -> Bdd {
        match self {
            Expr::Const(b) => m.constant(*b),
            Expr::Var(i) => m.var(vars[*i]),
            Expr::Not(e) => {
                let f = e.build(m, vars);
                m.not(f)
            }
            Expr::And(a, b) => {
                let fa = a.build(m, vars);
                let fb = b.build(m, vars);
                m.and(fa, fb)
            }
            Expr::Or(a, b) => {
                let fa = a.build(m, vars);
                let fb = b.build(m, vars);
                m.or(fa, fb)
            }
            Expr::Xor(a, b) => {
                let fa = a.build(m, vars);
                let fb = b.build(m, vars);
                m.xor(fa, fb)
            }
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![any::<bool>().prop_map(Expr::Const), (0..NVARS).prop_map(Expr::Var),];
    leaf.prop_recursive(4, 48, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

/// All assignments over `n` variables, as boolean vectors.
fn assignments_n(n: usize) -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << n)).map(move |bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect())
}

/// The truth table of `e` over `NVARS` variables, one bit per assignment.
fn truth_table(e: &Expr) -> u32 {
    let mut t = 0u32;
    for (i, env) in assignments_n(NVARS).enumerate() {
        if e.eval(&env) {
            t |= 1 << i;
        }
    }
    t
}

/// The truth table of a built BDD, read back through `eval`.
fn bdd_table(m: &Manager, f: Bdd) -> u32 {
    let mut t = 0u32;
    for (i, env) in assignments_n(NVARS).enumerate() {
        if m.eval(f, &env) {
            t |= 1 << i;
        }
    }
    t
}

/// All 2^NVARS assignment bits: with NVARS = 5 the truth table fills a
/// `u32` exactly.
const MASK: u32 = u32::MAX;

/// Restriction on truth tables: fix variable `v` to `value`.
fn tt_restrict(t: u32, v: usize, value: bool) -> u32 {
    let mut out = 0u32;
    for i in 0..(1usize << NVARS) {
        let j = if value { i | (1 << v) } else { i & !(1 << v) };
        if t & (1 << j) != 0 {
            out |= 1 << i;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every binary operation, `ite` and `restrict` agree with the
    /// truth-table oracle bit for bit.
    #[test]
    fn ops_match_truth_table_oracle(a in expr_strategy(), b in expr_strategy(),
                                    c in expr_strategy(), i in 0..NVARS,
                                    value in any::<bool>()) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let (fa, fb, fc) = (a.build(&mut m, &vars), b.build(&mut m, &vars), c.build(&mut m, &vars));
        let (ta, tb, tc) = (truth_table(&a), truth_table(&b), truth_table(&c));
        prop_assert_eq!(bdd_table(&m, fa), ta);
        let and = m.and(fa, fb);
        prop_assert_eq!(bdd_table(&m, and), ta & tb);
        let or = m.or(fa, fb);
        prop_assert_eq!(bdd_table(&m, or), ta | tb);
        let xor = m.xor(fa, fb);
        prop_assert_eq!(bdd_table(&m, xor), ta ^ tb);
        let not = m.not(fa);
        prop_assert_eq!(bdd_table(&m, not), !ta & MASK);
        let ite = m.ite(fa, fb, fc);
        prop_assert_eq!(bdd_table(&m, ite), (ta & tb) | (!ta & MASK & tc));
        let rest = m.restrict(fa, vars[i], value);
        prop_assert_eq!(bdd_table(&m, rest), tt_restrict(ta, i, value));
        let ex = m.exists_one(fa, vars[i]);
        prop_assert_eq!(
            bdd_table(&m, ex),
            tt_restrict(ta, i, false) | tt_restrict(ta, i, true)
        );
        // Fused multi-literal cofactor == iterated single restrictions.
        let j = (i + 1) % NVARS;
        let fused = m.restrict_many(fa, &[(vars[i], value), (vars[j], !value)]);
        prop_assert_eq!(
            bdd_table(&m, fused),
            tt_restrict(tt_restrict(ta, i, value), j, !value)
        );
    }

    /// The fused image `∃cube. rename(f) ∧ g` matches the truth-table
    /// oracle over the doubled variable space (sources renamed onto a
    /// disjoint block, arbitrary quantification mask).
    #[test]
    fn rename_and_exists_matches_truth_table(a in expr_strategy(), b in expr_strategy(),
                                             mask in 0u32..(1 << (2 * NVARS))) {
        let n2 = 2 * NVARS;
        let mut m = Manager::new();
        let vars = m.new_vars(n2);
        let fa = a.build(&mut m, &vars[..NVARS]);
        let fb = b.build(&mut m, &vars[NVARS..]);
        let map = VarMap::new(
            (0..NVARS).map(|i| (vars[i], vars[NVARS + i])).collect::<Vec<_>>(),
        );
        let quantified: Vec<Var> = (0..n2)
            .filter(|i| (mask >> i) & 1 == 1)
            .map(|i| vars[i])
            .collect();
        let cube = m.cube(&quantified);
        let fused = m.rename_and_exists(fa, &map, fb, cube);
        // Oracle over assignment bitmasks: conj[w] = (rename f)(w) ∧ g(w);
        // the image at `env` holds iff conj holds at env with SOME values
        // substituted into the quantified positions.
        let conj: Vec<bool> = (0..(1u32 << n2)).map(|w| {
            let target: Vec<bool> = (NVARS..n2).map(|i| (w >> i) & 1 == 1).collect();
            a.eval(&target) && b.eval(&target)
        }).collect();
        for env in 0..(1u32 << n2) {
            let base = env & !mask;
            // Enumerate all subsets of the quantified positions.
            let mut q = mask;
            let mut expected = conj[base as usize];
            while q != 0 && !expected {
                expected = conj[(base | q) as usize];
                q = (q - 1) & mask;
            }
            let env_bits: Vec<bool> = (0..n2).map(|i| (env >> i) & 1 == 1).collect();
            prop_assert_eq!(m.eval(fused, &env_bits), expected);
        }
    }

    /// Complement parity survives garbage collection: a root and its
    /// negation keep denoting complementary functions after the remap,
    /// canonicity is rebuilt, and `sat_one` still yields a model.
    #[test]
    fn complement_parity_survives_gc(e in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = e.build(&mut m, &vars);
        let nf = m.not(f);
        let t = truth_table(&e);
        let result = m.gc(&[f, nf]);
        let (f2, nf2) = (result.roots[0], result.roots[1]);
        prop_assert_eq!(bdd_table(&m, f2), t);
        prop_assert_eq!(bdd_table(&m, nf2), !t & MASK);
        prop_assert_eq!(m.not(f2), nf2, "parity bit must survive the remap");
        // Rebuilding the expression after collection must hash-cons onto
        // the survivors (the unique table was rebuilt correctly).
        let f3 = e.build(&mut m, &vars);
        prop_assert_eq!(f2, f3);
        // sat_one still extracts a model of the remapped root.
        match m.sat_one(f2) {
            None => prop_assert_eq!(t, 0),
            Some(cube) => {
                let mut env = vec![false; NVARS];
                for &(v, val) in &cube {
                    env[v.level() as usize] = val;
                }
                prop_assert!(m.eval(f2, &env));
            }
        }
    }

    /// `sat_one` ordering guarantees, property-checked: ascending level
    /// order within the cube, minimal length across all cubes, and the
    /// same answer before and after a collection.
    #[test]
    fn sat_one_guarantees_hold(e in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = e.build(&mut m, &vars);
        let before = m.sat_one(f);
        if let Some(cube) = &before {
            for w in cube.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "cube pairs must ascend by level");
            }
            let min = m.cubes(f).map(|c| c.len()).min().unwrap();
            prop_assert_eq!(cube.len(), min, "sat_one must be a shortest cube");
        }
        let result = m.gc(&[f]);
        prop_assert_eq!(m.sat_one(result.roots[0]), before);
    }

    /// CubeIter guarantees, property-checked: cubes ascend within, are
    /// pairwise disjoint, and arrive in lexicographic branch order.
    #[test]
    fn cube_iter_guarantees_hold(e in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = e.build(&mut m, &vars);
        let cubes: Vec<Vec<(Var, bool)>> = m.cubes(f).collect();
        for cube in &cubes {
            for w in cube.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "within-cube pairs must ascend by level");
            }
        }
        // Pairwise disjoint: two cubes from one BDD diverge at the first
        // level where both test the variable with opposite values.
        for (i, a) in cubes.iter().enumerate() {
            for b in cubes.iter().skip(i + 1) {
                let disjoint = a.iter().any(|&(v, va)| {
                    b.iter().any(|&(w, vb)| v == w && va != vb)
                });
                prop_assert!(disjoint, "cubes {:?} and {:?} overlap", a, b);
            }
        }
        // Depth-first 0-before-1 order: two adjacent cubes share a literal
        // prefix (their paths coincide up to the divergence node), and at
        // the first differing position the earlier cube takes the
        // 0-branch, the later one the 1-branch of the SAME variable.
        for w in cubes.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let split = a.iter().zip(b.iter()).position(|(x, y)| x != y);
            let i = split.unwrap_or_else(|| {
                panic!("adjacent cubes {a:?} and {b:?} never diverge")
            });
            prop_assert_eq!(a[i].0, b[i].0, "divergence must be at one node");
            prop_assert!(!a[i].1 && b[i].1,
                "earlier cube must take the 0-branch at the divergence");
        }
    }
}

/// Non-random regressions: the documented orderings on a complement-heavy
/// function, where a naive port of the pre-complement-edge code would walk
/// the *stored* edges instead of the parity-applied cofactors and reverse
/// branches.
#[test]
fn cube_ordering_regression_on_complemented_handle() {
    let mut m = Manager::new();
    let x = m.new_var();
    let y = m.new_var();
    let fx = m.var(x);
    let fy = m.var(y);
    let and = m.and(fx, fy);
    let f = m.not(and); // ¬(x ∧ y): a complemented handle.
    let cubes: Vec<_> = m.cubes(f).collect();
    // 0-branch first: x=0 is a full cube (¬x ⇒ true), then x=1,y=0.
    assert_eq!(cubes, vec![vec![(x, false)], vec![(x, true), (y, false)]]);
}

#[test]
fn sat_one_regression_on_complemented_handle() {
    let mut m = Manager::new();
    let v = m.new_vars(3);
    let (a, b, c) = (m.var(v[0]), m.var(v[1]), m.var(v[2]));
    let ab = m.and(a, b);
    let abc = m.and(ab, c);
    let f = m.not(abc); // ¬(a ∧ b ∧ c): shortest cube is {a = 0}.
    assert_eq!(m.sat_one(f), Some(vec![(v[0], false)]));
    // The complement's shortest cube constrains all three variables.
    let g = m.not(f);
    assert_eq!(m.sat_one(g), Some(vec![(v[0], true), (v[1], true), (v[2], true)]));
}

#[test]
fn cube_ordering_equals_pre_complement_semantics() {
    // The same function built positively and via double negation is one
    // canonical handle, so the iterator sequence is trivially equal — the
    // meaningful check is that the sequence matches the documented
    // traversal on a function whose DAG mixes both edge parities.
    let mut m = Manager::new();
    let v = m.new_vars(3);
    let (a, b, c) = (m.var(v[0]), m.var(v[1]), m.var(v[2]));
    // f = (¬a ∧ b) ∨ (a ∧ ¬c)
    let na = m.not(a);
    let nc = m.not(c);
    let p = m.and(na, b);
    let q = m.and(a, nc);
    let f = m.or(p, q);
    let cubes: Vec<_> = m.cubes(f).collect();
    assert_eq!(
        cubes,
        vec![vec![(v[0], false), (v[1], true)], vec![(v[0], true), (v[2], false)]],
        "depth-first, 0-branch-first traversal order"
    );
}

/// The unique table grows by one rebuild over the arena: from a fresh
/// manager it starts at 256 slots and is rebuilt at twice the capacity
/// when it reaches load 3/4, at 192, 384, 768, 1,536 … entries. Rebuilding
/// every function afterwards finds each node where it was and creates
/// none, and so it does after a collection that keeps every function.
#[test]
fn growth_and_collection_keep_every_handle() {
    let mut m = Manager::new();
    let vars = m.new_vars(16);
    // Minterms built bottom-up, so every node created is part of a
    // result: 1,000 of them spread over 16 variables share only their
    // low suffixes.
    let build = |m: &mut Manager| -> Vec<Bdd> {
        (0..1000u32)
            .map(|i| {
                let value = i * 37;
                let literals: Vec<(Var, bool)> =
                    vars.iter().enumerate().map(|(k, &v)| (v, (value >> k) & 1 == 1)).collect();
                m.literal_cube(&literals)
            })
            .collect()
    };
    let first = build(&mut m);
    let created = m.stats().nodes_created;
    assert!(m.stats().nodes > 1536, "the table must have grown at least four times");
    assert_eq!(build(&mut m), first, "a rebuilt function is the same handle");
    assert_eq!(m.stats().nodes_created, created, "no node is created twice");

    let kept = m.gc(&first);
    assert_eq!(kept.nodes_after, kept.nodes_before, "every node belongs to a kept function");
    assert_eq!(build(&mut m), kept.roots, "after a collection too");
    assert_eq!(m.stats().nodes_created, created);
}

/// The peak rules on six variables, `x` at levels 0–2 and `y` at 3–5, so a
/// truth table is one `u64`: bit `w` is the value at the assignment whose
/// level-`k` variable is bit `k` of `w`.
const PEAK_VARS: usize = 6;

/// The truth table of the literal at level `k`.
fn tt6_var(k: usize) -> u64 {
    (0..64).filter(|w| (w >> k) & 1 == 1).fold(0, |t, w| t | (1 << w))
}

/// `∃` over the levels set in `mask`, on a truth table.
fn tt6_exists(mut t: u64, mask: u8) -> u64 {
    for k in (0..PEAK_VARS).filter(|k| (mask >> k) & 1 == 1) {
        let (lo, hi) = (0..64).fold((0u64, 0u64), |(lo, hi), w| {
            let bit = |w: usize| (t >> w) & 1;
            (lo | bit(w & !(1 << k)) << w, hi | bit(w | (1 << k)) << w)
        });
        t = lo | hi;
    }
    t
}

/// Renames `x` onto `y` in a table that does not depend on `y`: the
/// result at `w` reads the table where `x` holds `w`'s `y` bits.
fn tt6_x_onto_y(t: u64) -> u64 {
    (0..64).filter(|w| (t >> ((w & !7) | (w >> 3))) & 1 == 1).fold(0, |r, w| r | (1 << w))
}

/// The truth table of a built BDD over the six variables.
fn bdd_table6(m: &Manager, f: Bdd) -> u64 {
    (0..64usize)
        .filter(|w| {
            let env: Vec<bool> = (0..PEAK_VARS).map(|k| (w >> k) & 1 == 1).collect();
            m.eval(f, &env)
        })
        .fold(0, |t, w| t | (1 << w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Between collections the arena, the unique table and the computed
    /// tables only grow, so the peaks `stats()` reports (the values noted
    /// at each collection's entry folded with the current ones) equal the
    /// maxima of the footprint sampled after every step, over random
    /// sequences of `and`, `xor`, `ite`, `and_exists`,
    /// `rename_and_exists` and collections that keep random roots. Every
    /// live function keeps its truth table throughout.
    #[test]
    fn peaks_are_the_maxima_of_the_sampled_footprint(
        steps in prop::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..64, 0u8..64,
                                        any::<u64>()), 1..24)
    ) {
        let mut m = Manager::new();
        let vars = m.new_vars(PEAK_VARS);
        let x_onto_y = VarMap::new((0..3).map(|k| (vars[k], vars[k + 3])).collect::<Vec<_>>());
        let mut live: Vec<(Bdd, u64)> = (0..PEAK_VARS).map(|k| (m.var(vars[k]), tt6_var(k))).collect();
        let (mut max_nodes, mut max_bytes) = (0, 0);
        for &(kind, i, j, k, mask, keep) in &steps {
            let s = m.stats();
            max_nodes = max_nodes.max(s.nodes);
            max_bytes = max_bytes.max(s.arena_bytes);
            prop_assert_eq!(s.peak_nodes, max_nodes);
            prop_assert_eq!(s.peak_arena_bytes, max_bytes);
            for &(f, t) in &live {
                prop_assert_eq!(bdd_table6(&m, f), t);
            }
            let n = live.len();
            let ((f, tf), (g, tg), (h, th)) = (live[i % n], live[j % n], live[k % n]);
            // Built inside the steps that quantify: a collection's entry
            // must see the footprint of the last sample.
            let cube = |m: &mut Manager| {
                let quantified: Vec<Var> =
                    (0..PEAK_VARS).filter(|b| (mask >> b) & 1 == 1).map(|b| vars[b]).collect();
                m.cube(&quantified)
            };
            let made = match kind {
                0 => (m.and(f, g), tf & tg),
                1 => (m.xor(f, g), tf ^ tg),
                2 => (m.ite(f, g, h), (tf & tg) | (!tf & th)),
                3 => {
                    let cube = cube(&mut m);
                    (m.and_exists(f, g, cube), tt6_exists(tf & tg, mask))
                }
                4 => {
                    // Only `x` is left in the relation, so the map covers
                    // its support and is order-preserving: the fused path.
                    let (cube, cube_y) = (cube(&mut m), m.cube(&vars[3..]));
                    let rel = m.exists(f, cube_y);
                    let image = m.rename_and_exists(rel, &x_onto_y, g, cube);
                    let renamed = tt6_x_onto_y(tt6_exists(tf, 0b111_000));
                    (image, tt6_exists(renamed & tg, mask))
                }
                _ => {
                    // The literals stay, so there is always something to
                    // combine; every other root stays when its bit is set.
                    let kept: Vec<(Bdd, u64)> = live
                        .iter()
                        .enumerate()
                        .filter(|&(r, _)| r < PEAK_VARS || (keep >> (r % 64)) & 1 == 1)
                        .map(|(_, &root)| root)
                        .collect();
                    let roots: Vec<Bdd> = kept.iter().map(|&(f, _)| f).collect();
                    let moved = m.gc(&roots).roots;
                    live = moved.into_iter().zip(kept.iter().map(|&(_, t)| t)).collect();
                    continue;
                }
            };
            live.push(made);
        }
        let s = m.stats();
        prop_assert_eq!(s.peak_nodes, max_nodes.max(s.nodes));
        prop_assert_eq!(s.peak_arena_bytes, max_bytes.max(s.arena_bytes));
        for &(f, t) in &live {
            prop_assert_eq!(bdd_table6(&m, f), t);
        }
    }
}
