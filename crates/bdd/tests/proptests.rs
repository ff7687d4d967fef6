//! Property-based tests for the ROBDD substrate.
//!
//! Strategy: generate random Boolean expressions over a small variable pool,
//! build them both as BDDs and as naive truth tables, and check that every
//! algebraic operation agrees with its semantic counterpart. Canonicity makes
//! BDD equality decide semantic equality, so most properties are one-liners.

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

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << NVARS)).map(|bits| (0..NVARS).map(|i| (bits >> i) & 1 == 1).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// BDD construction agrees with naive evaluation on every assignment.
    #[test]
    fn build_matches_semantics(e in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = e.build(&mut m, &vars);
        for env in assignments() {
            prop_assert_eq!(m.eval(f, &env), e.eval(&env));
        }
    }

    /// Rebuilding the same expression yields the identical handle
    /// (canonicity / hash-consing).
    #[test]
    fn canonical_rebuild(e in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f1 = e.build(&mut m, &vars);
        let f2 = e.build(&mut m, &vars);
        prop_assert_eq!(f1, f2);
    }

    /// Double negation is the identity; De Morgan holds exactly.
    #[test]
    fn negation_algebra(a in expr_strategy(), b in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let fa = a.build(&mut m, &vars);
        let fb = b.build(&mut m, &vars);
        let nfa = m.not(fa);
        let nnfa = m.not(nfa);
        prop_assert_eq!(nnfa, fa);
        let and = m.and(fa, fb);
        let nand = m.not(and);
        let nfb = m.not(fb);
        let de_morgan = m.or(nfa, nfb);
        prop_assert_eq!(nand, de_morgan);
    }

    /// sat_count equals the number of satisfying assignments, and so does
    /// sat_count_over the expression's variables when they are every
    /// `spread`-th variable of a wider manager: the variables in between
    /// are not counted, while each doubles the all-variables count.
    #[test]
    fn sat_count_is_exact(e in expr_strategy(), spread in 1usize..4) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = e.build(&mut m, &vars);
        let expected = assignments().filter(|env| e.eval(env)).count() as f64;
        prop_assert_eq!(m.sat_count(f, NVARS), expected);
        let mut wide = Manager::new();
        let all = wide.new_vars(NVARS * spread);
        let spaced: Vec<Var> = all.iter().copied().skip(spread - 1).step_by(spread).collect();
        let g = e.build(&mut wide, &spaced);
        prop_assert_eq!(wide.sat_count_over(g, &spaced), expected);
        let others = (NVARS * (spread - 1)) as i32;
        prop_assert_eq!(wide.sat_count(g, NVARS * spread), expected * 2f64.powi(others));
    }

    /// ∃x.f agrees with f[x:=0] ∨ f[x:=1]; ∀x.f with the conjunction.
    #[test]
    fn quantification_shannon(e in expr_strategy(), i in 0..NVARS) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = e.build(&mut m, &vars);
        let f0 = m.restrict(f, vars[i], false);
        let f1 = m.restrict(f, vars[i], true);
        let ex = m.exists_one(f, vars[i]);
        let or = m.or(f0, f1);
        prop_assert_eq!(ex, or);
        let fa = m.forall_vars(f, &[vars[i]]);
        let and = m.and(f0, f1);
        prop_assert_eq!(fa, and);
    }

    /// The fused relational product equals quantify-after-conjoin.
    #[test]
    fn and_exists_fused(a in expr_strategy(), b in expr_strategy(),
                        mask in 0u32..(1 << NVARS)) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let fa = a.build(&mut m, &vars);
        let fb = b.build(&mut m, &vars);
        let quantified: Vec<Var> = (0..NVARS)
            .filter(|i| (mask >> i) & 1 == 1)
            .map(|i| vars[i])
            .collect();
        let cube = m.cube(&quantified);
        let fused = m.and_exists(fa, fb, cube);
        let conj = m.and(fa, fb);
        let unfused = m.exists(conj, cube);
        prop_assert_eq!(fused, unfused);
    }

    /// Renaming into a disjoint block and back is the identity.
    #[test]
    fn rename_roundtrip(e in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(2 * NVARS);
        let src = &vars[..NVARS];
        let dst = &vars[NVARS..];
        let f = e.build(&mut m, src);
        let fwd = VarMap::new(src.iter().copied().zip(dst.iter().copied()));
        let g = m.rename(f, &fwd);
        let back = m.rename(g, &fwd.inverse());
        prop_assert_eq!(back, f);
        // And the renamed function evaluates like the original, shifted.
        for env in assignments() {
            let mut shifted = vec![false; 2 * NVARS];
            shifted[NVARS..].copy_from_slice(&env);
            prop_assert_eq!(m.eval(g, &shifted), e.eval(&env));
        }
    }

    /// Interleaved renaming (the allocation pattern used by the solver):
    /// sources at even levels, targets at odd levels.
    #[test]
    fn rename_interleaved(e in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(2 * NVARS);
        let src: Vec<Var> = (0..NVARS).map(|i| vars[2 * i]).collect();
        let dst: Vec<Var> = (0..NVARS).map(|i| vars[2 * i + 1]).collect();
        let f = e.build(&mut m, &src);
        let map = VarMap::new(src.iter().copied().zip(dst.iter().copied()));
        let g = m.rename(f, &map);
        for env in assignments() {
            let mut spread = vec![false; 2 * NVARS];
            for i in 0..NVARS {
                spread[2 * i + 1] = env[i];
            }
            prop_assert_eq!(m.eval(g, &spread), e.eval(&env));
        }
    }

    /// The fused image operation `∃cube. rename(f) ∧ g` equals the
    /// three-step pipeline — for arbitrary (monotone *and* scrambled)
    /// permutation maps, so both the fast path and the fallback are hit.
    #[test]
    fn rename_and_exists_fused(a in expr_strategy(), b in expr_strategy(),
                               keys in prop::collection::vec(
                                   0u64..1_000_000, 2 * NVARS..2 * NVARS + 1),
                               mask in 0u32..(1 << (2 * NVARS))) {
        let mut m = Manager::new();
        let vars = m.new_vars(2 * NVARS);
        let fa = a.build(&mut m, &vars[..NVARS]);
        let fb = b.build(&mut m, &vars[NVARS..]);
        // Map the first block onto an arbitrary injective target sequence
        // (indices ranked by random keys), so monotone *and* scrambled
        // maps both occur — exercising the fused path and the fallback.
        let mut order: Vec<usize> = (0..2 * NVARS).collect();
        order.sort_by_key(|&i| keys[i]);
        // Identity pairs go in too: they are sources of the map, so `fa`'s
        // support lies within its sources, and they count towards its
        // order flag.
        let map = VarMap::new(
            (0..NVARS).map(|i| vars[i]).zip(order.iter().map(|&j| vars[j]))
                .collect::<Vec<_>>(),
        );
        let quantified: Vec<Var> = (0..2 * NVARS)
            .filter(|i| (mask >> i) & 1 == 1)
            .map(|i| vars[i])
            .collect();
        let cube = m.cube(&quantified);
        let fused = m.rename_and_exists(fa, &map, fb, cube);
        let renamed = m.rename(fa, &map);
        let unfused = m.and_exists(renamed, fb, cube);
        prop_assert_eq!(fused, unfused);
    }

    /// Multi-root node counting never exceeds the per-root sum and equals
    /// it exactly when the roots share nothing but terminals.
    #[test]
    fn node_count_many_shares(a in expr_strategy(), b in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let fa = a.build(&mut m, &vars);
        let fb = b.build(&mut m, &vars);
        let many = m.node_count_many(&[fa, fb]);
        let each = m.node_count(fa) + m.node_count(fb);
        prop_assert!(many <= each);
        prop_assert!(many >= m.node_count(fa).max(m.node_count(fb)));
        prop_assert_eq!(m.node_count_many(&[fa]), m.node_count(fa));
    }

    /// GC preserves the semantics of every root.
    #[test]
    fn gc_preserves_roots(a in expr_strategy(), b in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let fa = a.build(&mut m, &vars);
        let fb = b.build(&mut m, &vars);
        let result = m.gc(&[fa, fb]);
        let (fa2, fb2) = (result.roots[0], result.roots[1]);
        for env in assignments() {
            prop_assert_eq!(m.eval(fa2, &env), a.eval(&env));
            prop_assert_eq!(m.eval(fb2, &env), b.eval(&env));
        }
    }

    /// Cube enumeration covers exactly the models.
    #[test]
    fn cube_enumeration_exact(e in expr_strategy()) {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = e.build(&mut m, &vars);
        let models = m.all_models(f, &vars);
        let mut expect: Vec<Vec<bool>> =
            assignments().filter(|env| e.eval(env)).collect();
        expect.sort();
        prop_assert_eq!(models, expect);
    }
}
