//! Integration tests for the fixed-point solver: differential testing
//! against explicit-state computation, mutual recursion, and the
//! non-monotone patterns the optimized entry-forward algorithm relies on.

use getafix_mucalc::{eq_const, parse_system, Formula, Solver, System, Term, Type};

/// Builds the interpretation of a binary edge relation from an explicit
/// edge list.
fn edges_to_bdd(solver: &mut Solver, rel: &str, edges: &[(u64, u64)]) -> getafix_mucalc::Bdd {
    let s_vars = solver.alloc().formal(rel, 0).all_vars();
    let t_vars = solver.alloc().formal(rel, 1).all_vars();
    let m = solver.manager();
    let mut acc = m.constant(false);
    for &(a, b) in edges {
        let fa = eq_const(m, &s_vars, a);
        let fb = eq_const(m, &t_vars, b);
        let edge = m.and(fa, fb);
        acc = m.or(acc, edge);
    }
    acc
}

fn set_to_bdd(solver: &mut Solver, rel: &str, values: &[u64]) -> getafix_mucalc::Bdd {
    let vars = solver.alloc().formal(rel, 0).all_vars();
    let m = solver.manager();
    let mut acc = m.constant(false);
    for &v in values {
        let fv = eq_const(m, &vars, v);
        acc = m.or(acc, fv);
    }
    acc
}

/// Explicit BFS over an edge list.
fn bfs(n: u64, init: &[u64], edges: &[(u64, u64)]) -> Vec<bool> {
    let mut reach = vec![false; n as usize];
    let mut work: Vec<u64> = init.to_vec();
    for &i in init {
        reach[i as usize] = true;
    }
    while let Some(x) = work.pop() {
        for &(a, b) in edges {
            if a == x && !reach[b as usize] {
                reach[b as usize] = true;
                work.push(b);
            }
        }
    }
    reach
}

const REACH_SRC: &str = r#"
    type State = range 16;
    input Init(s: State);
    input Trans(s: State, t: State);
    mu Reach(u: State) :=
        Init(u) | (exists x: State. Reach(x) & Trans(x, u));
"#;

#[test]
fn reach_matches_explicit_bfs() {
    // A pseudo-random graph, fixed seed via a simple LCG.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for trial in 0..10 {
        let n = 16u64;
        let mut edges = Vec::new();
        for _ in 0..(10 + trial * 3) {
            edges.push((rng() % n, rng() % n));
        }
        let init = vec![rng() % n];
        let expect = bfs(n, &init, &edges);

        let system = parse_system(REACH_SRC).unwrap();
        let mut solver = Solver::new(system).unwrap();
        let ib = set_to_bdd(&mut solver, "Init", &init);
        solver.set_input("Init", ib).unwrap();
        let tb = edges_to_bdd(&mut solver, "Trans", &edges);
        solver.set_input("Trans", tb).unwrap();

        let reach = solver.evaluate("Reach").unwrap();
        let u_vars = solver.alloc().formal("Reach", 0).all_vars();
        let m = solver.manager();
        for v in 0..n {
            let point = eq_const(m, &u_vars, v);
            let hit = m.and(reach, point);
            assert_eq!(
                !hit.is_false(),
                expect[v as usize],
                "trial {trial}: state {v} reachability"
            );
        }
    }
}

#[test]
fn tuple_count_matches_reachable_set_size() {
    let system = parse_system(REACH_SRC).unwrap();
    let mut solver = Solver::new(system).unwrap();
    // Chain 0 -> 1 -> 2 -> 3, init {0}: 4 reachable states.
    let ib = set_to_bdd(&mut solver, "Init", &[0]);
    solver.set_input("Init", ib).unwrap();
    let tb = edges_to_bdd(&mut solver, "Trans", &[(0, 1), (1, 2), (2, 3), (7, 8)]);
    solver.set_input("Trans", tb).unwrap();
    assert_eq!(solver.tuple_count("Reach").unwrap(), 4.0);
}

/// Tuples are counted over the relation's own formals. A `bits 1100` input
/// puts more than 1,024 other variables in the manager, where a count over
/// all variables overflows `f64` to NaN.
#[test]
fn tuple_count_ignores_the_other_relations_variables() {
    let src = format!("type Wide = bits 1100;\ninput Big(w: Wide);\n{REACH_SRC}");
    let mut solver = Solver::new(parse_system(&src).unwrap()).unwrap();
    assert!(solver.manager().var_count() > 1100);
    let ib = set_to_bdd(&mut solver, "Init", &[0]);
    solver.set_input("Init", ib).unwrap();
    let tb = edges_to_bdd(&mut solver, "Trans", &[(0, 1), (1, 2), (2, 3), (7, 8)]);
    solver.set_input("Trans", tb).unwrap();
    assert_eq!(solver.tuple_count("Reach").unwrap(), 4.0);
}

#[test]
fn mutual_recursion_even_odd() {
    // Even(n) over range 10 via mutual recursion with Odd.
    let system = parse_system(
        r#"
        type N = range 10;
        input Zero(n: N);
        input Succ(n: N, m: N);
        mu Even(n: N) :=
            Zero(n) | (exists m: N. Odd(m) & Succ(m, n));
        mu Odd(n: N) :=
            exists m: N. Even(m) & Succ(m, n);
        "#,
    )
    .unwrap();
    let mut solver = Solver::new(system).unwrap();
    let zb = set_to_bdd(&mut solver, "Zero", &[0]);
    solver.set_input("Zero", zb).unwrap();
    let edges: Vec<(u64, u64)> = (0..9).map(|i| (i, i + 1)).collect();
    let sb = edges_to_bdd(&mut solver, "Succ", &edges);
    solver.set_input("Succ", sb).unwrap();

    let even = solver.evaluate("Even").unwrap();
    let n_vars = solver.alloc().formal("Even", 0).all_vars();
    let m = solver.manager();
    for v in 0..10u64 {
        let point = eq_const(m, &n_vars, v);
        let hit = m.and(even, point);
        assert_eq!(!hit.is_false(), v % 2 == 0, "Even({v})");
    }
}

#[test]
fn duplicate_argument_application() {
    // Diag(u) := E(u, u) — exercises the scratch-column path.
    let system = parse_system(
        r#"
        type S = range 8;
        input E(a: S, b: S);
        mu Diag(u: S) := E(u, u);
        "#,
    )
    .unwrap();
    let mut solver = Solver::new(system).unwrap();
    let eb = edges_to_bdd(&mut solver, "E", &[(1, 1), (2, 3), (3, 3), (5, 4)]);
    solver.set_input("E", eb).unwrap();
    let diag = solver.evaluate("Diag").unwrap();
    let u_vars = solver.alloc().formal("Diag", 0).all_vars();
    let m = solver.manager();
    for v in 0..8u64 {
        let point = eq_const(m, &u_vars, v);
        let hit = m.and(diag, point);
        assert_eq!(!hit.is_false(), v == 1 || v == 3, "Diag({v})");
    }
}

#[test]
fn constant_arguments_and_comparisons() {
    let system = parse_system(
        r#"
        type K = range 8;
        input E(a: K, b: K);
        // Pairs reachable from (0, _) closing under edges on the first slot,
        // restricted to a < b, seeded from E(0, b).
        mu R(a: K, b: K) := (a = 0 & E(0, b)) | (E(a, b) & a < b & a != 5);
        query any := exists a: K, b: K. R(a, b);
        query none := exists a: K, b: K. R(a, b) & b <= a;
        "#,
    )
    .unwrap();
    let mut solver = Solver::new(system).unwrap();
    let eb = edges_to_bdd(&mut solver, "E", &[(1, 2), (5, 6), (4, 3), (0, 7)]);
    solver.set_input("E", eb).unwrap();
    assert!(solver.eval_query("any").unwrap());
    // R only holds pairs with a < b (or a = 0), so b <= a is only possible
    // for... a=0,b=7 has b>a; (1,2) a<b; (5,6) excluded by a!=5; (4,3)
    // excluded by a<b. Nothing with b <= a.
    assert!(!solver.eval_query("none").unwrap());
}

#[test]
fn nonmonotone_frontier_pattern_terminates() {
    // A miniature of the EFopt pattern: Step marks a frontier bit. The
    // relation is non-monotone (it reads its own complement) yet evaluation
    // stabilizes because the underlying reachable set grows monotonically.
    let system = parse_system(
        r#"
        type Fr = range 2;
        type S = range 8;
        input Init(s: S);
        input Trans(s: S, t: S);
        mu R(fr: Fr, s: S) :=
            (fr = 1 & Init(s))
          | R(1, s)
          | (fr = 1 & (exists x: S. Frontier(x) & Trans(x, s)))
          ;
        mu Frontier(s: S) := R(1, s) & !R(0, s);
        query hit := exists s: S. R(1, s) & s = 3;
        "#,
    )
    .unwrap();
    let mut solver = Solver::new(system).unwrap();
    let ib = set_to_bdd(&mut solver, "Init", &[0]);
    solver.set_input("Init", ib).unwrap();
    let tb = edges_to_bdd(&mut solver, "Trans", &[(0, 1), (1, 2), (2, 3)]);
    solver.set_input("Trans", tb).unwrap();
    let sys_not_positive = !solver.system().is_positive("Frontier");
    assert!(sys_not_positive, "Frontier must be detected as non-positive");
    assert!(solver.eval_query("hit").unwrap());
}

#[test]
fn forall_quantification() {
    let system = parse_system(
        r#"
        type S = range 4;
        input E(a: S, b: S);
        // Universal: states all of whose E-successors are even — expressed
        // with forall and implication.
        mu AllEven(a: S) := forall b: S. E(a, b) -> (b = 0 | b = 2);
        query q0 := exists a: S. AllEven(a) & a = 0;
        query q1 := exists a: S. AllEven(a) & a = 1;
        "#,
    )
    .unwrap();
    let mut solver = Solver::new(system).unwrap();
    let eb = edges_to_bdd(&mut solver, "E", &[(0, 2), (0, 0), (1, 3)]);
    solver.set_input("E", eb).unwrap();
    assert!(solver.eval_query("q0").unwrap(), "0's successors {{0,2}} are even");
    assert!(!solver.eval_query("q1").unwrap(), "1 has successor 3");
}

#[test]
fn stats_are_collected() {
    let system = parse_system(REACH_SRC).unwrap();
    let mut solver = Solver::new(system).unwrap();
    let ib = set_to_bdd(&mut solver, "Init", &[0]);
    solver.set_input("Init", ib).unwrap();
    let edges: Vec<(u64, u64)> = (0..15).map(|i| (i, i + 1)).collect();
    let tb = edges_to_bdd(&mut solver, "Trans", &edges);
    solver.set_input("Trans", tb).unwrap();
    solver.evaluate("Reach").unwrap();
    let stats = solver.stats();
    let reach = &stats.relations["Reach"];
    // A 16-chain takes 16 growth rounds + 1 to detect stability (+1 for the
    // empty start), so at least 16.
    assert!(reach.iterations >= 16, "iterations = {}", reach.iterations);
    assert!(reach.final_nodes > 0);
    assert!(solver.interpretation_nodes("Reach").is_some());
}

#[test]
fn divergence_detection() {
    use getafix_mucalc::{SolveError, SolveOptions, Strategy};
    // Flip(s) := !Flip(s) never stabilizes; the bound must catch it under
    // both strategies (the worklist engine routes the non-monotone
    // component to the nested semantics, which hits the same bound).
    for strategy in [Strategy::RoundRobin, Strategy::Worklist] {
        let system = parse_system(
            r#"
            type S = range 2;
            mu Flip(s: S) := !Flip(s);
            "#,
        )
        .unwrap();
        let mut solver = Solver::with_options(
            system,
            SolveOptions { max_iterations: 50, strategy, ..SolveOptions::new() },
        )
        .unwrap();
        let err = solver.evaluate("Flip").unwrap_err();
        assert!(matches!(err, SolveError::Diverged { .. }), "{strategy}: {err}");
    }
}

#[test]
fn zero_iteration_bound_rejected() {
    use getafix_mucalc::{SolveError, SolveOptions, Strategy};
    let system = parse_system(REACH_SRC).unwrap();
    let err = Solver::with_options(
        system,
        SolveOptions { max_iterations: 0, strategy: Strategy::Worklist, ..SolveOptions::new() },
    )
    .unwrap_err();
    assert!(matches!(err, SolveError::Options(_)), "{err}");
}

#[test]
fn programmatic_builder_equivalent_to_parsed() {
    // Build the REACH system via the builder API and check it prints to the
    // same normal form as the parsed version.
    let mut b = System::builder();
    b.declare_type("State", Type::Range(16)).unwrap();
    b.input("Init", vec![("s".into(), Type::named("State"))]);
    b.input("Trans", vec![("s".into(), Type::named("State")), ("t".into(), Type::named("State"))]);
    b.define(
        "Reach",
        vec![("u".into(), Type::named("State"))],
        Formula::or(vec![
            Formula::app("Init", vec![Term::var("u")]),
            Formula::exists(
                vec![("x".into(), Type::named("State"))],
                Formula::and(vec![
                    Formula::app("Reach", vec![Term::var("x")]),
                    Formula::app("Trans", vec![Term::var("x"), Term::var("u")]),
                ]),
            ),
        ]),
    );
    let built = b.build().unwrap();
    let parsed = parse_system(REACH_SRC).unwrap();
    assert_eq!(built.to_string(), parsed.to_string());
}

#[test]
fn inter_stratum_gc_preserves_results_and_reports_reclaim() {
    use getafix_mucalc::{SolveOptions, Strategy};
    // Two strata (Reach2 reads Reach), so the worklist engine crosses a
    // stratum boundary and a 0-node threshold forces a collection there.
    let src = r#"
        type State = range 16;
        input Init(s: State);
        input Trans(s: State, t: State);
        mu Reach(u: State) :=
            Init(u) | (exists x: State. Reach(x) & Trans(x, u));
        mu Reach2(u: State) :=
            Reach(u) | (exists x: State. Reach2(x) & Trans(x, u));
        query hit := exists u: State. Reach2(u) & u = 3;
    "#;
    let run = |gc_threshold: Option<usize>| {
        let system = parse_system(src).unwrap();
        let options = SolveOptions {
            strategy: Strategy::Worklist,
            record_provenance: true,
            gc_threshold,
            ..SolveOptions::new()
        };
        let mut solver = Solver::with_options(system, options).unwrap();
        let init = set_to_bdd(&mut solver, "Init", &[0]);
        solver.set_input("Init", init).unwrap();
        let trans = edges_to_bdd(&mut solver, "Trans", &[(0, 1), (1, 2), (2, 3)]);
        solver.set_input("Trans", trans).unwrap();
        let verdict = solver.eval_query("hit").unwrap();
        // Post-GC handles must still answer membership queries correctly.
        let vars = solver.alloc().formal("Reach2", 0).all_vars();
        let interp = solver.evaluate("Reach2").unwrap();
        let members: Vec<bool> = (0u64..16)
            .map(|v| {
                let mut env = vec![false; solver.manager_ref().var_count()];
                for (i, var) in vars.iter().enumerate() {
                    env[var.level() as usize] = (v >> i) & 1 == 1;
                }
                solver.manager_ref().eval(interp, &env)
            })
            .collect();
        let ranks = solver.provenance().rank_count("Reach2");
        let stats = solver.stats().clone();
        (verdict, members, ranks, stats)
    };
    let (v_gc, m_gc, r_gc, s_gc) = run(Some(0));
    let (v_no, m_no, r_no, s_no) = run(None);
    assert_eq!(v_gc, v_no);
    assert_eq!(m_gc, m_no);
    assert_eq!(r_gc, r_no, "provenance snapshots must survive collection");
    assert!(s_gc.gcs > 0, "a 0-node threshold must force collections");
    assert!(s_gc.gc_reclaimed_nodes > 0, "dead intermediates should be reclaimed");
    assert_eq!(s_no.gcs, 0);
    assert_eq!(s_no.gc_reclaimed_nodes, 0);
}

#[test]
fn mid_stratum_gc_preserves_results_in_a_long_monotone_scc() {
    use getafix_mucalc::{SolveOptions, Strategy};
    // A single monotone SCC that needs one worklist pass per chain link:
    // with a 0-node threshold, collections must fire *inside* the
    // stratum — once per pass — not just at the stratum boundary, while
    // the per-disjunct state (environment, accumulated values, domain
    // constraints) is remapped in place.
    let src = r#"
        type State = range 32;
        input Init(s: State);
        input Trans(s: State, t: State);
        mu Reach(u: State) :=
            Init(u) | (exists x: State. Reach(x) & Trans(x, u));
        query hit := exists u: State. Reach(u) & u = 31;
    "#;
    let chain: Vec<(u64, u64)> = (0..31).map(|i| (i, i + 1)).collect();
    let run = |gc_threshold: Option<usize>| {
        let system = parse_system(src).unwrap();
        let options = SolveOptions {
            strategy: Strategy::Worklist,
            record_provenance: true,
            gc_threshold,
            ..SolveOptions::new()
        };
        let mut solver = Solver::with_options(system, options).unwrap();
        let init = set_to_bdd(&mut solver, "Init", &[0]);
        solver.set_input("Init", init).unwrap();
        let trans = edges_to_bdd(&mut solver, "Trans", &chain);
        solver.set_input("Trans", trans).unwrap();
        let verdict = solver.eval_query("hit").unwrap();
        let vars = solver.alloc().formal("Reach", 0).all_vars();
        let interp = solver.evaluate("Reach").unwrap();
        let members: Vec<bool> = (0u64..32)
            .map(|v| {
                let mut env = vec![false; solver.manager_ref().var_count()];
                for (i, var) in vars.iter().enumerate() {
                    env[var.level() as usize] = (v >> i) & 1 == 1;
                }
                solver.manager_ref().eval(interp, &env)
            })
            .collect();
        let ranks = solver.provenance().rank_count("Reach");
        let stats = solver.stats().clone();
        (verdict, members, ranks, stats)
    };
    let (v_gc, m_gc, r_gc, s_gc) = run(Some(0));
    let (v_no, m_no, r_no, s_no) = run(None);
    assert!(v_gc, "state 31 is reachable along the chain");
    assert_eq!(v_gc, v_no);
    assert_eq!(m_gc, m_no, "interpretation must be bit-identical to the no-GC run");
    assert_eq!(r_gc, r_no, "provenance snapshots must survive mid-stratum collection");
    assert_eq!(
        s_gc.total_reevaluations(),
        s_no.total_reevaluations(),
        "collection must not change the schedule"
    );
    // The chain forces ~32 worklist passes in ONE stratum; a gc per pass
    // is far more than the handful of stratum boundaries in this system.
    assert!(
        s_gc.gcs > s_gc.sccs.len() + 2,
        "collections must fire mid-stratum, not only at boundaries (gcs = {}, sccs = {})",
        s_gc.gcs,
        s_gc.sccs.len()
    );
    assert!(s_gc.gc_reclaimed_nodes > 0);
    assert_eq!(s_no.gcs, 0);
}

#[test]
fn provenance_snapshots_are_increasing_and_end_at_fixpoint() {
    use getafix_mucalc::{SolveOptions, Strategy};
    for strategy in [Strategy::RoundRobin, Strategy::Worklist] {
        let system = parse_system(REACH_SRC).unwrap();
        let options = SolveOptions { strategy, record_provenance: true, ..SolveOptions::new() };
        let mut solver = Solver::with_options(system, options).unwrap();
        // Chain 0 -> 1 -> 2 -> 3: the fixpoint grows one state per round.
        let init = set_to_bdd(&mut solver, "Init", &[0]);
        solver.set_input("Init", init).unwrap();
        let trans = edges_to_bdd(&mut solver, "Trans", &[(0, 1), (1, 2), (2, 3)]);
        solver.set_input("Trans", trans).unwrap();
        let fixpoint = solver.evaluate("Reach").unwrap();
        let frontiers: Vec<_> = solver.provenance().snapshots("Reach").expect("recorded").to_vec();
        assert!(!frontiers.is_empty(), "{strategy}: no snapshots");
        assert_eq!(*frontiers.last().unwrap(), fixpoint, "{strategy}: last != final");
        // ⊆-increasing and strictly growing: f[i] ∧ ¬f[i+1] = ⊥, f[i] ≠ f[i+1].
        for w in frontiers.windows(2) {
            let outside = solver.manager().diff(w[0], w[1]);
            assert!(outside.is_false(), "{strategy}: snapshots not increasing");
            assert_ne!(w[0], w[1], "{strategy}: duplicate snapshot");
        }
        // The chain needs one discovery per state: 4 strictly-growing values.
        assert_eq!(frontiers.len(), 4, "{strategy}");
        assert_eq!(solver.provenance().rank_count("Reach"), 4, "{strategy}");
        // The provenance memory measure is populated and nonzero.
        assert!(solver.stats().provenance_nodes > 0, "{strategy}");
        // Rank queries agree with a linear scan.
        let vars = solver.alloc().formal("Reach", 0).all_vars();
        for state in 0u64..4 {
            let mut env = vec![false; solver.manager_ref().var_count()];
            for (i, v) in vars.iter().enumerate() {
                env[v.level() as usize] = (state >> i) & 1 == 1;
            }
            let rank = solver.provenance().rank_of(solver.manager_ref(), "Reach", &env);
            assert_eq!(rank, Some(state as usize), "{strategy}: state {state}");
            // `below` excludes the tuple at its own rank…
            let below = solver.provenance().below("Reach", state as usize);
            let m = solver.manager_ref();
            assert!(!m.eval(below, &env), "{strategy}: below({state}) contains the tuple");
        }
        // …and inputs invalidate everything.
        let init2 = set_to_bdd(&mut solver, "Init", &[1]);
        solver.set_input("Init", init2).unwrap();
        assert!(solver.provenance().is_empty(), "{strategy}: stale provenance survived");
    }
}
