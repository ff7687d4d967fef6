//! Differential testing of the two solver strategies against an explicit
//! oracle: on randomly generated *positive* equation systems, both the
//! worklist engine and the round-robin reference must produce the least
//! fixed point that a Kleene iteration over explicit `Vec<bool>` sets
//! computes — with no BDD and no formula compiler, so a compiler bug that
//! both strategies share cannot hide — while the worklist engine never does
//! more relation re-evaluations. The systems include applications the
//! allocation plan must reorder binders for, and a swapped
//! self-application no order can serve, which the kernel evaluates by its
//! rename-first fallback.

use getafix_mucalc::{
    eq_const, Bdd, Formula, SolveError, SolveOptions, Solver, Strategy as SolveStrategy, System,
    Term, Type,
};
use proptest::prelude::*;

/// A random positive-system specification. Indices are taken modulo the
/// relevant bound at build time, so any tuple of small integers is valid.
#[derive(Debug, Clone)]
struct Spec {
    /// Domain size of the state type `S`.
    n: u64,
    /// Bodies of the unary fixpoint relations `R0..`; each disjunct is
    /// `(kind, relation index, constant)`, see [`disjunct`].
    bodies: Vec<Vec<(usize, usize, u64)>>,
    /// Interpretation of the `Init` input.
    init: Vec<u64>,
    /// Interpretation of the `Edge` input.
    edges: Vec<(u64, u64)>,
    /// Interpretation of the `Gate` input: empty in about a third of the
    /// systems, so conjunctions that apply it stop at ⊥.
    gate: Vec<u64>,
    /// The relation `R{path_seed}` whose members seed the binary `Path`.
    path_seed: usize,
}

/// The number of disjunct kinds [`disjunct`] knows.
const KINDS: usize = 13;

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        4u64..9,
        prop::collection::vec(
            prop::collection::vec((0usize..KINDS, 0usize..4, 0u64..16), 1..4),
            1..5,
        ),
        prop::collection::vec(0u64..16, 1..3),
        prop::collection::vec((0u64..16, 0u64..16), 1..9),
        prop::collection::vec(0u64..16, 0..3),
        0usize..4,
    )
        .prop_map(|(n, bodies, init, edges, gate, path_seed)| Spec {
            n,
            bodies,
            init,
            edges,
            gate,
            path_seed,
        })
}

fn state() -> Type {
    Type::named("S")
}

fn app(name: impl Into<String>, args: &[&str]) -> Formula {
    Formula::app(name, args.iter().map(|a| Term::var(*a)).collect())
}

fn exists(binders: &[(&str, &str)], parts: Vec<Formula>) -> Formula {
    Formula::exists(
        binders.iter().map(|(x, ty)| (x.to_string(), Type::named(*ty))).collect(),
        Formula::and(parts),
    )
}

/// One disjunct of `R`'s body over its parameter `s`: `j` and `k` name
/// the relations read, `c` a constant of `S`. Kinds 5–8 are the shapes
/// the compiler's relational product must get right: the first fixpoint
/// application of an `∃` conjunction is applied last, fused with the
/// quantification, and a conjunction stops at its first ⊥ conjunct.
/// Kinds 10–12 are the shapes the worklist engine tells apart when it
/// recompiles a disjunct against only the tuples added since its last
/// compile: a top-level product of factors, a relation under `∀`, and
/// two relations read through one `∨`.
fn disjunct(kind: usize, j: &str, k: &str, c: u64) -> Formula {
    match kind {
        // Seed from the input set.
        0 => app("Init", &["s"]),
        // Copy another relation (possibly itself).
        1 => app(j, &["s"]),
        // Forward image along Edge.
        2 => exists(&[("x", "S")], vec![app(j, &["x"]), app("Edge", &["x", "s"])]),
        // Backward image along Edge.
        3 => exists(&[("x", "S")], vec![app(j, &["x"]), app("Edge", &["s", "x"])]),
        // A constant point.
        4 => Formula::eq(Term::var("s"), Term::int(c)),
        // A constant argument on the fused application.
        5 => exists(
            &[("x", "S")],
            vec![
                Formula::app("Path", vec![Term::var("x"), Term::int(c)]),
                app("Edge", &["x", "s"]),
            ],
        ),
        // A repeated argument on the fused application; the second
        // fixpoint application is a plain one.
        6 => exists(
            &[("x", "S")],
            vec![app("Path", &["x", "x"]), app(j, &["x"]), app("Edge", &["x", "s"])],
        ),
        // An input that may be empty ahead of the recursive application.
        7 => exists(
            &[("x", "S")],
            vec![app("Gate", &["x"]), app(j, &["x"]), app("Edge", &["x", "s"])],
        ),
        // A crossing application: `Path`'s first formal is renamed onto
        // the binder `x` and its second onto `s`, a formal declared before
        // `x`, so the plan must place `x` first for the map to keep order.
        9 => exists(&[("x", "S")], vec![app("Path", &["x", "s"]), app(j, &["x"])]),
        // A top-level product: a member-free factor that binds a `Bit`,
        // then two images, whose binders `x` and `y` take `S` instances
        // only if each factor resumes the numbering after the ones before.
        10 => Formula::and(vec![
            exists(
                &[("b", "Bit")],
                vec![Formula::eq(Term::var("b"), Term::int(1)), Formula::not(app("Gate", &["s"]))],
            ),
            exists(&[("x", "S")], vec![app(j, &["x"]), app("Edge", &["x", "s"])]),
            exists(&[("y", "S")], vec![app(k, &["y"]), app("Edge", &["s", "y"])]),
        ]),
        // A relation under `∀`: positive, but not distributive.
        11 => Formula::forall(
            vec![("x".into(), state())],
            Formula::or(vec![Formula::not(app("Edge", &["s", "x"])), app(j, &["x"])]),
        ),
        // Two relations read through one `∨` inside an image.
        12 => exists(
            &[("x", "S")],
            vec![Formula::or(vec![app(j, &["x"]), app(k, &["x"])]), app("Edge", &["x", "s"])],
        ),
        // An ∃-conjunct after a conjunct that may be ⊥, then a binder of
        // another type: if the skipped conjunct's binders were not counted,
        // `z` would take the `Bit` instance of `b`.
        _ => exists(
            &[("y", "S")],
            vec![
                app("Edge", &["y", "s"]),
                Formula::or(vec![
                    Formula::and(vec![
                        app("Gate", &["y"]),
                        exists(
                            &[("b", "Bit"), ("x", "S")],
                            vec![
                                app(j, &["x"]),
                                app("Edge", &["x", "y"]),
                                Formula::eq(Term::var("b"), Term::int(1)),
                            ],
                        ),
                    ]),
                    exists(
                        &[("z", "S")],
                        vec![app(j, &["z"]), Formula::eq(Term::var("z"), Term::var("y"))],
                    ),
                ]),
            ],
        ),
    }
}

/// Builds the system of a spec: inputs `Init(s)`, `Edge(s, t)`,
/// `Gate(s)`, one positive unary fixpoint relation per body, the binary
/// `Path(s, t)` — Edge paths starting in `R{path_seed}` — its partial
/// symmetric closure `Sym(s, t)`, and one point query per unary relation.
/// `Sym` applies itself swapped, `Sym(t, s)`, inside an image step: a
/// cycle in the allocation constraints, so that application's rename
/// cannot keep the variable order and the kernel falls back.
fn build_system(spec: &Spec) -> System {
    let nrels = spec.bodies.len();
    let rel = |i: usize| format!("R{}", i % nrels);
    let mut b = System::builder();
    b.declare_type("S", Type::Range(spec.n)).unwrap();
    b.declare_type("Bit", Type::Range(2)).unwrap();
    b.input("Init", vec![("s".into(), state())]);
    b.input("Edge", vec![("s".into(), state()), ("t".into(), state())]);
    b.input("Gate", vec![("s".into(), state())]);
    for (i, disjuncts) in spec.bodies.iter().enumerate() {
        let parts = disjuncts
            .iter()
            .map(|&(kind, j, c)| disjunct(kind, &rel(j), &rel(j + 1), c % spec.n))
            .collect();
        b.define(format!("R{i}"), vec![("s".into(), state())], Formula::or(parts));
    }
    b.define(
        "Path",
        vec![("s".into(), state()), ("t".into(), state())],
        Formula::or(vec![
            Formula::and(vec![app(rel(spec.path_seed), &["s"]), app("Edge", &["s", "t"])]),
            exists(&[("x", "S")], vec![app("Path", &["s", "x"]), app("Edge", &["x", "t"])]),
        ]),
    );
    b.define(
        "Sym",
        vec![("s".into(), state()), ("t".into(), state())],
        Formula::or(vec![
            app("Path", &["s", "t"]),
            exists(&[("x", "S")], vec![app("Sym", &["t", "s"]), app("Edge", &["x", "s"])]),
        ]),
    );
    for i in 0..nrels {
        b.query(
            format!("q{i}"),
            Formula::exists(
                vec![("s".into(), state())],
                Formula::and(vec![
                    Formula::app(format!("R{i}"), vec![Term::var("s")]),
                    Formula::eq(Term::var("s"), Term::int(spec.init[0] % spec.n)),
                ]),
            ),
        );
    }
    b.build().unwrap()
}

/// The least fixed point of a spec's system, by Kleene iteration over
/// explicit sets: every `R{i}` as a membership vector, and `Path` and
/// `Sym` as `n × n` matrices. Shares no code with the solver.
struct Oracle {
    rels: Vec<Vec<bool>>,
    path: Vec<Vec<bool>>,
    sym: Vec<Vec<bool>>,
}

fn oracle(spec: &Spec) -> Oracle {
    let n = spec.n as usize;
    let nrels = spec.bodies.len();
    let set = |values: &[u64]| {
        let mut out = vec![false; n];
        for &v in values {
            out[(v % spec.n) as usize] = true;
        }
        out
    };
    let init = set(&spec.init);
    let gate = set(&spec.gate);
    let mut edge = vec![vec![false; n]; n];
    for &(a, c) in &spec.edges {
        edge[(a % spec.n) as usize][(c % spec.n) as usize] = true;
    }
    let mut rels = vec![vec![false; n]; nrels];
    let mut path = vec![vec![false; n]; n];
    let mut sym = vec![vec![false; n]; n];
    let seed = spec.path_seed % nrels;
    loop {
        let mut changed = false;
        for s in 0..n {
            for t in 0..n {
                let hit = (rels[seed][s] && edge[s][t]) || (0..n).any(|x| path[s][x] && edge[x][t]);
                if hit && !path[s][t] {
                    path[s][t] = true;
                    changed = true;
                }
                let hit = path[s][t] || (sym[t][s] && (0..n).any(|x| edge[x][s]));
                if hit && !sym[s][t] {
                    sym[s][t] = true;
                    changed = true;
                }
            }
        }
        for i in 0..nrels {
            for s in 0..n {
                let hit = spec.bodies[i].iter().any(|&(kind, j, c)| {
                    let r = &rels[j % nrels];
                    let r2 = &rels[(j + 1) % nrels];
                    let c = (c % spec.n) as usize;
                    match kind {
                        0 => init[s],
                        1 => r[s],
                        2 => (0..n).any(|x| r[x] && edge[x][s]),
                        3 => (0..n).any(|x| r[x] && edge[s][x]),
                        4 => s == c,
                        5 => (0..n).any(|x| path[x][c] && edge[x][s]),
                        6 => (0..n).any(|x| path[x][x] && r[x] && edge[x][s]),
                        7 => (0..n).any(|x| gate[x] && r[x] && edge[x][s]),
                        9 => (0..n).any(|x| path[x][s] && r[x]),
                        10 => {
                            !gate[s]
                                && (0..n).any(|x| r[x] && edge[x][s])
                                && (0..n).any(|y| r2[y] && edge[s][y])
                        }
                        11 => (0..n).all(|x| !edge[s][x] || r[x]),
                        12 => (0..n).any(|x| (r[x] || r2[x]) && edge[x][s]),
                        _ => (0..n).any(|y| {
                            edge[y][s] && ((gate[y] && (0..n).any(|x| r[x] && edge[x][y])) || r[y])
                        }),
                    }
                });
                if hit && !rels[i][s] {
                    rels[i][s] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return Oracle { rels, path, sym };
        }
    }
}

/// The BDD of the explicit set `values % n` over `vars`.
fn encode(
    m: &mut getafix_mucalc::Manager,
    vars: &[getafix_mucalc::Var],
    values: &[u64],
    n: u64,
) -> Bdd {
    let mut acc = Bdd::FALSE;
    for &v in values {
        let p = eq_const(m, vars, v % n);
        acc = m.or(acc, p);
    }
    acc
}

fn make_solver(spec: &Spec, strategy: SolveStrategy) -> Solver {
    let system = build_system(spec);
    let mut solver = Solver::with_options(system, SolveOptions::with_strategy(strategy)).unwrap();
    for (input, values) in [("Init", &spec.init), ("Gate", &spec.gate)] {
        let vars = solver.alloc().formal(input, 0).all_vars();
        let set = encode(solver.manager(), &vars, values, spec.n);
        solver.set_input(input, set).unwrap();
    }
    let edges = {
        let s = solver.alloc().formal("Edge", 0).all_vars();
        let t = solver.alloc().formal("Edge", 1).all_vars();
        let m = solver.manager();
        let mut acc = Bdd::FALSE;
        for &(a, c) in &spec.edges {
            let fa = eq_const(m, &s, a % spec.n);
            let fc = eq_const(m, &t, c % spec.n);
            let e = m.and(fa, fc);
            acc = m.or(acc, e);
        }
        acc
    };
    solver.set_input("Edge", edges).unwrap();
    solver
}

/// Does the solved interpretation of `name` hold at the argument tuple
/// `values` (one value per parameter)?
fn holds(solver: &Solver, name: &str, interp: Bdd, values: &[u64]) -> bool {
    let m = solver.manager_ref();
    let mut env = vec![false; m.var_count()];
    for (p, &v) in values.iter().enumerate() {
        for (i, var) in solver.alloc().formal(name, p).all_vars().iter().enumerate() {
            env[var.level() as usize] = (v >> i) & 1 == 1;
        }
    }
    m.eval(interp, &env)
}

/// The interpretation of `R{i}` as an explicit membership vector.
fn membership(solver: &mut Solver, i: usize, n: u64) -> Vec<bool> {
    let name = format!("R{i}");
    let interp = solver.evaluate(&name).unwrap();
    (0..n).map(|v| holds(solver, &name, interp, &[v])).collect()
}

/// The interpretation of the binary relation `name` as an explicit
/// `n × n` matrix.
fn matrix(solver: &mut Solver, name: &str, n: u64) -> Vec<Vec<bool>> {
    let interp = solver.evaluate(name).unwrap();
    (0..n).map(|s| (0..n).map(|t| holds(solver, name, interp, &[s, t])).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Both strategies compute the oracle's least fixed point and its
    /// query verdicts on random positive systems, and the worklist engine
    /// never does more body compilations than the reference. Every image
    /// step fuses, crossing applications included, until `Sym`'s swapped
    /// self-application takes the kernel's fallback.
    #[test]
    fn strategies_agree_on_random_positive_systems(spec in spec_strategy()) {
        let nrels = spec.bodies.len();
        let want = oracle(&spec);
        let mut rr = make_solver(&spec, SolveStrategy::RoundRobin);
        let mut wl = make_solver(&spec, SolveStrategy::Worklist);
        for (solver, strategy) in [(&mut wl, "worklist"), (&mut rr, "round-robin")] {
            for i in 0..nrels {
                let got = membership(solver, i, spec.n);
                prop_assert_eq!(&got, &want.rels[i], "{}: interpretation of R{}", strategy, i);
            }
            let got = matrix(solver, "Path", spec.n);
            prop_assert_eq!(&got, &want.path, "{}: interpretation of Path", strategy);
            prop_assert_eq!(solver.stats().rename_fallbacks, 0, "{}: a fallback", strategy);
            let got = matrix(solver, "Sym", spec.n);
            prop_assert_eq!(&got, &want.sym, "{}: interpretation of Sym", strategy);
            prop_assert!(solver.stats().rename_fallbacks > 0, "{}: Sym fused", strategy);
            for i in 0..nrels {
                let verdict = solver.eval_query(&format!("q{i}")).unwrap();
                let point = (spec.init[0] % spec.n) as usize;
                prop_assert_eq!(verdict, want.rels[i][point], "{}: verdict of q{}", strategy, i);
            }
        }
        prop_assert_eq!(rr.stats().delta_compiles, 0, "round-robin compiled against a delta");
        let rr_work = rr.stats().total_reevaluations();
        let wl_work = wl.stats().total_reevaluations();
        prop_assert!(
            wl_work <= rr_work,
            "worklist did more work: {} > {}", wl_work, rr_work
        );
    }

    /// Every system the generator produces really is positive (the
    /// precondition of the identical-least-fixed-point argument).
    #[test]
    fn generated_systems_are_positive(spec in spec_strategy()) {
        let system = build_system(&spec);
        for i in 0..spec.bodies.len() {
            prop_assert!(system.is_positive(&format!("R{i}")));
        }
        prop_assert!(system.is_positive("Path"));
        prop_assert!(system.is_positive("Sym"));
    }
}

/// Compilation stops a conjunction at its first ⊥ conjunct, but that never
/// hides an error: an unset input applied only after an empty conjunct is
/// still reported, by evaluation and by a query, under both strategies.
#[test]
fn unset_input_after_an_empty_conjunct_is_still_missing() {
    let mut b = System::builder();
    b.declare_type("S", Type::Range(4)).unwrap();
    b.input("Empty", vec![("s".into(), state())]);
    b.input("Unset", vec![("s".into(), state()), ("t".into(), state())]);
    b.define(
        "R",
        vec![("s".into(), state())],
        Formula::or(vec![
            Formula::eq(Term::var("s"), Term::int(0)),
            exists(
                &[("x", "S")],
                vec![app("Empty", &["x"]), app("R", &["x"]), app("Unset", &["x", "s"])],
            ),
        ]),
    );
    b.query("q", exists(&[("s", "S")], vec![app("Empty", &["s"]), app("Unset", &["s", "s"])]));
    let system = b.build().unwrap();
    for strategy in [SolveStrategy::RoundRobin, SolveStrategy::Worklist] {
        let mut solver =
            Solver::with_options(system.clone(), SolveOptions::with_strategy(strategy)).unwrap();
        solver.set_input("Empty", Bdd::FALSE).unwrap();
        for (what, got) in [
            ("evaluate", solver.evaluate("R").map(|_| ())),
            ("query", solver.eval_query("q").map(|_| ())),
        ] {
            assert!(
                matches!(&got, Err(SolveError::MissingInterpretation(n)) if n == "Unset"),
                "{strategy} {what}: {got:?}"
            );
        }
    }
}

// --- random NON-MONOTONE (frontier-pattern) systems -----------------------

/// A random ef-opt-shaped specification: a frontier-bit relation `R`, the
/// non-monotone projection `F = R(1,·) ∧ ¬R(0,·)`, a discovery relation
/// `New` with random extra disjuncts, and a monotone downstream stratum
/// `Down` reading `R`.
#[derive(Debug, Clone)]
struct NmSpec {
    n: u64,
    init: Vec<u64>,
    edges: Vec<(u64, u64)>,
    /// Extra disjuncts of `New`: `(kind, constant)`. Kind 1 adds a
    /// self-loop; kind 2 makes `New` read `R(1, ·)` directly, which
    /// defeats the ordered plan for the `F`/`New` anchors (cycle among
    /// non-anchor members) and exercises the nested fallback.
    extra: Vec<(usize, u64)>,
}

fn nm_spec_strategy() -> impl Strategy<Value = NmSpec> {
    (
        3u64..7,
        prop::collection::vec(0u64..16, 1..3),
        prop::collection::vec((0u64..16, 0u64..16), 1..8),
        prop::collection::vec((0usize..4, 0u64..16), 0..3),
    )
        .prop_map(|(n, init, edges, extra)| NmSpec { n, init, edges, extra })
}

fn build_nm_system(spec: &NmSpec) -> System {
    let mut b = System::builder();
    b.declare_type("Fr", Type::Range(2)).unwrap();
    b.declare_type("S", Type::Range(spec.n)).unwrap();
    b.input("Init", vec![("s".into(), state())]);
    b.input("Edge", vec![("s".into(), state()), ("t".into(), state())]);
    let fwd = |rel: &str| {
        Formula::exists(
            vec![("x".into(), state())],
            Formula::and(vec![
                Formula::app(rel, vec![Term::var("x")]),
                Formula::app("Edge", vec![Term::var("x"), Term::var("s")]),
            ]),
        )
    };
    // R(fr, s): the frontier-bit summary, mirroring §4.3's clauses [1-3].
    b.define(
        "R",
        vec![("fr".into(), Type::named("Fr")), ("s".into(), state())],
        Formula::or(vec![
            Formula::and(vec![
                Formula::eq(Term::var("fr"), Term::int(1)),
                Formula::app("Init", vec![Term::var("s")]),
            ]),
            Formula::app("R", vec![Term::int(1), Term::var("s")]),
            Formula::and(vec![
                Formula::eq(Term::var("fr"), Term::int(1)),
                Formula::app("New", vec![Term::var("s")]),
            ]),
        ]),
    );
    // F(s): the frontier projection — the non-monotone clause [4].
    b.define(
        "F",
        vec![("s".into(), state())],
        Formula::and(vec![
            Formula::app("R", vec![Term::int(1), Term::var("s")]),
            Formula::not(Formula::app("R", vec![Term::int(0), Term::var("s")])),
        ]),
    );
    // New(s): one image round from the frontier, plus random extras.
    let mut new_parts = vec![fwd("F")];
    for &(kind, c) in &spec.extra {
        new_parts.push(match kind {
            0 => Formula::app("F", vec![Term::var("s")]),
            1 => fwd("New"),
            2 => Formula::app("R", vec![Term::int(1), Term::var("s")]),
            _ => Formula::eq(Term::var("s"), Term::int(c % spec.n)),
        });
    }
    b.define("New", vec![("s".into(), state())], Formula::or(new_parts));
    // Down(s): a monotone stratum downstream of the non-monotone SCC.
    b.define(
        "Down",
        vec![("s".into(), state())],
        Formula::or(vec![Formula::app("R", vec![Term::int(1), Term::var("s")]), fwd("Down")]),
    );
    for (q, body) in [
        ("q_r", Formula::app("R", vec![Term::int(1), Term::var("s")])),
        ("q_f", Formula::app("F", vec![Term::var("s")])),
        ("q_new", Formula::app("New", vec![Term::var("s")])),
        ("q_down", Formula::app("Down", vec![Term::var("s")])),
    ] {
        b.query(
            q,
            Formula::exists(
                vec![("s".into(), state())],
                Formula::and(vec![body, Formula::eq(Term::var("s"), Term::int(0))]),
            ),
        );
    }
    b.build().unwrap()
}

fn make_nm_solver(spec: &NmSpec, strategy: SolveStrategy) -> Solver {
    let system = build_nm_system(spec);
    let options = SolveOptions {
        strategy,
        // Small enough to turn a genuinely oscillating instance into a
        // `Diverged` error quickly — both strategies must then produce the
        // *same* error, because the ordered schedule reproduces the
        // reference round sequence exactly.
        max_iterations: 300,
        ..SolveOptions::new()
    };
    let mut solver = Solver::with_options(system, options).unwrap();
    let init = {
        let vars = solver.alloc().formal("Init", 0).all_vars();
        let m = solver.manager();
        let mut acc = Bdd::FALSE;
        for &v in &spec.init {
            let p = eq_const(m, &vars, v % spec.n);
            acc = m.or(acc, p);
        }
        acc
    };
    solver.set_input("Init", init).unwrap();
    let edges = {
        let s = solver.alloc().formal("Edge", 0).all_vars();
        let t = solver.alloc().formal("Edge", 1).all_vars();
        let m = solver.manager();
        let mut acc = Bdd::FALSE;
        for &(a, c) in &spec.edges {
            let fa = eq_const(m, &s, a % spec.n);
            let fc = eq_const(m, &t, c % spec.n);
            let e = m.and(fa, fc);
            acc = m.or(acc, e);
        }
        acc
    };
    solver.set_input("Edge", edges).unwrap();
    solver
}

/// The interpretation of a single-`S`-parameter relation as a membership
/// vector, or the error text when evaluation fails.
fn nm_membership(solver: &mut Solver, name: &str, n: u64) -> Result<Vec<bool>, String> {
    let interp = solver.evaluate(name).map_err(|e| e.to_string())?;
    let nvars = solver.manager_ref().var_count();
    let vars = solver.alloc().formal(name, 0).all_vars();
    let m = solver.manager_ref();
    Ok((0..n)
        .map(|v| {
            let mut env = vec![false; nvars];
            for (i, var) in vars.iter().enumerate() {
                env[var.level() as usize] = (v >> i) & 1 == 1;
            }
            m.eval(interp, &env)
        })
        .collect())
}

/// `R`'s interpretation over both frontier-bit values.
fn nm_membership_r(solver: &mut Solver, n: u64) -> Result<Vec<bool>, String> {
    let interp = solver.evaluate("R").map_err(|e| e.to_string())?;
    let nvars = solver.manager_ref().var_count();
    let fr_vars = solver.alloc().formal("R", 0).all_vars();
    let s_vars = solver.alloc().formal("R", 1).all_vars();
    let m = solver.manager_ref();
    let mut out = Vec::new();
    for fr in 0u64..2 {
        for v in 0..n {
            let mut env = vec![false; nvars];
            for (i, var) in fr_vars.iter().enumerate() {
                env[var.level() as usize] = (fr >> i) & 1 == 1;
            }
            for (i, var) in s_vars.iter().enumerate() {
                env[var.level() as usize] = (v >> i) & 1 == 1;
            }
            out.push(m.eval(interp, &env));
        }
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On random frontier-pattern systems — non-monotone SCCs included —
    /// the worklist engine's ordered schedule (and its nested fallback)
    /// must agree with the round-robin reference on every demanded
    /// interpretation, every query verdict and every error, while never
    /// doing more body compilations.
    #[test]
    fn strategies_agree_on_random_nonmonotone_systems(spec in nm_spec_strategy()) {
        let mut rr = make_nm_solver(&spec, SolveStrategy::RoundRobin);
        let mut wl = make_nm_solver(&spec, SolveStrategy::Worklist);
        // The system really contains a non-monotone SCC.
        {
            let g = wl.deps();
            let scc = g.scc_of(wl.system().relation_id("F").expect("F is declared"));
            prop_assert!(!g.sccs()[scc].monotone, "F's component must be non-monotone");
        }
        let mut all_ok = true;
        // Demand every member at top level: each anchors its own run
        // (ordered where the pattern holds, nested otherwise) and must
        // match the reference's per-root evaluation exactly.
        let r_rr = nm_membership_r(&mut rr, spec.n);
        let r_wl = nm_membership_r(&mut wl, spec.n);
        all_ok &= r_rr.is_ok();
        prop_assert_eq!(r_rr, r_wl, "interpretation of R differs");
        for name in ["F", "New", "Down"] {
            let m_rr = nm_membership(&mut rr, name, spec.n);
            let m_wl = nm_membership(&mut wl, name, spec.n);
            all_ok &= m_rr.is_ok();
            prop_assert_eq!(m_rr, m_wl, "interpretation of {} differs", name);
        }
        for q in ["q_r", "q_f", "q_new", "q_down"] {
            let v_rr = rr.eval_query(q).map_err(|e| e.to_string());
            let v_wl = wl.eval_query(q).map_err(|e| e.to_string());
            prop_assert_eq!(v_rr, v_wl, "verdict of {} differs", q);
        }
        if all_ok {
            prop_assert_eq!(rr.stats().delta_compiles, 0, "round-robin compiled against a delta");
        let rr_work = rr.stats().total_reevaluations();
            let wl_work = wl.stats().total_reevaluations();
            prop_assert!(
                wl_work <= rr_work,
                "worklist did more work: {} > {}", wl_work, rr_work
            );
        }
    }
}

// --- the nested fallback over a solved stratum ----------------------------

/// A non-monotone component that defeats the ordered plan (`A ↔ B` are
/// mutually recursive once the anchor is removed) and reads the solved
/// monotone stratum `Base` from every member.
const NESTED_OVER_BASE: &str = r#"
    type S = range 6;
    input I(s: S);
    input E(s: S, t: S);
    mu Base(s: S) := I(s) | (exists x: S. Base(x) & E(x, s));
    mu Anchor(s: S) := Base(s) | A(s) | (Anchor(s) & !B(s));
    mu A(s: S) := B(s) | Anchor(s) | (exists x: S. Base(x) & E(x, s) & s = 5);
    mu B(s: S) := A(s) & Base(s);
    query q := exists s: S. Anchor(s) & !B(s);
"#;

fn nested_over_base_solver(strategy: SolveStrategy) -> Solver {
    let system = getafix_mucalc::parse_system(NESTED_OVER_BASE).unwrap();
    let mut solver = Solver::with_options(system, SolveOptions::with_strategy(strategy)).unwrap();
    let init = {
        let vars = solver.alloc().formal("I", 0).all_vars();
        encode(solver.manager(), &vars, &[0], 6)
    };
    solver.set_input("I", init).unwrap();
    let edges = {
        let s = solver.alloc().formal("E", 0).all_vars();
        let t = solver.alloc().formal("E", 1).all_vars();
        let m = solver.manager();
        let mut acc = Bdd::FALSE;
        for (a, c) in [(0, 1), (1, 2), (2, 3), (4, 5)] {
            let fa = eq_const(m, &s, a);
            let fc = eq_const(m, &t, c);
            let e = m.and(fa, fc);
            acc = m.or(acc, e);
        }
        acc
    };
    solver.set_input("E", edges).unwrap();
    solver
}

/// The worklist engine's nested fallback reads an already-solved outer
/// stratum from its frozen environment instead of re-deriving it: after
/// `Anchor` is solved, `Base` has taken exactly the re-evaluations it
/// takes on its own. Every member, `Base` and the query still agree with
/// the round-robin reference, tuple by tuple.
#[test]
fn nested_fallback_reads_solved_strata_from_the_frozen_environment() {
    let mut solo = nested_over_base_solver(SolveStrategy::Worklist);
    solo.evaluate("Base").unwrap();
    let base_alone = solo.stats().relations["Base"].reevaluations;

    let mut wl = nested_over_base_solver(SolveStrategy::Worklist);
    wl.evaluate("Anchor").unwrap();
    let scc = wl.stats().relations["Anchor"].scc.expect("Anchor has a component");
    assert_eq!(wl.stats().sccs[scc].schedule(), "nested");
    assert_eq!(wl.stats().relations["Base"].reevaluations, base_alone);

    let mut rr = nested_over_base_solver(SolveStrategy::RoundRobin);
    for name in ["Anchor", "A", "B", "Base"] {
        let got = nm_membership(&mut wl, name, 6);
        assert_eq!(got, nm_membership(&mut rr, name, 6), "interpretation of {name}");
    }
    assert_eq!(wl.eval_query("q").unwrap(), rr.eval_query("q").unwrap());
    assert_eq!(wl.stats().relations["Base"].reevaluations, base_alone);
}
