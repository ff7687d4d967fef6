//! Property-based witness testing: on randomly generated programs, a
//! reachable target always yields a trace that replays to the target in
//! the concrete interpreter, and an unreachable target always yields
//! `None` — under both solver strategies. The concurrent properties mirror
//! this for statement-granular traces: every reachable verdict refines
//! into a script the deterministic guided replayer accepts, mutated
//! scripts are rejected, and the guided round skeleton agrees with the
//! round-level schedule replayer.

use getafix_boolprog::{
    analysis::{slice, AnalysisOptions},
    explicit_reachable, replay, Cfg, ConcProgram, Expr, Proc, Program, Stmt, StmtKind,
};
use getafix_conc::{
    check_merged_with, conc_explicit_reachable, conc_replay_guided, merge, slice_merged,
    ConcExplicitError, ConcLimits,
};
use getafix_core::{check_reachability_with, Algorithm};
use getafix_mucalc::{SolveOptions, Strategy as SolverStrategy};
use getafix_witness::{concurrent_trace_from_schedule, concurrent_witness, sequential_witness};
use proptest::prelude::*;

const VARS: [&str; 4] = ["g0", "g1", "x", "y"];

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        Just(Expr::Nondet),
        (0..VARS.len()).prop_map(|i| Expr::var(VARS[i])),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Eq(Box::new(a), Box::new(b))),
        ]
    })
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let base = prop_oneof![
        Just(StmtKind::Skip),
        (0..VARS.len(), expr_strategy())
            .prop_map(|(i, e)| StmtKind::Assign { targets: vec![VARS[i].into()], exprs: vec![e] }),
        expr_strategy().prop_map(StmtKind::Assume),
        expr_strategy().prop_map(|e| StmtKind::CallAssign {
            targets: vec!["x".into()],
            callee: "f".into(),
            args: vec![e],
        }),
    ];
    let kinds = base.prop_recursive(2, 8, 2, |inner| {
        let stmt = inner.prop_map(Stmt::new);
        prop_oneof![
            (
                expr_strategy(),
                prop::collection::vec(stmt.clone(), 1..3),
                prop::collection::vec(stmt.clone(), 0..2)
            )
                .prop_map(|(c, t, e)| StmtKind::If {
                    cond: c,
                    then_branch: t,
                    else_branch: e
                }),
            (expr_strategy(), prop::collection::vec(stmt, 1..2))
                .prop_map(|(c, b)| StmtKind::While { cond: Expr::and(c, Expr::Nondet), body: b }),
        ]
    });
    kinds.prop_map(Stmt::new)
}

/// A random program whose `main` ends with `if (guard) then HIT: skip; fi`.
fn program_strategy() -> impl Strategy<Value = Program> {
    (prop::collection::vec(stmt_strategy(), 1..5), expr_strategy()).prop_map(|(mut body, guard)| {
        body.push(Stmt::new(StmtKind::If {
            cond: guard,
            then_branch: vec![Stmt::labeled("HIT", StmtKind::Skip)],
            else_branch: vec![],
        }));
        Program {
            globals: vec!["g0".into(), "g1".into()],
            procs: vec![
                Proc {
                    name: "main".into(),
                    params: vec![],
                    returns: 0,
                    locals: vec!["x".into(), "y".into()],
                    body,
                },
                Proc {
                    name: "f".into(),
                    params: vec!["x".into()],
                    returns: 1,
                    locals: vec!["y".into()],
                    body: vec![
                        Stmt::new(StmtKind::If {
                            cond: Expr::Nondet,
                            then_branch: vec![Stmt::new(StmtKind::Assign {
                                targets: vec!["g0".into()],
                                exprs: vec![Expr::var("x")],
                            })],
                            else_branch: vec![Stmt::new(StmtKind::CallAssign {
                                targets: vec!["y".into()],
                                callee: "f".into(),
                                args: vec![Expr::not(Expr::var("x"))],
                            })],
                        }),
                        Stmt::new(StmtKind::Return(vec![Expr::var("y")])),
                    ],
                },
            ],
        }
    })
}

/// Statements for concurrent threads: like [`stmt_strategy`] but with no
/// recursive calls (guided replay materializes stacks, so the generated
/// programs must have finite stacks) — `poke` is a per-thread straight-line
/// helper instead.
fn conc_stmt_strategy() -> impl Strategy<Value = Stmt> {
    let base = prop_oneof![
        Just(StmtKind::Skip),
        (0..VARS.len(), expr_strategy())
            .prop_map(|(i, e)| StmtKind::Assign { targets: vec![VARS[i].into()], exprs: vec![e] }),
        Just(StmtKind::Call { callee: "poke".into(), args: vec![] }),
    ];
    let kinds = base.prop_recursive(2, 8, 2, |inner| {
        let stmt = inner.prop_map(Stmt::new);
        prop_oneof![
            (
                expr_strategy(),
                prop::collection::vec(stmt.clone(), 1..3),
                prop::collection::vec(stmt.clone(), 0..2)
            )
                .prop_map(|(c, t, e)| StmtKind::If {
                    cond: c,
                    then_branch: t,
                    else_branch: e
                }),
            (expr_strategy(), prop::collection::vec(stmt, 1..2))
                .prop_map(|(c, b)| StmtKind::While { cond: Expr::and(c, Expr::Nondet), body: b }),
        ]
    });
    kinds.prop_map(Stmt::new)
}

/// A thread: a `main` over shared `g0`/`g1` and locals `x`/`y`, plus a
/// non-recursive `poke` helper toggling one shared variable.
fn thread_program(body: Vec<Stmt>, poke_target: &str) -> Program {
    Program {
        globals: vec![],
        procs: vec![
            Proc {
                name: "main".into(),
                params: vec![],
                returns: 0,
                locals: vec!["x".into(), "y".into()],
                body,
            },
            Proc {
                name: "poke".into(),
                params: vec![],
                returns: 0,
                locals: vec![],
                body: vec![Stmt::new(StmtKind::Assign {
                    targets: vec![poke_target.into()],
                    exprs: vec![Expr::not(Expr::var(poke_target))],
                })],
            },
        ],
    }
}

/// A random two-thread program whose first thread ends with
/// `if (guard) then HIT: skip; fi`.
fn conc_program_strategy() -> impl Strategy<Value = ConcProgram> {
    (
        prop::collection::vec(conc_stmt_strategy(), 1..4),
        prop::collection::vec(conc_stmt_strategy(), 1..4),
        expr_strategy(),
    )
        .prop_map(|(mut body0, body1, guard)| {
            body0.push(Stmt::new(StmtKind::If {
                cond: guard,
                then_branch: vec![Stmt::labeled("HIT", StmtKind::Skip)],
                else_branch: vec![],
            }));
            ConcProgram {
                shared: vec!["g0".into(), "g1".into()],
                threads: vec![thread_program(body0, "g0"), thread_program(body1, "g1")],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reachable ⇒ the extracted trace replays to the target;
    /// unreachable ⇒ `witness()` returns `None`. Both strategies.
    #[test]
    fn witnesses_match_the_oracle(p in program_strategy()) {
        let cfg = Cfg::build(&p).unwrap_or_else(|e| panic!("{e}\n{p}"));
        let target = cfg.label("HIT").expect("generated label");
        let oracle = explicit_reachable(&cfg, &[target], 5_000_000)
            .expect("oracle within budget")
            .reachable;
        for strategy in [SolverStrategy::Worklist, SolverStrategy::RoundRobin] {
            let witness = sequential_witness(&cfg, &[target], SolveOptions::with_strategy(strategy))
                .unwrap_or_else(|e| panic!("{strategy}: {e}\n{p}"));
            match witness {
                Some(trace) => {
                    prop_assert!(oracle, "witness for unreachable target\n{}", p);
                    let check = replay(&cfg, &trace.to_replay(), &[target]);
                    prop_assert!(check.is_ok(), "replay rejected: {:?}\n{}", check, p);
                }
                None => prop_assert!(!oracle, "reachable but no witness\n{}", p),
            }
        }
    }

    /// The guided-replayer contract on random concurrent programs:
    /// (a) every reachable verdict yields a statement-granular trace the
    ///     guided replayer accepts deterministically;
    /// (b) mutated scripts — wrong thread, wrong pc, perturbed globals,
    ///     reordered steps — are rejected;
    /// (c) the guided trace's round skeleton is exactly the extracted
    ///     schedule, which refinement showed executable.
    /// Both solver strategies; unreachable verdicts must match the
    /// explicit oracle.
    #[test]
    fn guided_replay_matches_the_oracle(p in conc_program_strategy()) {
        let merged = merge(&p).unwrap();
        let target = merged.cfg.label("t0__HIT").expect("generated label");
        let limits = ConcLimits::default();
        let switches = 2usize;
        let oracle = conc_explicit_reachable(&merged, &[target], switches, limits.clone())
            .expect("oracle within budget");
        for strategy in [SolverStrategy::Worklist, SolverStrategy::RoundRobin] {
            let options = SolveOptions::with_strategy(strategy);
            let witness = concurrent_witness(&merged, &[target], switches, options)
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
            let Some(schedule) = witness else {
                prop_assert!(!oracle, "{strategy}: reachable but no schedule");
                continue;
            };
            prop_assert!(oracle, "{strategy}: schedule for unreachable target");

            // (a) refinement succeeds and the guided replayer accepts it.
            let trace = concurrent_trace_from_schedule(&merged, &[target], &schedule, limits.clone())
                .unwrap_or_else(|e| panic!("{strategy}: refine: {e}"));
            let rounds = trace.round_skeleton();
            let steps = trace.to_guided();
            let accepted = conc_replay_guided(&merged, &[target], &rounds, &steps, limits.clone());
            prop_assert!(accepted.is_ok(), "{strategy}: guided replay rejected: {accepted:?}");

            // (c) the round skeleton is exactly the schedule; refining
            // it in (a) showed it executable.
            prop_assert_eq!(&rounds, &schedule.to_replay());

            // (b) mutations are rejected. Each mutation below violates an
            // invariant the replayer *must* check, independently of what
            // the program's nondeterminism would otherwise admit.
            let rejected = |r: Result<(), ConcExplicitError>| {
                matches!(r, Err(ConcExplicitError::ScriptRejected { .. }))
            };
            if !steps.is_empty() {
                // Wrong thread: the round's scheduled thread is unique.
                let mut bad = steps.clone();
                bad[0].thread = (bad[0].thread + 1) % merged.n_threads;
                prop_assert!(
                    rejected(conc_replay_guided(&merged, &[target], &rounds, &bad, limits.clone())),
                    "{strategy}: wrong-thread mutation accepted"
                );

                // Wrong pc: no edge targets a pc outside the program.
                let mut bad = steps.clone();
                let off = merged.cfg.pc_count;
                bad[0].step = match bad[0].step {
                    getafix_boolprog::ReplayStep::Internal { to, globals, locals } =>
                        getafix_boolprog::ReplayStep::Internal { to: to + off, globals, locals },
                    getafix_boolprog::ReplayStep::Call { entry, globals, locals } =>
                        getafix_boolprog::ReplayStep::Call { entry: entry + off, globals, locals },
                    getafix_boolprog::ReplayStep::Return { ret_to, globals, locals } =>
                        getafix_boolprog::ReplayStep::Return { ret_to: ret_to + off, globals, locals },
                };
                prop_assert!(
                    rejected(conc_replay_guided(&merged, &[target], &rounds, &bad, limits.clone())),
                    "{strategy}: wrong-pc mutation accepted"
                );

                // Perturbed globals: an out-of-frame bit can never be set.
                let mut bad = steps.clone();
                bad[0].step = match bad[0].step {
                    getafix_boolprog::ReplayStep::Internal { to, globals, locals } =>
                        getafix_boolprog::ReplayStep::Internal { to, globals: globals | 1 << 63, locals },
                    getafix_boolprog::ReplayStep::Call { entry, globals, locals } =>
                        getafix_boolprog::ReplayStep::Call { entry, globals: globals | 1 << 63, locals },
                    getafix_boolprog::ReplayStep::Return { ret_to, globals, locals } =>
                        getafix_boolprog::ReplayStep::Return { ret_to, globals: globals | 1 << 63, locals },
                };
                prop_assert!(
                    rejected(conc_replay_guided(&merged, &[target], &rounds, &bad, limits.clone())),
                    "{strategy}: perturbed-globals mutation accepted"
                );
            }
            // Reordered steps: moving a later round's step before an
            // earlier round's regresses the round counter — always
            // rejected, whatever the intra-round semantics would admit.
            if let Some(j) = steps.iter().position(|s| s.round > steps[0].round) {
                let mut bad = steps.clone();
                bad.swap(0, j);
                prop_assert!(
                    rejected(conc_replay_guided(&merged, &[target], &rounds, &bad, limits.clone())),
                    "{strategy}: reordered-steps mutation accepted"
                );
            }
        }
    }

    /// Slice-then-solve ≡ solve: the pre-solve slicer preserves verdicts
    /// on random programs under both solver strategies, a pruned target is
    /// confirmed unreachable by the explicit oracle, and witnesses
    /// extracted on the *sliced* program still replay in the sliced
    /// program's concrete semantics.
    #[test]
    fn slicing_preserves_verdicts_and_witnesses(p in program_strategy()) {
        let cfg = Cfg::build(&p).unwrap_or_else(|e| panic!("{e}\n{p}"));
        let target = cfg.label("HIT").expect("generated label");
        let oracle = explicit_reachable(&cfg, &[target], 5_000_000)
            .expect("oracle within budget")
            .reachable;
        let sliced = slice(&cfg, &AnalysisOptions::sequential().with_targets(&[target]));
        let Some(new_target) = sliced.map_pc(target) else {
            prop_assert!(!oracle, "slicer pruned a reachable target\n{}", p);
            return Ok(());
        };
        for strategy in [SolverStrategy::Worklist, SolverStrategy::RoundRobin] {
            let r = check_reachability_with(
                &sliced.cfg,
                &[new_target],
                Algorithm::EntryForwardOpt,
                SolveOptions::with_strategy(strategy),
            )
            .unwrap_or_else(|e| panic!("{strategy}: {e}\n{p}"));
            prop_assert_eq!(
                r.reachable, oracle,
                "{}: sliced verdict diverged from the oracle\n{}", strategy, p
            );
            let witness =
                sequential_witness(&sliced.cfg, &[new_target], SolveOptions::with_strategy(strategy))
                    .unwrap_or_else(|e| panic!("{strategy}: {e}\n{p}"));
            match witness {
                Some(trace) => {
                    prop_assert!(oracle, "{}: sliced witness for unreachable target\n{}", strategy, p);
                    let check = replay(&sliced.cfg, &trace.to_replay(), &[new_target]);
                    prop_assert!(check.is_ok(), "{}: sliced replay rejected: {:?}\n{}", strategy, check, p);
                }
                None => prop_assert!(!oracle, "{}: reachable but no sliced witness\n{}", strategy, p),
            }
        }
    }

    /// The concurrent analogue: slicing a merged program (concurrent-mode
    /// analysis — shared globals unknown at every step) preserves
    /// bounded-round verdicts, and a pruned target is confirmed
    /// unreachable by the explicit interleaving oracle.
    #[test]
    fn conc_slicing_preserves_verdicts(p in conc_program_strategy()) {
        let merged = merge(&p).unwrap();
        let target = merged.cfg.label("t0__HIT").expect("generated label");
        let switches = 2usize;
        let oracle = conc_explicit_reachable(&merged, &[target], switches, ConcLimits::default())
            .expect("oracle within budget");
        let (sliced_merged, s) = slice_merged(&merged, &[target]);
        let Some(new_target) = s.map_pc(target) else {
            prop_assert!(!oracle, "slicer pruned a reachable concurrent target\n{:?}", p);
            return Ok(());
        };
        for strategy in [SolverStrategy::Worklist, SolverStrategy::RoundRobin] {
            let options = SolveOptions::with_strategy(strategy);
            let r = check_merged_with(&sliced_merged, &[new_target], switches, options)
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
            prop_assert_eq!(
                r.reachable, oracle,
                "{}: sliced concurrent verdict diverged from the oracle", strategy
            );
        }
    }
}
