//! The single-solve witness suite, run over the `crates/workloads`
//! corpora (SLAM-shaped drivers, Terminator counters, the regression
//! suite, and the Bluetooth concurrent workload): extraction must peel the
//! **verdict solver's own provenance** — no dedicated witness re-solve —
//! and agree, under both scheduling strategies and all three trace-capable
//! algorithms (`ef-opt`'s ordered non-monotone schedule and the non-split
//! `ef-naive` return clause included), with
//!
//! * the verdict the same solver just produced,
//! * the demoted two-solve oracle path ([`sequential_witness`]), and
//! * the concrete replayer, which re-executes every trace.

use getafix_boolprog::{replay, Cfg, Program};
use getafix_conc::{build_conc_solver_with, check_conc_solver, merge};
use getafix_core::{build_trace_solver_with, Algorithm};
use getafix_mucalc::{SolveOptions, Strategy};
use getafix_witness::{
    concurrent_witness_from, sequential_witness, sequential_witness_from, WitnessLimits,
};
use getafix_workloads as workloads;

/// One solve for verdict *and* witness, cross-checked against the oracle
/// extractor.
fn check_single_solve(name: &str, program: &Program, label: &str, expect: bool) {
    let cfg = Cfg::build(program).unwrap_or_else(|e| panic!("{name}: {e}"));
    let pc = cfg.label(label).unwrap_or_else(|| panic!("{name}: no label {label}"));
    for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
        for algo in
            [Algorithm::EntryForwardOpt, Algorithm::EntryForward, Algorithm::EntryForwardNaive]
        {
            let options = SolveOptions::with_strategy(strategy);
            let mut solver = build_trace_solver_with(&cfg, &[pc], algo, options)
                .unwrap_or_else(|e| panic!("{name} {algo} {strategy}: {e}"))
                .expect("ef algorithms are trace-capable");
            let verdict = solver
                .eval_query("reach")
                .unwrap_or_else(|e| panic!("{name} {algo} {strategy}: {e}"));
            assert_eq!(verdict, expect, "{name} {algo} {strategy}: wrong verdict");
            let witness =
                sequential_witness_from(&mut solver, &cfg, &[pc], WitnessLimits::default())
                    .unwrap_or_else(|e| panic!("{name} {algo} {strategy}: {e}"));
            match witness {
                Some(trace) => {
                    assert!(verdict, "{name} {algo} {strategy}: witness for unreachable");
                    replay(&cfg, &trace.to_replay(), &[pc]).unwrap_or_else(|e| {
                        panic!("{name} {algo} {strategy}: replay rejected: {e}")
                    });
                }
                None => {
                    assert!(!verdict, "{name} {algo} {strategy}: reachable but no witness");
                }
            }
        }
        // The demoted oracle path must agree on witness existence.
        let oracle = sequential_witness(&cfg, &[pc], SolveOptions::with_strategy(strategy))
            .unwrap_or_else(|e| panic!("{name} oracle {strategy}: {e}"));
        assert_eq!(oracle.is_some(), expect, "{name} {strategy}: oracle disagrees");
    }
}

#[test]
fn regression_corpus_single_solve() {
    let (pos, neg) = workloads::regression_suite();
    // A cross-section: every 6th case of each polarity keeps the runtime
    // reasonable while covering all statement shapes.
    for case in pos.iter().step_by(6).chain(neg.iter().step_by(6)) {
        check_single_solve(&case.name, &case.program, &case.label, case.expect_reachable);
    }
}

#[test]
fn slam_driver_corpus_single_solve() {
    for (suite, cases) in workloads::slam_suites(1) {
        for case in cases.iter().take(2) {
            check_single_solve(
                &format!("{suite}/{}", case.name),
                &case.program,
                &case.label,
                case.expect_reachable,
            );
        }
    }
}

#[test]
fn terminator_corpus_single_solve() {
    for case in workloads::terminator_suite(2).iter().take(4) {
        check_single_solve(&case.name, &case.program, &case.label, case.expect_reachable);
    }
}

#[test]
fn bluetooth_conc_corpus_single_solve() {
    // Concurrent single-solve: the schedule is decoded from the verdict
    // solver's memoized `Reach` relation under both strategies.
    let conc = workloads::bluetooth(1, 1);
    let merged = merge(&conc).expect("merge");
    let pc = merged.cfg.label(&workloads::adder_err_label(0)).expect("ERR label");
    for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
        for k in 1..=3usize {
            let options = SolveOptions::with_strategy(strategy);
            let mut solver = build_conc_solver_with(&merged, &[pc], k, options)
                .unwrap_or_else(|e| panic!("k={k} {strategy}: {e}"));
            let result = check_conc_solver(&mut solver, k).unwrap_or_else(|e| panic!("k={k}: {e}"));
            let schedule = concurrent_witness_from(&mut solver, &merged, &[pc], k)
                .unwrap_or_else(|e| panic!("k={k} {strategy}: {e}"));
            assert_eq!(
                result.reachable,
                schedule.is_some(),
                "k={k} {strategy}: schedule existence disagrees with the verdict"
            );
            if let Some(s) = schedule {
                assert!(s.is_well_formed(merged.n_threads), "k={k} {strategy}: {s:?}");
                assert!(s.switches() <= k);
                assert_eq!(s.target, pc);
            }
        }
    }
}
