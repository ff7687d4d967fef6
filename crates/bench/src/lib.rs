//! Shared runners for the benchmark harness: each function reproduces one
//! row family of the paper's evaluation and returns structured results the
//! binaries print as the paper's tables.

pub mod bdd_kernel;
pub mod compare;

use getafix::cli::{self, Flag, Spec, Value::*};
use getafix_bebop::bebop_reachable;
use getafix_boolprog::{Cfg, Pc, Program};
use getafix_conc::{check_merged, merge, Merged};
use getafix_core::{check_reachability, check_reachability_with, Algorithm};
use getafix_mucalc::{SolveOptions, Strategy};
use getafix_pds::{poststar, prestar};
use getafix_workloads as workloads;
use std::time::Duration;

/// The values `fig2 --suite` accepts.
pub const SUITES: [&str; 4] = ["all", "regression", "slam", "terminator"];
/// The flags only `bench-report` reads.
const REPORT: &[&str] = &["bench-report"];

/// The command-line contract of the benchmark binaries, each a command
/// of its own that parses with [`Spec::parse_env`].
pub static CLI: Spec = Spec {
    program: None,
    commands: &["bench-report", "fig2", "fig3", "ablation_seq", "ablation_conc"],
    flags: &[
        Flag::new("--out", Takes("PATH", cli::text), REPORT),
        Flag::new("--out-fig3", Takes("PATH", cli::text), REPORT),
        Flag::new("--out-bdd", Takes("PATH", cli::text), REPORT),
        Flag::new("--suite", OneOf("SUITE", &SUITES), &["fig2"]),
        Flag::new("--scale", Takes("N", cli::whole), &["fig2"]),
        Flag::new("--bits", Takes("N", cli::whole), &["fig2", "ablation_seq"]),
        Flag::new("--max-k", Takes("K", cli::whole), &["fig3", "ablation_conc"]),
        Flag::new("--timeout", Takes("SECS", cli::positive), REPORT),
        Flag::new("--compare", Takes("BASELINE.json", cli::text), REPORT),
        Flag::new("--compare-out", Takes("PATH", cli::text), REPORT),
        Flag::new("--bdd-smoke", Switch, REPORT),
        Flag::new("--skip-fig3", Switch, REPORT),
    ],
};

/// One Figure 2 row (possibly aggregated over a sub-suite).
#[derive(Debug, Clone, Default)]
pub struct Fig2Row {
    /// Suite / program name.
    pub name: String,
    /// Programs aggregated into this row.
    pub programs: usize,
    /// Average non-blank LOC.
    pub loc: f64,
    /// Max return values (average across programs).
    pub ret: f64,
    /// Max parameters (average).
    pub params: f64,
    /// Globals (average).
    pub globals: f64,
    /// Total locals (average).
    pub locals: f64,
    /// Max locals per procedure (average).
    pub max_locals: f64,
    /// Procedures (average).
    pub procedures: f64,
    /// Expected verdict (all programs in a row share it).
    pub reachable: bool,
    /// Average final summary BDD nodes (from EF-opt).
    pub nodes: f64,
    /// Average times per engine.
    pub ef: Duration,
    /// EF-opt time.
    pub ef_opt: Duration,
    /// Forward PDS baseline time.
    pub moped1: Duration,
    /// Backward PDS baseline time.
    pub moped2: Duration,
    /// Worklist baseline time.
    pub bebop: Duration,
}

/// A named case: program + target label + expected verdict.
#[derive(Debug, Clone)]
pub struct SeqCase {
    /// Case name.
    pub name: String,
    /// The program.
    pub program: Program,
    /// Target label.
    pub label: String,
    /// Expected verdict.
    pub expect: bool,
}

/// Runs all five engines on a set of cases and aggregates a Figure 2 row.
///
/// # Panics
///
/// Panics if any engine errs or disagrees with the expected verdict — a
/// benchmark that measures wrong answers is worthless.
pub fn run_fig2_row(name: &str, cases: &[SeqCase]) -> Fig2Row {
    let mut row = Fig2Row { name: name.to_string(), programs: cases.len(), ..Fig2Row::default() };
    assert!(!cases.is_empty());
    row.reachable = cases[0].expect;
    let n = cases.len() as f64;
    for case in cases {
        let md = case.program.metadata();
        row.loc += case.program.loc() as f64 / n;
        row.ret += md.max_returns as f64 / n;
        row.params += md.max_params as f64 / n;
        row.globals += md.globals as f64 / n;
        row.locals += md.total_locals as f64 / n;
        row.max_locals += md.max_locals as f64 / n;
        row.procedures += md.procedures as f64 / n;

        let cfg = Cfg::build(&case.program).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let pc = cfg
            .label(&case.label)
            .unwrap_or_else(|| panic!("{}: no label {}", case.name, case.label));

        let ef = check_reachability(&cfg, &[pc], Algorithm::EntryForward)
            .unwrap_or_else(|e| panic!("{} ef: {e}", case.name));
        assert_eq!(ef.reachable, case.expect, "{} (ef)", case.name);
        row.ef += Duration::from_secs_f64((ef.encode_time + ef.solve_time).as_secs_f64() / n);

        let efo = check_reachability(&cfg, &[pc], Algorithm::EntryForwardOpt)
            .unwrap_or_else(|e| panic!("{} ef-opt: {e}", case.name));
        assert_eq!(efo.reachable, case.expect, "{} (ef-opt)", case.name);
        row.ef_opt += Duration::from_secs_f64((efo.encode_time + efo.solve_time).as_secs_f64() / n);
        row.nodes += efo.summary_nodes as f64 / n;

        let m1 = poststar(&cfg, &[pc]).unwrap_or_else(|e| panic!("{} post*: {e}", case.name));
        assert_eq!(m1.reachable, case.expect, "{} (post*)", case.name);
        row.moped1 += Duration::from_secs_f64(m1.time.as_secs_f64() / n);

        let m2 = prestar(&cfg, &[pc]).unwrap_or_else(|e| panic!("{} pre*: {e}", case.name));
        assert_eq!(m2.reachable, case.expect, "{} (pre*)", case.name);
        row.moped2 += Duration::from_secs_f64(m2.time.as_secs_f64() / n);

        let bb =
            bebop_reachable(&cfg, &[pc]).unwrap_or_else(|e| panic!("{} bebop: {e}", case.name));
        assert_eq!(bb.reachable, case.expect, "{} (bebop)", case.name);
        row.bebop += Duration::from_secs_f64(bb.time.as_secs_f64() / n);
    }
    row
}

/// Prints the Figure 2 table header.
pub fn print_fig2_header() {
    println!(
        "{:<22} {:>4} {:>7} {:>4} {:>6} {:>4} {:>6} {:>5} {:>5} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "suite", "#", "LOC", "ret", "param", "gl", "loc", "maxl", "proc", "Reach?", "EF", "EFopt",
        "moped1", "moped2", "bebop"
    );
    println!("{}", "-".repeat(130));
}

/// Prints one Figure 2 row.
pub fn print_fig2_row(r: &Fig2Row) {
    println!(
        "{:<22} {:>4} {:>7.0} {:>4.1} {:>6.1} {:>4.1} {:>6.1} {:>5.1} {:>5.1} {:>6} {:>7.0}ms {:>7.0}ms {:>7.0}ms {:>7.0}ms {:>7.0}ms",
        r.name,
        r.programs,
        r.loc,
        r.ret,
        r.params,
        r.globals,
        r.locals,
        r.max_locals,
        r.procedures,
        if r.reachable { "Yes" } else { "No" },
        r.ef.as_secs_f64() * 1e3,
        r.ef_opt.as_secs_f64() * 1e3,
        r.moped1.as_secs_f64() * 1e3,
        r.moped2.as_secs_f64() * 1e3,
        r.bebop.as_secs_f64() * 1e3,
    );
}

/// The regression rows (positive and negative).
pub fn regression_cases() -> (Vec<SeqCase>, Vec<SeqCase>) {
    let (pos, neg) = workloads::regression_suite();
    let conv = |cs: Vec<workloads::Case>| -> Vec<SeqCase> {
        cs.into_iter()
            .map(|c| SeqCase {
                name: c.name,
                program: c.program,
                label: c.label,
                expect: c.expect_reachable,
            })
            .collect()
    };
    (conv(pos), conv(neg))
}

/// The SLAM driver rows at a given scale.
pub fn slam_cases(scale: usize) -> Vec<(String, Vec<SeqCase>)> {
    workloads::slam_suites(scale)
        .into_iter()
        .map(|(name, cs)| {
            let cases = cs
                .into_iter()
                .map(|c| SeqCase {
                    name: c.name,
                    program: c.program,
                    label: c.label,
                    expect: c.expect_reachable,
                })
                .collect();
            (name, cases)
        })
        .collect()
}

/// The dead-baggage rows: live kernels wrapped in prunable junk, the
/// workload the pre-solve slicer is measured on.
pub fn dead_baggage_cases() -> Vec<SeqCase> {
    workloads::dead_baggage_suite()
        .into_iter()
        .map(|c| SeqCase {
            name: c.name,
            program: c.program,
            label: c.label,
            expect: c.expect_reachable,
        })
        .collect()
}

/// The Terminator rows at a given counter width.
pub fn terminator_cases(bits: usize) -> Vec<SeqCase> {
    workloads::terminator_suite(bits)
        .into_iter()
        .map(|c| SeqCase {
            name: c.name,
            program: c.program,
            label: c.label,
            expect: c.expect_reachable,
        })
        .collect()
}

/// Work done by each solver strategy on the same cases: total relation
/// re-evaluations (body compilations), the scheduling-quality measure of
/// the worklist engine.
#[derive(Debug, Clone, Default)]
pub struct StrategyComparison {
    /// Total re-evaluations under [`Strategy::RoundRobin`].
    pub round_robin: usize,
    /// Total re-evaluations under [`Strategy::Worklist`].
    pub worklist: usize,
    /// Cases where the strategies disagreed with each other *or* with the
    /// expected verdict (must stay empty — the worklist engine is only a
    /// scheduler, and both strategies must match the construction).
    pub verdict_mismatches: Vec<String>,
}

/// Runs `algorithm` on every case under both strategies and accumulates
/// total re-evaluations; verdicts are cross-checked against each other and
/// the expectation.
///
/// # Panics
///
/// Panics if either strategy errs.
pub fn compare_strategies(cases: &[SeqCase], algorithm: Algorithm) -> StrategyComparison {
    let mut cmp = StrategyComparison::default();
    for case in cases {
        let cfg = Cfg::build(&case.program).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let pc = cfg
            .label(&case.label)
            .unwrap_or_else(|| panic!("{}: no label {}", case.name, case.label));
        let rr = check_reachability_with(
            &cfg,
            &[pc],
            algorithm,
            SolveOptions::with_strategy(Strategy::RoundRobin),
        )
        .unwrap_or_else(|e| panic!("{} rr: {e}", case.name));
        let wl = check_reachability_with(
            &cfg,
            &[pc],
            algorithm,
            SolveOptions::with_strategy(Strategy::Worklist),
        )
        .unwrap_or_else(|e| panic!("{} wl: {e}", case.name));
        cmp.round_robin += rr.reevaluations;
        cmp.worklist += wl.reevaluations;
        if rr.reachable != wl.reachable || rr.reachable != case.expect {
            cmp.verdict_mismatches.push(case.name.clone());
        }
    }
    cmp
}

/// One Figure 3 row: a configuration at one switch bound.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Switch bound.
    pub switches: usize,
    /// Verdict.
    pub reachable: bool,
    /// `Reach` tuple count.
    pub reach_tuples: f64,
    /// `Reach` BDD nodes.
    pub reach_nodes: usize,
    /// Solve time.
    pub time: Duration,
}

/// Runs one Bluetooth configuration across `1..=max_k` switches.
///
/// # Panics
///
/// Panics on engine errors.
pub fn run_fig3_config(adders: usize, stoppers: usize, max_k: usize) -> (Merged, Vec<Fig3Row>) {
    let conc = workloads::bluetooth(adders, stoppers);
    let merged = merge(&conc).expect("merge");
    let targets: Vec<Pc> = (0..adders)
        .map(|i| merged.cfg.label(&workloads::adder_err_label(i)).expect("ERR label"))
        .collect();
    let rows = (1..=max_k)
        .map(|k| {
            let r = check_merged(&merged, &targets, k).unwrap_or_else(|e| panic!("k={k}: {e}"));
            Fig3Row {
                switches: k,
                reachable: r.reachable,
                reach_tuples: r.reach_tuples,
                reach_nodes: r.reach_nodes,
                time: r.solve_time,
            }
        })
        .collect();
    (merged, rows)
}
