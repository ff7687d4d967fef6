//! The concurrent analysis driver: merge, generate the `Reach` system for
//! `(k, n)`, install templates, evaluate, and report the Figure 3 metrics.

use crate::merge::{merge, Merged};
use crate::system::{system_conc, ConcParams};
use getafix_boolprog::{BuildError, ConcProgram, Pc};
use getafix_core::install_templates;
use getafix_mucalc::{
    eq_const, Bdd, LimitReport, SolveError, SolveOptions, SolveStats, Solver, SystemError,
};
use getafix_telemetry::{self as telemetry, Phase};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors from the concurrent driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConcError {
    /// Merging / lowering failed.
    Merge(String),
    /// Formula generation failed.
    System(String),
    /// Encoding or evaluation failed.
    Solve(String),
    /// A resource bound tripped; the boxed report keeps the partial solve
    /// statistics (equality compares the limit kind only).
    ResourceLimit(Box<LimitReport>),
    /// Unknown target label.
    NoSuchTarget(String),
}

impl fmt::Display for ConcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcError::Merge(m) => write!(f, "merge: {m}"),
            ConcError::System(m) => write!(f, "system: {m}"),
            ConcError::Solve(m) => write!(f, "solve: {m}"),
            ConcError::ResourceLimit(report) => write!(f, "solve: {report}"),
            ConcError::NoSuchTarget(l) => write!(f, "no label `{l}`"),
        }
    }
}

impl std::error::Error for ConcError {}

impl From<BuildError> for ConcError {
    fn from(e: BuildError) -> Self {
        ConcError::Merge(e.to_string())
    }
}

impl From<SystemError> for ConcError {
    fn from(e: SystemError) -> Self {
        ConcError::System(e.to_string())
    }
}

impl From<SolveError> for ConcError {
    fn from(e: SolveError) -> Self {
        match e {
            // Keep the resource error structured: stringifying would
            // discard the partial statistics the CLI reports on exit 3.
            SolveError::LimitExceeded(report) => ConcError::ResourceLimit(report),
            other => ConcError::Solve(other.to_string()),
        }
    }
}

/// Result of a bounded context-switching run: the Figure 3 row.
#[derive(Debug, Clone)]
pub struct ConcResult {
    /// Is the target reachable within the switch bound?
    pub reachable: bool,
    /// Number of tuples in the final `Reach` relation (Figure 3's
    /// "Reachable set size", reported in thousands there).
    pub reach_tuples: f64,
    /// DAG node count of the final `Reach` BDD.
    pub reach_nodes: usize,
    /// Outer fixpoint iterations.
    pub iterations: usize,
    /// Wall-clock evaluation time.
    pub solve_time: Duration,
    /// The bound used.
    pub switches: usize,
    /// Full per-relation / per-SCC solver statistics.
    pub stats: SolveStats,
}

/// Builds a ready-to-run solver for the merged program at bound `k`.
///
/// # Errors
///
/// Propagates merge/system/encoding errors.
pub fn build_conc_solver(
    merged: &Merged,
    targets: &[Pc],
    switches: usize,
) -> Result<Solver, ConcError> {
    build_conc_solver_with(merged, targets, switches, SolveOptions::default())
}

/// As [`build_conc_solver`], with explicit solver options (strategy,
/// iteration bound).
///
/// # Errors
///
/// Propagates merge/system/encoding/option errors.
pub fn build_conc_solver_with(
    merged: &Merged,
    targets: &[Pc],
    switches: usize,
    options: SolveOptions,
) -> Result<Solver, ConcError> {
    if switches == 0 {
        return Err(ConcError::System(
            "a context-switch bound of 0 is a sequential question; \
             use the sequential engine on the first thread"
                .into(),
        ));
    }
    let mut span = telemetry::span(Phase::Encode, "build_conc_solver");
    if span.is_recording() {
        span.attr("switches", switches);
        span.attr("threads", merged.n_threads);
    }
    let params = ConcParams { switches, threads: merged.n_threads };
    let system = system_conc(&merged.cfg, params)?;
    let mut solver = Solver::with_options(system, options)?;
    install_templates(&mut solver, &merged.cfg, targets)
        .map_err(|e| ConcError::Solve(e.to_string()))?;

    // InitConf(t, s): thread t's main entry, all-false locals, entry halves
    // mirroring the current halves (globals free — pinned by the context
    // that activates the thread).
    let t_inst = solver.alloc().formal("InitConf", 0).clone();
    let s_inst = solver.alloc().formal("InitConf", 1).clone();
    let t_vars = t_inst.all_vars();
    let leaf = |name: &str| s_inst.leaves_under(&[name.to_string()])[0].vars.clone();
    let (pc_v, cl_v, cg_v, ecl_v, ecg_v) =
        (leaf("pc"), leaf("cl"), leaf("cg"), leaf("ecl"), leaf("ecg"));
    let m = solver.manager();
    let mut rel = Bdd::FALSE;
    for (i, &entry) in merged.thread_entries.iter().enumerate() {
        let mut b = eq_const(m, &t_vars, i as u64);
        let p = eq_const(m, &pc_v, entry as u64);
        b = m.and(b, p);
        let zl = eq_const(m, &cl_v, 0);
        b = m.and(b, zl);
        let zel = eq_const(m, &ecl_v, 0);
        b = m.and(b, zel);
        // ecg mirrors cg.
        for (&a, &c) in ecg_v.iter().zip(&cg_v) {
            let fa = m.var(a);
            let fc = m.var(c);
            let eqb = m.iff(fa, fc);
            b = m.and(b, eqb);
        }
        rel = m.or(rel, b);
    }
    solver.set_input("InitConf", rel)?;
    Ok(solver)
}

/// Checks reachability of `targets` within `switches` context switches.
///
/// # Errors
///
/// Propagates merge/system/evaluation errors.
pub fn check_conc_reachability(
    conc: &ConcProgram,
    label: &str,
    switches: usize,
) -> Result<ConcResult, ConcError> {
    check_conc_reachability_with(conc, label, switches, SolveOptions::default())
}

/// As [`check_conc_reachability`], with explicit solver options.
///
/// # Errors
///
/// Propagates merge/system/evaluation errors.
pub fn check_conc_reachability_with(
    conc: &ConcProgram,
    label: &str,
    switches: usize,
    options: SolveOptions,
) -> Result<ConcResult, ConcError> {
    let merged = merge(conc)?;
    let pc = merged.cfg.label(label).ok_or_else(|| ConcError::NoSuchTarget(label.to_string()))?;
    check_merged_with(&merged, &[pc], switches, options)
}

/// As [`check_conc_reachability`], over an already-merged program.
///
/// # Errors
///
/// Propagates system/evaluation errors.
pub fn check_merged(
    merged: &Merged,
    targets: &[Pc],
    switches: usize,
) -> Result<ConcResult, ConcError> {
    check_merged_with(merged, targets, switches, SolveOptions::default())
}

/// As [`check_merged`], with explicit solver options.
///
/// # Errors
///
/// Propagates system/evaluation errors.
pub fn check_merged_with(
    merged: &Merged,
    targets: &[Pc],
    switches: usize,
    options: SolveOptions,
) -> Result<ConcResult, ConcError> {
    let mut solver = build_conc_solver_with(merged, targets, switches, options)?;
    check_conc_solver(&mut solver, switches)
}

/// Evaluates the `reach` query of an already-built concurrent solver (see
/// [`build_conc_solver_with`]) and reports the Figure 3 metrics. The
/// solver's memoized interpretations stay available afterwards — witness
/// extraction can reuse them instead of re-solving.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn check_conc_solver(solver: &mut Solver, switches: usize) -> Result<ConcResult, ConcError> {
    let t0 = Instant::now();
    let reachable = solver.eval_query("reach")?;
    let solve_time = t0.elapsed();
    // Count over the canonicalized relation (unused ḡ/t̄ coordinates pinned).
    let reach_tuples = solver.tuple_count("ReachCanon")?;
    let stats = solver.stats().clone();
    let main = stats.relations.get("Reach").cloned().unwrap_or_default();
    Ok(ConcResult {
        reachable,
        reach_tuples,
        reach_nodes: main.final_nodes,
        iterations: main.iterations,
        solve_time,
        switches,
        stats,
    })
}
