//! The public analysis driver: pick an algorithm, point it at a program,
//! get a reachability verdict plus the statistics Figure 2 reports.

use crate::encode::{install_templates, EncodeError};
use crate::systems::{system_ef, system_ef_trace, system_efopt, system_simple};
use getafix_boolprog::{Cfg, Pc};
use getafix_mucalc::{
    LimitReport, SolveError, SolveOptions, SolveStats, Solver, System, SystemError,
};
use getafix_telemetry::{self as telemetry, Phase};
use std::fmt;
use std::time::{Duration, Instant};

/// The reachability algorithms of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// §4.1 — classical summaries seeded at *every* entry (explores
    /// unreachable space; the E8 ablation baseline).
    SummarySimple,
    /// §4.2 — entry-forward summaries, return clause as one conjunction
    /// (the pre-rewrite form; the E7 ablation baseline).
    EntryForwardNaive,
    /// §4.2 — entry-forward summaries with the appendix's split return
    /// clause (the `EF` column of Figure 2).
    EntryForward,
    /// §4.3 — the optimized entry-forward algorithm with frontier bit and
    /// `Relevant` pc projection (the `EF opt` column of Figure 2).
    EntryForwardOpt,
}

impl Algorithm {
    /// All algorithms, for sweeps.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::SummarySimple,
        Algorithm::EntryForwardNaive,
        Algorithm::EntryForward,
        Algorithm::EntryForwardOpt,
    ];

    /// The relation whose fixpoint the algorithm computes.
    pub fn main_relation(self) -> &'static str {
        match self {
            Algorithm::SummarySimple => "Summary",
            Algorithm::EntryForwardNaive | Algorithm::EntryForward => "Reachable",
            Algorithm::EntryForwardOpt => "SummaryEFopt",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Algorithm::SummarySimple => "summary-simple",
            Algorithm::EntryForwardNaive => "ef-naive",
            Algorithm::EntryForward => "ef",
            Algorithm::EntryForwardOpt => "ef-opt",
        };
        write!(f, "{s}")
    }
}

/// Errors from the analysis driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// Formula generation failed.
    System(String),
    /// Template encoding failed.
    Encode(String),
    /// Fixpoint evaluation failed.
    Solve(String),
    /// A resource bound tripped (deadline, node budget or an external
    /// cancellation). Kept structured — unlike
    /// [`AnalysisError::Solve`]'s stringified surface — so the CLI can
    /// print the partial statistics and exit with the dedicated resource
    /// code. Equality compares the limit kind only.
    ResourceLimit(Box<LimitReport>),
    /// No pc matches the requested target.
    NoSuchTarget(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::System(m) => write!(f, "system: {m}"),
            AnalysisError::Encode(m) => write!(f, "encode: {m}"),
            AnalysisError::Solve(m) => write!(f, "solve: {m}"),
            AnalysisError::ResourceLimit(report) => write!(f, "solve: {report}"),
            AnalysisError::NoSuchTarget(l) => write!(f, "no label `{l}` in the program"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<SystemError> for AnalysisError {
    fn from(e: SystemError) -> Self {
        AnalysisError::System(e.to_string())
    }
}

impl From<EncodeError> for AnalysisError {
    fn from(e: EncodeError) -> Self {
        AnalysisError::Encode(e.to_string())
    }
}

impl From<SolveError> for AnalysisError {
    fn from(e: SolveError) -> Self {
        match e {
            // Keep the resource error structured: stringifying would
            // discard the partial statistics the CLI reports on exit 3.
            SolveError::LimitExceeded(report) => AnalysisError::ResourceLimit(report),
            other => AnalysisError::Solve(other.to_string()),
        }
    }
}

/// The verdict and statistics of one reachability run.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// Is any target pc reachable?
    pub reachable: bool,
    /// DAG node count of the final summary/reachable-set BDD — the
    /// `#Nodes in BDD` column of Figure 2.
    pub summary_nodes: usize,
    /// Outer fixpoint iterations of the main relation.
    pub iterations: usize,
    /// Total relation re-evaluations (body compilations) across the whole
    /// system — the scheduling-quality measure the worklist strategy
    /// minimizes.
    pub reevaluations: usize,
    /// Wall-clock time of evaluation (excluding parsing/encoding).
    pub solve_time: Duration,
    /// Wall-clock time of template encoding.
    pub encode_time: Duration,
    /// The algorithm used.
    pub algorithm: Algorithm,
    /// Full per-relation / per-SCC solver statistics.
    pub stats: SolveStats,
}

/// Generates the equation system for `algorithm` over `cfg` (exposed so
/// callers can pretty-print "the page of formulae").
///
/// # Errors
///
/// Propagates formula-generation errors.
pub fn emit_system(cfg: &Cfg, algorithm: Algorithm) -> Result<System, AnalysisError> {
    Ok(match algorithm {
        Algorithm::SummarySimple => system_simple(cfg)?,
        Algorithm::EntryForwardNaive => system_ef(cfg, false)?,
        Algorithm::EntryForward => system_ef(cfg, true)?,
        Algorithm::EntryForwardOpt => system_efopt(cfg)?,
    })
}

/// The *trace-capable* variant of an algorithm's system: one whose main
/// relation, solved with provenance recording, can be onion-peeled into a
/// concrete witness by `getafix-witness` — so a `--trace` run performs
/// exactly **one** solve for verdict and evidence.
///
/// * `ef-opt` is trace-capable as-is: the frontier-bit construction has no
///   early-termination clause, so `SummaryEFopt(1, ·)` at the fixpoint is
///   the precise entry-annotated reachable set.
/// * `ef` / `ef-naive` drop their early-termination disjunct
///   ([`system_ef_trace`]): same verdict, a few more rounds, and a
///   `Reachable` fixpoint that *is* the provenance structure.
/// * `simple` returns `None`: its all-entries seeding explores unreachable
///   invocations, so its summaries carry no entry-reachability provenance
///   to peel — callers fall back to a dedicated witness solve.
///
/// # Errors
///
/// Propagates formula-generation errors.
pub fn emit_trace_system(cfg: &Cfg, algorithm: Algorithm) -> Result<Option<System>, AnalysisError> {
    Ok(match algorithm {
        Algorithm::SummarySimple => None,
        Algorithm::EntryForwardNaive => Some(system_ef_trace(cfg, false)?),
        Algorithm::EntryForward => Some(system_ef_trace(cfg, true)?),
        Algorithm::EntryForwardOpt => Some(system_efopt(cfg)?),
    })
}

/// Builds a ready-to-run solver for a single-solve `--trace` run: the
/// trace-capable system of `algorithm` (see [`emit_trace_system`]) with
/// provenance recording forced on and templates installed. `None` when the
/// algorithm has no trace-capable formulation.
///
/// # Errors
///
/// Propagates generation, encoding and option-validation errors.
pub fn build_trace_solver_with(
    cfg: &Cfg,
    targets: &[Pc],
    algorithm: Algorithm,
    options: SolveOptions,
) -> Result<Option<Solver>, AnalysisError> {
    let mut span = telemetry::span(Phase::Encode, "build_trace_solver");
    span.attr("algorithm", algorithm.to_string());
    let Some(system) = emit_trace_system(cfg, algorithm)? else {
        return Ok(None);
    };
    let options = SolveOptions { record_provenance: true, ..options };
    let mut solver = Solver::with_options(system, options)?;
    install_templates(&mut solver, cfg, targets)?;
    Ok(Some(solver))
}

/// Builds a ready-to-run solver with default options: system generated,
/// templates installed.
///
/// # Errors
///
/// Propagates generation and encoding errors.
pub fn build_solver(
    cfg: &Cfg,
    targets: &[Pc],
    algorithm: Algorithm,
) -> Result<Solver, AnalysisError> {
    build_solver_with(cfg, targets, algorithm, SolveOptions::default())
}

/// As [`build_solver`], with explicit solver options (strategy, iteration
/// bound).
///
/// # Errors
///
/// Propagates generation, encoding and option-validation errors.
pub fn build_solver_with(
    cfg: &Cfg,
    targets: &[Pc],
    algorithm: Algorithm,
    options: SolveOptions,
) -> Result<Solver, AnalysisError> {
    let mut span = telemetry::span(Phase::Encode, "build_solver");
    span.attr("algorithm", algorithm.to_string());
    let system = emit_system(cfg, algorithm)?;
    let mut solver = Solver::with_options(system, options)?;
    install_templates(&mut solver, cfg, targets)?;
    Ok(solver)
}

/// Checks whether any pc in `targets` is reachable, using `algorithm` and
/// the default solver options.
///
/// # Errors
///
/// Propagates generation, encoding and evaluation errors.
pub fn check_reachability(
    cfg: &Cfg,
    targets: &[Pc],
    algorithm: Algorithm,
) -> Result<AnalysisResult, AnalysisError> {
    check_reachability_with(cfg, targets, algorithm, SolveOptions::default())
}

/// As [`check_reachability`], with explicit solver options.
///
/// # Errors
///
/// Propagates generation, encoding and evaluation errors.
pub fn check_reachability_with(
    cfg: &Cfg,
    targets: &[Pc],
    algorithm: Algorithm,
    options: SolveOptions,
) -> Result<AnalysisResult, AnalysisError> {
    let t0 = Instant::now();
    let mut solver = build_solver_with(cfg, targets, algorithm, options)?;
    let encode_time = t0.elapsed();
    let t1 = Instant::now();
    let reachable = solver.eval_query("reach")?;
    let solve_time = t1.elapsed();
    let rel = algorithm.main_relation();
    let stats = solver.stats().clone();
    let main = stats.relations.get(rel).cloned().unwrap_or_default();
    Ok(AnalysisResult {
        reachable,
        summary_nodes: main.final_nodes,
        iterations: main.iterations,
        reevaluations: stats.total_reevaluations(),
        solve_time,
        encode_time,
        algorithm,
        stats,
    })
}

/// Checks reachability of a named label.
///
/// # Errors
///
/// [`AnalysisError::NoSuchTarget`] when the label does not exist, plus the
/// usual generation/evaluation errors.
pub fn check_label(
    cfg: &Cfg,
    label: &str,
    algorithm: Algorithm,
) -> Result<AnalysisResult, AnalysisError> {
    let pc = cfg.label(label).ok_or_else(|| AnalysisError::NoSuchTarget(label.to_string()))?;
    check_reachability(cfg, &[pc], algorithm)
}
