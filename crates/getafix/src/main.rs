//! The `getafix` command-line tool: reachability checking for sequential
//! and concurrent Boolean programs, plus formula emission.
//!
//! ```text
//! getafix check <file.bp> --label L [--algo ef-opt|ef|ef-naive|simple|bebop|moped-fwd|moped-bwd|oracle]
//!                         [--strategy worklist|round-robin] [--max-iter N] [--slice]
//!                         [--stats] [--trace] [--trace-out FILE] [--profile] [--progress] [--diag-out DIR]
//! getafix check-conc <file.cbp> --label L --switches K
//!                         [--strategy worklist|round-robin] [--max-iter N] [--slice]
//!                         [--stats] [--trace] [--trace-out FILE] [--profile] [--progress] [--diag-out DIR]
//! getafix lint <file.bp|file.cbp> [--json] [--deny]
//! getafix inspect <file.bp> [--label L] [--algo ef-opt|ef|ef-naive|simple] [--dot] [--json]
//! getafix emit-mu <file.bp> [--algo ef-opt|ef|ef-naive|simple]
//! ```
//!
//! Exit codes distinguish verdicts so scripts can branch: `0` unreachable
//! (or no verdict asked for, as with `emit-mu`), `1` reachable, `2` error,
//! `3` resource limit exceeded (`--timeout` / `--memory-budget` / Ctrl-C)
//! with the partial solver statistics still printed. A `--flag` the
//! command does not read, a repeated flag and a value flag without its
//! value are errors (exit 2), never silently ignored.

use getafix::boolprog::analysis::{lint as lint_cfg, slice as slice_cfg, AnalysisOptions};
use getafix::boolprog::{ParseError, SliceStats};
use getafix::conc::{slice_merged, ConcError, ConcLimits};
use getafix::lint::{has_warnings, render_json, render_table};
use getafix::prelude::*;
use getafix::witness::{concurrent_trace_from_schedule, WitnessError};
use getafix_core::AnalysisError;
use getafix_mucalc::{
    depgraph_dot, depgraph_json, install_sigint_cancel, LimitReport, ResourceLimits, SolveError,
    SolveOptions, SolveStats, Strategy,
};
use getafix_telemetry::{self as telemetry, Phase};
use std::process::ExitCode;

/// What a run concluded — mapped onto the process exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// A target is reachable (exit 1 — the interesting verdict).
    Reachable,
    /// No target is reachable (exit 0).
    Unreachable,
    /// The command produces no verdict (`emit-mu`, `help`; exit 0).
    NoVerdict,
    /// A resource bound tripped — deadline, memory budget, or Ctrl-C —
    /// and the run stopped cooperatively with partial statistics (exit 3).
    ResourceExhausted,
    /// `lint --deny` found a warning (exit 1, so CI can gate on a clean
    /// corpus).
    LintDenied,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Outcome::Unreachable) | Ok(Outcome::NoVerdict) => ExitCode::SUCCESS,
        Ok(Outcome::Reachable) | Ok(Outcome::LintDenied) => ExitCode::from(1),
        Ok(Outcome::ResourceExhausted) => ExitCode::from(3),
        Err(msg) => {
            eprintln!("getafix: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  getafix check <file.bp> --label L [--algo ALGO] [--strategy STRAT] [--max-iter N]
                          [--slice] [--timeout SECS] [--memory-budget MB]
                          [--stats] [--stats-json] [--trace]
                          [--trace-out FILE] [--profile] [--progress] [--diag-out DIR]
  getafix check-conc <file.cbp> --label L --switches K [--strategy STRAT] [--max-iter N]
                          [--slice] [--timeout SECS] [--memory-budget MB]
                          [--stats] [--stats-json] [--trace]
                          [--trace-out FILE] [--profile] [--progress] [--diag-out DIR]
  getafix lint <file.bp|file.cbp> [--json] [--deny]
  getafix inspect <file.bp> [--label L] [--algo ALGO] [--dot] [--json]
  getafix emit-mu <file.bp> [--algo ALGO]
  getafix help

ALGO:  ef-opt (default) | ef | ef-naive | simple | bebop | moped-fwd | moped-bwd | oracle
STRAT: worklist (default) | round-robin   -- fixed-point solver scheduling strategy
--slice: run the pre-solve static analysis (call graph, constant propagation,
         faint-variable liveness) and solve the verdict-preserving slice instead
         of the full program — dead procedures, statically-infeasible edges and
         never-read variables are deleted before encoding, so the BDD allocates
         strictly fewer variables. Verdicts are identical with and without the
         flag; a target pruned by the slice is provably unreachable and reported
         without solving. Combine with --stats for the before/after sizes.
         For `check-conc` the analysis runs in concurrent mode (shared globals
         are treated as unknown at every step), so a pruned target is
         unreachable under ANY context-switch bound
--timeout SECS: wall-clock deadline for the whole solve (fractional values
         allowed). On expiry every cooperating loop — fixpoint re-evaluations,
         explicit search, witness extraction — stops at its next poll point and
         the run exits 3 with the partial statistics collected so far. The
         GETAFIX_TIMEOUT environment variable supplies a default when the flag
         is absent. Ctrl-C (SIGINT) rides the same cancellation token: the first
         interrupt stops the solve cooperatively (exit 3, partial stats); a
         second one kills the process
--memory-budget MB: bound the BDD arena. On pressure the solver degrades
         gracefully first — forces a garbage collection, dropping computed
         caches and dead intermediates — and only if the live set itself still
         exceeds the budget does the run exit 3, with peak-arena diagnostics
         in the partial statistics
--trace: on a REACHABLE verdict, print a concrete witness. For `check`: a
         replay-validated error trace. For `check-conc`: a statement-granular
         interleaved trace — per round, every `(thread, pc, statement)` step with
         procedure names, labels, source lines and valuations, in the sequential
         trace's format — accepted by the deterministic guided replayer (one
         successor per step, no search) before printing; programs whose witnesses
         need unbounded recursion degrade to the round-level schedule. Verdict and
         witness come from ONE solve: the trace is onion-peeled from the verdict
         solver's rank provenance (for ef/ef-naive this drops the early-termination
         clause, same verdict; `simple` falls back to a dedicated witness solve)
--stats-json: print the full solver statistics as machine-readable JSON
         (re-evaluations, ordered-schedule work, provenance memory, GC reclaim);
         when a telemetry collector is active (--trace-out/--profile/--progress/
         --diag-out) a `metrics` object with the live counters/gauges is embedded
--trace-out FILE: record spans, events and kernel metrics across the whole run
         (parse, encode, strata, SCC rounds, re-evaluations, GC pauses, witness
         extraction) and write them as Chrome trace-event JSON — load the file in
         https://ui.perfetto.dev or about:tracing to see the span tree over time
--profile: print a human summary of the same recording: top spans by self time,
         a per-relation re-evaluation latency histogram, event counts and the
         \"top offenders\" table — the disjuncts doing the most recompilation work
--progress: print a throttled heartbeat to stderr while the solve runs
         (stratum k/N, re-evaluations, arena bytes, GC pauses) — cheap enough to
         leave on for long runs; the observed solve does bit-identical work
--diag-out DIR: write the whole diagnostics bundle in one shot — trace.json
         (Chrome trace), flamegraph.folded (inferno/speedscope folded stacks),
         depgraph.dot + depgraph.json (solve topology), stats.json (solver
         statistics with the metrics registry embedded) and manifest.json
         (tool version, platform, argv)
lint:    parse the program and report the pre-solve analysis as findings — dead
         procedures, never-read globals/locals/parameters, unreachable
         statements, statically infeasible branches, and asserts that never or
         always fail. `.cbp` inputs are merged and analyzed in concurrent mode.
         --json prints the machine-readable `getafix-lint/1` document instead of
         the human table; --deny exits 1 when any warning-severity finding is
         present (info findings — e.g. an assert that can never fail — never
         fail the run)
inspect: parse the program, run the solver once and report the solve topology —
         SCCs, dependency edges and schedule classification (once / chaotic /
         ordered / nested). --dot / --json print the GraphViz / JSON document
         instead of the human table

exit codes: 0 = unreachable (or no verdict requested), 1 = reachable,
            2 = error (including a --flag the command does not accept, a repeated
                flag, and a value flag given without its value),
            3 = resource limit exceeded (--timeout / --memory-budget / GETAFIX_TIMEOUT /
                Ctrl-C) -- the partial solver statistics are still printed";

/// The flags each command reads. Any other `--flag` token is rejected
/// before the command runs, so a typo or a removed flag exits 2 instead
/// of being silently ignored.
#[rustfmt::skip]
const VERB_FLAGS: &[(&str, &[&str])] = &[
    ("check", &[
        "--label", "--algo", "--strategy", "--max-iter", "--slice", "--timeout",
        "--memory-budget", "--stats", "--stats-json", "--trace", "--trace-out", "--profile",
        "--progress", "--diag-out",
    ]),
    ("check-conc", &[
        "--label", "--switches", "--strategy", "--max-iter", "--slice", "--timeout",
        "--memory-budget", "--stats", "--stats-json", "--trace", "--trace-out", "--profile",
        "--progress", "--diag-out",
    ]),
    ("lint", &["--json", "--deny"]),
    // `inspect` builds its solver through `parse_solve_options`, so it
    // reads the solver flags too.
    ("inspect", &[
        "--label", "--algo", "--dot", "--json", "--strategy", "--max-iter", "--timeout",
        "--memory-budget",
    ]),
    ("emit-mu", &["--algo"]),
    ("help", &[]),
];

/// The flags that take a value: the argument after the flag.
#[rustfmt::skip]
const VALUE_FLAGS: &[&str] = &[
    "--label", "--algo", "--strategy", "--max-iter", "--switches", "--timeout",
    "--memory-budget", "--trace-out", "--diag-out",
];

/// Rejects the first `--flag` in `args` that `verb` does not read, that
/// is given twice, or that takes a value but is last or followed by
/// another `--` token — so no flag is silently ignored, and no flag is
/// taken for another's value. Unknown verbs pass through to the
/// dispatcher's own error.
fn check_flags(verb: &str, args: &[String]) -> Result<(), String> {
    let Some((_, accepted)) = VERB_FLAGS.iter().find(|(v, _)| *v == verb) else {
        return Ok(());
    };
    for (i, flag) in args.iter().enumerate().filter(|(_, a)| a.starts_with("--")) {
        if !accepted.contains(&flag.as_str()) {
            return Err(format!("unknown flag `{flag}` for `{verb}`"));
        }
        if args[..i].contains(flag) {
            return Err(format!("repeated flag `{flag}` for `{verb}`"));
        }
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        if VALUE_FLAGS.contains(&flag.as_str()) && value.is_none() {
            return Err(format!("missing value for flag `{flag}` of `{verb}`"));
        }
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The `--trace-out` / `--profile` / `--progress` / `--diag-out`
/// observability outputs of a run.
#[derive(Debug, Default)]
struct TelemetryFlags {
    /// `--trace-out FILE`: write the recording as Chrome trace-event JSON.
    trace_out: Option<String>,
    /// `--profile`: print the top-spans/latency-histogram summary and the
    /// per-disjunct "top offenders" table.
    profile: bool,
    /// `--progress`: throttled stderr heartbeat while the solve runs.
    progress: bool,
    /// `--diag-out DIR`: write the whole diagnostics bundle into `DIR`.
    diag_out: Option<String>,
}

impl TelemetryFlags {
    fn parse(args: &[String]) -> TelemetryFlags {
        TelemetryFlags {
            trace_out: flag_value(args, "--trace-out").map(str::to_string),
            profile: has_flag(args, "--profile"),
            progress: has_flag(args, "--progress"),
            diag_out: flag_value(args, "--diag-out").map(str::to_string),
        }
    }

    fn wanted(&self) -> bool {
        self.trace_out.is_some() || self.profile || self.progress || self.diag_out.is_some()
    }

    /// Installs the thread-local collector if any output was asked for.
    /// Must run before parsing so the Parse span lands in the recording.
    /// `--progress` additionally attaches the heartbeat sink, throttled to
    /// one line per half second.
    fn install(&self) {
        if self.wanted() {
            telemetry::install();
            if self.progress {
                telemetry::attach_progress(std::time::Duration::from_millis(500), |line| {
                    eprintln!("{line}");
                });
            }
        }
    }

    /// Takes the recording and emits the requested outputs. The trace file
    /// is written even on a reachable verdict (exit 1) — the span tree is
    /// most interesting exactly when the solver did real work. `stats` is
    /// the final solver statistics when the run produced them (formula
    /// algorithms; `None` for the hand-coded baselines).
    fn finish(&self, stats: Option<&SolveStats>) -> Result<(), String> {
        if !self.wanted() {
            return Ok(());
        }
        let data = telemetry::take().ok_or("telemetry collector was not installed")?;
        if let Some(path) = &self.trace_out {
            std::fs::write(path, data.chrome_trace_json())
                .map_err(|e| format!("--trace-out {path}: {e}"))?;
            eprintln!("trace written to {path} (load in https://ui.perfetto.dev)");
        }
        if self.profile {
            println!();
            print!("{}", data.profile_summary(12));
            if let Some(offenders) = stats.map(|s| s.top_offenders(10)) {
                if !offenders.is_empty() {
                    println!();
                    print!("{offenders}");
                }
            }
        }
        if let Some(dir) = &self.diag_out {
            let stats = stats.ok_or(
                "--diag-out includes the solve topology and solver statistics; the selected \
                 algorithm did not run the fixed-point solver (use ef-opt, ef, ef-naive, simple)",
            )?;
            write_diag_bundle(dir, &data, stats)?;
        }
        Ok(())
    }
}

/// Writes the `--diag-out` bundle: everything a performance bug report
/// needs, in one directory.
fn write_diag_bundle(
    dir: &str,
    data: &telemetry::TraceData,
    stats: &SolveStats,
) -> Result<(), String> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("--diag-out {}: {e}", dir.display()))?;
    let write = |name: &str, contents: String| {
        std::fs::write(dir.join(name), contents).map_err(|e| format!("--diag-out {name}: {e}"))
    };
    write("trace.json", data.chrome_trace_json())?;
    write("flamegraph.folded", data.folded_stacks())?;
    write("depgraph.dot", depgraph_dot(stats))?;
    write("depgraph.json", depgraph_json(stats))?;
    write("stats.json", stats.to_json_with_metrics(Some(&data.metrics)))?;
    write("manifest.json", manifest_json())?;
    eprintln!("diagnostics bundle written to {}", dir.display());
    Ok(())
}

/// The bundle's `manifest.json`: enough provenance to interpret the other
/// files later — tool version, platform and the exact invocation.
fn manifest_json() -> String {
    let mut w = telemetry::json::JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "getafix-diag-manifest/1");
    w.field_str("tool", "getafix");
    w.field_str("version", env!("CARGO_PKG_VERSION"));
    w.field_str("os", std::env::consts::OS);
    w.field_str("arch", std::env::consts::ARCH);
    w.field_str("build", if cfg!(debug_assertions) { "debug" } else { "release" });
    w.key("argv");
    w.begin_array();
    for arg in std::env::args() {
        w.value_str(&arg);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Parses `--strategy` / `--max-iter` into validated solver options.
fn parse_solve_options(args: &[String]) -> Result<SolveOptions, String> {
    let mut options = SolveOptions::default();
    if let Some(s) = flag_value(args, "--strategy") {
        options.strategy = s.parse::<Strategy>()?;
    }
    if let Some(n) = flag_value(args, "--max-iter") {
        let n: usize = n.parse().map_err(|e| format!("--max-iter: {e}"))?;
        if n == 0 {
            return Err("--max-iter: the iteration bound must be at least 1 \
                        (0 would reject every fixpoint)"
                .into());
        }
        options.max_iterations = n;
    }
    // Resource governance: the deadline and node budget land on the shared
    // limits, whose cancel token doubles as the SIGINT route. The flag wins
    // over the GETAFIX_TIMEOUT default.
    let timeout = match flag_value(args, "--timeout") {
        Some(s) => Some(s.to_string()),
        None => std::env::var("GETAFIX_TIMEOUT").ok(),
    };
    if let Some(s) = timeout {
        let secs: f64 = s.trim().parse().map_err(|e| format!("--timeout: {e}"))?;
        if !secs.is_finite() || secs <= 0.0 {
            return Err("--timeout: the deadline must be a positive number of seconds".into());
        }
        options.limits = options.limits.with_timeout(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(s) = flag_value(args, "--memory-budget") {
        let mb: usize = s.parse().map_err(|e| format!("--memory-budget: {e}"))?;
        if mb == 0 {
            return Err("--memory-budget: the budget must be at least 1 MB".into());
        }
        // A live node costs ~32 bytes across the arena, unique table and
        // computed caches, so the megabyte budget becomes a node budget.
        options.limits = options.limits.with_node_budget(mb * (1024 * 1024 / 32));
    }
    Ok(options)
}

/// Which statistics outputs a run asked for.
#[derive(Debug, Clone, Copy, Default)]
struct StatsOutput {
    /// `--stats`: the human-readable tables.
    human: bool,
    /// `--stats-json`: the machine-readable JSON object
    /// ([`SolveStats::to_json`] — the same serialization the bench
    /// reporter and CI artifacts consume).
    json: bool,
}

impl StatsOutput {
    fn wanted(self) -> bool {
        self.human || self.json
    }

    fn emit(self, stats: &SolveStats, limits: &ResourceLimits) {
        if self.human {
            print_stats(stats);
            print_limits_line(limits);
        }
        if self.json {
            // With a live collector the metrics registry rides along; with
            // none the document is byte-identical to previous releases.
            match telemetry::metrics_snapshot() {
                Some(reg) => println!("{}", stats.to_json_with_metrics(Some(&reg))),
                None => println!("{}", stats.to_json()),
            }
        }
    }
}

/// Prints the per-relation and per-SCC solver statistics (`--stats`).
fn print_stats(stats: &SolveStats) {
    println!();
    println!(
        "{:<16} {:>6} {:>8} {:>10} {:>10} {:>5}",
        "relation", "iters", "re-evals", "nodes", "peak", "scc"
    );
    for (name, r) in &stats.relations {
        println!(
            "{:<16} {:>6} {:>8} {:>10} {:>10} {:>5}",
            name,
            r.iterations,
            r.reevaluations,
            r.final_nodes,
            r.peak_nodes,
            r.scc.map(|s| s.to_string()).unwrap_or_else(|| "-".into())
        );
    }
    println!();
    println!(
        "{:<5} {:<10} {:<9} {:<8} {:>8} {:>9} {:<10}  members",
        "scc", "kind", "monotone", "schedule", "evals", "wall ms", "deps"
    );
    for (i, scc) in stats.sccs.iter().enumerate() {
        println!(
            "{:<5} {:<10} {:<9} {:<8} {:>8} {:>9.2} {:<10}  {}",
            i,
            if scc.recursive { "recursive" } else { "straight" },
            if scc.monotone { "yes" } else { "no" },
            scc.schedule(),
            scc.evaluations,
            scc.wall_ms,
            deps_cell(&scc.dep_sccs),
            scc.members.join(", ")
        );
    }
    println!();
    println!("total re-evaluations: {}", stats.total_reevaluations());
    println!("ordered-schedule re-evaluations: {}", stats.ordered_reevaluations);
    if stats.provenance_nodes > 0 {
        println!("provenance memory: {} BDD nodes", stats.provenance_nodes);
    }
    if stats.gcs > 0 {
        println!(
            "gc: {} collections, {} nodes reclaimed, {:.2} ms total pause",
            stats.gcs, stats.gc_reclaimed_nodes, stats.gc_pause_ms
        );
    }
    let lookups = stats.cache_hits + stats.cache_misses;
    if lookups > 0 {
        println!(
            "bdd cache: {} hits / {} misses ({:.1}% hit rate)",
            stats.cache_hits,
            stats.cache_misses,
            100.0 * stats.cache_hits as f64 / lookups as f64
        );
    }
    println!(
        "bdd arena: {} nodes, {} bytes (peak {} bytes)",
        stats.arena_nodes, stats.arena_bytes, stats.peak_arena_bytes
    );
}

/// The `--stats` `limits:` line — what resource governance was configured
/// (none by default) and how much of it the run consumed. The per-relation
/// counters above are the work done *within* those bounds.
fn print_limits_line(limits: &ResourceLimits) {
    if !limits.any_configured() && limits.cancel.cancelled().is_none() {
        println!("limits: none");
        return;
    }
    let deadline = match limits.deadline {
        None => "-".to_string(),
        Some(d) => match d.checked_duration_since(std::time::Instant::now()) {
            Some(left) => format!("{:.1}s left", left.as_secs_f64()),
            None => "expired".to_string(),
        },
    };
    let nodes = limits.node_budget.map_or_else(|| "-".to_string(), |n| format!("{n} nodes"));
    let steps_budget = limits.step_budget.map_or_else(|| "-".to_string(), |n| n.to_string());
    let tripped = limits.cancel.cancelled().map_or_else(|| "none".to_string(), |k| k.to_string());
    println!(
        "limits: deadline {deadline}, node-budget {nodes}, step-budget {steps_budget}, \
         steps used {}, tripped: {tripped}",
        limits.cancel.steps()
    );
}

/// The exit-3 surface shared by `check` and `check-conc`: the
/// resource-limit verdict line, then the partial statistics (the solver
/// returns real counters up to the trip, not a placeholder).
fn report_limit(
    context: &str,
    report: &LimitReport,
    stats_out: StatsOutput,
    limits: &ResourceLimits,
) -> (Outcome, Option<SolveStats>) {
    println!("resource-limit: {context} — {report}");
    stats_out.emit(&report.partial, limits);
    (Outcome::ResourceExhausted, Some(report.partial.clone()))
}

/// The `deps` column of the SCC tables: the components this one reads,
/// `-` when it only reads inputs.
fn deps_cell(dep_sccs: &[usize]) -> String {
    if dep_sccs.is_empty() {
        "-".into()
    } else {
        dep_sccs.iter().map(|d| format!("{d}")).collect::<Vec<_>>().join(",")
    }
}

/// The human rendering of `getafix inspect`: the SCC table with its
/// dependency edges, plus a schedule-class census.
fn print_topology(stats: &SolveStats) {
    println!("solve topology: {} SCCs (dependencies-first order)", stats.sccs.len());
    println!();
    println!(
        "{:<5} {:<10} {:<8} {:>8} {:>9} {:>10} {:<10}  members",
        "scc", "kind", "schedule", "evals", "wall ms", "peak", "deps"
    );
    for (i, scc) in stats.sccs.iter().enumerate() {
        let peak = scc
            .members
            .iter()
            .filter_map(|m| stats.relations.get(m).map(|r| r.peak_nodes))
            .max()
            .unwrap_or(0);
        println!(
            "{:<5} {:<10} {:<8} {:>8} {:>9.2} {:>10} {:<10}  {}",
            i,
            if scc.recursive { "recursive" } else { "straight" },
            scc.schedule(),
            scc.evaluations,
            scc.wall_ms,
            peak,
            deps_cell(&scc.dep_sccs),
            scc.members.join(", ")
        );
    }
    println!();
    let census = |class: &str| stats.sccs.iter().filter(|s| s.schedule() == class).count();
    println!(
        "schedules: {} once, {} chaotic, {} ordered, {} nested — {} re-evaluations total",
        census("once"),
        census("chaotic"),
        census("ordered"),
        census("nested"),
        stats.total_reevaluations()
    );
}

/// Prints the `--slice --stats` before/after size accounting.
fn print_slice_stats(s: &SliceStats) {
    println!(
        "slice: pcs {} -> {}, edges {} -> {}, globals {} -> {}, max locals {} -> {}, \
         state bits/frame {} -> {} ({} relations pruned)",
        s.pcs_before,
        s.pcs_after,
        s.edges_before,
        s.edges_after,
        s.globals_before,
        s.globals_after,
        s.max_locals_before,
        s.max_locals_after,
        s.state_bits_before,
        s.state_bits_after,
        s.relations_pruned()
    );
}

fn run(args: &[String]) -> Result<Outcome, String> {
    let cmd = args.first().ok_or("missing command")?;
    check_flags(cmd, &args[1..])?;
    match cmd.as_str() {
        "check" => {
            let path = args.get(1).ok_or("missing input file")?;
            let label = flag_value(args, "--label").ok_or("missing --label")?;
            let algo = flag_value(args, "--algo").unwrap_or("ef-opt");
            let options = parse_solve_options(args)?;
            // Ctrl-C stops the solve at its next poll point: the verdict
            // line says `interrupted`, partial stats print, exit is 3.
            install_sigint_cancel(&options.limits.cancel);
            let solver_flags = has_flag(args, "--strategy")
                || has_flag(args, "--max-iter")
                || has_flag(args, "--timeout")
                || has_flag(args, "--memory-budget");
            let tele = TelemetryFlags::parse(args);
            if tele.diag_out.is_some()
                && matches!(algo, "bebop" | "moped-fwd" | "moped-bwd" | "oracle")
            {
                return Err(format!(
                    "--diag-out includes the solve topology and solver statistics; the `{algo}` \
                     baseline does not run the fixed-point solver (use ef-opt, ef, ef-naive, \
                     simple)"
                ));
            }
            tele.install();
            let cfg = {
                let mut span = telemetry::span(Phase::Parse, "parse");
                span.attr("file", path.as_str());
                let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let program =
                    parse_program(&src).map_err(|e| parse_error(path, &src, "check", e))?;
                Cfg::build(&program).map_err(|e| e.to_string())?
            };
            // `--slice`: solve the verdict-preserving slice instead. The
            // label is resolved on the original CFG first, so a pruned
            // target short-circuits to an `unreachable` verdict without
            // encoding anything.
            let cfg = if has_flag(args, "--slice") {
                let pc = cfg.label(label).ok_or_else(|| format!("no label `{label}`"))?;
                let sliced = {
                    let _span = telemetry::span(Phase::Encode, "slice");
                    slice_cfg(&cfg, &AnalysisOptions::sequential().with_targets(&[pc]))
                };
                if has_flag(args, "--stats") {
                    print_slice_stats(&sliced.stats);
                }
                if sliced.map_pc(pc).is_none() {
                    println!(
                        "unreachable: `{label}` — pruned by the pre-solve slice \
                         (provably unreachable)"
                    );
                    tele.finish(None)?;
                    return Ok(Outcome::Unreachable);
                }
                sliced.cfg
            } else {
                cfg
            };
            let (outcome, stats) = check_sequential(
                &cfg,
                label,
                algo,
                options,
                StatsOutput {
                    human: has_flag(args, "--stats"),
                    json: has_flag(args, "--stats-json"),
                },
                solver_flags,
                has_flag(args, "--trace"),
            )?;
            tele.finish(stats.as_ref())?;
            Ok(outcome)
        }
        "inspect" => {
            let path = args.get(1).ok_or("missing input file")?;
            let algo_name = flag_value(args, "--algo").unwrap_or("ef-opt");
            if matches!(algo_name, "bebop" | "moped-fwd" | "moped-bwd" | "oracle") {
                return Err(format!(
                    "inspect reports the fixed-point solver's dependency graph; the \
                     `{algo_name}` baseline does not run it (use ef-opt, ef, ef-naive, simple)"
                ));
            }
            let algo = parse_algo(algo_name)?;
            let options = parse_solve_options(args)?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let program = parse_program(&src).map_err(|e| parse_error(path, &src, "inspect", e))?;
            let cfg = Cfg::build(&program).map_err(|e| e.to_string())?;
            // A target label sharpens the statistics but is not needed for
            // the topology — the dependency graph is a property of the
            // encoded equation system.
            let targets = match flag_value(args, "--label") {
                Some(l) => vec![cfg.label(l).ok_or_else(|| format!("no label `{l}`"))?],
                None => Vec::new(),
            };
            let mut solver =
                build_solver_with(&cfg, &targets, algo, options).map_err(|e| e.to_string())?;
            solver.eval_query("reach").map_err(|e| e.to_string())?;
            let stats = solver.stats();
            if has_flag(args, "--dot") {
                print!("{}", depgraph_dot(stats));
            } else if has_flag(args, "--json") {
                println!("{}", depgraph_json(stats));
            } else {
                print_topology(stats);
            }
            Ok(Outcome::NoVerdict)
        }
        "check-conc" => {
            let path = args.get(1).ok_or("missing input file")?;
            let label = flag_value(args, "--label").ok_or("missing --label")?;
            let switches: usize = flag_value(args, "--switches")
                .ok_or("missing --switches")?
                .parse()
                .map_err(|e| format!("--switches: {e}"))?;
            if switches == 0 {
                return Err("--switches: the context-switch bound must be at least 1; \
                            a bound of 0 is a sequential question — use `check` on the \
                            first thread instead"
                    .into());
            }
            let options = parse_solve_options(args)?;
            // Ctrl-C stops the solve at its next poll point: the verdict
            // line says `interrupted`, partial stats print, exit is 3.
            install_sigint_cancel(&options.limits.cancel);
            let limits = options.limits.clone();
            let tele = TelemetryFlags::parse(args);
            tele.install();
            let conc = {
                let mut span = telemetry::span(Phase::Parse, "parse");
                span.attr("file", path.as_str());
                let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                parse_concurrent(&src).map_err(|e| parse_error(path, &src, "check-conc", e))?
            };
            let merged = merge(&conc).map_err(|e| e.to_string())?;
            let mut pc = merged.cfg.label(label).ok_or_else(|| format!("no label `{label}`"))?;
            // `--slice`: concurrent-mode analysis (globals are unknown at
            // every step), so a pruned target is unreachable under ANY
            // context-switch bound — not just the requested one.
            let merged = if has_flag(args, "--slice") {
                let (sliced_merged, sliced) = {
                    let _span = telemetry::span(Phase::Encode, "slice");
                    slice_merged(&merged, &[pc])
                };
                if has_flag(args, "--stats") {
                    print_slice_stats(&sliced.stats);
                }
                match sliced.map_pc(pc) {
                    Some(new_pc) => {
                        pc = new_pc;
                        sliced_merged
                    }
                    None => {
                        println!(
                            "unreachable: `{label}` within {switches} switches — pruned by the \
                             pre-solve slice (provably unreachable at any context-switch bound)"
                        );
                        tele.finish(None)?;
                        return Ok(Outcome::Unreachable);
                    }
                }
            } else {
                merged
            };
            // One solver for verdict *and* (with --trace) witness: the
            // extraction reuses the memoized `Reach` interpretation.
            let stats_out = StatsOutput {
                human: has_flag(args, "--stats"),
                json: has_flag(args, "--stats-json"),
            };
            let mut solver = build_conc_solver_with(&merged, &[pc], switches, options)
                .map_err(|e| e.to_string())?;
            let r = match check_conc_solver(&mut solver, switches) {
                Ok(r) => r,
                Err(ConcError::ResourceLimit(report)) => {
                    let (outcome, _) = report_limit(
                        &format!("`{label}` within {switches} switches"),
                        &report,
                        stats_out,
                        &limits,
                    );
                    tele.finish(Some(&report.partial))?;
                    return Ok(outcome);
                }
                Err(e) => return Err(e.to_string()),
            };
            println!(
                "{}: `{label}` within {switches} switches — Reach: {:.0} tuples, {} BDD nodes, {} iterations, {:.3}s",
                if r.reachable { "REACHABLE" } else { "unreachable" },
                r.reach_tuples,
                r.reach_nodes,
                r.iterations,
                r.solve_time.as_secs_f64()
            );
            if has_flag(args, "--trace") && r.reachable {
                let schedule = match concurrent_witness_from(&mut solver, &merged, &[pc], switches)
                {
                    Ok(s) => s.ok_or("witness extraction disagreed with the verdict")?,
                    Err(WitnessError::ResourceLimit(kind)) => {
                        println!("resource-limit: witness extraction stopped ({kind})");
                        stats_out.emit(&r.stats, &limits);
                        tele.finish(Some(&r.stats))?;
                        return Ok(Outcome::ResourceExhausted);
                    }
                    Err(e) => return Err(e.to_string()),
                };
                println!();
                // Statement-granular refinement materializes call stacks,
                // so witnesses needing unbounded recursion exceed the
                // explicit engine's limits — degrade to the round-level
                // schedule (structural guarantee only) instead of failing
                // the command.
                // The explicit refinement polls the same limits: its BFS
                // expansions count against the shared step budget/deadline.
                let refine_limits =
                    ConcLimits { resources: limits.clone(), ..ConcLimits::default() };
                match concurrent_trace_from_schedule(&merged, &[pc], &schedule, refine_limits) {
                    Ok(trace) => {
                        println!(
                            "trace ({} statement steps over {} rounds, {} of ≤ {switches} \
                             context switches, guided-replay-validated):",
                            trace.steps.len(),
                            schedule.rounds.len(),
                            schedule.switches()
                        );
                        print!("{}", trace.render(&merged.cfg));
                    }
                    Err(WitnessError::Limit(_) | WitnessError::TooManyVariables(_)) => {
                        println!(
                            "schedule ({} of ≤ {switches} context switches, structurally \
                             validated; statement refinement exceeded the explicit engine's \
                             limits):",
                            schedule.switches()
                        );
                        print!("{}", schedule.render(&merged.cfg));
                    }
                    Err(WitnessError::ResourceLimit(kind)) => {
                        println!("resource-limit: statement refinement stopped ({kind})");
                        stats_out.emit(&r.stats, &limits);
                        tele.finish(Some(&r.stats))?;
                        return Ok(Outcome::ResourceExhausted);
                    }
                    Err(e) => return Err(e.to_string()),
                }
            }
            if stats_out.wanted() {
                stats_out.emit(&r.stats, &limits);
            }
            tele.finish(Some(&r.stats))?;
            Ok(if r.reachable { Outcome::Reachable } else { Outcome::Unreachable })
        }
        "lint" => {
            let path = args.get(1).ok_or("missing input file")?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            // `.cbp` files are concurrent programs: merge the threads and
            // analyze in concurrent mode (shared globals unknown at every
            // step). Everything else parses as a sequential program.
            let findings = if path.ends_with(".cbp") {
                let conc = parse_concurrent(&src).map_err(|e| format!("{path}: {e}"))?;
                let merged = merge(&conc).map_err(|e| e.to_string())?;
                let opts =
                    AnalysisOptions::concurrent_with_entries(&merged.cfg, &merged.thread_entries);
                lint_cfg(&merged.cfg, &opts)
            } else {
                let program = parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
                let cfg = Cfg::build(&program).map_err(|e| e.to_string())?;
                lint_cfg(&cfg, &AnalysisOptions::sequential())
            };
            if has_flag(args, "--json") {
                print!("{}", render_json(path, &findings));
            } else {
                print!("{}", render_table(path, &findings));
            }
            // `--deny` maps warnings onto exit 1 so CI can gate on a clean
            // corpus; info findings never fail the run.
            Ok(if has_flag(args, "--deny") && has_warnings(&findings) {
                Outcome::LintDenied
            } else {
                Outcome::NoVerdict
            })
        }
        "emit-mu" => {
            let path = args.get(1).ok_or("missing input file")?;
            let algo = parse_algo(flag_value(args, "--algo").unwrap_or("ef-opt"))?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let program = parse_program(&src).map_err(|e| parse_error(path, &src, "emit-mu", e))?;
            let cfg = Cfg::build(&program).map_err(|e| e.to_string())?;
            let system = emit_system(&cfg, algo).map_err(|e: AnalysisError| e.to_string())?;
            println!("{system}");
            Ok(Outcome::NoVerdict)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(Outcome::NoVerdict)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The message for `verb`'s parse error `e` in file `path`. When `src`
/// is a program of the other kind — concurrent for a sequential verb,
/// sequential for `check-conc` — the positioned error is kept and the
/// message adds which kind the file is and the verb that takes it.
fn parse_error(path: &str, src: &str, verb: &str, e: ParseError) -> String {
    let other = if verb == "check-conc" {
        parse_program(src).is_ok().then_some(("sequential", "check"))
    } else {
        parse_concurrent(src).is_ok().then_some(("concurrent", "check-conc"))
    };
    match other {
        Some((kind, right)) => format!(
            "{path}: {e}; it is a {kind} program, which `getafix {right}` takes, \
             not `getafix {verb}`"
        ),
        None => format!("{path}: {e}"),
    }
}

fn parse_algo(name: &str) -> Result<Algorithm, String> {
    Ok(match name {
        "simple" => Algorithm::SummarySimple,
        "ef-naive" => Algorithm::EntryForwardNaive,
        "ef" => Algorithm::EntryForward,
        "ef-opt" => Algorithm::EntryForwardOpt,
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

/// Runs one sequential check, returning the verdict and — for formula
/// algorithms — the final solver statistics (the telemetry finisher feeds
/// them to `--profile`'s offenders table and the `--diag-out` bundle).
fn check_sequential(
    cfg: &Cfg,
    label: &str,
    algo: &str,
    options: SolveOptions,
    stats_out: StatsOutput,
    solver_flags: bool,
    trace: bool,
) -> Result<(Outcome, Option<SolveStats>), String> {
    let pc = cfg.label(label).ok_or_else(|| format!("no label `{label}`"))?;
    // The options move into the solver, but the limits clone shares the
    // same deadline and cancel token — kept for the `limits:` stats line
    // and for threading governance into witness extraction.
    let limits = options.limits.clone();
    let baseline = matches!(algo, "bebop" | "moped-fwd" | "moped-bwd" | "oracle");
    if baseline && stats_out.wanted() {
        return Err(format!(
            "--stats/--stats-json report fixed-point solver statistics; the `{algo}` baseline \
             does not run the solver (use a formula algorithm: ef-opt, ef, ef-naive, simple)"
        ));
    }
    if baseline && solver_flags {
        return Err(format!(
            "--strategy/--max-iter/--timeout/--memory-budget configure the fixed-point \
             solver; the `{algo}` baseline does not run it (use a formula algorithm: ef-opt, \
             ef, ef-naive, simple)"
        ));
    }

    // The single-solve trace path: for trace-capable formula algorithms
    // the verdict solver records provenance and the witness is peeled
    // straight out of it — exactly one solve answers "reachable?" and
    // "why?". (`simple` and the baselines fall through to the legacy
    // two-solve extraction below.)
    if trace && !baseline {
        let a = parse_algo(algo)?;
        if let Some(mut solver) =
            build_trace_solver_with(cfg, &[pc], a, options.clone()).map_err(|e| e.to_string())?
        {
            let strategy = options.strategy;
            let t0 = std::time::Instant::now();
            let reachable = match solver.eval_query("reach") {
                Ok(r) => r,
                Err(SolveError::LimitExceeded(report)) => {
                    return Ok(report_limit(&format!("`{label}`"), &report, stats_out, &limits));
                }
                Err(e) => return Err(e.to_string()),
            };
            let solve_time = t0.elapsed();
            let stats = solver.stats().clone();
            println!(
                "{}: `{label}` ({algo}) — {} re-evals ({strategy}), \
                 provenance {} nodes, solve {:.3}s [single-solve trace]",
                if reachable { "REACHABLE" } else { "unreachable" },
                stats.total_reevaluations(),
                stats.provenance_nodes,
                solve_time.as_secs_f64(),
            );
            if reachable {
                // Extraction runs under the same limits as the solve: the
                // onion-peel and path-BFS loops poll the shared token.
                let wl = WitnessLimits { resources: limits.clone(), ..WitnessLimits::default() };
                let t = match sequential_witness_from(&mut solver, cfg, &[pc], wl) {
                    Ok(t) => t.ok_or("witness extraction disagreed with the verdict")?,
                    Err(WitnessError::ResourceLimit(kind)) => {
                        println!("resource-limit: witness extraction stopped ({kind})");
                        stats_out.emit(&stats, &limits);
                        return Ok((Outcome::ResourceExhausted, Some(stats)));
                    }
                    Err(e) => return Err(e.to_string()),
                };
                println!();
                println!("trace ({} steps, replay-validated):", t.steps.len());
                print!("{}", t.render(cfg));
            }
            stats_out.emit(&stats, &limits);
            let outcome = if reachable { Outcome::Reachable } else { Outcome::Unreachable };
            return Ok((outcome, Some(stats)));
        }
    }

    let mut solver_stats = None;
    let witness_options = options.clone();
    let (reachable, detail) = match algo {
        "bebop" => {
            let r = bebop_reachable(cfg, &[pc]).map_err(|e| e.to_string())?;
            (
                r.reachable,
                format!(
                    "{} nodes, {} steps, {:.3}s",
                    r.set_nodes,
                    r.iterations,
                    r.time.as_secs_f64()
                ),
            )
        }
        "moped-fwd" => {
            let r = poststar(cfg, &[pc]).map_err(|e| e.to_string())?;
            (
                r.reachable,
                format!(
                    "{} nodes, {} rounds, {:.3}s",
                    r.set_nodes,
                    r.iterations,
                    r.time.as_secs_f64()
                ),
            )
        }
        "moped-bwd" => {
            let r = prestar(cfg, &[pc]).map_err(|e| e.to_string())?;
            (
                r.reachable,
                format!(
                    "{} nodes, {} rounds, {:.3}s",
                    r.set_nodes,
                    r.iterations,
                    r.time.as_secs_f64()
                ),
            )
        }
        "oracle" => {
            let r = explicit_reachable(cfg, &[pc], 50_000_000).map_err(|e| e.to_string())?;
            (r.reachable, format!("{} path edges", r.path_edges))
        }
        formula => {
            let a = parse_algo(formula)?;
            let strategy = options.strategy;
            let r = match check_reachability_with(cfg, &[pc], a, options) {
                Ok(r) => r,
                Err(AnalysisError::ResourceLimit(report)) => {
                    return Ok(report_limit(&format!("`{label}`"), &report, stats_out, &limits));
                }
                Err(e) => return Err(e.to_string()),
            };
            let line = format!(
                "{} summary nodes, {} iterations, {} re-evals ({strategy}), encode {:.3}s, solve {:.3}s",
                r.summary_nodes,
                r.iterations,
                r.reevaluations,
                r.encode_time.as_secs_f64(),
                r.solve_time.as_secs_f64()
            );
            solver_stats = Some(r.stats);
            (r.reachable, line)
        }
    };
    println!(
        "{}: `{label}` ({algo}) — {detail}",
        if reachable { "REACHABLE" } else { "unreachable" }
    );
    if trace && reachable {
        // Legacy fallback (baselines and `simple`): the witness engine
        // solves its own entry-forward system, so the trace is available
        // whichever algorithm produced the verdict; it is replay-validated
        // in the concrete interpreter before printing.
        let t = sequential_witness(cfg, &[pc], witness_options)
            .map_err(|e| e.to_string())?
            .ok_or("witness extraction disagreed with the verdict")?;
        println!();
        println!("trace ({} steps, replay-validated):", t.steps.len());
        print!("{}", t.render(cfg));
    }
    // Verdict line first, statistics after — same order as `check-conc`.
    if let Some(s) = &solver_stats {
        if stats_out.wanted() {
            stats_out.emit(s, &limits);
        }
    }
    let outcome = if reachable { Outcome::Reachable } else { Outcome::Unreachable };
    Ok((outcome, solver_stats))
}
