//! The `getafix` command-line tool: reachability checking for sequential
//! and concurrent Boolean programs, plus formula emission. `getafix help`
//! prints the commands and their flags, generated from [`SPEC`].
//!
//! Exit codes distinguish verdicts so scripts can branch: `0` unreachable
//! (or no verdict asked for, as with `emit-mu`), `1` reachable, `2` error,
//! `3` resource limit exceeded (`--timeout` / `--memory-budget` / Ctrl-C)
//! with the partial solver statistics still printed. The whole command
//! line is checked before any input is read: a usage error prints the
//! usage after its message, a failed run prints only its message.

use getafix::boolprog::analysis::{lint as lint_cfg, slice as slice_cfg, AnalysisOptions};
use getafix::boolprog::{ParseError, SliceStats};
use getafix::cli::{self, Args, Flag, Spec, Usage, Value::*};
use getafix::conc::{slice_merged, ConcError};
use getafix::lint::{has_warnings, render_json, render_table};
use getafix::prelude::*;
use getafix::witness::{concurrent_trace_from_schedule, WitnessError};
use getafix_core::AnalysisError;
use getafix_mucalc::{
    depgraph_dot, depgraph_json, install_sigint_cancel, LimitKind, LimitReport, ResourceLimits,
    SolveError, SolveOptions, SolveStats, Strategy,
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, options) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(Usage(msg)) => {
            eprintln!("getafix: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args, options) {
        Ok(Outcome::Unreachable) | Ok(Outcome::NoVerdict) => ExitCode::SUCCESS,
        Ok(Outcome::Reachable) | Ok(Outcome::LintDenied) => ExitCode::from(1),
        Ok(Outcome::ResourceExhausted) => ExitCode::from(3),
        Err(msg) => {
            eprintln!("getafix: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Every algorithm `check` runs: first the formula algorithms, the
/// paper's equation systems run by the fixed-point solver, then the
/// hand-coded baselines, which do not run it.
const ALGOS: [&str; 8] =
    ["ef-opt", "ef", "ef-naive", "simple", "bebop", "moped-fwd", "moped-bwd", "oracle"];
/// The formula algorithms, the only ones `inspect` and `emit-mu` take.
const FORMULAS: &[&str] = ALGOS.split_at(4).0;
/// The baselines, which take no solver flag.
const BASELINES: &[&str] = ALGOS.split_at(4).1;
/// Why an `expect` on a required flag's value cannot fail.
const REQUIRED: &str = "the parse rejects a command line without a required flag";
/// The commands that answer a reachability question.
const RUN: &[&str] = &["check", "check-conc"];
/// The commands that run the fixed-point solver.
const SOLVE: &[&str] = &["check", "check-conc", "inspect"];

/// The `getafix` command-line contract. A new flag is one row here plus
/// its prose in [`HELP`].
static SPEC: Spec = Spec {
    program: Some("getafix"),
    commands: &[
        "check <file.bp>",
        "check-conc <file.cbp>",
        "lint <file.bp|file.cbp>",
        "inspect <file.bp>",
        "emit-mu <file.bp>",
        "help",
    ],
    flags: &[
        Flag::new("--label", Takes("L", cli::text), SOLVE).required_by(RUN),
        Flag::new("--switches", Takes("K", cli::count), &["check-conc"])
            .required_by(&["check-conc"]),
        Flag::new("--algo", OneOf("ALGO", &ALGOS), &["check"]),
        Flag::new("--algo", OneOf("ALGO", FORMULAS), &["inspect", "emit-mu"]),
        Flag::new("--strategy", Takes("STRAT", |v| v.parse::<Strategy>().map(drop)), SOLVE)
            .solver(),
        Flag::new("--max-iter", Takes("N", cli::count), SOLVE).solver(),
        Flag::new("--slice", Switch, RUN),
        Flag::new("--timeout", Takes("SECS", cli::positive), SOLVE).solver(),
        Flag::new("--memory-budget", Takes("MB", cli::count), SOLVE).solver(),
        Flag::new("--stats", Switch, RUN).solver(),
        Flag::new("--stats-json", Switch, RUN).solver(),
        Flag::new("--trace", Switch, RUN),
        Flag::new("--trace-out", Takes("FILE", cli::text), RUN),
        Flag::new("--profile", Switch, RUN),
        Flag::new("--progress", Switch, RUN),
        Flag::new("--diag-out", Takes("DIR", cli::text), RUN).solver(),
        Flag::new("--dot", Switch, &["inspect"]),
        Flag::new("--json", Switch, &["inspect", "lint"]),
        Flag::new("--deny", Switch, &["lint"]),
    ],
};

/// The text of `getafix help`, also printed after a usage error.
fn usage() -> String {
    format!("usage:\n{}\n{HELP}", SPEC.synopsis(None))
}

/// The prose of `getafix help`, after the synopsis [`SPEC`] generates.
const HELP: &str =
    "ALGO:  ef-opt (default) | ef | ef-naive | simple | bebop | moped-fwd | moped-bwd | oracle
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
         witness extraction, explicit search, guided replay — stops at its next
         poll point and the run exits 3 with the partial statistics collected so
         far. The GETAFIX_TIMEOUT environment variable supplies a default when
         the flag is absent. Ctrl-C (SIGINT) rides the same cancellation token:
         the first interrupt stops the solve cooperatively (exit 3, partial
         stats); a second one kills the process
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
         clause, same verdict). `simple` and the baselines take the witness from a
         second, ef-opt solve, peeled the same way under the same limits
--stats-json: print the full solver statistics as machine-readable JSON
         (re-evaluations, ordered-schedule work, provenance memory, GC reclaim);
         the same fields whether or not telemetry is recorded
--trace-out FILE: record spans, events and kernel time series across the whole
         run (parse, encode, strata, SCC rounds, re-evaluations, GC pauses, witness
         extraction) and write them as Chrome trace-event JSON — load the file in
         https://ui.perfetto.dev or about:tracing to see the span tree over time;
         written even when the run fails
--profile: print a human summary of the run: top spans by self time, a
         per-relation re-evaluation latency histogram, event counts and the
         \"top offenders\" table — the disjuncts doing the most recompilation work.
         Spans are added up as they close, so memory stays flat however long the
         run; printed even when the run fails
--progress: print a throttled heartbeat to stderr while the solve runs
         (stratum k/N, re-evaluations, arena bytes, GC pauses), rendered by the
         solver from its own counters — cheap enough to leave on for long runs,
         with flat memory; the observed solve does bit-identical work
--diag-out DIR: write the whole diagnostics bundle in one shot — trace.json
         (Chrome trace), flamegraph.folded (inferno/speedscope folded stacks),
         depgraph.dot + depgraph.json (solve topology), stats.json (solver
         statistics) and manifest.json (tool version, platform, argv)
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
            2 = error (a usage error prints this text after it; a failed run does not),
            3 = resource limit exceeded (--timeout / --memory-budget / GETAFIX_TIMEOUT /
                Ctrl-C) -- the partial solver statistics are still printed";

/// Checks the whole command line before any work: the flag table, the
/// rules between flags, and the solver options the flags configure.
fn parse(argv: &[String]) -> Result<(Args, SolveOptions), Usage> {
    let (command, tokens) = argv.split_first().ok_or_else(|| Usage("missing command".into()))?;
    let command = if command == "--help" || command == "-h" { "help" } else { command };
    let args = SPEC.parse(command, tokens)?;
    if let Some(algo) = args.text("--algo").filter(|a| BASELINES.contains(a)) {
        if let Some(flag) = SPEC.flags.iter().find(|f| f.solver && args.has(f.name)) {
            return Err(Usage(format!(
                "`{}` configures or reports the fixed-point solver, which the `{algo}` \
                 baseline does not run (use a formula algorithm: ef-opt, ef, ef-naive, simple)",
                flag.name
            )));
        }
    }
    if args.has("--dot") && args.has("--json") {
        return Err(Usage("`inspect` prints one document: give `--dot` or `--json`".into()));
    }
    let default = SolveOptions::default();
    let mut options = SolveOptions {
        strategy: args.value("--strategy").unwrap_or(default.strategy),
        max_iterations: args.value("--max-iter").unwrap_or(default.max_iterations),
        ..default
    };
    // Resource governance: the deadline and node budget land on the shared
    // limits, whose cancel token doubles as the SIGINT route.
    if let Some(deadline) = cli::timeout(&args)? {
        options.limits = options.limits.with_timeout(deadline);
    }
    if let Some(mb) = args.value::<usize>("--memory-budget") {
        // A live node costs ~32 bytes across the arena, unique table and
        // computed caches, so the megabyte budget becomes a node budget.
        options.limits = options.limits.with_node_budget(mb.saturating_mul(1024 * 1024 / 32));
    }
    Ok((args, options))
}

/// Takes the recording, if one was installed, and emits the requested
/// outputs. It runs on every exit path of a check: the trace file is
/// written and the profile printed on a reachable verdict (exit code 1)
/// and on a failed run too — the span tree is most interesting exactly
/// when the solver did real work. `stats` is the final solver statistics
/// when the run produced them (formula algorithms; `None` for the
/// hand-coded baselines, for a target the slice pruned and for a run that
/// `failed`).
fn finish_telemetry(args: &Args, stats: Option<&SolveStats>, failed: bool) -> Result<(), String> {
    let Some(data) = telemetry::take() else { return Ok(()) };
    if let Some(path) = args.text("--trace-out") {
        std::fs::write(path, data.chrome_trace_json())
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        eprintln!("trace written to {path} (load in https://ui.perfetto.dev)");
    }
    if args.has("--profile") {
        println!();
        print!("{}", data.profile_summary(12));
        if let Some(offenders) = stats.map(|s| s.top_offenders(10)) {
            if !offenders.is_empty() {
                println!();
                print!("{offenders}");
            }
        }
    }
    if let Some(dir) = args.text("--diag-out") {
        let stats = stats.ok_or(if failed {
            "--diag-out includes the solve topology and solver statistics, but the run failed \
             before the solver produced them"
        } else {
            "--diag-out includes the solve topology and solver statistics, but no solve ran: \
             the pre-solve slice decided the verdict"
        })?;
        write_diag_bundle(dir, &data, stats)?;
    }
    Ok(())
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
    write("stats.json", stats.to_json())?;
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

/// Prints the statistics outputs the run asked for: the `--stats` tables
/// and the `--stats-json` object ([`SolveStats::to_json`] — the same
/// serialization the bench reporter and CI artifacts consume).
fn emit_stats(args: &Args, stats: &SolveStats, limits: &ResourceLimits) {
    if args.has("--stats") {
        print_stats(stats);
        print_limits_line(limits);
    }
    if args.has("--stats-json") {
        println!("{}", stats.to_json());
    }
}

/// Prints the per-relation and per-SCC solver statistics (`--stats`).
fn print_stats(stats: &SolveStats) {
    println!();
    println!("{:<16} {:>6} {:>8} {:>10} {:>5}", "relation", "iters", "re-evals", "nodes", "scc");
    for (name, r) in &stats.relations {
        println!(
            "{:<16} {:>6} {:>8} {:>10} {:>5}",
            name,
            r.iterations,
            r.reevaluations,
            r.final_nodes,
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
    println!("delta compiles: {}", stats.delta_compiles);
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
    println!("bdd rename fallbacks: {}", stats.rename_fallbacks);
    println!(
        "bdd arena: {} nodes, {} bytes (peak {} bytes)",
        stats.arena_nodes, stats.arena_bytes, stats.peak_arena_bytes
    );
}

/// The `--stats` `limits:` line — what resource governance was configured
/// (none by default), what of the deadline is left and which bound
/// tripped. The per-relation counters above are the work done *within*
/// those bounds.
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
    let tripped = limits.cancel.cancelled().map_or_else(|| "none".to_string(), |k| k.to_string());
    println!("limits: deadline {deadline}, node-budget {nodes}, tripped: {tripped}");
}

/// The exit-3 surface of a witness step that a resource limit stopped
/// after the verdict line was printed: the stop line, then the verdict
/// run's statistics.
fn stopped(
    step: &str,
    kind: LimitKind,
    args: &Args,
    stats: Option<SolveStats>,
    limits: &ResourceLimits,
) -> (Outcome, Option<SolveStats>) {
    println!("resource-limit: {step} stopped ({kind})");
    if let Some(stats) = &stats {
        emit_stats(args, stats, limits);
    }
    (Outcome::ResourceExhausted, stats)
}

/// The exit-3 surface shared by `check` and `check-conc`: the
/// resource-limit verdict line, then the partial statistics (the solver
/// returns real counters up to the trip, not a placeholder).
fn report_limit(
    context: &str,
    report: &LimitReport,
    args: &Args,
    limits: &ResourceLimits,
) -> (Outcome, Option<SolveStats>) {
    println!("resource-limit: {context} — {report}");
    emit_stats(args, &report.partial, limits);
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
        "{:<5} {:<10} {:<8} {:>8} {:>9} {:<10}  members",
        "scc", "kind", "schedule", "evals", "wall ms", "deps"
    );
    for (i, scc) in stats.sccs.iter().enumerate() {
        println!(
            "{:<5} {:<10} {:<8} {:>8} {:>9.2} {:<10}  {}",
            i,
            if scc.recursive { "recursive" } else { "straight" },
            scc.schedule(),
            scc.evaluations,
            scc.wall_ms,
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

fn run(args: &Args, options: SolveOptions) -> Result<Outcome, String> {
    let path = args.operand.as_deref().unwrap_or_default();
    match args.command {
        "check" | "check-conc" => {
            // Ctrl-C stops the solve at its next poll point: the verdict
            // line says `interrupted`, partial stats print, exit is 3.
            install_sigint_cancel(&options.limits.cancel);
            // The collector goes in before parsing so the Parse span lands
            // in the recording. Only the exports keep raw records; the
            // profile and the heartbeat need the summary alone. `--progress`
            // attaches the heartbeat sink, throttled to one line per half
            // second.
            if args.has("--trace-out") || args.has("--diag-out") {
                telemetry::install();
            } else if args.has("--profile") || args.has("--progress") {
                telemetry::install_summary();
            }
            if args.has("--progress") {
                telemetry::attach_progress(std::time::Duration::from_millis(500), |line| {
                    eprintln!("{line}");
                });
            }
            let result = if args.command == "check" {
                check(path, args, options)
            } else {
                check_conc(path, args, options)
            };
            let stats = result.as_ref().ok().and_then(|(_, stats)| stats.as_ref());
            let finished = finish_telemetry(args, stats, result.is_err());
            match (result, finished) {
                (Ok((outcome, _)), Ok(())) => Ok(outcome),
                (Err(e), Ok(())) | (Ok(_), Err(e)) => Err(e),
                (Err(run), Err(telemetry)) => Err(format!("{run}\ngetafix: {telemetry}")),
            }
        }
        "inspect" => {
            let algo = parse_algo(args.text("--algo").unwrap_or("ef-opt"))?;
            let cfg = load_cfg(path, "inspect")?;
            // A target label sharpens the statistics but is not needed for
            // the topology — the dependency graph is a property of the
            // encoded equation system.
            let targets = match args.text("--label") {
                Some(l) => vec![cfg.label(l).ok_or_else(|| format!("no label `{l}`"))?],
                None => Vec::new(),
            };
            let mut solver =
                build_solver_with(&cfg, &targets, algo, options).map_err(|e| e.to_string())?;
            solver.eval_query("reach").map_err(|e| e.to_string())?;
            let stats = solver.stats();
            if args.has("--dot") {
                print!("{}", depgraph_dot(stats));
            } else if args.has("--json") {
                println!("{}", depgraph_json(stats));
            } else {
                print_topology(stats);
            }
            Ok(Outcome::NoVerdict)
        }
        "lint" => {
            // `.cbp` files are concurrent programs: merge the threads and
            // analyze in concurrent mode (shared globals unknown at every
            // step). Everything else parses as a sequential program.
            let findings = if path.ends_with(".cbp") {
                let conc = load_conc(path, "lint")?;
                let merged = merge(&conc).map_err(|e| e.to_string())?;
                let opts =
                    AnalysisOptions::concurrent_with_entries(&merged.cfg, &merged.thread_entries);
                lint_cfg(&merged.cfg, &opts)
            } else {
                lint_cfg(&load_cfg(path, "lint")?, &AnalysisOptions::sequential())
            };
            if args.has("--json") {
                print!("{}", render_json(path, &findings));
            } else {
                print!("{}", render_table(path, &findings));
            }
            // `--deny` maps warnings onto exit 1 so CI can gate on a clean
            // corpus; info findings never fail the run.
            Ok(if args.has("--deny") && has_warnings(&findings) {
                Outcome::LintDenied
            } else {
                Outcome::NoVerdict
            })
        }
        "emit-mu" => {
            let algo = parse_algo(args.text("--algo").unwrap_or("ef-opt"))?;
            let cfg = load_cfg(path, "emit-mu")?;
            let system = emit_system(&cfg, algo).map_err(|e: AnalysisError| e.to_string())?;
            println!("{system}");
            Ok(Outcome::NoVerdict)
        }
        _ => {
            println!("{}", usage());
            Ok(Outcome::NoVerdict)
        }
    }
}

/// Reads `path` inside the recording's parse span and hands its source
/// to `parse`.
fn load<T>(path: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    let mut span = telemetry::span(Phase::Parse, "parse");
    span.attr("file", path);
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&src)
}

/// Reads and parses the sequential program `path` for `verb` and builds
/// its CFG.
fn load_cfg(path: &str, verb: &str) -> Result<Cfg, String> {
    load(path, |src| {
        let program = parse_program(src).map_err(|e| parse_error(path, src, verb, e))?;
        Cfg::build(&program).map_err(|e| e.to_string())
    })
}

/// Reads and parses the concurrent program `path` for `verb`.
fn load_conc(path: &str, verb: &str) -> Result<ConcProgram, String> {
    load(path, |src| parse_concurrent(src).map_err(|e| parse_error(path, src, verb, e)))
}

/// The message for `verb`'s parse error `e` in file `path`. When `src`
/// is a program of the other kind, the positioned error is kept and the
/// message adds which kind the file is and how to pass it.
fn parse_error(path: &str, src: &str, verb: &str, e: ParseError) -> String {
    // The parse `verb` tried failed, so at most the other kind parses.
    let (kind, right, ext) = if parse_program(src).is_ok() {
        ("sequential", "check", "bp")
    } else if parse_concurrent(src).is_ok() {
        ("concurrent", "check-conc", "cbp")
    } else {
        return format!("{path}: {e}");
    };
    let how = match verb {
        "lint" => format!("`getafix lint` takes as a `.{ext}` file"),
        _ => format!("`getafix {right}` takes, not `getafix {verb}`"),
    };
    format!("{path}: {e}; it is a {kind} program, which {how}")
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

/// Runs `check`, returning the verdict and — for formula algorithms —
/// the final solver statistics (the telemetry finisher feeds them to
/// `--profile`'s offenders table and the `--diag-out` bundle).
fn check(
    path: &str,
    args: &Args,
    options: SolveOptions,
) -> Result<(Outcome, Option<SolveStats>), String> {
    let label = args.text("--label").expect(REQUIRED);
    let cfg = load_cfg(path, "check")?;
    // `--slice`: solve the verdict-preserving slice instead. The label is
    // resolved on the original CFG first, so a pruned target
    // short-circuits to an `unreachable` verdict without encoding
    // anything.
    let cfg = if args.has("--slice") {
        let pc = cfg.label(label).ok_or_else(|| format!("no label `{label}`"))?;
        let sliced = {
            let _span = telemetry::span(Phase::Encode, "slice");
            slice_cfg(&cfg, &AnalysisOptions::sequential().with_targets(&[pc]))
        };
        if args.has("--stats") {
            print_slice_stats(&sliced.stats);
        }
        if sliced.map_pc(pc).is_none() {
            println!(
                "unreachable: `{label}` — pruned by the pre-solve slice (provably unreachable)"
            );
            return Ok((Outcome::Unreachable, None));
        }
        sliced.cfg
    } else {
        cfg
    };
    let algo = args.text("--algo").unwrap_or("ef-opt");
    let cfg = &cfg;
    let pc = cfg.label(label).ok_or_else(|| format!("no label `{label}`"))?;
    // The options move into the solver, but the limits clone shares the
    // same deadline and cancel token — kept for the `limits:` stats line
    // and for threading governance into witness extraction.
    let limits = options.limits.clone();
    let trace = args.has("--trace");
    let witness_options = options.clone();

    // The single-solve trace path: for trace-capable formula algorithms
    // the verdict solver records provenance and the witness is peeled
    // straight out of it — exactly one solve answers "reachable?" and
    // "why?". `simple` and the baselines answer the verdict their own way
    // and peel the witness from an ef-opt trace solver afterwards.
    let mut trace_solver = match parse_algo(algo) {
        Ok(a) if trace => {
            build_trace_solver_with(cfg, &[pc], a, options.clone()).map_err(|e| e.to_string())?
        }
        _ => None,
    };
    let (reachable, detail, solver_stats) = if let Some(solver) = &mut trace_solver {
        let t0 = std::time::Instant::now();
        let reachable = match solver.eval_query("reach") {
            Ok(r) => r,
            Err(SolveError::LimitExceeded(report)) => {
                return Ok(report_limit(&format!("`{label}`"), &report, args, &limits));
            }
            Err(e) => return Err(e.to_string()),
        };
        let stats = solver.stats().clone();
        let detail = format!(
            "{} re-evals ({}), provenance {} nodes, solve {:.3}s [single-solve trace]",
            stats.total_reevaluations(),
            options.strategy,
            stats.provenance_nodes,
            t0.elapsed().as_secs_f64(),
        );
        (reachable, detail, Some(stats))
    } else {
        match algo {
            "bebop" => {
                let r = bebop_reachable(cfg, &[pc]).map_err(|e| e.to_string())?;
                let detail = format!(
                    "{} nodes, {} steps, {:.3}s",
                    r.set_nodes,
                    r.iterations,
                    r.time.as_secs_f64()
                );
                (r.reachable, detail, None)
            }
            "moped-fwd" | "moped-bwd" => {
                let run = if algo == "moped-fwd" { poststar } else { prestar };
                let r = run(cfg, &[pc]).map_err(|e| e.to_string())?;
                let detail = format!(
                    "{} nodes, {} rounds, {:.3}s",
                    r.set_nodes,
                    r.iterations,
                    r.time.as_secs_f64()
                );
                (r.reachable, detail, None)
            }
            "oracle" => {
                let r = explicit_reachable(cfg, &[pc], 50_000_000).map_err(|e| e.to_string())?;
                (r.reachable, format!("{} path edges", r.path_edges), None)
            }
            formula => {
                let a = parse_algo(formula)?;
                let strategy = options.strategy;
                let r = match check_reachability_with(cfg, &[pc], a, options) {
                    Ok(r) => r,
                    Err(AnalysisError::ResourceLimit(report)) => {
                        return Ok(report_limit(&format!("`{label}`"), &report, args, &limits));
                    }
                    Err(e) => return Err(e.to_string()),
                };
                let detail = format!(
                    "{} summary nodes, {} iterations, {} re-evals ({strategy}), encode {:.3}s, \
                     solve {:.3}s",
                    r.summary_nodes,
                    r.iterations,
                    r.reevaluations,
                    r.encode_time.as_secs_f64(),
                    r.solve_time.as_secs_f64()
                );
                (r.reachable, detail, Some(r.stats))
            }
        }
    };
    println!(
        "{}: `{label}` ({algo}) — {detail}",
        if reachable { "REACHABLE" } else { "unreachable" }
    );
    if trace && reachable {
        // One extraction for every algorithm, under the solve's limits:
        // the onion-peel and path-BFS loops poll the shared token. The
        // witness is replay-validated in the concrete interpreter before
        // printing.
        let mut solver = match trace_solver {
            Some(solver) => solver,
            None => {
                build_trace_solver_with(cfg, &[pc], Algorithm::EntryForwardOpt, witness_options)
                    .map_err(|e| e.to_string())?
                    .ok_or("ef-opt has no trace-capable system")?
            }
        };
        let t = match sequential_witness_from(&mut solver, cfg, &[pc], limits.clone()) {
            Ok(t) => t.ok_or("witness extraction disagreed with the verdict")?,
            Err(WitnessError::ResourceLimit(kind)) => {
                return Ok(stopped("witness extraction", kind, args, solver_stats, &limits));
            }
            Err(e) => return Err(e.to_string()),
        };
        println!();
        println!("trace ({} steps, replay-validated):", t.steps.len());
        print!("{}", t.render(cfg));
    }
    // Verdict line first, statistics after — same order as `check-conc`.
    if let Some(s) = &solver_stats {
        emit_stats(args, s, &limits);
    }
    let outcome = if reachable { Outcome::Reachable } else { Outcome::Unreachable };
    Ok((outcome, solver_stats))
}

/// Runs `check-conc`, returning the verdict and the final solver
/// statistics.
fn check_conc(
    path: &str,
    args: &Args,
    options: SolveOptions,
) -> Result<(Outcome, Option<SolveStats>), String> {
    let label = args.text("--label").expect(REQUIRED);
    let switches: usize = args.value("--switches").expect(REQUIRED);
    let limits = options.limits.clone();
    let conc = load_conc(path, "check-conc")?;
    let merged = merge(&conc).map_err(|e| e.to_string())?;
    let mut pc = merged.cfg.label(label).ok_or_else(|| format!("no label `{label}`"))?;
    // `--slice`: concurrent-mode analysis (globals are unknown at
    // every step), so a pruned target is unreachable under ANY
    // context-switch bound — not just the requested one.
    let merged = if args.has("--slice") {
        let (sliced_merged, sliced) = {
            let _span = telemetry::span(Phase::Encode, "slice");
            slice_merged(&merged, &[pc])
        };
        if args.has("--stats") {
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
                return Ok((Outcome::Unreachable, None));
            }
        }
    } else {
        merged
    };
    // One solver for verdict *and* (with --trace) witness: the
    // extraction reuses the memoized `Reach` interpretation.
    let mut solver =
        build_conc_solver_with(&merged, &[pc], switches, options).map_err(|e| e.to_string())?;
    let r = match check_conc_solver(&mut solver, switches) {
        Ok(r) => r,
        Err(ConcError::ResourceLimit(report)) => {
            let context = format!("`{label}` within {switches} switches");
            return Ok(report_limit(&context, &report, args, &limits));
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
    if args.has("--trace") && r.reachable {
        let schedule = match concurrent_witness_from(&mut solver, &merged, &[pc], switches) {
            Ok(s) => s.ok_or("witness extraction disagreed with the verdict")?,
            Err(WitnessError::ResourceLimit(kind)) => {
                return Ok(stopped("witness extraction", kind, args, Some(r.stats), &limits));
            }
            Err(e) => return Err(e.to_string()),
        };
        println!();
        // Statement-granular refinement materializes call stacks,
        // so witnesses needing unbounded recursion exceed the
        // explicit engine's limits — degrade to the round-level
        // schedule (structural guarantee only) instead of failing
        // the command. Refinement and guided replay poll the same
        // limits as the solve.
        match concurrent_trace_from_schedule(&merged, &[pc], &schedule, limits.clone()) {
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
                return Ok(stopped("statement refinement", kind, args, Some(r.stats), &limits));
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    emit_stats(args, &r.stats, &limits);
    let outcome = if r.reachable { Outcome::Reachable } else { Outcome::Unreachable };
    Ok((outcome, Some(r.stats)))
}
