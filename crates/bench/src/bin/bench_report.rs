//! Machine-readable benchmark report: runs the Figure 2 workload families
//! under both solver strategies and writes `BENCH_fig2.json` — per-workload
//! wall times and relation re-evaluation counts — so the performance
//! trajectory of the scheduler can be tracked across commits by tooling
//! instead of eyeballs. A second, Figure 3 group runs the concurrent
//! pipeline end to end — merge, bounded-context-switch solve, witness
//! extraction, statement refinement, guided replay — and writes
//! `BENCH_fig3.json` with per-phase wall times plus the explicit-search
//! vs guided-replay step counts (the work the guided replayer does *not*
//! repeat).
//!
//! ```text
//! cargo run --release -p getafix-bench --bin bench-report \
//!     [-- --out PATH] [--out-fig3 PATH] [--out-bdd PATH] [--scale N] [--bits N]
//!     [--timeout SECS] [--compare BASELINE.json] [--compare-out PATH]
//!     [--max-wall-regress R] [--bdd-smoke] [--skip-fig3]
//! ```
//!
//! The whole command line is checked before any work: a mistake exits 2
//! with the argument named.
//!
//! `--timeout SECS` (env fallback `GETAFIX_TIMEOUT`) puts one wall-clock
//! deadline over the whole run: every case of every workload shares the
//! same cancellation token, so the first trip stops all in-flight solves
//! at their next poll point and the process exits 3 with the tripping
//! case's partial statistics — a hung benchmark can never wedge CI.
//!
//! `--compare BASELINE.json` diffs the fresh fig2 report against a
//! committed baseline — per-workload wall/re-eval/cache-hit/peak-arena
//! deltas printed as a table and written to `BENCH_compare.json` — and
//! fails when the total matched worklist wall time exceeds
//! `--max-wall-regress` (default 1.25) times the baseline.
//!
//! Every case runs on the calling thread, one after another, each on a
//! BDD manager of its own, so the walls compare with the committed
//! baselines, which were taken the same way.
//!
//! The JSON is emitted through [`getafix_telemetry::json::JsonWriter`]
//! (the workspace builds offline, without serde; the telemetry crate's
//! emitter is the one JSON implementation every tool shares), and every
//! per-strategy entry embeds the solver's own
//! [`SolveStats::to_json`] serialization — the same object `getafix …
//! --stats-json` prints — so this reporter *consumes* solver statistics
//! instead of re-deriving numbers:
//!
//! ```json
//! {
//!   "schema": "getafix-bench-fig2/3",
//!   "workloads": [
//!     { "name": "regression-positive", "cases": 9, "algorithm": "ef-opt",
//!       "strategies": {
//!         "worklist":    { "wall_ms": 12.3, "reevaluations": 150, "stats": { … } },
//!         "round-robin": { "wall_ms": 45.6, "reevaluations": 510, "stats": { … } } },
//!       "slice": { "vars_before": 400, "vars_after": 320, "relations_pruned": 12,
//!                  "reevaluations": 120, "wall_ms": 8.9 } },
//!     …
//!   ]
//! }
//! ```
//!
//! The `slice` object measures the pre-solve slicer on the same cases:
//! total encoded BDD variables before/after slicing, CFG relations
//! (edges + procedures) pruned, and the worklist re-evaluation count on
//! the sliced programs (compare against `strategies.worklist`). The
//! `dead-baggage` workload asserts a *strict* reduction in both variables
//! and re-evaluations on every run.

use getafix::cli;
use getafix_bench::{
    dead_baggage_cases, regression_cases, slam_cases, terminator_cases, SeqCase, CLI,
};
use getafix_boolprog::analysis::{slice, AnalysisOptions};
use getafix_boolprog::{parse_concurrent, Cfg, Pc};
use getafix_conc::{
    build_conc_solver_with, check_conc_solver, conc_refine_schedule, conc_replay_guided, merge,
    ConcError, ConcExplicitError, ConcLimits, Merged,
};
use getafix_core::{build_solver_with, check_reachability_with, Algorithm, AnalysisError};
use getafix_mucalc::{ResourceLimits, SolveError, SolveOptions, SolveStats, Strategy};
use getafix_telemetry::json::JsonWriter;
use getafix_witness::{concurrent_witness_from, WitnessError};
use std::time::Instant;

/// Terminates the run on a tripped resource limit with the documented
/// exit code 3 — distinct from a panic (broken benchmark, nonzero abort)
/// so CI can tell "out of time" from "wrong". `detail` is the tripping
/// case's error, which for solver trips carries the partial statistics
/// (re-evaluations done, peak arena bytes).
fn exit_limit(context: &str, detail: &dyn std::fmt::Display) -> ! {
    eprintln!("resource-limit: {context} — {detail}");
    eprintln!("bench-report: run aborted by resource limit; reports not written (exit 3)");
    std::process::exit(3)
}

/// One strategy's aggregate over a workload: wall time plus the absorbed
/// solver statistics of every case.
struct StrategyNumbers {
    wall_ms: f64,
    stats: SolveStats,
}

fn run_strategy(
    cases: &[SeqCase],
    algorithm: Algorithm,
    strategy: Strategy,
    limits: &ResourceLimits,
) -> StrategyNumbers {
    let t0 = Instant::now();
    let mut stats = SolveStats::default();
    for case in cases {
        let cfg = Cfg::build(&case.program).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let pc = cfg
            .label(&case.label)
            .unwrap_or_else(|| panic!("{}: no label {}", case.name, case.label));
        let mut options = SolveOptions::with_strategy(strategy);
        options.limits = limits.clone();
        let r = match check_reachability_with(&cfg, &[pc], algorithm, options) {
            Ok(r) => r,
            Err(AnalysisError::ResourceLimit(report)) => {
                exit_limit(&format!("{} ({strategy})", case.name), &report)
            }
            Err(e) => panic!("{} ({strategy}): {e}", case.name),
        };
        assert_eq!(
            r.reachable, case.expect,
            "{} ({strategy}): wrong verdict — a benchmark that measures wrong answers is worthless",
            case.name
        );
        stats.absorb(&r.stats);
    }
    StrategyNumbers { wall_ms: t0.elapsed().as_secs_f64() * 1e3, stats }
}

/// The pre-solve slicer's effect on a workload, aggregated over its
/// cases: encoded BDD variable counts before/after, CFG relations pruned,
/// and the worklist re-evaluation count on the sliced programs.
#[derive(Default)]
struct SliceNumbers {
    /// Sum of solver manager variable counts over the unsliced cases.
    vars_before: usize,
    /// Sum over the sliced cases (0 contribution when the slice proved a
    /// target unreachable and no solver was built at all).
    vars_after: usize,
    /// CFG relations removed: pruned edges plus dropped procedures.
    relations_pruned: usize,
    /// Worklist re-evaluations on the sliced cases.
    reevaluations: usize,
    wall_ms: f64,
}

fn run_slice(cases: &[SeqCase], algorithm: Algorithm, limits: &ResourceLimits) -> SliceNumbers {
    let t0 = Instant::now();
    let mut n = SliceNumbers::default();
    for case in cases {
        let cfg = Cfg::build(&case.program).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let pc = cfg
            .label(&case.label)
            .unwrap_or_else(|| panic!("{}: no label {}", case.name, case.label));
        let mut options = SolveOptions::with_strategy(Strategy::Worklist);
        options.limits = limits.clone();
        // Variable allocation happens at encode time, so the unsliced
        // count needs a build but no solve (the solves above already
        // measured the unsliced work).
        let full = build_solver_with(&cfg, &[pc], algorithm, options.clone())
            .unwrap_or_else(|e| panic!("{} (slice baseline): {e}", case.name));
        let vars_before = full.manager_ref().var_count();
        drop(full);
        let sliced = slice(&cfg, &AnalysisOptions::sequential().with_targets(&[pc]));
        let (vars_after, reevals, verdict) = match sliced.map_pc(pc) {
            Some(new_pc) => {
                let mut cut = build_solver_with(&sliced.cfg, &[new_pc], algorithm, options)
                    .unwrap_or_else(|e| panic!("{} (sliced): {e}", case.name));
                let v = match cut.eval_query("reach") {
                    Ok(v) => v,
                    Err(SolveError::LimitExceeded(report)) => {
                        exit_limit(&format!("{} (sliced)", case.name), &report)
                    }
                    Err(e) => panic!("{} (sliced): {e}", case.name),
                };
                (cut.manager_ref().var_count(), cut.stats().total_reevaluations(), v)
            }
            // Target pruned: provably unreachable, nothing to solve.
            None => (0, 0, false),
        };
        assert_eq!(
            verdict, case.expect,
            "{}: --slice changed the verdict — slicing that rewrites answers is worthless",
            case.name
        );
        n.vars_before += vars_before;
        n.vars_after += vars_after;
        n.relations_pruned += sliced.stats.relations_pruned();
        n.reevaluations += reevals;
    }
    n.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    n
}

/// One strategy's end-to-end numbers on a concurrent workload.
struct ConcNumbers {
    reachable: bool,
    solve_ms: f64,
    /// Witness pipeline wall time: schedule extraction + statement
    /// refinement + guided replay (zero on unreachable verdicts).
    witness_ms: f64,
    /// Configurations the schedule-constrained *explicit search* visited
    /// while refining (0 when unreachable).
    explicit_search_states: usize,
    /// Steps in the refined script — the guided replayer visits exactly
    /// this many successor configurations, no more.
    guided_steps: usize,
    stats: SolveStats,
}

fn run_conc(
    merged: &Merged,
    targets: &[Pc],
    switches: usize,
    strategy: Strategy,
    limits: &ResourceLimits,
) -> ConcNumbers {
    let t0 = Instant::now();
    let mut options = SolveOptions::with_strategy(strategy);
    options.limits = limits.clone();
    let mut solver = build_conc_solver_with(merged, targets, switches, options)
        .unwrap_or_else(|e| panic!("{strategy}: {e}"));
    let r = match check_conc_solver(&mut solver, switches) {
        Ok(r) => r,
        Err(ConcError::ResourceLimit(report)) => exit_limit(&strategy.to_string(), &report),
        Err(e) => panic!("{strategy}: {e}"),
    };
    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let schedule = match concurrent_witness_from(&mut solver, merged, targets, switches) {
        Ok(s) => s,
        Err(e @ WitnessError::ResourceLimit(_)) => exit_limit(&format!("{strategy}: witness"), &e),
        Err(e) => panic!("{strategy}: witness: {e}"),
    };
    assert_eq!(
        r.reachable,
        schedule.is_some(),
        "{strategy}: witness extraction disagreed with the verdict"
    );
    // The explicit refine/replay searches poll the same token as the
    // symbolic solves: one `--timeout` governs the whole pipeline.
    let conc_limits = ConcLimits { resources: limits.clone(), ..ConcLimits::default() };
    let (explicit_search_states, guided_steps) = match &schedule {
        Some(s) => {
            let rounds = s.to_replay();
            let refined = match conc_refine_schedule(merged, targets, &rounds, conc_limits.clone())
            {
                Ok(r) => r,
                Err(e @ ConcExplicitError::ResourceLimit { .. }) => {
                    exit_limit(&format!("{strategy}: refine"), &e)
                }
                Err(e) => panic!("{strategy}: refine: {e}"),
            }
            .unwrap_or_else(|| panic!("{strategy}: schedule does not refine"));
            match conc_replay_guided(merged, targets, &rounds, &refined.steps, conc_limits) {
                Ok(_) => {}
                Err(e @ ConcExplicitError::ResourceLimit { .. }) => {
                    exit_limit(&format!("{strategy}: guided replay"), &e)
                }
                Err(e) => panic!("{strategy}: guided replay: {e}"),
            }
            (refined.search_states, refined.steps.len())
        }
        None => (0, 0),
    };
    let witness_ms = t1.elapsed().as_secs_f64() * 1e3;
    ConcNumbers {
        reachable: r.reachable,
        solve_ms,
        witness_ms,
        explicit_search_states,
        guided_steps,
        stats: r.stats,
    }
}

/// The quickstart handshake model — the same file the README walkthrough
/// and CI artifacts drive, so the bench measures exactly that program.
const HANDSHAKE: &str = include_str!("../../../../examples/handshake.cbp");

/// The Figure 3 concurrent group: `(name, program, target labels,
/// switches, expected verdict)`. The Bluetooth cases are
/// [`getafix_workloads::FIG3_WITNESS_CASES`] — the thresholds the witness
/// differential suite asserts too.
fn fig3_workloads() -> Vec<(String, getafix_boolprog::ConcProgram, Vec<String>, usize, bool)> {
    use getafix_workloads::{adder_err_label, bluetooth, FIG3_WITNESS_CASES};
    let mut out = Vec::new();
    let handshake = parse_concurrent(HANDSHAKE).expect("handshake parses");
    out.push(("handshake".into(), handshake.clone(), vec!["t0__HIT".into()], 1, true));
    out.push(("handshake".into(), handshake, vec!["t0__HIT".into()], 2, true));
    for (adders, stoppers, k, expect) in FIG3_WITNESS_CASES {
        let labels: Vec<String> = (0..adders).map(adder_err_label).collect();
        out.push((
            format!("bluetooth-{adders}a{stoppers}s"),
            bluetooth(adders, stoppers),
            labels,
            k,
            expect,
        ));
    }
    out
}

/// Runs the Figure 3 concurrent group and returns the `BENCH_fig3.json`
/// payload. Verdicts are asserted against the documented thresholds —
/// a benchmark that measures wrong answers is worthless — and every
/// reachable case must refine and guided-replay.
fn fig3_report(limits: &ResourceLimits) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "getafix-bench-fig3/1");
    w.key("workloads");
    w.begin_array();
    for (name, program, labels, switches, expect) in fig3_workloads() {
        let t0 = Instant::now();
        let merged = merge(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
        let targets: Vec<Pc> = labels
            .iter()
            .map(|l| merged.cfg.label(l).unwrap_or_else(|| panic!("{name}: no label {l}")))
            .collect();
        let wl = run_conc(&merged, &targets, switches, Strategy::Worklist, limits);
        let rr = run_conc(&merged, &targets, switches, Strategy::RoundRobin, limits);
        for (strategy, n) in [("worklist", &wl), ("round-robin", &rr)] {
            assert_eq!(
                n.reachable, expect,
                "{name} k={switches} ({strategy}): wrong verdict — a benchmark that \
                 measures wrong answers is worthless"
            );
        }
        eprintln!(
            "{name} k={switches}: {} — worklist solve {:.1} ms + witness {:.1} ms \
             (explicit search {} states, guided {} steps), round-robin solve {:.1} ms",
            if expect { "REACHABLE" } else { "unreachable" },
            wl.solve_ms,
            wl.witness_ms,
            wl.explicit_search_states,
            wl.guided_steps,
            rr.solve_ms,
        );
        w.begin_object();
        w.field_str("name", &name);
        w.field_u64("switches", switches as u64);
        w.field_bool("reachable", expect);
        w.field_f64_prec("merge_ms", merge_ms, 3);
        w.key("strategies");
        w.begin_object();
        for (strategy, n) in [("worklist", &wl), ("round-robin", &rr)] {
            w.key(strategy);
            w.begin_object();
            w.field_f64_prec("solve_ms", n.solve_ms, 3);
            w.field_f64_prec("witness_ms", n.witness_ms, 3);
            w.field_u64("reevaluations", n.stats.total_reevaluations() as u64);
            w.field_u64("explicit_search_states", n.explicit_search_states as u64);
            w.field_u64("guided_steps", n.guided_steps as u64);
            w.field_raw("stats", &n.stats.to_json());
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    json
}

fn main() {
    let args = CLI.parse_env("bench-report");
    let out_path = args.text("--out").unwrap_or("BENCH_fig2.json");
    let fig3_path = args.text("--out-fig3").unwrap_or("BENCH_fig3.json");
    let bdd_path = args.text("--out-bdd").unwrap_or("BENCH_bdd.json");
    let bdd_smoke = args.has("--bdd-smoke");
    let scale: usize = args.value("--scale").unwrap_or(1);
    let bits: usize = args.value("--bits").unwrap_or(3);
    let max_ratio: f64 = args.value("--max-wall-regress").unwrap_or(1.25);
    // Every case receives a clone of these limits, so the whole run shares
    // one absolute deadline and one cancellation token: the first trip
    // stops every in-flight solve.
    let limits = ResourceLimits::default();
    let limits = match cli::timeout(&args).unwrap_or_else(|e| CLI.exit_usage("bench-report", e)) {
        Some(deadline) => limits.with_timeout(deadline),
        None => limits,
    };

    // Kernel microbenches first: they are fast, self-contained and make a
    // kernel regression visible even when a later (solver-level) group
    // panics. `--bdd-smoke` shrinks the state space for CI.
    let bdd = getafix_bench::bdd_kernel::report(bdd_smoke);
    std::fs::write(bdd_path, &bdd).unwrap_or_else(|e| panic!("{bdd_path}: {e}"));
    eprintln!("wrote {bdd_path}");

    let mut workloads: Vec<(String, Vec<SeqCase>)> = Vec::new();
    let (pos, neg) = regression_cases();
    workloads.push(("regression-positive".into(), pos));
    workloads.push(("regression-negative".into(), neg));
    for (name, cases) in slam_cases(scale) {
        workloads.push((format!("driver-{}", slug(&name)), cases));
    }
    workloads.push((format!("terminator-{bits}bit"), terminator_cases(bits)));
    workloads.push(("dead-baggage".into(), dead_baggage_cases()));

    // `ef` is a monotone fixpoint; `ef-opt` is the non-monotone §4.3
    // system running the ordered change-driven schedule — under the
    // worklist strategy *both* must now show strictly fewer re-evaluations
    // than round-robin, which the guard below enforces on every run.
    let algorithms = [Algorithm::EntryForward, Algorithm::EntryForwardOpt];
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "getafix-bench-fig2/3");
    w.field_u64("driver_scale", scale as u64);
    w.field_u64("terminator_bits", bits as u64);
    w.key("workloads");
    w.begin_array();
    let mut guard_failures: Vec<String> = Vec::new();
    for (name, cases) in &workloads {
        for algorithm in algorithms {
            let wl = run_strategy(cases, algorithm, Strategy::Worklist, &limits);
            let rr = run_strategy(cases, algorithm, Strategy::RoundRobin, &limits);
            let sl = run_slice(cases, algorithm, &limits);
            let (wl_re, rr_re) = (wl.stats.total_reevaluations(), rr.stats.total_reevaluations());
            eprintln!(
                "{name} ({algorithm}): {} cases — worklist {:.1} ms / {} re-evals \
                 ({} on ordered schedules), round-robin {:.1} ms / {} re-evals, \
                 sliced {} -> {} BDD vars / {} re-evals ({} relations pruned)",
                cases.len(),
                wl.wall_ms,
                wl_re,
                wl.stats.ordered_reevaluations,
                rr.wall_ms,
                rr_re,
                sl.vars_before,
                sl.vars_after,
                sl.reevaluations,
                sl.relations_pruned
            );
            // The slicer's own guard: on the dead-baggage workload — built
            // of nothing but prunable junk around live kernels — the slice
            // must strictly shrink both the encoded BDD variable count and
            // the worklist re-evaluation count.
            if name == "dead-baggage" {
                if sl.vars_after >= sl.vars_before {
                    guard_failures.push(format!(
                        "{name} ({algorithm}): slicing lost its BDD variable reduction \
                         ({} >= {})",
                        sl.vars_after, sl.vars_before
                    ));
                }
                if sl.reevaluations >= wl_re {
                    guard_failures.push(format!(
                        "{name} ({algorithm}): slicing lost its re-evaluation reduction \
                         ({} >= {wl_re})",
                        sl.reevaluations
                    ));
                }
            }
            // Regression guard: the scheduler must never do more work, and
            // must do *strictly less* on ef-opt — the ordered non-monotone
            // schedule's whole point. (Plain `ef` is a single-relation
            // monotone component, where both strategies run the same
            // rounds; equality is expected there.)
            if wl_re > rr_re {
                guard_failures.push(format!("{name} ({algorithm}): {wl_re} > {rr_re}"));
            } else if algorithm == Algorithm::EntryForwardOpt && wl_re >= rr_re {
                guard_failures.push(format!(
                    "{name} ({algorithm}): ordered schedule lost its strict reduction \
                     ({wl_re} >= {rr_re})"
                ));
            }
            w.begin_object();
            w.field_str("name", name);
            w.field_str("algorithm", &algorithm.to_string());
            w.field_u64("cases", cases.len() as u64);
            w.key("strategies");
            w.begin_object();
            for (strategy, n, re) in [("worklist", &wl, wl_re), ("round-robin", &rr, rr_re)] {
                w.key(strategy);
                w.begin_object();
                w.field_f64_prec("wall_ms", n.wall_ms, 3);
                w.field_u64("reevaluations", re as u64);
                w.field_raw("stats", &n.stats.to_json());
                w.end_object();
            }
            w.end_object();
            // The pre-solve slicer's effect on this workload; the sliced
            // re-evaluations compare against `strategies.worklist`.
            w.key("slice");
            w.begin_object();
            w.field_u64("vars_before", sl.vars_before as u64);
            w.field_u64("vars_after", sl.vars_after as u64);
            w.field_u64("relations_pruned", sl.relations_pruned as u64);
            w.field_u64("reevaluations", sl.reevaluations as u64);
            w.field_f64_prec("wall_ms", sl.wall_ms, 3);
            w.end_object();
            w.end_object();
        }
    }
    w.end_array();
    w.end_object();
    let mut json = w.finish();
    json.push('\n');

    std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("{out_path}: {e}"));
    eprintln!("wrote {out_path}");

    // Baseline comparison: table + artifact + the wall-clock gate.
    if let Some(baseline_path) = args.text("--compare") {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("--compare {baseline_path}: {e}"));
        let cmp = getafix_bench::compare::compare_fig2(&baseline, &json)
            .unwrap_or_else(|e| panic!("--compare: {e}"));
        eprint!("{}", cmp.render());
        let compare_out = args.text("--compare-out").unwrap_or("BENCH_compare.json");
        let mut doc = cmp.to_json();
        doc.push('\n');
        std::fs::write(compare_out, doc).unwrap_or_else(|e| panic!("{compare_out}: {e}"));
        eprintln!("wrote {compare_out}");
        cmp.gate(max_ratio).unwrap_or_else(|e| panic!("{e}"));
    }

    // `--skip-fig3` leaves the previous fig3 report untouched — handy when
    // iterating on the sequential kernel/scheduler only.
    if !args.has("--skip-fig3") {
        let fig3 = fig3_report(&limits);
        std::fs::write(fig3_path, &fig3).unwrap_or_else(|e| panic!("{fig3_path}: {e}"));
        eprintln!("wrote {fig3_path}");
    }

    assert!(
        guard_failures.is_empty(),
        "worklist scheduling regressed (no strict re-evaluation reduction) on:\n  {}",
        guard_failures.join("\n  ")
    );
}

/// Lower-cased, space-free workload slug for stable JSON names.
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect()
}
