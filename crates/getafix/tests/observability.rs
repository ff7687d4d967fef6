//! End-to-end observability tests: the traces the telemetry collector
//! records over real checks must be structurally sound (spans nest
//! properly, the Chrome export parses), must actually cover the solve —
//! the span tree accounts for ≥95% of `evaluate`'s wall time — and must
//! never perturb the run being observed: the solver does bit-identical
//! work with the collector on and off.
//!
//! The collector is thread-local and every `#[test]` runs on its own
//! thread, so tests install and drain collectors without interfering.

use getafix::prelude::*;
use getafix::telemetry;
use getafix::telemetry::json::Value;

/// The README quickstart program (a recursive double-lock bug).
const QUICKSTART: &str = include_str!("../../../examples/double_lock_bug.bp");

/// The README concurrent handshake (two threads, a shared flag).
const HANDSHAKE: &str = include_str!("../../../examples/handshake.cbp");

/// One sequential check of the quickstart program under `strategy`,
/// returning its statistics.
fn run_quickstart(strategy: Strategy) -> getafix::mucalc::SolveStats {
    run_quickstart_with(SolveOptions::with_strategy(strategy))
}

/// One sequential check of the quickstart program under `options`.
fn run_quickstart_with(options: SolveOptions) -> getafix::mucalc::SolveStats {
    let program = parse_program(QUICKSTART).expect("quickstart parses");
    let cfg = Cfg::build(&program).expect("quickstart builds");
    let pc = cfg.label("DOUBLE_LOCK").expect("label exists");
    let r = check_reachability_with(&cfg, &[pc], Algorithm::EntryForwardOpt, options)
        .expect("check succeeds");
    assert!(r.reachable, "the quickstart bug is reachable");
    r.stats
}

/// One concurrent check of the handshake under `strategy`.
fn run_handshake(strategy: Strategy) {
    let conc = parse_concurrent(HANDSHAKE).expect("handshake parses");
    let r =
        check_conc_reachability_with(&conc, "t0__HIT", 2, SolveOptions::with_strategy(strategy))
            .expect("conc check succeeds");
    assert!(r.reachable, "the handshake hit is reachable within 2 switches");
}

#[test]
fn sequential_trace_is_well_formed_under_both_strategies() {
    for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
        telemetry::install();
        run_quickstart(strategy);
        let data = telemetry::take().expect("collector was installed");
        data.check_well_formed()
            .unwrap_or_else(|e| panic!("malformed trace under {strategy}: {e}"));
        assert!(
            data.spans.iter().any(|s| s.name == "parse" || s.name == "build_solver"),
            "{strategy}: encode/parse spans missing"
        );
        assert!(
            data.spans.iter().any(|s| s.name == "reeval" || s.name == "round"),
            "{strategy}: no per-evaluation spans recorded"
        );
        let json = data.chrome_trace_json();
        let v = telemetry::json::parse(&json)
            .unwrap_or_else(|e| panic!("{strategy}: chrome trace does not parse: {e}"));
        let events = v.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
        assert!(!events.is_empty(), "{strategy}: empty trace");
    }
}

#[test]
fn concurrent_trace_is_well_formed_under_both_strategies() {
    for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
        telemetry::install();
        run_handshake(strategy);
        let data = telemetry::take().expect("collector was installed");
        data.check_well_formed()
            .unwrap_or_else(|e| panic!("malformed conc trace under {strategy}: {e}"));
        for required in ["merge", "build_conc_solver", "evaluate"] {
            assert!(
                data.spans.iter().any(|s| s.name == required),
                "{strategy}: span `{required}` missing from the concurrent trace"
            );
        }
        assert!(
            telemetry::json::parse(&data.chrome_trace_json()).is_ok(),
            "{strategy}: conc chrome trace does not parse"
        );
    }
}

/// The acceptance measure: the span tree under the longest `evaluate`
/// span accounts for at least 95% of its wall time, so a Perfetto view
/// of the solve has no unexplained gaps.
#[test]
fn solve_span_tree_covers_the_solve() {
    telemetry::install();
    run_quickstart(Strategy::Worklist);
    let data = telemetry::take().expect("collector was installed");
    let coverage = data.coverage_of("evaluate").expect("an evaluate span exists");
    assert!(coverage >= 0.95, "solve span tree covers only {:.1}% of evaluate", coverage * 100.0);
}

/// The zero-overhead contract, behavioral half: observing a solve must
/// not change it. Re-evaluation counts, iteration counts and final node
/// counts are bit-identical with the collector on and off.
#[test]
fn collector_does_not_perturb_the_solve() {
    for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
        let off = run_quickstart(strategy);
        telemetry::install();
        let on = run_quickstart(strategy);
        let data = telemetry::take().expect("collector was installed");
        assert!(!data.spans.is_empty(), "{strategy}: the observed run recorded nothing");

        assert_eq!(
            off.total_reevaluations(),
            on.total_reevaluations(),
            "{strategy}: collector changed the re-evaluation count"
        );
        assert_eq!(
            off.ordered_reevaluations, on.ordered_reevaluations,
            "{strategy}: collector changed the ordered re-evaluation count"
        );
        assert_eq!(off.relations.len(), on.relations.len());
        for (name, r_off) in &off.relations {
            let r_on = &on.relations[name];
            assert_eq!(r_off.iterations, r_on.iterations, "{strategy}: {name} iterations");
            assert_eq!(r_off.reevaluations, r_on.reevaluations, "{strategy}: {name} re-evals");
            assert_eq!(r_off.final_nodes, r_on.final_nodes, "{strategy}: {name} final nodes");
        }
        for (s_off, s_on) in off.sccs.iter().zip(&on.sccs) {
            assert_eq!(s_off.evaluations, s_on.evaluations, "{strategy}: scc evaluations");
            assert_eq!(s_off.ordered, s_on.ordered, "{strategy}: scc schedule choice");
        }
    }
}

/// The profile renderer runs on a real trace and mentions the things the
/// `--profile` flag promises: span groups, the latency histogram, events.
#[test]
fn profile_summary_renders_a_real_trace() {
    telemetry::install();
    run_quickstart(Strategy::Worklist);
    let data = telemetry::take().expect("collector was installed");
    let summary = data.profile_summary(12);
    assert!(summary.contains("solve/"), "no span groups:\n{summary}");
    assert!(summary.contains("re-eval latency"), "no histogram:\n{summary}");
}

/// The flamegraph acceptance measure: the folded stacks rooted at the
/// longest `evaluate` span weigh at least 95% of its wall time — self-time
/// weighting partitions every span's duration across the stack lines, so
/// nothing the solver did is missing from the flamegraph.
#[test]
fn folded_stacks_cover_the_solve() {
    telemetry::install();
    run_quickstart(Strategy::Worklist);
    let data = telemetry::take().expect("collector was installed");
    let folded = data.folded_stacks();
    let stacks = telemetry::parse_folded(&folded).expect("folded output validates");
    assert!(!stacks.is_empty(), "no stacks recorded");

    // Evaluate spans never nest inside each other, so their summed
    // durations are the total solve wall time the stacks must account for.
    let evaluate_us: u64 =
        data.spans.iter().filter(|s| s.name == "evaluate").map(|s| s.dur_us()).sum();
    assert!(evaluate_us > 0, "an evaluate span exists");
    let rooted = telemetry::rooted_weight(&folded, "evaluate");
    assert!(
        rooted as f64 >= 0.95 * evaluate_us as f64,
        "folded stacks cover only {rooted} of {evaluate_us} µs under `evaluate`"
    );
}

/// `--progress` must observe without perturbing: with a zero-interval
/// heartbeat attached (every instrumentation point beats), the solver
/// does bit-identical work and the sink actually received beats.
#[test]
fn progress_sink_does_not_perturb_the_solve() {
    use std::cell::Cell;
    use std::rc::Rc;

    for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
        let off = run_quickstart(strategy);

        telemetry::install();
        let beats = Rc::new(Cell::new(0usize));
        let sink = Rc::clone(&beats);
        assert!(telemetry::attach_progress(std::time::Duration::ZERO, move |_| {
            sink.set(sink.get() + 1);
        }));
        let on = run_quickstart(strategy);
        telemetry::take().expect("collector was installed");

        assert!(beats.get() > 0, "{strategy}: the heartbeat never fired");
        assert_eq!(
            off.total_reevaluations(),
            on.total_reevaluations(),
            "{strategy}: the progress sink changed the re-evaluation count"
        );
        assert_eq!(off.ordered_reevaluations, on.ordered_reevaluations, "{strategy}");
        for (name, r_off) in &off.relations {
            let r_on = &on.relations[name];
            assert_eq!(r_off.iterations, r_on.iterations, "{strategy}: {name} iterations");
            assert_eq!(r_off.reevaluations, r_on.reevaluations, "{strategy}: {name} re-evals");
            assert_eq!(r_off.final_nodes, r_on.final_nodes, "{strategy}: {name} final nodes");
        }
    }
}

/// The stratum position and re-evaluation figure of one `--progress`
/// line, after checking the line's format: `[{secs:6.1}s]`, then optional
/// ` stratum k/n`, then ` · `-separated sections, each optional but in
/// this order: `N re-evals`, `arena X.Y MiB` and `gc N (X.Y ms)`. Absent
/// re-evals are 0.
fn parse_heartbeat(line: &str) -> (Option<(usize, usize)>, usize) {
    let (time, rest) = line.split_once("s]").unwrap_or_else(|| panic!("no time: {line:?}"));
    let time = time.strip_prefix('[').unwrap_or_else(|| panic!("no `[`: {line:?}"));
    assert_eq!(time.len(), 6, "time not 6 wide: {line:?}");
    time.trim().parse::<f64>().unwrap_or_else(|e| panic!("time {time:?}: {e}"));
    let mut sections = rest.split(" · ");
    let head = sections.next().unwrap_or_default();
    let stratum = head.strip_prefix(" stratum ").map(|position| {
        let (done, total) = position.split_once('/').expect("stratum k/n");
        let (done, total): (usize, usize) = (done.parse().unwrap(), total.parse().unwrap());
        // A beat is offered inside a stratum, which is not done yet.
        assert!(done < total, "{line:?}");
        (done, total)
    });
    assert!(stratum.is_some() || head.is_empty(), "unexpected head in {line:?}");
    let decimal = |s: &str| {
        let (whole, tenths) = s.split_once('.').unwrap_or_else(|| panic!("{s:?} in {line:?}"));
        assert!(
            tenths.len() == 1 && (whole.to_owned() + tenths).parse::<u64>().is_ok(),
            "{line:?}"
        );
    };
    let (mut reevals, mut order) = (0, 0);
    for section in sections {
        let rank = if let Some(n) = section.strip_suffix(" re-evals") {
            reevals = n.parse().unwrap_or_else(|e| panic!("re-evals {n:?}: {e}"));
            1
        } else if let Some(mib) = section.strip_prefix("arena ") {
            decimal(mib.strip_suffix(" MiB").expect("MiB"));
            2
        } else if let Some(gc) = section.strip_prefix("gc ") {
            let (n, pause) = gc.split_once(" (").expect("gc N (X ms)");
            n.parse::<u64>().unwrap_or_else(|e| panic!("gc count {n:?}: {e}"));
            decimal(pause.strip_suffix(" ms)").expect("ms)"));
            3
        } else {
            panic!("unknown section {section:?} in {line:?}")
        };
        assert!(rank > order, "sections out of order in {line:?}");
        order = rank;
    }
    (stratum, reevals)
}

/// The lines a zero-interval progress sink receives while `run` runs,
/// and what `run` returned.
fn beats<T>(run: impl FnOnce() -> T) -> (Vec<String>, T) {
    use std::cell::RefCell;
    use std::rc::Rc;

    telemetry::install_summary();
    let lines: Rc<RefCell<Vec<String>>> = Rc::default();
    let sink = Rc::clone(&lines);
    assert!(telemetry::attach_progress(std::time::Duration::ZERO, move |l| {
        sink.borrow_mut().push(l.to_string());
    }));
    let out = run();
    telemetry::take().expect("collector was installed");
    let lines = lines.borrow().clone();
    (lines, out)
}

/// The heartbeat the solver renders at its poll point: with a
/// zero-interval sink every step beats, every line has the documented
/// format, and its re-evaluation figure starts at 0, never decreases and
/// never exceeds the solve's final total. Collecting at every boundary
/// (worklist only) brings the GC section in, and the handshake's cone of
/// several strata shows them counted as they finish.
#[test]
fn heartbeat_reevals_grow_up_to_the_final_total() {
    for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
        let options =
            SolveOptions { gc_threshold: Some(0), ..SolveOptions::with_strategy(strategy) };
        let (lines, stats) = beats(|| run_quickstart_with(options));
        assert!(!lines.is_empty(), "{strategy}: the heartbeat never fired");
        let parsed: Vec<_> = lines.iter().map(|l| parse_heartbeat(l)).collect();
        let reevals: Vec<usize> = parsed.iter().map(|&(_, r)| r).collect();
        assert_eq!(reevals[0], 0, "{strategy}: the first step comes before any re-evaluation");
        assert!(reevals.windows(2).all(|w| w[0] <= w[1]), "{strategy}: {reevals:?}");
        let last = *reevals.last().expect("beats");
        assert!(last > 0 && last <= stats.total_reevaluations(), "{strategy}: {last}");
        let worklist = strategy == Strategy::Worklist;
        assert!(parsed.iter().all(|(s, _)| s.is_some() == worklist), "{strategy}: {lines:?}");
        assert_eq!(lines.iter().any(|l| l.contains(" · gc ")), worklist, "{strategy}: {lines:?}");
    }
    let (lines, ()) = beats(|| run_handshake(Strategy::Worklist));
    let done = lines.iter().filter_map(|l| parse_heartbeat(l).0).map(|(done, _)| done);
    assert!(done.max() > Some(0), "no stratum finished: {lines:?}");
}

/// One accounting path: the solver's GC counters are copies of the
/// kernel's, which does the collecting, after a solve that collects at
/// every boundary.
#[test]
fn solve_stats_gc_counters_are_the_kernels() {
    let program = parse_program(QUICKSTART).expect("quickstart parses");
    let cfg = Cfg::build(&program).expect("quickstart builds");
    let pc = cfg.label("DOUBLE_LOCK").expect("label exists");
    let options = SolveOptions { gc_threshold: Some(0), ..SolveOptions::new() };
    let mut solver =
        build_solver_with(&cfg, &[pc], Algorithm::EntryForwardOpt, options).expect("solver builds");
    assert!(solver.eval_query("reach").expect("solves"), "the quickstart bug is reachable");
    let (stats, kernel) = (solver.stats(), solver.manager_ref().stats());
    assert!(kernel.gcs > 0, "a 0-node threshold must force collections");
    assert_eq!(stats.gcs as u64, kernel.gcs);
    assert_eq!(stats.gc_reclaimed_nodes as u64, kernel.gc_reclaimed_nodes);
    assert_eq!(stats.gc_pause_ms, kernel.gc_pause_ms);
}
