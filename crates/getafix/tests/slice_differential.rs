//! The slicer's differential contract on the shipped corpus: `--slice`
//! must never change a verdict. Every program is checked sliced and
//! unsliced across all formula algorithms and both solver strategies,
//! against the explicit oracle; enumerated summary sets on the sliced
//! program must be bit-identical across strategies (the fixpoint is
//! unique — scheduling must not show through); and sliced witnesses must
//! replay in the sliced program's concrete semantics.

use getafix::boolprog::analysis::{slice, AnalysisOptions};
use getafix::boolprog::{explicit_reachable, parse_concurrent, parse_program, replay, Cfg, Pc};
use getafix::conc::{conc_explicit_reachable, merge, slice_merged, ConcLimits};
use getafix::core::{build_solver_with, check_reachability_with, Algorithm};
use getafix::mucalc::{SolveOptions, Strategy};
use getafix::witness::sequential_witness;

/// Enumerates the main relation's summary set (sorted model list).
fn summary_set(cfg: &Cfg, target: Pc, strategy: Strategy) -> (bool, Vec<Vec<bool>>) {
    let options = SolveOptions::with_strategy(strategy);
    let algo = Algorithm::EntryForwardOpt;
    let mut solver = build_solver_with(cfg, &[target], algo, options)
        .unwrap_or_else(|e| panic!("{strategy}: {e}"));
    let verdict = solver.eval_query("reach").unwrap_or_else(|e| panic!("{strategy}: {e}"));
    let rel = algo.main_relation();
    let interp = solver.evaluate(rel).unwrap_or_else(|e| panic!("{strategy}: {e}"));
    let nparams = solver.system().relation(rel).expect("main relation").params.len();
    let mut vars = Vec::new();
    for i in 0..nparams {
        vars.extend(solver.alloc().formal(rel, i).all_vars());
    }
    (verdict, solver.manager().all_models(interp, &vars))
}

/// The full sequential contract for one program/label pair.
fn slice_agrees(src: &str, label: &str) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    let cfg = Cfg::build(&program).unwrap_or_else(|e| panic!("build: {e}\n{src}"));
    let target = cfg.label(label).unwrap_or_else(|| panic!("no label {label}"));
    let oracle = explicit_reachable(&cfg, &[target], 50_000_000).expect("oracle").reachable;

    let sliced = slice(&cfg, &AnalysisOptions::sequential().with_targets(&[target]));
    let Some(new_target) = sliced.map_pc(target) else {
        assert!(!oracle, "slicer pruned a reachable target\n{src}");
        return;
    };

    for algo in Algorithm::ALL {
        for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
            let options = SolveOptions::with_strategy(strategy);
            let full = check_reachability_with(&cfg, &[target], algo, options.clone())
                .unwrap_or_else(|e| panic!("{algo} {strategy}: {e}\n{src}"));
            let cut = check_reachability_with(&sliced.cfg, &[new_target], algo, options)
                .unwrap_or_else(|e| panic!("{algo} {strategy}: {e}\n{src}"));
            assert_eq!(
                full.reachable, oracle,
                "{algo} {strategy}: unsliced verdict vs oracle\n{src}"
            );
            assert_eq!(
                cut.reachable, full.reachable,
                "{algo} {strategy}: --slice changed the verdict\n{src}"
            );
        }
    }

    // Summary-set determinism on the sliced program: the strategy is a
    // scheduling choice; the fixpoint it reaches is unique.
    let (v0, set0) = summary_set(&sliced.cfg, new_target, Strategy::Worklist);
    let (v, set) = summary_set(&sliced.cfg, new_target, Strategy::RoundRobin);
    assert_eq!(v, v0, "round-robin: sliced verdict diverged\n{src}");
    assert_eq!(set, set0, "round-robin: sliced summary set diverged\n{src}");

    // A reachable sliced verdict must come with a replay-valid witness.
    let witness = sequential_witness(&sliced.cfg, &[new_target], SolveOptions::default())
        .unwrap_or_else(|e| panic!("witness: {e}\n{src}"));
    match witness {
        Some(trace) => {
            assert!(oracle, "sliced witness for unreachable target\n{src}");
            let check = replay(&sliced.cfg, &trace.to_replay(), &[new_target]);
            assert!(check.is_ok(), "sliced replay rejected: {check:?}\n{src}");
        }
        None => assert!(!oracle, "reachable but no sliced witness\n{src}"),
    }
}

/// The concurrent contract: bounded-round verdicts survive `--slice`.
fn conc_slice_agrees(src: &str, label: &str, switches: usize) {
    let conc = parse_concurrent(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    let merged = merge(&conc).unwrap_or_else(|e| panic!("merge: {e}\n{src}"));
    let target = merged.cfg.label(label).unwrap_or_else(|| panic!("no label {label}"));
    let oracle = conc_explicit_reachable(&merged, &[target], switches, ConcLimits::default())
        .expect("oracle");

    let (sliced_merged, s) = slice_merged(&merged, &[target]);
    let Some(new_target) = s.map_pc(target) else {
        assert!(!oracle, "slicer pruned a reachable concurrent target\n{src}");
        return;
    };
    for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
        let options = SolveOptions::with_strategy(strategy);
        let full = getafix::conc::check_merged_with(&merged, &[target], switches, options.clone())
            .unwrap_or_else(|e| panic!("{strategy}: {e}\n{src}"));
        let cut =
            getafix::conc::check_merged_with(&sliced_merged, &[new_target], switches, options)
                .unwrap_or_else(|e| panic!("{strategy}: {e}\n{src}"));
        assert_eq!(full.reachable, oracle, "{strategy}: verdict vs oracle\n{src}");
        assert_eq!(
            cut.reachable, full.reachable,
            "{strategy}: --slice changed the concurrent verdict\n{src}"
        );
    }
}

#[test]
fn shipped_sequential_examples() {
    let double_lock = include_str!("../../../examples/double_lock.bp");
    slice_agrees(double_lock, "DOUBLE_LOCK");
    let double_lock_bug = include_str!("../../../examples/double_lock_bug.bp");
    slice_agrees(double_lock_bug, "DOUBLE_LOCK");
    let dead_code = include_str!("../../../examples/dead_code.bp");
    slice_agrees(dead_code, "HIT");
    slice_agrees(dead_code, "NEVER");
}

#[test]
fn shipped_concurrent_example() {
    conc_slice_agrees(include_str!("../../../examples/handshake.cbp"), "t0__HIT", 2);
}

#[test]
fn recursion_and_dead_baggage() {
    // Mutual recursion plus every kind of prunable baggage at once: the
    // slicer must delete the baggage without disturbing the recursive
    // reachability underneath.
    slice_agrees(
        r#"
        decl g, junk;
        main() begin
          decl a, b, scratch;
          scratch := *;
          junk := scratch;
          a := *;
          call even(a);
          if (!T) then call heavy(); fi;
          if (g) then HIT: skip; fi;
        end
        even(x) begin
          if (x) then call odd(!x); else g := !g; fi;
        end
        odd(x) begin
          if (*) then call even(x); fi;
        end
        heavy() begin
          decl t;
          t := *;
          call heavy();
        end
        unused() begin
          call heavy();
        end
        "#,
        "HIT",
    );
}

#[test]
fn constant_guard_verdict_flip_candidates() {
    // Targets sitting right at the feasibility boundary: reachable only
    // through edges the constant propagation must NOT prune.
    slice_agrees(
        r#"
        decl g;
        main() begin
          decl x;
          g := F;
          call set();
          if (g) then HIT: skip; fi;
        end
        set() begin
          if (*) then g := T; fi;
        end
        "#,
        "HIT",
    );
    slice_agrees(
        r#"
        decl g;
        main() begin
          g := T;
          g := !g;
          if (g) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn concurrent_cross_thread_flow_survives() {
    // Sequentially the guard is dead (flag starts false, thread 0 never
    // sets it) — reachable only through the interleaving. Concurrent-mode
    // analysis must keep it.
    conc_slice_agrees(
        r#"
        shared flag;
        thread
          decl p;
          main() begin
            p := flag;
            if (p) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            flag := T;
            call toggle();
          end
          toggle() begin
            flag := !flag;
          end
        endthread
        "#,
        "t0__HIT",
        2,
    );
}
