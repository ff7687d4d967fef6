//! Differential testing: every symbolic algorithm must agree with the
//! explicit-state oracle on every program, reachable or not.
//!
//! This is the workspace's primary correctness argument: four independent
//! fixed-point formulations (simple summaries, naive EF, split EF, EFopt)
//! evaluated through the generic solver, checked pointwise against a
//! dead-simple explicit worklist engine.

use getafix_boolprog::{explicit_reachable, parse_program, Cfg, Pc};
use getafix_core::{build_solver_with, check_reachability, Algorithm};
use getafix_mucalc::{SolveOptions, Strategy};

/// Runs `algo` under one strategy and returns (verdict, the main relation's
/// interpretation as an explicit model list, total re-evaluations). The two
/// strategies use separate managers, so the interpretation is enumerated —
/// equal BDD sizes would not prove equal *sets*.
fn run_strategy(
    cfg: &Cfg,
    target: Pc,
    algo: Algorithm,
    strategy: Strategy,
) -> (bool, Vec<Vec<bool>>, usize) {
    let mut solver = build_solver_with(cfg, &[target], algo, SolveOptions::with_strategy(strategy))
        .unwrap_or_else(|e| panic!("{algo} {strategy}: {e}"));
    let verdict = solver.eval_query("reach").unwrap_or_else(|e| panic!("{algo} {strategy}: {e}"));
    let rel = algo.main_relation();
    let interp = solver.evaluate(rel).unwrap_or_else(|e| panic!("{algo} {strategy}: {e}"));
    let nparams = solver.system().relation(rel).expect("main relation").params.len();
    let mut vars = Vec::new();
    for i in 0..nparams {
        vars.extend(solver.alloc().formal(rel, i).all_vars());
    }
    let models = solver.manager().all_models(interp, &vars);
    (verdict, models, solver.stats().total_reevaluations())
}

fn verdicts_agree(src: &str, label: &str) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    let cfg = Cfg::build(&program).unwrap_or_else(|e| panic!("build: {e}\n{src}"));
    let target = cfg.label(label).unwrap_or_else(|| panic!("no label {label}"));
    let oracle = explicit_reachable(&cfg, &[target], 5_000_000).expect("oracle").reachable;
    for algo in Algorithm::ALL {
        // Every algorithm under both solver strategies: same verdict as the
        // oracle, the same summary *set* (enumerated — variable allocation
        // is deterministic, so model vectors are comparable across the two
        // solvers), and the worklist engine never doing more work.
        let (rr_verdict, rr_set, rr_work) = run_strategy(&cfg, target, algo, Strategy::RoundRobin);
        let (wl_verdict, wl_set, wl_work) = run_strategy(&cfg, target, algo, Strategy::Worklist);
        assert_eq!(rr_verdict, oracle, "{algo} (round-robin) vs oracle\n{src}");
        assert_eq!(wl_verdict, oracle, "{algo} (worklist) vs oracle\n{src}");
        assert_eq!(rr_set, wl_set, "{algo}: strategies computed different summary sets\n{src}");
        assert!(
            wl_work <= rr_work,
            "{algo}: worklist re-evaluated more ({wl_work} > {rr_work})\n{src}"
        );
    }
}

#[test]
fn straight_line_positive() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          g := T;
          if (g) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn straight_line_negative() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          g := F;
          if (g) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn nondet_branch() {
    verdicts_agree(
        r#"
        main() begin
          decl x;
          x := *;
          if (x) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn call_return_values() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          decl x;
          x := id(T);
          if (x) then HIT: skip; fi;
        end
        id(a) returns 1 begin
          return a;
        end
        "#,
        "HIT",
    );
    verdicts_agree(
        r#"
        decl g;
        main() begin
          decl x;
          x := id(F);
          if (x) then HIT: skip; fi;
        end
        id(a) returns 1 begin
          return a;
        end
        "#,
        "HIT",
    );
}

#[test]
fn multi_return_values() {
    verdicts_agree(
        r#"
        main() begin
          decl x, y;
          x, y := swap(T, F);
          if (!x & y) then HIT: skip; fi;
        end
        swap(a, b) returns 2 begin
          return b, a;
        end
        "#,
        "HIT",
    );
}

#[test]
fn globals_across_calls() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          call set();
          if (g) then HIT: skip; fi;
        end
        set() begin
          g := T;
        end
        "#,
        "HIT",
    );
}

#[test]
fn locals_saved_across_calls() {
    verdicts_agree(
        r#"
        main() begin
          decl x;
          x := F;
          call clobber();
          if (x) then HIT: skip; fi;
        end
        clobber() begin
          decl x;
          x := T;
        end
        "#,
        "HIT",
    );
}

#[test]
fn recursion_parity() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          call rec();
          if (g) then HIT: skip; fi;
        end
        rec() begin
          if (*) then
            g := !g;
            call rec();
          fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn recursion_with_argument() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          call f(F);
          if (g) then HIT: skip; fi;
        end
        f(depth) begin
          if (!depth) then
            call f(T);
          else
            g := T;
          fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn unreachable_deep_in_recursion() {
    verdicts_agree(
        r#"
        decl g, h;
        main() begin
          g := F;
          h := F;
          call walk();
          if (g & h) then HIT: skip; fi;
        end
        walk() begin
          if (*) then
            g := T;
            h := !g;
            call walk();
          fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn while_loop_convergence() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          decl x;
          x := T;
          while (x) do
            x := *;
            g := g | !x;
          od;
          if (g) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn assume_prunes() {
    verdicts_agree(
        r#"
        main() begin
          decl x;
          x := *;
          assume (!x);
          if (x) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn schoose_semantics() {
    verdicts_agree(
        r#"
        main() begin
          decl x;
          x := schoose [F, T];
          if (x) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
    verdicts_agree(
        r#"
        main() begin
          decl x;
          x := schoose [F, F];
          if (x) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn dead_is_havoc() {
    verdicts_agree(
        r#"
        main() begin
          decl x;
          x := F;
          dead x;
          if (x) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn goto_skips_code() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          g := F;
          goto SKIP;
          g := T;
          SKIP: skip;
          if (g) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn parallel_assignment_swap() {
    verdicts_agree(
        r#"
        decl a, b;
        main() begin
          a := T;
          b := F;
          a, b := b, a;
          if (!a & b) then HIT: skip; fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn mutual_recursion() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          call even();
          if (g) then HIT: skip; fi;
        end
        even() begin
          if (*) then call odd(); fi;
        end
        odd() begin
          g := T;
          if (*) then call even(); fi;
        end
        "#,
        "HIT",
    );
}

#[test]
fn return_value_from_global_context() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          decl x;
          g := T;
          x := readg();
          g := F;
          if (x & !g) then HIT: skip; fi;
        end
        readg() returns 1 begin
          return g;
        end
        "#,
        "HIT",
    );
}

#[test]
fn callee_modifies_global_and_returns() {
    verdicts_agree(
        r#"
        decl g;
        main() begin
          decl x;
          x := flip();
          if (x = g) then HIT: skip; fi;
        end
        flip() returns 1 begin
          g := !g;
          return !g;
        end
        "#,
        "HIT",
    );
}

// ---------------------------------------------------------------------------
// Randomized differential testing with a small seeded program generator.
// ---------------------------------------------------------------------------

/// A tiny xorshift generator so the corpus is deterministic without
/// depending on rand's stability guarantees.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn rand_expr(rng: &mut Rng, vars: &[&str], depth: usize) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(4) {
            0 => "T".to_string(),
            1 => "F".to_string(),
            2 => "*".to_string(),
            _ => vars[rng.below(vars.len() as u64) as usize].to_string(),
        };
    }
    match rng.below(4) {
        0 => format!("!({})", rand_expr(rng, vars, depth - 1)),
        1 => format!("({} & {})", rand_expr(rng, vars, depth - 1), rand_expr(rng, vars, depth - 1)),
        2 => format!("({} | {})", rand_expr(rng, vars, depth - 1), rand_expr(rng, vars, depth - 1)),
        _ => format!("({} = {})", rand_expr(rng, vars, depth - 1), rand_expr(rng, vars, depth - 1)),
    }
}

fn rand_stmts(rng: &mut Rng, vars: &[&str], budget: &mut usize, depth: usize) -> String {
    let mut out = String::new();
    let n = 1 + rng.below(3);
    for _ in 0..n {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        let choice = if depth == 0 { rng.below(3) } else { rng.below(6) };
        match choice {
            0 | 1 => {
                let target = vars[rng.below(vars.len() as u64) as usize];
                out.push_str(&format!("{target} := {};\n", rand_expr(rng, vars, 2)));
            }
            2 => {
                let v = vars[rng.below(vars.len() as u64) as usize];
                out.push_str(&format!("{v} := helper({});\n", rand_expr(rng, vars, 1)));
            }
            3 => {
                out.push_str(&format!(
                    "if ({}) then\n{}else\n{}fi;\n",
                    rand_expr(rng, vars, 2),
                    rand_stmts(rng, vars, budget, depth - 1),
                    rand_stmts(rng, vars, budget, depth - 1)
                ));
            }
            4 => {
                // A while loop whose condition eventually can fail.
                out.push_str(&format!(
                    "while ({} & *) do\n{}od;\n",
                    rand_expr(rng, vars, 1),
                    rand_stmts(rng, vars, budget, depth - 1)
                ));
            }
            _ => {
                out.push_str("call toggle();\n");
            }
        }
    }
    if out.is_empty() {
        out.push_str("skip;\n");
    }
    out
}

#[test]
fn randomized_programs_agree() {
    // 25 seeded random programs; every algorithm must match the oracle.
    for seed in 1..=25u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let vars = ["g0", "g1", "x", "y"];
        let mut budget = 12usize;
        let body = rand_stmts(&mut rng, &vars, &mut budget, 2);
        let guard = rand_expr(&mut rng, &["g0", "g1"], 2);
        let src = format!(
            r#"
            decl g0, g1;
            main() begin
              decl x, y;
              {body}
              if ({guard}) then HIT: skip; fi;
            end
            helper(a) returns 1 begin
              if (*) then g0 := a; fi;
              return !a;
            end
            toggle() begin
              g1 := !g1;
              if (*) then call toggle(); fi;
            end
            "#
        );
        verdicts_agree(&src, "HIT");
    }
}

/// A frame wider than 64 variables: the explicit oracle refuses it, but
/// every symbolic engine encodes `Local` as a 70-bit block and decides it.
#[test]
fn seventy_locals_are_decided_symbolically() {
    let locals: Vec<String> = (0..70).map(|i| format!("l{i}")).collect();
    let src = format!(
        "main() begin decl {}; l69 := T; if (!l5) then HIT: skip; fi; \
         if (l5) then MISS: skip; fi; end",
        locals.join(", ")
    );
    let cfg = Cfg::build(&parse_program(&src).unwrap()).unwrap();
    let (hit, miss) = (cfg.label("HIT").unwrap(), cfg.label("MISS").unwrap());
    for algo in Algorithm::ALL {
        assert!(check_reachability(&cfg, &[hit], algo).unwrap().reachable, "{algo}");
        assert!(!check_reachability(&cfg, &[miss], algo).unwrap().reachable, "{algo}");
    }
}

#[test]
fn summary_nodes_consistent_across_ef_variants() {
    // Theorem 2: EF and EFopt compute the same summary set, so the final
    // BDD sizes coincide (Figure 2 reports a single #Nodes column).
    let src = r#"
        decl g;
        main() begin
          decl x;
          x := *;
          g := f(x);
          if (g & x) then HIT: skip; fi;
        end
        f(a) returns 1 begin
          if (a) then
            g := !g;
          fi;
          return g | a;
        end
    "#;
    let program = parse_program(src).unwrap();
    let cfg = Cfg::build(&program).unwrap();
    let target = cfg.label("HIT").unwrap();
    // Disable early termination effects by comparing only on the negative
    // query (unreachable target forces full fixpoints).
    let r_ef = check_reachability(&cfg, &[cfg.pc_count - 1], Algorithm::EntryForward).unwrap();
    let r_naive =
        check_reachability(&cfg, &[cfg.pc_count - 1], Algorithm::EntryForwardNaive).unwrap();
    assert_eq!(r_ef.reachable, r_naive.reachable);
    // Positive case must agree across all.
    let oracle = explicit_reachable(&cfg, &[target], 1_000_000).unwrap().reachable;
    for algo in Algorithm::ALL {
        assert_eq!(check_reachability(&cfg, &[target], algo).unwrap().reachable, oracle);
    }
}

#[test]
fn mid_stratum_gc_is_transparent_to_the_ordered_schedule() {
    // ef-opt runs the non-monotone ordered change-driven schedule; a
    // 0-node threshold forces a collection after every outer round, with
    // the per-disjunct version-keyed caches registered as live roots and
    // remapped. The verdict, the summary *set* and the amount of work must
    // all be identical to the no-GC run.
    let src = r#"
        decl g;
        main() begin
          call rec();
          if (g) then HIT: skip; fi;
        end
        rec() begin
          if (*) then
            g := !g;
            call rec();
          fi;
        end
    "#;
    let program = parse_program(src).unwrap();
    let cfg = Cfg::build(&program).unwrap();
    let target = cfg.label("HIT").unwrap();
    let run = |gc_threshold: Option<usize>| {
        let options = SolveOptions { gc_threshold, ..SolveOptions::new() };
        let mut solver =
            build_solver_with(&cfg, &[target], Algorithm::EntryForwardOpt, options).unwrap();
        let verdict = solver.eval_query("reach").unwrap();
        let rel = Algorithm::EntryForwardOpt.main_relation();
        let interp = solver.evaluate(rel).unwrap();
        let nparams = solver.system().relation(rel).expect("main relation").params.len();
        let mut vars = Vec::new();
        for i in 0..nparams {
            vars.extend(solver.alloc().formal(rel, i).all_vars());
        }
        let models = solver.manager().all_models(interp, &vars);
        let reevals = solver.stats().total_reevaluations();
        let gcs = solver.stats().gcs;
        (verdict, models, reevals, gcs)
    };
    let (v_gc, set_gc, work_gc, gcs) = run(Some(0));
    let (v_no, set_no, work_no, no_gcs) = run(None);
    assert_eq!(v_gc, v_no);
    assert_eq!(set_gc, set_no, "summary set must be bit-identical to the no-GC run");
    assert_eq!(work_gc, work_no, "remapped disjunct caches must still hit");
    assert!(gcs > 0, "a 0-node threshold must force collections");
    assert_eq!(no_gcs, 0);
}
