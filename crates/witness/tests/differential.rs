//! The witness acceptance suite: every `Reachable` verdict of the core and
//! conc differential programs must yield a witness that *replays* —
//! sequential traces re-execute to the target in the concrete interpreter,
//! concurrent schedules re-execute in the explicit engine under the
//! extracted thread/valuation script — and every `unreachable` verdict
//! must yield `None`. Both solver strategies are exercised.
//!
//! The programs mirror `crates/core/tests/differential.rs` and
//! `crates/conc/tests/differential.rs` (including the seeded random
//! corpus), so "the differential suites" and "the witness suite" cover the
//! same ground from two sides: verdict equality there, constructive
//! evidence here.

use getafix_boolprog::{explicit_reachable, parse_concurrent, parse_program, replay, Cfg};
use getafix_conc::{conc_replay_guided, merge, ConcLimits};
use getafix_mucalc::{SolveOptions, Strategy};
use getafix_witness::{concurrent_trace_from_schedule, concurrent_witness, sequential_witness};

/// Extract under one strategy and cross-check against the explicit oracle.
fn check_seq(src: &str, label: &str) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    let cfg = Cfg::build(&program).unwrap_or_else(|e| panic!("build: {e}\n{src}"));
    let target = cfg.label(label).unwrap_or_else(|| panic!("no label {label}"));
    let oracle = explicit_reachable(&cfg, &[target], 5_000_000).expect("oracle").reachable;
    for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
        let options = SolveOptions::with_strategy(strategy);
        let witness = sequential_witness(&cfg, &[target], options)
            .unwrap_or_else(|e| panic!("{strategy}: {e}\n{src}"));
        match (oracle, witness) {
            (true, Some(trace)) => {
                assert_eq!(trace.target, target, "{strategy}\n{src}");
                // sequential_witness validates internally; re-run the
                // replay oracle here so the *test* holds the evidence too.
                replay(&cfg, &trace.to_replay(), &[target])
                    .unwrap_or_else(|e| panic!("{strategy}: replay rejected: {e}\n{src}"));
                // Render must not panic and should mention the target pc.
                let shown = trace.render(&cfg);
                assert!(shown.contains("target reached"), "{shown}");
            }
            (false, None) => {}
            (true, None) => panic!("{strategy}: reachable but no witness\n{src}"),
            (false, Some(t)) => panic!("{strategy}: witness for unreachable: {t:?}\n{src}"),
        }
    }
}

/// Concurrent: schedule extraction + forced-schedule replay, both
/// strategies, for every bound `1..=max_k`. `replayable` is false for
/// programs whose unbounded recursion the explicit replayer cannot
/// materialize.
fn check_conc(src: &str, label: &str, max_k: usize, replayable: bool) {
    let conc = parse_concurrent(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    let merged = merge(&conc).unwrap();
    let pc = merged.cfg.label(label).unwrap_or_else(|| panic!("no label {label}"));
    for k in 1..=max_k {
        for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
            let options = SolveOptions::with_strategy(strategy);
            let witness = concurrent_witness(&merged, &[pc], k, options)
                .unwrap_or_else(|e| panic!("k={k} {strategy}: {e}\n{src}"));
            let Some(schedule) = witness else {
                // No witness must mean unreachable (when the oracle can say).
                if replayable {
                    let oracle =
                        conc_replay_all(&merged, pc, k).unwrap_or_else(|e| panic!("oracle: {e}"));
                    assert!(!oracle, "k={k} {strategy}: reachable but no schedule\n{src}");
                }
                continue;
            };
            assert!(
                schedule.is_well_formed(merged.n_threads),
                "k={k} {strategy}: malformed {schedule:?}"
            );
            assert!(
                schedule.switches() <= k,
                "k={k} {strategy}: {} switches exceed the bound",
                schedule.switches()
            );
            assert_eq!(schedule.target, pc);
            if replayable {
                // Statement-granular refinement: the schedule must refine
                // into an explicit interleaved step sequence (a schedule is
                // executable exactly when it refines) that the *guided*
                // replayer accepts — and its round skeleton must be
                // exactly the extracted schedule.
                let trace = concurrent_trace_from_schedule(
                    &merged,
                    &[pc],
                    &schedule,
                    ConcLimits::default(),
                )
                .unwrap_or_else(|e| panic!("k={k} {strategy}: refine: {e}\n{src}"));
                assert_eq!(trace.round_skeleton(), schedule.to_replay(), "{src}");
                // concurrent_trace_from_schedule validates internally;
                // re-run the guided replayer so the *test* holds the
                // evidence too.
                conc_replay_guided(
                    &merged,
                    &[pc],
                    &trace.round_skeleton(),
                    &trace.to_guided(),
                    ConcLimits::default(),
                )
                .unwrap_or_else(|e| panic!("k={k} {strategy}: guided replay rejected: {e}\n{src}"));
                // Every step names its round's scheduled thread, and the
                // steps are round-ordered.
                for w in trace.steps.windows(2) {
                    assert!(w[0].round <= w[1].round, "steps out of round order\n{src}");
                }
                for s in &trace.steps {
                    assert_eq!(s.thread, trace.schedule.rounds[s.round].thread, "{src}");
                }
                // Render must not panic and should mention the target.
                let shown = trace.render(&merged.cfg);
                assert!(shown.contains("target reached"), "{shown}");
            }
        }
    }
}

/// Free exploration (the plain oracle), for the "no witness" direction.
fn conc_replay_all(
    merged: &getafix_conc::Merged,
    pc: getafix_boolprog::Pc,
    k: usize,
) -> Result<bool, getafix_conc::ConcExplicitError> {
    getafix_conc::conc_explicit_reachable(merged, &[pc], k, ConcLimits::default())
}

// --- the sequential corpus (mirrors crates/core/tests/differential.rs) ----

const SEQ_CASES: &[(&str, &str)] = &[
    (
        r#"decl g;
        main() begin
          g := T;
          if (g) then HIT: skip; fi;
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
        main() begin
          g := F;
          if (g) then HIT: skip; fi;
        end"#,
        "HIT",
    ),
    (
        r#"main() begin
          decl x;
          x := *;
          if (x) then HIT: skip; fi;
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
        main() begin
          decl x;
          x := id(T);
          if (x) then HIT: skip; fi;
        end
        id(a) returns 1 begin
          return a;
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
        main() begin
          decl x;
          x := id(F);
          if (x) then HIT: skip; fi;
        end
        id(a) returns 1 begin
          return a;
        end"#,
        "HIT",
    ),
    (
        r#"main() begin
          decl x, y;
          x, y := swap(T, F);
          if (!x & y) then HIT: skip; fi;
        end
        swap(a, b) returns 2 begin
          return b, a;
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
        main() begin
          call set();
          if (g) then HIT: skip; fi;
        end
        set() begin
          g := T;
        end"#,
        "HIT",
    ),
    (
        r#"main() begin
          decl x;
          x := F;
          call clobber();
          if (x) then HIT: skip; fi;
        end
        clobber() begin
          decl x;
          x := T;
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
        main() begin
          call rec();
          if (g) then HIT: skip; fi;
        end
        rec() begin
          if (*) then
            g := !g;
            call rec();
          fi;
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
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
        end"#,
        "HIT",
    ),
    (
        r#"decl g, h;
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
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
        main() begin
          decl x;
          x := T;
          while (x) do
            x := *;
            g := g | !x;
          od;
          if (g) then HIT: skip; fi;
        end"#,
        "HIT",
    ),
    (
        r#"main() begin
          decl x;
          x := *;
          assume (!x);
          if (x) then HIT: skip; fi;
        end"#,
        "HIT",
    ),
    (
        r#"main() begin
          decl x;
          x := schoose [F, T];
          if (x) then HIT: skip; fi;
        end"#,
        "HIT",
    ),
    (
        r#"main() begin
          decl x;
          x := schoose [F, F];
          if (x) then HIT: skip; fi;
        end"#,
        "HIT",
    ),
    (
        r#"main() begin
          decl x;
          x := F;
          dead x;
          if (x) then HIT: skip; fi;
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
        main() begin
          g := F;
          goto SKIP;
          g := T;
          SKIP: skip;
          if (g) then HIT: skip; fi;
        end"#,
        "HIT",
    ),
    (
        r#"decl a, b;
        main() begin
          a := T;
          b := F;
          a, b := b, a;
          if (!a & b) then HIT: skip; fi;
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
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
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
        main() begin
          decl x;
          g := T;
          x := readg();
          g := F;
          if (x & !g) then HIT: skip; fi;
        end
        readg() returns 1 begin
          return g;
        end"#,
        "HIT",
    ),
    (
        r#"decl g;
        main() begin
          decl x;
          x := flip();
          if (x = g) then HIT: skip; fi;
        end
        flip() returns 1 begin
          g := !g;
          return !g;
        end"#,
        "HIT",
    ),
];

#[test]
fn sequential_corpus_yields_replayable_witnesses() {
    for (src, label) in SEQ_CASES {
        check_seq(src, label);
    }
}

#[test]
fn assert_sinks_get_witnesses_too() {
    // `assert` failures route to the per-procedure error sink; the witness
    // machinery must handle multiple targets.
    let src = r#"
        decl g;
        main() begin
          g := *;
          assert (g);
        end
    "#;
    let program = parse_program(src).unwrap();
    let cfg = Cfg::build(&program).unwrap();
    let sinks = cfg.assert_sinks();
    assert!(!sinks.is_empty());
    for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
        let trace = sequential_witness(&cfg, &sinks, SolveOptions::with_strategy(strategy))
            .unwrap()
            .expect("the assert can fail");
        replay(&cfg, &trace.to_replay(), &sinks).unwrap();
    }
}

// --- the seeded random corpus (same generator as the core suite) ----------

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
fn randomized_programs_yield_replayable_witnesses() {
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
        check_seq(&src, "HIT");
    }
}

// --- the concurrent corpus (mirrors crates/conc/tests/differential.rs) ----

const HANDSHAKE: &str = r#"
    shared flag;
    thread
      main() begin
        if (flag) then HIT: skip; fi;
      end
    endthread
    thread
      main() begin
        flag := T;
      end
    endthread
"#;

#[test]
fn conc_handshake() {
    check_conc(HANDSHAKE, "t0__HIT", 3, true);
}

#[test]
fn conc_ping_pong_threshold() {
    let src = r#"
        shared a, b, c;
        thread
          main() begin
            if (a) then
              b := T;
            fi;
            if (c) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            a := T;
            if (b) then
              c := T;
            fi;
          end
        endthread
    "#;
    check_conc(src, "t0__HIT", 4, true);
}

#[test]
fn conc_locals_preserved_across_switches() {
    let src = r#"
        shared s;
        thread
          main() begin
            decl x;
            x := T;
            if (s & x) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            s := T;
          end
        endthread
    "#;
    check_conc(src, "t0__HIT", 3, true);
}

#[test]
fn conc_procedure_calls_across_contexts() {
    let src = r#"
        shared s;
        thread
          main() begin
            decl r;
            r := get();
            if (r) then HIT: skip; fi;
          end
          get() returns 1 begin
            return s;
          end
        endthread
        thread
          main() begin
            call set();
          end
          set() begin
            s := T;
          end
        endthread
    "#;
    check_conc(src, "t0__HIT", 3, true);
}

#[test]
fn conc_switch_inside_a_procedure() {
    let src = r#"
        shared s, t;
        thread
          main() begin
            call work();
          end
          work() begin
            decl saw;
            saw := s;
            if (saw & t) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            s := T;
            t := T;
          end
        endthread
    "#;
    check_conc(src, "t0__HIT", 4, true);
}

#[test]
fn conc_three_threads() {
    let src = r#"
        shared a, b;
        thread
          main() begin
            if (a & b) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            a := T;
          end
        endthread
        thread
          main() begin
            if (a) then b := T; fi;
          end
        endthread
    "#;
    check_conc(src, "t0__HIT", 3, true);
}

#[test]
fn conc_unreachable_regardless_of_switches() {
    let src = r#"
        shared a, b;
        thread
          main() begin
            if (a & !a) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            b := !b;
          end
        endthread
    "#;
    check_conc(src, "t0__HIT", 3, true);
}

#[test]
fn conc_mutual_flags_need_two_visits() {
    let src = r#"
        shared x, y;
        thread
          main() begin
            x := T;
            if (y) then HIT: skip; fi;
          end
        endthread
        thread
          main() begin
            if (x) then y := T; fi;
          end
        endthread
    "#;
    check_conc(src, "t0__HIT", 3, true);
}

/// The Figure 3 Bluetooth-driver corpus: every reachable bug threshold
/// must yield a statement-granular trace the guided replayer accepts, and
/// the guided round skeleton must agree with the round-level replayer —
/// under both strategies. Multi-target extraction (one `ERR` per adder) is
/// exercised too.
#[test]
fn conc_bluetooth_statement_traces() {
    use getafix_workloads::{adder_err_label, bluetooth, FIG3_WITNESS_CASES};
    // (adders, stoppers, k, reachable) — the Figure 3 bug thresholds,
    // shared with the bench reporter's fig3 group.
    for (adders, stoppers, k, expect) in FIG3_WITNESS_CASES {
        let conc = bluetooth(adders, stoppers);
        let merged = merge(&conc).unwrap();
        let targets: Vec<_> =
            (0..adders).map(|i| merged.cfg.label(&adder_err_label(i)).unwrap()).collect();
        for strategy in [Strategy::Worklist, Strategy::RoundRobin] {
            let options = SolveOptions::with_strategy(strategy);
            let witness = concurrent_witness(&merged, &targets, k, options)
                .unwrap_or_else(|e| panic!("{adders}a{stoppers}s k={k} {strategy}: {e}"));
            let Some(schedule) = witness else {
                assert!(!expect, "{adders}a{stoppers}s k={k} {strategy}: no schedule");
                continue;
            };
            assert!(expect, "{adders}a{stoppers}s k={k} {strategy}: unexpected witness");
            // The schedule is executable exactly when it refines.
            let trace =
                concurrent_trace_from_schedule(&merged, &targets, &schedule, ConcLimits::default())
                    .unwrap_or_else(|e| panic!("{adders}a{stoppers}s k={k} {strategy}: {e}"));
            assert_eq!(trace.round_skeleton(), schedule.to_replay());
            conc_replay_guided(
                &merged,
                &targets,
                &trace.round_skeleton(),
                &trace.to_guided(),
                ConcLimits::default(),
            )
            .unwrap_or_else(|e| panic!("{adders}a{stoppers}s k={k} {strategy}: guided: {e}"));
        }
    }
}

// --- the seeded random concurrent corpus ----------------------------------

fn rand_conc_stmts(rng: &mut Rng, vars: &[&str], budget: &mut usize, depth: usize) -> String {
    let mut out = String::new();
    let n = 1 + rng.below(2);
    for _ in 0..n {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        let choice = if depth == 0 { rng.below(3) } else { rng.below(5) };
        match choice {
            0 | 1 => {
                let target = vars[rng.below(vars.len() as u64) as usize];
                out.push_str(&format!("{target} := {};\n", rand_expr(rng, vars, 2)));
            }
            2 => {
                out.push_str("call poke();\n");
            }
            3 => {
                out.push_str(&format!(
                    "if ({}) then\n{}else\n{}fi;\n",
                    rand_expr(rng, vars, 2),
                    rand_conc_stmts(rng, vars, budget, depth - 1),
                    rand_conc_stmts(rng, vars, budget, depth - 1)
                ));
            }
            _ => {
                out.push_str(&format!(
                    "while ({} & *) do\n{}od;\n",
                    rand_expr(rng, vars, 1),
                    rand_conc_stmts(rng, vars, budget, depth - 1)
                ));
            }
        }
    }
    if out.is_empty() {
        out.push_str("skip;\n");
    }
    out
}

/// Random finite-stack two-thread programs: every reachable verdict must
/// refine into a guided-replayable statement trace whose round skeleton
/// the round-level replayer also accepts (via `check_conc`), at every
/// bound and under both strategies.
#[test]
fn randomized_concurrent_programs_yield_guided_traces() {
    for seed in 1..=12u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let vars = ["a", "b", "x"];
        let mut budget = 5usize;
        let body0 = rand_conc_stmts(&mut rng, &vars, &mut budget, 2);
        let guard = rand_expr(&mut rng, &["a", "b"], 2);
        let mut budget = 5usize;
        let body1 = rand_conc_stmts(&mut rng, &vars, &mut budget, 2);
        let src = format!(
            r#"
            shared a, b;
            thread
              main() begin
                decl x;
                {body0}
                if ({guard}) then HIT: skip; fi;
              end
              poke() begin
                a := !a;
              end
            endthread
            thread
              main() begin
                decl x;
                {body1}
              end
              poke() begin
                b := !b;
              end
            endthread
            "#
        );
        check_conc(&src, "t0__HIT", 2, true);
    }
}

#[test]
fn conc_recursive_thread_schedule_is_well_formed() {
    // Unbounded recursion: the explicit replayer would blow its stack
    // limit, so only structural validation applies (`replayable = false`).
    let src = r#"
        shared s;
        thread
          main() begin
            call rec();
            if (s) then HIT: skip; fi;
          end
          rec() begin
            if (*) then call rec(); fi;
          end
        endthread
        thread
          main() begin
            s := T;
          end
        endthread
    "#;
    check_conc(src, "t0__HIT", 2, false);
}
