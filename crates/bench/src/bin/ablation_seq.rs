//! Sequential ablations (DESIGN.md E7, E8):
//!
//! * **E7** — the §4.2 return-clause rewrite: split form vs the naive
//!   single-conjunction form, on state-rich Terminator workloads where the
//!   summary-set BDDs are large.
//! * **E8** — §4.1 vs §4.2: the simple (all-entries) summary algorithm
//!   against the entry-forward family, on driver workloads with genuinely
//!   unreachable procedures.
//!
//! ```text
//! cargo run --release -p getafix-bench --bin ablation_seq [-- --bits N]
//! ```

use getafix_bench::{check_flags, parse_flag};
use getafix_boolprog::Cfg;
use getafix_core::{check_reachability, Algorithm};
use getafix_workloads::{driver, terminator, DeadStyle, DriverSpec, TerminatorVariant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags("ablation_seq", &args, &[("--bits", true)]);
    let bits: usize = parse_flag("ablation_seq", &args, "--bits", 4);

    println!(
        "E7 — return-clause rewrite (split vs naive), Terminator workloads, {bits}-bit counters\n"
    );
    println!("{:<34} {:>10} {:>10} {:>10} {:>8}", "case", "naive", "split", "ef-opt", "speedup");
    for variant in [TerminatorVariant::A, TerminatorVariant::B, TerminatorVariant::C] {
        for style in [DeadStyle::Iterative, DeadStyle::Schoose] {
            let case = terminator(variant, style, bits);
            let cfg = Cfg::build(&case.program).expect("cfg");
            let pc = cfg.label(&case.label).expect("label");
            let naive =
                check_reachability(&cfg, &[pc], Algorithm::EntryForwardNaive).expect("naive");
            let split = check_reachability(&cfg, &[pc], Algorithm::EntryForward).expect("split");
            let opt = check_reachability(&cfg, &[pc], Algorithm::EntryForwardOpt).expect("opt");
            assert_eq!(naive.reachable, case.expect_reachable);
            assert_eq!(split.reachable, case.expect_reachable);
            assert_eq!(opt.reachable, case.expect_reachable);
            let tn = naive.solve_time.as_secs_f64();
            let ts = split.solve_time.as_secs_f64();
            let to = opt.solve_time.as_secs_f64();
            println!(
                "{:<34} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>7.2}x",
                case.name,
                tn * 1e3,
                ts * 1e3,
                to * 1e3,
                tn / ts.max(1e-9)
            );
        }
    }

    println!("\nE8 — eager all-entries summaries (§4.1) vs entry-forward (§4.2), drivers with unreachable procedures\n");
    println!("{:<22} {:>10} {:>10} {:>10}", "case", "simple", "ef", "ef-opt");
    for (i, positive) in [false, true].into_iter().enumerate() {
        let case = driver(
            &format!("ablation-{i}"),
            DriverSpec { handlers: 5, globals: 4, locals: 6, filler: 4, positive, seed: 0xAB1 },
        );
        let cfg = Cfg::build(&case.program).expect("cfg");
        let pc = cfg.label(&case.label).expect("label");
        let simple = check_reachability(&cfg, &[pc], Algorithm::SummarySimple).expect("simple");
        let ef = check_reachability(&cfg, &[pc], Algorithm::EntryForward).expect("ef");
        let opt = check_reachability(&cfg, &[pc], Algorithm::EntryForwardOpt).expect("opt");
        assert_eq!(simple.reachable, case.expect_reachable);
        assert_eq!(ef.reachable, case.expect_reachable);
        assert_eq!(opt.reachable, case.expect_reachable);
        println!(
            "{:<22} {:>8.0}ms {:>8.0}ms {:>8.0}ms   (reachable: {})",
            case.name,
            simple.solve_time.as_secs_f64() * 1e3,
            ef.solve_time.as_secs_f64() * 1e3,
            opt.solve_time.as_secs_f64() * 1e3,
            case.expect_reachable
        );
    }
}
