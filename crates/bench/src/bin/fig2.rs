//! Regenerates Figure 2: the sequential evaluation table — Regression,
//! SLAM-driver and Terminator suites against GETAFIX (EF, EF-opt) and the
//! hand-coded baselines (forward/backward PDS saturation, Bebop worklist).
//!
//! ```text
//! cargo run --release -p getafix-bench --bin fig2 [-- --suite regression|slam|terminator] [--scale N] [--bits N]
//! ```
//!
//! Absolute times are incomparable to the 2009 testbed; the *shape* —
//! which engine wins where, and by what rough factor — is the result.

use getafix_bench::{
    check_flags, flag_value, parse_flag, print_fig2_header, print_fig2_row, regression_cases,
    run_fig2_row, slam_cases, terminator_cases,
};

/// The values `--suite` accepts.
const SUITES: [&str; 4] = ["all", "regression", "slam", "terminator"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags("fig2", &args, &[("--suite", true), ("--scale", true), ("--bits", true)]);
    let suite = flag_value(&args, "--suite").unwrap_or("all");
    if !SUITES.contains(&suite) {
        eprintln!("fig2: unknown --suite `{suite}` (accepted: {})", SUITES.join(" "));
        std::process::exit(2);
    }
    let scale: usize = parse_flag("fig2", &args, "--scale", 1);
    let bits: usize = parse_flag("fig2", &args, "--bits", 4);

    println!("Figure 2 — sequential reachability (averages per suite)");
    println!("driver scale = {scale}, terminator counter bits = {bits}\n");
    print_fig2_header();

    if suite == "all" || suite == "regression" {
        let (pos, neg) = regression_cases();
        print_fig2_row(&run_fig2_row("Regression positive", &pos));
        print_fig2_row(&run_fig2_row("Regression negative", &neg));
    }
    if suite == "all" || suite == "slam" {
        for (name, cases) in slam_cases(scale) {
            print_fig2_row(&run_fig2_row(&format!("Driver {name}"), &cases));
        }
    }
    if suite == "all" || suite == "terminator" {
        for case in terminator_cases(bits) {
            let name = case.name.clone();
            print_fig2_row(&run_fig2_row(&name, std::slice::from_ref(&case)));
        }
    }
}
