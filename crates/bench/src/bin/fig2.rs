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
    print_fig2_header, print_fig2_row, regression_cases, run_fig2_row, slam_cases,
    terminator_cases, CLI,
};

fn main() {
    let args = CLI.parse_env("fig2");
    let suite = args.text("--suite").unwrap_or("all");
    let scale: usize = args.value("--scale").unwrap_or(1);
    let bits: usize = args.value("--bits").unwrap_or(4);

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
