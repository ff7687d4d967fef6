//! Every image step of every shipped system fuses. The allocation plan
//! orders each channel so that renaming a fixpoint relation onto an
//! application's arguments keeps the variable order; the BDD kernel then
//! renames, conjoins and quantifies in one traversal, and counts every
//! call that has to rename first instead. That count must read 0 on the
//! concurrent quickstart, on the Figure 3 grid, and on the sequential
//! corpora under the `simple`, `ef` and `ef-opt` algorithms.

use getafix_boolprog::{parse_concurrent, Cfg, Program};
use getafix_conc::{check_conc_reachability, check_merged, merge};
use getafix_core::{check_reachability, Algorithm};
use getafix_workloads::{
    adder_err_label, bluetooth, regression_suite, slam_suites, terminator_suite, FIGURE3_CONFIGS,
};

/// Every sequential corpus case: `slam_suites(1)`, `terminator_suite(5)`
/// and `regression_suite()`, as (name, program, target label).
fn sequential_corpora() -> Vec<(String, Program, String)> {
    let slam = slam_suites(1).into_iter().flat_map(|(_, cases)| cases);
    let slam = slam.map(|c| (c.name, c.program, c.label));
    let terminator = terminator_suite(5).into_iter().map(|c| (c.name, c.program, c.label));
    let (pos, neg) = regression_suite();
    let regression = pos.into_iter().chain(neg).map(|c| (c.name, c.program, c.label));
    slam.chain(terminator).chain(regression).collect()
}

fn sequential_corpora_fuse(algo: Algorithm) {
    for (name, program, label) in sequential_corpora() {
        let cfg = Cfg::build(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        let pc = cfg.label(&label).unwrap_or_else(|| panic!("{name}: no {label}"));
        let r =
            check_reachability(&cfg, &[pc], algo).unwrap_or_else(|e| panic!("{name} {algo}: {e}"));
        assert_eq!(r.stats.rename_fallbacks, 0, "{name} ({algo})");
    }
}

#[test]
fn the_quickstart_handshake_fuses() {
    let src = include_str!("../../examples/handshake.cbp");
    let conc = parse_concurrent(src).expect("handshake parses");
    for k in 1..=3 {
        let r = check_conc_reachability(&conc, "t0__HIT", k).expect("handshake solves");
        assert_eq!(r.stats.rename_fallbacks, 0, "handshake, {k} switches");
    }
}

#[test]
fn the_figure3_grid_fuses() {
    for (name, adders, stoppers) in FIGURE3_CONFIGS {
        let merged = merge(&bluetooth(adders, stoppers)).expect("bluetooth merges");
        let targets: Vec<_> = (0..adders)
            .map(|i| merged.cfg.label(&adder_err_label(i)).expect("ERR label"))
            .collect();
        for k in 1..=3 {
            let r = check_merged(&merged, &targets, k).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(r.stats.rename_fallbacks, 0, "{name}, {k} switches");
        }
    }
}

#[test]
fn the_sequential_corpora_fuse_under_simple() {
    sequential_corpora_fuse(Algorithm::SummarySimple);
}

#[test]
fn the_sequential_corpora_fuse_under_ef() {
    sequential_corpora_fuse(Algorithm::EntryForward);
}

#[test]
fn the_sequential_corpora_fuse_under_ef_opt() {
    sequential_corpora_fuse(Algorithm::EntryForwardOpt);
}
