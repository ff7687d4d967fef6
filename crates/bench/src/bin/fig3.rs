//! Regenerates Figure 3: bounded context-switching reachability on the
//! Bluetooth driver model — four thread configurations, switch bounds
//! 1..=6, reporting verdict, `Reach` set size and time.
//!
//! ```text
//! cargo run --release -p getafix-bench --bin fig3 [-- --max-k K] [--jobs N]
//! ```
//!
//! `--jobs N` (default 1; 0 = all cores) fans the independent switch-bound
//! solves of each configuration across threads — every bound owns a
//! private BDD manager, so the table is identical at any job count, only
//! faster.

use getafix_bench::{run_fig3_config_jobs, CLI};
use getafix_workloads::FIGURE3_CONFIGS;

fn main() {
    let args = CLI.parse_env("fig3");
    let max_k: usize = args.value("--max-k").unwrap_or(6);
    let jobs = args.value("--jobs").unwrap_or(1);

    println!("Figure 3 — Bluetooth driver, bounded context-switching reachability\n");
    println!("{:<9} {:<10} {:<14} {:<10} Time", "Context", "Reachable", "Reach set", "BDD");
    println!("{:<9} {:<10} {:<14} {:<10}", "switches", "", "size", "nodes");
    for &(name, adders, stoppers) in &FIGURE3_CONFIGS {
        let (merged, rows) = run_fig3_config_jobs(adders, stoppers, max_k, jobs);
        let locals: usize = merged.cfg.procs.iter().map(|p| p.n_locals()).sum();
        println!(
            "\n{} processes: {name}\n({} local variables and {} shared variables)",
            adders + stoppers,
            locals,
            merged.cfg.globals.len()
        );
        for r in rows {
            println!(
                "   {:<6} {:<10} {:>9.1}k {:>11} {:>9.2}s",
                r.switches,
                if r.reachable { "Yes" } else { "No" },
                r.reach_tuples / 1e3,
                r.reach_nodes,
                r.time.as_secs_f64()
            );
        }
    }
}
