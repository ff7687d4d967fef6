//! Concurrent ablation (DESIGN.md E6): the cost of the context-switch bound.
//!
//! §5's headline is that the `Reach` tuple keeps only **k + 1 copies** of
//! the shared globals (the switch-point valuations `g1..gk` plus the
//! current one), where the eager Lal–Reps reduction needs up to **3k**.
//! This ablation (a) reports the measured growth of the BDD variable
//! count, the `Reach` relation and the solve time as `k` increases, and
//! (b) tabulates the analytic copy-count comparison. The eager engine
//! itself is not implemented (see DESIGN.md).
//!
//! ```text
//! cargo run --release -p getafix-bench --bin ablation_conc [-- --max-k K]
//! ```

use getafix_bench::{run_fig3_config, CLI};

fn main() {
    let max_k: usize = CLI.parse_env("ablation_conc").value("--max-k").unwrap_or(5);

    println!("E6 — global-copy economy of the §5 formulation (Bluetooth, 2 adders + 2 stoppers)\n");
    let (merged, rows) = run_fig3_config(2, 2, max_k);
    let g = merged.cfg.globals.len();
    println!(
        "{:>3} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "k", "ours: copies", "Lal-Reps: 3k", "Reach tuples", "BDD nodes", "time"
    );
    for r in rows {
        let k = r.switches;
        println!(
            "{:>3} {:>7} ({:>3}b) {:>7} ({:>3}b) {:>11.1}k {:>12} {:>9.2}s",
            k,
            k + 1,
            (k + 1) * g,
            3 * k,
            3 * k * g,
            r.reach_tuples / 1e3,
            r.reach_nodes,
            r.time.as_secs_f64()
        );
    }
    println!(
        "\n(copies × {g} shared globals = bits of global state carried per tuple; \
         the k+1 column is what the measured engine allocates)"
    );
}
