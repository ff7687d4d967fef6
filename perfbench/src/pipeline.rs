//! One case, source text to checked verdict: the calls `getafix check
//! --trace` (with `--slice` on drivers) and `getafix check-conc --trace`
//! make, each wrapped in a span named after its layer, with the layer's
//! work counters read from what the calls return.

use crate::corpus::{Case, Query};
use crate::trace::Tracer;
use getafix::boolprog::analysis::{slice, AnalysisOptions};
use getafix::boolprog::{parse_concurrent, parse_program, replay, Cfg, Pc};
use getafix::conc::{
    build_conc_solver_with, check_conc_solver, conc_refine_schedule, conc_replay_guided, merge,
    ConcLimits,
};
use getafix::core::{build_trace_solver_with, Algorithm};
use getafix::mucalc::{SolveOptions, SolveStats, Solver};
use getafix::witness::{concurrent_witness_from, sequential_witness_from, WitnessLimits};
use std::collections::BTreeMap;

/// The layers a case calls into, in pipeline order; each is also the name
/// of the span around the call.
pub const LAYERS: [&str; 12] = [
    "boolprog.parse",
    "boolprog.cfg",
    "boolprog.slice",
    "core.encode",
    "conc.merge",
    "conc.encode",
    "mucalc.solve",
    "witness.seq",
    "boolprog.replay",
    "witness.conc",
    "conc.refine",
    "conc.guided",
];

/// The deterministic work counters, in reporting order. All are summed
/// over cases except [`PEAK_ARENA_BYTES`], which takes the maximum.
pub const COUNTERS: [&str; 20] = [
    "boolprog.parse.bytes",
    "boolprog.cfg.pcs",
    "boolprog.slice.relations_pruned",
    "boolprog.slice.decided",
    "core.encode.bdd_vars",
    "conc.encode.bdd_vars",
    "mucalc.solve.reevaluations",
    "mucalc.solve.ordered_reevaluations",
    "mucalc.solve.disjunct_compiles",
    "mucalc.solve.gcs",
    "mucalc.solve.provenance_nodes",
    "bdd.nodes_built",
    "bdd.cache_hits",
    "bdd.cache_misses",
    PEAK_ARENA_BYTES,
    "witness.seq.steps",
    "boolprog.replay.steps",
    "witness.conc.rounds",
    "conc.refine.search_states",
    "conc.guided.steps",
];

/// Peak bytes of the BDD arena, unique table and computed caches.
pub const PEAK_ARENA_BYTES: &str = "bdd.peak_arena_bytes";

/// Counter name → value; absent means zero.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one case produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Why the case failed: an error, a limit, a verdict that disagrees
    /// with the generator, or a witness that failed replay.
    pub error: Option<String>,
    /// Work counters (see [`COUNTERS`]).
    pub counts: Counts,
    /// Σ disjunct compile wall reported by the solver, in milliseconds.
    pub compile_ms: f64,
    /// GC pause wall reported by the solver, in milliseconds.
    pub gc_pause_ms: f64,
}

impl Outcome {
    fn add(&mut self, counter: &'static str, n: usize) {
        *self.counts.entry(counter).or_default() += n as u64;
    }

    /// Reads the solve counters `SolveStats` carries.
    fn note_solve(&mut self, stats: &SolveStats) {
        self.add("mucalc.solve.reevaluations", stats.total_reevaluations());
        self.add("mucalc.solve.ordered_reevaluations", stats.ordered_reevaluations);
        self.add("mucalc.solve.gcs", stats.gcs);
        self.add("mucalc.solve.provenance_nodes", stats.provenance_nodes);
        for d in stats.disjuncts.values() {
            self.add("mucalc.solve.disjunct_compiles", d.recompilations);
            *self.counts.entry("bdd.nodes_built").or_default() += d.nodes_built;
            self.compile_ms += d.wall_us as f64 / 1e3;
        }
        self.gc_pause_ms += stats.gc_pause_ms;
    }

    /// Reads the BDD manager's counters once the case is done with it, so
    /// witness extraction's kernel work is included.
    fn note_bdd(&mut self, solver: &Solver) {
        let m = solver.manager_ref().stats();
        *self.counts.entry("bdd.cache_hits").or_default() += m.cache_hits;
        *self.counts.entry("bdd.cache_misses").or_default() += m.cache_misses;
        self.add(PEAK_ARENA_BYTES, m.peak_arena_bytes);
    }
}

/// Runs `case` from its source text to a verdict checked against the
/// generator's answer and, when reachable, a witness replayed by the
/// benchmark itself.
pub fn run_case(case: &Case, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    t.open_case(&case.name);
    let verdict = match &case.query {
        Query::Seq { label, slice } => run_seq(&case.source, label, *slice, t, &mut out),
        Query::Conc { labels, switches } => run_conc(&case.source, labels, *switches, t, &mut out),
    };
    t.close();
    out.error = match verdict {
        Ok(r) if r == case.expect_reachable => None,
        Ok(r) => Some(format!("verdict {} disagrees with the generator", verdict_word(r))),
        Err(e) => Some(e),
    };
    out
}

/// `reachable` or `unreachable`.
pub fn verdict_word(reachable: bool) -> &'static str {
    if reachable {
        "reachable"
    } else {
        "unreachable"
    }
}

/// `getafix check FILE --label L --trace [--slice]` with the defaults:
/// `ef-opt`, worklist strategy, one solve for verdict and witness.
fn run_seq(
    src: &str,
    label: &str,
    sliced: bool,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<bool, String> {
    out.add("boolprog.parse.bytes", src.len());
    let program = t.span("boolprog.parse", || parse_program(src)).map_err(|e| e.to_string())?;
    let cfg = t.span("boolprog.cfg", || Cfg::build(&program)).map_err(|e| e.to_string())?;
    out.add("boolprog.cfg.pcs", cfg.pc_count as usize);
    let pc = cfg.label(label).ok_or_else(|| format!("no label `{label}`"))?;
    let (cfg, pc) = if sliced {
        let opts = AnalysisOptions::sequential().with_targets(&[pc]);
        let s = t.span("boolprog.slice", || slice(&cfg, &opts));
        out.add("boolprog.slice.relations_pruned", s.stats.relations_pruned());
        match s.map_pc(pc) {
            Some(new_pc) => (s.cfg, new_pc),
            None => {
                // The target was pruned: provably unreachable, no solve.
                out.add("boolprog.slice.decided", 1);
                return Ok(false);
            }
        }
    } else {
        (cfg, pc)
    };
    let mut solver = t
        .span("core.encode", || {
            build_trace_solver_with(&cfg, &[pc], Algorithm::EntryForwardOpt, SolveOptions::new())
        })
        .map_err(|e| e.to_string())?
        .ok_or("ef-opt has no trace-capable system")?;
    out.add("core.encode.bdd_vars", solver.manager_ref().var_count());
    let reachable =
        t.span("mucalc.solve", || solver.eval_query("reach")).map_err(|e| e.to_string())?;
    out.note_solve(solver.stats());
    if reachable {
        let trace = t
            .span("witness.seq", || {
                sequential_witness_from(&mut solver, &cfg, &[pc], WitnessLimits::default())
            })
            .map_err(|e| format!("witness: {e}"))?
            .ok_or("witness extraction disagreed with the verdict")?;
        out.add("witness.seq.steps", trace.steps.len());
        let steps = trace.to_replay();
        t.span("boolprog.replay", || replay(&cfg, &steps, &[pc]))
            .map_err(|e| format!("witness failed replay: {e}"))?;
        out.add("boolprog.replay.steps", steps.len());
    }
    out.note_bdd(&solver);
    Ok(reachable)
}

/// `getafix check-conc FILE --switches K --trace` with the defaults,
/// targeting every listed label.
fn run_conc(
    src: &str,
    labels: &[String],
    switches: usize,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<bool, String> {
    out.add("boolprog.parse.bytes", src.len());
    let conc = t.span("boolprog.parse", || parse_concurrent(src)).map_err(|e| e.to_string())?;
    let merged = t.span("conc.merge", || merge(&conc)).map_err(|e| e.to_string())?;
    let targets = labels
        .iter()
        .map(|l| merged.cfg.label(l).ok_or_else(|| format!("no label `{l}`")))
        .collect::<Result<Vec<Pc>, String>>()?;
    let mut solver = t
        .span("conc.encode", || {
            build_conc_solver_with(&merged, &targets, switches, SolveOptions::new())
        })
        .map_err(|e| e.to_string())?;
    out.add("conc.encode.bdd_vars", solver.manager_ref().var_count());
    let r = t
        .span("mucalc.solve", || check_conc_solver(&mut solver, switches))
        .map_err(|e| e.to_string())?;
    out.note_solve(&r.stats);
    if r.reachable {
        let schedule = t
            .span("witness.conc", || {
                concurrent_witness_from(&mut solver, &merged, &targets, switches)
            })
            .map_err(|e| format!("witness: {e}"))?
            .ok_or("witness extraction disagreed with the verdict")?;
        out.add("witness.conc.rounds", schedule.rounds.len());
        let rounds = schedule.to_replay();
        let refined = t
            .span("conc.refine", || {
                conc_refine_schedule(&merged, &targets, &rounds, ConcLimits::default())
            })
            .map_err(|e| format!("schedule refinement: {e}"))?
            .ok_or("the extracted schedule does not refine into statement steps")?;
        out.add("conc.refine.search_states", refined.search_states);
        t.span("conc.guided", || {
            conc_replay_guided(&merged, &targets, &rounds, &refined.steps, ConcLimits::default())
        })
        .map_err(|e| format!("witness failed guided replay: {e}"))?;
        out.add("conc.guided.steps", refined.steps.len());
    }
    out.note_bdd(&solver);
    Ok(r.reachable)
}
