//! The Getafix benchmark: the user's pipeline, case by case, from source
//! text to a verdict plus a replay-checked witness, on three workloads
//! that stress different layers. `src/main.rs` is the command; this
//! library is what it and the self-test share.

pub mod corpus;
pub mod host;
pub mod pipeline;
pub mod report;
pub mod trace;

use corpus::Case;
use host::HostProbe;
use pipeline::{run_case, Counts, Outcome, PEAK_ARENA_BYTES};
use std::time::{Duration, Instant};
use trace::Tracer;

/// One executed case: what it produced and its wall time.
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// Index into the corpus.
    pub case: usize,
    /// The result.
    pub outcome: Outcome,
    /// Wall time of the whole case.
    pub wall: Duration,
}

/// Host probes per pass, spread evenly between the cases.
const PROBES_PER_PASS: usize = 12;

/// One pass over a corpus.
#[derive(Debug, Clone)]
pub struct PassRun {
    /// Every case, in corpus order.
    pub runs: Vec<CaseRun>,
    /// The median host probe over the pass, in milliseconds (0 unprobed).
    pub probe_ms: f64,
}

impl PassRun {
    /// Σ case wall: the pass without its probes.
    pub fn wall(&self) -> Duration {
        self.runs.iter().map(|r| r.wall).sum()
    }
}

/// Runs every case of `corpus` once, in order, one at a time. With a
/// probe, the host is probed about [`PROBES_PER_PASS`] times between the
/// cases, outside their walls.
pub fn run_pass(
    corpus: &[Case],
    tracer: &mut Tracer,
    mut probe: Option<&mut HostProbe>,
) -> PassRun {
    let every = corpus.len().div_ceil(PROBES_PER_PASS).max(1);
    let mut probes = Vec::new();
    let mut runs = Vec::with_capacity(corpus.len());
    for (i, c) in corpus.iter().enumerate() {
        let t0 = Instant::now();
        let outcome = std::hint::black_box(run_case(c, tracer));
        runs.push(CaseRun { case: i, outcome, wall: t0.elapsed() });
        let due = (i + 1) % every == 0 || i + 1 == corpus.len();
        if let (true, Some(p)) = (due, probe.as_deref_mut()) {
            probes.push(p.probe_ms());
        }
    }
    PassRun { runs, probe_ms: report::median(&probes) }
}

/// The counters of a set of cases: summed, except the arena peak, which
/// is the maximum.
pub fn total_counts(runs: &[CaseRun]) -> Counts {
    let mut total = Counts::new();
    for r in runs {
        for (&k, &v) in &r.outcome.counts {
            let e = total.entry(k).or_default();
            *e = if k == PEAK_ARENA_BYTES { (*e).max(v) } else { *e + v };
        }
    }
    total
}
