//! From timed passes to the named metrics the benchmark prints.

use crate::pipeline::{COUNTERS, LAYERS, PEAK_ARENA_BYTES};
use crate::trace::{Tracer, CASE};
use crate::{total_counts, CaseRun};
use std::ops::Range;
use std::time::Duration;

/// One pass over the corpus.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Every case, in corpus order.
    pub runs: Vec<CaseRun>,
    /// Σ case wall of the pass.
    pub wall: Duration,
    /// The pass's spans in the tracer.
    pub spans: Range<usize>,
    /// Scales the pass's walls to the reference host speed
    /// ([`crate::host::speed_factor`]).
    pub speed: f64,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// As in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// As in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Median of `xs` (the mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

const MB: f64 = 1e6;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Each case's median wall over the passes, in milliseconds at the
/// reference host speed.
pub fn case_ms(passes: &[Pass]) -> Vec<f64> {
    let n_cases = passes.first().map_or(0, |p| p.runs.len());
    let mut walls = vec![Vec::with_capacity(passes.len()); n_cases];
    for p in passes {
        for r in &p.runs {
            walls[r.case].push(ms(r.wall) * p.speed);
        }
    }
    walls.iter().map(|w| median(w)).collect()
}

/// The end-to-end metrics of an untraced run; `setup_s` holds each
/// set-up's seconds at the reference host speed.
///
/// Every timing starts from each case's median wall over the run's
/// passes, each pass scaled to the reference host speed by the host
/// probes taken during it (see `host.rs`). The host's speed drifts by a
/// third over minutes; the scaling takes most of that out, and the median
/// the rest (see `NOTES.md`).
pub fn end_to_end(passes: &[Pass], setup_s: &[f64], peak_rss_bytes: u64) -> Vec<Metric> {
    let runs: Vec<&CaseRun> = passes.iter().flat_map(|p| &p.runs).collect();
    let solved = runs.iter().filter(|r| r.outcome.error.is_none()).count() as f64;
    let case_ms = case_ms(passes);
    let n_cases = case_ms.len();
    let pass_s = case_ms.iter().sum::<f64>() / 1e3;
    let geomean = (case_ms.iter().map(|x| x.ln()).sum::<f64>() / n_cases as f64).exp();
    // Arena sizes step with capacity doublings, so the largest case's peak
    // jumps between levels as the seed redraws the drivers; the mean over
    // cases does not.
    let arena_bytes: u64 = passes
        .first()
        .map_or(0, |p| p.runs.iter().filter_map(|r| r.outcome.counts.get(PEAK_ARENA_BYTES)).sum());
    vec![
        metric("cases_per_s", solved / runs.len() as f64 * n_cases as f64 / pass_s, "1/s"),
        metric("case_ms.geomean", geomean, "ms"),
        metric("case_ms.p90", quantile(&case_ms, 0.9), "ms"),
        metric("arena_mb.mean", arena_bytes as f64 / n_cases as f64 / MB, "MB"),
        metric("peak_rss_mb", peak_rss_bytes as f64 / MB, "MB"),
        metric("setup_s", median(setup_s), "s"),
    ]
}

/// The unit of a counter.
fn counter_unit(name: &str) -> &'static str {
    if name.ends_with("bytes") {
        "B"
    } else {
        "count"
    }
}

/// The per-layer metrics of a traced run, whose traced and untraced
/// passes alternate.
///
/// Times are per pass over the corpus (the median over traced passes of
/// the per-pass sum, at the reference host speed), counters are the
/// per-pass totals (identical on every pass), and shares are of the
/// traced case wall.
pub fn per_layer(passes: &[Pass], tracer: &Tracer) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    // Self time per layer per traced pass, plus the case roots' own time
    // (whatever no layer span covers) and the case wall, all scaled to the
    // reference host speed.
    let mut layer_ns: Vec<Vec<f64>> = vec![Vec::new(); LAYERS.len()];
    let mut case_wall_ns = 0.0;
    let mut unattributed_ns = 0.0;
    let mut outside_compile: Vec<f64> = Vec::new();
    let mut compile: Vec<f64> = Vec::new();
    let mut gc_pause: Vec<f64> = Vec::new();
    for p in &traced {
        let mut sums = vec![0.0; LAYERS.len()];
        for (name, self_ns) in tracer.self_ns(p.spans.clone()) {
            if name == CASE {
                unattributed_ns += self_ns as f64 * p.speed;
            } else if let Some(i) = LAYERS.iter().position(|&l| l == name) {
                sums[i] += self_ns as f64 * p.speed;
            }
        }
        case_wall_ns += p.speed
            * tracer.spans()[p.spans.clone()]
                .iter()
                .filter(|s| s.name == CASE)
                .map(|s| s.dur_ns() as f64)
                .sum::<f64>();
        let c = p.speed * p.runs.iter().map(|r| r.outcome.compile_ms).sum::<f64>();
        let g = p.speed * p.runs.iter().map(|r| r.outcome.gc_pause_ms).sum::<f64>();
        let solve = LAYERS.iter().position(|&l| l == "mucalc.solve").expect("solve is a layer");
        let solve_ms = sums[solve] / 1e6;
        compile.push(c);
        gc_pause.push(g);
        outside_compile.push(solve_ms - c - g);
        for (acc, s) in layer_ns.iter_mut().zip(sums) {
            acc.push(s);
        }
    }

    let mut out = Vec::new();
    for (layer, per_pass) in LAYERS.iter().zip(&layer_ns) {
        let ms: Vec<f64> = per_pass.iter().map(|ns| ns / 1e6).collect();
        out.push(metric(format!("{layer}.ms"), median(&ms), "ms"));
        out.push(metric(
            format!("{layer}.share"),
            per_pass.iter().sum::<f64>() / case_wall_ns,
            "ratio",
        ));
    }
    out.push(metric("mucalc.solve.compile_ms", median(&compile), "ms"));
    out.push(metric("mucalc.solve.gc_pause_ms", median(&gc_pause), "ms"));
    out.push(metric("mucalc.solve.outside_compile_ms", median(&outside_compile), "ms"));

    let counts = traced.first().map(|p| total_counts(&p.runs)).unwrap_or_default();
    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    for name in COUNTERS {
        out.push(metric(name, count(name), counter_unit(name)));
    }
    let attempted = count("bdd.cache_hits") + count("bdd.cache_misses");
    out.push(metric("bdd.cache_hit_ratio", count("bdd.cache_hits") / attempted.max(1.0), "ratio"));

    out.push(metric("trace.attributed_frac", 1.0 - unattributed_ns / case_wall_ns, "ratio"));
    let rate = |on: bool| {
        let (n, wall) =
            passes.iter().filter(|p| p.traced == on).fold((0usize, 0.0), |(n, w), p| {
                (n + p.runs.len(), w + p.wall.as_secs_f64() * p.speed)
            });
        n as f64 / wall
    };
    out.push(metric("trace.overhead_frac", 1.0 - rate(true) / rate(false), "ratio"));
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
