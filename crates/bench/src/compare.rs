//! Baseline comparison for `BENCH_fig2.json` reports: per-workload deltas
//! of wall time, re-evaluations, BDD cache hit rate and peak arena, plus
//! the wall-clock regression gate CI enforces.
//!
//! `bench-report --compare BASELINE.json` replaces the ad-hoc "total wall
//! within 25%" scripting this repository used to carry in CI YAML: the
//! comparison is computed here, printed as a per-workload table, exported
//! as `BENCH_compare.json` (`schema: getafix-bench-compare/1`) and gated
//! in one place. Workloads are matched by `(name, algorithm)`; fields a
//! baseline from an older schema does not carry are simply absent from
//! that row's deltas rather than an error, so the committed baseline never
//! has to move in lock-step with the stats schema.

use getafix_telemetry::json::{parse, JsonWriter, Value};
use std::fmt::Write as _;

/// The most the total matched worklist wall time may grow over the
/// baseline before [`Comparison::gate`] fails: runner noise aside, a >25%
/// slowdown must not land silently.
const MAX_WALL_RATIO: f64 = 1.25;

/// One strategy's numbers for one workload, as read from a report. All
/// fields beyond wall time are optional — older baselines may predate
/// them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadNumbers {
    pub wall_ms: f64,
    pub reevaluations: Option<u64>,
    /// BDD computed-cache hit rate in `[0, 1]`, from the embedded stats.
    pub cache_hit_rate: Option<f64>,
    /// Peak BDD arena footprint in bytes, from the embedded stats.
    pub peak_arena_bytes: Option<u64>,
}

/// One matched workload: the baseline and current worklist-strategy
/// numbers side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDelta {
    pub name: String,
    pub algorithm: String,
    pub base: WorkloadNumbers,
    pub cur: WorkloadNumbers,
}

impl WorkloadDelta {
    /// Current wall time over baseline wall time (`> 1` = slower).
    pub fn wall_ratio(&self) -> f64 {
        if self.base.wall_ms > 0.0 {
            self.cur.wall_ms / self.base.wall_ms
        } else {
            1.0
        }
    }
}

/// The result of comparing two fig2 reports.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Workloads present in both reports, baseline order.
    pub rows: Vec<WorkloadDelta>,
    /// `name (algorithm)` keys only the baseline has.
    pub only_baseline: Vec<String>,
    /// `name (algorithm)` keys only the current report has.
    pub only_current: Vec<String>,
}

impl Comparison {
    /// Total worklist wall time over the **matched** workloads, baseline
    /// and current — the gate's numerator/denominator. Matching first
    /// keeps an added or removed workload from masquerading as a speedup
    /// or regression.
    pub fn total_wall_ms(&self) -> (f64, f64) {
        let base = self.rows.iter().map(|r| r.base.wall_ms).sum();
        let cur = self.rows.iter().map(|r| r.cur.wall_ms).sum();
        (base, cur)
    }

    /// Current total wall over baseline total wall (`> 1` = slower).
    pub fn wall_ratio(&self) -> f64 {
        let (base, cur) = self.total_wall_ms();
        if base > 0.0 {
            cur / base
        } else {
            1.0
        }
    }

    /// The regression gate: total matched worklist wall time must not
    /// exceed `MAX_WALL_RATIO` (1.25) × baseline.
    ///
    /// # Errors
    ///
    /// A message with both totals and the ratio.
    pub fn gate(&self) -> Result<(), String> {
        if self.rows.is_empty() {
            return Err("no workloads matched between baseline and current report".into());
        }
        let (base, cur) = self.total_wall_ms();
        let ratio = self.wall_ratio();
        if ratio > MAX_WALL_RATIO {
            return Err(format!(
                "fig2 worklist wall time regressed: {cur:.1} ms vs baseline {base:.1} ms \
                 ({ratio:.2}x > {MAX_WALL_RATIO:.2}x allowed)"
            ));
        }
        Ok(())
    }

    /// The human per-workload delta table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len() + r.algorithm.len() + 3)
            .chain([24])
            .max()
            .unwrap_or(24);
        let _ = writeln!(
            out,
            "{:<name_w$} {:>18} {:>7} {:>16} {:>13} {:>15}",
            "workload", "wall ms", "Δ wall", "re-evals", "cache hit %", "peak arena MiB"
        );
        for r in &self.rows {
            let label = format!("{} ({})", r.name, r.algorithm);
            let wall = format!("{:.1} → {:.1}", r.base.wall_ms, r.cur.wall_ms);
            let dwall = format!("{:+.0}%", (r.wall_ratio() - 1.0) * 100.0);
            let opt_pair = |b: Option<u64>, c: Option<u64>, scale: f64, prec: usize| match (b, c) {
                (Some(b), Some(c)) => {
                    format!("{:.prec$} → {:.prec$}", b as f64 / scale, c as f64 / scale)
                }
                _ => "-".into(),
            };
            let reevals = opt_pair(r.base.reevaluations, r.cur.reevaluations, 1.0, 0);
            let hit = match (r.base.cache_hit_rate, r.cur.cache_hit_rate) {
                (Some(b), Some(c)) => format!("{:.1} → {:.1}", b * 100.0, c * 100.0),
                _ => "-".into(),
            };
            let arena =
                opt_pair(r.base.peak_arena_bytes, r.cur.peak_arena_bytes, 1024.0 * 1024.0, 1);
            let _ = writeln!(
                out,
                "{label:<name_w$} {wall:>18} {dwall:>7} {reevals:>16} {hit:>13} {arena:>15}"
            );
        }
        for key in &self.only_baseline {
            let _ = writeln!(out, "{key:<name_w$} only in baseline");
        }
        for key in &self.only_current {
            let _ = writeln!(out, "{key:<name_w$} only in current report");
        }
        let (base, cur) = self.total_wall_ms();
        let _ = writeln!(
            out,
            "total worklist wall (matched): {base:.1} → {cur:.1} ms ({:.2}x)",
            self.wall_ratio()
        );
        out
    }

    /// The machine-readable comparison (`schema: getafix-bench-compare/1`),
    /// uploaded as a CI artifact next to the reports it compares.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "getafix-bench-compare/1");
        let (base, cur) = self.total_wall_ms();
        w.field_f64_prec("baseline_wall_ms", base, 3);
        w.field_f64_prec("current_wall_ms", cur, 3);
        w.field_f64_prec("wall_ratio", self.wall_ratio(), 4);
        w.key("workloads");
        w.begin_array();
        for r in &self.rows {
            w.begin_object();
            w.field_str("name", &r.name);
            w.field_str("algorithm", &r.algorithm);
            w.field_f64_prec("wall_ratio", r.wall_ratio(), 4);
            for (side, n) in [("baseline", &r.base), ("current", &r.cur)] {
                w.key(side);
                w.begin_object();
                w.field_f64_prec("wall_ms", n.wall_ms, 3);
                if let Some(v) = n.reevaluations {
                    w.field_u64("reevaluations", v);
                }
                if let Some(v) = n.cache_hit_rate {
                    w.field_f64_prec("cache_hit_rate", v, 4);
                }
                if let Some(v) = n.peak_arena_bytes {
                    w.field_u64("peak_arena_bytes", v);
                }
                w.end_object();
            }
            w.end_object();
        }
        w.end_array();
        w.key("only_baseline");
        w.begin_array();
        for k in &self.only_baseline {
            w.value_str(k);
        }
        w.end_array();
        w.key("only_current");
        w.begin_array();
        for k in &self.only_current {
            w.value_str(k);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Reads one workload entry's worklist-strategy numbers.
fn numbers(workload: &Value) -> Option<WorkloadNumbers> {
    let wl = workload.get("strategies")?.get("worklist")?;
    let wall_ms = wl.get("wall_ms").and_then(Value::as_f64)?;
    let stats = wl.get("stats");
    let stat_u64 =
        |key: &str| stats.and_then(|s| s.get(key)).and_then(Value::as_f64).map(|v| v as u64);
    let cache_hit_rate = match (stat_u64("cache_hits"), stat_u64("cache_misses")) {
        (Some(h), Some(m)) if h + m > 0 => Some(h as f64 / (h + m) as f64),
        _ => None,
    };
    Some(WorkloadNumbers {
        wall_ms,
        reevaluations: wl.get("reevaluations").and_then(Value::as_f64).map(|v| v as u64),
        cache_hit_rate,
        peak_arena_bytes: stat_u64("peak_arena_bytes"),
    })
}

/// Parses one report into `(key, label, numbers)` rows, keyed by
/// `(name, algorithm)` — the algorithm defaults to `""` for pre-/2
/// baselines that did not record it.
fn report_rows(doc: &str, which: &str) -> Result<Vec<(String, String, WorkloadNumbers)>, String> {
    let v = parse(doc).map_err(|e| format!("{which} report does not parse: {e}"))?;
    let workloads = v
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{which} report has no workloads array"))?;
    let mut rows = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{which} report: workload without a name"))?;
        let algorithm = w.get("algorithm").and_then(Value::as_str).unwrap_or("");
        if let Some(n) = numbers(w) {
            rows.push((name.to_string(), algorithm.to_string(), n));
        }
    }
    Ok(rows)
}

/// Compares two `BENCH_fig2.json` documents (baseline first).
///
/// # Errors
///
/// When either document does not parse or lacks a workloads array.
pub fn compare_fig2(baseline: &str, current: &str) -> Result<Comparison, String> {
    let base_rows = report_rows(baseline, "baseline")?;
    let cur_rows = report_rows(current, "current")?;
    let key = |name: &str, algo: &str| {
        if algo.is_empty() {
            name.to_string()
        } else {
            format!("{name} ({algo})")
        }
    };
    let mut cmp = Comparison::default();
    for (name, algo, base) in &base_rows {
        match cur_rows.iter().find(|(n, a, _)| n == name && a == algo) {
            Some((_, _, cur)) => cmp.rows.push(WorkloadDelta {
                name: name.clone(),
                algorithm: algo.clone(),
                base: base.clone(),
                cur: cur.clone(),
            }),
            None => cmp.only_baseline.push(key(name, algo)),
        }
    }
    for (name, algo, _) in &cur_rows {
        if !base_rows.iter().any(|(n, a, _)| n == name && a == algo) {
            cmp.only_current.push(key(name, algo));
        }
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, &str, f64, u64)]) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "getafix-bench-fig2/2");
        w.key("workloads");
        w.begin_array();
        for (name, algo, wall, reevals) in entries {
            w.begin_object();
            w.field_str("name", name);
            w.field_str("algorithm", algo);
            w.key("strategies");
            w.begin_object();
            w.key("worklist");
            w.begin_object();
            w.field_f64_prec("wall_ms", *wall, 3);
            w.field_u64("reevaluations", *reevals);
            w.key("stats");
            w.begin_object();
            w.field_u64("cache_hits", 75);
            w.field_u64("cache_misses", 25);
            w.field_u64("peak_arena_bytes", 1 << 20);
            w.end_object();
            w.end_object();
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    #[test]
    fn matches_by_name_and_algorithm_and_gates_on_matched_wall() {
        let base =
            report(&[("a", "ef", 100.0, 50), ("a", "ef-opt", 50.0, 20), ("gone", "ef", 10.0, 5)]);
        let cur =
            report(&[("a", "ef", 110.0, 50), ("a", "ef-opt", 80.0, 22), ("new", "ef", 99.0, 1)]);
        let cmp = compare_fig2(&base, &cur).expect("compares");
        assert_eq!(cmp.rows.len(), 2);
        assert_eq!(cmp.only_baseline, vec!["gone (ef)"]);
        assert_eq!(cmp.only_current, vec!["new (ef)"]);
        // Matched totals: 150 → 190; the unmatched 10/99 ms never count.
        let (b, c) = cmp.total_wall_ms();
        assert_eq!((b, c), (150.0, 190.0));
        let err = cmp.gate().expect_err("26.7% regression trips the gate");
        assert!(err.contains("1.27x"), "{err}");

        let table = cmp.render();
        assert!(table.contains("a (ef-opt)"), "{table}");
        assert!(table.contains("+60%"), "{table}");
        assert!(table.contains("only in baseline"), "{table}");

        let v = parse(&cmp.to_json()).expect("comparison JSON parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("getafix-bench-compare/1"));
        assert_eq!(v.get("baseline_wall_ms").and_then(Value::as_f64), Some(150.0));
        let rows = v.get("workloads").and_then(Value::as_array).expect("workloads");
        assert_eq!(rows.len(), 2);
        let hit = rows[0]
            .get("baseline")
            .and_then(|b| b.get("cache_hit_rate"))
            .and_then(Value::as_f64)
            .expect("hit rate");
        assert!((hit - 0.75).abs() < 1e-9);
    }

    #[test]
    fn tolerates_baselines_missing_new_fields() {
        // A hand-stripped baseline: no algorithm, no reevaluations, no
        // embedded stats — only wall_ms, like the earliest reports.
        let base = r#"{"workloads": [
            {"name": "a", "strategies": {"worklist": {"wall_ms": 10.0}}}
        ]}"#;
        let cur = r#"{"workloads": [
            {"name": "a", "strategies": {"worklist": {"wall_ms": 11.0,
                "reevaluations": 7,
                "stats": {"cache_hits": 1, "cache_misses": 1, "peak_arena_bytes": 2048}}}}
        ]}"#;
        let cmp = compare_fig2(base, cur).expect("old schema still compares");
        assert_eq!(cmp.rows.len(), 1);
        let r = &cmp.rows[0];
        assert_eq!(r.base.reevaluations, None);
        assert_eq!(r.base.cache_hit_rate, None);
        assert_eq!(r.cur.reevaluations, Some(7));
        assert!(cmp.gate().is_ok());
        assert!(cmp.render().contains('-'), "absent fields render as dashes");
    }

    #[test]
    fn rejects_garbage_and_disjoint_reports() {
        assert!(compare_fig2("not json", "{}").is_err());
        assert!(compare_fig2("{}", "{}").is_err(), "no workloads array");
        let a = report(&[("a", "ef", 1.0, 1)]);
        let b = report(&[("b", "ef", 1.0, 1)]);
        let cmp = compare_fig2(&a, &b).expect("parses");
        assert!(cmp.gate().is_err(), "nothing matched — the gate must not silently pass");
    }
}
