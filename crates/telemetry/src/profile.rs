//! Trace analysis: well-formedness checks, span-tree coverage and the
//! human `--profile` summary.
//!
//! Everything here consumes a finished [`TraceData`]; nothing is on the
//! recording path. The checks double as the telemetry test oracle: a trace
//! that passes [`TraceData::check_well_formed`] renders to a Chrome trace
//! whose spans nest properly in Perfetto.

use crate::collect::{AttrValue, SpanRecord, TraceData};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Duration buckets of the re-evaluation latency histogram, in µs
/// (upper bounds; the last bucket is open).
const HIST_BOUNDS_US: [u64; 5] = [10, 100, 1_000, 10_000, 100_000];

/// Aggregate of one `(phase, name)` span group.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Group {
    count: usize,
    total_us: u64,
    self_us: u64,
}

impl TraceData {
    /// Checks the structural invariants the exporter and viewers rely on:
    /// every span has `t_start ≤ t_end`, and the spans form a proper
    /// forest — for any two spans, their intervals are either disjoint or
    /// one contains the other, with containment matching the recorded
    /// depths (a child is strictly deeper than the span containing it).
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.t_end_us < s.t_start_us {
                return Err(format!("span `{}` ends before it starts", s.name));
            }
        }
        // Completion order is LIFO per nesting: replay it against a stack.
        // A span closed at position i must contain every span closed
        // earlier that starts after it.
        let mut sorted: Vec<&SpanRecord> = self.spans.iter().collect();
        sorted.sort_by_key(|s| (s.t_start_us, std::cmp::Reverse(s.t_end_us)));
        let mut stack: Vec<&SpanRecord> = Vec::new();
        for s in sorted {
            while let Some(top) = stack.last() {
                if s.t_start_us >= top.t_end_us {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if s.t_end_us > top.t_end_us {
                    return Err(format!(
                        "span `{}` [{}, {}] overlaps `{}` [{}, {}] without nesting",
                        s.name, s.t_start_us, s.t_end_us, top.name, top.t_start_us, top.t_end_us
                    ));
                }
                if s.depth <= top.depth {
                    return Err(format!(
                        "span `{}` (depth {}) nests inside `{}` (depth {}) but is not deeper",
                        s.name, s.depth, top.name, top.depth
                    ));
                }
            } else if s.depth != 0 {
                return Err(format!(
                    "span `{}` has depth {} but no enclosing span",
                    s.name, s.depth
                ));
            }
            stack.push(s);
        }
        for e in &self.events {
            let _ = e;
        }
        Ok(())
    }

    /// Fraction of the *longest* span named `root` that is covered by its
    /// direct children — the "span tree covers ≥ N% of solve wall time"
    /// acceptance measure. `None` when no span has that name.
    pub fn coverage_of(&self, root: &str) -> Option<f64> {
        let root_span = self.spans.iter().filter(|s| s.name == root).max_by_key(|s| s.dur_us())?;
        if root_span.dur_us() == 0 {
            return Some(1.0);
        }
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| {
                s.depth == root_span.depth + 1
                    && s.t_start_us >= root_span.t_start_us
                    && s.t_end_us <= root_span.t_end_us
            })
            .map(|s| s.dur_us())
            .sum();
        Some(covered as f64 / root_span.dur_us() as f64)
    }

    /// Per-`(phase, name)` totals with self time (duration minus direct
    /// children), sorted by descending self time.
    fn span_groups(&self) -> Vec<(String, Group)> {
        // Spans are recorded as they close, so a span's children close
        // after its previous sibling and before it: one pass, with the
        // durations closed at each depth since that depth's parent last
        // took them, gives every span its direct-children total.
        let mut closed_us: Vec<u64> = Vec::new();
        let mut groups: BTreeMap<String, Group> = BTreeMap::new();
        for s in &self.spans {
            if closed_us.len() < s.depth + 2 {
                closed_us.resize(s.depth + 2, 0);
            }
            let child_us = std::mem::take(&mut closed_us[s.depth + 1]);
            closed_us[s.depth] += s.dur_us();
            let g = groups.entry(format!("{}/{}", s.phase, s.name)).or_default();
            g.count += 1;
            g.total_us += s.dur_us();
            g.self_us += s.dur_us().saturating_sub(child_us);
        }
        let mut out: Vec<(String, Group)> = groups.into_iter().collect();
        out.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// The human `--profile` summary: top-`top_n` span groups by self
    /// time, the re-evaluation latency histogram per relation (spans named
    /// `reeval` with a `relation` attribute), and one line per recorded
    /// event kind.
    pub fn profile_summary(&self, top_n: usize) -> String {
        let mut out = String::new();
        let groups = self.span_groups();
        let total_self: u64 = groups.iter().map(|(_, g)| g.self_us).sum();
        let _ = writeln!(
            out,
            "profile: {} spans, {} events, {:.3} ms total self time",
            self.spans.len(),
            self.events.len(),
            total_self as f64 / 1e3
        );
        // Column widths follow the content (clamped to a floor), so long
        // relation names never shear the table out of alignment and two
        // runs over the same trace render byte-identically.
        let name_w =
            groups.iter().take(top_n).map(|(name, _)| name.len()).chain([28]).max().unwrap_or(28);
        let _ = writeln!(
            out,
            "{:<name_w$} {:>7} {:>12} {:>12} {:>6}",
            "span", "count", "self ms", "total ms", "self%"
        );
        for (name, g) in groups.iter().take(top_n) {
            let _ = writeln!(
                out,
                "{:<name_w$} {:>7} {:>12.3} {:>12.3} {:>5.1}%",
                name,
                g.count,
                g.self_us as f64 / 1e3,
                g.total_us as f64 / 1e3,
                if total_self == 0 { 0.0 } else { 100.0 * g.self_us as f64 / total_self as f64 }
            );
        }

        // Re-evaluation latency histogram, per relation.
        let mut hist: BTreeMap<&str, [usize; HIST_BOUNDS_US.len() + 1]> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == "reeval") {
            let Some(rel) = s.attrs.iter().find_map(|(k, v)| match (k, v) {
                (&"relation", AttrValue::Str(r)) => Some(r.as_str()),
                _ => None,
            }) else {
                continue;
            };
            let bucket =
                HIST_BOUNDS_US.iter().position(|&b| s.dur_us() < b).unwrap_or(HIST_BOUNDS_US.len());
            hist.entry(rel).or_default()[bucket] += 1;
        }
        if !hist.is_empty() {
            let rel_w = hist.keys().map(|r| r.len()).chain([20]).max().unwrap_or(20);
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<rel_w$} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
                "re-eval latency", "<10us", "<100us", "<1ms", "<10ms", "<100ms", "more"
            );
            for (rel, buckets) in &hist {
                let _ = writeln!(
                    out,
                    "{:<rel_w$} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
                    rel, buckets[0], buckets[1], buckets[2], buckets[3], buckets[4], buckets[5]
                );
            }
        }

        let mut event_counts: BTreeMap<String, usize> = BTreeMap::new();
        for e in &self.events {
            *event_counts.entry(format!("{}/{}", e.phase, e.name)).or_default() += 1;
        }
        if !event_counts.is_empty() {
            let _ = writeln!(out);
            for (name, count) in &event_counts {
                let _ = writeln!(out, "event {name}: {count}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{EventRecord, Phase};
    use proptest::prelude::*;

    fn span(name: &'static str, start: u64, end: u64, depth: usize) -> SpanRecord {
        SpanRecord {
            phase: Phase::Solve,
            name,
            t_start_us: start,
            t_end_us: end,
            depth,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn well_formed_accepts_proper_nesting() {
        let data = TraceData {
            spans: vec![
                span("inner", 10, 20, 1),
                span("outer", 0, 30, 0),
                span("later", 40, 50, 0),
            ],
            events: vec![EventRecord {
                phase: Phase::Bdd,
                name: "gc",
                t_us: 15,
                attrs: Vec::new(),
            }],
            ..TraceData::default()
        };
        data.check_well_formed().expect("proper nesting");
    }

    #[test]
    fn well_formed_rejects_overlap_and_bad_depth() {
        let overlap = TraceData {
            spans: vec![span("a", 0, 20, 0), span("b", 10, 30, 0)],
            ..TraceData::default()
        };
        assert!(overlap.check_well_formed().is_err());

        let bad_depth = TraceData {
            spans: vec![span("inner", 10, 20, 0), span("outer", 0, 30, 0)],
            ..TraceData::default()
        };
        assert!(bad_depth.check_well_formed().is_err());

        let reversed = TraceData { spans: vec![span("r", 20, 10, 0)], ..TraceData::default() };
        assert!(reversed.check_well_formed().is_err());
    }

    #[test]
    fn coverage_counts_direct_children_only() {
        let data = TraceData {
            spans: vec![
                span("grandchild", 2, 4, 2),
                span("child", 0, 50, 1),
                span("child", 60, 100, 1),
                span("solve", 0, 100, 0),
            ],
            ..TraceData::default()
        };
        // Children cover 50 + 40 of 100; the grandchild must not double-count.
        let cov = data.coverage_of("solve").expect("root exists");
        assert!((cov - 0.9).abs() < 1e-9, "coverage {cov}");
        assert_eq!(data.coverage_of("absent"), None);
    }

    #[test]
    fn profile_summary_is_deterministic_under_ties_and_long_names() {
        // Three groups with identical self time must order by name, and a
        // relation name longer than any fixed column width must not shear
        // the table: every body row stays as wide as its header.
        let mut long = span("reeval", 200, 220, 0);
        long.attrs
            .push(("relation", AttrValue::Str("AVeryLongRelationNameThatOverflowsColumns".into())));
        let data = TraceData {
            spans: vec![span("beta", 0, 20, 0), span("alpha", 40, 60, 0), long],
            ..TraceData::default()
        };
        let a = data.profile_summary(10);
        let b = data.profile_summary(10);
        assert_eq!(a, b);
        let alpha = a.find("solve/alpha").expect("alpha listed");
        let beta = a.find("solve/beta").expect("beta listed");
        let reeval = a.find("solve/reeval").expect("reeval listed");
        assert!(alpha < beta && beta < reeval, "ties break by name:\n{a}");

        let lines: Vec<&str> = a.lines().collect();
        let header = lines.iter().position(|l| l.starts_with("span")).expect("table header");
        let header_len = lines[header].len();
        for row in &lines[header + 1..header + 4] {
            assert_eq!(row.len(), header_len, "misaligned row {row:?} in:\n{a}");
        }
        let hist_header =
            lines.iter().find(|l| l.starts_with("re-eval latency")).expect("histogram header");
        let hist_row = lines
            .iter()
            .find(|l| l.starts_with("AVeryLongRelationName"))
            .expect("histogram row for the long relation");
        assert_eq!(hist_row.len(), hist_header.len(), "histogram misaligned:\n{a}");
    }

    #[test]
    fn profile_summary_self_time() {
        let mut inner = span("reeval", 10, 30, 1);
        inner.attrs.push(("relation", AttrValue::Str("Reach".into())));
        let data =
            TraceData { spans: vec![inner, span("stratum", 0, 100, 0)], ..TraceData::default() };
        let summary = data.profile_summary(10);
        // stratum self time = 100 - 20 = 80us; reeval = 20us.
        assert!(summary.contains("solve/stratum"), "{summary}");
        assert!(summary.contains("solve/reeval"), "{summary}");
        assert!(summary.contains("re-eval latency"), "{summary}");
        assert!(summary.contains("Reach"), "{summary}");
    }

    /// The span groups by interval containment: a span's direct children
    /// are the spans one level deeper inside its interval. Quadratic, so
    /// only the oracle for [`TraceData::span_groups`].
    fn groups_by_containment(data: &TraceData) -> BTreeMap<String, Group> {
        let mut groups: BTreeMap<String, Group> = BTreeMap::new();
        for s in &data.spans {
            let child_us: u64 = data
                .spans
                .iter()
                .filter(|c| {
                    c.depth == s.depth + 1
                        && c.t_start_us >= s.t_start_us
                        && c.t_end_us <= s.t_end_us
                })
                .map(|c| c.dur_us())
                .sum();
            let g = groups.entry(format!("{}/{}", s.phase, s.name)).or_default();
            g.count += 1;
            g.total_us += s.dur_us();
            g.self_us += s.dur_us().saturating_sub(child_us);
        }
        groups
    }

    /// A well-formed span forest in completion order, from a script of
    /// opens (0), closes (1) and idle ticks (2); the spans still open at
    /// the end close in order. Every step advances the clock, so no two
    /// span boundaries share a timestamp.
    fn forest(script: &[usize]) -> TraceData {
        const NAMES: [&str; 3] = ["eval", "reeval", "gc"];
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        let mut spans = Vec::new();
        let mut t = 0;
        for &op in script.iter().chain(std::iter::repeat_n(&1, script.len())) {
            t += 1;
            match op {
                0 => open.push((NAMES[t as usize % NAMES.len()], t)),
                1 => {
                    if let Some((name, start)) = open.pop() {
                        spans.push(span(name, start, t, open.len()));
                    }
                }
                _ => {}
            }
        }
        TraceData { spans, ..TraceData::default() }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass span groups equal the containment oracle's
        /// counts, totals and self times on random span forests.
        #[test]
        fn span_groups_match_containment(script in prop::collection::vec(0usize..3, 0..120)) {
            let data = forest(&script);
            data.check_well_formed().expect("the script builds a forest");
            let one_pass: BTreeMap<String, Group> = data.span_groups().into_iter().collect();
            prop_assert_eq!(one_pass, groups_by_containment(&data));
        }
    }
}
