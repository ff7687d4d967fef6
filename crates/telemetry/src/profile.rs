//! Trace analysis: the [`Summary`] a collector folds as spans close,
//! the human `--profile` summary rendered from it, and the well-formedness
//! checks and span-tree coverage over raw span records.
//!
//! The checks double as the telemetry test oracle: a trace that passes
//! [`TraceData::check_well_formed`] renders to a Chrome trace whose spans
//! nest properly in Perfetto.

use crate::collect::{AttrValue, Phase, SpanRecord, TraceData};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Duration buckets of the re-evaluation latency histogram, in µs
/// (upper bounds; the last bucket is open).
const HIST_BOUNDS_US: [u64; 5] = [10, 100, 1_000, 10_000, 100_000];

/// The latency histogram of one relation: one count per bucket.
type Buckets = [u64; HIST_BOUNDS_US.len() + 1];

/// Aggregate of one `(phase, name)` span group.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Group {
    pub(crate) count: u64,
    pub(crate) total_us: u64,
    pub(crate) self_us: u64,
}

/// What a recording adds up to, folded as each span closes and each event
/// fires: per-`(phase, name)` span groups with count, total and self
/// time, the latency histogram of every relation's `reeval` spans, and
/// per-kind event counts. Its size is bounded by the number of distinct
/// groups, relations and event kinds, never by the length of the run.
#[derive(Debug, Default)]
pub struct Summary {
    pub(crate) groups: BTreeMap<(Phase, &'static str), Group>,
    pub(crate) latency: BTreeMap<String, Buckets>,
    pub(crate) events: BTreeMap<(Phase, &'static str), u64>,
    /// Per depth, the durations closed there since the last span one
    /// level up closed: that span's direct-children total.
    closed_us: Vec<u64>,
}

impl Summary {
    /// Folds in a span as it closes. Spans close in completion order, so
    /// a span's children close after its previous sibling and before it:
    /// the durations closed one level deeper since the last span at its
    /// depth closed are exactly its direct children's.
    pub(crate) fn close_span(&mut self, s: &SpanRecord) {
        if self.closed_us.len() < s.depth + 2 {
            self.closed_us.resize(s.depth + 2, 0);
        }
        let child_us = std::mem::take(&mut self.closed_us[s.depth + 1]);
        self.closed_us[s.depth] += s.dur_us();
        let g = self.groups.entry((s.phase, s.name)).or_default();
        g.count += 1;
        g.total_us += s.dur_us();
        g.self_us += s.dur_us().saturating_sub(child_us);
        if s.name != "reeval" {
            return;
        }
        let Some(rel) = s.attrs.iter().find_map(|(k, v)| match (k, v) {
            (&"relation", AttrValue::Str(r)) => Some(r.as_str()),
            _ => None,
        }) else {
            return;
        };
        let bucket =
            HIST_BOUNDS_US.iter().position(|&b| s.dur_us() < b).unwrap_or(HIST_BOUNDS_US.len());
        match self.latency.get_mut(rel) {
            Some(buckets) => buckets[bucket] += 1,
            None => {
                let mut buckets = Buckets::default();
                buckets[bucket] = 1;
                self.latency.insert(rel.to_string(), buckets);
            }
        }
    }

    /// Counts an event as it fires.
    pub(crate) fn note_event(&mut self, phase: Phase, name: &'static str) {
        *self.events.entry((phase, name)).or_default() += 1;
    }

    /// Spans folded in so far.
    pub fn span_count(&self) -> u64 {
        self.groups.values().map(|g| g.count).sum()
    }

    /// Events counted so far.
    pub fn event_count(&self) -> u64 {
        self.events.values().sum()
    }
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

    /// The human `--profile` summary: top-`top_n` span groups by self
    /// time, the re-evaluation latency histogram per relation (spans named
    /// `reeval` with a `relation` attribute), and one line per event kind.
    pub fn profile_summary(&self, top_n: usize) -> String {
        let summary = &self.summary;
        let mut out = String::new();
        let mut groups: Vec<(String, &Group)> = summary
            .groups
            .iter()
            .map(|((phase, name), g)| (format!("{phase}/{name}"), g))
            .collect();
        groups.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then_with(|| a.0.cmp(&b.0)));
        let total_self: u64 = groups.iter().map(|(_, g)| g.self_us).sum();
        let _ = writeln!(
            out,
            "profile: {} spans, {} events, {:.3} ms total self time",
            summary.span_count(),
            summary.event_count(),
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

        if !summary.latency.is_empty() {
            let rel_w = summary.latency.keys().map(|r| r.len()).chain([20]).max().unwrap_or(20);
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<rel_w$} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
                "re-eval latency", "<10us", "<100us", "<1ms", "<10ms", "<100ms", "more"
            );
            for (rel, b) in &summary.latency {
                let _ = writeln!(
                    out,
                    "{:<rel_w$} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
                    rel, b[0], b[1], b[2], b[3], b[4], b[5]
                );
            }
        }

        let events: BTreeMap<String, u64> = summary
            .events
            .iter()
            .map(|((phase, name), &n)| (format!("{phase}/{name}"), n))
            .collect();
        if !events.is_empty() {
            let _ = writeln!(out);
            for (name, count) in &events {
                let _ = writeln!(out, "event {name}: {count}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::EventRecord;
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

    /// A recording of `spans` (in completion order) and `events`, as a
    /// collector that keeps raw records would return it.
    fn recorded(spans: Vec<SpanRecord>, events: Vec<EventRecord>) -> TraceData {
        let mut summary = Summary::default();
        for s in &spans {
            summary.close_span(s);
        }
        for e in &events {
            summary.note_event(e.phase, e.name);
        }
        TraceData { spans, events, summary, ..TraceData::default() }
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
        let data =
            recorded(vec![span("beta", 0, 20, 0), span("alpha", 40, 60, 0), long], Vec::new());
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
        let data = recorded(vec![inner, span("stratum", 0, 100, 0)], Vec::new());
        let summary = data.profile_summary(10);
        // stratum self time = 100 - 20 = 80us; reeval = 20us.
        assert!(summary.contains("solve/stratum"), "{summary}");
        assert!(summary.contains("solve/reeval"), "{summary}");
        assert!(summary.contains("re-eval latency"), "{summary}");
        assert!(summary.contains("Reach"), "{summary}");
        let stratum = summary.lines().find(|l| l.starts_with("solve/stratum")).expect("row");
        assert!(stratum.contains(" 0.080 ") && stratum.contains(" 0.100 "), "{summary}");
    }

    /// The span groups by interval containment: a span's direct children
    /// are the spans one level deeper inside its interval. Quadratic, so
    /// only the oracle for [`Summary::close_span`].
    fn groups_by_containment(data: &TraceData) -> BTreeMap<(Phase, &'static str), Group> {
        let mut groups: BTreeMap<(Phase, &'static str), Group> = BTreeMap::new();
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
            let g = groups.entry((s.phase, s.name)).or_default();
            g.count += 1;
            g.total_us += s.dur_us();
            g.self_us += s.dur_us().saturating_sub(child_us);
        }
        groups
    }

    /// The latency histogram by a scan of the raw `reeval` spans.
    fn latency_by_scan(data: &TraceData) -> BTreeMap<String, Buckets> {
        let mut hist: BTreeMap<String, Buckets> = BTreeMap::new();
        for s in data.spans.iter().filter(|s| s.name == "reeval") {
            for (k, v) in &s.attrs {
                if let (&"relation", AttrValue::Str(rel)) = (k, v) {
                    let bucket = HIST_BOUNDS_US.iter().take_while(|&&b| s.dur_us() >= b).count();
                    hist.entry(rel.clone()).or_default()[bucket] += 1;
                }
            }
        }
        hist
    }

    /// The event counts by a scan of the raw events.
    fn events_by_scan(data: &TraceData) -> BTreeMap<(Phase, &'static str), u64> {
        let mut counts = BTreeMap::new();
        for e in &data.events {
            *counts.entry((e.phase, e.name)).or_default() += 1;
        }
        counts
    }

    /// A well-formed recording in completion order, from a script of
    /// opens (0), closes (1), idle ticks (2) and events (3); the spans
    /// still open at the end close in order. Every step advances the
    /// clock by 2^`gaps[i]` µs, so no two span boundaries share a
    /// timestamp and `reeval` spans land in every latency bucket.
    /// Every other `reeval` names one of two relations.
    fn forest(script: &[usize], gaps: &[u32]) -> TraceData {
        const NAMES: [&str; 3] = ["eval", "reeval", "gc"];
        const RELATIONS: [&str; 2] = ["Reach", "Summary"];
        const EVENTS: [(Phase, &str); 2] = [(Phase::Bdd, "rehash"), (Phase::Solve, "note")];
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        let (mut spans, mut events) = (Vec::new(), Vec::new());
        let mut t = 0;
        for (i, &op) in script.iter().chain(std::iter::repeat_n(&1, script.len())).enumerate() {
            t += 1u64 << gaps[i % gaps.len()];
            match op {
                0 => open.push((NAMES[i % NAMES.len()], t)),
                1 => {
                    if let Some((name, start)) = open.pop() {
                        let mut s = span(name, start, t, open.len());
                        if name == "reeval" && i % 2 == 0 {
                            let rel = RELATIONS[(i / 2) % RELATIONS.len()];
                            s.attrs.push(("relation", AttrValue::Str(rel.into())));
                        }
                        spans.push(s);
                    }
                }
                3 => {
                    let (phase, name) = EVENTS[i % EVENTS.len()];
                    events.push(EventRecord { phase, name, t_us: t, attrs: Vec::new() });
                }
                _ => {}
            }
        }
        recorded(spans, events)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The record-time aggregates equal the oracles' on random
        /// recordings: span groups (counts, totals and self times) by
        /// interval containment, the latency histogram and the event
        /// counts by scans of the raw records.
        #[test]
        fn span_groups_match_containment(
            script in prop::collection::vec(0usize..4, 0..120),
            gaps in prop::collection::vec(0u32..18, 1..8),
        ) {
            let data = forest(&script, &gaps);
            data.check_well_formed().expect("the script builds a forest");
            prop_assert_eq!(&data.summary.groups, &groups_by_containment(&data));
            prop_assert_eq!(&data.summary.latency, &latency_by_scan(&data));
            prop_assert_eq!(&data.summary.events, &events_by_scan(&data));
            prop_assert_eq!(data.summary.span_count(), data.spans.len() as u64);
            prop_assert_eq!(data.summary.event_count(), data.events.len() as u64);
        }
    }
}
