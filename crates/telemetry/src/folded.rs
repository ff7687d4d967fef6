//! Folded-stack flamegraph export.
//!
//! Folds the recorded span forest into the line-per-stack format that
//! `inferno`, `flamegraph.pl` and speedscope all consume:
//!
//! ```text
//! evaluate;stratum;reeval:Reach 1543
//! ```
//!
//! Each line is a `;`-separated stack of frame labels followed by a
//! weight. Weights are **self time** in microseconds (a span's duration
//! minus its direct children), so the per-stack weights of a subtree sum
//! exactly to the root span's duration — the property the "folded stacks
//! cover ≥ 95% of the `evaluate` span" acceptance check keys on.
//!
//! Frame labels are the span name with the `relation` / `anchor` / `query`
//! string attribute appended as `name:value` when present, so per-relation
//! work separates into its own flame. Labels are sanitized: `;` and
//! whitespace (both structural in the format) are replaced by `_`.

use crate::collect::{AttrValue, SpanRecord, TraceData};
use std::collections::BTreeMap;

/// Attribute keys promoted into the frame label, in priority order.
const LABEL_ATTRS: [&str; 3] = ["relation", "anchor", "query"];

/// The frame label of one span: `name` or `name:attr`, sanitized for the
/// folded format (no `;`, no whitespace).
fn frame_label(span: &SpanRecord) -> String {
    let mut label = span.name.to_string();
    for key in LABEL_ATTRS {
        let hit = span.attrs.iter().find_map(|(k, v)| match v {
            AttrValue::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        });
        if let Some(value) = hit {
            label.push(':');
            label.push_str(value);
            break;
        }
    }
    label
        .chars()
        .map(|c| if c == ';' || c.is_whitespace() || c.is_control() { '_' } else { c })
        .collect()
}

impl TraceData {
    /// Renders the span forest as folded stacks, self-time weighted.
    ///
    /// Reconstructs parent/child structure the same way
    /// [`TraceData::check_well_formed`] does — sort by
    /// `(t_start, Reverse(t_end))` and replay containment against a stack —
    /// so any trace that passes the well-formedness check folds cleanly.
    /// Equal stacks are aggregated; zero-self-time stacks are dropped; the
    /// output is sorted by stack string, hence deterministic for a fixed
    /// trace.
    pub fn folded_stacks(&self) -> String {
        let mut sorted: Vec<&SpanRecord> = self.spans.iter().collect();
        // As in `check_well_formed`, plus `depth` so a child sharing its
        // parent's exact µs interval still folds under it.
        sorted.sort_by_key(|s| (s.t_start_us, std::cmp::Reverse(s.t_end_us), s.depth));

        let mut weights: BTreeMap<String, u64> = BTreeMap::new();
        // (span, direct-children µs) for every currently-open ancestor.
        let mut stack: Vec<(&SpanRecord, u64)> = Vec::new();
        let mut frames: Vec<String> = Vec::new();

        fn pop(
            stack: &mut Vec<(&SpanRecord, u64)>,
            frames: &mut Vec<String>,
            weights: &mut BTreeMap<String, u64>,
        ) {
            let Some((span, children_us)) = stack.pop() else { return };
            let self_us = span.dur_us().saturating_sub(children_us);
            if self_us > 0 {
                *weights.entry(frames.join(";")).or_default() += self_us;
            }
            frames.pop();
            if let Some((_, parent_children)) = stack.last_mut() {
                *parent_children += span.dur_us();
            }
        }

        for s in sorted {
            while let Some((top, _)) = stack.last() {
                if s.t_start_us >= top.t_end_us {
                    pop(&mut stack, &mut frames, &mut weights);
                } else {
                    break;
                }
            }
            frames.push(frame_label(s));
            stack.push((s, 0));
        }
        while !stack.is_empty() {
            pop(&mut stack, &mut frames, &mut weights);
        }

        let mut out = String::new();
        for (stack, weight) in &weights {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

/// Parses a folded-stacks document back into `(frames, weight)` rows.
///
/// The structural validator the tests and CI schema check share: every
/// non-empty line must be `frame(;frame)* weight` with a `u64` weight and
/// frames free of `;` and whitespace.
///
/// # Errors
///
/// A description of the first malformed line.
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no weight separator: {line:?}", i + 1))?;
        let weight: u64 =
            weight.parse().map_err(|e| format!("line {}: bad weight {weight:?}: {e}", i + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", i + 1));
        }
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        for f in &frames {
            if f.is_empty() {
                return Err(format!("line {}: empty frame in {stack:?}", i + 1));
            }
            if f.contains(char::is_whitespace) {
                return Err(format!("line {}: whitespace inside frame {f:?}", i + 1));
            }
        }
        rows.push((frames, weight));
    }
    Ok(rows)
}

/// Total weight of stacks passing through a frame matching `root` — the
/// bare name or a `name:attr` elaboration of it, at any stack depth. Each
/// stack is counted once, and self-time weighting partitions durations
/// across stacks, so this is exactly the wall time spent inside `root`
/// subtrees — the folded-file counterpart of [`TraceData::coverage_of`]'s
/// numerator.
pub fn rooted_weight(text: &str, root: &str) -> u64 {
    let matches =
        |f: &String| f == root || f.strip_prefix(root).is_some_and(|rest| rest.starts_with(':'));
    parse_folded(text)
        .map(|rows| {
            rows.iter().filter(|(frames, _)| frames.iter().any(matches)).map(|(_, w)| w).sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::Phase;

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
    fn self_times_partition_the_root() {
        let mut reeval = span("reeval", 10, 40, 1);
        reeval.attrs.push(("relation", AttrValue::Str("Reach".into())));
        let data = TraceData {
            spans: vec![
                span("leaf", 15, 25, 2),
                reeval,
                span("stratum", 50, 90, 1),
                span("evaluate", 0, 100, 0),
            ],
            ..TraceData::default()
        };
        let folded = data.folded_stacks();
        let rows = parse_folded(&folded).expect("well-formed folded output");
        let total: u64 = rows.iter().map(|(_, w)| w).sum();
        assert_eq!(total, 100, "self times partition the root:\n{folded}");
        assert_eq!(rooted_weight(&folded, "evaluate"), 100);
        assert!(folded.contains("evaluate;reeval:Reach;leaf 10"), "{folded}");
        assert!(folded.contains("evaluate;reeval:Reach 20"), "{folded}");
        assert!(folded.contains("evaluate;stratum 40"), "{folded}");
        assert!(folded.contains("evaluate 30"), "{folded}");
    }

    #[test]
    fn sibling_roots_and_aggregation() {
        let data = TraceData {
            spans: vec![
                span("work", 0, 10, 1),
                span("evaluate", 0, 10, 0),
                span("work", 20, 30, 1),
                span("evaluate", 20, 40, 0),
            ],
            ..TraceData::default()
        };
        let folded = data.folded_stacks();
        assert!(folded.contains("evaluate;work 20"), "aggregated: {folded}");
        assert_eq!(rooted_weight(&folded, "evaluate"), 30);
    }

    #[test]
    fn hostile_names_are_sanitized() {
        let mut s = span("reeval", 0, 5, 0);
        s.attrs.push(("relation", AttrValue::Str("a b;c\nd".into())));
        let data = TraceData { spans: vec![s], ..TraceData::default() };
        let folded = data.folded_stacks();
        parse_folded(&folded).expect("sanitized output stays parseable");
        assert!(folded.contains("reeval:a_b_c_d 5"), "{folded}");
    }

    #[test]
    fn parse_folded_rejects_garbage() {
        assert!(parse_folded("no-weight\n").is_err());
        assert!(parse_folded("stack notanumber\n").is_err());
        assert!(parse_folded(" 5\n").is_err());
        assert!(parse_folded("a;;b 5\n").is_err());
        assert!(parse_folded("").unwrap().is_empty());
    }
}
