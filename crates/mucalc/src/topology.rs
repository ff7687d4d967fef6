//! The solve-topology report: the SCC dependency graph with per-component
//! statistics overlaid, as DOT and JSON.
//!
//! Everything renders from a [`SolveStats`] object alone — the per-SCC
//! rows carry their members, schedule classification and dependency edges
//! ([`SccStats::dep_sccs`]) since solver construction — so the same report
//! is available from a live solver, a `--stats-json` artifact or a bench
//! run, without re-deriving the dependency analysis. `getafix inspect`
//! and `--diag-out` are thin wrappers over these two functions.
//!
//! Node indices equal positions in [`SolveStats::sccs`], which is the
//! dependency-topological (dependencies-first) order [`crate::DepGraph`]
//! emits — the differential tests in the CLI crate check the structures
//! agree edge for edge.

use crate::solve::{SccStats, SolveStats};
use getafix_telemetry::json::JsonWriter;
use std::fmt::Write as _;

/// Fill color of a DOT node, keyed by the component's schedule.
fn schedule_color(scc: &SccStats) -> &'static str {
    match scc.schedule() {
        "once" => "gray92",
        "chaotic" => "lightblue",
        "ordered" => "gold",
        _ => "lightsalmon",
    }
}

/// Escapes a string for a double-quoted DOT label.
fn dot_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders the SCC dependency graph as a GraphViz `digraph`: one box per
/// component (labelled with members, schedule, re-evaluations and wall
/// time), one edge per SCC-level dependency, pointing from reader to read
/// component.
pub fn depgraph_dot(stats: &SolveStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph depgraph {{");
    let _ = writeln!(out, "  rankdir=BT;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\", style=filled];");
    for (i, scc) in stats.sccs.iter().enumerate() {
        let members = dot_escape(&scc.members.join(", "));
        let _ = writeln!(
            out,
            "  scc{i} [label=\"scc {i}: {members}\\n{} · {} evals · {:.1} ms\", \
             fillcolor=\"{}\"];",
            scc.schedule(),
            scc.evaluations,
            scc.wall_ms,
            schedule_color(scc)
        );
    }
    for (i, scc) in stats.sccs.iter().enumerate() {
        for &d in &scc.dep_sccs {
            let _ = writeln!(out, "  scc{i} -> scc{d};");
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders the same topology as JSON (`schema: getafix-depgraph/2`):
/// per-SCC rows with members, flags, schedule, statistics and `deps`
/// (indices of the components read). Indices match [`SolveStats::sccs`]
/// positions, i.e. dependency-topological order.
pub fn depgraph_json(stats: &SolveStats) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "getafix-depgraph/2");
    w.field_u64("scc_count", stats.sccs.len() as u64);
    w.key("sccs");
    w.begin_array();
    for (i, scc) in stats.sccs.iter().enumerate() {
        w.begin_object();
        w.field_u64("index", i as u64);
        w.key("members");
        w.begin_array();
        for m in &scc.members {
            w.value_str(m);
        }
        w.end_array();
        w.field_bool("recursive", scc.recursive);
        w.field_bool("monotone", scc.monotone);
        w.field_str("schedule", scc.schedule());
        w.field_u64("evaluations", scc.evaluations as u64);
        w.field_f64("wall_ms", scc.wall_ms);
        w.key("deps");
        w.begin_array();
        for &d in &scc.dep_sccs {
            w.value_u64(d as u64);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Structural validation of a rendered DOT document: it must declare
/// exactly `expected_sccs` nodes (`sccN [` lines) and every edge endpoint
/// must be a declared node — the schema check CI runs on diagnostics
/// bundles.
///
/// # Errors
///
/// A description of the first violation.
pub fn check_depgraph_dot(dot: &str, expected_sccs: usize) -> Result<(), String> {
    if !dot.trim_start().starts_with("digraph") || !dot.trim_end().ends_with('}') {
        return Err("not a digraph document".into());
    }
    let mut nodes = 0usize;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for line in dot.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix("scc") {
            if let Some((a, b)) = rest.split_once(" -> ") {
                let from = a.parse::<usize>().map_err(|_| format!("bad edge source: {line}"))?;
                let to = b
                    .trim_end_matches(';')
                    .strip_prefix("scc")
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| format!("bad edge target: {line}"))?;
                edges.push((from, to));
            } else if rest.contains('[') {
                nodes += 1;
            }
        }
    }
    if nodes != expected_sccs {
        return Err(format!("expected {expected_sccs} SCC nodes, found {nodes}"));
    }
    for (from, to) in edges {
        if from >= nodes || to >= nodes {
            return Err(format!("edge scc{from} -> scc{to} references an undeclared node"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_stats() -> SolveStats {
        let sccs = vec![
            SccStats {
                members: vec!["Edge\"s\\".into()],
                recursive: false,
                monotone: true,
                ..SccStats::default()
            },
            SccStats {
                members: vec!["Reach".into()],
                recursive: true,
                monotone: true,
                evaluations: 12,
                wall_ms: 3.25,
                dep_sccs: vec![0],
                ..SccStats::default()
            },
        ];
        SolveStats { sccs, ..SolveStats::default() }
    }

    #[test]
    fn dot_renders_nodes_edges_and_escapes() {
        let stats = demo_stats();
        let dot = depgraph_dot(&stats);
        check_depgraph_dot(&dot, 2).expect("self-validates");
        assert!(dot.contains("scc1 -> scc0;"), "{dot}");
        assert!(dot.contains("Edge\\\"s\\\\"), "members escaped: {dot}");
        assert!(dot.contains("chaotic · 12 evals · 3.2 ms\""), "{dot}");
        assert!(check_depgraph_dot(&dot, 3).is_err(), "wrong node count must fail");
        assert!(check_depgraph_dot("scc0 -> scc1;", 0).is_err());
    }

    #[test]
    fn json_reflects_the_scc_table() {
        use getafix_telemetry::json::{parse, Value};
        let stats = demo_stats();
        let v = parse(&depgraph_json(&stats)).expect("valid JSON");
        assert_eq!(v.get("scc_count").and_then(Value::as_f64), Some(2.0));
        let sccs = v.get("sccs").and_then(Value::as_array).expect("sccs");
        assert_eq!(sccs[0].get("schedule").and_then(Value::as_str), Some("once"));
        assert_eq!(sccs[1].get("schedule").and_then(Value::as_str), Some("chaotic"));
        let deps = sccs[1].get("deps").and_then(Value::as_array).expect("deps");
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].as_f64(), Some(0.0));
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("getafix-depgraph/2"));
    }
}
