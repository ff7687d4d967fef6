//! Differential testing of the solve-topology report: the DOT and JSON
//! renderings of [`SolveStats`] must agree — component for component,
//! edge for edge — with the [`DepGraph`] the solver actually scheduled
//! from, on real encoded programs under every algorithm.

use getafix_boolprog::{parse_program, Cfg};
use getafix_core::{build_solver_with, Algorithm};
use getafix_mucalc::{check_depgraph_dot, depgraph_dot, depgraph_json, SolveOptions};
use getafix_telemetry::json::{parse, Value};
use std::collections::BTreeSet;

const PROGRAMS: [(&str, &str); 3] = [
    (
        "branchy",
        r#"
        decl g;
        main() begin
          decl x;
          x := *;
          g := x;
          if (g) then HIT: skip; fi;
        end
        "#,
    ),
    (
        "call-chain",
        r#"
        decl g;
        main() begin
          decl x;
          x := id(T);
          if (x) then HIT: skip; fi;
        end
        id(a) returns 1 begin
          return a;
        end
        "#,
    ),
    (
        "recursive",
        r#"
        decl g;
        main() begin
          g := F;
          call flip();
          if (g) then HIT: skip; fi;
        end
        flip() begin
          if (*) then g := !g; call flip(); fi;
        end
        "#,
    ),
];

#[test]
fn topology_report_agrees_with_the_dep_graph() {
    for (name, src) in PROGRAMS {
        let program = parse_program(src).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let cfg = Cfg::build(&program).unwrap_or_else(|e| panic!("{name}: build: {e}"));
        let target = cfg.label("HIT").expect("HIT label");
        for algo in Algorithm::ALL {
            let mut solver =
                build_solver_with(&cfg, &[target], algo, SolveOptions::default()).unwrap();
            solver.eval_query("reach").unwrap_or_else(|e| panic!("{name}/{algo}: {e}"));

            // Ground truth, re-derived from the dependency graph itself:
            // member names per SCC and the SCC-level edge set.
            let deps = solver.deps();
            let relations = solver.system().relations();
            let truth_members: Vec<BTreeSet<String>> = deps
                .sccs()
                .iter()
                .map(|scc| scc.members.iter().map(|&i| relations[i].name.clone()).collect())
                .collect();
            let truth_edges: Vec<BTreeSet<usize>> = deps
                .sccs()
                .iter()
                .enumerate()
                .map(|(i, scc)| {
                    scc.external_deps.iter().map(|&r| deps.scc_of(r)).filter(|&s| s != i).collect()
                })
                .collect();

            let stats = solver.stats();
            let dot = depgraph_dot(stats);
            check_depgraph_dot(&dot, truth_members.len())
                .unwrap_or_else(|e| panic!("{name}/{algo}: invalid DOT: {e}\n{dot}"));
            for (i, edges) in truth_edges.iter().enumerate() {
                for &d in edges {
                    assert!(
                        dot.contains(&format!("scc{i} -> scc{d};")),
                        "{name}/{algo}: missing edge scc{i} -> scc{d}\n{dot}"
                    );
                }
            }

            let v = parse(&depgraph_json(stats))
                .unwrap_or_else(|e| panic!("{name}/{algo}: bad JSON: {e}"));
            assert_eq!(
                v.get("scc_count").and_then(Value::as_f64),
                Some(truth_members.len() as f64),
                "{name}/{algo}"
            );
            let rows = v.get("sccs").and_then(Value::as_array).expect("sccs array");
            assert_eq!(rows.len(), truth_members.len(), "{name}/{algo}");
            for (i, row) in rows.iter().enumerate() {
                let members: BTreeSet<String> = row
                    .get("members")
                    .and_then(Value::as_array)
                    .expect("members")
                    .iter()
                    .map(|m| m.as_str().expect("member name").to_string())
                    .collect();
                assert_eq!(members, truth_members[i], "{name}/{algo}: scc {i} members");
                let edges: BTreeSet<usize> = row
                    .get("deps")
                    .and_then(Value::as_array)
                    .expect("deps")
                    .iter()
                    .map(|d| d.as_f64().expect("dep index") as usize)
                    .collect();
                assert_eq!(edges, truth_edges[i], "{name}/{algo}: scc {i} edges");
                let schedule =
                    row.get("schedule").and_then(Value::as_str).expect("schedule").to_string();
                assert!(
                    ["once", "chaotic", "ordered", "nested"].contains(&schedule.as_str()),
                    "{name}/{algo}: unknown schedule {schedule}"
                );
            }
        }
    }
}
