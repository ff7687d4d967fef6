//! Property tests of the machine-readable statistics surface.
//!
//! `SolveStats::to_json` is consumed by CI tooling, the bench reporter and
//! the `--stats-json` flag, so it must stay parseable and faithful:
//! parsing it back (with the telemetry crate's own JSON parser — the same
//! one the trace tests use) must recover exactly the counters the struct
//! holds, and [`SolveStats::absorb`] must accumulate according to its
//! documented rules — additive counters add, high-water marks max, SCC
//! tables of equal length merge positionally.

use getafix_mucalc::{DisjunctStats, RelationStats, SccStats, SolveStats};
use getafix_telemetry::json::{parse, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An arbitrary per-relation row. The `scc` index is `None` one time in
/// nine so both arms of the null-vs-number serialization are exercised.
fn rel_strategy() -> impl Strategy<Value = RelationStats> {
    (0usize..5000, 0usize..5000, 0usize..5000, 0usize..5000, 0usize..9).prop_map(
        |(iterations, reevaluations, final_nodes, peak_nodes, scc)| RelationStats {
            iterations,
            reevaluations,
            final_nodes,
            peak_nodes,
            scc: if scc == 0 { None } else { Some(scc - 1) },
        },
    )
}

/// An arbitrary per-SCC row. `wall_ms` values are multiples of 1/8 so
/// float sums in the absorb property stay exact.
fn scc_strategy() -> impl Strategy<Value = SccStats> {
    (
        (prop::collection::vec(0usize..30, 1..4), prop::collection::vec(0usize..8, 0..3)),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0usize..5000,
        0u64..80_000,
    )
        .prop_map(|((members, dep_sccs), recursive, monotone, ordered, evaluations, wall8)| {
            SccStats {
                members: members.into_iter().map(|i| format!("R{i}")).collect(),
                recursive,
                monotone,
                ordered,
                evaluations,
                wall_ms: wall8 as f64 / 8.0,
                dep_sccs,
            }
        })
}

/// An arbitrary per-disjunct attribution row, keyed like the solver keys
/// them (`Relation#index`).
fn disjunct_strategy() -> impl Strategy<Value = (String, DisjunctStats)> {
    (0usize..30, 0usize..4, 0usize..5000, 0u64..1 << 30, 0usize..1 << 20, 0u64..1 << 30).prop_map(
        |(rel, part, recompilations, nodes_built, peak_nodes, wall_us)| {
            (
                format!("R{rel}#{part}"),
                DisjunctStats {
                    label: format!("disjunct {part} of R{rel}"),
                    recompilations,
                    nodes_built,
                    peak_nodes,
                    wall_us,
                },
            )
        },
    )
}

/// An arbitrary statistics object (relation names deduplicate through the
/// map, which is fine — any map is a valid statistics object).
fn stats_strategy() -> impl Strategy<Value = SolveStats> {
    let counters =
        (0usize..5000, 0usize..5000, 0usize..5000, 0usize..5000, 0u64..1 << 40, 0u64..1 << 40);
    let sizes = (0usize..1 << 30, 0usize..1 << 30, 0usize..1 << 30, 0u64..80_000);
    (
        prop::collection::vec((0usize..30, rel_strategy()), 0..6),
        prop::collection::vec(scc_strategy(), 0..4),
        counters,
        sizes,
        prop::collection::vec(disjunct_strategy(), 0..5),
    )
        .prop_map(|(rels, sccs, counters, sizes, disjuncts)| {
            let (
                ordered_reevaluations,
                provenance_nodes,
                gcs,
                gc_reclaimed_nodes,
                cache_hits,
                cache_misses,
            ) = counters;
            let (arena_nodes, arena_bytes, peak_arena_bytes, pause8) = sizes;
            let relations: BTreeMap<String, RelationStats> =
                rels.into_iter().map(|(i, r)| (format!("R{i}"), r)).collect();
            SolveStats {
                relations,
                sccs,
                ordered_reevaluations,
                provenance_nodes,
                gcs,
                gc_reclaimed_nodes,
                gc_pause_ms: pause8 as f64 / 8.0,
                cache_hits,
                cache_misses,
                arena_nodes,
                arena_bytes,
                peak_arena_bytes,
                disjuncts: disjuncts.into_iter().collect(),
            }
        })
}

/// `v.key` as an `f64`, panicking with the key name on absence.
fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("missing number `{key}`"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every emitted document parses, and every counter survives the trip.
    #[test]
    fn to_json_roundtrips(stats in stats_strategy()) {
        let v = parse(&stats.to_json()).expect("to_json output parses");
        prop_assert_eq!(num(&v, "total_reevaluations") as usize, stats.total_reevaluations());
        prop_assert_eq!(num(&v, "ordered_reevaluations") as usize, stats.ordered_reevaluations);
        prop_assert_eq!(num(&v, "provenance_nodes") as usize, stats.provenance_nodes);
        prop_assert_eq!(num(&v, "gcs") as usize, stats.gcs);
        prop_assert_eq!(num(&v, "gc_reclaimed_nodes") as usize, stats.gc_reclaimed_nodes);
        prop_assert_eq!(num(&v, "gc_pause_ms"), stats.gc_pause_ms);
        prop_assert_eq!(num(&v, "cache_hits") as u64, stats.cache_hits);
        prop_assert_eq!(num(&v, "cache_misses") as u64, stats.cache_misses);
        prop_assert_eq!(num(&v, "arena_nodes") as usize, stats.arena_nodes);
        prop_assert_eq!(num(&v, "arena_bytes") as usize, stats.arena_bytes);
        prop_assert_eq!(num(&v, "peak_arena_bytes") as usize, stats.peak_arena_bytes);

        let rels = v.get("relations").and_then(Value::as_array).expect("relations array");
        prop_assert_eq!(rels.len(), stats.relations.len());
        for row in rels {
            let name = row.get("name").and_then(Value::as_str).expect("relation name");
            let r = &stats.relations[name];
            prop_assert_eq!(num(row, "iterations") as usize, r.iterations);
            prop_assert_eq!(num(row, "reevaluations") as usize, r.reevaluations);
            prop_assert_eq!(num(row, "final_nodes") as usize, r.final_nodes);
            prop_assert_eq!(num(row, "peak_nodes") as usize, r.peak_nodes);
            match r.scc {
                Some(s) => prop_assert_eq!(num(row, "scc") as usize, s),
                None => prop_assert_eq!(row.get("scc"), Some(&Value::Null)),
            }
        }

        let sccs = v.get("sccs").and_then(Value::as_array).expect("sccs array");
        prop_assert_eq!(sccs.len(), stats.sccs.len());
        for (row, scc) in sccs.iter().zip(&stats.sccs) {
            let members = row.get("members").and_then(Value::as_array).expect("members");
            prop_assert_eq!(members.len(), scc.members.len());
            prop_assert_eq!(row.get("recursive"), Some(&Value::Bool(scc.recursive)));
            prop_assert_eq!(row.get("monotone"), Some(&Value::Bool(scc.monotone)));
            prop_assert_eq!(row.get("ordered"), Some(&Value::Bool(scc.ordered)));
            prop_assert_eq!(row.get("schedule").and_then(Value::as_str), Some(scc.schedule()));
            prop_assert_eq!(num(row, "evaluations") as usize, scc.evaluations);
            prop_assert_eq!(num(row, "wall_ms"), scc.wall_ms);
            let deps = row.get("dep_sccs").and_then(Value::as_array).expect("dep_sccs");
            let deps: Vec<usize> = deps.iter().map(|d| d.as_f64().unwrap() as usize).collect();
            prop_assert_eq!(&deps, &scc.dep_sccs);
        }

        let disjuncts = v.get("disjuncts").and_then(Value::as_array).expect("disjuncts array");
        prop_assert_eq!(disjuncts.len(), stats.disjuncts.len());
        for row in disjuncts {
            let key = row.get("key").and_then(Value::as_str).expect("disjunct key");
            let d = &stats.disjuncts[key];
            prop_assert_eq!(row.get("label").and_then(Value::as_str), Some(d.label.as_str()));
            prop_assert_eq!(num(row, "recompilations") as usize, d.recompilations);
            prop_assert_eq!(num(row, "nodes_built") as u64, d.nodes_built);
            prop_assert_eq!(num(row, "peak_nodes") as usize, d.peak_nodes);
            prop_assert_eq!(num(row, "wall_us") as u64, d.wall_us);
        }
    }

    /// Absorbing then serializing equals serializing then summing: the
    /// additive counters of `a.absorb(&b)` are the sums of the parsed
    /// documents, the high-water marks are the maxima, and the result
    /// still parses.
    #[test]
    fn absorb_accumulates_through_json(a in stats_strategy(), b in stats_strategy()) {
        let (va, vb) = (parse(&a.to_json()).unwrap(), parse(&b.to_json()).unwrap());
        let mut merged = a.clone();
        merged.absorb(&b);
        let vm = parse(&merged.to_json()).expect("absorbed stats serialize");

        for key in ["total_reevaluations", "ordered_reevaluations", "gcs",
                    "gc_reclaimed_nodes", "gc_pause_ms", "cache_hits", "cache_misses"] {
            prop_assert_eq!(
                num(&vm, key), num(&va, key) + num(&vb, key),
                "additive counter `{}` did not add", key
            );
        }
        for key in ["provenance_nodes", "arena_nodes", "arena_bytes", "peak_arena_bytes"] {
            prop_assert_eq!(
                num(&vm, key), num(&va, key).max(num(&vb, key)),
                "high-water mark `{}` did not max", key
            );
        }
        // SCC tables: equal lengths merge positionally (additive wall/evals),
        // unequal lengths concatenate.
        let (sa, sb) = (a.sccs.len(), b.sccs.len());
        let sm = vm.get("sccs").and_then(Value::as_array).unwrap().len();
        prop_assert_eq!(sm, if sa == sb { sa } else { sa + sb });
        if sa == sb {
            let rows = vm.get("sccs").and_then(Value::as_array).unwrap();
            for (i, row) in rows.iter().enumerate() {
                prop_assert_eq!(num(row, "wall_ms"), a.sccs[i].wall_ms + b.sccs[i].wall_ms);
                prop_assert_eq!(
                    num(row, "evaluations") as usize,
                    a.sccs[i].evaluations + b.sccs[i].evaluations
                );
            }
        }
        // Disjunct attribution merges by key: additive counters add,
        // peaks max, the first non-empty label wins.
        for (key, d) in &merged.disjuncts {
            let da = a.disjuncts.get(key);
            let db = b.disjuncts.get(key);
            prop_assert_eq!(
                d.recompilations,
                da.map_or(0, |x| x.recompilations) + db.map_or(0, |x| x.recompilations)
            );
            prop_assert_eq!(
                d.nodes_built,
                da.map_or(0, |x| x.nodes_built) + db.map_or(0, |x| x.nodes_built)
            );
            prop_assert_eq!(
                d.peak_nodes,
                da.map_or(0, |x| x.peak_nodes).max(db.map_or(0, |x| x.peak_nodes))
            );
        }
        prop_assert_eq!(merged.disjuncts.len(),
            a.disjuncts.keys().chain(b.disjuncts.keys()).collect::<std::collections::BTreeSet<_>>().len());
    }
}
