//! The benchmark's self-test: counters must not depend on the run or on
//! being observed, and the metric names must match `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use getafix_perfbench::corpus::{build, Scale, Workload};
use getafix_perfbench::host::HostProbe;
use getafix_perfbench::pipeline::Counts;
use getafix_perfbench::report::{end_to_end, per_layer};
use getafix_perfbench::run_pass;
use getafix_perfbench::trace::Tracer;

/// Every case's counters from one pass over `workload`'s small corpus.
fn pass_counts(workload: Workload, traced: bool) -> Vec<Counts> {
    let corpus = build(workload, 7, Scale::Small);
    let mut tracer = Tracer::new(traced);
    let pass = run_pass(&corpus, &mut tracer, None);
    assert_eq!(tracer.spans().is_empty(), !traced);
    pass.runs
        .into_iter()
        .map(|r| {
            let name = &corpus[r.case].name;
            assert_eq!(r.outcome.error, None, "{}: {name}", workload.name());
            r.outcome.counts
        })
        .collect()
}

#[test]
fn counters_are_identical_across_runs_and_with_tracing() {
    for w in Workload::ALL {
        let first = pass_counts(w, false);
        assert_eq!(first, pass_counts(w, false), "{}: a second run moved a counter", w.name());
        assert_eq!(first, pass_counts(w, true), "{}: tracing moved a counter", w.name());
        // The small corpus reaches the solver and, on a reachable case,
        // the witness and its replay.
        let total = |k: &str| first.iter().filter_map(|c| c.get(k)).sum::<u64>();
        assert!(total("mucalc.solve.disjunct_compiles") > 0, "{}", w.name());
        let replayed = total("boolprog.replay.steps") + total("conc.guided.steps");
        assert!(replayed > 0, "{}: no witness was replayed", w.name());
    }
    // The drivers' orphaned handlers end in the slice, before any solve.
    let drivers = pass_counts(Workload::Drivers, false);
    assert!(drivers.iter().any(|c| c.get("boolprog.slice.decided") == Some(&1)));
}

#[test]
fn host_probe_repeats_its_reference_problem() {
    // `probe_ms` panics unless the BDD it builds has the known answer.
    let mut probe = HostProbe::new();
    assert!(probe.probe_ms() > 0.0 && probe.probe_ms() > 0.0);
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e = end_to_end(&[], &[], 0);
    let layers = per_layer(&[], &Tracer::new(false));
    for m in e2e.iter().chain(&layers) {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"better\"").count(), e2e.len() + layers.len());
}
