//! End-to-end tests of the telemetry outputs and `inspect` through the
//! actual binary: one invocation must produce a complete, schema-valid
//! diagnostics directory, and every document in it must agree with the
//! others (the DOT graph with the JSON topology, the folded stacks with
//! the trace's `evaluate` spans). Recording a run changes none of its
//! `--stats-json`, and a failed run still leaves its profile and trace.

use getafix::mucalc::check_depgraph_dot;
use getafix::telemetry::json::{parse, Value};
use getafix::telemetry::{parse_folded, rooted_weight};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn example(name: &str) -> String {
    format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn bundle_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("getafix-diag-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the binary, without a `GETAFIX_TIMEOUT` from outside.
fn getafix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args(args)
        .env_remove("GETAFIX_TIMEOUT")
        .output()
        .expect("binary runs")
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("bundle file {name} missing: {e}"))
}

/// The acceptance scenario: a concurrent check of the handshake program
/// writes the whole bundle in one shot, and every file validates.
#[test]
fn check_conc_writes_a_complete_valid_bundle() {
    let dir = bundle_dir("conc");
    let out = Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args([
            "check-conc",
            &example("handshake.cbp"),
            "--label",
            "t0__HIT",
            "--switches",
            "2",
            "--diag-out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "handshake hit is reachable: {out:?}");

    // The trace: parses, and its evaluate spans give the coverage target.
    let trace = parse(&read(&dir, "trace.json")).expect("trace.json parses");
    let events = trace.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    assert!(!events.is_empty(), "empty trace");
    let evaluate_us: f64 = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Value::as_str) == Some("X")
                && e.get("name").and_then(Value::as_str) == Some("evaluate")
        })
        .filter_map(|e| e.get("dur").and_then(Value::as_f64))
        .sum();
    assert!(evaluate_us > 0.0, "no evaluate span in the trace");

    // The flamegraph: well-formed, and its stacks account for ≥95% of the
    // evaluate wall time (exactly 100%, by self-time partitioning).
    let folded = read(&dir, "flamegraph.folded");
    parse_folded(&folded).expect("flamegraph.folded validates");
    let rooted = rooted_weight(&folded, "evaluate") as f64;
    assert!(
        rooted >= 0.95 * evaluate_us,
        "folded stacks cover only {rooted} of {evaluate_us} µs under `evaluate`"
    );

    // The topology: the DOT document passes the schema check against the
    // JSON document's component count.
    let depgraph = parse(&read(&dir, "depgraph.json")).expect("depgraph.json parses");
    assert_eq!(
        depgraph.get("schema").and_then(Value::as_str),
        Some("getafix-depgraph/1"),
        "topology schema"
    );
    let scc_count = depgraph.get("scc_count").and_then(Value::as_f64).expect("scc_count") as usize;
    assert!(scc_count > 0);
    check_depgraph_dot(&read(&dir, "depgraph.dot"), scc_count)
        .unwrap_or_else(|e| panic!("depgraph.dot fails the schema check: {e}"));

    // The statistics: parse and did real work.
    let stats = parse(&read(&dir, "stats.json")).expect("stats.json parses");
    let total = stats.get("total_reevaluations").and_then(Value::as_f64).expect("total_reevals");
    assert!(total > 0.0, "the solve did no work");

    // The manifest: provenance for everything above.
    let manifest = parse(&read(&dir, "manifest.json")).expect("manifest.json parses");
    assert_eq!(manifest.get("schema").and_then(Value::as_str), Some("getafix-diag-manifest/1"));
    assert_eq!(manifest.get("version").and_then(Value::as_str), Some(env!("CARGO_PKG_VERSION")));
    let argv = manifest.get("argv").and_then(Value::as_array).expect("argv");
    assert!(argv.iter().any(|a| a.as_str() == Some("--diag-out")), "argv records the invocation");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The sequential path writes the same bundle.
#[test]
fn check_writes_the_bundle_too() {
    let dir = bundle_dir("seq");
    let out = Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args([
            "check",
            &example("double_lock_bug.bp"),
            "--label",
            "DOUBLE_LOCK",
            "--diag-out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    for name in [
        "trace.json",
        "flamegraph.folded",
        "depgraph.dot",
        "depgraph.json",
        "stats.json",
        "manifest.json",
    ] {
        assert!(dir.join(name).is_file(), "bundle file {name} missing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Baselines never run the solver, so `--diag-out` must refuse them
/// up front instead of writing a half-empty bundle.
#[test]
fn diag_out_rejects_baselines() {
    let dir = bundle_dir("baseline");
    let out = Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args([
            "check",
            &example("double_lock_bug.bp"),
            "--label",
            "DOUBLE_LOCK",
            "--algo",
            "bebop",
            "--diag-out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!dir.exists(), "no bundle directory for a refused run");
}

/// `inspect --json` emits the topology document for a program without
/// needing a target label, and it agrees with its own DOT rendering.
#[test]
fn inspect_reports_the_topology() {
    let out = Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args(["inspect", &example("double_lock_bug.bp"), "--json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let v = parse(&String::from_utf8_lossy(&out.stdout)).expect("inspect --json parses");
    let scc_count = v.get("scc_count").and_then(Value::as_f64).expect("scc_count") as usize;

    let dot = Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args(["inspect", &example("double_lock_bug.bp"), "--dot"])
        .output()
        .expect("binary runs");
    assert_eq!(dot.status.code(), Some(0));
    check_depgraph_dot(&String::from_utf8_lossy(&dot.stdout), scc_count)
        .expect("inspect --dot validates against --json");

    let human = Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args(["inspect", &example("double_lock_bug.bp"), "--label", "DOUBLE_LOCK"])
        .output()
        .expect("binary runs");
    assert_eq!(human.status.code(), Some(0));
    let text = String::from_utf8_lossy(&human.stdout);
    assert!(text.contains("solve topology"), "{text}");
    assert!(text.contains("schedules:"), "{text}");
}

/// The `--stats-json` document of a `check` run: the JSON object that
/// follows the verdict line (a `--profile` summary may follow it).
fn stats_json(extra: &[&str]) -> Value {
    let file = example("double_lock.bp");
    let mut args = vec!["check", file.as_str(), "--label", "DOUBLE_LOCK", "--stats-json"];
    args.extend_from_slice(extra);
    let out = getafix(&args);
    assert_eq!(out.status.code(), Some(0), "{extra:?}: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let start = stdout.find("\n{\n").expect("a JSON object after the verdict line") + 1;
    let end = start + stdout[start..].find("\n}\n").expect("the object closes") + 2;
    parse(&stdout[start..end]).unwrap_or_else(|e| panic!("{extra:?}: {e}"))
}

/// Every key of a JSON value, as paths, with array elements under `[]`.
fn fields(v: &Value, path: &str, out: &mut Vec<String>) {
    match v {
        Value::Object(m) => {
            for (k, child) in m {
                let path = format!("{path}.{k}");
                out.push(path.clone());
                fields(child, &path, out);
            }
        }
        Value::Array(items) => {
            items.iter().for_each(|item| fields(item, &format!("{path}[]"), out))
        }
        _ => {}
    }
}

/// `--stats-json` is one document whether or not telemetry records the
/// run: the same fields, and the same work counters.
#[test]
fn stats_json_has_the_same_fields_with_and_without_a_collector() {
    let trace = std::env::temp_dir().join(format!("getafix-stats-{}.json", std::process::id()));
    let trace = trace.to_str().expect("utf-8 path");
    let plain = stats_json(&[]);
    let mut plain_fields = Vec::new();
    fields(&plain, "", &mut plain_fields);
    assert!(plain_fields.contains(&".gc_reclaimed_nodes".to_string()), "{plain_fields:?}");
    for extra in [&["--profile"][..], &["--progress"], &["--trace-out", trace]] {
        let observed = stats_json(extra);
        let mut observed_fields = Vec::new();
        fields(&observed, "", &mut observed_fields);
        assert_eq!(observed_fields, plain_fields, "{extra:?}");
        for key in ["total_reevaluations", "ordered_reevaluations", "gcs", "cache_misses"] {
            assert_eq!(observed.get(key), plain.get(key), "{extra:?}: {key}");
        }
    }
    let _ = std::fs::remove_file(trace);
}

/// Telemetry outputs survive a failed run: a solve that does not
/// stabilize still prints `--profile`'s summary and writes `--trace-out`'s
/// file, and `--diag-out` says that the run failed.
#[test]
fn telemetry_outputs_survive_a_failed_run() {
    let dir = bundle_dir("failed");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let countdown = example("countdown.bp");
    let run = |extra: &[&str]| {
        let mut args = vec!["check", countdown.as_str(), "--label", "HIT", "--max-iter", "2000"];
        args.extend_from_slice(extra);
        let out = getafix(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains("did not stabilize"), "{extra:?}: {stderr}");
        (String::from_utf8_lossy(&out.stdout).to_string(), stderr)
    };

    let (stdout, _) = run(&["--profile"]);
    assert!(stdout.contains("profile: ") && stdout.contains("solve/reeval"), "{stdout}");

    let trace = dir.join("trace.json");
    run(&["--trace-out", trace.to_str().unwrap()]);
    let trace = parse(&read(&dir, "trace.json")).expect("trace.json parses");
    let events = trace.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    assert!(
        events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some("reeval")),
        "the failed solve's re-evaluations are in the trace"
    );

    let bundle = dir.join("bundle");
    let (_, stderr) = run(&["--diag-out", bundle.to_str().unwrap()]);
    assert!(stderr.contains("--diag-out") && stderr.contains("the run failed"), "{stderr}");
    assert!(!stderr.contains("slice"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
