//! The bench binaries refuse bad arguments — an unparsable numeric flag,
//! an unknown flag, a stray argument, a value flag without its value —
//! with exit 2 and the argument named, before any benchmark work starts.

use std::process::Command;

/// Runs each `(binary, args, name)` case outside the source tree and
/// checks it exits 2 naming `name` on stderr.
fn assert_rejected(cases: &[(&str, &[&str], &str)]) {
    // A binary that failed to reject its arguments would start writing
    // reports into the working directory; keep that out of the source tree.
    let scratch = std::env::temp_dir();
    for (bin, args, flag) in cases {
        let out =
            Command::new(bin).args(*args).current_dir(&scratch).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?} must name {flag}: {stderr}");
    }
}

#[test]
fn unparsable_numeric_flags_exit_2() {
    let bench_report = env!("CARGO_BIN_EXE_bench-report");
    let fig3 = env!("CARGO_BIN_EXE_fig3");
    assert_rejected(&[
        (bench_report, &["--scale", "abc"], "--scale"),
        (bench_report, &["--bits", "abc"], "--bits"),
        (bench_report, &["--jobs", "many"], "--jobs"),
        (bench_report, &["--max-wall-regress", "x"], "--max-wall-regress"),
        (fig3, &["--max-k", "abc"], "--max-k"),
        (fig3, &["--jobs", "-1"], "--jobs"),
    ]);
}

#[test]
fn unknown_flags_and_stray_arguments_exit_2() {
    let bench_report = env!("CARGO_BIN_EXE_bench-report");
    let fig3 = env!("CARGO_BIN_EXE_fig3");
    assert_rejected(&[
        (bench_report, &["--bogus-flag"], "--bogus-flag"),
        (bench_report, &["--bdd-smoke", "--skip-fig2"], "--skip-fig2"),
        (bench_report, &["--scale", "1", "stray"], "stray"),
        (bench_report, &["--bdd-smoke", "--compare"], "--compare"),
        (fig3, &["--bogus"], "--bogus"),
        (fig3, &["--max-k", "2", "--jobs"], "--jobs"),
    ]);
}
