//! The bench binaries refuse bad arguments — an unparsable numeric flag,
//! an unknown flag or `--suite`, a stray argument, a value flag without
//! its value, a repeated flag, an unusable timeout — with exit 2 and the
//! argument named, before any benchmark work starts; and each binary
//! accepts exactly the flags written out in [`PAIRS`].

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every (binary, flag) pair the bench binaries accept, written out here
/// rather than read from their flag table, so the test shares no code
/// with what it checks.
#[rustfmt::skip]
const PAIRS: &[(&str, &[&str])] = &[
    (env!("CARGO_BIN_EXE_bench-report"), &[
        "--out", "--out-fig3", "--out-bdd", "--bdd-smoke", "--skip-fig3", "--timeout", "--compare",
        "--compare-out",
    ]),
    (env!("CARGO_BIN_EXE_fig2"), &["--suite", "--scale", "--bits"]),
    (env!("CARGO_BIN_EXE_fig3"), &["--max-k"]),
    (env!("CARGO_BIN_EXE_ablation_seq"), &["--bits"]),
    (env!("CARGO_BIN_EXE_ablation_conc"), &["--max-k"]),
];

/// A value each value flag accepts; the other flags are switches.
const VALUES: &[(&str, &str)] = &[
    ("--out", "fig2.json"),
    ("--out-fig3", "fig3.json"),
    ("--out-bdd", "bdd.json"),
    ("--scale", "1"),
    ("--bits", "3"),
    ("--timeout", "5"),
    ("--compare", "baseline.json"),
    ("--compare-out", "compare.json"),
    ("--suite", "regression"),
    ("--max-k", "1"),
];

/// Runs `bin` in `dir`, without a `GETAFIX_TIMEOUT` from outside unless
/// `timeout_env` gives one.
fn run_in(dir: &Path, bin: &str, args: &[&str], timeout_env: Option<&str>) -> Output {
    let mut command = Command::new(bin);
    command.args(args).current_dir(dir).env_remove("GETAFIX_TIMEOUT");
    if let Some(value) = timeout_env {
        command.env("GETAFIX_TIMEOUT", value);
    }
    command.output().expect("binary runs")
}

/// A fresh, empty directory of this test target, to show a run wrote
/// nothing.
fn empty_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the directory is created");
    dir
}

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
    let fig2 = env!("CARGO_BIN_EXE_fig2");
    let fig3 = env!("CARGO_BIN_EXE_fig3");
    let ablation_seq = env!("CARGO_BIN_EXE_ablation_seq");
    let ablation_conc = env!("CARGO_BIN_EXE_ablation_conc");
    assert_rejected(&[
        (fig2, &["--scale", "abc"], "--scale"),
        (fig2, &["--bits", "x"], "--bits"),
        (ablation_seq, &["--bits", "abc"], "--bits"),
        (ablation_conc, &["--max-k", "abc"], "--max-k"),
        (fig3, &["--max-k", "abc"], "--max-k"),
    ]);
}

#[test]
fn unknown_flags_and_stray_arguments_exit_2() {
    let bench_report = env!("CARGO_BIN_EXE_bench-report");
    let fig2 = env!("CARGO_BIN_EXE_fig2");
    let fig3 = env!("CARGO_BIN_EXE_fig3");
    let ablation_seq = env!("CARGO_BIN_EXE_ablation_seq");
    let ablation_conc = env!("CARGO_BIN_EXE_ablation_conc");
    assert_rejected(&[
        (fig2, &["--bogus"], "--bogus"),
        (fig2, &["--suite", "bogus"], "unknown --suite `bogus` (accepted: all regression slam"),
        (fig2, &["--suite"], "--suite"),
        (ablation_seq, &["--bogus"], "--bogus"),
        (ablation_conc, &["--bogus"], "--bogus"),
        (ablation_conc, &["--max-k", "2", "stray"], "stray"),
        (bench_report, &["--bogus-flag"], "--bogus-flag"),
        (bench_report, &["--bdd-smoke", "--skip-fig2"], "--skip-fig2"),
        (bench_report, &["--timeout", "5", "stray"], "stray"),
        (bench_report, &["--bdd-smoke", "--compare"], "--compare"),
        (fig3, &["--bogus"], "--bogus"),
        (fig3, &["--max-k", "2", "--jobs", "2"], "--jobs"),
        (bench_report, &["--jobs", "4"], "--jobs"),
    ]);
}

/// Each binary accepts each of its flags and rejects every other bench
/// flag by name. A stray argument after the flag stops an accepted line
/// before any benchmark work.
#[test]
fn each_bench_binary_accepts_exactly_its_flags() {
    assert_eq!(PAIRS.iter().map(|(_, flags)| flags.len()).sum::<usize>(), 14);
    let mut every_flag: Vec<&str> = PAIRS.iter().flat_map(|(_, f)| f.iter().copied()).collect();
    every_flag.sort_unstable();
    every_flag.dedup();
    let dir = empty_dir("bench-pairs");
    for (bin, accepted) in PAIRS {
        for flag in &every_flag {
            let mut args = vec![*flag];
            args.extend(VALUES.iter().find(|(f, _)| f == flag).map(|(_, v)| *v));
            args.push("stray");
            let out = run_in(&dir, bin, &args, None);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let rejected = stderr.contains(&format!("unknown flag `{flag}`"));
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert_eq!(rejected, !accepted.contains(flag), "{bin} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} started its work");
        }
    }
}

/// A repeated flag, and a value flag followed by another flag, exit 2
/// naming the flag: nothing printed on stdout, no report written.
#[test]
fn repeated_and_valueless_flags_exit_2_before_any_work() {
    let fig3 = env!("CARGO_BIN_EXE_fig3");
    let bench_report = env!("CARGO_BIN_EXE_bench-report");
    let cases: &[(&str, &[&str], &str)] = &[
        (fig3, &["--max-k", "1", "--max-k", "2"], "repeated flag `--max-k`"),
        (
            bench_report,
            &["--bdd-smoke", "--out-bdd", "--skip-fig3"],
            "missing value for flag `--out-bdd`",
        ),
    ];
    for (bin, args, message) in cases {
        let dir = empty_dir("bench-no-work");
        let out = run_in(&dir, bin, args, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} started its work");
        let written = std::fs::read_dir(&dir).expect("the directory exists").count();
        assert_eq!(written, 0, "{bin} {args:?} wrote a file");
    }
}

/// An unusable `--timeout`, or `GETAFIX_TIMEOUT` standing in for it,
/// exits 2 naming whichever gave the value, instead of panicking.
#[test]
fn unusable_timeouts_exit_2_naming_their_source() {
    let bench_report = env!("CARGO_BIN_EXE_bench-report");
    let cases: &[(&[&str], Option<&str>, &str)] = &[
        (&["--timeout", "abc"], None, "--timeout `abc`"),
        (&["--timeout", "-1"], None, "--timeout `-1`"),
        (&[], Some("abc"), "GETAFIX_TIMEOUT `abc`"),
    ];
    for (args, env, message) in cases {
        let dir = empty_dir("bench-timeout");
        let out = run_in(&dir, bench_report, args, *env);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {env:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?} {env:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} {env:?} started its work");
    }
}
