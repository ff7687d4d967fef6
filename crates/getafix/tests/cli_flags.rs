//! The CLI's flag contract, checked against the built binary: each
//! command accepts exactly the flags written out in [`PAIRS`], and
//! `getafix help` lists exactly those; a `--flag` the command does not
//! read, a repeated flag, a value flag without its value, a stray or
//! missing argument and a bad value exit 2 naming the token and the
//! command before any work starts, and only such usage errors print the
//! usage. Also the exit codes around them: a program of the wrong kind
//! for its verb exits 2 naming the verb that takes it, `lint --deny`
//! exits 1 exactly when there is a warning, `check --trace` on `simple`
//! or a baseline exits 1 with a witness, and on `simple` 3 when a deadline
//! stops it, a baseline refuses `GETAFIX_TIMEOUT` as it refuses
//! `--timeout`, a deadline trip prints its `--stats` limits line, and
//! `check-conc --trace` on a frame too wide for the explicit engine exits
//! 1 with the solved schedule.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DOUBLE_LOCK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/double_lock.bp");
const HANDSHAKE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/handshake.cbp");
const DOUBLE_LOCK_BUG: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/double_lock_bug.bp");
const DEAD_CODE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/dead_code.bp");
const COUNTDOWN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/countdown.bp");

/// Every (command, flag) pair `getafix` accepts, written out here rather
/// than read from the flag table, so the test shares no code with what
/// it checks.
#[rustfmt::skip]
const PAIRS: &[(&str, &[&str])] = &[
    ("check", &[
        "--label", "--algo", "--strategy", "--max-iter", "--slice", "--timeout",
        "--memory-budget", "--stats", "--stats-json", "--trace", "--trace-out", "--profile",
        "--progress", "--diag-out",
    ]),
    ("check-conc", &[
        "--label", "--switches", "--strategy", "--max-iter", "--slice", "--timeout",
        "--memory-budget", "--stats", "--stats-json", "--trace", "--trace-out", "--profile",
        "--progress", "--diag-out",
    ]),
    ("inspect", &[
        "--label", "--algo", "--dot", "--json", "--strategy", "--max-iter", "--timeout",
        "--memory-budget",
    ]),
    ("lint", &["--json", "--deny"]),
    ("emit-mu", &["--algo"]),
    ("help", &[]),
];

/// A value each value flag accepts; the other flags are switches.
const VALUES: &[(&str, &str)] = &[
    ("--label", "L"),
    ("--algo", "ef"),
    ("--switches", "1"),
    ("--strategy", "worklist"),
    ("--max-iter", "5"),
    ("--timeout", "5"),
    ("--memory-budget", "64"),
    ("--trace-out", "trace.json"),
    ("--diag-out", "bundle"),
];

/// Runs the binary in Cargo's temporary directory for this test target,
/// so a flag mistaken for an output path creates its file there.
fn getafix(args: &[&str]) -> Output {
    getafix_in(Path::new(env!("CARGO_TARGET_TMPDIR")), args)
}

/// Runs the binary in `dir`, without a `GETAFIX_TIMEOUT` from outside.
fn getafix_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args(args)
        .current_dir(dir)
        .env_remove("GETAFIX_TIMEOUT")
        .output()
        .expect("the binary runs")
}

/// A fresh, empty directory of this test target, to show a run wrote
/// nothing.
fn empty_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the directory is created");
    dir
}

/// The `getafix: …` error line (the usage text follows a usage error on
/// stderr).
fn error_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).lines().next().unwrap_or_default().to_string()
}

/// Checks that each `(args, problem, token)` exits 2 with an error line
/// naming the problem, the token and the command, before printing
/// anything.
fn assert_usage_errors(cases: &[(&[&str], &str, &str)]) {
    for (args, problem, token) in cases {
        let out = getafix(args);
        let line = error_line(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {line}");
        assert!(line.contains(&format!("{problem} `{token}`")), "{args:?}: {line}");
        assert!(line.contains(&format!("`{}`", args[0])), "{args:?} must name the verb: {line}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting the flag");
    }
}

#[test]
fn unknown_flags_exit_2_naming_flag_and_verb() {
    const UNKNOWN: &str = "unknown flag";
    const REPEATED: &str = "repeated flag";
    const NO_VALUE: &str = "missing value for flag";
    let stray = Path::new(env!("CARGO_TARGET_TMPDIR")).join("--stats");
    let _ = std::fs::remove_file(&stray);
    let cases: &[(&[&str], &str, &str)] = &[
        (&["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "--jobs", "2"], UNKNOWN, "--jobs"),
        (&["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "--timout", "1"], UNKNOWN, "--timout"),
        (
            &["check-conc", HANDSHAKE, "--label", "t0__HIT", "--switches", "2", "--jobs", "2"],
            UNKNOWN,
            "--jobs",
        ),
        (&["inspect", DOUBLE_LOCK, "--jobs", "2"], UNKNOWN, "--jobs"),
        (&["emit-mu", DOUBLE_LOCK, "--stats"], UNKNOWN, "--stats"),
        (
            &["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "--trace-out", "--stats"],
            NO_VALUE,
            "--trace-out",
        ),
        (&["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "--strategy"], NO_VALUE, "--strategy"),
        (
            &[
                "check",
                DOUBLE_LOCK,
                "--label",
                "DOUBLE_LOCK",
                "--strategy",
                "worklist",
                "--strategy",
                "bogus",
            ],
            REPEATED,
            "--strategy",
        ),
    ];
    assert_usage_errors(cases);
    assert!(!stray.exists(), "`--trace-out --stats` wrote a trace to a file named `--stats`");
}

/// A stray positional, a single-dash token and a missing flag or input
/// file are usage errors too.
#[test]
fn stray_and_missing_arguments_exit_2_naming_token_and_verb() {
    const STRAY: &str = "stray argument";
    assert_usage_errors(&[
        (&["check", DOUBLE_LOCK, "extra", "--label", "DOUBLE_LOCK"], STRAY, "extra"),
        (&["emit-mu", DOUBLE_LOCK, "extra"], STRAY, "extra"),
        (&["lint", DOUBLE_LOCK, "extra"], STRAY, "extra"),
        (&["help", "extra"], STRAY, "extra"),
        (&["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "-stats"], "unknown flag", "-stats"),
        (&["check", DOUBLE_LOCK], "missing flag", "--label"),
        (&["check-conc", HANDSHAKE, "--label", "t0__HIT"], "missing flag", "--switches"),
        (&["check", "--label", "DOUBLE_LOCK"], "missing argument", "<file.bp>"),
    ]);
}

/// The input file is a positional, so it may follow the flags.
#[test]
fn the_input_file_may_follow_the_flags() {
    let out = getafix(&["check", "--label", "DOUBLE_LOCK", DOUBLE_LOCK]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", error_line(&out));
    assert!(stdout.starts_with("unreachable: `DOUBLE_LOCK`"), "{stdout}");
}

/// Each command accepts each of its flags and rejects every other one
/// of the binary's flags by name.
#[test]
fn each_command_accepts_exactly_its_flags() {
    assert_eq!(PAIRS.iter().map(|(_, flags)| flags.len()).sum::<usize>(), 39);
    let mut every_flag: Vec<&str> =
        PAIRS.iter().flat_map(|(_, flags)| flags.iter().copied()).collect();
    every_flag.sort_unstable();
    every_flag.dedup();
    for (verb, accepted) in PAIRS {
        for flag in &every_flag {
            // A missing input file keeps every run short: an accepted flag
            // ends in another usage error or in the file's read error.
            let mut args = vec![*verb, "missing-input", flag];
            args.extend(VALUES.iter().find(|(f, _)| f == flag).map(|(_, v)| *v));
            let out = getafix(&args);
            let line = error_line(&out);
            let rejected = line.contains(&format!("unknown flag `{flag}`"));
            assert_eq!(out.status.code(), Some(2), "{args:?}: {line}");
            assert_eq!(rejected, !accepted.contains(flag), "{args:?}: {line}");
        }
    }
}

/// A bad value, a second output format and a solver flag given to a
/// baseline exit 2 naming the flag before any input is read: nothing on
/// stdout, no file written, whether or not `--slice` would have decided
/// the case first.
#[test]
fn bad_values_and_clashes_exit_2_before_any_work() {
    let cases: &[(&[&str], &[&str])] = &[
        (&["check", DEAD_CODE, "--label", "NEVER", "--algo", "bogus", "--slice"], &["--algo"]),
        (
            &[
                "check",
                DOUBLE_LOCK,
                "--label",
                "DOUBLE_LOCK",
                "--algo",
                "bogus",
                "--slice",
                "--stats",
            ],
            &["--algo", "bogus"],
        ),
        (
            &[
                "check",
                DEAD_CODE,
                "--label",
                "NEVER",
                "--slice",
                "--algo",
                "bebop",
                "--strategy",
                "round-robin",
                "--stats",
            ],
            &["--strategy", "bebop"],
        ),
        (
            &["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "--algo", "oracle", "--stats-json"],
            &["--stats-json", "oracle"],
        ),
        (
            &[
                "check",
                DOUBLE_LOCK,
                "--label",
                "DOUBLE_LOCK",
                "--algo",
                "moped-fwd",
                "--diag-out",
                "d",
            ],
            &["--diag-out", "moped-fwd"],
        ),
        (&["inspect", DOUBLE_LOCK, "--dot", "--json"], &["--dot", "--json"]),
        (&["inspect", "missing.bp", "--algo", "bebop"], &["--algo", "bebop"]),
        (&["emit-mu", "missing.bp", "--algo", "moped-bwd"], &["--algo", "moped-bwd"]),
        (&["check", "missing.bp", "--label", "L", "--max-iter", "-5"], &["--max-iter", "-5"]),
        (&["check", "missing.bp", "--label", "L", "--max-iter", "0"], &["--max-iter"]),
        (&["check-conc", "missing.cbp", "--label", "L", "--switches", "0"], &["--switches"]),
        (&["check", "missing.bp", "--label", "L", "--memory-budget", "0"], &["--memory-budget"]),
        (&["check", "missing.bp", "--label", "L", "--timeout", "-1"], &["--timeout"]),
        (&["check", "missing.bp", "--label", "L", "--timeout", "nan"], &["--timeout"]),
        (&["check", "missing.bp", "--label", "L", "--timeout", "1e300"], &["--timeout"]),
        (&["inspect", "missing.bp", "--strategy", "bogus"], &["--strategy", "bogus"]),
        (
            &["check", "missing.bp", "--label", "L", "--strategy", "rr"],
            &["--strategy", "`rr`", "`worklist` or `round-robin`"],
        ),
    ];
    for (args, named) in cases {
        let dir = empty_dir("bad-values");
        let out = getafix_in(&dir, args);
        let line = error_line(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {line}");
        for word in *named {
            assert!(line.contains(word), "{args:?} must name {word}: {line}");
        }
        assert!(!line.contains("os error"), "{args:?} read its input first: {line}");
        assert!(out.stdout.is_empty(), "{args:?} printed before rejecting its arguments");
        let written = std::fs::read_dir(&dir).expect("the directory exists").count();
        assert_eq!(written, 0, "{args:?} wrote a file before rejecting its arguments");
    }
}

/// The usage text follows a usage error, and only a usage error: a run
/// that fails on its input or in the solver prints its one error line.
#[test]
fn usage_follows_usage_errors_only() {
    let run_errors: &[&[&str]] = &[
        &["check", "missing.bp", "--label", "L"],
        &["check", DOUBLE_LOCK, "--label", "NO_SUCH_LABEL"],
        &["check", COUNTDOWN, "--label", "HIT", "--max-iter", "1000"],
    ];
    for args in run_errors {
        let out = getafix(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("getafix: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?} printed the usage: {stderr}");
    }
    let out = getafix(&["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "--bogus"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("\nusage:\n"));
}

/// `GETAFIX_TIMEOUT` stands in for an absent `--timeout`, so an unusable
/// value is reported against the variable, never against the flag.
#[test]
fn an_unusable_getafix_timeout_names_the_variable() {
    let out = Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args(["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK"])
        .env("GETAFIX_TIMEOUT", "abc")
        .output()
        .expect("the binary runs");
    let line = error_line(&out);
    assert_eq!(out.status.code(), Some(2), "{line}");
    assert!(line.contains("GETAFIX_TIMEOUT `abc`"), "{line}");
    assert!(!line.contains("--timeout"), "{line}");
    assert!(out.stdout.is_empty());
}

/// Every `--flag` the usage block of `getafix help` lists, per verb.
fn help_flags() -> Vec<(String, String)> {
    let out = getafix(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).expect("help is UTF-8");
    let mut verb = String::new();
    let mut flags = Vec::new();
    for line in help.lines().skip_while(|l| *l != "usage:").skip(1).take_while(|l| !l.is_empty()) {
        let mut words = line.split_whitespace().peekable();
        if words.peek() == Some(&"getafix") {
            verb = words.nth(1).expect("a verb follows `getafix`").to_string();
        }
        for word in words {
            let word = word.trim_matches(|c| c == '[' || c == ']');
            if word.starts_with("--") {
                flags.push((verb.clone(), word.to_string()));
            }
        }
    }
    flags
}

/// `getafix help` lists exactly the accepted pairs, so every flag it
/// lists for a verb is accepted by that verb and every accepted flag is
/// listed.
#[test]
fn every_flag_in_help_is_accepted_by_its_verb() {
    let mut listed = help_flags();
    listed.sort();
    let mut accepted: Vec<(String, String)> = PAIRS
        .iter()
        .flat_map(|(verb, flags)| flags.iter().map(|f| (verb.to_string(), f.to_string())))
        .collect();
    accepted.sort();
    let missing: Vec<_> = accepted.iter().filter(|p| !listed.contains(p)).collect();
    let extra: Vec<_> = listed.iter().filter(|p| !accepted.contains(p)).collect();
    assert!(missing.is_empty(), "accepted but not in `getafix help`: {missing:?}");
    assert!(extra.is_empty(), "in `getafix help` but not accepted: {extra:?}");
}

/// A concurrent program given to a sequential verb, or a sequential one to
/// `check-conc`, keeps its positioned parse error and exits 2; the message
/// adds which kind of program the file is and the verb that takes it.
#[test]
fn a_program_of_the_other_kind_names_the_verb_that_takes_it() {
    let concurrent = "it is a concurrent program, which `getafix check-conc` takes";
    let sequential = "it is a sequential program, which `getafix check` takes";
    let cases: &[(&[&str], &str)] = &[
        (&["check", HANDSHAKE, "--label", "t0__HIT"], concurrent),
        (&["inspect", HANDSHAKE], concurrent),
        (&["emit-mu", HANDSHAKE], concurrent),
        (&["check-conc", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "--switches", "2"], sequential),
    ];
    for (args, kind) in cases {
        let out = getafix(args);
        let line = error_line(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {line}");
        assert!(line.contains(": 1:1: "), "{args:?} must keep the positioned error: {line}");
        assert!(line.contains(kind), "{args:?}: {line}");
        assert!(line.contains(&format!("not `getafix {}`", args[0])), "{args:?}: {line}");
    }
}

/// A program with no procedure, or a concurrent one with no thread, is a
/// parse error at a position for every verb: exit 2 with `<path>: L:C:`
/// (1:1 in an empty file) and no hint at a program of the other kind,
/// since the file is a program of neither.
#[test]
fn an_empty_program_is_a_positioned_parse_error_for_every_verb() {
    let dir = empty_dir("empty_programs");
    let files =
        [("empty.bp", "", "1:1"), ("empty.cbp", "", "1:1"), ("shared.cbp", "shared s;\n", "")];
    for (name, src, at) in files {
        let path = dir.join(name);
        std::fs::write(&path, src).expect("the program is written");
        let path = path.to_str().expect("a UTF-8 path");
        let verbs: [&[&str]; 5] = [
            &["check", path, "--label", "L"],
            &["check-conc", path, "--label", "L", "--switches", "1"],
            &["inspect", path],
            &["emit-mu", path],
            &["lint", path],
        ];
        for args in verbs {
            let out = getafix(args);
            let line = error_line(&out);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {line}");
            let rest = line.strip_prefix(&format!("getafix: {path}: ")).unwrap_or_default();
            let (line_no, col) =
                rest.split_once(": ").and_then(|(pos, _)| pos.split_once(':')).unwrap_or_default();
            let positioned =
                [line_no, col].iter().all(|n| n.parse::<usize>().is_ok_and(|n| n >= 1));
            assert!(positioned, "{args:?} must print a 1-based position: {line}");
            assert!(at.is_empty() || rest.starts_with(&format!("{at}: ")), "{args:?}: {line}");
            assert!(!line.contains("it is a"), "{args:?} hints at another kind: {line}");
        }
    }
}

/// `lint` picks the kind of program by the file's extension, so for a
/// program of the other kind it names the extension that selects it.
#[test]
fn lint_names_the_extension_for_a_program_of_the_other_kind() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let cases = [
        (
            HANDSHAKE,
            "handshake_copy.bp",
            "it is a concurrent program, which `getafix lint` takes as a `.cbp` file",
        ),
        (
            DOUBLE_LOCK,
            "double_lock_copy.cbp",
            "it is a sequential program, which `getafix lint` takes as a `.bp` file",
        ),
    ];
    for (source, name, hint) in cases {
        let copy = dir.join(name);
        std::fs::copy(source, &copy).expect("the example is copied");
        let out = getafix(&["lint", copy.to_str().expect("a UTF-8 path")]);
        let line = error_line(&out);
        assert_eq!(out.status.code(), Some(2), "{name}: {line}");
        assert!(line.contains(": 1:1: "), "{name} must keep the positioned error: {line}");
        assert!(line.contains(hint), "{name}: {line}");
    }
}

/// `lint --deny` exits 1 when a warning is found and 0 otherwise; without
/// `--deny` findings never fail the run.
#[test]
fn lint_deny_exits_1_exactly_when_there_is_a_warning() {
    let cases: &[(&[&str], i32)] = &[
        (&["lint", DEAD_CODE, "--deny"], 1),
        (&["lint", DEAD_CODE], 0),
        (&["lint", DOUBLE_LOCK_BUG, "--deny"], 0),
    ];
    for (args, code) in cases {
        let out = getafix(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(*code), "{args:?}: {stdout}");
        if args[1] == DEAD_CODE {
            assert!(stdout.contains("5 warnings"), "{args:?}: {stdout}");
        }
    }
}

/// `simple` and the baselines take their witness from an ef-opt trace
/// solve: a reachable verdict exits 1 with a replayed trace. An expired
/// deadline stops `simple` with exit 3, as on the single-solve path,
/// instead of failing the run; a baseline takes no deadline (below).
#[test]
fn check_trace_on_simple_and_baselines_exits_1_or_3() {
    for algo in ["bebop", "simple"] {
        let args = ["check", DOUBLE_LOCK_BUG, "--label", "DOUBLE_LOCK", "--algo", algo, "--trace"];
        let out = getafix(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{algo}: {stdout}{}", error_line(&out));
        assert!(stdout.contains("REACHABLE") && stdout.contains("replay-validated"), "{stdout}");
    }
    let args = ["check", DOUBLE_LOCK_BUG, "--label", "DOUBLE_LOCK", "--algo", "simple", "--trace"];
    let out = getafix_with_timeout(&args, "0.000001");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{stdout}{}", error_line(&out));
    assert!(stdout.contains("resource-limit:"), "{stdout}");
}

/// Runs the binary with `GETAFIX_TIMEOUT` set to `secs`.
fn getafix_with_timeout(args: &[&str], secs: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env("GETAFIX_TIMEOUT", secs)
        .output()
        .expect("the binary runs")
}

/// `GETAFIX_TIMEOUT` stands in for `--timeout`, a solver flag: every
/// baseline `--algo` refuses it as it refuses the flag, exit 2 before any
/// work with the variable named, instead of ignoring it; a formula
/// algorithm still honours it.
#[test]
fn a_baseline_refuses_getafix_timeout_and_the_solver_honours_it() {
    for algo in ["oracle", "bebop", "moped-fwd", "moped-bwd"] {
        let args = ["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "--algo", algo];
        let out = getafix_with_timeout(&args, "0.000001");
        let line = error_line(&out);
        assert_eq!(out.status.code(), Some(2), "{algo}: {line}");
        assert!(line.contains("`GETAFIX_TIMEOUT`"), "{algo} must name the variable: {line}");
        assert!(line.contains(&format!("`{algo}`")), "{algo} must be named: {line}");
        assert!(out.stdout.is_empty(), "{algo} ran before refusing the variable");
    }
    let args =
        ["check", COUNTDOWN, "--label", "HIT", "--algo", "ef-opt", "--max-iter", "100000000"];
    let out = getafix_with_timeout(&args, "0.000001");
    assert_eq!(out.status.code(), Some(3), "{}", error_line(&out));
}

/// A run its deadline stops exits 3, and its `--stats` limits line shows
/// the configured bounds and the one that tripped.
#[test]
fn a_deadline_trip_prints_the_limits_line() {
    let out = getafix(&[
        "check",
        COUNTDOWN,
        "--label",
        "HIT",
        "--timeout",
        "0.2",
        "--max-iter",
        "100000000",
        "--memory-budget",
        "100",
        "--stats",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{stdout}{}", error_line(&out));
    let line = "limits: deadline expired, node-budget 3276800 nodes, tripped: deadline";
    assert!(stdout.lines().any(|l| l == line), "{stdout}");
}

/// A thread with 70 locals solves symbolically, but its frame does not fit
/// the explicit engine's 64-bit word (packed, `l69` would alias `l5`'s bit
/// and the solver's correct schedule would not refine): `check-conc
/// --trace` prints the solved schedule with the fallback line and exits 1.
/// The tuple count is a number, and the handshake's stays 48.
#[test]
fn a_frame_wider_than_64_bits_falls_back_to_the_schedule() {
    let locals: Vec<String> = (0..70).map(|i| format!("l{i}")).collect();
    let src = format!(
        "shared s;\nthread\n  main() begin\n    decl {};\n    l69 := T;\n    \
         if (!l5) then HIT: skip; fi;\n  end\nendthread\nthread\n  main() begin\n    \
         s := T;\n  end\nendthread\n",
        locals.join(", ")
    );
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wide_locals.cbp");
    std::fs::write(&path, src).expect("the program is written");
    let path = path.to_str().expect("a UTF-8 path");
    let out = getafix(&["check-conc", path, "--label", "t0__HIT", "--switches", "2", "--trace"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}{}", error_line(&out));
    assert!(
        stdout.contains("statement refinement exceeded the explicit engine's limits"),
        "{stdout}"
    );
    assert!(!stdout.contains("NaN"), "{stdout}");

    let out = getafix(&["check-conc", HANDSHAKE, "--label", "t0__HIT", "--switches", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Reach: 48 tuples"), "{stdout}");
}
