//! The CLI's flag contract, checked against the built binary: a `--flag`
//! the verb does not read, a repeated flag and a value flag without its
//! value exit 2 and name the flag and the verb before any work starts,
//! and every flag `getafix help` lists for a verb is accepted by that
//! verb. Also the exit codes around them: a program of the wrong kind
//! for its verb exits 2 naming the verb that takes it, and `lint --deny`
//! exits 1 exactly when there is a warning.

use std::path::Path;
use std::process::{Command, Output};

const DOUBLE_LOCK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/double_lock.bp");
const HANDSHAKE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/handshake.cbp");
const DOUBLE_LOCK_BUG: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/double_lock_bug.bp");
const DEAD_CODE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/dead_code.bp");

/// Runs the binary in Cargo's temporary directory for this test target,
/// so a flag mistaken for an output path creates its file there.
fn getafix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_getafix"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the binary runs")
}

/// The `getafix: …` error line (the usage text follows it on stderr).
fn error_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).lines().next().unwrap_or_default().to_string()
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
    for (args, problem, flag) in cases {
        let out = getafix(args);
        let line = error_line(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {line}");
        assert!(line.contains(&format!("{problem} `{flag}`")), "{args:?}: {line}");
        assert!(line.contains(&format!("`{}`", args[0])), "{args:?} must name the verb: {line}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting the flag");
    }
    assert!(!stray.exists(), "`--trace-out --stats` wrote a trace to a file named `--stats`");
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

#[test]
fn every_flag_in_help_is_accepted_by_its_verb() {
    let flags = help_flags();
    for verb in ["check", "check-conc", "lint", "inspect", "emit-mu"] {
        assert!(flags.iter().any(|(v, _)| v == verb), "help lists no flags for `{verb}`");
    }
    for (verb, flag) in flags {
        // A missing input file keeps every run short; the flag check
        // happens before the file is read, so any other error means the
        // flag itself was accepted.
        let out = getafix(&[&verb, "missing-input", &flag]);
        let line = error_line(&out);
        assert!(!line.contains("unknown flag"), "`{verb}` rejects its own `{flag}`: {line}");
    }
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
