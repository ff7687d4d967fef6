//! The CLI's flag contract, checked against the built binary: a `--flag`
//! the verb does not read exits 2 and names the flag and the verb before
//! any work starts, and every flag `getafix help` lists for a verb is
//! accepted by that verb.

use std::process::{Command, Output};

const DOUBLE_LOCK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/double_lock.bp");
const HANDSHAKE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/handshake.cbp");

fn getafix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_getafix")).args(args).output().expect("the binary runs")
}

/// The `getafix: …` error line (the usage text follows it on stderr).
fn error_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).lines().next().unwrap_or_default().to_string()
}

#[test]
fn unknown_flags_exit_2_naming_flag_and_verb() {
    let cases: &[(&[&str], &str)] = &[
        (&["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "--jobs", "2"], "--jobs"),
        (&["check", DOUBLE_LOCK, "--label", "DOUBLE_LOCK", "--timout", "1"], "--timout"),
        (
            &["check-conc", HANDSHAKE, "--label", "t0__HIT", "--switches", "2", "--jobs", "2"],
            "--jobs",
        ),
        (&["inspect", DOUBLE_LOCK, "--jobs", "2"], "--jobs"),
        (&["emit-mu", DOUBLE_LOCK, "--stats"], "--stats"),
    ];
    for (args, flag) in cases {
        let out = getafix(args);
        let line = error_line(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {line}");
        assert!(line.contains(&format!("unknown flag `{flag}`")), "{args:?}: {line}");
        assert!(line.contains(&format!("`{}`", args[0])), "{args:?} must name the verb: {line}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting the flag");
    }
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
