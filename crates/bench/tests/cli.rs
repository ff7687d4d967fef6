//! The bench binaries refuse an unparsable numeric flag with exit 2 and
//! the flag named, before any benchmark work starts.

use std::process::Command;

#[test]
fn unparsable_numeric_flags_exit_2() {
    let bench_report = env!("CARGO_BIN_EXE_bench-report");
    let fig3 = env!("CARGO_BIN_EXE_fig3");
    let cases: &[(&str, &[&str], &str)] = &[
        (bench_report, &["--scale", "abc"], "--scale"),
        (bench_report, &["--bits", "abc"], "--bits"),
        (bench_report, &["--jobs", "many"], "--jobs"),
        (bench_report, &["--max-wall-regress", "x"], "--max-wall-regress"),
        (fig3, &["--max-k", "abc"], "--max-k"),
        (fig3, &["--jobs", "-1"], "--jobs"),
    ];
    // A binary that failed to reject its flag would start writing reports
    // into the working directory; keep that out of the source tree.
    let scratch = std::env::temp_dir();
    for (bin, args, flag) in cases {
        let out =
            Command::new(bin).args(*args).current_dir(&scratch).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?} must name {flag}: {stderr}");
    }
}
