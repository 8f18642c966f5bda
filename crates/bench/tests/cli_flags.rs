//! `paper-harness` must refuse flags it does not know instead of stripping
//! them and running the full `all` suite.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper-harness"))
        .args(args)
        .output()
        .expect("paper-harness starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_print_usage_and_exit_2() {
    for args in [
        &["--help"][..],
        &["--thread=2"],
        &["e2", "--thread=2"],
        &["-h"],
        &["e2", "--threads", "many"],
        &["e2", "--threads"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: paper-harness"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn known_flags_are_still_accepted() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    for args in [
        &["validate-json", manifest, "--threads=1"][..],
        &["--threads", "2", "validate-json", manifest, "--trace"],
        &["validate-json", manifest, "--profile"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
}
