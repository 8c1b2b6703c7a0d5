//! `repro` option parsing at the process boundary: a malformed value,
//! an unknown flag or a flag missing its value is a usage error (exit
//! 2, like an unknown artifact), never a silent fallback to a default.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

#[test]
fn bad_options_are_usage_errors() {
    for args in [
        &["table4", "--seed", "abc"][..],
        &["table4", "--scale-shift", "xyz"],
        &["table4", "--bogus", "1"],
        &["table4", "--seed"],
        &["no-such-artifact"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("artifacts:"), "repro {args:?} prints usage: {stderr}");
    }
}

#[test]
fn well_formed_seed_runs() {
    let out = repro(&["table4", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("F1"));
}
