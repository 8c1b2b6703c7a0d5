//! `repro` at the process boundary.
//!
//! A malformed value, an unknown flag, a flag missing its value, or an
//! option the artifact has no use for (a run option beside `--check`
//! included) is a usage error (exit 2, like an unknown artifact), never
//! a panic or a silent fallback to a default.
//! A check that fails, or a pipeline that cannot run, exits 1 with a
//! message instead of a panic, and every committed artifact's gates
//! both pass the committed file and reject a copy with one gated value
//! changed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

/// A committed artifact at the workspace root.
fn committed(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
    path.to_string_lossy().into_owned()
}

/// A copy of the committed `file` with `edit` applied, named `tag`.
fn changed(file: &str, tag: &str, edit: impl Fn(&str) -> String) -> PathBuf {
    let text = std::fs::read_to_string(committed(file)).expect("read committed artifact");
    let edited = edit(&text);
    assert_ne!(edited, text, "the edit of {file} must change it");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}_{file}"));
    std::fs::write(&path, edited).expect("write changed artifact");
    path
}

/// Replaces the first `from` in `text`, which must contain it.
fn replace_first(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "artifact lacks {from}");
    text.replacen(from, to, 1)
}

/// The first value of `key` (a number), its start and end offsets.
fn first_value(text: &str, key: &str) -> (usize, usize) {
    let pattern = format!("\"{key}\":");
    let start = text.find(&pattern).expect("key present") + pattern.len();
    (start, start + text[start..].find([',', '}']).expect("value ends"))
}

#[test]
fn bad_options_are_usage_errors() {
    for args in [
        &["table4", "--seed", "abc"][..],
        &["table4", "--scale-shift", "xyz"],
        &["table4", "--bogus", "1"],
        &["table4", "--seed"],
        &["no-such-artifact"],
        &["service", "--requests", "abc"],
        &["governor", "--out"],
        &["fmm-scaling", "--sizes", "8192,x"],
        &["table4", "--check", "f"],
        &["governor", "--check", "f", "--baseline", "g"],
        &["table4", "--requests", "5"],
        &["stream", "--requests", "5"],
        &["table1", "--sizes", "8192"],
        &["fmm-scaling", "--requests", "5"],
        &["governor", "--reps", "9", "--scale-shift", "6"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("artifacts:"), "repro {args:?} prints usage: {stderr}");
    }
    // `--check` reads a file and runs nothing, so a run option beside it
    // is refused, even when the file itself passes.
    let governor = committed("BENCH_governor.json");
    let service = committed("BENCH_service.json");
    let fmm = committed("BENCH_fmm.json");
    for args in [
        &["governor", "--scale-shift", "9", "--seed", "3", "--check", governor.as_str()][..],
        &["service", "--requests", "5", "--check", service.as_str()],
        &["fmm-scaling", "--reps", "2", "--sizes", "4096", "--check", fmm.as_str()],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--check runs no experiment"), "repro {args:?}: {stderr}");
        assert!(stderr.contains("artifacts:"), "repro {args:?} prints usage: {stderr}");
    }
}

#[test]
fn well_formed_seed_runs() {
    let out = repro(&["table4", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("F1"));
}

#[test]
fn a_missing_check_file_fails_without_a_panic() {
    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no_such_artifact.json");
    let out = repro(&["governor", "--check", &missing.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read") && !stderr.contains("panicked"), "{stderr}");
}

#[test]
fn an_unsurvivable_fault_campaign_fails_without_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .env("FMM_ENERGY_FAULTS", "latch_fail=1.0,seed=1")
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("sweep + fit failed") && !stderr.contains("panicked"), "{stderr}");
}

#[test]
fn every_artifact_gate_passes_the_committed_file_and_fails_a_changed_copy() {
    type Edit = fn(&str) -> String;
    let cases: [(&str, &str, &str, Edit); 6] = [
        ("fmm-scaling", "BENCH_fmm.json", "digest", |t| {
            replace_first(t, "\"digest\":\"e528d5e2031a2c52\"", "\"digest\":\"0000000000000000\"")
        }),
        ("service", "BENCH_service.json", "requests", |t| {
            replace_first(t, "\"requests\":1000000,", "\"requests\":999999,")
        }),
        ("chaos", "BENCH_chaos.json", "availability", |t| {
            replace_first(t, "\"availability\":0.99797,", "\"availability\":0.98,")
        }),
        ("fleet", "BENCH_fleet.json", "race_to_idle_optimal", |t| {
            let tk1 = t.find("\"id\":\"tk1\"").expect("tk1 present");
            let (start, end) = first_value(&t[tk1..], "race_to_idle_optimal");
            assert_eq!(&t[tk1 + start..tk1 + end], "true");
            format!("{}false{}", &t[..tk1 + start], &t[tk1 + end..])
        }),
        ("stream", "BENCH_stream.json", "burst.deadline_misses", |t| {
            let burst = t.find("\"burst\":").expect("burst present");
            let (start, end) = first_value(&t[burst..], "deadline_misses");
            format!("{}1{}", &t[..burst + start], &t[burst + end..])
        }),
        ("governor", "BENCH_governor.json", "energy_j", |t| {
            let key = t.find("\"energy_j\":").expect("energy_j present");
            let (_, end) = first_value(&t[key..], "energy_j");
            format!("{}{}", &t[..key], &t[key + end + 1..])
        }),
    ];
    for (artifact, file, field, edit) in cases {
        let ok = repro(&[artifact, "--check", &committed(file)]);
        let stdout = String::from_utf8_lossy(&ok.stdout);
        assert_eq!(ok.status.code(), Some(0), "{artifact} on {file}: {ok:?}");
        assert!(stdout.contains("OK"), "{artifact} on {file}: {stdout}");

        let copy = changed(file, "gated", edit);
        let bad = repro(&[artifact, "--check", &copy.to_string_lossy()]);
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert_eq!(bad.status.code(), Some(1), "{artifact} on a changed {file}: {stderr}");
        assert!(stderr.contains(field), "{artifact} names {field}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn a_regressed_fmm_grid_fails_against_its_baseline() {
    let base = committed("BENCH_fmm.json");
    let same = repro(&["fmm-scaling", "--check", &base, "--baseline", &base]);
    assert_eq!(same.status.code(), Some(0), "{same:?}");

    let copy = changed("BENCH_fmm.json", "regressed", |t| {
        let (start, end) = first_value(t, "evaluate_median_s");
        let doubled = 2.0 * t[start..end].parse::<f64>().expect("a number");
        format!("{}{doubled}{}", &t[..start], &t[end..])
    });
    let out = repro(&["fmm-scaling", "--check", &copy.to_string_lossy(), "--baseline", &base]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("evaluate_median_s"), "{stderr}");
}
