//! Golden-value regression tests for the paper artifacts.
//!
//! The pipeline is bitwise deterministic (see `determinism.rs`), so the
//! numbers behind Table I (fit constants), Table II (autotune picks) and
//! Table IV / Figure 5 (predicted-vs-measured error) can be locked to a
//! checked-in snapshot: `tests/golden/values.json`.  Any change to the
//! PRNG stream, the sweep, the NNLS solver, the autotuner or the FMM
//! profiler shows up here as a diff against the snapshot instead of a
//! silent drift of every published number.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden
//! ```
//!
//! then review the diff of `tests/golden/values.json` like any other
//! code change.
//!
//! Floats are compared with a relative tolerance of 1e-9 — far below
//! any physically meaningful difference, far above accumulated rounding
//! jitter from e.g. a compiler upgrade re-associating a reduction.
//! Counts (cases, mispredictions) must match exactly.

use std::path::PathBuf;
use std::sync::OnceLock;

use compat::json::{Json, ToJson};
use dvfs_bench::pipeline::{fig5_validation, fmm_profiles, table2_outcomes};
use dvfs_energy_model::{AutotuneOutcome, EnergyModel, ErrorStats};

/// Master seed of the golden pipeline run (sweep, autotune, FMM cases).
const GOLDEN_SEED: u64 = 0x601D;
/// FMM inputs are scaled to 1/16 of the paper's N so the suite stays
/// minutes, not hours; the golden values are for *this* scale.
const SCALE_SHIFT: u32 = 4;
const REL_TOL: f64 = 1e-9;

struct GoldenRun {
    model: EnergyModel,
    fit_residual_j: f64,
    train_rms_rel: f64,
    table2: Vec<AutotuneOutcome>,
    fig5: ErrorStats,
}

fn golden_run() -> &'static GoldenRun {
    static RUN: OnceLock<GoldenRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let dataset = dvfs_microbench::run_sweep(&dvfs_microbench::SweepConfig {
            seed: GOLDEN_SEED,
            faults: None,
            ..dvfs_microbench::SweepConfig::default()
        });
        let report = dvfs_energy_model::fit_model(dataset.training());
        let table2 = table2_outcomes(&report.model, GOLDEN_SEED ^ 0x2);
        let profiles = fmm_profiles(SCALE_SHIFT, GOLDEN_SEED ^ 0x5);
        let (_cases, fig5) = fig5_validation(&report.model, &profiles, GOLDEN_SEED ^ 0xF);
        GoldenRun {
            model: report.model,
            fit_residual_j: report.residual_norm_j,
            train_rms_rel: report.train_rms_rel,
            table2,
            fig5,
        }
    })
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/values.json")
}

fn encode(run: &GoldenRun) -> Json {
    Json::obj([
        ("seed", Json::Num(GOLDEN_SEED as f64)),
        ("scale_shift", Json::Num(SCALE_SHIFT as f64)),
        (
            "table1_fit",
            Json::obj([
                ("c0_pj_per_v2", run.model.c0_pj_per_v2.to_vec().to_json()),
                ("c1_proc_w_per_v", Json::Num(run.model.c1_proc_w_per_v)),
                ("c1_mem_w_per_v", Json::Num(run.model.c1_mem_w_per_v)),
                ("p_misc_w", Json::Num(run.model.p_misc_w)),
                ("residual_norm_j", Json::Num(run.fit_residual_j)),
                ("train_rms_rel", Json::Num(run.train_rms_rel)),
            ]),
        ),
        (
            "table2",
            Json::Arr(
                run.table2
                    .iter()
                    .map(|o| {
                        Json::obj([
                            ("kind", Json::Str(o.kind.name().to_string())),
                            ("cases", Json::Num(o.cases as f64)),
                            ("model_mispredictions", Json::Num(o.model.mispredictions as f64)),
                            ("model_mean_lost_pct", Json::Num(o.model.mean_lost_pct())),
                            ("oracle_mispredictions", Json::Num(o.oracle.mispredictions as f64)),
                            ("oracle_mean_lost_pct", Json::Num(o.oracle.mean_lost_pct())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fig5_errors",
            Json::obj([
                ("count", Json::Num(run.fig5.count as f64)),
                ("mean_pct", Json::Num(run.fig5.mean_pct)),
                ("std_pct", Json::Num(run.fig5.std_pct)),
                ("min_pct", Json::Num(run.fig5.min_pct)),
                ("max_pct", Json::Num(run.fig5.max_pct)),
            ]),
        ),
    ])
}

/// Loads the snapshot, regenerating it when `GOLDEN_REGEN` is set.
fn snapshot() -> Json {
    let path = golden_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let text = encode(golden_run()).to_text();
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, text + "\n").expect("write golden snapshot");
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {path:?} ({e}); run `GOLDEN_REGEN=1 cargo test --test golden`"
        )
    });
    Json::parse(&text).expect("golden snapshot parses")
}

fn assert_close(what: &str, got: f64, want: f64) {
    let tol = REL_TOL * want.abs().max(1e-12);
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got:?}, golden {want:?} (|Δ| = {:e})",
        (got - want).abs()
    );
}

fn field_f64(v: &Json, key: &str) -> f64 {
    v.field(key).unwrap().as_f64().unwrap()
}

#[test]
fn golden_seed_and_scale_match() {
    let snap = snapshot();
    assert_eq!(field_f64(&snap, "seed") as u64, GOLDEN_SEED, "snapshot from different seed");
    assert_eq!(field_f64(&snap, "scale_shift") as u32, SCALE_SHIFT);
}

#[test]
fn table1_fit_constants_match_golden() {
    let snap = snapshot();
    let run = golden_run();
    let fit = snap.field("table1_fit").unwrap();
    let c0 = fit.field("c0_pj_per_v2").unwrap().as_array().unwrap();
    assert_eq!(c0.len(), run.model.c0_pj_per_v2.len());
    for (i, want) in c0.iter().enumerate() {
        assert_close(&format!("c0[{i}]"), run.model.c0_pj_per_v2[i], want.as_f64().unwrap());
    }
    assert_close("c1_proc_w_per_v", run.model.c1_proc_w_per_v, field_f64(fit, "c1_proc_w_per_v"));
    assert_close("c1_mem_w_per_v", run.model.c1_mem_w_per_v, field_f64(fit, "c1_mem_w_per_v"));
    assert_close("p_misc_w", run.model.p_misc_w, field_f64(fit, "p_misc_w"));
    assert_close("residual_norm_j", run.fit_residual_j, field_f64(fit, "residual_norm_j"));
    assert_close("train_rms_rel", run.train_rms_rel, field_f64(fit, "train_rms_rel"));
}

#[test]
fn table2_autotune_picks_match_golden() {
    let snap = snapshot();
    let run = golden_run();
    let rows = snap.field("table2").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), run.table2.len(), "family count changed");
    for (row, outcome) in rows.iter().zip(&run.table2) {
        let kind = row.field("kind").unwrap().as_str().unwrap();
        assert_eq!(kind, outcome.kind.name());
        assert_eq!(field_f64(row, "cases") as usize, outcome.cases, "{kind}: cases");
        assert_eq!(
            field_f64(row, "model_mispredictions") as usize,
            outcome.model.mispredictions,
            "{kind}: model mispredictions"
        );
        assert_eq!(
            field_f64(row, "oracle_mispredictions") as usize,
            outcome.oracle.mispredictions,
            "{kind}: oracle mispredictions"
        );
        assert_close(
            &format!("{kind}: model mean lost"),
            outcome.model.mean_lost_pct(),
            field_f64(row, "model_mean_lost_pct"),
        );
        assert_close(
            &format!("{kind}: oracle mean lost"),
            outcome.oracle.mean_lost_pct(),
            field_f64(row, "oracle_mean_lost_pct"),
        );
    }
}

#[test]
fn fig5_prediction_errors_match_golden() {
    let snap = snapshot();
    let run = golden_run();
    let f = snap.field("fig5_errors").unwrap();
    assert_eq!(field_f64(f, "count") as usize, run.fig5.count);
    assert_close("fig5 mean_pct", run.fig5.mean_pct, field_f64(f, "mean_pct"));
    assert_close("fig5 std_pct", run.fig5.std_pct, field_f64(f, "std_pct"));
    assert_close("fig5 min_pct", run.fig5.min_pct, field_f64(f, "min_pct"));
    assert_close("fig5 max_pct", run.fig5.max_pct, field_f64(f, "max_pct"));
}

#[test]
fn fig5_errors_stay_in_paper_band() {
    // Belt and braces beyond the exact snapshot: the paper reports mean
    // 6.17%, max 14.89% — the reproduction must stay the same order.
    let run = golden_run();
    assert!(run.fig5.mean_pct < 12.0, "mean error {:.2}%", run.fig5.mean_pct);
    assert!(run.fig5.max_pct < 30.0, "max error {:.2}%", run.fig5.max_pct);
}
