//! Model instantiation: design-matrix construction and NNLS estimation
//! (the paper's Section II-C).
//!
//! Every measurement contributes one row.  For a sample with op counts
//! `n_k`, duration `T`, and setting voltages `(V_p, V_m)`, the row is
//!
//! ```text
//! [ n_SP·V_p²  n_DP·V_p²  n_INT·V_p²  (n_SM+n_L1)·V_p²  n_L2·V_p²
//!   n_DRAM·V_m²  V_p·T  V_m·T  T ]
//! ```
//!
//! and the response is the measured energy in joules.  The shared-memory
//! and L1 counts share one column because on the Kepler SMX they are the
//! same physical SRAM array (the paper's Table I likewise carries a
//! single "SM" column); the fitted coefficient is assigned to both
//! classes.  Coefficients are constrained non-negative with Lawson–Hanson
//! NNLS, exactly as in the paper — unconstrained least squares on noisy
//! power data happily produces negative energies per op, which are
//! physically meaningless.

use crate::model::EnergyModel;
use compat::error::{PipelineError, PipelineResult};
use dvfs_linalg::{nnls, nnls_ridge, Matrix, NnlsOptions, QrFactorization};
use dvfs_microbench::Sample;
use std::sync::Arc;
use tk1_sim::{DeviceSpec, OpClass, Setting};

/// Number of fitted coefficients: 6 op columns (SM+L1 merged), 2 leakage
/// terms, and `P_misc`.
pub const NUM_COLUMNS: usize = 9;

/// Human-readable names of the fitted terms, aligned with the design
/// columns (used in [`FitDiagnostics`]).
pub const COLUMN_NAMES: [&str; NUM_COLUMNS] =
    ["c0_sp", "c0_dp", "c0_int", "c0_sm_l1", "c0_l2", "c0_dram", "c1_proc", "c1_mem", "p_misc"];

/// MAD multiples beyond which a row counts as an outlier (with
/// [`FitOptions::reject_row_outliers`]).
const OUTLIER_CUTOFF: f64 = 6.0;
/// Condition-estimate threshold above which (near-)collinear columns
/// are dropped before the NNLS solve.
const CONDITION_LIMIT: f64 = 1e10;
/// Tikhonov parameter of the ridge fallback used when the plain solve
/// still fails (applied to the column-scaled design).
const RIDGE_LAMBDA: f64 = 1e-8;

/// A warm-start prior for cross-device model transfer: the fitted
/// constants of a sibling device, folded into the solve as
/// pseudo-observations.
///
/// Each coefficient `x_j` gets one extra (column-scaled) design row
/// `√λ·e_j` with response `√λ·p_j`, so the solve minimizes
/// `‖Ax − b‖² + λ·‖x − p‖²`.  With a small measurement budget the prior
/// dominates the poorly excited directions and the data corrects the
/// well-excited ones — the standard Bayesian reading of ridge toward a
/// non-zero center.  Because the prior rows excite every column, the
/// condition screen no longer drops unexcited columns: they simply stay
/// at the sibling's constants.
#[derive(Debug, Clone)]
pub struct FitPrior {
    /// The sibling device's fitted constants (the prior center).
    pub model: EnergyModel,
    /// Pseudo-observation weight λ; larger values trust the sibling
    /// more.  Useful values are of order the number of rows the prior
    /// should counterbalance (≈ 4–16).
    pub weight: f64,
}

/// Tuning of the hardened fit ladder.
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// When true, samples whose relative residual lies far outside the
    /// robust (median/MAD) band are rejected and the model refitted once
    /// without them.  Off by default so fault-free fits are bitwise
    /// identical to the unhardened estimator.
    pub reject_row_outliers: bool,
    /// The device the samples were measured on; resolves settings into
    /// operating points for the design rows and predictions.
    pub device: Arc<DeviceSpec>,
    /// Optional cross-device warm-start prior.
    pub prior: Option<FitPrior>,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions { reject_row_outliers: false, device: tk1_sim::catalog::tk1(), prior: None }
    }
}

impl FitOptions {
    /// Default options for a specific catalog device.
    pub fn for_device(device: &Arc<DeviceSpec>) -> Self {
        FitOptions { device: device.clone(), ..FitOptions::default() }
    }
}

/// What the graceful-degradation ladder actually did during a fit.
#[derive(Debug, Clone, Default)]
pub struct FitDiagnostics {
    /// Condition estimate of the column-scaled design matrix.
    pub condition_estimate: f64,
    /// Design columns excluded from the solve (zero excitation or
    /// near-collinear); their coefficients are reported as zero.
    pub dropped_columns: Vec<usize>,
    /// Ridge parameter of the fallback solve, if it was needed.
    pub ridge_lambda: Option<f64>,
    /// Fitted terms that hit their physical-range clamp.
    pub clamped_terms: Vec<&'static str>,
    /// Rows rejected by the robust residual screen.
    pub rows_rejected: usize,
    /// Free-form notes describing each degradation step taken.
    pub notes: Vec<String>,
}

impl FitDiagnostics {
    /// True when any rung of the degradation ladder fired — the fit is
    /// usable but should be reported alongside these diagnostics.
    pub fn degraded(&self) -> bool {
        !self.dropped_columns.is_empty()
            || self.ridge_lambda.is_some()
            || !self.clamped_terms.is_empty()
            || self.rows_rejected > 0
    }
}

/// Outcome of a model fit.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// The estimated model.
    pub model: EnergyModel,
    /// Residual 2-norm of the NNLS solve, J.
    pub residual_norm_j: f64,
    /// Number of samples used.
    pub samples: usize,
    /// Root-mean-square relative training error (fraction).
    pub train_rms_rel: f64,
    /// Degradation-ladder bookkeeping for this fit.
    pub diagnostics: FitDiagnostics,
}

/// Builds the design row for one sample on the TK1 (exposed for tests
/// and for the cross-validation driver).
pub fn design_row(sample: &Sample) -> [f64; NUM_COLUMNS] {
    design_row_on(&tk1_sim::catalog::tk1(), sample)
}

/// Builds the design row for one sample measured on `device`, resolving
/// the setting through that device's DVFS tables.
pub fn design_row_on(device: &Arc<DeviceSpec>, sample: &Sample) -> [f64; NUM_COLUMNS] {
    let op = device.operating_point(sample.setting);
    let vp2 = op.core.voltage_v * op.core.voltage_v;
    let vm2 = op.mem.voltage_v * op.mem.voltage_v;
    let ops = &sample.ops;
    [
        ops.get(OpClass::FlopSp) * vp2,
        ops.get(OpClass::FlopDp) * vp2,
        ops.get(OpClass::Int) * vp2,
        (ops.get(OpClass::Shared) + ops.get(OpClass::L1)) * vp2,
        ops.get(OpClass::L2) * vp2,
        ops.get(OpClass::Dram) * vm2,
        op.core.voltage_v * sample.time_s,
        op.mem.voltage_v * sample.time_s,
        sample.time_s,
    ]
}

/// Fits the model to a set of samples by column-scaled NNLS.
///
/// ```
/// use dvfs_energy_model::fit_model;
/// use dvfs_microbench::{run_sweep, MicrobenchKind, SweepConfig};
///
/// let mut config = SweepConfig::default();
/// config.kinds = vec![MicrobenchKind::L2];   // one family, for speed
/// let dataset = run_sweep(&config);
/// let report = fit_model(dataset.training());
/// assert!(report.model.constant_power_w(tk1_sim::Setting::max_performance()) > 3.0);
/// ```
///
/// # Panics
/// Panics if fewer than [`NUM_COLUMNS`] samples are supplied.
pub fn fit_model<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> FitReport {
    let samples: Vec<&Sample> = samples.into_iter().collect();
    assert!(
        samples.len() >= NUM_COLUMNS,
        "need at least {NUM_COLUMNS} samples to identify the model, got {}",
        samples.len()
    );
    try_fit_model_with(samples, &FitOptions::default()).expect("NNLS on full-rank design")
}

/// Fallible fit with default options; see [`try_fit_model_with`].
pub fn try_fit_model<'a>(
    samples: impl IntoIterator<Item = &'a Sample>,
) -> PipelineResult<FitReport> {
    try_fit_model_with(samples, &FitOptions::default())
}

/// Fits the model through the graceful-degradation ladder.
///
/// The rungs, in order, with every step recorded in
/// [`FitReport::diagnostics`]:
///
/// 1. **Identifiability** — fewer than [`NUM_COLUMNS`] samples is an
///    immediate [`PipelineError::InsufficientData`].
/// 2. **Column screen** — a QR condition estimate of the column-scaled
///    design; above `CONDITION_LIMIT` the (near-)collinear columns are
///    dropped and reported with zero coefficients.
/// 3. **NNLS** — the plain Lawson–Hanson solve.
/// 4. **Ridge fallback** — if the plain solve still fails (singular or
///    non-convergent), retry with Tikhonov regularization.
/// 5. **Physical clamps** — fitted terms beyond physically possible
///    magnitudes are clamped and flagged.
///
/// With `reject_row_outliers` set, a robust median/MAD screen on the
/// relative residuals runs after the first solve and the model is
/// refitted once without the flagged rows — the defense against
/// corrupted measurements that slipped past the sweep's gates.
pub fn try_fit_model_with<'a>(
    samples: impl IntoIterator<Item = &'a Sample>,
    options: &FitOptions,
) -> PipelineResult<FitReport> {
    let samples: Vec<&Sample> = samples.into_iter().collect();
    if samples.len() < NUM_COLUMNS {
        return Err(PipelineError::InsufficientData {
            needed: NUM_COLUMNS,
            got: samples.len(),
            context: "fit_model design matrix".to_string(),
        });
    }

    let (mut x, mut residual_norm, mut diagnostics) = solve_rows(&samples, options)?;

    if options.reject_row_outliers {
        // Robust residual screen: relative residuals of the first fit,
        // median/MAD-banded.  The 5% floor keeps the screen from firing
        // on the ordinary noise of a clean sweep.
        let rels: Vec<f64> = samples
            .iter()
            .map(|s| {
                let pred = dvfs_linalg::dot(&design_row_on(&options.device, s), &x);
                (pred - s.energy_j) / s.energy_j
            })
            .collect();
        let med = median(&rels);
        let mad = median(&rels.iter().map(|r| (r - med).abs()).collect::<Vec<_>>());
        let width = (OUTLIER_CUTOFF * 1.4826 * mad).max(0.05);
        let keep: Vec<&Sample> = samples
            .iter()
            .zip(&rels)
            .filter(|(_, &r)| (r - med).abs() <= width)
            .map(|(&s, _)| s)
            .collect();
        let rejected = samples.len() - keep.len();
        if rejected > 0 && keep.len() >= NUM_COLUMNS {
            let (x2, r2, mut d2) = solve_rows(&keep, options)?;
            d2.rows_rejected = rejected;
            d2.notes.push(format!(
                "rejected {rejected} of {} rows beyond {:.1}% of the median residual",
                samples.len(),
                width * 100.0
            ));
            x = x2;
            residual_norm = r2;
            diagnostics = d2;
        }
    }

    // Physical-range clamps: per-op energies are at most ~10 nJ on any
    // catalog device, and no leakage/constant term can exceed the
    // device's power envelope (taken as 4/3 of the meter full scale,
    // which is sized to the platform).  A clean fit sits orders of
    // magnitude inside these caps; only a degenerate solve can reach
    // them.
    let power_cap = options.device.meter_full_scale_w * 4.0 / 3.0;
    let caps: [f64; NUM_COLUMNS] =
        [1e-8, 1e-8, 1e-8, 1e-8, 1e-8, 1e-8, power_cap, power_cap, power_cap];
    for j in 0..NUM_COLUMNS {
        if x[j] > caps[j] {
            x[j] = caps[j];
            diagnostics.clamped_terms.push(COLUMN_NAMES[j]);
        }
    }

    // Assemble the model; the merged SM/L1 coefficient feeds both classes.
    let mut c0 = [0.0f64; tk1_sim::NUM_OP_CLASSES];
    c0[OpClass::FlopSp.index()] = x[0] * 1e12;
    c0[OpClass::FlopDp.index()] = x[1] * 1e12;
    c0[OpClass::Int.index()] = x[2] * 1e12;
    c0[OpClass::Shared.index()] = x[3] * 1e12;
    c0[OpClass::L1.index()] = x[3] * 1e12;
    c0[OpClass::L2.index()] = x[4] * 1e12;
    c0[OpClass::Dram.index()] = x[5] * 1e12;
    let model = EnergyModel {
        c0_pj_per_v2: c0,
        c1_proc_w_per_v: x[6],
        c1_mem_w_per_v: x[7],
        p_misc_w: x[8],
    };

    // Training-set relative error, over every supplied sample (including
    // any the robust screen excluded from the solve — the report stays
    // honest about the data it was handed).
    let mut sq = 0.0;
    for s in &samples {
        let pred = predict_on(&options.device, &model, s);
        let rel = crate::stats::relative_error(pred, s.energy_j);
        sq += rel * rel;
    }
    let train_rms_rel = (sq / samples.len() as f64).sqrt();

    Ok(FitReport {
        model,
        residual_norm_j: residual_norm,
        samples: samples.len(),
        train_rms_rel,
        diagnostics,
    })
}

/// One pass of the column-screened, ridge-backed NNLS solve.  Returns
/// the unscaled coefficient vector (zeros in dropped columns), the
/// residual norm, and the diagnostics accumulated so far.
fn solve_rows(
    samples: &[&Sample],
    options: &FitOptions,
) -> PipelineResult<([f64; NUM_COLUMNS], f64, FitDiagnostics)> {
    let mut data = Vec::with_capacity(samples.len() * NUM_COLUMNS);
    let mut b = Vec::with_capacity(samples.len());
    for s in samples {
        data.extend_from_slice(&design_row_on(&options.device, s));
        b.push(s.energy_j);
    }
    let a = Matrix::from_vec(samples.len(), NUM_COLUMNS, data);

    // Column scaling: op-count columns are ~1e9 while time columns are
    // ~1e-1; normalizing each to unit max keeps the QR inside NNLS well
    // conditioned.  Positive scaling preserves the non-negativity
    // constraint and is undone on the way out.
    let mut scales = [0.0f64; NUM_COLUMNS];
    for j in 0..NUM_COLUMNS {
        let mx = (0..a.rows()).map(|i| a[(i, j)].abs()).fold(0.0f64, f64::max);
        scales[j] = if mx > 0.0 { mx } else { 1.0 };
    }
    let mut sdata = Vec::with_capacity((a.rows() + NUM_COLUMNS) * NUM_COLUMNS);
    for i in 0..a.rows() {
        for j in 0..NUM_COLUMNS {
            sdata.push(a[(i, j)] / scales[j]);
        }
    }

    let mut diagnostics = FitDiagnostics::default();

    // Transfer prior: one pseudo-observation per coefficient, appended
    // BEFORE the condition screen so every column is excited — an
    // unexcited column then fits to the sibling's constant instead of
    // being dropped.  In the scaled domain the solution variable is
    // `x_j·scale_j`, so the prior response must carry the same scale.
    if let Some(prior) = &options.prior {
        let w = prior.weight.max(0.0).sqrt();
        let center = prior_vector(&prior.model);
        for j in 0..NUM_COLUMNS {
            for k in 0..NUM_COLUMNS {
                sdata.push(if k == j { w } else { 0.0 });
            }
            b.push(w * center[j].max(0.0) * scales[j]);
        }
        diagnostics.notes.push(format!("warm-start prior active (λ={:.1})", prior.weight));
    }
    let scaled = Matrix::from_vec(b.len(), NUM_COLUMNS, sdata);
    let qr = QrFactorization::new(&scaled)?;
    diagnostics.condition_estimate = qr.condition_estimate();
    if diagnostics.condition_estimate > CONDITION_LIMIT {
        diagnostics.dropped_columns = qr.small_diagonal_columns(1.0 / CONDITION_LIMIT);
        if !diagnostics.dropped_columns.is_empty() {
            let names: Vec<&str> =
                diagnostics.dropped_columns.iter().map(|&j| COLUMN_NAMES[j]).collect();
            diagnostics.notes.push(format!(
                "condition estimate {:.2e} exceeds limit; dropped columns {:?}",
                diagnostics.condition_estimate, names
            ));
        }
    }
    let kept: Vec<usize> =
        (0..NUM_COLUMNS).filter(|j| !diagnostics.dropped_columns.contains(j)).collect();
    if kept.is_empty() {
        return Err(PipelineError::Numeric {
            routine: "fit_model".to_string(),
            detail: "every design column was dropped as degenerate".to_string(),
        });
    }
    let work =
        if diagnostics.dropped_columns.is_empty() { scaled } else { scaled.select_columns(&kept) };

    let sol = match nnls(&work, &b, &NnlsOptions::default()) {
        Ok(sol) => sol,
        Err(
            e @ (dvfs_linalg::LinalgError::Singular(_)
            | dvfs_linalg::LinalgError::NoConvergence { .. }),
        ) => {
            diagnostics.ridge_lambda = Some(RIDGE_LAMBDA);
            diagnostics.notes.push(format!(
                "plain NNLS failed ({e}); fell back to ridge λ={:.1e}",
                RIDGE_LAMBDA
            ));
            nnls_ridge(&work, &b, RIDGE_LAMBDA, &NnlsOptions::default())?
        }
        Err(e) => return Err(e.into()),
    };

    let mut x = [0.0f64; NUM_COLUMNS];
    for (k, &j) in kept.iter().enumerate() {
        x[j] = sol.x[k] / scales[j];
    }
    Ok((x, sol.residual_norm, diagnostics))
}

/// The prior center expressed in design-column units: pJ/V² terms become
/// J/V² (matching the unscaled coefficient vector), leakage and constant
/// terms pass through.  The merged SM/L1 column takes the Shared
/// coefficient (the fit assigns one value to both classes anyway).
fn prior_vector(model: &EnergyModel) -> [f64; NUM_COLUMNS] {
    let c0 = &model.c0_pj_per_v2;
    [
        c0[OpClass::FlopSp.index()] * 1e-12,
        c0[OpClass::FlopDp.index()] * 1e-12,
        c0[OpClass::Int.index()] * 1e-12,
        c0[OpClass::Shared.index()] * 1e-12,
        c0[OpClass::L2.index()] * 1e-12,
        c0[OpClass::Dram.index()] * 1e-12,
        model.c1_proc_w_per_v,
        model.c1_mem_w_per_v,
        model.p_misc_w,
    ]
}

/// Median of a slice (NaN-free input assumed); 0 for an empty slice.
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Convenience: predicted energy for an arbitrary (ops, setting, time)
/// triple under a fitted model — the call sites of Figures 5–7 all look
/// like this.
pub fn predict(model: &EnergyModel, sample: &Sample) -> f64 {
    model.predict_energy_j(&sample.ops, sample.setting, sample.time_s)
}

/// Predicted energy for a sample measured on an arbitrary catalog
/// device: the setting resolves through that device's DVFS tables.
pub fn predict_on(device: &Arc<DeviceSpec>, model: &EnergyModel, sample: &Sample) -> f64 {
    model.predict_energy_at(&sample.ops, &device.operating_point(sample.setting), sample.time_s)
}

/// Builds a `Sample` for an application run (no microbenchmark family).
pub fn application_sample(
    ops: tk1_sim::OpVector,
    setting: Setting,
    setting_type: dvfs_microbench::SettingType,
    time_s: f64,
    energy_j: f64,
) -> Sample {
    Sample { kind: None, intensity: None, ops, setting, setting_type, time_s, energy_j }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_microbench::{run_sweep, MicrobenchKind, SweepConfig};

    fn sweep(trials: usize) -> dvfs_microbench::Dataset {
        run_sweep(&SweepConfig { trials, faults: None, ..SweepConfig::default() })
    }

    #[test]
    fn design_row_uses_domain_voltages() {
        use dvfs_microbench::SettingType;
        use tk1_sim::OpVector;
        let s = application_sample(
            OpVector::from_pairs(&[(OpClass::FlopSp, 10.0), (OpClass::Dram, 3.0)]),
            Setting::from_frequencies(852.0, 528.0).unwrap(),
            SettingType::Training,
            2.0,
            1.0,
        );
        let row = design_row(&s);
        assert!((row[0] - 10.0 * 1.030 * 1.030).abs() < 1e-9);
        assert!((row[5] - 3.0 * 0.880 * 0.880).abs() < 1e-9);
        assert!((row[6] - 1.030 * 2.0).abs() < 1e-9);
        assert!((row[7] - 0.880 * 2.0).abs() < 1e-9);
        assert_eq!(row[8], 2.0);
        assert_eq!(row[1], 0.0);
    }

    #[test]
    fn recovers_truth_from_ideal_measurements() {
        // Run the sweep on a noiseless device with an ideal meter: the
        // fitted constants must match the simulator's hidden truth.
        use dvfs_microbench::{dataset::table1_settings, Sample};
        use powermon_sim::PowerMon;
        use tk1_sim::Device;
        let mut ds = dvfs_microbench::Dataset::new();
        let mut dev = Device::ideal(1);
        let mut pm = PowerMon::ideal(2);
        for (setting, ty) in table1_settings() {
            dev.set_operating_point(setting);
            for kind in MicrobenchKind::ALL {
                for mb in kind.instances() {
                    let m = pm.measure(&mut dev, mb.kernel());
                    ds.push(Sample {
                        kind: Some(kind.name().into()),
                        intensity: Some(mb.intensity),
                        ops: mb.kernel().ops,
                        setting,
                        setting_type: ty,
                        time_s: m.execution.duration_s,
                        energy_j: m.measured_energy_j,
                    });
                }
            }
        }
        let report = fit_model(ds.training());
        let truth = tk1_sim::TruthConstants::ideal();
        // Classes the suite exercises directly must be recovered tightly.
        for class in [OpClass::FlopSp, OpClass::FlopDp, OpClass::Int, OpClass::Dram] {
            let got = report.model.c0_pj_per_v2[class.index()];
            let want = truth.c0_pj_per_v2[class.index()];
            let rel = (got - want).abs() / want;
            assert!(rel < 0.05, "{class:?}: {got:.2} vs {want:.2} ({rel:.3})");
        }
        assert!(report.train_rms_rel < 0.02, "rms {:.4}", report.train_rms_rel);
    }

    #[test]
    fn noisy_fit_is_close_and_nonnegative() {
        let ds = sweep(1);
        let report = fit_model(ds.training());
        for &c in &report.model.c0_pj_per_v2 {
            assert!(c >= 0.0);
        }
        assert!(report.model.c1_proc_w_per_v >= 0.0);
        assert!(report.model.c1_mem_w_per_v >= 0.0);
        assert!(report.model.p_misc_w >= 0.0);
        // Recovered SP cost within ~15% of truth despite noise and the
        // activity nonlinearity.
        let truth = tk1_sim::TruthConstants::default();
        let rel =
            (report.model.c0_pj_per_v2[0] - truth.c0_pj_per_v2[0]).abs() / truth.c0_pj_per_v2[0];
        assert!(rel < 0.15, "SP ĉ0 off by {rel:.3}");
        assert!(report.train_rms_rel < 0.08, "rms {:.4}", report.train_rms_rel);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn too_few_samples_rejected() {
        let ds = dvfs_microbench::Dataset::new();
        let _ = fit_model(ds.training());
    }

    #[test]
    fn too_few_samples_is_an_error_on_the_fallible_path() {
        let ds = dvfs_microbench::Dataset::new();
        match try_fit_model(ds.training()) {
            Err(compat::error::PipelineError::InsufficientData { needed, got, .. }) => {
                assert_eq!(needed, NUM_COLUMNS);
                assert_eq!(got, 0);
            }
            other => panic!("expected InsufficientData, got {other:?}"),
        }
    }

    #[test]
    fn clean_fit_is_bitwise_unchanged_by_the_ladder() {
        let ds = sweep(1);
        let plain = fit_model(ds.training());
        let laddered = try_fit_model_with(ds.training(), &FitOptions::default()).unwrap();
        assert!(!laddered.diagnostics.degraded(), "{:?}", laddered.diagnostics);
        for k in 0..tk1_sim::NUM_OP_CLASSES {
            assert_eq!(
                plain.model.c0_pj_per_v2[k].to_bits(),
                laddered.model.c0_pj_per_v2[k].to_bits()
            );
        }
        assert_eq!(plain.model.p_misc_w.to_bits(), laddered.model.p_misc_w.to_bits());
        assert_eq!(plain.train_rms_rel.to_bits(), laddered.train_rms_rel.to_bits());
    }

    #[test]
    fn unexcited_columns_are_dropped_and_reported() {
        // A single-family sweep excites only the L2 and time columns;
        // the ladder must drop the rest, report them, and still fit.
        let ds = run_sweep(&SweepConfig {
            kinds: vec![MicrobenchKind::L2],
            faults: None,
            ..SweepConfig::default()
        });
        let report = try_fit_model(ds.training()).unwrap();
        assert!(report.diagnostics.degraded());
        assert!(report.diagnostics.condition_estimate > 1e10);
        assert!(!report.diagnostics.dropped_columns.is_empty());
        for &j in &report.diagnostics.dropped_columns {
            assert!(j != 4 && j != 8, "excited columns must survive: dropped {j}");
        }
        // Dropped columns must be reported with zero coefficients.
        for &j in &report.diagnostics.dropped_columns {
            if j < 6 {
                let class_coeffs = &report.model.c0_pj_per_v2;
                let val = match j {
                    0 => class_coeffs[OpClass::FlopSp.index()],
                    1 => class_coeffs[OpClass::FlopDp.index()],
                    2 => class_coeffs[OpClass::Int.index()],
                    3 => class_coeffs[OpClass::Shared.index()],
                    5 => class_coeffs[OpClass::Dram.index()],
                    _ => 0.0,
                };
                assert_eq!(val, 0.0, "dropped column {j} must fit to zero");
            }
        }
        assert!(report.train_rms_rel < 0.10, "rms {:.4}", report.train_rms_rel);
    }

    #[test]
    fn row_outlier_rejection_recovers_a_corrupted_training_set() {
        let ds = sweep(1);
        let mut corrupted: Vec<dvfs_microbench::Sample> = ds.training().cloned().collect();
        // Corrupt ~8% of rows with gross energy errors (spikes a gated
        // sweep could only partially absorb).
        let mut n_corrupted = 0;
        for (i, s) in corrupted.iter_mut().enumerate() {
            if i % 13 == 5 {
                s.energy_j *= 4.0;
                n_corrupted += 1;
            }
        }
        let naive = try_fit_model(corrupted.iter()).unwrap();
        let robust = try_fit_model_with(
            corrupted.iter(),
            &FitOptions { reject_row_outliers: true, ..FitOptions::default() },
        )
        .unwrap();
        // The screen must find (at least) the corrupted rows, and not
        // reject wholesale.
        assert!(robust.diagnostics.rows_rejected >= n_corrupted, "{:?}", robust.diagnostics);
        assert!(robust.diagnostics.rows_rejected < corrupted.len() / 4);
        // The meaningful comparison: held-out prediction quality on the
        // *clean* validation split.
        let holdout_err = |m: &crate::model::EnergyModel| {
            let errs: Vec<f64> = ds
                .validation()
                .map(|s| crate::stats::relative_error(predict(m, s), s.energy_j))
                .collect();
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let naive_err = holdout_err(&naive.model);
        let robust_err = holdout_err(&robust.model);
        assert!(
            robust_err < naive_err,
            "robust holdout {:.4} must beat naive {:.4}",
            robust_err,
            naive_err
        );
        assert!(robust_err < 0.08, "robust holdout error {:.4}", robust_err);
    }
}
