//! The end-to-end experiment pipeline.
//!
//! Everything here composes the crates below it exactly the way the
//! paper's methodology composes the physical pieces: microbenchmark
//! sweep → NNLS fit → cross-validation → autotuning → FMM profiling →
//! FMM energy validation and breakdowns.

use compat::error::PipelineResult;
use compat::rng::StdRng;
use dvfs_energy_model::experiments::{FmmInput, FMM_INPUTS, SYSTEM_SETTINGS};
use dvfs_energy_model::{
    autotune_microbenchmarks, AutotuneOutcome, BreakdownReport, EnergyModel, ErrorStats,
    FitDiagnostics,
};
use dvfs_microbench::{Dataset, MicrobenchKind, SweepConfig, SweepStats};
use kifmm::evaluator::M2lMethod;
use kifmm::{profile_shape, CostModel, FmmProfile, InteractionLists, Octree};
use powermon_sim::PowerMon;
use tk1_sim::{Device, OpClass, OpVector, Setting};

/// A fitted front-end of the pipeline: the model plus everything the
/// hardened sweep and fit reported along the way.
#[derive(Debug, Clone)]
pub struct PipelineFit {
    /// The fitted energy model.
    pub model: EnergyModel,
    /// The sweep dataset the model was trained on.
    pub dataset: Dataset,
    /// Retry/cooldown accounting from the measurement campaign.
    pub sweep_stats: SweepStats,
    /// Degradation diagnostics of the NNLS fit.
    pub fit_diagnostics: FitDiagnostics,
}

/// Runs the microbenchmark sweep and fits the model on the training
/// split (the paper's Section II-C instantiation).
///
/// Fault injection follows `FMM_ENERGY_FAULTS` through
/// [`SweepConfig::default`]; a fault-free run is bitwise identical to
/// the unhardened pipeline.
pub fn fitted_model(seed: u64) -> (EnergyModel, Dataset) {
    let fit = try_fitted_model(&SweepConfig { seed, ..SweepConfig::default() })
        .expect("sweep+fit pipeline survives the configured fault rates");
    (fit.model, fit.dataset)
}

/// Fallible sweep + fit under an explicit config.
///
/// When fault injection is active, the fit additionally enables robust
/// row-outlier rejection so corrupted measurements that slipped past the
/// sweep's sanity gates are still down-weighted instead of biasing the
/// model constants.
pub fn try_fitted_model(config: &SweepConfig) -> PipelineResult<PipelineFit> {
    let fit = dvfs_energy_model::try_fit_from_sweep(config)?;
    Ok(PipelineFit {
        model: fit.model,
        dataset: fit.dataset,
        sweep_stats: fit.sweep_stats,
        fit_diagnostics: fit.diagnostics,
    })
}

/// One reproduced row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// "T" or "V".
    pub setting_type: &'static str,
    /// The DVFS setting.
    pub setting: Setting,
    /// Derived per-op energies `(SP, DP, Int, SM, L2, Mem)` in pJ and the
    /// constant power in W, from the fitted model.
    pub measured: (f64, f64, f64, f64, f64, f64, f64),
    /// The paper's corresponding values.
    pub paper: (f64, f64, f64, f64, f64, f64, f64),
}

/// Reproduces Table I: the fitted model's derived energy/power columns
/// for the paper's 16 settings.
pub fn table1_rows(model: &EnergyModel) -> Vec<Table1Row> {
    crate::paper::TABLE1
        .iter()
        .map(|&(ty, core, _cmv, mem, _mmv, sp, dp, int, sm, l2, dram, pi0)| {
            let setting = Setting::from_frequencies(core, mem).expect("Table I setting exists");
            Table1Row {
                setting_type: if ty == "T" { "T" } else { "V" },
                setting,
                measured: model.table1_row(setting),
                paper: (sp, dp, int, sm, l2, dram, pi0),
            }
        })
        .collect()
}

/// Reproduces Table II over all five benchmark families.
pub fn table2_outcomes(model: &EnergyModel, seed: u64) -> Vec<AutotuneOutcome> {
    autotune_microbenchmarks(
        model,
        &[
            MicrobenchKind::SinglePrecision,
            MicrobenchKind::DoublePrecision,
            MicrobenchKind::Integer,
            MicrobenchKind::SharedMemory,
            MicrobenchKind::L2,
        ],
        seed,
    )
}

/// Profiles the FMM for each Table IV input from its tree and lists
/// (the pipeline never evaluates these inputs, so no plan is built).
///
/// `scale_shift` right-shifts every `N` (keeping `Q`) so tests can run
/// the identical pipeline at a fraction of the paper's sizes; pass 0 for
/// the paper-scale F1–F8.
pub fn fmm_profiles(scale_shift: u32, seed: u64) -> Vec<(FmmInput, FmmProfile)> {
    FMM_INPUTS
        .iter()
        .map(|&input| {
            let n = (input.n >> scale_shift).max(1024);
            let mut rng = StdRng::seed_from_u64(seed ^ (n as u64).rotate_left(13) ^ input.q as u64);
            let pts: Vec<[f64; 3]> =
                (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
            let den: Vec<f64> = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
            let tree = Octree::build(&pts, &den, input.q);
            let lists = InteractionLists::build(&tree);
            let profile = profile_shape(&tree, &lists, 4, M2lMethod::Fft, &CostModel::default());
            (input, profile)
        })
        .collect()
}

/// One of the 64 Figure 5 validation cases.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// System setting id ("S1".."S8").
    pub s_id: &'static str,
    /// FMM input id ("F1".."F8").
    pub f_id: &'static str,
    /// The DVFS setting.
    pub setting: Setting,
    /// Total operation counts of the FMM run.
    pub ops: OpVector,
    /// Measured execution time, s.
    pub time_s: f64,
    /// PowerMon-measured energy, J.
    pub measured_j: f64,
    /// Model-predicted energy, J.
    pub predicted_j: f64,
}

impl CaseResult {
    /// Relative prediction error (fraction).
    pub fn error(&self) -> f64 {
        (self.predicted_j - self.measured_j).abs() / self.measured_j
    }
}

/// Reproduces Figure 5: predicted vs measured FMM energy over the
/// 8 settings × 8 inputs matrix.
pub fn fig5_validation(
    model: &EnergyModel,
    profiles: &[(FmmInput, FmmProfile)],
    seed: u64,
) -> (Vec<CaseResult>, ErrorStats) {
    let mut cases = Vec::new();
    let mut device = Device::new(seed ^ 0xF165);
    let mut meter = PowerMon::new(seed ^ 0x9EA5);
    for (input, profile) in profiles {
        let kernels = profile.kernels();
        let ops = profile.total_ops();
        for sys in SYSTEM_SETTINGS {
            let setting = sys.setting();
            device.set_operating_point(setting);
            let mut time_s = 0.0;
            let mut measured_j = 0.0;
            for k in &kernels {
                let m = meter.measure(&mut device, k);
                time_s += m.execution.duration_s;
                measured_j += m.measured_energy_j;
            }
            let predicted_j = model.predict_energy_j(&ops, setting, time_s);
            cases.push(CaseResult {
                s_id: sys.id,
                f_id: input.id,
                setting,
                ops,
                time_s,
                measured_j,
                predicted_j,
            });
        }
    }
    let errors: Vec<f64> = cases.iter().map(|c| c.error()).collect();
    let stats = ErrorStats::from_relative_errors(&errors);
    (cases, stats)
}

/// Figure 4 data for one FMM input: instruction-mix and per-level byte
/// shares (fractions).
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// FMM input id.
    pub f_id: &'static str,
    /// `(DP share, integer share)` of compute instructions.
    pub instruction_shares: (f64, f64),
    /// `(SM, L1, L2, DRAM)` shares of bytes accessed.
    pub byte_shares: (f64, f64, f64, f64),
}

/// Reproduces Figure 4 from the profiles.
pub fn fig4_breakdown(profiles: &[(FmmInput, FmmProfile)]) -> Vec<Fig4Row> {
    profiles
        .iter()
        .map(|(input, profile)| {
            let ops = profile.total_ops();
            let compute = ops.total_compute().max(f64::MIN_POSITIVE);
            let bytes = ops.total_bytes().max(f64::MIN_POSITIVE);
            Fig4Row {
                f_id: input.id,
                instruction_shares: (
                    ops.get(OpClass::FlopDp) / compute,
                    ops.get(OpClass::Int) / compute,
                ),
                byte_shares: (
                    ops.bytes(OpClass::Shared) / bytes,
                    ops.bytes(OpClass::L1) / bytes,
                    ops.bytes(OpClass::L2) / bytes,
                    ops.bytes(OpClass::Dram) / bytes,
                ),
            }
        })
        .collect()
}

/// Reproduces Figure 6: per-class energy breakdown at maximum frequency
/// (S1) for each FMM input.  Returns `(f_id, BreakdownReport)`.
pub fn fig6_energy_breakdown(
    model: &EnergyModel,
    profiles: &[(FmmInput, FmmProfile)],
    seed: u64,
) -> Vec<(&'static str, BreakdownReport)> {
    let s1 = SYSTEM_SETTINGS[0].setting();
    let mut device = Device::new(seed ^ 0xF166);
    device.set_operating_point(s1);
    profiles
        .iter()
        .map(|(input, profile)| {
            let time_s: f64 = profile.kernels().iter().map(|k| device.execute(k).duration_s).sum();
            (input.id, BreakdownReport::new(model, &profile.total_ops(), s1, time_s))
        })
        .collect()
}

/// One Figure 7 bar: computation/data/constant-power shares for a case.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Case label ("S1/F1" style).
    pub label: String,
    /// Computation share of total energy.
    pub computation: f64,
    /// Data-movement share.
    pub data: f64,
    /// Constant-power share.
    pub constant: f64,
}

/// Reproduces Figure 7 from the Figure 5 cases.
pub fn fig7_buckets(model: &EnergyModel, cases: &[CaseResult]) -> Vec<Fig7Row> {
    cases
        .iter()
        .map(|c| {
            let r = BreakdownReport::new(model, &c.ops, c.setting, c.time_s);
            Fig7Row {
                label: format!("{}/{}", c.s_id, c.f_id),
                computation: r.buckets[0].share,
                data: r.buckets[1].share,
                constant: r.buckets[2].share,
            }
        })
        .collect()
}

/// The Section IV-C observations, measured.
#[derive(Debug, Clone)]
pub struct ObservationSummary {
    /// Integer share of compute instructions (paper: ≈ 0.60).
    pub integer_instruction_share: f64,
    /// Integer share of compute energy (paper: ≈ 0.23).
    pub integer_energy_share: f64,
    /// DRAM share of memory accesses (paper: ≈ 0.13).
    pub dram_access_share: f64,
    /// DRAM share of data energy (paper: up to ≈ 0.50).
    pub dram_energy_share: f64,
    /// Min/max constant-power share over the 64 FMM cases (paper:
    /// 0.75–0.95).
    pub fmm_constant_share_range: (f64, f64),
    /// Constant-power share of the most intense SP microbenchmark at S1
    /// (paper: ≈ 0.30).
    pub microbench_constant_share: f64,
    /// Whether the FMM's best-energy setting equals its best-time
    /// setting (the paper's race-to-halt-is-fine-for-FMM conclusion).
    pub fmm_best_energy_is_best_time: bool,
}

/// Measures every Section IV-C observation.
pub fn observations(
    model: &EnergyModel,
    profiles: &[(FmmInput, FmmProfile)],
    cases: &[CaseResult],
    seed: u64,
) -> ObservationSummary {
    // Instruction/energy shares from F1 at S1.
    let (_, f1) = &profiles[0];
    let ops = f1.total_ops();
    let s1 = SYSTEM_SETTINGS[0].setting();
    let case_s1f1 = cases.iter().find(|c| c.s_id == "S1" && c.f_id == "F1").expect("S1/F1 present");
    let report = BreakdownReport::new(model, &ops, s1, case_s1f1.time_s);
    let integer_instruction_share = ops.get(OpClass::Int) / ops.total_compute();
    let integer_energy_share = report.integer_share_of_compute();
    let dram_access_share = ops.get(OpClass::Dram) / ops.total_memory_ops();
    let dram_energy_share = report.dram_share_of_data();

    // Constant-power share range over all 64 cases.
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for c in cases {
        let share = BreakdownReport::new(model, &c.ops, c.setting, c.time_s).constant_share();
        lo = lo.min(share);
        hi = hi.max(share);
    }

    // Microbenchmark contrast: the most intense SP point at S1.
    let sp = MicrobenchKind::SinglePrecision;
    let top = sp.instance(*sp.intensities().last().expect("non-empty"));
    let mut device = Device::new(seed ^ 0x0B5);
    device.set_operating_point(s1);
    let exec = device.execute(top.kernel());
    let micro_share =
        BreakdownReport::new(model, &top.kernel().ops, s1, exec.duration_s).constant_share();

    // Best-energy vs best-time over all 105 settings for F1.  As in the
    // paper, this is the *model's* verdict: the model predicts energy at
    // every setting (using the measured time there); the claim holds if
    // the predicted-best-energy setting is also a fastest setting (within
    // run-to-run jitter — many settings tie on time when another resource
    // is the bottleneck).
    let kernels = f1.kernels();
    let mut meter = PowerMon::new(seed ^ 0x0B6);
    let mut rows: Vec<(Setting, f64, f64)> = Vec::new();
    for setting in Setting::all() {
        device.set_operating_point(setting);
        let mut t = 0.0;
        for k in &kernels {
            let m = meter.measure(&mut device, k);
            t += m.execution.duration_s;
        }
        let predicted = model.predict_energy_j(&ops, setting, t);
        rows.push((setting, t, predicted));
    }
    // `total_cmp` keeps the argmins total even if a degraded fit ever
    // yields a NaN prediction (NaN sorts last, so it can't be picked).
    let best_energy = rows.iter().min_by(|a, b| a.2.total_cmp(&b.2)).expect("non-empty");
    let t_min = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    // The operational form of the paper's claim: the best-energy setting
    // is (within jitter) also a fastest setting — or, equivalently,
    // racing to halt forfeits almost no energy because constant power
    // dominates.  Accept either signature: the argmin-energy setting ties
    // the fastest on time, or the fastest setting's predicted energy is
    // within a few percent of the optimum.
    let fastest = rows.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty");
    let fmm_best_energy_is_best_time =
        best_energy.1 <= t_min * 1.02 || fastest.2 <= best_energy.2 * 1.05;

    ObservationSummary {
        integer_instruction_share,
        integer_energy_share,
        dram_access_share,
        dram_energy_share,
        fmm_constant_share_range: (lo, hi),
        microbench_constant_share: micro_share,
        fmm_best_energy_is_best_time,
    }
}

/// One point of the utilization ablation (experiment A1 in DESIGN.md).
#[derive(Debug, Clone)]
pub struct MicrobenchAblationPoint {
    /// Kernel utilization.
    pub utilization: f64,
    /// Constant-power share of total energy at the best-energy setting.
    pub constant_share: f64,
    /// Energy the race-to-halt pick loses vs the true optimum (fraction).
    pub race_to_halt_loss: f64,
}

/// Sweeps utilization for a fixed high-intensity kernel and measures how
/// the race-to-halt penalty shrinks as constant power comes to dominate —
/// the paper's Section IV-C hypothesis, isolated.
pub fn utilization_ablation(model: &EnergyModel, seed: u64) -> Vec<MicrobenchAblationPoint> {
    let settings: Vec<Setting> = Setting::all().collect();
    let base = MicrobenchKind::SinglePrecision.instance(64.0);
    [1.0, 0.7, 0.5, 0.35, 0.25, 0.15, 0.08]
        .iter()
        .map(|&util| {
            let kernel = base.kernel().clone().with_utilization(util);
            let mut device = Device::new(seed ^ (util * 1e6) as u64);
            let mut meter = PowerMon::new(seed ^ 0xAB1);
            let mut energies = Vec::new();
            let mut times = Vec::new();
            for &s in &settings {
                device.set_operating_point(s);
                let m = meter.measure(&mut device, &kernel);
                times.push(m.execution.duration_s);
                energies.push(m.measured_energy_j);
            }
            let best = argmin(&energies);
            // Race-to-halt: fastest (ties toward max clocks).
            let tmin = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let race = (0..settings.len())
                .filter(|&i| times[i] <= tmin * 1.01)
                .max_by_key(|&i| (settings[i].core_idx, settings[i].mem_idx))
                .expect("non-empty");
            let share = {
                let s = settings[best];
                let t = times[best];
                BreakdownReport::new(model, &kernel.ops, s, t).constant_share()
            };
            MicrobenchAblationPoint {
                utilization: util,
                constant_share: share,
                race_to_halt_loss: energies[race] / energies[best] - 1.0,
            }
        })
        .collect()
}

/// Scans the prefetch what-if (experiment A3): for each unused-data
/// fraction, the break-even slowdown below which disabling prefetch
/// saves energy.  Returns `(unused_fraction, breakeven_slowdown)`.
pub fn prefetch_scan(model: &EnergyModel, profile: &FmmProfile, time_s: f64) -> Vec<(f64, f64)> {
    let s1 = SYSTEM_SETTINGS[0].setting();
    [0.05, 0.1, 0.2, 0.3, 0.5]
        .iter()
        .map(|&unused| {
            let scenario = dvfs_energy_model::PrefetchScenario {
                ops: profile.total_ops(),
                time_s,
                unused_fraction: unused,
                slowdown: 1.0,
            };
            let verdict = dvfs_energy_model::prefetch_whatif(model, &scenario, s1);
            (unused, verdict.breakeven_slowdown)
        })
        .collect()
}

fn argmin(values: &[f64]) -> usize {
    values.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).expect("non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared model for the cheaper tests, pinned fault-free so the
    /// paper-band assertions stay deterministic even when the suite runs
    /// under `FMM_ENERGY_FAULTS`.
    fn model() -> EnergyModel {
        let cfg = SweepConfig { seed: 0xBEEF, faults: None, ..SweepConfig::default() };
        try_fitted_model(&cfg).expect("clean pipeline").model
    }

    #[test]
    fn faulted_pipeline_fits_and_reports_its_bookkeeping() {
        use dvfs_microbench::dataset::table1_settings;
        use tk1_sim::faults::FaultConfig;
        let cfg = SweepConfig {
            settings: table1_settings(),
            kinds: vec![MicrobenchKind::SinglePrecision, MicrobenchKind::L2],
            trials: 1,
            seed: 0xFA17,
            faults: Some(FaultConfig::default_campaign()),
            device: tk1_sim::catalog::tk1(),
        };
        let fit = try_fitted_model(&cfg).expect("default fault rates are survivable");
        assert_eq!(fit.dataset.len(), cfg.sample_count());
        assert!(fit.sweep_stats.total_retries() > 0, "default rates must trip some gate");
        assert!(fit.model.p_misc_w.is_finite());
        // Two families can't excite every design column, so this fit
        // also exercises the degradation ladder: the unexcited columns
        // must be dropped and reported, not silently mis-fit.
        assert!(fit.fit_diagnostics.condition_estimate >= 1.0);
        assert!(!fit.fit_diagnostics.dropped_columns.is_empty());
        assert!(fit.fit_diagnostics.degraded());
    }

    #[test]
    fn table1_measured_tracks_paper() {
        let m = model();
        let rows = table1_rows(&m);
        assert_eq!(rows.len(), 16);
        for row in &rows {
            // SP energy within ~18% of the paper's column (the structural
            // misspecifications — thermal feedback, activity nonlinearity
            // — bias the dynamic coefficients upward by ~10%; see
            // EXPERIMENTS.md).
            let rel = (row.measured.0 - row.paper.0).abs() / row.paper.0;
            assert!(
                rel < 0.18,
                "{}: SP {:.1} vs {:.1}",
                row.setting.label(),
                row.measured.0,
                row.paper.0
            );
            // Constant power within 10%.
            let rel = (row.measured.6 - row.paper.6).abs() / row.paper.6;
            assert!(
                rel < 0.10,
                "{}: π0 {:.2} vs {:.2}",
                row.setting.label(),
                row.measured.6,
                row.paper.6
            );
        }
    }

    #[test]
    fn fig5_errors_in_paper_band() {
        let m = model();
        let profiles = fmm_profiles(4, 7); // 1/16th scale keeps the test quick
        let (cases, stats) = fig5_validation(&m, &profiles, 11);
        assert_eq!(cases.len(), 64);
        // Paper: mean 6.17% (max 14.89%).  Same order of magnitude here.
        assert!(stats.mean_pct < 12.0, "{}", stats.summary());
        assert!(stats.max_pct < 30.0, "{}", stats.summary());
    }

    #[test]
    fn fig7_constant_power_dominates_fmm() {
        let m = model();
        let profiles = fmm_profiles(4, 7);
        let (cases, _) = fig5_validation(&m, &profiles, 11);
        let rows = fig7_buckets(&m, &cases);
        for r in &rows {
            assert!(
                r.constant > 0.55,
                "{}: constant share {:.2} should dominate",
                r.label,
                r.constant
            );
            assert!((r.computation + r.data + r.constant - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn utilization_ablation_is_monotone_in_spirit() {
        let m = model();
        let points = utilization_ablation(&m, 3);
        // Constant share grows as utilization falls...
        assert!(points.last().unwrap().constant_share > points[0].constant_share);
        // ...and the race-to-halt penalty shrinks to (near) nothing.
        assert!(points[0].race_to_halt_loss > points.last().unwrap().race_to_halt_loss);
        assert!(points.last().unwrap().race_to_halt_loss < 0.02);
    }
}
