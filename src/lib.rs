//! # fmm-energy
//!
//! A reproduction of *"Analyzing the Energy Efficiency of the Fast
//! Multipole Method Using a DVFS-Aware Energy Model"* (Choi & Vuduc,
//! IPDPS 2016) as a Rust workspace: the DVFS-aware energy roofline
//! model, the microbenchmark-based fitting methodology, the energy
//! autotuner, and the kernel-independent FMM proxy application — plus
//! simulated equivalents of the hardware the paper measured (a Jetson
//! TK1 board and a PowerMon 2 power meter).
//!
//! This crate is a facade: it re-exports the public APIs of the
//! workspace crates under stable module names.
//!
//! ## Quickstart
//!
//! ```
//! use fmm_energy::prelude::*;
//!
//! // 1. Collect microbenchmark measurements on the simulated board.
//! let mut config = SweepConfig::default();
//! config.kinds = vec![MicrobenchKind::SinglePrecision];
//! let dataset = run_sweep(&config);
//!
//! // 2. Fit the DVFS-aware energy model by NNLS.
//! let report = fit_model(dataset.training());
//!
//! // 3. Predict the energy of an arbitrary kernel at a DVFS setting.
//! let ops = OpVector::from_pairs(&[(OpClass::FlopSp, 1e9), (OpClass::Dram, 1e7)]);
//! let setting = Setting::max_performance();
//! let joules = report.model.predict_energy_j(&ops, setting, 0.01);
//! assert!(joules > 0.0);
//! ```
//!
//! See `examples/` for complete scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

/// The DVFS-aware energy roofline model: fitting, cross-validation,
/// autotuning, breakdowns, and the prefetch what-if calculator.
pub use dvfs_energy_model as model;

/// The kernel-independent FMM: octree, interaction lists, translation
/// operators, FFT M2L, evaluator, and the nvprof-style profiler.
pub use kifmm as fmm;

/// The simulated Jetson TK1 platform (DVFS tables, timing and power
/// ground truth, kernel execution).
pub use tk1_sim as platform;

/// The simulated PowerMon 2 power meter.
pub use powermon_sim as powermon;

/// The online phase-aware DVFS governor runtime: pluggable policies,
/// the transition-cost model, and the FMM phase-boundary driver.
pub use dvfs_governor as governor;

/// The intensity microbenchmark suite and sweep driver.
pub use dvfs_microbench as microbench;

/// Energy-tuning-as-a-service: the sharded, batching autotune server
/// with per-device model caching and explicit backpressure.
pub use dvfs_autoserve as autoserve;

/// The streaming FMM workload subsystem: incremental octree updates,
/// bursty mixed-size traffic, and multi-tenant DVFS arbitration.
pub use dvfs_stream as stream;

/// nvprof-style counters and the cache-hierarchy simulator.
pub use gpu_counters as counters;

/// Dense linear algebra (QR, SVD, Cholesky, NNLS).
pub use dvfs_linalg as linalg;

/// FFTs and spectral convolution.
pub use dvfs_fft as fft;

/// The most common imports in one place.
pub mod prelude {
    pub use dvfs_autoserve::{
        AutoServer, Rejected, ServeConfig, TuneRequest, TuneResponse, WorkloadSpec,
    };
    pub use dvfs_energy_model::{
        autotune_microbenchmarks, fit_model, holdout_validation, leave_one_setting_out,
        prefetch_whatif, BreakdownReport, EnergyModel, EnergyRoofline, ErrorStats,
        PrefetchScenario,
    };
    pub use dvfs_governor::{
        governed_evaluate, GovernorRuntime, PerPhaseAdaptive, PerPhaseModel, Policy, StaticBest,
        Workload,
    };
    pub use dvfs_microbench::{
        from_csv, run_sweep, to_csv, Dataset, MicrobenchKind, Sample, SweepConfig,
    };
    pub use kifmm::evaluator::{FmmPlan, M2lMethod};
    pub use kifmm::{
        direct_sum, direct_sum_with, profile_plan, relative_l2_error, CostModel, FmmEvaluator,
        Kernel, LaplaceKernel, Phase, YukawaKernel,
    };
    pub use powermon_sim::PowerMon;
    pub use tk1_sim::{Device, KernelProfile, OpClass, OpVector, Setting};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let device = Device::new(1);
        assert!(device.idle_power_w() > 0.0);
        let setting = Setting::max_performance();
        assert_eq!(setting.label(), "852/924");
    }
}
