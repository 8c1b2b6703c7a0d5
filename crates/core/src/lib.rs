//! The DVFS-aware energy roofline model (the paper's contribution).
//!
//! The model (paper equation 9) says that a program executing operation
//! counts `W_k` (per compute class) and `Q_l` (per memory level) in time
//! `T` at a DVFS setting with processor voltage `V_proc` and memory
//! voltage `V_mem` consumes
//!
//! ```text
//! E = Σ_k W_k·ĉ0,k·V_proc² + Σ_l Q_l·ĉ0,l·V(l)²
//!     + (c1,proc·V_proc + c1,mem·V_mem + P_misc) · T
//! ```
//!
//! where `V(l)` is the memory voltage for DRAM traffic and the processor
//! voltage for the on-chip levels.  The constants are *estimated* from
//! microbenchmark measurements by non-negative least squares
//! (Section II-C), validated by cross-validation (II-D), and then used to
//! autotune DVFS settings for energy (II-E) and to analyze where a real
//! application — the fast multipole method — spends its energy
//! (Section IV).
//!
//! Crate layout:
//!
//! * [`model`] — the fitted model and its predictions/breakdowns.
//! * [`fit`] — design-matrix construction + NNLS estimation.
//! * [`crossval`] — the paper's 2-fold (train/validation) and
//!   leave-one-setting-out cross-validations.
//! * [`autotune`] — model-based energy autotuning vs. the race-to-halt
//!   "time oracle" (Table II).
//! * [`breakdown`] — instruction/data/constant-power energy decomposition
//!   (Figures 6 and 7).
//! * [`whatif`] — the prefetch what-if analysis sketched in the paper's
//!   conclusion.
//! * [`service`] — request-shaped fit/predict entry points consumed by
//!   the autotune server (`crates/autoserve`).
//! * [`stats`] — relative-error statistics shared by all reports.
//! * [`experiments`] — the S1–S8 / F1–F8 experiment matrix of Table IV.

pub mod ablation;
pub mod autotune;
pub mod bootstrap;
pub mod breakdown;
pub mod crossval;
pub mod experiments;
pub mod fit;
pub mod model;
pub mod roofline;
pub mod service;
pub mod stats;
pub mod transfer;
pub mod whatif;

pub use ablation::{model_structure_ablation, AblationRow, FittedPredictor, ModelStructure};
pub use autotune::{
    autotune_microbenchmarks, autotune_microbenchmarks_on, AutotuneOutcome, StrategyResult,
};
pub use bootstrap::{bootstrap_fit, BootstrapReport, Interval};
pub use breakdown::{BreakdownReport, EnergyShare};
pub use crossval::{holdout_validation, leave_one_setting_out, ValidationReport};
pub use fit::{
    fit_model, predict_on, try_fit_model, try_fit_model_with, FitDiagnostics, FitOptions, FitPrior,
    FitReport,
};
pub use model::{EnergyModel, ModelBreakdown};
pub use roofline::EnergyRoofline;
pub use service::{
    best_index, conservative_grid, predict_grid, service_grid, service_grid_for,
    try_fit_from_sweep, GridPrediction, ModelFit,
};
pub use stats::ErrorStats;
pub use transfer::{
    fitted_sibling_model, transfer_report, TransferPoint, TransferReport, DEFAULT_PRIOR_WEIGHT,
};
pub use whatif::{prefetch_whatif, PrefetchScenario, PrefetchVerdict};
