//! Online phase-aware DVFS governor for the FMM.
//!
//! The paper's autotuner (Section II-E, Table II) picks ONE static
//! `(f_core, f_mem)` setting for an entire run.  Its own breakdowns
//! (Figs. 4/6/7) show why that leaves energy on the table: the FMM's
//! phases have wildly different operation mixes — U/X are flop-dense, V
//! is FFT/memory-bound — and constant power is 75–95% of total energy,
//! exactly the regime where matching the operating point to each phase
//! beats both a static pick and race-to-halt.  This crate closes that
//! loop at (simulated) runtime:
//!
//! * [`transition`] — the DVFS transition-cost model: per-domain latch
//!   latencies plus the energy burned while latching, with the idle
//!   power at every operating point *calibrated* from the simulated
//!   device (surviving latch-failure faults via verify-and-retry).
//! * [`policy`] — the pluggable [`Policy`] trait and its
//!   implementations: [`FixedSetting`], [`StaticBest`] (the paper's
//!   Table II strategy), [`RaceToHalt`], [`OnDemand`] (a Linux
//!   `ondemand`-style load follower), [`PerPhaseModel`] (per-phase
//!   argmin of the fitted model's predicted energy, transition costs
//!   included), [`PerPhaseAdaptive`] (the model policy plus an online
//!   exponentially-weighted bias estimator fed by `powermon`
//!   measurements, with switching hysteresis), and the ground-truth
//!   [`Oracle`] scorer.
//! * [`runtime`] — [`GovernorRuntime`]: owns the simulated device,
//!   power meter and transition model; latches each phase's chosen
//!   setting (bounded verify-and-retry under latch faults), executes
//!   and measures the phase kernel, feeds the measurement back to the
//!   policy, and accounts every joule — including transition energy —
//!   in a [`GovernorReport`].
//! * [`hook`] — [`PhasedDriver`], a [`kifmm::PhaseObserver`] that
//!   drives the governor from a *live* FMM evaluation's phase
//!   boundaries ([`governed_evaluate`]).
//! * [`arbiter`] — multi-tenant arbitration primitives: deterministic
//!   interleavings of several jobs' phase queues ([`merge_queues`]) and
//!   a deadline-aware Viterbi plan over the merged sequence
//!   ([`plan_merged`]), executed through the [`Planned`] policy.
//!
//! Everything is a pure function of seeds, profiles and the roofline
//! timing model — no wall-clock time enters any decision — so every
//! governor run is bitwise reproducible across thread counts.

pub mod arbiter;
pub mod hook;
pub mod policy;
pub mod runtime;
pub mod transition;

pub use arbiter::{
    merge_queues, plan_merged, ArbiterJob, ArbiterPlan, InterleavePolicy, JobOutcome, MergedStage,
};
pub use hook::{governed_evaluate, PhasedDriver};
pub use policy::{
    plan_phase_settings, race_to_halt_plan, FixedSetting, OnDemand, Oracle, PerPhaseAdaptive,
    PerPhaseModel, PhaseContext, PhaseFeedback, PhasePlan, Planned, Policy, Predictor, RaceToHalt,
    RunContext, StaticBest,
};
pub use runtime::{GovernorReport, GovernorRuntime, PhaseRecord, PhaseTask, Workload};
pub use transition::{TransitionCost, TransitionModel};

/// Tunable governor knobs, with `FMM_ENERGY_GOV_*` env overrides.
#[derive(Debug, Clone, Copy)]
pub struct GovernorConfig {
    /// Times the phase sequence is repeated per run.  More rounds give
    /// the adaptive policy more feedback to converge on; every policy
    /// is compared over the same round count.
    pub rounds: usize,
    /// EWMA weight of the newest measured/predicted energy ratio in
    /// [`PerPhaseAdaptive`]'s per-phase bias estimator, in `[0, 1]`.
    pub alpha: f64,
    /// Relative improvement a challenger setting must show over the
    /// incumbent before [`PerPhaseAdaptive`] switches — the hysteresis
    /// that keeps it from thrashing across latch-failure episodes.
    pub hysteresis: f64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig { rounds: 4, alpha: 0.5, hysteresis: 0.03 }
    }
}

impl GovernorConfig {
    /// The defaults, overridden by `FMM_ENERGY_GOV_ROUNDS` (positive
    /// integer), `FMM_ENERGY_GOV_ALPHA` (in `[0, 1]`) and
    /// `FMM_ENERGY_GOV_HYSTERESIS` (in `[0, 0.5]`).  Malformed or
    /// out-of-range values fall back to the defaults (see
    /// [`compat::env`]).
    pub fn from_env() -> Self {
        let d = GovernorConfig::default();
        GovernorConfig {
            rounds: compat::env::positive_usize("FMM_ENERGY_GOV_ROUNDS").unwrap_or(d.rounds),
            alpha: compat::env::float_in("FMM_ENERGY_GOV_ALPHA", 0.0, 1.0).unwrap_or(d.alpha),
            hysteresis: compat::env::float_in("FMM_ENERGY_GOV_HYSTERESIS", 0.0, 0.5)
                .unwrap_or(d.hysteresis),
        }
    }
}
