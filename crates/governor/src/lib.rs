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
