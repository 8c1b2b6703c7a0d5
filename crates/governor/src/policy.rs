//! The pluggable per-phase DVFS policies.
//!
//! A [`Policy`] is consulted once per phase with a [`PhaseContext`]
//! (the phase's kernel descriptor, the currently-latched setting, the
//! candidate settings, and a [`Predictor`] over the fitted model) and
//! answers with the [`Setting`] to latch for that phase.  After the
//! phase executes, the runtime reports what actually happened through
//! [`Policy::observe`] — the feedback loop [`PerPhaseAdaptive`] closes.
//!
//! All policies are deterministic: scans run in candidate order and
//! ties resolve strictly to the first (lowest-index) minimum, so a
//! policy's decisions are a pure function of its inputs.

use crate::runtime::PhaseTask;
use crate::transition::TransitionModel;
use dvfs_energy_model::EnergyModel;
use kifmm::Phase;
use tk1_sim::timing::TimingModel;
use tk1_sim::{Device, KernelProfile, Setting, TruthConstants};

/// Model-side scoring used by planning policies: predicted phase time
/// from the roofline timing model, predicted phase energy from the
/// fitted [`EnergyModel`], and transition costs from the calibrated
/// [`TransitionModel`].
#[derive(Debug, Clone, Copy)]
pub struct Predictor<'a> {
    /// The fitted energy model.
    pub model: &'a EnergyModel,
    /// The roofline timing model (how phase time scales with clocks).
    pub timing: &'a TimingModel,
    /// The calibrated transition-cost model.
    pub transitions: &'a TransitionModel,
}

impl Predictor<'_> {
    /// Predicted execution time of `kernel` at `setting`, s.
    pub fn phase_time_s(&self, kernel: &KernelProfile, setting: Setting) -> f64 {
        self.timing.execution_time(kernel, setting).total_s
    }

    /// Model-predicted energy of `kernel` at `setting`, J.
    pub fn phase_energy_j(&self, kernel: &KernelProfile, setting: Setting) -> f64 {
        let t = self.phase_time_s(kernel, setting);
        // Resolve the setting against the predictor's own device — the
        // `Setting`-taking model shortcut assumes the TK1 grid and
        // would index out of range on a larger catalog platform.
        let op = self.timing.device().operating_point(setting);
        self.model.predict_energy_at(&kernel.ops, &op, t)
    }

    /// Energy of switching `from → to`, J (0 for the identity).
    pub fn switch_energy_j(&self, from: Setting, to: Setting) -> f64 {
        self.transitions.cost(from, to).energy_j
    }
}

/// Whole-run context handed to [`Policy::begin`] before the first phase.
pub struct RunContext<'a> {
    /// The phase sequence of one round.
    pub tasks: &'a [PhaseTask],
    /// How many rounds the run repeats.
    pub rounds: usize,
    /// The candidate settings policies may choose from.
    pub candidates: &'a [Setting],
    /// The operating point latched when the run starts (the first
    /// phase's transition is paid from here).
    pub start: Setting,
    /// Model-side scoring.
    pub predictor: Predictor<'a>,
}

/// Per-phase context handed to [`Policy::select`].
pub struct PhaseContext<'a> {
    /// The phase about to run.
    pub phase: Phase,
    /// Index of the phase within the round (stable across rounds — the
    /// key adaptive per-phase state is held under).
    pub phase_idx: usize,
    /// The current round.
    pub round: usize,
    /// The phase's kernel descriptor.
    pub kernel: &'a KernelProfile,
    /// The operating point latched right now (staying costs nothing).
    pub current: Setting,
    /// The candidate settings.
    pub candidates: &'a [Setting],
    /// Model-side scoring.
    pub predictor: Predictor<'a>,
}

/// What actually happened to a phase, handed to [`Policy::observe`].
#[derive(Debug, Clone, Copy)]
pub struct PhaseFeedback {
    /// Index of the phase within the round.
    pub phase_idx: usize,
    /// The setting the policy asked for.
    pub requested: Setting,
    /// The setting that actually latched (≠ `requested` only when the
    /// bounded retry gave up during a latch-failure episode).
    pub applied: Setting,
    /// Model-predicted energy at the *applied* setting, J.
    pub predicted_j: f64,
    /// `powermon`-measured energy, J.
    pub measured_j: f64,
    /// Measured duration, s.
    pub measured_s: f64,
}

/// A per-phase DVFS selection policy.
pub trait Policy {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;
    /// Called once before the first phase of a run.
    fn begin(&mut self, _run: &RunContext<'_>) {}
    /// Picks the setting to latch for the phase.
    fn select(&mut self, ctx: &PhaseContext<'_>) -> Setting;
    /// Receives the phase's measurement after it executed.
    fn observe(&mut self, _fb: &PhaseFeedback) {}
}

/// Pins one setting for the whole run (the measurement baseline the
/// per-input "best static" ground truth is built from).
#[derive(Debug, Clone, Copy)]
pub struct FixedSetting(pub Setting);

impl Policy for FixedSetting {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn select(&mut self, _ctx: &PhaseContext<'_>) -> Setting {
        self.0
    }
}

/// The paper's Table II strategy: one static setting for the whole run,
/// chosen up front as the candidate minimizing the model-predicted
/// energy of the full phase sequence.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticBest {
    choice: Option<Setting>,
}

impl StaticBest {
    /// Creates the policy (the pick happens in [`Policy::begin`]).
    pub fn new() -> Self {
        StaticBest::default()
    }
}

impl Policy for StaticBest {
    fn name(&self) -> &'static str {
        "static-best"
    }
    fn begin(&mut self, run: &RunContext<'_>) {
        let mut best: Option<(f64, Setting)> = None;
        for &s in run.candidates {
            let e: f64 = run.tasks.iter().map(|t| run.predictor.phase_energy_j(&t.kernel, s)).sum();
            // Strict `<`: equal predictions keep the earlier candidate,
            // so ties break deterministically to the lowest index.
            if best.map_or(true, |(be, _)| e < be) {
                best = Some((e, s));
            }
        }
        self.choice = best.map(|(_, s)| s);
    }
    fn select(&mut self, ctx: &PhaseContext<'_>) -> Setting {
        self.choice.unwrap_or(ctx.current)
    }
}

/// Race-to-halt doctrine: always the highest clocks on offer.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaceToHalt;

impl Policy for RaceToHalt {
    fn name(&self) -> &'static str {
        "race-to-halt"
    }
    fn select(&mut self, ctx: &PhaseContext<'_>) -> Setting {
        highest(ctx.candidates)
    }
}

/// The highest candidate, by core index then memory index.
fn highest(candidates: &[Setting]) -> Setting {
    candidates
        .iter()
        .copied()
        .max_by_key(|s| (s.core_idx, s.mem_idx))
        .unwrap_or_else(Setting::max_performance)
}

/// The utilization ceiling [`OnDemand`] keeps each clock domain under.
const ONDEMAND_THRESHOLD: f64 = 0.95;

/// A load follower in the style of the Linux `ondemand` governor, one of
/// the system governors the paper's Related Work sets its model-based
/// choice against.
///
/// Per phase it reads the kernel's demand off the roofline timing model
/// at the highest candidate (its busy time, launch overhead excluded),
/// then slows each clock domain as far as it can while that domain's
/// own time stays within the demand over a 95% utilization ceiling —
/// the idealized point a reactive governor converges to after a few
/// sampling periods.  The pick is the lowest candidate (core index
/// first) that meets both domain budgets; on a full frequency grid that
/// is the slowest adequate core clock and the slowest adequate memory
/// clock, chosen independently.  Low achieved utilization reads as
/// idleness, so on the FMM it throttles far more than the model would.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnDemand;

impl Policy for OnDemand {
    fn name(&self) -> &'static str {
        "ondemand"
    }
    fn select(&mut self, ctx: &PhaseContext<'_>) -> Setting {
        let timing = ctx.predictor.timing;
        let at_max = timing.execution_time(ctx.kernel, highest(ctx.candidates));
        let budget = (at_max.total_s - at_max.overhead_s).max(1e-12) / ONDEMAND_THRESHOLD;
        // Core-side times scale with the core clock only and DRAM time
        // with the memory clock only, so each budget tests one domain.
        let keeps_up = |s: Setting| {
            let t = timing.execution_time(ctx.kernel, s);
            t.fp_s.max(t.int_s).max(t.sm_l1_s).max(t.l2_s) <= budget && t.dram_s <= budget
        };
        ctx.candidates
            .iter()
            .copied()
            .filter(|&s| keeps_up(s))
            .min_by_key(|s| (s.core_idx, s.mem_idx))
            .unwrap_or_else(|| highest(ctx.candidates))
    }
}

/// Scores `s` for one phase: predicted phase energy plus the energy of
/// switching there from `current`.  Staying put is always a candidate
/// (its transition is free), so a switch only happens when the model
/// says the phase's savings beat the latch cost.
fn model_score(ctx: &PhaseContext<'_>, bias: f64, s: Setting) -> f64 {
    bias * ctx.predictor.phase_energy_j(ctx.kernel, s)
        + ctx.predictor.switch_energy_j(ctx.current, s)
}

/// Minimum-total-energy plan over a stage sequence: a Viterbi pass over
/// (stage × candidate) states whose edges pay the calibrated transition
/// energy, with `cost(stage, setting)` as the per-stage energy under
/// the caller's beliefs.  Returns one candidate index per stage plus
/// the plan's total.
///
/// Planning over the *whole* sequence is what lets a switch amortize:
/// a greedy per-phase argmin charges the full latch cost against a
/// single phase and locks into its first choice, while the DP pays it
/// once against every remaining repetition.  A constant path is always
/// feasible, so the plan is never predicted-worse than the best static
/// setting.  Relaxations use strict `<` in candidate order and the
/// identity transition is free, so ties resolve deterministically to
/// the lowest candidate index.
pub(crate) fn plan_stages(
    predictor: &Predictor<'_>,
    candidates: &[Setting],
    start: Setting,
    stages: usize,
    mut cost: impl FnMut(usize, Setting) -> f64,
) -> (Vec<usize>, f64) {
    let n = candidates.len();
    if n == 0 || stages == 0 {
        return (Vec::new(), 0.0);
    }
    let mut dp: Vec<f64> =
        candidates.iter().map(|&s| predictor.switch_energy_j(start, s) + cost(0, s)).collect();
    let mut back: Vec<Vec<usize>> = Vec::with_capacity(stages.saturating_sub(1));
    for t in 1..stages {
        let mut next = vec![f64::INFINITY; n];
        let mut prev = vec![0usize; n];
        for (j, &to) in candidates.iter().enumerate() {
            let mut best = f64::INFINITY;
            let mut best_i = 0usize;
            for (i, &from) in candidates.iter().enumerate() {
                let through = dp[i] + predictor.switch_energy_j(from, to);
                if through < best {
                    best = through;
                    best_i = i;
                }
            }
            next[j] = best + cost(t, to);
            prev[j] = best_i;
        }
        dp = next;
        back.push(prev);
    }
    let mut end = 0usize;
    for (i, &v) in dp.iter().enumerate().skip(1) {
        if v < dp[end] {
            end = i;
        }
    }
    let total = dp[end];
    let mut plan = vec![0usize; stages];
    let mut j = end;
    for t in (0..stages).rev() {
        plan[t] = j;
        if t > 0 {
            j = back[t - 1][j];
        }
    }
    (plan, total)
}

/// A computed phase plan: one setting per stage (phase × round, in
/// execution order) plus the plan's predicted total energy, including
/// every transition it pays.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// The setting to latch for each stage, `kernels.len() × rounds`
    /// entries in execution order.
    pub settings: Vec<Setting>,
    /// Predicted total energy of the planned run, J.
    pub predicted_total_j: f64,
}

/// Request-shaped planning entry point: the minimum-predicted-energy
/// DVFS schedule for `kernels` executed back to back for `rounds`
/// rounds, starting from `start`.
///
/// This is the same Viterbi pass [`PerPhaseModel`] runs inside the
/// governor loop (`plan_stages`), exposed as a pure function so the
/// serving layer can answer plan requests without standing up a
/// [`crate::GovernorRuntime`].  Deterministic: ties resolve to the
/// lowest candidate index.  Empty `kernels` or `candidates` yield an
/// empty plan with zero energy.
pub fn plan_phase_settings(
    predictor: &Predictor<'_>,
    candidates: &[Setting],
    start: Setting,
    kernels: &[KernelProfile],
    rounds: usize,
) -> PhasePlan {
    let stages = kernels.len() * rounds;
    let (indices, predicted_total_j) = plan_stages(predictor, candidates, start, stages, |t, s| {
        predictor.phase_energy_j(&kernels[t % kernels.len()], s)
    });
    PhasePlan { settings: indices.into_iter().map(|i| candidates[i]).collect(), predicted_total_j }
}

/// The model-free fallback plan: every stage at max performance, energy
/// bounded by a constant power ceiling (`Σ time × p_ceiling_w`).
///
/// This is [`RaceToHalt`] as a *plan* rather than a live policy: when
/// the serving layer has no usable model (every fit for a device
/// stormed out), it still owes the client a schedule, and finish-fast
/// at the meter's full scale is the conservative choice the race-to-idle
/// literature justifies.  Needs only the timing ground truth; no
/// transition costs apply (the plan never switches).  Pure in its
/// arguments.
pub fn race_to_halt_plan(
    timing: &TimingModel,
    kernels: &[KernelProfile],
    rounds: usize,
    p_ceiling_w: f64,
) -> PhasePlan {
    let max = timing.device().max_performance();
    let stages = kernels.len() * rounds;
    let mut predicted_total_j = 0.0;
    for t in 0..stages {
        let time_s = timing.execution_time(&kernels[t % kernels.len()], max).total_s;
        predicted_total_j += time_s * p_ceiling_w;
    }
    PhasePlan { settings: vec![max; stages], predicted_total_j }
}

/// Plays a precomputed per-stage setting sequence verbatim.
///
/// This is the execution half of the device arbiter: the deadline-aware
/// merged-sequence planner ([`crate::arbiter::plan_merged`]) decides one
/// setting per interleaved stage offline, and the runtime latches them
/// in order through this policy.  Stages past the planned horizon (or a
/// run with an empty plan) stay at the currently-latched point — the
/// policy never invents a switch the plan didn't pay for.
#[derive(Debug, Clone, Default)]
pub struct Planned {
    plan: Vec<Setting>,
    stride: usize,
}

impl Planned {
    /// Wraps a per-stage plan of `stride` stages per round.
    pub fn new(plan: Vec<Setting>, stride: usize) -> Self {
        Planned { plan, stride: stride.max(1) }
    }
}

impl Policy for Planned {
    fn name(&self) -> &'static str {
        "planned"
    }
    fn select(&mut self, ctx: &PhaseContext<'_>) -> Setting {
        let t = ctx.round * self.stride + ctx.phase_idx;
        self.plan.get(t).copied().unwrap_or(ctx.current)
    }
}

/// Picks the argmin of `score` over `current ∪ candidates`, first-wins.
fn argmin_setting(ctx: &PhaseContext<'_>, mut score: impl FnMut(Setting) -> f64) -> Setting {
    let mut best = ctx.current;
    let mut best_score = score(ctx.current);
    for &s in ctx.candidates {
        let sc = score(s);
        if sc < best_score {
            best = s;
            best_score = sc;
        }
    }
    best
}

/// The fitted model applied per phase instead of per run: one Viterbi
/// plan over the whole phase sequence (`plan_stages`), minimizing
/// total predicted energy with transition costs on every edge.
#[derive(Debug, Clone, Default)]
pub struct PerPhaseModel {
    plan: Vec<Setting>,
    stride: usize,
}

impl PerPhaseModel {
    /// Creates the policy (the plan is laid in [`Policy::begin`]).
    pub fn new() -> Self {
        PerPhaseModel::default()
    }
}

impl Policy for PerPhaseModel {
    fn name(&self) -> &'static str {
        "per-phase-model"
    }
    fn begin(&mut self, run: &RunContext<'_>) {
        self.stride = run.tasks.len();
        let stages = run.tasks.len() * run.rounds.max(1);
        let (plan, _) = plan_stages(&run.predictor, run.candidates, run.start, stages, |t, s| {
            run.predictor.phase_energy_j(&run.tasks[t % self.stride].kernel, s)
        });
        self.plan = plan.into_iter().map(|j| run.candidates[j]).collect();
    }
    fn select(&mut self, ctx: &PhaseContext<'_>) -> Setting {
        // Greedy fallback covers phases past the planned horizon (more
        // rounds driven than announced) or a run with no `begin`.
        let t = ctx.round * self.stride.max(1) + ctx.phase_idx;
        self.plan
            .get(t)
            .copied()
            .unwrap_or_else(|| argmin_setting(ctx, |s| model_score(ctx, 1.0, s)))
    }
}

/// [`PerPhaseModel`] plus an online feedback loop: an exponentially
/// weighted estimate of each phase's measured/predicted energy ratio
/// scales the model's prediction, correcting phase-specific model bias
/// from live `powermon` measurements.  Each phase boundary re-plans
/// the *remaining* horizon (`plan_stages` from the currently-latched
/// point) under the updated biases — receding-horizon control.
///
/// Switching is damped two ways so noisy feedback and latch-failure
/// episodes cannot make it thrash: the bias ratio is clamped (one
/// corrupted measurement cannot swing the estimate to an extreme), and
/// once a phase has a chosen point, a re-plan may only move that phase
/// elsewhere if the whole-horizon saving exceeds the configured
/// hysteresis fraction of the phase's predicted energy.  The *first*
/// pick of each phase follows the plan ungated — hysteresis damps
/// feedback-driven churn, it never vetoes the initial plan.
#[derive(Debug, Clone)]
pub struct PerPhaseAdaptive {
    alpha: f64,
    hysteresis: f64,
    bias: Vec<f64>,
    kernels: Vec<KernelProfile>,
    rounds: usize,
    incumbent: Vec<Option<Setting>>,
}

/// Clamp band for the per-phase bias estimate.
const BIAS_CLAMP: (f64, f64) = (0.25, 4.0);

impl PerPhaseAdaptive {
    /// Creates the policy with the given EWMA weight (of the newest
    /// measured/predicted energy ratio, in `[0, 1]`) and hysteresis
    /// margin (the relative improvement a challenger setting must show
    /// over the incumbent before the policy switches).
    pub fn new(alpha: f64, hysteresis: f64) -> Self {
        PerPhaseAdaptive {
            alpha,
            hysteresis,
            bias: Vec::new(),
            kernels: Vec::new(),
            rounds: 0,
            incumbent: Vec::new(),
        }
    }

    /// The current bias estimate for phase `phase_idx` (1 = unbiased).
    pub fn bias(&self, phase_idx: usize) -> f64 {
        self.bias.get(phase_idx).copied().unwrap_or(1.0)
    }
}

impl Policy for PerPhaseAdaptive {
    fn name(&self) -> &'static str {
        "per-phase-adaptive"
    }
    fn begin(&mut self, run: &RunContext<'_>) {
        self.bias = vec![1.0; run.tasks.len()];
        self.kernels = run.tasks.iter().map(|t| t.kernel.clone()).collect();
        self.rounds = run.rounds.max(1);
        self.incumbent = vec![None; run.tasks.len()];
    }
    fn select(&mut self, ctx: &PhaseContext<'_>) -> Setting {
        let stride = self.kernels.len();
        let pi = ctx.phase_idx;
        let t0 = ctx.round * stride.max(1) + pi;
        let total = stride * self.rounds;
        if stride == 0 || t0 >= total {
            let bias = self.bias.get(pi).copied().unwrap_or(1.0);
            return argmin_setting(ctx, |s| model_score(ctx, bias, s));
        }
        let cost = |dt: usize, s: Setting| {
            let i = (t0 + dt) % stride;
            self.bias[i] * ctx.predictor.phase_energy_j(&self.kernels[i], s)
        };
        let remaining = total - t0;
        let (plan, free_cost) =
            plan_stages(&ctx.predictor, ctx.candidates, ctx.current, remaining, &cost);
        let pick = ctx.candidates[plan[0]];
        let chosen = match self.incumbent[pi] {
            Some(inc) if inc != pick => {
                // A feedback-driven plan change: keeping the incumbent
                // for this phase and re-planning after must cost more
                // than the hysteresis margin, or the incumbent stands.
                let forced = ctx.predictor.switch_energy_j(ctx.current, inc)
                    + cost(0, inc)
                    + plan_stages(&ctx.predictor, ctx.candidates, inc, remaining - 1, |dt, s| {
                        cost(dt + 1, s)
                    })
                    .1;
                if forced - free_cost > self.hysteresis * cost(0, inc) {
                    pick
                } else {
                    inc
                }
            }
            _ => pick,
        };
        self.incumbent[pi] = Some(chosen);
        chosen
    }
    fn observe(&mut self, fb: &PhaseFeedback) {
        if fb.phase_idx >= self.bias.len() {
            return;
        }
        if !(fb.predicted_j > 0.0) || !fb.measured_j.is_finite() || !(fb.measured_j > 0.0) {
            return;
        }
        let ratio = (fb.measured_j / fb.predicted_j).clamp(BIAS_CLAMP.0, BIAS_CLAMP.1);
        let b = (1.0 - self.alpha) * self.bias[fb.phase_idx] + self.alpha * ratio;
        self.bias[fb.phase_idx] = b.clamp(BIAS_CLAMP.0, BIAS_CLAMP.1);
    }
}

/// Ground-truth scorer: the per-phase argmin under the simulator's
/// *hidden* constants instead of the fitted model.
///
/// Diagnostics only — it reads [`Device::ground_truth`], which no
/// real-hardware policy could, so it serves as the idealized lower
/// bound the practical policies are judged against (noise and
/// activity-factor deviations keep even this from being exact).
#[derive(Debug, Clone)]
pub struct Oracle {
    truth: TruthConstants,
    timing: TimingModel,
    plan: Vec<Setting>,
    stride: usize,
}

impl Oracle {
    /// Snapshots `device`'s hidden constants and timing model.
    pub fn new(device: &Device) -> Self {
        Oracle {
            truth: device.ground_truth().clone(),
            timing: device.timing_model().clone(),
            plan: Vec::new(),
            stride: 0,
        }
    }

    fn true_energy_j(&self, kernel: &KernelProfile, s: Setting) -> f64 {
        let t = self.timing.execution_time(kernel, s).total_s;
        let mut dynamic_j = 0.0;
        for (class, count) in kernel.ops.iter() {
            dynamic_j += count * self.truth.energy_per_op_j(class, s);
        }
        let constant_w = self.truth.constant_power_w(s, dynamic_j / t.max(1e-12));
        dynamic_j + constant_w * t
    }
}

impl Policy for Oracle {
    fn name(&self) -> &'static str {
        "oracle"
    }
    fn begin(&mut self, run: &RunContext<'_>) {
        self.stride = run.tasks.len();
        let stages = run.tasks.len() * run.rounds.max(1);
        let (plan, _) = plan_stages(&run.predictor, run.candidates, run.start, stages, |t, s| {
            self.true_energy_j(&run.tasks[t % run.tasks.len()].kernel, s)
        });
        self.plan = plan.into_iter().map(|j| run.candidates[j]).collect();
    }
    fn select(&mut self, ctx: &PhaseContext<'_>) -> Setting {
        let t = ctx.round * self.stride.max(1) + ctx.phase_idx;
        self.plan.get(t).copied().unwrap_or_else(|| {
            argmin_setting(ctx, |s| {
                self.true_energy_j(ctx.kernel, s) + ctx.predictor.switch_energy_j(ctx.current, s)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{GovernorReport, GovernorRuntime, Workload};
    use tk1_sim::{core_points, mem_points, Device, OpClass, OpVector, NUM_OP_CLASSES};

    fn toy_model() -> EnergyModel {
        EnergyModel {
            c0_pj_per_v2: [120.0; NUM_OP_CLASSES],
            c1_proc_w_per_v: 1.1,
            c1_mem_w_per_v: 0.35,
            p_misc_w: 0.6,
        }
    }

    #[test]
    fn plan_phase_settings_is_deterministic_and_never_beats_itself() {
        let model = toy_model();
        let mut device = Device::new(42);
        let transitions = TransitionModel::calibrate(&mut device);
        let predictor =
            Predictor { model: &model, timing: device.timing_model(), transitions: &transitions };
        let kernels = vec![
            KernelProfile::new("compute", OpVector::from_pairs(&[(OpClass::FlopSp, 4e8)])),
            KernelProfile::new("memory", OpVector::from_pairs(&[(OpClass::Dram, 3e7)])),
        ];
        let candidates: Vec<Setting> = dvfs_energy_model::service_grid();
        let start = Setting::max_performance();

        let plan = plan_phase_settings(&predictor, &candidates, start, &kernels, 3);
        assert_eq!(plan.settings.len(), kernels.len() * 3);
        assert!(plan.predicted_total_j.is_finite() && plan.predicted_total_j > 0.0);
        let again = plan_phase_settings(&predictor, &candidates, start, &kernels, 3);
        assert_eq!(plan, again, "pure function of its inputs");

        // A constant path at any candidate is feasible, so the plan's
        // total can never exceed the best static schedule.
        for &s in &candidates {
            let mut static_total = predictor.switch_energy_j(start, s);
            for t in 0..plan.settings.len() {
                static_total += predictor.phase_energy_j(&kernels[t % kernels.len()], s);
            }
            assert!(plan.predicted_total_j <= static_total + 1e-9, "beaten by {}", s.label());
        }
    }

    #[test]
    fn empty_plan_requests_yield_empty_plans() {
        let model = toy_model();
        let mut device = Device::new(42);
        let transitions = TransitionModel::calibrate(&mut device);
        let predictor =
            Predictor { model: &model, timing: device.timing_model(), transitions: &transitions };
        let plan = plan_phase_settings(
            &predictor,
            &[Setting::max_performance()],
            Setting::max_performance(),
            &[],
            4,
        );
        assert!(plan.settings.is_empty());
        assert_eq!(plan.predicted_total_j, 0.0);
    }

    fn compute_kernel() -> KernelProfile {
        KernelProfile::new(
            "compute",
            OpVector::from_pairs(&[(OpClass::FlopSp, 2e10), (OpClass::Dram, 1e6)]),
        )
    }

    fn memory_kernel() -> KernelProfile {
        KernelProfile::new(
            "stream",
            OpVector::from_pairs(&[(OpClass::FlopSp, 1e6), (OpClass::Dram, 5e8)]),
        )
    }

    /// Runs `kernels` once each under `policy` on a fresh rig with the
    /// full TK1 grid as candidates and the simulator's own (idealized)
    /// constants as the model, so the model-based pick is not at the
    /// mercy of a fit.
    fn governed(policy: &mut dyn Policy, kernels: &[KernelProfile], seed: u64) -> GovernorReport {
        let t = TruthConstants::ideal();
        let model = EnergyModel {
            c0_pj_per_v2: t.c0_pj_per_v2,
            c1_proc_w_per_v: t.c1_proc_w_per_v,
            c1_mem_w_per_v: t.c1_mem_w_per_v,
            p_misc_w: t.p_misc_w,
        };
        let tasks =
            kernels.iter().map(|k| PhaseTask { phase: Phase::U, kernel: k.clone() }).collect();
        GovernorRuntime::new(model, Setting::all().collect(), seed, None)
            .run(&Workload { tasks, rounds: 1 }, policy)
    }

    #[test]
    fn ondemand_throttles_only_the_idle_domain() {
        let report = governed(&mut OnDemand, &[compute_kernel(), memory_kernel()], 1);
        let (top_core, top_mem) = (core_points().len() - 1, mem_points().len() - 1);
        // Compute-bound: the core stays fast, the memory clock drops.
        let s = report.records[0].requested;
        assert_eq!(s.core_idx, top_core, "core stays fast");
        assert!(s.mem_idx < top_mem, "memory throttles");
        // Memory-bound: the core clock drops instead.
        let s = report.records[1].requested;
        assert!(s.core_idx < top_core, "core throttles");
        assert_eq!(s.mem_idx, top_mem, "memory stays fast");
    }

    #[test]
    fn ondemand_barely_costs_time_and_saves_energy() {
        let kernels = [compute_kernel(), memory_kernel()];
        let fast = governed(&mut RaceToHalt, &kernels, 1);
        let ondemand = governed(&mut OnDemand, &kernels, 1);
        assert!(
            ondemand.total_time_s <= fast.total_time_s * 1.10,
            "throttling the idle domain costs little time: {} vs {}",
            ondemand.total_time_s,
            fast.total_time_s
        );
        assert!(ondemand.total_energy_j < fast.total_energy_j, "and saves energy");
    }

    #[test]
    fn lowest_fixed_setting_saves_power_not_energy() {
        let kernels = [compute_kernel()];
        let fast = governed(&mut RaceToHalt, &kernels, 2);
        let slow = governed(&mut FixedSetting(Setting::new(0, 0)), &kernels, 2);
        assert_eq!(fast.records[0].applied, Setting::max_performance());
        assert_eq!(slow.records[0].applied, Setting::new(0, 0));
        // Mean power is lower...
        assert!(slow.total_energy_j / slow.total_time_s < fast.total_energy_j / fast.total_time_s);
        // ...but the 72 MHz crawl stretches constant energy so far that
        // total energy is worse.
        assert!(slow.total_energy_j > fast.total_energy_j);
    }

    #[test]
    fn per_phase_model_spends_no_more_energy_than_the_system_governors() {
        let kernels = [compute_kernel(), memory_kernel(), compute_kernel()];
        let model = governed(&mut PerPhaseModel::new(), &kernels, 3);
        let others: [Box<dyn Policy>; 3] =
            [Box::new(RaceToHalt), Box::new(FixedSetting(Setting::new(0, 0))), Box::new(OnDemand)];
        for mut other in others {
            let other = governed(other.as_mut(), &kernels, 3);
            assert!(
                model.total_energy_j <= other.total_energy_j * 1.001,
                "model {} J vs {} {} J",
                model.total_energy_j,
                other.policy,
                other.total_energy_j
            );
        }
    }
}
