//! The governor experiment: per-phase DVFS policies vs. the paper's
//! static autotuning, over the paper's 8 FMM inputs × 8 DVFS settings.
//!
//! For every FMM input (Table IV) the experiment:
//!
//! 1. measures a *static* run at each of the 8 paper system settings
//!    (S1–S8) and records the best — the ground truth the paper's
//!    Table II strategy aspires to;
//! 2. runs every governor policy over the same workload on an
//!    identically-seeded device/meter, so policies differ only in
//!    their decisions — never in their noise draws;
//! 3. reports total energy (transition costs included), time, switch
//!    counts and latch retries per policy.
//!
//! Everything is seeded and simulated, so the whole comparison is
//! bitwise reproducible across thread counts.

use dvfs_energy_model::experiments::{FmmInput, SYSTEM_SETTINGS};
use dvfs_energy_model::EnergyModel;
use dvfs_governor::{
    FixedSetting, GovernorReport, GovernorRuntime, Oracle, PerPhaseAdaptive, PerPhaseModel, Policy,
    RaceToHalt, StaticBest, Workload,
};
use kifmm::FmmProfile;
use tk1_sim::{FaultConfig, Setting};

/// Times each input's phase sequence is repeated per run.  More rounds
/// give the adaptive policy more feedback to converge on; every policy
/// is compared over the same round count.
pub const GOVERNOR_ROUNDS: usize = 4;

/// One policy's totals for one FMM input.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy name ([`Policy::name`]).
    pub policy: &'static str,
    /// Total energy, transition costs included, J.
    pub energy_j: f64,
    /// Total time, transition latency included, s.
    pub time_s: f64,
    /// Transition energy alone, J.
    pub transition_energy_j: f64,
    /// Phase boundaries where the operating point moved.
    pub switches: usize,
    /// Latch retries survived.
    pub latch_retries: u32,
}

impl PolicyOutcome {
    fn from_report(r: &GovernorReport) -> Self {
        PolicyOutcome {
            policy: r.policy,
            energy_j: r.total_energy_j,
            time_s: r.total_time_s,
            transition_energy_j: r.transition_energy_j,
            switches: r.switches,
            latch_retries: r.latch_retries,
        }
    }
}

/// The governor comparison for one FMM input.
#[derive(Debug, Clone)]
pub struct GovernorCase {
    /// The input (paper Table IV row).
    pub input: FmmInput,
    /// Measured total energy of a static run at each S1–S8, in
    /// [`SYSTEM_SETTINGS`] order, J.
    pub static_energy_j: Vec<(&'static str, f64)>,
    /// The id of the best (measured) static setting.
    pub best_static_id: &'static str,
    /// Its energy, J.
    pub best_static_j: f64,
    /// Governor policy outcomes.
    pub outcomes: Vec<PolicyOutcome>,
}

impl GovernorCase {
    /// The outcome of `policy` (by [`Policy::name`]).
    pub fn outcome(&self, policy: &str) -> &PolicyOutcome {
        self.outcomes.iter().find(|o| o.policy == policy).expect("policy present")
    }
}

/// Runs the full comparison: every policy over every profiled input.
///
/// All runtimes of one input share one per-input seed, so each policy
/// sees an identical device, meter and fault stream; `faults` applies
/// to every run (including the transition-model calibration).
pub fn governor_comparison(
    model: &EnergyModel,
    profiles: &[(FmmInput, FmmProfile)],
    seed: u64,
    faults: Option<&FaultConfig>,
) -> Vec<GovernorCase> {
    let candidates: Vec<Setting> = SYSTEM_SETTINGS.iter().map(|s| s.setting()).collect();
    profiles
        .iter()
        .enumerate()
        .map(|(i, (input, profile))| {
            let case_seed = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let workload = Workload::from_profile(profile, GOVERNOR_ROUNDS);
            let runtime =
                || GovernorRuntime::new(model.clone(), candidates.clone(), case_seed, faults);

            // Static baselines: one pinned run per paper setting.
            let mut static_energy_j = Vec::with_capacity(SYSTEM_SETTINGS.len());
            for sys in &SYSTEM_SETTINGS {
                let mut rt = runtime();
                let report = rt.run(&workload, &mut FixedSetting(sys.setting()));
                static_energy_j.push((sys.id, report.total_energy_j));
            }
            // First-wins min: ties resolve to the lowest setting index.
            let (best_static_id, best_static_j) = static_energy_j
                .iter()
                .copied()
                .reduce(|best, cur| if cur.1 < best.1 { cur } else { best })
                .expect("eight settings");

            // Governor policies, each on a fresh identically-seeded rig.
            let mut outcomes = Vec::new();
            let mut named: Vec<Box<dyn Policy>> = vec![
                Box::new(StaticBest::new()),
                Box::new(RaceToHalt),
                Box::new(PerPhaseModel::new()),
                Box::new(PerPhaseAdaptive::new(0.5, 0.03)),
            ];
            for policy in named.iter_mut() {
                let mut rt = runtime();
                let report = rt.run(&workload, policy.as_mut());
                outcomes.push(PolicyOutcome::from_report(&report));
            }
            // Oracle last: it snapshots the device's hidden truth.
            let mut rt = runtime();
            let mut oracle = Oracle::new(rt.device());
            let report = rt.run(&workload, &mut oracle);
            outcomes.push(PolicyOutcome::from_report(&report));

            GovernorCase { input: *input, static_energy_j, best_static_id, best_static_j, outcomes }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{fmm_profiles, try_fitted_model};
    use dvfs_microbench::SweepConfig;

    fn fitted() -> EnergyModel {
        // Pinned fault-free (the acceptance claims must hold even when
        // the suite runs under FMM_ENERGY_FAULTS), small seed space.
        try_fitted_model(&SweepConfig { seed: 0xBEEF, faults: None, ..SweepConfig::default() })
            .expect("clean fit")
            .model
    }

    fn cases(faults: Option<&FaultConfig>) -> Vec<GovernorCase> {
        let model = fitted();
        let profiles = fmm_profiles(6, 7);
        governor_comparison(&model, &profiles, 0xC0DE, faults)
    }

    #[test]
    fn per_phase_model_beats_best_static_on_most_inputs() {
        let cases = cases(None);
        assert_eq!(cases.len(), 8);
        let wins = cases
            .iter()
            .filter(|c| c.outcome("per-phase-model").energy_j <= c.best_static_j)
            .count();
        // The acceptance bar: transition costs included, the per-phase
        // model pick must match or beat the best *measured* static
        // setting on at least 6 of the paper's 8 inputs.
        assert!(wins >= 6, "per-phase-model wins on {wins}/8 inputs");
        for c in &cases {
            let rth = c.outcome("race-to-halt");
            assert!(rth.energy_j > 0.0 && rth.time_s > 0.0);
        }
    }

    #[test]
    fn adaptive_stays_within_5pct_of_model_under_default_faults() {
        let faults = FaultConfig::default_campaign();
        let cases = cases(Some(&faults));
        for c in &cases {
            let model = c.outcome("per-phase-model").energy_j;
            let adaptive = c.outcome("per-phase-adaptive").energy_j;
            assert!(
                adaptive <= model * 1.05,
                "{}: adaptive {adaptive} vs model {model}",
                c.input.id
            );
        }
    }

    #[test]
    fn comparison_is_bitwise_deterministic_across_threads() {
        let model = fitted();
        // Two inputs keep the 4× repetition affordable; the full-size
        // comparison runs through the identical code path.
        let profiles: Vec<_> = fmm_profiles(6, 7).into_iter().take(2).collect();
        let run = || governor_comparison(&model, &profiles, 0xC0DE, None);
        let reference = run();
        for threads in [1usize, 2, 4, 8] {
            compat::par::set_thread_count(Some(threads));
            let again = run();
            for (a, b) in reference.iter().zip(&again) {
                assert_eq!(a.best_static_j.to_bits(), b.best_static_j.to_bits());
                for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
                    assert_eq!(oa.policy, ob.policy);
                    assert_eq!(
                        oa.energy_j.to_bits(),
                        ob.energy_j.to_bits(),
                        "{} energy at {threads} threads",
                        oa.policy
                    );
                    assert_eq!(oa.time_s.to_bits(), ob.time_s.to_bits());
                    assert_eq!(oa.switches, ob.switches);
                }
            }
        }
        compat::par::set_thread_count(None);
    }

    #[test]
    fn governed_evaluation_matches_ungoverned_potentials() {
        use dvfs_governor::governed_evaluate;
        use kifmm::distributions::plummer;
        use kifmm::evaluator::{FmmPlan, M2lMethod};
        use kifmm::{profile_plan, CostModel, FmmEvaluator};

        let pts = plummer(1500, 0.3, 11);
        let den = vec![1.0; pts.len()];
        let plan = FmmPlan::new(&pts, &den, 64, 4, M2lMethod::Fft);
        let profile = profile_plan(&plan, &CostModel::default());
        let model = fitted();
        let candidates: Vec<Setting> = SYSTEM_SETTINGS.iter().map(|s| s.setting()).collect();
        let mut rt = GovernorRuntime::new(model, candidates, 0xFEED, None);
        let mut policy = PerPhaseModel::new();
        let (governed, report) = governed_evaluate(&plan, &profile, &mut rt, &mut policy);
        let ungoverned = FmmEvaluator::new().evaluate(&plan);
        assert_eq!(governed, ungoverned, "the governor cannot touch the numerics");
        assert_eq!(report.records.len(), 5, "five engine phase boundaries");
        assert!(report.total_energy_j > 0.0);
    }
}
