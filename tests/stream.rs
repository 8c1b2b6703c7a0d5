//! Streaming-engine soak (ISSUE 10 acceptance gate).
//!
//! Two claims the committed `BENCH_stream.json` artifact rests on,
//! checked here end-to-end with the *fitted* energy model and the real
//! octree — not the toy fixtures the unit tests use:
//!
//! * **Bitwise streaming** — the pinned scenario suite (particle drift
//!   with incremental tree maintenance, the bursty mixed-size request
//!   stream, the three-tenant arbitration study) produces the same
//!   digest at 1, 2, 4 and 8 worker threads, and the incremental
//!   octree stays bit-for-bit interchangeable with a from-scratch
//!   build at every motion step.
//! * **Arbitration wins** — on the pinned suite the arbitrated
//!   multi-tenant plan is deadline-feasible, misses nothing, and costs
//!   no more *executed* energy than the per-job static-best and
//!   race-to-halt baselines.

use compat::par;
use compat::rng::StdRng;
use dvfs_bench::try_fitted_model;
use dvfs_microbench::SweepConfig;
use fmm_energy::fmm::evaluator::{FmmPlan, M2lMethod};
use fmm_energy::fmm::{profile_plan, profile_shape, CostModel, FmmEvaluator};
use fmm_energy::stream::{
    run_suite, DynamicConfig, DynamicOctree, MotionModel, StreamConfig, UpdateOutcome,
};

fn cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<[f64; 3]> =
        (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>(), rng.random::<f64>()]).collect();
    let densities: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    (points, densities)
}

#[test]
fn pinned_suite_is_thread_invariant_and_the_arbitrated_plan_wins() {
    let model =
        try_fitted_model(&SweepConfig { seed: 0xBEEF, faults: None, ..SweepConfig::default() })
            .expect("clean fit")
            .model;
    let cfg = StreamConfig::default();
    let mut reference = None;
    for threads in [1usize, 2, 4, 8] {
        par::set_thread_count(Some(threads));
        let report = run_suite(&model, &cfg);
        par::set_thread_count(None);
        let reference = reference.get_or_insert_with(|| report.clone());
        assert_eq!(
            report.digest, reference.digest,
            "suite digest diverged at {threads} threads: {:#018x} vs {:#018x}",
            report.digest, reference.digest
        );
    }
    let suite = reference.expect("ran");
    // Drift: the maintainer did real incremental work and every step
    // is accounted for.
    assert!(suite.drift.in_place >= 1, "drift must exercise in-place repair: {:?}", suite.drift);
    assert_eq!(suite.drift.in_place + suite.drift.rebuilds, suite.drift.steps as u64);
    // Burst: the pinned mixed-size stream met every deadline.
    assert_eq!(suite.burst.deadline_misses, 0, "pinned burst suite missed deadlines");
    assert!(suite.burst.requests > 0 && suite.burst.energy_j > 0.0);
    // Tenants: the acceptance claim — feasible, zero misses, and
    // cheaper executed energy than both baselines.
    let t = &suite.tenants;
    assert!(t.feasible, "the arbitrated plan must be deadline-feasible");
    assert_eq!(t.deadline_misses, 0);
    assert!(
        t.arbitrated_j <= t.static_best_j,
        "arbitrated {} J must not exceed per-job static-best {} J",
        t.arbitrated_j,
        t.static_best_j
    );
    assert!(
        t.arbitrated_j <= t.race_to_halt_j,
        "arbitrated {} J must not exceed race-to-halt {} J",
        t.arbitrated_j,
        t.race_to_halt_j
    );
}

/// The incremental octree stays bit-for-bit interchangeable with a
/// from-scratch build over a longer soak than the unit tests run, on
/// both maintenance regimes: a gentle drift that repairs in place and
/// an aggressive churn that falls back to full rebuilds.
#[test]
fn drift_soak_matches_fresh_builds_bitwise_in_both_regimes() {
    let (points, densities) = cloud(1400, 0x57_0AD5);
    for (label, motion, expect_in_place) in [
        ("gentle", MotionModel { seed: 0xD81F7, churn: 0.01, step_frac: 0.03 }, true),
        ("aggressive", MotionModel { seed: 0xD81F7, churn: 0.6, step_frac: 0.25 }, false),
    ] {
        let cfg = DynamicConfig { q: 32, ..DynamicConfig::default() };
        let mut dyn_tree = DynamicOctree::new(&points, &densities, cfg);
        for step in 0..10 {
            dyn_tree.advance(&motion);
            let fresh = FmmPlan::new(
                dyn_tree.positions(),
                dyn_tree.densities(),
                cfg.q,
                cfg.p,
                M2lMethod::Fft,
            );
            let maintained = dyn_tree.evaluate();
            let rebuilt = FmmEvaluator::new().evaluate(&fresh);
            assert_eq!(maintained.len(), rebuilt.len());
            for (i, (a, b)) in maintained.iter().zip(&rebuilt).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{label}: potential {i} diverged from the fresh build at step {step}"
                );
            }
        }
        let stats = dyn_tree.stats();
        assert_eq!(stats.steps, 10);
        if expect_in_place {
            assert!(stats.in_place > 0, "{label}: expected in-place repairs, got {stats:?}");
        } else {
            assert!(stats.rebuilds > 0, "{label}: expected rebuild fallbacks, got {stats:?}");
        }
    }
}

/// `profile_plan` answers from the plan's profile memo: the V phase's
/// counters across in-place repairs, the whole profile across steps
/// where no point changed leaf.  At every step of a full 500-step cycle
/// at the `stream_drift` benchmark's settings (n = 1536, q = 48, churn
/// 0.008, steps of up to 3%), at a forced rebuild and over a few steps
/// of the rebuilt plan, it must equal a from-scratch `profile_shape`
/// over the same tree and lists in all 6 × 17 counters, utilizations
/// and launches.  An unoptimized build runs the cycle's first 20 steps,
/// then the rebuild.
#[test]
fn memoized_profiles_equal_fresh_ones_over_a_drift_cycle() {
    let (points, densities) = cloud(1536, 0xD21F7);
    let cfg = DynamicConfig { q: 48, ..DynamicConfig::default() };
    let mut dt = DynamicOctree::new(&points, &densities, cfg);
    let drift = MotionModel { seed: 0x3071_0AE2, churn: 0.008, step_frac: 0.03 };
    let violent = MotionModel { seed: 0x3071_0AE2, churn: 0.9, step_frac: 0.5 };
    let cost = CostModel::default();
    let cycle = if cfg!(debug_assertions) { 20 } else { 500 };
    for step in 0..cycle + 6 {
        let outcome = dt.advance(if step == cycle { &violent } else { &drift });
        if step == cycle {
            assert!(matches!(outcome, UpdateOutcome::Rebuilt { .. }), "{outcome:?}");
        }
        let plan = dt.plan();
        let got = profile_plan(plan, &cost);
        let want = profile_shape(&plan.tree, &plan.lists, plan.p, plan.method, &cost);
        assert_eq!((got.n, got.q), (want.n, want.q));
        for (g, w) in got.phases.iter().zip(&want.phases) {
            let at = format!("step {step} ({outcome:?}), {:?}", g.phase);
            assert_eq!(g.counters.snapshot(), w.counters.snapshot(), "{at}");
            assert_eq!(g.utilization.to_bits(), w.utilization.to_bits(), "{at}");
            assert_eq!(g.launches, w.launches, "{at}");
        }
    }
    let stats = dt.stats();
    assert_eq!(stats.rebuilds, 1, "{stats:?}");
    assert!(stats.in_place > 0 && stats.migrants > 0, "{stats:?}");
}
