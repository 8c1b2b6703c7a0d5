//! Bitwise-determinism guarantees of the reproduction pipeline.
//!
//! Every stage of the pipeline is seeded, and the in-tree thread pool
//! concatenates chunk results in submission order, so the *entire*
//! pipeline must be a pure function of its seeds: identical bits across
//! repeated runs and across worker-thread counts.  These tests pin that
//! contract — a regression here silently invalidates every golden value
//! and every published number.

use compat::rng::StdRng;
use dvfs_energy_model::fit_model;
use dvfs_microbench::{run_sweep, MicrobenchKind, SweepConfig};
use kifmm::evaluator::{FmmPlan, M2lMethod};
use kifmm::{profile_plan, CostModel, FmmEvaluator};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests that set the process-global `compat::par` pool
/// width, so each one runs at exactly the widths it names.
static POOL_WIDTH: Mutex<()> = Mutex::new(());

/// Takes [`POOL_WIDTH`].  A poisoned lock only means the other test
/// failed; the guarded `()` cannot be left half-updated.
fn own_pool_width() -> MutexGuard<'static, ()> {
    POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_sweep() -> SweepConfig {
    SweepConfig {
        kinds: vec![MicrobenchKind::SinglePrecision, MicrobenchKind::L2],
        trials: 1,
        seed: 0xD5EED,
        faults: None,
        ..SweepConfig::default()
    }
}

#[test]
fn sweep_samples_are_bitwise_identical_across_runs() {
    let cfg = small_sweep();
    let a = run_sweep(&cfg);
    let b = run_sweep(&cfg);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
        assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
        assert_eq!(x.setting, y.setting);
        assert_eq!(x.kind, y.kind);
    }
}

#[test]
fn sweep_samples_are_bitwise_identical_across_thread_counts() {
    // Workers own whole settings and results are concatenated in chunk
    // order, so even the *order* must match between pool widths.
    let _width = own_pool_width();
    let run_at = |threads: usize| {
        compat::par::set_thread_count(Some(threads));
        let run = run_sweep(&small_sweep());
        compat::par::set_thread_count(None);
        run
    };
    let a = run_at(1);
    for threads in [2, 3, 8] {
        let b = run_at(threads);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.setting, y.setting, "order changed at {threads} threads");
            assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
            assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
        }
    }
}

#[test]
fn nnls_fit_is_bitwise_reproducible() {
    let dataset = run_sweep(&small_sweep());
    let a = fit_model(dataset.training());
    let b = fit_model(dataset.training());
    for i in 0..a.model.c0_pj_per_v2.len() {
        assert_eq!(a.model.c0_pj_per_v2[i].to_bits(), b.model.c0_pj_per_v2[i].to_bits());
    }
    assert_eq!(a.model.c1_proc_w_per_v.to_bits(), b.model.c1_proc_w_per_v.to_bits());
    assert_eq!(a.model.c1_mem_w_per_v.to_bits(), b.model.c1_mem_w_per_v.to_bits());
    assert_eq!(a.model.p_misc_w.to_bits(), b.model.p_misc_w.to_bits());
    assert_eq!(a.residual_norm_j.to_bits(), b.residual_norm_j.to_bits());

    // A regenerated (identical-seed) dataset must fit to the same bits.
    let again = run_sweep(&small_sweep());
    let c = fit_model(again.training());
    assert_eq!(a.model.p_misc_w.to_bits(), c.model.p_misc_w.to_bits());
    assert_eq!(a.model.c0_pj_per_v2[0].to_bits(), c.model.c0_pj_per_v2[0].to_bits());
}

fn seeded_cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<[f64; 3]> = (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
    let den: Vec<f64> = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
    (pts, den)
}

#[test]
fn fmm_phase_counters_are_identical_across_runs() {
    let (pts, den) = seeded_cloud(3000, 42);
    let plan = FmmPlan::new(&pts, &den, 32, 4, M2lMethod::Fft);
    let a = profile_plan(&plan, &CostModel::default());
    let b = profile_plan(&plan, &CostModel::default());
    assert_eq!(a.phases.len(), b.phases.len());
    for (pa, pb) in a.phases.iter().zip(&b.phases) {
        assert_eq!(pa.phase, pb.phase);
        assert_eq!(pa.counters.snapshot(), pb.counters.snapshot(), "{:?}", pa.phase);
        assert_eq!(pa.launches, pb.launches);
    }
}

/// Asserts that `got`'s UC2E/DC2E/M2M/L2L matrices are bit for bit
/// those of `want` and that their FFT M2L spectra were keyed in the same
/// order.
fn assert_same_operators(got: &FmmPlan, want: &FmmPlan, threads: usize) {
    let bits =
        |m: &dvfs_linalg::ColMajor| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.tree.depth(), want.tree.depth());
    for level in 0..=want.tree.depth() {
        let (g, w) = (&got.ops, &want.ops);
        assert_eq!(bits(g.uc2e(level)), bits(w.uc2e(level)), "UC2E({level}) at {threads} threads");
        assert_eq!(bits(g.dc2e(level)), bits(w.dc2e(level)), "DC2E({level}) at {threads} threads");
        if level == 0 {
            continue;
        }
        for octant in 0..8 {
            let at = format!("({level}, {octant}) at {threads} threads");
            assert_eq!(bits(g.m2m(level, octant)), bits(w.m2m(level, octant)), "M2M{at}");
            assert_eq!(bits(g.l2l(level, octant)), bits(w.l2l(level, octant)), "L2L{at}");
        }
    }
    let keys = |plan: &FmmPlan| plan.fft.as_ref().map(|f| f.keys().to_vec());
    assert_eq!(keys(got), keys(want), "FFT M2L key order at {threads} threads");
}

#[test]
fn fmm_evaluation_and_counters_are_identical_across_thread_counts() {
    // This test owns the global thread-count override for its whole
    // body (see `own_pool_width`).
    //
    // Three contracts are pinned per thread count: bitwise identity
    // with the single-thread baseline, bitwise repeatability of back-
    // to-back evaluations on the *same* evaluator (the warm persistent
    // pool, with all arenas re-derived from the plan), and op-counter
    // invariance for a plan *rebuilt* at that thread count — the
    // baseline plan goes through the sequential tree-build path
    // (threads = 1) while the rebuilt plans use the parallel builder,
    // so this also pins sequential-vs-parallel construction, down to
    // every precomputed operator and the FFT M2L key order.
    let (pts, den) = seeded_cloud(2500, 7);

    let _width = own_pool_width();
    compat::par::set_thread_count(Some(1));
    let plan = FmmPlan::new(&pts, &den, 32, 4, M2lMethod::Fft);
    let serial_eval = FmmEvaluator::new();
    let base_potentials = serial_eval.evaluate(&plan);
    let serial_again = serial_eval.evaluate(&plan);
    for (x, y) in serial_again.iter().zip(&base_potentials) {
        assert_eq!(x.to_bits(), y.to_bits(), "serial warm-pool repeat differs");
    }
    let base_profile = profile_plan(&plan, &CostModel::default());

    for threads in [2, 4, 8] {
        compat::par::set_thread_count(Some(threads));
        let eval = FmmEvaluator::new();
        let potentials = eval.evaluate(&plan);
        assert_eq!(potentials.len(), base_potentials.len());
        for (i, (x, y)) in potentials.iter().zip(&base_potentials).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "potential {i} differs at {threads} threads");
        }
        // Repeated evaluation on the now-warm pool: same bits again.
        let again = eval.evaluate(&plan);
        for (i, (x, y)) in again.iter().zip(&potentials).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "warm-pool repeat of potential {i} differs at {threads} threads"
            );
        }
        let profile = profile_plan(&plan, &CostModel::default());
        for (pa, pb) in profile.phases.iter().zip(&base_profile.phases) {
            assert_eq!(pa.counters.snapshot(), pb.counters.snapshot(), "{:?}", pa.phase);
        }
        // A plan rebuilt at this thread count exercises the parallel
        // tree and list builders; its op counts (and potentials) must
        // match the sequentially built baseline exactly.
        let rebuilt = FmmPlan::new(&pts, &den, 32, 4, M2lMethod::Fft);
        assert_same_operators(&rebuilt, &plan, threads);
        let rebuilt_profile = profile_plan(&rebuilt, &CostModel::default());
        for (pa, pb) in rebuilt_profile.phases.iter().zip(&base_profile.phases) {
            assert_eq!(
                pa.counters.snapshot(),
                pb.counters.snapshot(),
                "rebuilt-plan counters differ at {threads} threads in {:?}",
                pa.phase
            );
        }
        let rebuilt_potentials = eval.evaluate(&rebuilt);
        for (i, (x, y)) in rebuilt_potentials.iter().zip(&base_potentials).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "rebuilt-plan potential {i} differs at {threads} threads"
            );
        }
    }
    compat::par::set_thread_count(None);
}
