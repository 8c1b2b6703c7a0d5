//! The evaluator keeps its arenas on the calling thread between
//! evaluations.  No state may leak through them: an evaluation must give
//! the same bits whether the thread's arenas are fresh, hold a larger
//! plan's values, or hold a smaller plan's.
//!
//! This binary owns the process-global pool width for its one test.

use compat::rng::StdRng;
use kifmm::distributions::{plummer, uniform_cube};
use kifmm::evaluator::{FmmPlan, M2lMethod};
use kifmm::FmmEvaluator;

/// Potential bits and gradient bits (empty without gradients).
type Bits = (Vec<u64>, Vec<u64>);

fn evaluate(plan: &FmmPlan, with_grad: bool) -> Bits {
    let ev = FmmEvaluator::new();
    let (pot, grad) =
        if with_grad { ev.evaluate_with_gradient(plan) } else { (ev.evaluate(plan), Vec::new()) };
    let pot = pot.iter().map(|x| x.to_bits()).collect();
    let grad = grad.iter().flatten().map(|x| x.to_bits()).collect();
    (pot, grad)
}

/// The same evaluation on a newly spawned thread, whose arenas are
/// empty.
fn on_fresh_thread(plan: &FmmPlan, with_grad: bool) -> Bits {
    std::thread::scope(|s| s.spawn(|| evaluate(plan, with_grad)).join())
        .unwrap_or_else(|e| std::panic::resume_unwind(e))
}

fn densities(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect()
}

#[test]
fn kept_arenas_give_fresh_thread_bits_after_larger_and_smaller_plans() {
    // The large plan is a Plummer sphere, so X lists add into boxes no
    // V list reaches: a `down_check` left un-zeroed from the small
    // plan, or from the large plan's own previous call, would show.
    let (large_pts, small_pts) = (plummer(400, 0.1, 1), uniform_cube(120, 2));
    let (large_den, small_den) = (densities(400, 3), densities(120, 4));
    for method in [M2lMethod::Fft, M2lMethod::Dense] {
        let large = FmmPlan::new(&large_pts, &large_den, 16, 4, method);
        let small = FmmPlan::new(&small_pts, &small_den, 16, 4, method);
        assert!(large.lists.x.iter().any(|x| !x.is_empty()), "the large plan has X work");
        // Results are bitwise independent of the pool width (see
        // `tests/determinism.rs`), so one fresh-thread answer per plan
        // serves both widths.
        let fresh = [false, true].map(|g| (on_fresh_thread(&large, g), on_fresh_thread(&small, g)));
        for threads in [1, 2] {
            compat::par::set_thread_count(Some(threads));
            for (with_grad, (want_large, want_small)) in [false, true].into_iter().zip(&fresh) {
                let at = format!("{method:?}, {threads} threads, gradients {with_grad}");
                assert!(*want_large == evaluate(&large, with_grad), "large, {at}");
                assert!(*want_small == evaluate(&small, with_grad), "small after large, {at}");
                assert!(*want_large == evaluate(&large, with_grad), "large after small, {at}");
            }
        }
    }
    compat::par::set_thread_count(None);
}
