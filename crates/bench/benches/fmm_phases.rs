//! Criterion benchmarks for the FMM building blocks.
//!
//! These measure the reproduction's own compute kernels (tree build,
//! list construction, P2P, FFT M2L, full evaluation) — the pieces whose
//! balance the paper's `Q` parameter tunes.  The dense-vs-FFT M2L pair
//! is the A2 ablation from DESIGN.md: it shows the arithmetic-intensity
//! trade the V list makes.  The `scaling` group sweeps the pool width
//! over the 1/2/4/8-thread grid of the committed `BENCH_fmm.json`.

use compat::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use compat::rng::StdRng;
use kifmm::evaluator::{FmmPlan, M2lMethod};
use kifmm::{direct_sum, profile_plan, CostModel, FmmEvaluator, InteractionLists, Octree};
use std::hint::black_box;

fn cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
    let den = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
    (pts, den)
}

fn bench_tree_and_lists(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree");
    for &n in &[4096usize, 16384, 65536] {
        let (pts, den) = cloud(n, 1);
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| Octree::build(black_box(&pts), black_box(&den), 64))
        });
        let tree = Octree::build(&pts, &den, 64);
        group.bench_with_input(BenchmarkId::new("lists", n), &n, |b, _| {
            b.iter(|| InteractionLists::build(black_box(&tree)))
        });
    }
    group.finish();
}

fn bench_m2l_methods(c: &mut Criterion) {
    // Ablation A2: dense vs FFT M2L at the same accuracy order.
    let (pts, den) = cloud(16384, 2);
    let mut group = c.benchmark_group("m2l");
    group.sample_size(10);
    for (label, method) in [("dense", M2lMethod::Dense), ("fft", M2lMethod::Fft)] {
        let plan = FmmPlan::new(&pts, &den, 64, 4, method);
        let eval = FmmEvaluator::new();
        group.bench_function(label, |b| b.iter(|| eval.evaluate(black_box(&plan))));
    }
    group.finish();
}

fn bench_full_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fmm");
    group.sample_size(10);
    for &n in &[8192usize, 32768] {
        let (pts, den) = cloud(n, 3);
        let plan = FmmPlan::new(&pts, &den, 64, 4, M2lMethod::Fft);
        let eval = FmmEvaluator::new();
        group.bench_with_input(BenchmarkId::new("evaluate", n), &n, |b, _| {
            b.iter(|| eval.evaluate(black_box(&plan)))
        });
    }
    // The O(N²) reference at the small size, for the crossover story.
    let (pts, den) = cloud(8192, 3);
    group.bench_function("direct_sum/8192", |b| {
        b.iter(|| direct_sum(black_box(&pts), black_box(&den)))
    });
    group.finish();
}

fn bench_phase_timings(c: &mut Criterion) {
    // Per-phase wall-time split via the engine's own instrumentation
    // (`evaluate_timed`).  The criterion number tracks the timed
    // evaluate as a whole; the phase split for each size is printed
    // once so a bench log shows where the time goes (the committable
    // artifact form of the same data is `repro fmm-scaling --out`).
    let mut group = c.benchmark_group("phases");
    group.sample_size(10);
    for &n in &[8192usize, 32768] {
        let (pts, den) = cloud(n, 3);
        let plan = FmmPlan::new(&pts, &den, 64, 4, M2lMethod::Fft);
        let eval = FmmEvaluator::new();
        let _ = eval.evaluate(&plan); // warm pool + arenas
        let (_, t) = eval.evaluate_timed(&plan);
        eprintln!(
            "phases/{n}: up={:.3}ms v={:.3}ms x={:.3}ms down={:.3}ms near={:.3}ms total={:.3}ms",
            t.up_s * 1e3,
            t.v_s * 1e3,
            t.x_s * 1e3,
            t.down_s * 1e3,
            t.near_s * 1e3,
            t.total_s * 1e3,
        );
        group.bench_with_input(BenchmarkId::new("evaluate_timed", n), &n, |b, _| {
            b.iter(|| eval.evaluate_timed(black_box(&plan)))
        });
    }
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    // The {threads} × {n} grid of the committed BENCH_fmm.json, in
    // criterion form: evaluate under every pool width, plus the
    // sequential and parallel tree builders head to head.  The full
    // grid (n up to 2^20) lives in `repro fmm-scaling`; this group
    // keeps the small sizes under criterion's statistics.
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    for &n in &[8192usize, 32768] {
        let (pts, den) = cloud(n, 3);
        let plan = FmmPlan::new(&pts, &den, 64, 4, M2lMethod::Fft);
        for &threads in &dvfs_bench::scaling::DEFAULT_THREAD_GRID {
            compat::par::set_thread_count(Some(threads));
            let eval = FmmEvaluator::new();
            let _ = eval.evaluate(&plan); // warm pool, arenas, schedule
            group.bench_with_input(
                BenchmarkId::new(format!("evaluate/n{n}"), threads),
                &threads,
                |b, _| b.iter(|| eval.evaluate(black_box(&plan))),
            );
        }
        compat::par::set_thread_count(None);
    }
    let (pts, den) = cloud(65536, 1);
    for (label, threads) in [("seq", 1usize), ("par", 8)] {
        compat::par::set_thread_count(Some(threads));
        group.bench_function(format!("tree_build/65536/{label}"), |b| {
            b.iter(|| Octree::build(black_box(&pts), black_box(&den), 64))
        });
    }
    compat::par::set_thread_count(None);
    group.finish();
}

fn bench_profiling(c: &mut Criterion) {
    // The nvprof-style instrumentation pass at a paper-scale input.
    let (pts, den) = cloud(65536, 4);
    let plan = FmmPlan::new(&pts, &den, 128, 4, M2lMethod::Fft);
    let cost = CostModel::default();
    c.bench_function("profile/N65536-Q128", |b| {
        b.iter(|| profile_plan(black_box(&plan), black_box(&cost)))
    });
}

criterion_group!(
    benches,
    bench_tree_and_lists,
    bench_m2l_methods,
    bench_full_evaluation,
    bench_phase_timings,
    bench_thread_scaling,
    bench_profiling
);
criterion_main!(benches);
