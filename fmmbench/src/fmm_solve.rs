//! `fmm_solve`: static n-body solves at the paper's configuration
//! (q = 64, p = 4, FFT M2L, two threads).
//!
//! Each pass solves three problems from raw points — `FmmPlan::new`, then
//! `FmmEvaluator::evaluate_timed` — and then re-evaluates each plan.  The
//! problems pin the tree shapes the phases are sensitive to:
//!
//! * uniform, n = 32768: at q = 64 the cube sits on the split threshold,
//!   so the adaptive tree goes ragged and the X list grows heavy;
//! * uniform, n = 131072: a regular tree, heavy in V and NEAR;
//! * Plummer, n = 65536, a = 0.1: a deep adaptive tree that exercises
//!   the W and X lists.
//!
//! The unit of work is the pass.  Gates: each problem's sampled relative
//! L2 error against the direct sum stays within [`REL_ERR_TOL`], and every
//! evaluation of a problem returns the same potentials, bit for bit.

use crate::fmmlayer;
use crate::host::HostPeaks;
use crate::report::Report;
use crate::stats::{digest, median, quantile};
use crate::trace::{Tracer, NO_SPAN};
use crate::THREADS;
use compat::par::{self, ParSliceExt};
use compat::rng::StdRng;
use kifmm::distributions::{plummer, uniform_cube};
use kifmm::evaluator::{FmmPlan, M2lMethod};
use kifmm::{
    profile_plan, relative_l2_error, CostModel, FmmEvaluator, Kernel, LaplaceKernel, TreeStats,
};
use std::hint::black_box;
use std::time::Instant;

const Q: usize = 64;
const P: usize = 4;
/// Targets per problem checked against the direct sum.
const SAMPLES: usize = 128;
/// Largest sampled relative L2 error accepted; these problems read
/// 2–4e-4.
const REL_ERR_TOL: f64 = 1e-3;
/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 11;
const PROBLEMS: u64 = 3;

struct Problem {
    name: &'static str,
    points: Vec<[f64; 3]>,
    densities: Vec<f64>,
    sample: Vec<usize>,
    reference: Vec<f64>,
}

/// The three problems and their direct sums at the sampled targets.
fn problems(seed: u64) -> Vec<Problem> {
    let clouds = [
        ("uniform-32768", uniform_cube(32_768, seed ^ 0x5A1)),
        ("uniform-131072", uniform_cube(131_072, seed ^ 0x5A2)),
        ("plummer-65536", plummer(65_536, 0.1, seed ^ 0x5A3)),
    ];
    clouds
        .into_iter()
        .enumerate()
        .map(|(k, (name, points))| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xDE45 + k as u64));
            let densities: Vec<f64> =
                (0..points.len()).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
            let sample: Vec<usize> =
                (0..SAMPLES).map(|_| rng.random_range(0..points.len())).collect();
            let reference = sample
                .par_iter()
                .map(|&i| {
                    points
                        .iter()
                        .zip(&densities)
                        .map(|(&s, &d)| LaplaceKernel.eval(points[i], s) * d)
                        .sum::<f64>()
                })
                .collect();
            Problem { name, points, densities, sample, reference }
        })
        .collect()
}

/// Gate: every evaluation of a problem returns the first one's bits.
fn same_bits(report: &mut Report, first: &mut Option<u64>, name: &str, pot: &[f64], what: &str) {
    let d = digest(pot);
    match *first {
        None => *first = Some(d),
        Some(f) if f == d => {}
        Some(f) => {
            report.failed += 1;
            report.violations.push(format!("{name}: {what} digest {d:016x} differs from {f:016x}"));
        }
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    peaks: Option<&HostPeaks>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut probs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        probs = problems(seed);
        setups.push(t.elapsed().as_secs_f64());
    }
    report.setup_s = median(&setups);

    let ev = FmmEvaluator::new();
    let mut first: Vec<Option<u64>> = vec![None; probs.len()];
    let (mut pass_s, mut solve_s, mut eval_s, mut plan_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Per pass, summed over its re-evaluations.
    let mut phase_s: Vec<[f64; 5]> = Vec::new();
    // Traced passes only.
    let mut stage_s: Vec<[f64; 3]> = Vec::new();
    let (mut work, mut trees) = ([(0.0, 0.0); 5], Vec::new());
    let (mut eval_1t, mut profile_s, mut sim_bytes) = (0.0, 0.0, 0.0);
    let mut rel_err = 0.0f64;

    let start = Instant::now();
    let mut pass = 0u64;
    while pass < 2 || start.elapsed().as_secs_f64() < seconds {
        let pass_span = tr.begin("fmm_solve.pass", pass, NO_SPAN);
        let t_pass = Instant::now();
        let mut plans = Vec::with_capacity(probs.len());
        let (mut solve, mut plan_sum) = (0.0, 0.0);
        for (k, prob) in probs.iter().enumerate() {
            let key = pass * PROBLEMS + k as u64;
            let span = tr.begin("fmm.solve", key, pass_span);
            let t0 = Instant::now();
            let s = tr.begin("fmm.plan", key, span);
            let plan = FmmPlan::new(&prob.points, &prob.densities, Q, P, M2lMethod::Fft);
            tr.end(s);
            let t1 = Instant::now();
            let s = tr.begin("fmm.evaluate", key, span);
            let (pot, timings) = ev.evaluate_timed(&plan);
            tr.end(s);
            let t2 = Instant::now();
            tr.end(span);
            fmmlayer::phase_spans(tr, s, key, &timings);
            solve += (t2 - t0).as_secs_f64();
            plan_sum += (t1 - t0).as_secs_f64();
            same_bits(&mut report, &mut first[k], prob.name, &pot, "solve");
            if pass == 0 {
                let sampled: Vec<f64> = prob.sample.iter().map(|&i| pot[i]).collect();
                let err = relative_l2_error(&sampled, &prob.reference);
                rel_err = rel_err.max(err);
                report.gate(err <= REL_ERR_TOL, || {
                    format!(
                        "{}: sampled relative L2 error {err:.3e} above {REL_ERR_TOL:.0e}",
                        prob.name
                    )
                });
            }
            plans.push(plan);
        }
        let (mut eval, mut phases) = (0.0, [0.0; 5]);
        let mut per_problem = Vec::with_capacity(plans.len());
        for (k, (prob, plan)) in probs.iter().zip(&plans).enumerate() {
            let key = pass * PROBLEMS + k as u64;
            let s = tr.begin("fmm.reevaluate", key, pass_span);
            let t0 = Instant::now();
            let (pot, timings) = ev.evaluate_timed(plan);
            eval += t0.elapsed().as_secs_f64();
            tr.end(s);
            fmmlayer::phase_spans(tr, s, key, &timings);
            let secs = fmmlayer::phase_secs(&timings);
            for (acc, x) in phases.iter_mut().zip(secs) {
                *acc += x;
            }
            per_problem.push(secs);
            same_bits(&mut report, &mut first[k], prob.name, &pot, "re-evaluation");
        }
        pass_s.push(t_pass.elapsed().as_secs_f64());
        tr.end(pass_span);
        solve_s.push(solve);
        eval_s.push(eval);
        plan_s.push(plan_sum);
        phase_s.push(phases);
        report.attempted += 2 * PROBLEMS;

        if tr.enabled() {
            // Outside the pass's timing: the plan's stages one by one,
            // and once per run the one-thread evaluation, tree shapes and
            // profiles.
            let mut stages = [0.0; 3];
            for (k, prob) in probs.iter().enumerate() {
                let key = pass * PROBLEMS + k as u64;
                let s = fmmlayer::plan_stages(tr, key, &prob.points, &prob.densities, Q, P);
                for (acc, x) in stages.iter_mut().zip(s) {
                    *acc += x;
                }
            }
            stage_s.push(stages);
            if pass == 0 {
                par::set_thread_count(Some(1));
                let t = Instant::now();
                for plan in &plans {
                    black_box(ev.evaluate(plan));
                }
                eval_1t = t.elapsed().as_secs_f64();
                par::set_thread_count(Some(THREADS));
                for (k, ((prob, plan), secs)) in
                    probs.iter().zip(&plans).zip(&per_problem).enumerate()
                {
                    let stats = TreeStats::compute(&plan.tree, &plan.lists);
                    let s = tr.begin("instrument.profile", k as u64, NO_SPAN);
                    let t = Instant::now();
                    let profile = profile_plan(plan, &CostModel::default());
                    profile_s += t.elapsed().as_secs_f64();
                    tr.end(s);
                    sim_bytes += fmmlayer::simulated_bytes(&profile);
                    for (acc, x) in work.iter_mut().zip(fmmlayer::engine_work(&profile)) {
                        acc.0 += x.0;
                        acc.1 += x.1;
                    }
                    report.rows.push(fmmlayer::problem_row("fmm_solve", prob.name, &stats, secs));
                    trees.push(stats);
                }
            }
        }
        pass += 1;
    }

    report.unit_p50_us = median(&pass_s) * 1e6;
    report.unit_p99_us = quantile(&pass_s, 0.99) * 1e6;
    let eval_med = median(&eval_s);
    report.figures.insert("solve_s", median(&solve_s));
    report.figures.insert("eval_s", eval_med);
    report.figures.insert("rel_err", rel_err);
    report.figures.insert("error_rate", report.failed as f64 / report.attempted as f64);
    if tr.enabled() {
        let l = &mut report.layers;
        let column =
            |rows: &[[f64; 5]], i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        let secs: [f64; 5] = std::array::from_fn(|i| column(&phase_s, i));
        for (name, s) in fmmlayer::SECONDS.into_iter().zip(secs) {
            l.insert(name, s);
        }
        for (i, name) in ["fmm.tree_s", "fmm.lists_s", "fmm.m2l_setup_s"].into_iter().enumerate() {
            l.insert(name, median(&stage_s.iter().map(|s| s[i]).collect::<Vec<_>>()));
        }
        l.insert("fmm.plan_s", median(&plan_s));
        l.insert("fmm.evaluate_ms", eval_med * 1e3 / PROBLEMS as f64);
        fmmlayer::tree_counts(l, &trees);
        l.insert("par.efficiency", eval_1t / (THREADS as f64 * eval_med));
        l.insert("instrument.profile_ms", profile_s * 1e3);
        l.insert("instrument.bytes_per_s", sim_bytes / profile_s);
        if let Some(peaks) = peaks {
            fmmlayer::roofline(l, &work, &secs, peaks);
        }
    }
    Ok(report)
}
