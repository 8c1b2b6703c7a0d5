//! `stream_drift`: time-stepping at the pinned stream geometry
//! (n = 1536, q = 48, churn 0.008, steps of up to 3% of the domain).
//!
//! Each step runs `DynamicOctree::advance`, evaluates the maintained
//! plan, profiles it with `profile_plan`, and executes the profile under
//! a `GovernorRuntime` with the `PerPhaseModel` policy.  Steps run in
//! cycles of 500 from the same initial cloud, so every complete cycle
//! spends the same governed energy; after the steps `run_suite` runs the
//! burst and tenant scenarios with 300 burst requests.  The unit of work
//! is the step.
//!
//! The set-up (a cold fit, the initial plan and the governor runtime) is
//! timed [`SETUPS`] times, spread evenly over the run between steps, so
//! its median samples the host over the whole run rather than over its
//! first half second.
//!
//! `p99_us` is the median over windows of [`TAIL_WINDOW`] steps of each
//! window's 99th percentile.  Steps do the same work, so their plain tail
//! over a run is set by the few seconds in which the host stalled them.
//!
//! Gates: every 25th step of the first cycle has potentials equal, bit
//! for bit, to those of a from-scratch `FmmPlan::new` at the same
//! positions, and the same step of every later cycle has the first
//! cycle's potentials; every complete cycle's energy equals the first's;
//! the suite misses no deadline.

use crate::fmmlayer;
use crate::host::HostPeaks;
use crate::report::Report;
use crate::serve_open::fit_breakdown;
use crate::stats::{digest, median, quantile, windowed_quantile};
use crate::trace::{Tracer, NO_SPAN};
use compat::rng::StdRng;
use dvfs_autoserve::Rig;
use dvfs_energy_model::{service_grid, EnergyModel};
use dvfs_governor::{GovernorRuntime, PerPhaseModel, Workload};
use dvfs_stream::{run_suite, DynamicConfig, DynamicOctree, MotionModel, StreamConfig};
use kifmm::evaluator::FmmPlan;
use kifmm::{profile_plan, CostModel, FmmEvaluator, TreeStats};
use std::hint::black_box;
use std::time::Instant;
use tk1_sim::mix64;

const N: usize = 1536;
const Q: usize = 48;
const CHURN: f64 = 0.008;
const STEP_FRAC: f64 = 0.03;
const CYCLE_STEPS: u64 = 500;
const CHECK_EVERY: u64 = 25;
const BURST_REQUESTS: usize = 300;
const SETUPS: usize = 11;
/// Steps per window of the `p99_us` tail: about 1.6 s of steps, so a run
/// of 30 s has 18 windows and its traced half 9.
const TAIL_WINDOW: usize = 100;

/// A seeded uniform cloud with densities in [-1, 1).
fn cloud(seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..N).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
    let densities = (0..N).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
    (points, densities)
}

pub fn run(
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    peaks: Option<&HostPeaks>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let (points, densities) = cloud(seed ^ 0xD21F7);
    let dyn_cfg = DynamicConfig { q: Q, ..DynamicConfig::default() };
    let motion = MotionModel { seed: seed ^ 0x3071_0AE2, churn: CHURN, step_frac: STEP_FRAC };
    let board = mix64(seed ^ 0x57EA);
    let fresh = |model: &EnergyModel| {
        (
            DynamicOctree::new(&points, &densities, dyn_cfg),
            GovernorRuntime::new(model.clone(), service_grid(), seed ^ 0x60E, None),
        )
    };

    // Set-up: the energy model from a cold fit of one board, the initial
    // plan and the governor runtime.
    let (mut setups, mut fit_ms) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let set_up = |setups: &mut Vec<f64>, fit_ms: &mut Vec<f64>| -> Result<_, String> {
        let t = Instant::now();
        let rig =
            Rig::cold_fit(board, None).map_err(|e| format!("cold fit of board {board}: {e}"))?;
        fit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let (dt, runtime) = fresh(&rig.model);
        setups.push(t.elapsed().as_secs_f64());
        Ok((rig.model, dt, runtime))
    };
    let (model, dt, runtime) = set_up(&mut setups, &mut fit_ms)?;
    let initial = TreeStats::compute(&dt.plan().tree, &dt.plan().lists);

    let ev = FmmEvaluator::new();
    let cost = CostModel::default();
    let (mut step_s, mut advance_s, mut eval_s, mut profile_s, mut govern_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut plan_s, mut stage_s) = (Vec::new(), Vec::new());
    let (mut phase_sum, mut work, mut sim_bytes) = ([0.0; 5], [(0.0, 0.0); 5], 0.0);
    let mut cycle_energy: Vec<f64> = Vec::new();
    let mut first_cycle = None;
    // The first cycle's every CHECK_EVERY-th step: positions and
    // potentials, verified after the timed steps so the reference builds
    // cannot perturb them, and the potentials' digest, which the same
    // step of every later cycle must reproduce.
    let mut checks: Vec<(u64, Vec<[f64; 3]>, Vec<f64>)> = Vec::new();
    let mut check_digests: Vec<u64> = Vec::new();
    let mut next = Some((dt, runtime));

    let start = Instant::now();
    let mut step = 0u64;
    'run: for cycle in 0u64.. {
        let (mut dt, mut runtime) = next.take().unwrap_or_else(|| fresh(&model));
        let mut energy = 0.0;
        for k in 0..CYCLE_STEPS {
            let elapsed = start.elapsed().as_secs_f64();
            if cycle > 0 && elapsed >= seconds {
                break 'run;
            }
            if setups.len() < SETUPS && elapsed >= seconds * setups.len() as f64 / SETUPS as f64 {
                black_box(set_up(&mut setups, &mut fit_ms)?);
            }
            let span = tr.begin("stream.step", step, NO_SPAN);
            let t0 = Instant::now();
            let s = tr.begin("stream.advance", step, span);
            dt.advance(&motion);
            tr.end(s);
            let t1 = Instant::now();
            let s = tr.begin("fmm.evaluate", step, span);
            let (pot, timings) = ev.evaluate_timed(dt.plan());
            tr.end(s);
            fmmlayer::phase_spans(tr, s, step, &timings);
            let t2 = Instant::now();
            let s = tr.begin("instrument.profile", step, span);
            let profile = profile_plan(dt.plan(), &cost);
            tr.end(s);
            let t3 = Instant::now();
            let s = tr.begin("governor.run", step, span);
            let governed =
                runtime.run(&Workload::from_profile(&profile, 1), &mut PerPhaseModel::new());
            tr.end(s);
            let t4 = Instant::now();
            tr.end(span);

            step_s.push((t4 - t0).as_secs_f64());
            advance_s.push((t1 - t0).as_secs_f64());
            eval_s.push((t2 - t1).as_secs_f64());
            profile_s.push((t3 - t2).as_secs_f64());
            govern_s.push((t4 - t3).as_secs_f64());
            energy += governed.total_energy_j;
            for (acc, x) in phase_sum.iter_mut().zip(fmmlayer::phase_secs(&timings)) {
                *acc += x;
            }
            if tr.enabled() {
                sim_bytes += fmmlayer::simulated_bytes(&profile);
                for (acc, x) in work.iter_mut().zip(fmmlayer::engine_work(&profile)) {
                    acc.0 += x.0;
                    acc.1 += x.1;
                }
            }
            report.attempted += 1;
            if (k + 1) % CHECK_EVERY == 0 {
                let d = digest(&pot);
                if cycle == 0 {
                    check_digests.push(d);
                    checks.push((step, dt.positions().to_vec(), pot));
                } else if d != check_digests[(k / CHECK_EVERY) as usize] {
                    report.failed += 1;
                    report.violations.push(format!(
                        "step {step}: potentials differ from the first cycle's step {k}"
                    ));
                }
            }
            step += 1;
        }
        cycle_energy.push(energy);
        if cycle == 0 {
            first_cycle = Some(dt.stats());
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    for (step, positions, pot) in &checks {
        let t = Instant::now();
        let plan = FmmPlan::new(positions, &densities, Q, dyn_cfg.p, dyn_cfg.method);
        plan_s.push(t.elapsed().as_secs_f64());
        let scratch = ev.evaluate(&plan);
        let same = scratch.len() == pot.len()
            && scratch.iter().zip(pot).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            report.failed += 1;
            report.violations.push(format!(
                "step {step}: maintained potentials differ from a from-scratch plan"
            ));
        }
        if tr.enabled() {
            stage_s.push(fmmlayer::plan_stages(tr, *step, positions, &densities, Q, dyn_cfg.p));
        }
    }

    let s = tr.begin("stream.run_suite", 0, NO_SPAN);
    let t = Instant::now();
    let suite_cfg =
        StreamConfig { seed, steps: 0, requests: BURST_REQUESTS, ..StreamConfig::default() };
    let suite = run_suite(&model, &suite_cfg);
    let suite_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(s);

    let misses = suite.burst.deadline_misses + suite.tenants.deadline_misses;
    report.setup_s = median(&setups);
    report.gate(misses == 0, || format!("run_suite missed {misses} deadlines"));
    let first_energy = cycle_energy[0];
    report.gate(cycle_energy.iter().all(|e| e.to_bits() == first_energy.to_bits()), || {
        format!("cycle energies differ: {cycle_energy:?}")
    });

    report.unit_p50_us = median(&step_s) * 1e6;
    report.unit_p99_us = windowed_quantile(&step_s, TAIL_WINDOW, 0.99) * 1e6;
    report.figures.insert("step_p50_ms", median(&step_s) * 1e3);
    report.figures.insert("step_p98_ms", quantile(&step_s, 0.98) * 1e3);
    report.figures.insert("energy_j", first_energy + suite.burst.energy_j);
    report.figures.insert("deadline_misses", misses as f64);
    report.figures.insert("error_rate", report.failed as f64 / report.attempted as f64);

    if tr.enabled() {
        let stats = first_cycle.expect("the first cycle always completes");
        let steps = step_s.len() as f64;
        let l = &mut report.layers;
        l.insert("stream.advance_ms", median(&advance_s) * 1e3);
        l.insert("stream.in_place_ratio", stats.in_place as f64 / stats.steps as f64);
        l.insert("stream.rebuilds", stats.rebuilds as f64);
        l.insert("stream.migrants", stats.migrants as f64);
        l.insert("fmm.evaluate_ms", median(&eval_s) * 1e3);
        let secs = phase_sum.map(|s| s / steps);
        for (name, s) in fmmlayer::SECONDS.into_iter().zip(secs) {
            l.insert(name, s);
        }
        l.insert("fmm.plan_s", median(&plan_s));
        for (i, name) in ["fmm.tree_s", "fmm.lists_s", "fmm.m2l_setup_s"].into_iter().enumerate() {
            l.insert(name, median(&stage_s.iter().map(|s: &[f64; 3]| s[i]).collect::<Vec<_>>()));
        }
        fmmlayer::tree_counts(l, std::slice::from_ref(&initial));
        l.insert("instrument.profile_ms", median(&profile_s) * 1e3);
        l.insert("instrument.bytes_per_s", sim_bytes / profile_s.iter().sum::<f64>());
        l.insert("governor.run_ms", median(&govern_s) * 1e3);
        l.insert("governor.arbiter_ms", suite_ms);
        l.insert("autoserve.cold_fit_ms", median(&fit_ms));
        if let Some(peaks) = peaks {
            let per_step = work.map(|(f, b)| (f / steps, b / steps));
            fmmlayer::roofline(l, &per_step, &secs, peaks);
        }
        report.rows.push(fmmlayer::problem_row("stream_drift", "initial", &initial, &secs));
        fit_breakdown(&[board], tr, &mut report.layers)?;
    }
    Ok(report)
}
