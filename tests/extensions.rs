//! Integration tests for the extension features (DESIGN.md A-series and
//! beyond): rooflines, governors, bootstrap uncertainty, model-structure
//! ablation, forces, and kernel independence — all through the public
//! facade.

use fmm_energy::governor::{PhaseTask, RaceToHalt};
use fmm_energy::model::experiments::SYSTEM_SETTINGS;
use fmm_energy::prelude::*;

fn fitted() -> (EnergyModel, Dataset) {
    let dataset = run_sweep(&SweepConfig { seed: 0xE57, faults: None, ..SweepConfig::default() });
    (fit_model(dataset.training()).model, dataset)
}

#[test]
fn roofline_energy_balance_sits_right_of_time_balance() {
    let (model, _) = fitted();
    let roofline = EnergyRoofline::new(&model);
    for sys in SYSTEM_SETTINGS {
        let p = roofline.at(sys.setting());
        assert!(
            p.energy_balance > p.time_balance,
            "{}: B_ε {:.1} vs B_τ {:.1}",
            sys.id,
            p.energy_balance,
            p.time_balance
        );
    }
}

#[test]
fn model_based_governor_never_loses_to_race_to_halt() {
    let (model, _) = fitted();
    let tasks = [1.0, 8.0, 64.0]
        .iter()
        .map(|&a| PhaseTask {
            phase: Phase::U,
            kernel: MicrobenchKind::SinglePrecision.instance(a).kernel().clone(),
        })
        .collect();
    let workload = Workload { tasks, rounds: 1 };
    let run = |policy: &mut dyn Policy| {
        GovernorRuntime::new(model.clone(), Setting::all().collect(), 8, None)
            .run(&workload, policy)
            .total_energy_j
    };
    let race = run(&mut RaceToHalt);
    let model_run = run(&mut PerPhaseModel::new());
    assert!(model_run <= race * 1.02, "model {model_run} J vs race {race} J");
}

#[test]
fn bootstrap_quantifies_the_dp_conditioning_problem() {
    let (_, dataset) = fitted();
    let report = fmm_energy::model::bootstrap_fit(&dataset, 16, 3);
    let sp = report.c0_of(OpClass::FlopSp);
    let dp = report.c0_of(OpClass::FlopDp);
    assert!(sp.lo <= sp.hi && dp.lo <= dp.hi);
    assert!(
        dp.relative_half_width() > sp.relative_half_width(),
        "ε_DP is harder to identify than ε_SP"
    );
}

#[test]
fn model_ablation_orders_by_expressiveness() {
    let (_, dataset) = fitted();
    let rows = fmm_energy::model::model_structure_ablation(&dataset);
    assert!(rows[0].holdout.mean_pct < rows[1].holdout.mean_pct);
    assert!(rows[1].holdout.mean_pct < rows[2].holdout.mean_pct);
}

#[test]
fn forces_and_kernel_independence_through_the_facade() {
    use fmm_energy::fmm::distributions::plummer;
    let pts = plummer(800, 0.08, 40);
    let den: Vec<f64> = (0..pts.len()).map(|i| ((i % 5) as f64) - 2.0).collect();
    // Laplace with gradients.
    let plan = FmmPlan::new(&pts, &den, 32, 4, M2lMethod::Fft);
    let (pot, grad) = FmmEvaluator::new().evaluate_with_gradient(&plan);
    assert_eq!(pot.len(), pts.len());
    assert_eq!(grad.len(), pts.len());
    assert!(grad.iter().any(|g| g.iter().any(|&c| c != 0.0)));
    // Yukawa through the same machinery.
    let kernel = YukawaKernel::new(2.0);
    let yplan = FmmPlan::with_kernel(kernel, &pts, &den, 32, 4, M2lMethod::Fft);
    let ypot = FmmEvaluator::new().evaluate(&yplan);
    let direct = direct_sum_with(&kernel, &pts, &den);
    assert!(relative_l2_error(&ypot, &direct) < 1e-2);
}

#[test]
fn csv_round_trip_through_the_facade() {
    let (_, dataset) = fitted();
    let csv = to_csv(&dataset);
    let back = from_csv(&csv).expect("parse own output");
    assert_eq!(back.len(), dataset.len());
}
