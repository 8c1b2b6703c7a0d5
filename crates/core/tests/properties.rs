//! Property-based tests for the energy model's algebraic invariants.

use compat::prop::prelude::*;
use dvfs_energy_model::{EnergyModel, PrefetchScenario};
use tk1_sim::{OpClass, OpVector, Setting, NUM_OP_CLASSES};

fn model() -> impl Strategy<Value = EnergyModel> {
    (compat::prop::array::uniform7(1.0f64..500.0), 0.5f64..5.0, 0.5f64..5.0, 0.0f64..2.0).prop_map(
        |(c0, c1p, c1m, pmisc)| {
            let mut c0_arr = [0.0; NUM_OP_CLASSES];
            c0_arr.copy_from_slice(&c0);
            EnergyModel {
                c0_pj_per_v2: c0_arr,
                c1_proc_w_per_v: c1p,
                c1_mem_w_per_v: c1m,
                p_misc_w: pmisc,
            }
        },
    )
}

fn ops() -> impl Strategy<Value = OpVector> {
    compat::prop::array::uniform7(0.0f64..1e9).prop_map(|counts| {
        OpVector::from_pairs(&[
            (OpClass::FlopSp, counts[0]),
            (OpClass::FlopDp, counts[1]),
            (OpClass::Int, counts[2]),
            (OpClass::Shared, counts[3]),
            (OpClass::L1, counts[4]),
            (OpClass::L2, counts[5]),
            (OpClass::Dram, counts[6]),
        ])
    })
}

fn setting() -> impl Strategy<Value = Setting> {
    (0usize..15, 0usize..7).prop_map(|(c, m)| Setting::new(c, m))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prediction_is_linear_in_ops(m in model(), a in ops(), b in ops(), s in setting(), t in 0.0f64..10.0) {
        // E(a + b, t1 + t2) = E(a, t1) + E(b, t2): eq. 9 is linear.
        let mut ab = a;
        ab.accumulate(&b);
        let lhs = m.predict_energy_j(&ab, s, 2.0 * t);
        let rhs = m.predict_energy_j(&a, s, t) + m.predict_energy_j(&b, s, t);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * lhs.max(1e-12));
    }

    #[test]
    fn breakdown_components_sum_to_total(m in model(), o in ops(), s in setting(), t in 0.0f64..10.0) {
        let b = m.predict_breakdown(&o, s, t);
        let total = b.computation_j() + b.data_j() + b.constant_j;
        prop_assert!((total - b.total_j()).abs() <= 1e-12 * total.max(1e-12));
        prop_assert!(b.constant_share() >= 0.0 && b.constant_share() <= 1.0);
    }

    #[test]
    fn energy_grows_with_time(m in model(), o in ops(), s in setting(), t in 0.01f64..10.0) {
        let e1 = m.predict_energy_j(&o, s, t);
        let e2 = m.predict_energy_j(&o, s, t * 2.0);
        prop_assert!(e2 >= e1, "constant power only adds energy with time");
    }

    #[test]
    fn per_op_energy_scales_with_square_of_voltage(m in model(), s in setting()) {
        for class in tk1_sim::ops::ALL_CLASSES {
            let op = s.operating_point();
            let v = if class.is_mem_domain() { op.mem.voltage_v } else { op.core.voltage_v };
            let expected = m.c0_pj_per_v2[class.index()] * 1e-12 * v * v;
            prop_assert!((m.energy_per_op_j(class, s) - expected).abs() < 1e-24);
        }
    }

    #[test]
    fn table1_row_is_consistent_with_per_op_energies(m in model(), s in setting()) {
        let (sp, dp, int, sm, l2, dram, pi0) = m.table1_row(s);
        prop_assert!((sp - m.energy_per_op_j(OpClass::FlopSp, s) * 1e12).abs() < 1e-9);
        prop_assert!((dp - m.energy_per_op_j(OpClass::FlopDp, s) * 1e12).abs() < 1e-9);
        prop_assert!((int - m.energy_per_op_j(OpClass::Int, s) * 1e12).abs() < 1e-9);
        prop_assert!((sm - m.energy_per_op_j(OpClass::Shared, s) * 1e12).abs() < 1e-9);
        prop_assert!((l2 - m.energy_per_op_j(OpClass::L2, s) * 1e12).abs() < 1e-9);
        prop_assert!((dram - m.energy_per_op_j(OpClass::Dram, s) * 1e12).abs() < 1e-9);
        prop_assert!((pi0 - m.constant_power_w(s)).abs() < 1e-12);
    }

    #[test]
    fn prefetch_verdict_accounting_balances(
        m in model(),
        o in ops(),
        unused in 0.0f64..0.99,
        slowdown in 1.0f64..2.0,
        t in 0.001f64..1.0,
    ) {
        let s = Setting::max_performance();
        let v = dvfs_energy_model::prefetch_whatif(
            &m,
            &PrefetchScenario { ops: o, time_s: t, unused_fraction: unused, slowdown },
            s,
        );
        // savings = avoided DRAM − added constant (exactly, by eq. 9).
        let recon = v.avoided_dram_j - v.added_constant_j;
        prop_assert!((v.savings_j - recon).abs() <= 1e-9 * v.energy_on_j.max(1e-12),
            "{} vs {}", v.savings_j, recon);
        prop_assert!(v.energy_on_j >= 0.0 && v.energy_off_j >= 0.0);
    }

    #[test]
    fn error_stats_bounds(errors in compat::prop::collection::vec(-0.5f64..0.5, 1..100)) {
        let stats = dvfs_energy_model::ErrorStats::from_relative_errors(&errors);
        prop_assert!(stats.min_pct <= stats.mean_pct + 1e-12);
        prop_assert!(stats.mean_pct <= stats.max_pct + 1e-12);
        prop_assert!(stats.min_pct >= 0.0);
        prop_assert_eq!(stats.count, errors.len());
    }
}
