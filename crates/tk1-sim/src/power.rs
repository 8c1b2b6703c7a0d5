//! The simulator's hidden ground-truth power/energy model.
//!
//! This is the "physics" of the simulated board — the thing the
//! energy-roofline model in `dvfs-energy-model` tries to *estimate* from
//! microbenchmark measurements.  Its structure follows the classic CMOS
//! relations the paper starts from (its equations 1–4):
//!
//! * dynamic energy per operation `ε_k = ĉ0,k · V²` (with `V` the voltage
//!   of the domain the operation lives in), perturbed by a small
//!   frequency-dependent activity nonlinearity that the fitted model does
//!   not capture — this is what gives cross-validation a realistic,
//!   non-zero error floor;
//! * leakage `c1,proc·Vproc + c1,mem·Vmem`, amplified by a steady-state
//!   thermal feedback (hotter silicon leaks more);
//! * an operation-independent `P_misc` for peripherals.
//!
//! Default constants are calibrated so the *derived* per-op energies
//! reproduce the paper's Table I (e.g. SP = 29.0 pJ at 1.030 V,
//! 16.2 pJ at 0.770 V; DRAM = 377.0 pJ at 1.010 V).

use crate::dvfs::{OperatingPoint, Setting};
use crate::ops::{OpClass, OpVector, ALL_CLASSES, NUM_OP_CLASSES};

/// Ground-truth constants of the simulated hardware.
#[derive(Debug, Clone)]
pub struct TruthConstants {
    /// `ĉ0` per op class, in pJ/V² (index = [`OpClass::index`]).
    pub c0_pj_per_v2: [f64; NUM_OP_CLASSES],
    /// Processor leakage coefficient, W per volt.
    pub c1_proc_w_per_v: f64,
    /// Memory leakage coefficient, W per volt.
    pub c1_mem_w_per_v: f64,
    /// Operation-independent constant power, W.
    pub p_misc_w: f64,
    /// Relative amplitude of the activity-factor nonlinearity: per-op
    /// energy is multiplied by `1 + amp·s_k·(x − ½) + curve·(x − ½)²`
    /// with `x = f/f_max` and `s_k = +1` for core-pipeline ops, `−1` for
    /// memory-system ops (clock gating behaves differently in the two
    /// domains).  The fitted model assumes `ε` depends on voltage only,
    /// so this term is irreducible model error — the paper's
    /// cross-validation error floor, largest when extrapolating to the
    /// extreme low-frequency settings (as in its 16-fold CV).
    pub nonlinearity_amp: f64,
    /// Quadratic term of the activity nonlinearity (see
    /// [`TruthConstants::nonlinearity_amp`]).
    pub nonlinearity_curve: f64,
    /// Thermal leakage feedback: leakage multiplier `1 + κ·(Θ − Θ_ref)`.
    pub thermal_kappa_per_k: f64,
    /// Thermal resistance junction→ambient, K/W.
    pub thermal_resistance_k_per_w: f64,
    /// Ambient temperature, °C.
    pub ambient_c: f64,
    /// Reference temperature at which `c1` was specified, °C.
    pub reference_temp_c: f64,
}

impl Default for TruthConstants {
    fn default() -> Self {
        TruthConstants {
            // Calibrated from Table I: ε(V) = ĉ0·V², so ĉ0 = ε(1.030 V)/1.030²
            // for core-domain ops and ε(1.010 V)/1.010² for DRAM.
            c0_pj_per_v2: [
                27.335, // SP   -> 29.0 pJ at 1.030 V
                131.12, // DP   -> 139.1 pJ
                56.56,  // INT  -> 60.0 pJ
                33.37,  // SM   -> 35.4 pJ
                33.37,  // L1 (same SRAM array as SM on Kepler)
                85.02,  // L2   -> 90.2 pJ
                369.57, // DRAM -> 377.0 pJ at 1.010 V
            ],
            c1_proc_w_per_v: 2.69,
            c1_mem_w_per_v: 3.85,
            p_misc_w: 0.126,
            nonlinearity_amp: 0.05,
            nonlinearity_curve: 0.06,
            thermal_kappa_per_k: 0.002,
            thermal_resistance_k_per_w: 3.0,
            ambient_c: 27.0,
            reference_temp_c: 45.0,
        }
    }
}

impl TruthConstants {
    /// A noiseless, perfectly linear variant (for pipeline sanity tests:
    /// fitting against this truth must recover the constants exactly).
    pub fn ideal() -> Self {
        TruthConstants::default().idealized()
    }

    /// This truth with all structural noise removed (nonlinearity and
    /// thermal feedback zeroed) — the per-device analogue of
    /// [`TruthConstants::ideal`].
    pub fn idealized(&self) -> Self {
        TruthConstants {
            nonlinearity_amp: 0.0,
            nonlinearity_curve: 0.0,
            thermal_kappa_per_k: 0.0,
            ..self.clone()
        }
    }

    /// True dynamic energy of one operation of `class` at an explicit
    /// operating point, in joules (including the activity nonlinearity,
    /// whose `x = f/f_max` needs the device's per-domain `f_max`).
    pub fn energy_per_op_at(
        &self,
        class: OpClass,
        op: &OperatingPoint,
        core_fmax_mhz: f64,
        mem_fmax_mhz: f64,
    ) -> f64 {
        let (v, f, fmax) = if class.is_mem_domain() {
            (op.mem.voltage_v, op.mem.freq_mhz, mem_fmax_mhz)
        } else {
            (op.core.voltage_v, op.core.freq_mhz, core_fmax_mhz)
        };
        let base = self.c0_pj_per_v2[class.index()] * 1e-12 * v * v;
        let x = f / fmax - 0.5;
        let sign = if class.is_compute() { 1.0 } else { -1.0 };
        base * (1.0 + self.nonlinearity_amp * sign * x + self.nonlinearity_curve * x * x)
    }

    /// True dynamic energy of one operation of `class` at a TK1 `setting`,
    /// in joules (including the activity nonlinearity).
    pub fn energy_per_op_j(&self, class: OpClass, setting: Setting) -> f64 {
        self.energy_per_op_at(class, &setting.operating_point(), 852.0, 924.0)
    }

    /// Nominal (reference-temperature) constant power at an operating
    /// point, W.
    pub fn nominal_constant_power_at(&self, op: &OperatingPoint) -> f64 {
        self.c1_proc_w_per_v * op.core.voltage_v
            + self.c1_mem_w_per_v * op.mem.voltage_v
            + self.p_misc_w
    }

    /// Nominal (reference-temperature) constant power at a TK1 `setting`, W.
    pub fn nominal_constant_power_w(&self, setting: Setting) -> f64 {
        self.nominal_constant_power_at(&setting.operating_point())
    }

    /// Constant power including the thermal leakage feedback, solved at
    /// the thermal steady state for a given total-power estimate.
    ///
    /// Steady state: `Θ = ambient + R_th · P_total`, and leakage scales by
    /// `1 + κ(Θ − Θ_ref)`.  The fixed point is solved by a few Picard
    /// iterations (κ·R_th ≪ 1, so this converges immediately).
    pub fn constant_power_at(&self, op: &OperatingPoint, dynamic_power_w: f64) -> f64 {
        let nominal_leak = self.nominal_constant_power_at(op) - self.p_misc_w;
        let mut leak = nominal_leak;
        for _ in 0..8 {
            let total = dynamic_power_w + leak + self.p_misc_w;
            let theta = self.ambient_c + self.thermal_resistance_k_per_w * total;
            leak =
                nominal_leak * (1.0 + self.thermal_kappa_per_k * (theta - self.reference_temp_c));
        }
        leak + self.p_misc_w
    }

    /// Constant power with thermal feedback at a TK1 `setting`, W.
    pub fn constant_power_w(&self, setting: Setting, dynamic_power_w: f64) -> f64 {
        self.constant_power_at(&setting.operating_point(), dynamic_power_w)
    }

    /// True dynamic energy of a whole op vector at a TK1 `setting`, J.
    pub fn dynamic_energy_j(&self, ops: &OpVector, setting: Setting) -> f64 {
        ALL_CLASSES.iter().map(|&c| ops.get(c) * self.energy_per_op_j(c, setting)).sum()
    }
}

/// Ground-truth energy decomposition of one execution (diagnostics and
/// figure generation only — never used for fitting).
#[derive(Debug, Clone)]
pub struct EnergyComponents {
    /// Dynamic energy per op class, J.
    pub dynamic_j: [f64; NUM_OP_CLASSES],
    /// Leakage + misc energy over the execution, J.
    pub constant_j: f64,
}

impl EnergyComponents {
    /// Total energy, J.
    pub fn total_j(&self) -> f64 {
        self.dynamic_j.iter().sum::<f64>() + self.constant_j
    }

    /// Total dynamic (computation + data) energy, J.
    pub fn dynamic_total_j(&self) -> f64 {
        self.dynamic_j.iter().sum()
    }

    /// Dynamic energy of the compute classes, J.
    pub fn computation_j(&self) -> f64 {
        crate::ops::COMPUTE_CLASSES.iter().map(|&c| self.dynamic_j[c.index()]).sum()
    }

    /// Dynamic energy of the memory classes, J.
    pub fn data_j(&self) -> f64 {
        crate::ops::MEMORY_CLASSES.iter().map(|&c| self.dynamic_j[c.index()]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_setting(core_mhz: f64, mem_mhz: f64) -> Setting {
        Setting::from_frequencies(core_mhz, mem_mhz).unwrap()
    }

    #[test]
    fn reproduces_table1_sp_energies() {
        // With the nonlinearity disabled, per-op energies must match the
        // paper's Table I at its tabulated settings.
        let truth = TruthConstants::ideal();
        let cases = [
            (852.0, OpClass::FlopSp, 29.0),
            (396.0, OpClass::FlopSp, 16.2),
            (756.0, OpClass::FlopSp, 24.7),
            (540.0, OpClass::FlopSp, 19.3),
            (852.0, OpClass::FlopDp, 139.1),
            (648.0, OpClass::FlopDp, 103.8),
            (852.0, OpClass::Int, 60.0),
            (852.0, OpClass::Shared, 35.4),
            (852.0, OpClass::L2, 90.2),
        ];
        for (core, class, expected_pj) in cases {
            let e = truth.energy_per_op_j(class, table1_setting(core, 924.0)) * 1e12;
            assert!(
                (e - expected_pj).abs() < 0.1,
                "{class:?} at {core} MHz: {e:.2} pJ != {expected_pj} pJ"
            );
        }
    }

    #[test]
    fn reproduces_table1_dram_energies() {
        let truth = TruthConstants::ideal();
        let cases = [(924.0, 377.0), (528.0, 286.2), (204.0, 236.5), (68.0, 236.5)];
        for (mem, expected_pj) in cases {
            let e = truth.energy_per_op_j(OpClass::Dram, table1_setting(852.0, mem)) * 1e12;
            assert!((e - expected_pj).abs() < 0.5, "DRAM at {mem} MHz: {e:.2} != {expected_pj}");
        }
    }

    #[test]
    fn reproduces_table1_constant_power_shape() {
        // Nominal constant power must land within ~0.15 W of Table I's
        // column for the training rows (the paper's own values carry
        // measurement noise of similar size).
        let truth = TruthConstants::ideal();
        let cases = [
            (852.0, 924.0, 6.8),
            (396.0, 924.0, 6.1),
            (852.0, 528.0, 6.3),
            (648.0, 528.0, 5.9),
            (396.0, 528.0, 5.6),
            (852.0, 204.0, 6.0),
            (648.0, 204.0, 5.6),
            (396.0, 204.0, 5.2),
        ];
        for (core, mem, expected_w) in cases {
            let p = truth.nominal_constant_power_w(table1_setting(core, mem));
            assert!(
                (p - expected_w).abs() < 0.15,
                "π0 at {core}/{mem}: {p:.2} W != {expected_w} W"
            );
        }
    }

    #[test]
    fn energy_scales_with_v_squared() {
        let truth = TruthConstants::ideal();
        let hi = truth.energy_per_op_j(OpClass::FlopSp, table1_setting(852.0, 924.0));
        let lo = truth.energy_per_op_j(OpClass::FlopSp, table1_setting(396.0, 924.0));
        let ratio = (1.030f64 / 0.770).powi(2);
        assert!((hi / lo - ratio).abs() < 1e-12);
    }

    #[test]
    fn nonlinearity_perturbs_by_a_few_percent() {
        let truth = TruthConstants::default();
        let ideal = TruthConstants::ideal();
        let s = table1_setting(852.0, 924.0);
        let e = truth.energy_per_op_j(OpClass::FlopSp, s);
        let e0 = ideal.energy_per_op_j(OpClass::FlopSp, s);
        let rel = (e / e0 - 1.0).abs();
        assert!(rel > 0.01 && rel < 0.25, "nonlinearity is a structural few-to-ten percent: {rel}");
    }

    #[test]
    fn thermal_feedback_raises_leakage_under_load() {
        let truth = TruthConstants::default();
        let s = table1_setting(852.0, 924.0);
        let idle = truth.constant_power_w(s, 0.0);
        let loaded = truth.constant_power_w(s, 5.0);
        assert!(loaded > idle, "leakage grows with temperature");
        assert!((loaded - idle) / idle < 0.1, "but only by a few percent");
    }

    #[test]
    fn dynamic_energy_sums_over_classes() {
        let truth = TruthConstants::ideal();
        let s = table1_setting(852.0, 924.0);
        let ops = OpVector::from_pairs(&[(OpClass::FlopSp, 1e9), (OpClass::Dram, 1e8)]);
        let e = truth.dynamic_energy_j(&ops, s);
        let expected = 1e9 * 29.0e-12 + 1e8 * 377.0e-12;
        assert!((e - expected).abs() / expected < 1e-3);
    }

    #[test]
    fn components_partition_total() {
        let c =
            EnergyComponents { dynamic_j: [1.0, 2.0, 3.0, 0.5, 0.25, 0.5, 4.0], constant_j: 10.0 };
        assert_eq!(c.total_j(), 21.25);
        assert_eq!(c.computation_j(), 6.0);
        assert_eq!(c.data_j(), 5.25);
        assert_eq!(c.dynamic_total_j(), 11.25);
    }
}
