//! The executable device: operating-point selection and kernel execution.
//!
//! A [`Device`] is the simulated board.  Executing a [`KernelProfile`]
//! produces an [`Execution`]: the realized wall-clock duration (with
//! run-to-run jitter), the true energy decomposition, and an
//! instantaneous-power waveform that a power meter (see `powermon-sim`)
//! can sample — mirroring how the paper's measurements flow from the
//! PowerMon 2 device sitting between the supply and the board.

use std::sync::Arc;

use crate::dvfs::Setting;
use crate::faults::{FaultInjector, LatchOutcome};
use crate::kernel::KernelProfile;
use crate::ops::ALL_CLASSES;
use crate::power::{EnergyComponents, TruthConstants};
use crate::rng::Noise;
use crate::spec::DeviceSpec;
use crate::timing::{TimingBreakdown, TimingModel};

/// A simulated board instantiated from a catalog [`DeviceSpec`] (the
/// default constructor builds the Jetson TK1 entry).
///
/// ```
/// use tk1_sim::{Device, KernelProfile, OpClass, OpVector, Setting};
///
/// let mut board = Device::new(42);
/// board.set_operating_point(Setting::from_frequencies(612.0, 528.0).unwrap());
/// let kernel = KernelProfile::new(
///     "saxpy",
///     OpVector::from_pairs(&[(OpClass::FlopSp, 1e9), (OpClass::Dram, 3e7)]),
/// );
/// let run = board.execute(&kernel);
/// assert!(run.duration_s > 0.0);
/// assert!(run.true_energy_j() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    timing: TimingModel,
    truth: TruthConstants,
    setting: Setting,
    noise: Noise,
    /// Relative run-to-run execution-time jitter (σ).
    time_jitter_rel: f64,
    /// Relative run-to-run dynamic-power fluctuation (σ): data-dependent
    /// switching-activity variation the model cannot see.
    activity_noise_rel: f64,
    executions: u64,
    /// Seeded fault source (DVFS latch failures, throttle episodes).
    injector: Option<FaultInjector>,
    /// The setting the driver last *asked* for (may differ from the
    /// applied one under latch faults).
    requested: Setting,
    /// DVFS write attempts so far; keys the latch-fault draws so a
    /// retried write can deterministically succeed.
    latch_attempts: u64,
    /// The catalog descriptor this device was instantiated from.
    spec: Arc<DeviceSpec>,
}

impl Device {
    /// Creates a TK1 with default (Table I-calibrated) ground truth.
    pub fn new(seed: u64) -> Self {
        Device::from_spec(&crate::catalog::tk1(), seed)
    }

    /// Instantiates a catalog device: its DVFS tables, roofline peaks,
    /// hidden truth, and noise magnitudes all come from the spec.
    pub fn from_spec(spec: &Arc<DeviceSpec>, seed: u64) -> Self {
        Device {
            timing: TimingModel::for_device(spec),
            truth: spec.truth.clone(),
            setting: spec.max_performance(),
            noise: Noise::new(seed),
            time_jitter_rel: spec.time_jitter_rel,
            activity_noise_rel: spec.activity_noise_rel,
            executions: 0,
            injector: None,
            requested: spec.max_performance(),
            latch_attempts: 0,
            spec: spec.clone(),
        }
    }

    /// Creates a TK1 with explicit ground-truth constants.
    pub fn with_truth(truth: TruthConstants, seed: u64) -> Self {
        let mut d = Device::from_spec(&crate::catalog::tk1(), seed);
        d.truth = truth;
        d
    }

    /// A noiseless, ideal-truth TK1 (pipeline sanity tests).
    pub fn ideal(seed: u64) -> Self {
        let mut d = Device::with_truth(TruthConstants::ideal(), seed);
        d.time_jitter_rel = 0.0;
        d.activity_noise_rel = 0.0;
        d
    }

    /// The catalog descriptor this device was instantiated from.
    pub fn spec(&self) -> &Arc<DeviceSpec> {
        &self.spec
    }

    /// Attaches (or removes) a fault injector.  With one attached, DVFS
    /// writes can fail to latch and executions can hit throttle
    /// episodes; without one, behavior is bitwise-identical to before.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// Selects a DVFS operating point (the equivalent of writing the
    /// sysfs frequency knobs on the real board).
    ///
    /// Under an attached fault injector the write may be lost or latch
    /// to a neighboring table entry; [`Device::operating_point`] reports
    /// what actually applied (the sysfs read-back), so callers that
    /// verify-and-retry observe the fault and can re-issue the write.
    pub fn set_operating_point(&mut self, setting: Setting) {
        self.requested = setting;
        let outcome = match &self.injector {
            Some(inj) => {
                self.latch_attempts += 1;
                inj.latch_outcome_in(
                    self.latch_attempts,
                    setting,
                    self.spec.n_core(),
                    self.spec.n_mem(),
                )
            }
            None => LatchOutcome::Applied,
        };
        match outcome {
            LatchOutcome::Applied => self.setting = setting,
            LatchOutcome::Stuck => {}
            LatchOutcome::Neighbor(s) => self.setting = s,
        }
    }

    /// The *applied* operating point (what reading the sysfs frequency
    /// knobs back would report) — equals the requested one except when a
    /// latch fault intervened.
    pub fn operating_point(&self) -> Setting {
        self.setting
    }

    /// The operating point last requested via
    /// [`Device::set_operating_point`].
    pub fn requested_operating_point(&self) -> Setting {
        self.requested
    }

    /// The timing model (shared with analysis code that needs to *predict*
    /// times rather than measure them).
    pub fn timing_model(&self) -> &TimingModel {
        &self.timing
    }

    /// The hidden ground truth.  Only diagnostics/figure code may use
    /// this; the fitting pipeline must not (and does not).
    pub fn ground_truth(&self) -> &TruthConstants {
        &self.truth
    }

    /// Number of kernels executed so far.
    pub fn execution_count(&self) -> u64 {
        self.executions
    }

    /// Executes a kernel at the current operating point.
    pub fn execute(&mut self, kernel: &KernelProfile) -> Execution {
        self.executions += 1;
        let breakdown = self.timing.execution_time(kernel, self.setting);
        let jitter = if self.time_jitter_rel > 0.0 {
            (1.0 + self.noise.normal(0.0, self.time_jitter_rel)).max(0.5)
        } else {
            1.0
        };
        // A thermal-throttle episode stretches the realized duration: the
        // clocks degrade mid-run, the work still completes.  Dynamic
        // energy is unchanged (same switched capacitance) while constant
        // energy grows with the longer residency — which is exactly why
        // the sweep's time gate must catch and retry these runs.
        let throttle = self
            .injector
            .as_ref()
            .and_then(|inj| inj.throttle_episode(self.executions))
            .unwrap_or(1.0);
        let duration_s = breakdown.total_s * jitter * throttle;

        // True energy decomposition at this setting.  The activity factor
        // (the `A` of P = C·V²·A·f, which the model must assume constant)
        // actually varies with the kernel's data/instruction mix and with
        // how the mix maps onto the units at each clock: a deterministic
        // per-kernel deviation, a smaller per-(kernel, setting) one, and
        // white run-to-run noise.  These deviations are the model's
        // irreducible application-dependent error.
        let activity = if self.activity_noise_rel > 0.0 {
            let per_kernel = 0.08 * hash_unit(&kernel.name, 0, 0);
            let per_setting =
                0.05 * hash_unit(&kernel.name, self.setting.core_idx + 1, self.setting.mem_idx + 1);
            (1.0 + per_kernel + per_setting + self.noise.normal(0.0, self.activity_noise_rel))
                .max(0.5)
        } else {
            1.0
        };
        let op = self.spec.operating_point(self.setting);
        let (core_fmax, mem_fmax) = (self.spec.core_fmax_mhz(), self.spec.mem_fmax_mhz());
        let mut dynamic_j = [0.0; crate::ops::NUM_OP_CLASSES];
        for &class in &ALL_CLASSES {
            dynamic_j[class.index()] = activity
                * kernel.ops.get(class)
                * self.truth.energy_per_op_at(class, &op, core_fmax, mem_fmax);
        }
        let dynamic_total: f64 = dynamic_j.iter().sum();
        let dynamic_power = if duration_s > 0.0 { dynamic_total / duration_s } else { 0.0 };
        // "Constant" power is itself an idealization: how much of the idle
        // machinery a kernel keeps un-gated depends on the kernel and on
        // the clock domain ratios.  Model that as deterministic
        // per-kernel / per-(kernel, setting) deviations around eq. 8 —
        // the single largest modeling error the paper's π0 term carries.
        // The deviation is per (kernel, setting): how the clock-domain
        // ratio interleaves a given kernel's stalls determines what stays
        // un-gated.  (A per-kernel *family* bias would be structurally
        // unidentifiable from the family's per-op coefficient — within a
        // family, time is proportional to op counts — so the same physics
        // that would alias into the paper's fit is kept out of ours.)
        // The deviation magnitude grows with the kernel's idle fraction:
        // a saturating microbenchmark leaves little machinery un-gated
        // (small wobble), while a ~25%-utilization application like the
        // FMM exposes most of the "constant" machinery to residency
        // effects.  This is why the paper's FMM validation errors (mean
        // 6.17%) exceed its microbenchmark CV errors (2.87%).
        let sigma = 0.03 + 0.10 * (1.0 - kernel.utilization);
        let constant_deviation = if self.activity_noise_rel > 0.0 {
            1.0 + sigma
                * hash_unit(
                    &kernel.name,
                    0x2000 + self.setting.core_idx,
                    0x3000 + self.setting.mem_idx,
                )
        } else {
            1.0
        };
        let constant_power = self.truth.constant_power_at(&op, dynamic_power) * constant_deviation;
        let components = EnergyComponents { dynamic_j, constant_j: constant_power * duration_s };

        Execution {
            kernel_name: kernel.name.clone(),
            setting: self.setting,
            duration_s,
            avg_power_w: components.total_j() / duration_s.max(f64::MIN_POSITIVE),
            components,
            timing: breakdown,
            ripple_phase: self.noise.uniform() * std::f64::consts::TAU,
        }
    }

    /// Idle power at the current setting (what a meter reads between
    /// kernels), W.
    pub fn idle_power_w(&self) -> f64 {
        self.truth.constant_power_at(&self.spec.operating_point(self.setting), 0.0)
    }
}

/// Deterministic pseudo-random value in `[-1, 1]` from a kernel name and
/// a pair of salts (FNV-1a over the inputs).
fn hash_unit(name: &str, salt_a: usize, salt_b: usize) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for b in name.bytes() {
        eat(b);
    }
    for b in (salt_a as u64).to_le_bytes() {
        eat(b);
    }
    for b in (salt_b as u64).to_le_bytes() {
        eat(b);
    }
    // Map the top 53 bits to [0, 1), then to [-1, 1].
    ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

/// The realized execution of one kernel.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Name of the executed kernel.
    pub kernel_name: String,
    /// Operating point it ran at.
    pub setting: Setting,
    /// Realized wall-clock duration (including jitter), seconds.
    pub duration_s: f64,
    /// True average power over the execution, W.
    pub avg_power_w: f64,
    /// True energy decomposition (hidden from fitting).
    pub components: EnergyComponents,
    /// Timing decomposition from the roofline model.
    pub timing: TimingBreakdown,
    /// Random phase of the supply ripple for this execution.
    ripple_phase: f64,
}

impl Execution {
    /// True total energy, J.
    pub fn true_energy_j(&self) -> f64 {
        self.components.total_j()
    }

    /// Instantaneous power at time `t` seconds into the execution, W.
    ///
    /// The waveform is the average power plus a small deterministic supply
    /// ripple (~1%, at the 120 Hz a switching regulator under load shows
    /// after rectification); the power meter adds its own sampling noise
    /// on top.  Integrating this waveform over `[0, duration]` recovers
    /// the true energy up to ripple truncation.
    pub fn instantaneous_power_w(&self, t: f64) -> f64 {
        let ripple = 0.01 * self.avg_power_w;
        self.avg_power_w + ripple * (std::f64::consts::TAU * 120.0 * t + self.ripple_phase).sin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{OpClass, OpVector};

    fn kernel() -> KernelProfile {
        KernelProfile::new(
            "test",
            OpVector::from_pairs(&[(OpClass::FlopSp, 1e9), (OpClass::Dram, 5e7)]),
        )
    }

    #[test]
    fn execution_is_deterministic_per_seed() {
        let mut a = Device::new(3);
        let mut b = Device::new(3);
        let ka = a.execute(&kernel());
        let kb = b.execute(&kernel());
        assert_eq!(ka.duration_s, kb.duration_s);
        assert_eq!(ka.true_energy_j(), kb.true_energy_j());
    }

    #[test]
    fn ideal_device_has_no_jitter() {
        let mut d = Device::ideal(1);
        let e1 = d.execute(&kernel());
        let e2 = d.execute(&kernel());
        assert_eq!(e1.duration_s, e2.duration_s);
        assert_eq!(e1.duration_s, e1.timing.total_s);
    }

    #[test]
    fn jitter_is_small_but_present() {
        let mut d = Device::new(5);
        let durations: Vec<f64> = (0..32).map(|_| d.execute(&kernel()).duration_s).collect();
        let t0 = durations[0];
        assert!(durations.iter().any(|&t| t != t0), "jitter varies");
        for t in &durations {
            assert!((t / t0 - 1.0).abs() < 0.05, "jitter is small");
        }
    }

    #[test]
    fn energy_consistent_with_power_and_time() {
        let mut d = Device::new(7);
        let e = d.execute(&kernel());
        assert!((e.avg_power_w * e.duration_s - e.true_energy_j()).abs() < 1e-9);
    }

    #[test]
    fn lower_frequency_means_longer_time() {
        let mut d = Device::ideal(1);
        d.set_operating_point(Setting::max_performance());
        let fast = d.execute(&kernel());
        d.set_operating_point(Setting::from_frequencies(396.0, 204.0).unwrap());
        let slow = d.execute(&kernel());
        assert!(slow.duration_s > fast.duration_s);
    }

    #[test]
    fn race_to_halt_fails_for_compute_bound_kernel() {
        // The core of the paper's Table II: for a high-intensity SP kernel
        // the fastest setting is NOT the most energy-efficient one.
        let mut d = Device::ideal(1);
        let k = KernelProfile::new(
            "sp-heavy",
            OpVector::from_pairs(&[(OpClass::FlopSp, 2e10), (OpClass::Dram, 1e6)]),
        );
        d.set_operating_point(Setting::max_performance());
        let at_max = d.execute(&k);
        d.set_operating_point(Setting::from_frequencies(648.0, 204.0).unwrap());
        let at_mid = d.execute(&k);
        assert!(at_mid.duration_s > at_max.duration_s, "max freq is fastest");
        assert!(
            at_mid.true_energy_j() < at_max.true_energy_j(),
            "but mid freq uses less energy: {} vs {}",
            at_mid.true_energy_j(),
            at_max.true_energy_j()
        );
    }

    #[test]
    fn idle_power_tracks_setting() {
        let mut d = Device::new(1);
        d.set_operating_point(Setting::max_performance());
        let hi = d.idle_power_w();
        d.set_operating_point(Setting::from_frequencies(72.0, 68.0).unwrap());
        let lo = d.idle_power_w();
        assert!(hi > lo);
        assert!(hi < 8.0 && lo > 3.0, "both in a plausible watts range");
    }

    #[test]
    fn instantaneous_power_integrates_to_energy() {
        let mut d = Device::new(11);
        let e = d.execute(&kernel());
        let n = 20_000;
        let dt = e.duration_s / n as f64;
        let integral: f64 =
            (0..n).map(|i| e.instantaneous_power_w((i as f64 + 0.5) * dt) * dt).sum();
        let rel = (integral - e.true_energy_j()).abs() / e.true_energy_j();
        assert!(rel < 0.02, "ripple truncation only: {rel}");
    }

    #[test]
    fn latch_faults_are_visible_and_recoverable_by_retry() {
        use crate::faults::{FaultConfig, FaultRates};
        let mut d = Device::new(1);
        d.set_fault_injector(Some(
            FaultConfig {
                seed: 42,
                rates: FaultRates { latch_fail: 0.3, latch_neighbor: 0.2, ..FaultRates::off() },
            }
            .injector(0),
        ));
        let target = Setting::from_frequencies(612.0, 528.0).unwrap();
        let mut faulted = 0;
        for _ in 0..200 {
            d.set_operating_point(target);
            let mut retries = 0;
            while d.operating_point() != target {
                faulted += 1;
                retries += 1;
                assert!(retries < 50, "retry must converge");
                d.set_operating_point(target);
            }
            assert_eq!(d.requested_operating_point(), target);
        }
        assert!(faulted > 20, "latch faults must actually fire: {faulted}");
    }

    #[test]
    fn throttle_episodes_stretch_duration_only_with_injector() {
        use crate::faults::{FaultConfig, FaultRates};
        let baseline = Device::ideal(1).execute(&kernel()).duration_s;
        let mut d = Device::ideal(1);
        d.set_fault_injector(Some(
            FaultConfig {
                seed: 7,
                rates: FaultRates { throttle: 1.0, throttle_stretch: 0.8, ..FaultRates::off() },
            }
            .injector(0),
        ));
        let throttled = d.execute(&kernel());
        assert!(
            throttled.duration_s > baseline * 1.2,
            "throttled {} vs {baseline}",
            throttled.duration_s
        );
        // Energy bookkeeping stays self-consistent.
        let err = (throttled.avg_power_w * throttled.duration_s - throttled.true_energy_j()).abs();
        assert!(err < 1e-9);
    }

    #[test]
    fn no_injector_means_no_behavior_change() {
        let mut plain = Device::new(9);
        let mut hooked = Device::new(9);
        hooked.set_fault_injector(None);
        let target = Setting::from_frequencies(396.0, 204.0).unwrap();
        plain.set_operating_point(target);
        hooked.set_operating_point(target);
        let a = plain.execute(&kernel());
        let b = hooked.execute(&kernel());
        assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
        assert_eq!(a.true_energy_j().to_bits(), b.true_energy_j().to_bits());
    }

    #[test]
    fn execution_counter_increments() {
        let mut d = Device::new(1);
        assert_eq!(d.execution_count(), 0);
        d.execute(&kernel());
        d.execute(&kernel());
        assert_eq!(d.execution_count(), 2);
    }
}
