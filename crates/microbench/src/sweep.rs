//! The sweep driver: benchmarks × intensities × settings × trials.
//!
//! The paper collected 1856 sample measurements across 16 randomly chosen
//! DVFS settings.  `run_sweep` reproduces that collection loop: for every
//! configured setting it reprograms the device, runs every benchmark
//! instance the configured number of times through the power meter, and
//! logs a [`Sample`] per run.
//!
//! Each sweep owns its device and meter (seeded deterministically), so
//! sweeps are reproducible and independent.  Settings are distributed
//! over the workspace thread pool: each worker gets its *own* device
//! clone — the physical analogue being that measurements at different
//! settings are separate lab sessions, so this changes nothing
//! observable, only wall-clock time of the reproduction itself.
//!
//! # Hardened collection
//!
//! Real measurement campaigns lose runs: the DVFS write fails to latch,
//! a thermal episode stretches a run, the logger drops samples.  With a
//! [`FaultConfig`] attached (explicitly, or via the `FMM_ENERGY_FAULTS`
//! environment variable through [`SweepConfig::default`]), the sweep
//! verifies each measurement against per-run sanity gates and retries
//! with an exponential cooldown before accepting it:
//!
//! * **latch gate** — the applied operating point is read back after
//!   every DVFS write and the write re-issued until it matches;
//! * **time gate** — the host-timed duration must sit within a band of
//!   the roofline prediction (catches thermal-throttle episodes);
//! * **power gate** — mean measured power must be physically plausible;
//! * **trace gate** — at most half the log's samples may be dropped.
//!
//! A run that still fails after the retry budget keeps its last
//! measurement (so sample counts stay stable for downstream consumers)
//! and is counted in [`SweepStats::suspect_kept`].  Without a fault
//! config the gates are skipped entirely and the sweep is bitwise
//! identical to the unhardened driver.

use crate::benchmarks::{MicrobenchKind, Microbenchmark};
use crate::dataset::{settings_for, table1_settings, Dataset, Sample, SettingType};
use compat::error::{PipelineError, PipelineResult};
use powermon_sim::{MeasuredExecution, PowerMon};
use std::sync::Arc;
use tk1_sim::{Device, DeviceSpec, FaultConfig, Setting};

/// DVFS write re-issues before the sweep gives up on a setting.
const MAX_LATCH_ATTEMPTS: usize = 6;
/// Measurements per (instance, trial) before the last one is kept as-is.
const MAX_MEASURE_ATTEMPTS: usize = 4;
/// First simulated cooldown, seconds; doubles on every retry.
const COOLDOWN_BASE_S: f64 = 0.01;
/// Accepted band of host-timed duration around the roofline prediction.
/// The clean run-to-run jitter is σ ≈ 0.3%, while the shortest thermal
/// throttle episode stretches a run by ≥ 24%, so the band separates the
/// two populations by a wide margin.
const TIME_GATE_BAND: (f64, f64) = (0.85, 1.15);
/// Maximum tolerated fraction of dropped trace samples.
const MAX_DROPPED_FRACTION: f64 = 0.5;

/// Configuration of a measurement sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The settings to visit, with their training/validation tags.
    pub settings: Vec<(Setting, SettingType)>,
    /// Benchmark families to run.
    pub kinds: Vec<MicrobenchKind>,
    /// Repetitions per (instance, setting).
    pub trials: usize,
    /// Master seed for device and meter noise.
    pub seed: u64,
    /// Fault-injection campaign, if any.  `None` (the fault-free
    /// default when `FMM_ENERGY_FAULTS` is unset) reproduces the
    /// unhardened sweep bit for bit.
    pub faults: Option<FaultConfig>,
    /// The simulated platform to measure; the TK1 catalog entry by
    /// default.  Settings, gates, meter range, and the device itself all
    /// derive from this spec.
    pub device: Arc<DeviceSpec>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            settings: table1_settings(),
            kinds: MicrobenchKind::ALL.to_vec(),
            trials: 1,
            seed: 0xA11C_E5ED,
            faults: FaultConfig::from_env(),
            device: tk1_sim::catalog::tk1(),
        }
    }
}

impl SweepConfig {
    /// Total number of samples this sweep will produce.
    pub fn sample_count(&self) -> usize {
        let instances: usize = self.kinds.iter().map(|k| k.intensity_count()).sum();
        self.settings.len() * instances * self.trials
    }

    /// The serving-path sweep: training settings only, every benchmark
    /// family, one trial.  A fit request needs excitation, not holdout
    /// validation rows, so dropping the 8 validation settings halves the
    /// cold-fit cost without touching the training design matrix — the
    /// fitted model is bitwise identical to one fitted from a
    /// [`SweepConfig::default`] sweep with the same seed and faults.
    pub fn service_preset(seed: u64, faults: Option<FaultConfig>) -> Self {
        SweepConfig {
            settings: table1_settings()
                .into_iter()
                .filter(|(_, ty)| *ty == SettingType::Training)
                .collect(),
            kinds: MicrobenchKind::ALL.to_vec(),
            trials: 1,
            seed,
            faults,
            device: tk1_sim::catalog::tk1(),
        }
    }

    /// A full Table-I-shaped sweep of an arbitrary catalog device:
    /// training + validation settings from [`settings_for`], every
    /// benchmark family, one trial.  For the TK1 entry this is the
    /// default sweep (same seed ⇒ bitwise identical samples).
    pub fn for_device(device: &Arc<DeviceSpec>, seed: u64, faults: Option<FaultConfig>) -> Self {
        SweepConfig {
            settings: settings_for(device),
            kinds: MicrobenchKind::ALL.to_vec(),
            trials: 1,
            seed,
            faults,
            device: device.clone(),
        }
    }

    /// The serving-path sweep for an arbitrary catalog device: the
    /// training rows of [`settings_for`] only (they occupy the leading
    /// indices, so per-setting seeds match the full sweep's).
    pub fn service_preset_on(
        device: &Arc<DeviceSpec>,
        seed: u64,
        faults: Option<FaultConfig>,
    ) -> Self {
        SweepConfig {
            settings: settings_for(device)
                .into_iter()
                .filter(|(_, ty)| *ty == SettingType::Training)
                .collect(),
            ..SweepConfig::for_device(device, seed, faults)
        }
    }
}

/// Bookkeeping of the hardened collection loop: how often the gates
/// tripped and how much (simulated) cooldown time the retries cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// DVFS writes that had to be re-issued because the read-back did
    /// not match the request.
    pub latch_retries: usize,
    /// Measurements re-taken because a sanity gate tripped.
    pub measurement_retries: usize,
    /// Runs that exhausted the retry budget; their last measurement was
    /// kept so downstream sample counts stay stable.
    pub suspect_kept: usize,
    /// Total simulated cooldown the retries would have cost, seconds.
    pub cooldown_s: f64,
}

impl SweepStats {
    fn absorb(&mut self, other: &SweepStats) {
        self.latch_retries += other.latch_retries;
        self.measurement_retries += other.measurement_retries;
        self.suspect_kept += other.suspect_kept;
        self.cooldown_s += other.cooldown_s;
    }

    /// Total number of retried operations of any kind.
    pub fn total_retries(&self) -> usize {
        self.latch_retries + self.measurement_retries
    }
}

/// A completed sweep: the dataset plus the collection bookkeeping.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The collected samples.
    pub dataset: Dataset,
    /// Retry/gate statistics of the collection loop.
    pub stats: SweepStats,
}

/// Runs the sweep and collects the dataset, surfacing collection
/// failures as [`PipelineError`] instead of panicking.
pub fn try_run_sweep(config: &SweepConfig) -> PipelineResult<SweepRun> {
    // Pre-build all benchmark instances once.
    let instances: Vec<_> = config.kinds.iter().flat_map(|&k| k.instances()).collect();

    // Work items are whole settings: each worker measures complete
    // settings so per-setting noise streams stay deterministic
    // regardless of thread interleaving; a panicking worker is caught
    // by the pool and its chunk resubmitted once before erroring.
    let jobs: Vec<(usize, (Setting, SettingType))> =
        config.settings.iter().copied().enumerate().collect();
    let results = compat::par::try_par_map_vec(jobs, &|(idx, (setting, ty))| {
        try_measure_setting(config, idx as u64, setting, ty, &instances)
    })
    .map_err(|e| PipelineError::WorkerPanic {
        job: format!("sweep settings chunk {}: {}", e.chunk, e.detail),
        attempts: e.attempts,
    })?;

    let mut dataset = Dataset::new();
    let mut stats = SweepStats::default();
    for result in results {
        let (samples, setting_stats) = result?;
        stats.absorb(&setting_stats);
        for s in samples {
            dataset.push(s);
        }
    }
    Ok(SweepRun { dataset, stats })
}

/// Runs the sweep and collects the dataset.
///
/// Infallible wrapper over [`try_run_sweep`] for callers that predate
/// the hardened pipeline; a collection error here means the fault rates
/// were set beyond what the retry budget can absorb.
pub fn run_sweep(config: &SweepConfig) -> Dataset {
    try_run_sweep(config).expect("sweep collection failed").dataset
}

fn try_measure_setting(
    config: &SweepConfig,
    setting_index: u64,
    setting: Setting,
    ty: SettingType,
    instances: &[Microbenchmark],
) -> PipelineResult<(Vec<Sample>, SweepStats)> {
    let mut device = Device::from_spec(
        &config.device,
        config.seed.wrapping_add(setting_index.wrapping_mul(0x9E37_79B9)),
    );
    // One physical meter serves the whole sweep (the paper's setup), so
    // the calibration seed is shared; only the white-noise stream is
    // per-setting.  The channel is ranged to the platform's full scale
    // (at the TK1's 15 W this is bitwise the legacy session meter).
    let mut meter = PowerMon::for_device(
        config.device.meter_full_scale_w,
        config.seed,
        config.seed ^ setting_index.rotate_left(17),
    );
    if let Some(faults) = &config.faults {
        // Distinct injector streams for the device (latch/throttle) and
        // the meter (acquisition) so their draws never correlate.
        device.set_fault_injector(Some(faults.injector(setting_index.wrapping_mul(2))));
        meter.set_fault_injector(Some(
            faults.injector(setting_index.wrapping_mul(2).wrapping_add(1)),
        ));
    }
    let mut stats = SweepStats::default();
    apply_setting(&mut device, setting, &mut stats)?;

    let gated = config.faults.is_some();
    let mut out = Vec::with_capacity(instances.len() * config.trials);
    for mb in instances {
        for _ in 0..config.trials {
            let m = if gated {
                measure_with_retry(
                    &mut device,
                    &mut meter,
                    mb,
                    setting,
                    config.device.power_gate_w,
                    &mut stats,
                )?
            } else {
                meter.measure(&mut device, mb.kernel())
            };
            out.push(Sample {
                kind: Some(mb.kind.name().to_string()),
                intensity: Some(mb.intensity),
                ops: mb.kernel().ops,
                setting,
                setting_type: ty,
                time_s: m.measured_duration_s,
                energy_j: m.measured_energy_j,
            });
        }
    }
    Ok((out, stats))
}

/// Programs `requested` and verifies the read-back, re-issuing the write
/// (with exponential cooldown) until the latch takes.
fn apply_setting(
    device: &mut Device,
    requested: Setting,
    stats: &mut SweepStats,
) -> PipelineResult<()> {
    for attempt in 0..MAX_LATCH_ATTEMPTS {
        device.set_operating_point(requested);
        if device.operating_point() == requested {
            return Ok(());
        }
        stats.latch_retries += 1;
        stats.cooldown_s += COOLDOWN_BASE_S * (1u64 << attempt) as f64;
    }
    let applied = device.operating_point();
    Err(PipelineError::SettingNotApplied {
        requested: format!("core[{}]/mem[{}]", requested.core_idx, requested.mem_idx),
        applied: format!("core[{}]/mem[{}]", applied.core_idx, applied.mem_idx),
        attempts: MAX_LATCH_ATTEMPTS,
    })
}

/// Measures one run, re-taking it (with exponential cooldown) while any
/// sanity gate trips.  On budget exhaustion the last measurement is
/// kept and counted as suspect — downstream robust fitting handles it.
fn measure_with_retry(
    device: &mut Device,
    meter: &mut PowerMon,
    mb: &Microbenchmark,
    requested: Setting,
    power_gate_w: (f64, f64),
    stats: &mut SweepStats,
) -> PipelineResult<MeasuredExecution> {
    let nominal_s = device.timing_model().execution_time(mb.kernel(), requested).total_s;
    let mut last: Option<MeasuredExecution> = None;
    for attempt in 0..MAX_MEASURE_ATTEMPTS {
        let m = meter.measure(device, mb.kernel());
        if gates_pass(&m, nominal_s, power_gate_w) {
            return Ok(m);
        }
        stats.measurement_retries += 1;
        stats.cooldown_s += COOLDOWN_BASE_S * (1u64 << attempt) as f64;
        last = Some(m);
    }
    stats.suspect_kept += 1;
    last.ok_or_else(|| PipelineError::RetryExhausted {
        context: format!("measurement of {}", mb.kernel().name),
        attempts: MAX_MEASURE_ATTEMPTS,
        last_fault: "no measurement completed".to_string(),
    })
}

fn gates_pass(m: &MeasuredExecution, nominal_s: f64, power_gate_w: (f64, f64)) -> bool {
    // Time gate: the host-timed duration against the roofline prediction.
    if nominal_s > 0.0 {
        let ratio = m.measured_duration_s / nominal_s;
        if !(TIME_GATE_BAND.0..=TIME_GATE_BAND.1).contains(&ratio) {
            return false;
        }
    }
    // Power gate: physically plausible board power for this platform
    // (from the device spec; the TK1 entry carries the legacy 1–20 W).
    let power = m.measured_power_w();
    if !power.is_finite() || power <= power_gate_w.0 || power >= power_gate_w.1 {
        return false;
    }
    // Trace gate: enough of the log survived to trust the statistics.
    m.trace.dropped_fraction() <= MAX_DROPPED_FRACTION
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SweepConfig {
        SweepConfig {
            settings: table1_settings().into_iter().take(3).collect(),
            kinds: vec![MicrobenchKind::SharedMemory, MicrobenchKind::L2],
            trials: 1,
            seed: 7,
            faults: None,
            device: tk1_sim::catalog::tk1(),
        }
    }

    fn faulted_config() -> SweepConfig {
        SweepConfig { faults: Some(FaultConfig::default_campaign()), ..small_config() }
    }

    #[test]
    fn sweep_produces_expected_sample_count() {
        let cfg = small_config();
        let ds = run_sweep(&cfg);
        assert_eq!(ds.len(), cfg.sample_count());
        assert_eq!(ds.len(), 3 * (10 + 9));
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = small_config();
        let a = run_sweep(&cfg);
        let b = run_sweep(&cfg);
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.energy_j, y.energy_j);
            assert_eq!(x.time_s, y.time_s);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The only test in this crate that sets the process-global pool
        // width.
        let cfg = small_config();
        compat::par::set_thread_count(Some(1));
        let serial = run_sweep(&cfg);
        compat::par::set_thread_count(Some(3));
        let parallel = run_sweep(&cfg);
        compat::par::set_thread_count(None);
        // Compare as multisets keyed by (setting, kind, intensity).
        let key = |s: &Sample| {
            (
                s.setting.core_idx,
                s.setting.mem_idx,
                s.kind.clone(),
                (s.intensity.unwrap() * 1e9) as u64,
            )
        };
        let mut a: Vec<_> = serial.samples.iter().map(|s| (key(s), s.energy_j)).collect();
        let mut b: Vec<_> = parallel.samples.iter().map(|s| (key(s), s.energy_j)).collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let cfg = SweepConfig::default();
        // 16 settings x 103 intensity points = 1648 samples per trial —
        // the same scale as the paper's 1856 (which included re-runs).
        assert_eq!(cfg.sample_count(), 16 * 103);
    }

    #[test]
    fn samples_carry_positive_measurements() {
        let ds = run_sweep(&small_config());
        for s in &ds.samples {
            assert!(s.time_s > 0.0);
            assert!(s.energy_j > 0.0);
            assert!(s.power_w() > 1.0 && s.power_w() < 20.0);
        }
    }

    #[test]
    fn faulted_sweep_completes_with_full_sample_count() {
        let cfg = faulted_config();
        let run = try_run_sweep(&cfg).expect("default fault rates must be survivable");
        assert_eq!(run.dataset.len(), cfg.sample_count(), "retries must not drop samples");
        assert!(
            run.stats.total_retries() > 0,
            "default rates must trip some gate: {:?}",
            run.stats
        );
        assert!(run.stats.cooldown_s > 0.0);
        for s in &run.dataset.samples {
            assert!(s.time_s > 0.0 && s.energy_j > 0.0, "no corrupted sample escapes: {s:?}");
        }
    }

    #[test]
    fn faulted_sweep_is_deterministic_including_stats() {
        let cfg = faulted_config();
        let a = try_run_sweep(&cfg).expect("sweep a");
        let b = try_run_sweep(&cfg).expect("sweep b");
        assert_eq!(a.stats, b.stats, "retry counts are part of the deterministic contract");
        for (x, y) in a.dataset.samples.iter().zip(&b.dataset.samples) {
            assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
            assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
        }
    }

    #[test]
    fn fault_free_config_matches_legacy_sweep_bitwise() {
        // `faults: None` must reproduce the unhardened driver exactly;
        // golden values depend on it.
        let clean = run_sweep(&small_config());
        let hardened = try_run_sweep(&small_config()).expect("clean sweep");
        assert_eq!(hardened.stats, SweepStats::default());
        for (x, y) in clean.samples.iter().zip(&hardened.dataset.samples) {
            assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
            assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
        }
    }

    #[test]
    fn service_preset_matches_training_rows_of_the_default_sweep_bitwise() {
        let preset = SweepConfig::service_preset(0xA11C_E5ED, None);
        assert_eq!(preset.settings.len(), 8, "training settings only");
        assert_eq!(preset.sample_count(), 8 * 103);

        // Training settings sit at indices 0..8 of `table1_settings`,
        // so per-setting device seeds are unchanged and the preset's
        // samples must equal the default sweep's training split bitwise
        // — the cached-model identity the serving layer relies on.
        let full = run_sweep(&SweepConfig { faults: None, ..SweepConfig::default() });
        let fast = run_sweep(&preset);
        let training: Vec<_> = full.training().collect();
        assert_eq!(training.len(), fast.samples.len());
        for (x, y) in training.iter().zip(&fast.samples) {
            assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
            assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
        }
    }

    #[test]
    fn unsurvivable_latch_rates_error_instead_of_panicking() {
        use tk1_sim::FaultRates;
        let mut cfg = small_config();
        cfg.faults = Some(FaultConfig {
            seed: 1,
            rates: FaultRates { latch_fail: 1.0, latch_neighbor: 1.0, ..FaultRates::off() },
        });
        match try_run_sweep(&cfg) {
            Err(PipelineError::SettingNotApplied { attempts, .. }) => {
                assert_eq!(attempts, MAX_LATCH_ATTEMPTS);
            }
            other => panic!("expected SettingNotApplied, got {other:?}"),
        }
    }
}
