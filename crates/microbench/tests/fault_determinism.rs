//! Property tests for the satellite contract of the fault campaign:
//! the same fault seed and rates must produce bitwise-identical
//! corrupted traces, bitwise-identical datasets, and identical retry
//! accounting no matter how wide the worker pool is — 1, 2, 4 or 8.
//!
//! `sweep_is_thread_invariant_under_faults` is the only test in this
//! binary that sets the process-global `compat::par` pool width.

use compat::prop::prelude::*;
use dvfs_microbench::dataset::table1_settings;
use dvfs_microbench::{try_run_sweep, MicrobenchKind, SweepConfig};
use powermon_sim::PowerMon;
use tk1_sim::faults::{FaultConfig, FaultRates};
use tk1_sim::Device;

fn small_faulted_config(seed: u64, fault_seed: u64) -> SweepConfig {
    SweepConfig {
        settings: table1_settings().into_iter().take(3).collect(),
        kinds: vec![MicrobenchKind::SharedMemory, MicrobenchKind::L2],
        trials: 1,
        seed,
        faults: Some(FaultConfig { seed: fault_seed, rates: FaultRates::default_campaign() }),
        device: tk1_sim::catalog::tk1(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn corrupted_traces_are_bitwise_reproducible(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        stream in 0u64..32,
    ) {
        let faults = FaultConfig { seed: fault_seed, rates: FaultRates::default_campaign() };
        let kernel = MicrobenchKind::L2.instance(MicrobenchKind::L2.intensities()[2]);
        let run = || {
            let mut device = Device::new(seed);
            device.set_fault_injector(Some(faults.injector(stream)));
            let mut meter = PowerMon::new(seed ^ 0x5A5A);
            meter.set_fault_injector(Some(faults.injector(stream + 1)));
            (0..3).map(|_| meter.measure(&mut device, kernel.kernel())).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            // NaN gaps compare equal bitwise, so the whole corrupted
            // trace — dropouts included — must match sample for sample.
            prop_assert_eq!(x.trace.len(), y.trace.len());
            for (p, q) in x.trace.samples().iter().zip(y.trace.samples()) {
                prop_assert_eq!(p.to_bits(), q.to_bits());
            }
            prop_assert_eq!(x.measured_duration_s.to_bits(), y.measured_duration_s.to_bits());
            prop_assert_eq!(x.measured_energy_j.to_bits(), y.measured_energy_j.to_bits());
        }
    }

    #[test]
    fn sweep_is_thread_invariant_under_faults(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
    ) {
        // Per-setting seeding plus the stateless injector keys make the
        // result independent of any work partitioning.
        let cfg = small_faulted_config(seed, fault_seed);
        let runs: Vec<_> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                compat::par::set_thread_count(Some(t));
                let run = try_run_sweep(&cfg).expect("default fault rates are survivable");
                compat::par::set_thread_count(None);
                run
            })
            .collect();
        let base = &runs[0];
        for run in &runs[1..] {
            // Identical retry accounting...
            prop_assert_eq!(&run.stats, &base.stats);
            // ...and a bitwise-identical dataset, in the same order.
            prop_assert_eq!(run.dataset.len(), base.dataset.len());
            for (a, b) in base.dataset.samples.iter().zip(&run.dataset.samples) {
                prop_assert_eq!(a.setting, b.setting);
                prop_assert_eq!(&a.kind, &b.kind);
                prop_assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
                prop_assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
            }
        }
    }

    #[test]
    fn retry_counts_are_reproducible_run_to_run(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
    ) {
        let cfg = small_faulted_config(seed, fault_seed);
        let a = try_run_sweep(&cfg).expect("survivable");
        let b = try_run_sweep(&cfg).expect("survivable");
        prop_assert_eq!(&a.stats, &b.stats);
        prop_assert_eq!(a.stats.cooldown_s.to_bits(), b.stats.cooldown_s.to_bits());
    }
}
