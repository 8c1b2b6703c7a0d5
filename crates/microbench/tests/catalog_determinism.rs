//! Per-device determinism: every catalog entry must produce a
//! bitwise-identical sweep no matter how wide the worker pool is.
//!
//! This is the multi-platform extension of the TK1's thread-invariance
//! claim — per-setting seeding keys the noise streams to the *work*,
//! not to the worker, so the `compat::par` pool width may not change a
//! single bit of the dataset.
//!
//! One `#[test]` on purpose: it flips the global
//! `compat::par::set_thread_count` override, which must not race with
//! other tests in the same binary.

use dvfs_microbench::{try_run_sweep, MicrobenchKind, SweepConfig};

#[test]
fn every_catalog_device_sweeps_bitwise_identically_across_thread_counts() {
    for spec in tk1_sim::catalog::catalog() {
        let config = SweepConfig {
            // A reduced but representative slice of the device's own
            // Table-I-shaped split; `faults: None` pinned so the test
            // ignores any ambient `FMM_ENERGY_FAULTS` campaign.
            settings: dvfs_microbench::settings_for(spec).into_iter().take(3).collect(),
            kinds: vec![MicrobenchKind::SharedMemory, MicrobenchKind::L2],
            trials: 1,
            seed: 0xD15C,
            faults: None,
            device: spec.clone(),
        };
        let runs: Vec<_> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                compat::par::set_thread_count(Some(t));
                let run = try_run_sweep(&config).expect("clean sweep");
                compat::par::set_thread_count(None);
                run
            })
            .collect();
        let base = &runs[0];
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_eq!(&run.stats, &base.stats, "{}: retry accounting differs", spec.id);
            assert_eq!(run.dataset.len(), base.dataset.len(), "{}: sample count", spec.id);
            for (a, b) in base.dataset.samples.iter().zip(&run.dataset.samples) {
                assert_eq!(a.setting, b.setting, "{}: order differs at {i} threads", spec.id);
                assert_eq!(&a.kind, &b.kind, "{}: kind differs", spec.id);
                assert_eq!(
                    a.time_s.to_bits(),
                    b.time_s.to_bits(),
                    "{}: time not bitwise at {i} threads",
                    spec.id
                );
                assert_eq!(
                    a.energy_j.to_bits(),
                    b.energy_j.to_bits(),
                    "{}: energy not bitwise at {i} threads",
                    spec.id
                );
            }
        }
    }
}
