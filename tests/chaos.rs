//! Chaos soak for the autotune service (ISSUE 9 acceptance gate).
//!
//! Under the default chaos profile — injected worker panics, aborts,
//! stalls, latch/meter storms — a seeded mixed-burst run must uphold
//! the service failure model (DESIGN.md §13):
//!
//! * **every request resolves** — an answer (possibly degraded) or a
//!   typed rejection; zero hung tickets (this test terminating is the
//!   structural proof) and zero process aborts (injected worker deaths
//!   are respawned, never escape);
//! * **availability ≥ 99%**, counting degraded answers — stale models,
//!   sibling transfers, and race-to-halt plans are still answers;
//! * **the digest is identical at 1/2/4/8 shards** — chaos is
//!   stateless and hash-keyed, and the soak pins `batch_max = 1`
//!   (see `LoadConfig::chaos_soak`), so every final outcome is a pure
//!   function of request content, chaos config, and retry policy.
//!
//! Every config pins `faults` and `chaos` explicitly, so these
//! assertions hold whether or not CI exports `FMM_ENERGY_FAULTS`.

use dvfs_bench::service_load::{service_load, LoadConfig, LoadReport};

/// The chaos soak workload: seeded mixed bursts under the default
/// chaos profile, kernel-heavy, 12 simulated boards.
fn chaos_config(shards: usize) -> LoadConfig {
    let mut cfg = LoadConfig::chaos_soak(5_000, shards);
    cfg.distinct_devices = 12;
    cfg.fmm_per_mille = 0;
    cfg.fmm_sizes = Vec::new();
    cfg.plan_per_mille = 5;
    cfg.seed = 0xC4A0_2016;
    cfg.overload_probes = 0;
    cfg.stall_probes = 0; // the deadline path has its own test below
    cfg
}

fn assert_resolved(run: &LoadReport, cfg: &LoadConfig) {
    assert_eq!(
        run.served + run.typed_rejections,
        cfg.requests,
        "every request must resolve with an answer or a typed rejection"
    );
    assert!(
        run.availability >= 0.99,
        "availability {} fell below 99% (served {} / {})",
        run.availability,
        run.served,
        cfg.requests
    );
}

#[test]
fn chaos_soak_resolves_everything_with_99pct_availability() {
    let cfg = chaos_config(4);
    let run = service_load(&cfg);
    assert_resolved(&run, &cfg);
    // The profile must actually bite: injected panics are caught and
    // answered typed, and retries recover the transient victims.
    assert!(
        run.caught_panics > 0,
        "the default chaos profile must inject poison requests: {run:?}"
    );
    assert!(run.typed_rejections > 0, "poison keys exhaust retries into typed rejections");
    assert!(run.retries > 0, "retryable failures must drive the retry path");
    assert!(run.recovered > 0, "aborted/stalled first attempts must recover on retry: {run:?}");
    // Worker deaths (if the abort rate fired this seed) were respawned,
    // not leaked: the clean shutdown inside `service_load` already
    // proves it, and nothing ever reached a process abort.
    assert!(run.worker_deaths <= run.respawns + 1, "deaths without respawns would leak shards");
}

#[test]
fn chaos_digest_is_identical_across_1_2_4_8_shards() {
    let reference = service_load(&chaos_config(1));
    assert_resolved(&reference, &chaos_config(1));
    for shards in [2usize, 4, 8] {
        let cfg = chaos_config(shards);
        let run = service_load(&cfg);
        assert_resolved(&run, &cfg);
        assert_eq!(
            run.digest, reference.digest,
            "chaos digest diverged at {shards} shard(s): {:#018x} vs {:#018x}",
            run.digest, reference.digest
        );
        assert_eq!(
            run.typed_rejections, reference.typed_rejections,
            "the set of poison keys is shard-invariant"
        );
    }
}

#[test]
fn deadline_probe_recovers_every_stalled_request() {
    let mut cfg = chaos_config(1);
    cfg.requests = 0;
    cfg.chaos = None;
    cfg.stall_probes = 12;
    let run = service_load(&cfg);
    let probe = run.stall_probe;
    assert_eq!(probe.probes, 12);
    assert!(probe.deadline_hits >= 11, "40ms stalls must blow the 8ms deadline: {probe:?}");
    assert_eq!(probe.recovered, 12, "the deterministic retry must always recover: {probe:?}");
    assert!(
        probe.server_late_answers >= probe.deadline_hits,
        "abandoned tickets surface as late answers, never as hangs: {probe:?}"
    );
}
