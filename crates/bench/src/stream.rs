//! The streaming-engine benchmark: the pinned scenario suite of
//! `dvfs_stream::scenario` run with the *fitted* energy model across
//! the 1/2/4/8 thread grid, plus the JSON shape committed as
//! `BENCH_stream.json` and validated by `repro stream --check`.

use compat::json::Json;
use compat::par;
use dvfs_energy_model::EnergyModel;
use dvfs_stream::{run_suite, StreamConfig, StreamSuiteReport};

/// The suite at every thread count, plus the per-count digests that
/// witness bitwise thread invariance.
#[derive(Debug, Clone)]
pub struct StreamBench {
    /// The configuration the suite ran with.
    pub config: StreamConfig,
    /// The full report from the first grid point (the reference run —
    /// every other grid point must digest identically).
    pub suite: StreamSuiteReport,
    /// `(resolved worker count, suite digest)` per grid point.
    pub thread_digests: Vec<(usize, u64)>,
}

/// Runs the pinned suite once per thread-grid entry.  Thread counts
/// resolve through the `compat::par` machine cap, so the recorded
/// counts are the widths the runs actually used.
pub fn stream_bench(model: &EnergyModel, cfg: &StreamConfig, thread_grid: &[usize]) -> StreamBench {
    assert!(!thread_grid.is_empty(), "stream bench needs a thread grid");
    let mut suite: Option<StreamSuiteReport> = None;
    let mut thread_digests = Vec::with_capacity(thread_grid.len());
    for &t in thread_grid {
        par::set_thread_count(Some(t));
        let report = run_suite(model, cfg);
        thread_digests.push((report.threads, report.digest));
        if suite.is_none() {
            suite = Some(report);
        }
    }
    par::set_thread_count(None);
    StreamBench { config: *cfg, suite: suite.expect("nonempty grid"), thread_digests }
}

/// The `BENCH_stream.json` document.
pub fn stream_to_json(bench: &StreamBench) -> Json {
    let cfg = &bench.config;
    let drift = &bench.suite.drift;
    let burst = &bench.suite.burst;
    let tenants = &bench.suite.tenants;
    let windows: Vec<Json> = burst
        .windows
        .iter()
        .map(|w| {
            Json::obj([
                ("start_s", Json::Num(w.start_s)),
                ("requests", Json::Num(w.requests as f64)),
                ("energy_j", Json::Num(w.energy_j)),
                ("lambda_w", Json::Num(w.lambda_w)),
            ])
        })
        .collect();
    let sweeps: Vec<Json> = bench
        .thread_digests
        .iter()
        .map(|&(threads, digest)| {
            Json::obj([
                ("threads", Json::Num(threads as f64)),
                ("digest", Json::Str(format!("{digest:016x}"))),
            ])
        })
        .collect();
    Json::obj([
        ("benchmark", Json::Str("stream_engine".to_string())),
        ("seed", Json::Str(format!("{:016x}", cfg.seed))),
        (
            "config",
            Json::obj([
                ("steps", Json::Num(cfg.steps as f64)),
                ("requests", Json::Num(cfg.requests as f64)),
                ("gap_scale", Json::Num(cfg.gap_scale)),
                ("burst_period", Json::Num(cfg.burst_period as f64)),
                ("burst_size", Json::Num(cfg.burst_size as f64)),
                ("deadline_slack", Json::Num(cfg.deadline_slack)),
            ]),
        ),
        (
            "drift",
            Json::obj([
                ("steps", Json::Num(drift.steps as f64)),
                ("in_place", Json::Num(drift.in_place as f64)),
                ("rebuilds", Json::Num(drift.rebuilds as f64)),
                ("migrants", Json::Num(drift.migrants as f64)),
                ("energy_j", Json::Num(drift.energy_j)),
                ("time_s", Json::Num(drift.time_s)),
                ("digest", Json::Str(format!("{:016x}", drift.potential_digest))),
            ]),
        ),
        (
            "burst",
            Json::obj([
                ("requests", Json::Num(burst.requests as f64)),
                ("windows", Json::Arr(windows)),
                ("energy_j", Json::Num(burst.energy_j)),
                ("static_best_j", Json::Num(burst.static_best_j)),
                ("race_to_halt_j", Json::Num(burst.race_to_halt_j)),
                ("deadline_misses", Json::Num(burst.deadline_misses as f64)),
                ("mean_latency_s", Json::Num(burst.mean_latency_s)),
                ("max_latency_s", Json::Num(burst.max_latency_s)),
                ("makespan_s", Json::Num(burst.makespan_s)),
                ("stream_digest", Json::Str(format!("{:016x}", burst.stream_digest))),
                ("digest", Json::Str(format!("{:016x}", burst.digest))),
            ]),
        ),
        (
            "tenants",
            Json::obj([
                ("tenants", Json::Num(tenants.tenants as f64)),
                ("order", Json::Str(tenants.order.to_string())),
                ("lambda_w", Json::Num(tenants.lambda_w)),
                ("feasible", Json::Bool(tenants.feasible)),
                ("arbitrated_j", Json::Num(tenants.arbitrated_j)),
                ("static_best_j", Json::Num(tenants.static_best_j)),
                ("race_to_halt_j", Json::Num(tenants.race_to_halt_j)),
                ("deadline_misses", Json::Num(tenants.deadline_misses as f64)),
                ("digest", Json::Str(format!("{:016x}", tenants.digest))),
            ]),
        ),
        ("thread_digests", Json::Arr(sweeps)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::try_fitted_model;
    use dvfs_microbench::SweepConfig;

    #[test]
    fn suite_runs_and_digests_are_thread_invariant() {
        let model =
            try_fitted_model(&SweepConfig { seed: 0xBEEF, faults: None, ..SweepConfig::default() })
                .expect("clean fit")
                .model;
        let cfg = StreamConfig { steps: 3, requests: 6, ..StreamConfig::default() };
        let bench = stream_bench(&model, &cfg, &[1, 2, 4, 8]);
        assert_eq!(bench.thread_digests.len(), 4);
        let reference = bench.thread_digests[0].1;
        for &(threads, digest) in &bench.thread_digests {
            assert_eq!(digest, reference, "suite digest diverged at {threads} threads");
        }
        // The acceptance gates the committed artifact must pass.
        assert!(bench.suite.drift.in_place > 0, "drift must exercise in-place repair");
        assert_eq!(bench.suite.burst.deadline_misses, 0, "pinned burst suite must meet deadlines");
        assert_eq!(bench.suite.tenants.deadline_misses, 0);
        assert!(bench.suite.tenants.feasible);
        assert!(
            bench.suite.tenants.arbitrated_j <= bench.suite.tenants.static_best_j,
            "arbitrated {} J vs static-best {} J",
            bench.suite.tenants.arbitrated_j,
            bench.suite.tenants.static_best_j
        );
        assert!(
            bench.suite.tenants.arbitrated_j <= bench.suite.tenants.race_to_halt_j,
            "arbitrated {} J vs race-to-halt {} J",
            bench.suite.tenants.arbitrated_j,
            bench.suite.tenants.race_to_halt_j
        );
    }
}
