//! Experiment reproduction library.
//!
//! One function per paper artifact (Tables I–IV, Figures 4–7, the
//! Section II-D cross-validations and the Section IV-C observations),
//! each returning a structured result that the `repro` binary prints and
//! the integration tests assert on.  Paper reference values live in
//! [`paper`] so every report can show *paper vs. measured* side by side.

pub mod check;
pub mod fleet;
pub mod governor;
pub mod paper;
pub mod pipeline;
pub mod report;
pub mod scaling;
pub mod service_load;
pub mod stream;

pub use fleet::{
    fleet_report, fleet_to_json, FleetDeviceRow, FleetPick, FleetReport, FleetTransferRow,
};
pub use governor::{governor_comparison, GovernorCase, PolicyOutcome, GOVERNOR_ROUNDS};
pub use pipeline::{
    fig4_breakdown, fig5_validation, fig6_energy_breakdown, fig7_buckets, fitted_model,
    fmm_profiles, observations, prefetch_scan, table1_rows, table2_outcomes, try_fitted_model,
    utilization_ablation, CaseResult, Fig7Row, MicrobenchAblationPoint, ObservationSummary,
    PipelineFit, Table1Row,
};
pub use scaling::{potential_digest, scaling_grid, ScalingCase};
pub use service_load::{
    service_load, synth_request, LatencyStats, LoadConfig, LoadReport, OverloadReport, RetryPolicy,
    StallProbeReport,
};
pub use stream::{stream_bench, stream_to_json, StreamBench};
