//! Streaming FMM workloads on the simulated DVFS platform.
//!
//! The paper's pipeline — and this repo's bench harness — evaluates
//! *one* FMM problem at a time: build the tree, pick a DVFS setting,
//! run, report.  Production FMM services look nothing like that: the
//! particle set *moves* between evaluations, requests of mixed sizes
//! *arrive* in bursts with deadlines, and several tenants *share* one
//! device.  This crate supplies those three missing layers:
//!
//! * [`dynamic`] — [`DynamicOctree`]: incremental octree maintenance
//!   under seeded particle motion.  Migrated particles are re-bucketed
//!   and slab ranges repaired in place when the tree's structure
//!   survives; anything structural falls back to a full rebuild.  The
//!   maintained plan is **bitwise identical** to a from-scratch build
//!   on the moved positions — nodes, permutation, interaction lists,
//!   and evaluated potentials.
//! * [`traffic`] — a seeded open-loop request stream (mixed problem
//!   classes, burst arrivals, per-request deadlines) built on the same
//!   stateless `mix64` hashing as the fault injector, so the stream is
//!   a pure function of its config.
//! * [`arbiter`] + [`scenario`] — the [`DeviceArbiter`] executes the
//!   governor's multi-tenant arbitration plans
//!   ([`dvfs_governor::plan_merged`]) against per-job static-best and
//!   race-to-halt baselines on identically-seeded devices, and the
//!   pinned [`scenario`] suite rolls all of it into the
//!   `BENCH_stream.json` artifact with per-thread-count digests.
//!
//! Everything is seeded and hash-keyed — no wall clock, no RNG state —
//! so every number in the suite is bitwise reproducible at 1/2/4/8
//! worker threads.
//!
//! The suite's shape is one [`StreamConfig`]: `repro stream` runs the
//! pinned defaults, and the committed `BENCH_stream.json` records them.

pub mod arbiter;
pub mod dynamic;
pub mod scenario;
pub mod traffic;

pub use arbiter::{ArbitrationResult, DeviceArbiter, StrategyRun};
pub use dynamic::{
    DynamicConfig, DynamicOctree, DynamicStats, MotionModel, RebuildReason, UpdateOutcome,
};
pub use scenario::{
    run_suite, BurstReport, DriftReport, StreamSuiteReport, TenantReport, WindowOutcome,
};
pub use traffic::{stream_digest, ClassMix, StreamRequest, TrafficConfig};

/// The pinned configuration of the [`scenario`] suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Master seed for motion, traffic and devices.
    pub seed: u64,
    /// Drift-scenario motion steps.
    pub steps: usize,
    /// Burst-scenario stream length (requests).
    pub requests: usize,
    /// Mean inter-arrival gap, in units of the largest class's
    /// fastest-possible service time.
    pub gap_scale: f64,
    /// Every `burst_period`-th arrival event is a burst.
    pub burst_period: usize,
    /// Requests arriving simultaneously in a burst.
    pub burst_size: usize,
    /// Deadline multiplier (see [`scenario`] for the exact rule).
    pub deadline_slack: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            seed: 0x57_2EA4,
            steps: 6,
            requests: 10,
            gap_scale: 3.0,
            burst_period: 4,
            burst_size: 3,
            deadline_slack: 6.0,
        }
    }
}
