//! Energy-tuning-as-a-service: a sharded, batching autotune server.
//!
//! The paper's autotuner answers one offline question — which DVFS
//! setting minimizes predicted energy for one FMM input.  This crate
//! turns that into a long-running service: clients submit
//! [`TuneRequest`]s (pre-counted op vectors, or raw FMM problem specs
//! lowered through the counters path) and get back the
//! predicted-optimal [`tk1_sim::Setting`], time/energy estimates
//! across the whole answer grid, and optionally a governor phase plan.
//!
//! Production shape (DESIGN.md §11):
//!
//! * **Bounded ingress, explicit backpressure** — per-shard bounded
//!   queues ([`compat::chan`]); a full queue rejects immediately with
//!   [`Rejected::Overloaded`] instead of growing without bound.
//! * **Batching** — each worker wakeup drains up to a batch of
//!   requests, amortizing model-cache lookups across the batch.
//! * **Model cache** — fitted models are expensive (a full
//!   microbenchmark sweep + NNLS fit) and keyed by `(device, fault
//!   profile)`; each shard keeps an LRU of rigs in memory with an
//!   optional on-disk JSON tier that restores bitwise-identical
//!   answers.
//! * **Sharding without locks** — requests route to shards by a pure
//!   hash of their [`ModelKey`], so each shard owns its caches
//!   outright and answers are identical across 1/2/4/8 workers.
//!
//! Everything is deterministic: answers are pure functions of
//! `(request, fault config)`, and the order-insensitive run digest
//! ([`fold_digest`]) is pinned by golden soak tests.
//!
//! PR 9 adds the service failure model (DESIGN.md §13): shard
//! **supervision** (heartbeats, death respawn, stall helpers), typed
//! rejections with per-request **deadlines** ([`Ticket::wait_deadline`]),
//! a per-key **circuit breaker** ([`breaker`]) feeding the
//! degraded-answer ladder ([`DegradeLevel`]), and stateless hash-keyed
//! **chaos** injection ([`tk1_sim::chaos`]) for seeded failure soaks.

pub mod breaker;
pub mod cache;
pub mod config;
pub mod request;
pub mod rig;
pub mod server;

pub use breaker::{BreakerConfig, BreakerDecision, BreakerRegistry, BreakerState};
pub use cache::{CacheOutcome, CacheStats, ModelCache};
pub use config::{ServeConfig, SupervisionConfig};
pub use request::{
    fold_digest, DegradeLevel, ModelKey, Rejected, Ticket, TuneRequest, TuneResponse, WorkloadSpec,
};
pub use rig::{race_to_halt_answer, LowerCache, Rig};
pub use server::{shard_for, AutoServer, LiveWorkers, ServerStats};
