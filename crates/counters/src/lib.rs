//! An nvprof-style performance-counter facility.
//!
//! The paper profiles its FMM with `nvprof` hardware counters (its
//! Table III) and derives the model's operation counts from them — e.g.
//! "reads from the L2 cache can be calculated by subtracting the number
//! of bytes read from the DRAM from the total number of *requests* to
//! the L2".  This crate reproduces that pipeline:
//!
//! * [`events`] — the counter events ("E") and metrics ("M") of
//!   Table III, by their nvprof names.
//! * [`registry`] — the counter set that instrumented code increments
//!   (relaxed atomics, so one set can be shared across threads).
//! * [`cache`] — a set-associative L1/L2/DRAM hierarchy simulator at
//!   32-byte-sector granularity, standing in for the real memory system
//!   behind the counters.
//! * [`profile`] — derivation of the energy model's `(W_k, Q_l)` feature
//!   vector from raw counter values, including the paper's
//!   L2-minus-DRAM subtraction.

pub mod cache;
pub mod events;
pub mod profile;
pub mod registry;

pub use cache::{AccessOutcome, CacheConfig, CacheSim};
pub use events::{CounterEvent, CounterKind, TABLE3_EVENTS};
pub use profile::derive_op_vector;
pub use registry::CounterSet;
