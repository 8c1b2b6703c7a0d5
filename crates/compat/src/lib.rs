//! In-tree, zero-dependency replacements for the external crates the
//! workspace used to pull from crates-io.
//!
//! The reproduction's claims rest on *deterministic simulated
//! measurements*, so the build that produces them must itself be
//! hermetic: every bit of randomness, parallelism and serialization is
//! implemented here, in auditable std-only Rust, and the whole workspace
//! builds and tests with `--offline` from a clean checkout.
//!
//! Module map (what each shim replaces):
//!
//! * [`rng`] — seedable SplitMix64/xoshiro256++ PRNG with the `StdRng`
//!   API surface the workspace uses (replaces `rand`).
//! * [`par`] — scoped thread-pool with `par_iter`/`into_par_iter`-style
//!   chunked map-collect helpers with a *fixed* reduction order
//!   (replaces `rayon` and `crossbeam::thread::scope`).
//! * [`sync`] — a poison-free `RwLock` wrapper (replaces `parking_lot`).
//! * [`json`] — a hand-rolled JSON value type, parser and printer with
//!   `ToJson`/`FromJson` traits (replaces the `serde` derives).
//! * [`prop`] — a property-testing microframework with seeded
//!   generators, failure-case shrinking and a `proptest!`-compatible
//!   macro surface (replaces `proptest`).
//! * [`bench`](mod@bench) — a warmup/median/MAD timer harness with a
//!   criterion-compatible macro surface and a `--quick` smoke mode
//!   (replaces `criterion`).

//! * [`chan`] — bounded MPSC queues with a non-blocking, rejecting send
//!   side plus one-shot reply slots; the serving layer's backpressure
//!   and batching primitives (replaces `crossbeam-channel`).
//! * [`error`] — the workspace-wide [`error::PipelineError`] enum used by
//!   the hardened measurement-to-fit pipeline (not a shim; it lives here
//!   because `compat` is the one crate every layer can name).
//! * [`env`](mod@env) — typed accessors for the `FMM_ENERGY_*` environment
//!   variables (not a shim; it lives here for the same reason as
//!   [`error`] — every layer that reads a knob can name `compat`).

pub mod bench;
pub mod chan;
pub mod env;
pub mod error;
pub mod json;
pub mod par;
pub mod prop;
pub mod rng;
pub mod sync;
