//! Server configuration: shards, queues, caches, faults, chaos, breaker
//! and supervision.

use crate::breaker::BreakerConfig;
use std::path::PathBuf;
use tk1_sim::{ChaosConfig, FaultConfig};

/// Shard supervision knobs (see DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Supervisor poll period.  Short enough that a respawn lands well
    /// inside a client's retry backoff.
    pub poll_ms: u64,
    /// A shard whose heartbeat hasn't moved for this long while its
    /// queue is non-empty is declared stalled and gets a helper worker.
    pub stall_timeout_ms: u64,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig { poll_ms: 2, stall_timeout_ms: 2000 }
    }
}

/// Configuration of an [`crate::AutoServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard worker threads.  Each shard owns its model cache and its
    /// ingress queue outright; requests route to shards by model key.
    pub shards: usize,
    /// Per-shard ingress queue capacity; a full queue rejects with
    /// [`crate::Rejected::Overloaded`] instead of growing.
    pub queue_capacity: usize,
    /// Maximum requests drained per worker wakeup (one batch shares one
    /// cache lookup per model key).
    pub batch_max: usize,
    /// Fitted rigs each shard keeps in memory (LRU beyond that).
    pub cache_capacity: usize,
    /// Optional on-disk model cache directory, shared by all shards
    /// (file names embed the model key, and the router sends each key
    /// to exactly one shard, so there are no write races).
    pub cache_dir: Option<PathBuf>,
    /// Fault campaign the server's sweeps and devices run under.
    /// Explicit so tests can pin it regardless of `FMM_ENERGY_FAULTS`.
    pub faults: Option<FaultConfig>,
    /// Service-scope chaos injection (`None` = clean service, the
    /// default).  Chaos is stateless and hash-keyed, so the same config
    /// produces the same event set at any shard count.
    pub chaos: Option<ChaosConfig>,
    /// Per-(device × fault-profile) circuit breaker knobs.
    pub breaker: BreakerConfig,
    /// Shard supervision (death respawn + stall helpers).
    pub supervision: SupervisionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_capacity: 256,
            batch_max: 32,
            cache_capacity: 32,
            cache_dir: None,
            faults: FaultConfig::from_env(),
            chaos: None,
            breaker: BreakerConfig::default(),
            supervision: SupervisionConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig { faults: None, chaos: None, ..ServeConfig::default() };
        assert!(cfg.shards >= 1);
        assert!(cfg.queue_capacity >= cfg.batch_max);
        assert!(cfg.cache_capacity >= 1);
        assert!(cfg.cache_dir.is_none());
        assert!(cfg.breaker.ladder);
    }
}
