//! The service's wire types: requests, responses, rejections, and the
//! deterministic digests the soak tests pin.

use compat::chan::OnceTimeout;
use compat::error::PipelineError;
use compat::rng::mix64;
use dvfs_energy_model::GridPrediction;
use dvfs_governor::PhasePlan;
use std::time::{Duration, Instant};
use tk1_sim::{FaultConfig, OpVector};

/// What a fitted model is cached under: the catalog platform, the
/// simulated board on that platform, and the fault campaign it was
/// measured under.  Fitted constants do not transfer across devices
/// (each platform has different physics, each device seed is a
/// different board), and a model fitted through a faulted campaign is a
/// different model — all three halves must key the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// Canonical catalog id of the platform the model was fitted on.
    pub device_id: &'static str,
    /// The board (measurement-noise identity) the model was fitted on.
    pub device_seed: u64,
    /// [`FaultConfig::cache_key`] of the measurement campaign, 0 when
    /// fault-free.
    pub fault_key: u64,
}

impl ModelKey {
    /// The key for board `device_seed` of platform `device_id` under
    /// `faults`.  The id is canonicalized through the catalog, so two
    /// spellings of an unknown platform cannot alias to different keys.
    pub fn new(device_id: &str, device_seed: u64, faults: Option<&FaultConfig>) -> ModelKey {
        ModelKey {
            device_id: canonical_device_id(device_id),
            device_seed,
            fault_key: faults.map_or(0, FaultConfig::cache_key),
        }
    }

    /// FNV-1a hash of the platform id, folded into shard routing.
    pub fn device_id_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for &b in self.device_id.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Content hash of the whole key — the chaos layer's storm subject.
    /// Pure in the key's fields, so a storm covers the same models no
    /// matter which shard fits them.
    pub fn chaos_subject(&self) -> u64 {
        let mut h = self.device_id_hash();
        h = fnv1a_u64(h, self.device_seed);
        fnv1a_u64(h, self.fault_key)
    }
}

/// Resolves a request's platform id to its canonical catalog spelling,
/// falling back to the TK1 (the platform every pre-catalog request
/// meant) when the id names no catalog entry.
pub fn canonical_device_id(device_id: &str) -> &'static str {
    tk1_sim::catalog::device_spec(device_id).map_or("tk1", |spec| spec.id)
}

/// The workload half of a tuning request.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Pre-counted per-type operation totals (the paper's `W_k`/`Q_l`
    /// vector), as produced by a profiler or the counters path.
    Kernel {
        /// Operation counts per class.
        ops: OpVector,
        /// Fraction of peak issue the kernel sustains, `(0, 1]`; values
        /// outside are clamped into range at lowering.
        utilization: f64,
        /// Kernel launches (fixed per-launch overhead multiplier); 0 is
        /// clamped to 1 at lowering.
        launches: u32,
    },
    /// A raw FMM problem spec, lowered through the tree → lists →
    /// profile counters path (`kifmm::profile_shape`).  Lowering is
    /// deterministic in `(n, q, seed)`, so shards cache it.
    Fmm {
        /// Number of source/target points (clamped to the service's
        /// supported range at lowering).
        n: usize,
        /// Multipole expansion order (clamped likewise).
        q: usize,
        /// Seed of the synthetic point distribution.
        seed: u64,
    },
}

/// One tuning request.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneRequest {
    /// Catalog id of the platform to tune for (`"tk1"`, `"orin"`, …);
    /// ids not in the catalog resolve to the TK1.
    pub device_id: &'static str,
    /// Which simulated board of that platform to tune for; selects (or
    /// cold-fits) the cached model.
    pub device_seed: u64,
    /// The workload to tune.
    pub workload: WorkloadSpec,
    /// Rounds of a phase plan to compute on top of the grid answer;
    /// 0 skips planning (the common case).
    pub plan_rounds: usize,
}

impl TuneRequest {
    /// Content hash of the request — the chaos layer's worker-event
    /// subject.  Pure in the request's fields (no arrival index, no
    /// shard, no attempt), which is what makes a chaos soak's outcomes
    /// identical across 1/2/4/8 shards and any retry interleaving.
    pub fn chaos_key(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for &b in self.device_id.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h = fnv1a_u64(h, self.device_seed);
        match &self.workload {
            WorkloadSpec::Kernel { ops, utilization, launches } => {
                h = fnv1a_u64(h, 1);
                for c in tk1_sim::ALL_CLASSES {
                    h = fnv1a_u64(h, ops.get(c).to_bits());
                }
                h = fnv1a_u64(h, utilization.to_bits());
                h = fnv1a_u64(h, *launches as u64);
            }
            WorkloadSpec::Fmm { n, q, seed } => {
                h = fnv1a_u64(h, 2);
                h = fnv1a_u64(h, *n as u64);
                h = fnv1a_u64(h, *q as u64);
                h = fnv1a_u64(h, *seed);
            }
        }
        fnv1a_u64(h, self.plan_rounds as u64)
    }
}

/// How far down the degraded-answer ladder a response came from.
/// `None` (the healthy path) is *not* folded into the digest, so
/// chaos-off runs digest bitwise as before this type existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Healthy: a freshly fitted or cached model answered.
    None,
    /// Rung 1: a stale on-disk model from an earlier healthy campaign.
    StaleCache,
    /// Rung 2: a sibling device's transferred model warm-starts the
    /// answer on this device's timing model.
    SiblingModel,
    /// Rung 3: no model at all — a conservative race-to-halt plan
    /// (max-performance everywhere, energy bounded by the meter's full
    /// scale).
    RaceToHalt,
}

impl DegradeLevel {
    /// Stable digest code (0 reserved for `None`, never folded).
    pub fn code(self) -> u64 {
        match self {
            DegradeLevel::None => 0,
            DegradeLevel::StaleCache => 1,
            DegradeLevel::SiblingModel => 2,
            DegradeLevel::RaceToHalt => 3,
        }
    }
}

/// A tuning answer.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResponse {
    /// The predicted-optimal grid point.
    pub best: GridPrediction,
    /// Time/energy estimates at every grid setting, in grid order.
    pub grid: Vec<GridPrediction>,
    /// The governor phase plan, when `plan_rounds > 0`.
    pub plan: Option<PhasePlan>,
    /// Whether the answering model was fitted through any degradation
    /// fallback (`FitDiagnostics::degraded`) — the served equivalent of
    /// an error bar.
    pub degraded: bool,
    /// Which rung of the degraded-answer ladder served this (stamped on
    /// every answer; [`DegradeLevel::None`] on the healthy path).
    pub degrade: DegradeLevel,
    /// Whether the answer came from a cached model (`false` on the
    /// cold fit).  Excluded from [`TuneResponse::digest`]: cache state
    /// is a property of the run, not of the answer.
    pub cache_hit: bool,
}

impl TuneResponse {
    /// A 64-bit digest of the *answer content*: every grid estimate (by
    /// f64 bit pattern), the best setting, the plan, and the degraded
    /// flag.  `cache_hit` is excluded, so a cache-hit answer digests
    /// identically to the cold-fit answer it must match bitwise.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv1a_u64(h, self.best.setting.core_idx as u64);
        h = fnv1a_u64(h, self.best.setting.mem_idx as u64);
        for p in &self.grid {
            h = fnv1a_u64(h, p.setting.core_idx as u64);
            h = fnv1a_u64(h, p.setting.mem_idx as u64);
            h = fnv1a_u64(h, p.time_s.to_bits());
            h = fnv1a_u64(h, p.energy_j.to_bits());
        }
        if let Some(plan) = &self.plan {
            for s in &plan.settings {
                h = fnv1a_u64(h, s.core_idx as u64);
                h = fnv1a_u64(h, s.mem_idx as u64);
            }
            h = fnv1a_u64(h, plan.predicted_total_j.to_bits());
        }
        h = fnv1a_u64(h, self.degraded as u64);
        // The ladder rung is answer content, but `None` is deliberately
        // not folded: chaos-off digests must stay bitwise identical to
        // the pre-resilience service.
        if self.degrade != DegradeLevel::None {
            h = fnv1a_u64(h, 0xDE64_ADE0 ^ self.degrade.code());
        }
        h
    }
}

/// Why a request did not produce an answer — at submission (the send
/// side never blocks) or at resolution (the ticket never hangs).
/// Every variant is typed and final-or-retryable by policy:
/// `WorkerFailed` and `DeadlineExceeded` are worth a bounded retry,
/// `FitFailed` is deterministic and is not.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejected {
    /// The target shard's ingress queue is at capacity — explicit
    /// backpressure instead of unbounded growth.
    Overloaded {
        /// The shard that rejected.
        shard: usize,
        /// Its queue depth at rejection time.
        queue_depth: usize,
    },
    /// The server is shutting down; the shard no longer reads its queue.
    ShuttingDown,
    /// The shard worker died (or was dying) while this request was in
    /// flight: a caught panic answered it typed, or the reply slot was
    /// dropped in the unwind.  Retryable — the supervisor respawns the
    /// shard.
    WorkerFailed {
        /// The shard whose worker failed.
        shard: usize,
    },
    /// The caller's deadline expired before the answer arrived.  The
    /// ticket is consumed (the slot is poisoned; a late answer is
    /// counted by the worker, not delivered).  Retryable.
    DeadlineExceeded {
        /// How long the caller waited, in milliseconds.
        waited_ms: u64,
    },
    /// The model fit failed and the degraded-answer ladder was disabled
    /// (or exhausted): the typed error instead of an answer.  Final —
    /// the failure is deterministic in the key, so retrying is futile.
    FitFailed {
        /// The shard that attempted the fit.
        shard: usize,
        /// The underlying pipeline error.
        error: PipelineError,
    },
}

/// The reply to one accepted request, redeemable exactly once.
pub struct Ticket {
    pub(crate) reply: compat::chan::OnceReceiver<Result<TuneResponse, Rejected>>,
    pub(crate) shard: usize,
}

impl Ticket {
    /// Blocks until the answer or a typed rejection arrives.  A dropped
    /// reply slot (a shard worker that died mid-unwind) surfaces as
    /// [`Rejected::WorkerFailed`], never a hang.
    pub fn wait(self) -> Result<TuneResponse, Rejected> {
        let shard = self.shard;
        self.reply.recv().unwrap_or(Err(Rejected::WorkerFailed { shard }))
    }

    /// Like [`Ticket::wait`], but gives up after `deadline` with
    /// [`Rejected::DeadlineExceeded`].  Consuming the ticket on expiry
    /// poisons the reply slot, so the worker's late answer is reported
    /// to it (`send() == false`) rather than silently parked.
    pub fn wait_deadline(self, deadline: Duration) -> Result<TuneResponse, Rejected> {
        let shard = self.shard;
        let start = Instant::now();
        match self.reply.recv_timeout(deadline) {
            OnceTimeout::Value(r) => r,
            OnceTimeout::SenderDropped => Err(Rejected::WorkerFailed { shard }),
            OnceTimeout::TimedOut => {
                Err(Rejected::DeadlineExceeded { waited_ms: start.elapsed().as_millis() as u64 })
            }
        }
    }

    /// The shard this ticket's request was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the 8 bytes of `v`.
fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one response into an order-insensitive run digest: XOR of
/// `mix64(request id) ⊕ mix64(response digest)` terms commutes, so the
/// same request/response pairs produce the same run digest regardless
/// of completion order — which is what makes the digest identical
/// across 1/2/4/8 shard threads.
pub fn fold_digest(acc: u64, request_id: u64, response_digest: u64) -> u64 {
    acc ^ mix64(mix64(request_id).wrapping_add(response_digest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tk1_sim::Setting;

    fn response() -> TuneResponse {
        let p = GridPrediction { setting: Setting::new(2, 3), time_s: 0.5, energy_j: 2.0 };
        TuneResponse {
            best: p,
            grid: vec![
                p,
                GridPrediction { setting: Setting::new(4, 1), time_s: 0.25, energy_j: 3.0 },
            ],
            plan: None,
            degraded: false,
            degrade: DegradeLevel::None,
            cache_hit: false,
        }
    }

    #[test]
    fn digest_excludes_cache_hit_but_not_content() {
        let a = response();
        let mut hit = a.clone();
        hit.cache_hit = true;
        assert_eq!(a.digest(), hit.digest(), "cache state is not answer content");

        let mut degraded = a.clone();
        degraded.degraded = true;
        assert_ne!(a.digest(), degraded.digest());

        let mut moved = a.clone();
        moved.grid[1].energy_j = 3.0000000001;
        assert_ne!(a.digest(), moved.digest(), "f64 bits are content");
    }

    #[test]
    fn degrade_level_is_content_but_none_folds_nothing() {
        let a = response();
        // `None` must digest exactly as the pre-ladder encoding did:
        // the golden soak digest depends on this.
        let mut h = super::FNV_OFFSET;
        h = super::fnv1a_u64(h, a.best.setting.core_idx as u64);
        h = super::fnv1a_u64(h, a.best.setting.mem_idx as u64);
        for p in &a.grid {
            h = super::fnv1a_u64(h, p.setting.core_idx as u64);
            h = super::fnv1a_u64(h, p.setting.mem_idx as u64);
            h = super::fnv1a_u64(h, p.time_s.to_bits());
            h = super::fnv1a_u64(h, p.energy_j.to_bits());
        }
        h = super::fnv1a_u64(h, 0);
        assert_eq!(a.digest(), h, "None adds nothing to the digest");
        // Every real rung is distinct answer content.
        let rungs =
            [DegradeLevel::StaleCache, DegradeLevel::SiblingModel, DegradeLevel::RaceToHalt];
        let mut seen = vec![a.digest()];
        for rung in rungs {
            let mut d = a.clone();
            d.degrade = rung;
            assert!(!seen.contains(&d.digest()), "{rung:?} must change the digest");
            seen.push(d.digest());
        }
    }

    #[test]
    fn fold_digest_is_order_insensitive() {
        let pairs = [(0u64, 11u64), (1, 22), (2, 33), (3, 44)];
        let forward = pairs.iter().fold(0u64, |acc, &(id, d)| fold_digest(acc, id, d));
        let backward = pairs.iter().rev().fold(0u64, |acc, &(id, d)| fold_digest(acc, id, d));
        assert_eq!(forward, backward);
        // ...but the pairing matters: swapping digests across ids changes it.
        let swapped = fold_digest(fold_digest(0, 0, 22), 1, 11);
        let straight = fold_digest(fold_digest(0, 0, 11), 1, 22);
        assert_ne!(swapped, straight);
    }

    #[test]
    fn model_key_folds_fault_campaign() {
        let clean = ModelKey::new("tk1", 7, None);
        assert_eq!(clean.fault_key, 0);
        let faulted = ModelKey::new("tk1", 7, Some(&FaultConfig::default_campaign()));
        assert_ne!(clean, faulted);
        assert_eq!(faulted, ModelKey::new("tk1", 7, Some(&FaultConfig::default_campaign())));
    }

    #[test]
    fn model_key_folds_platform_and_canonicalizes_unknown_ids() {
        let tk1 = ModelKey::new("tk1", 7, None);
        let orin = ModelKey::new("orin", 7, None);
        assert_ne!(tk1, orin, "same board seed on different platforms must not collide");
        assert_ne!(tk1.device_id_hash(), orin.device_id_hash());
        // Unknown platforms degrade to the TK1, under one canonical key.
        assert_eq!(ModelKey::new("not-a-device", 7, None), tk1);
        assert_eq!(ModelKey::new("", 7, None), tk1);
    }
}
