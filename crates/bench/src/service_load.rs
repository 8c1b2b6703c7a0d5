//! `service_load` — a seeded closed-loop load generator for the
//! autotune service (`crates/autoserve`), with the client-side half of
//! the service failure model: per-request deadlines, bounded retries
//! with deterministic exponential backoff + jitter, and typed final
//! outcomes for every request.
//!
//! Spawns `clients` closed-loop client threads against one
//! [`AutoServer`] and drives `requests` synthetic tuning requests
//! through it in seeded bursts of mixed sizes: pre-counted kernel
//! workloads across three op-count size classes, a sprinkle of raw FMM
//! problem specs (lowered through the counters path), and occasional
//! governor phase plans.  Request *content* is a pure function of
//! `(seed, request id)` — never of the client or shard that carries it —
//! so the order-insensitive run digest ([`fold_digest`]) is identical
//! across any shard/client count, which is what `BENCH_service.json`'s
//! cross-shard digest table pins.
//!
//! # Chaos soaks and the digest
//!
//! With `chaos` set, every request still *resolves* — an answer
//! (possibly degraded) or a typed rejection — and the digest folds
//! both: answers by their content digest, final rejections by a marker
//! xor the rejection kind (shard numbers and waited times excluded).
//! [`LoadConfig::chaos_soak`] pins `batch_max = 1` so an injected
//! worker abort kills only its own job, never batch-mates as
//! collateral; combined with attempt-keyed chaos (aborts/stalls hit
//! first attempts only, panics hit every attempt) that makes each
//! request's final outcome a pure function of `(content, chaos config,
//! retry policy)` — and the chaos digest shard-invariant, which
//! `BENCH_chaos.json` pins at 1/2/4/8 shards.  Digest-bearing runs use
//! no deadline (deadline outcomes are timing-dependent); the deadline
//! path is exercised by the separate stall-probe segment.
//!
//! A separate overload probe floods a deliberately tiny server (one
//! shard, slow lowering-heavy requests, short queue) to measure the
//! backpressure path; its rejections are real and timing-dependent, so
//! the probe is excluded from the digest.

use std::time::{Duration, Instant};

use compat::rng::{splitmix64, StdRng};
use dvfs_autoserve::{
    fold_digest, AutoServer, DegradeLevel, Rejected, ServeConfig, Ticket, TuneRequest, WorkloadSpec,
};
use tk1_sim::{ChaosConfig, ChaosRates, FaultConfig, OpClass, OpVector};

/// Folded into the digest for a request whose final outcome was a typed
/// rejection (xor the rejection kind), so lost-vs-rejected can never
/// alias and clean runs (zero rejections) keep their historical digest.
const REJECTION_MARK: u64 = 0xBAD0_7E11_ED00_0000;

/// Client-side retry policy for retryable rejections
/// (`WorkerFailed`, `DeadlineExceeded`; `FitFailed` is final).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (first + retries).
    pub max_attempts: u32,
    /// Backoff before retry 1; doubles per retry (pre-jitter).
    pub base_backoff_us: u64,
    /// Ceiling on any single backoff (pre-jitter).
    pub max_backoff_us: u64,
    /// Per-client budget of total backoff sleep; once spent, retries go
    /// out immediately (the attempt bound still holds), so a retry
    /// storm can't stall a client unboundedly.
    pub budget_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_backoff_us: 200, max_backoff_us: 5_000, budget_ms: 250 }
    }
}

/// Load-generator configuration.  The defaults are sized for the
/// integration tests; `repro service --requests 1000000` scales
/// `requests` up to the committed ≥1M-request artifact.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Requests in the main (digest-bearing) segment.
    pub requests: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Maximum tickets a client keeps in flight; actual burst sizes are
    /// drawn per round from `1..=burst`.
    pub burst: usize,
    /// Shard worker threads of the server under test.
    pub shards: usize,
    /// Per-shard ingress queue capacity.
    pub queue_capacity: usize,
    /// Max requests drained per worker wakeup.
    pub batch_max: usize,
    /// In-memory model-cache rigs per shard.
    pub cache_capacity: usize,
    /// Catalog platform every request tunes for (`FMM_ENERGY_DEVICE`
    /// selects it in `repro service` and `repro chaos`); the TK1 by
    /// default.
    pub device_id: &'static str,
    /// Distinct simulated boards the request stream tunes for (device
    /// seeds `0..distinct_devices`); each costs one cold fit.
    pub distinct_devices: u64,
    /// Per-mille of requests that are raw FMM problem specs.
    pub fmm_per_mille: u32,
    /// Problem sizes the FMM specs draw from.  Lowering a spec costs a
    /// real plan+profile, so tests shrink this list; the committed
    /// artifact uses the full default.
    pub fmm_sizes: Vec<usize>,
    /// Per-mille of requests that also ask for a governor phase plan.
    pub plan_per_mille: u32,
    /// Seed of the whole request stream.
    pub seed: u64,
    /// Fault campaign the server runs under (`None` = clean).
    pub faults: Option<FaultConfig>,
    /// Service-scope chaos the server runs under (`None` = clean).
    pub chaos: Option<ChaosConfig>,
    /// Per-request client deadline.  Keep `None` in digest-bearing
    /// runs: whether a deadline fires depends on wall-clock timing, so
    /// its outcomes are real but not digest-stable.
    pub deadline_ms: Option<u64>,
    /// Client retry policy for retryable typed rejections.
    pub retry: RetryPolicy,
    /// Submissions in the overload probe segment (0 skips the probe).
    pub overload_probes: usize,
    /// Requests in the stall/deadline probe segment (0 skips it): a
    /// one-shard stall-heavy chaos server where every first attempt
    /// blows an 8ms deadline and the deterministic retry recovers.
    pub stall_probes: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            requests: 10_000,
            clients: 4,
            burst: 32,
            shards: 4,
            queue_capacity: 256,
            batch_max: 32,
            cache_capacity: 32,
            device_id: "tk1",
            distinct_devices: 24,
            fmm_per_mille: 2,
            fmm_sizes: vec![1024, 2048, 4096],
            plan_per_mille: 5,
            seed: 0x5EED_5E4B,
            faults: None,
            chaos: None,
            deadline_ms: None,
            retry: RetryPolicy::default(),
            overload_probes: 512,
            stall_probes: 0,
        }
    }
}

impl LoadConfig {
    /// The canonical chaos-soak profile: the default request mix under
    /// [`ChaosConfig::default_profile`], no deadline (digest-bearing),
    /// `batch_max = 1` (see the module docs: no collateral batch kills,
    /// so every final outcome is deterministic), plus the stall/deadline
    /// probe segment.
    pub fn chaos_soak(requests: usize, shards: usize) -> LoadConfig {
        LoadConfig {
            requests,
            shards,
            batch_max: 1,
            chaos: Some(ChaosConfig::default_profile()),
            deadline_ms: None,
            overload_probes: 0,
            stall_probes: 12,
            ..LoadConfig::default()
        }
    }
}

/// Latency percentiles over one class of responses, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of responses in the class.
    pub count: usize,
    /// Median latency.
    pub p50_us: f64,
    /// 99th-percentile latency (nearest rank).
    pub p99_us: f64,
    /// Worst observed latency.
    pub max_us: f64,
}

impl LatencyStats {
    fn from_samples(mut us: Vec<f64>) -> LatencyStats {
        us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let pick = |p: f64| {
            if us.is_empty() {
                return 0.0;
            }
            let rank = ((p / 100.0) * us.len() as f64).ceil() as usize;
            us[rank.saturating_sub(1).min(us.len() - 1)]
        };
        LatencyStats {
            count: us.len(),
            p50_us: pick(50.0),
            p99_us: pick(99.0),
            max_us: us.last().copied().unwrap_or(0.0),
        }
    }
}

/// What the overload probe measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadReport {
    /// Submissions attempted against the tiny server.
    pub attempts: usize,
    /// Immediate [`Rejected::Overloaded`] rejections.
    pub rejections: usize,
    /// Accepted requests that were still answered.
    pub served: usize,
    /// `rejections / attempts`.
    pub rejection_rate: f64,
}

/// What the stall/deadline probe measured: every first attempt stalls
/// past the client deadline; the typed `DeadlineExceeded` fires and the
/// deterministic retry (attempt 1, which chaos never stalls) recovers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StallProbeReport {
    /// Probe requests driven.
    pub probes: usize,
    /// First attempts that hit the client deadline.
    pub deadline_hits: usize,
    /// Probes whose answer eventually arrived (first try or retry).
    pub recovered: usize,
    /// Server-side answers that arrived after their client had gone.
    pub server_late_answers: usize,
    /// Injected stalls the server slept through.
    pub server_stalls: usize,
}

/// The full load-generator result.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests driven in the main segment.
    pub requests: usize,
    /// Requests resolved with an answer (including degraded answers);
    /// `requests - served` resolved with a typed rejection — nothing
    /// ever hangs or vanishes.
    pub served: usize,
    /// Requests whose final outcome was the typed
    /// [`Rejected::FitFailed`] (0 on clean runs).
    pub fit_errors: usize,
    /// Requests whose final outcome was any typed rejection.
    pub typed_rejections: usize,
    /// `served / requests` — the availability the chaos gate holds
    /// above 99% (degraded answers count: a stale or race-to-halt
    /// answer is still an answer).
    pub availability: f64,
    /// Retry attempts clients issued after retryable rejections.
    pub retries: usize,
    /// Requests answered only after at least one retry.
    pub recovered: usize,
    /// Total backoff clients slept, milliseconds (budget-bounded).
    pub backoff_ms: f64,
    /// Client threads used.
    pub clients: usize,
    /// Shard worker threads of the server under test.
    pub shards: usize,
    /// Wall-clock of the main segment, seconds.
    pub elapsed_s: f64,
    /// `served / elapsed_s`.
    pub throughput_rps: f64,
    /// Latency of cache-hit responses.
    pub hit: LatencyStats,
    /// Latency of cold-path responses (cold fits, disk restores, and
    /// ladder answers).
    pub cold: LatencyStats,
    /// Server-side model-cache hit rate over the main segment.
    pub cache_hit_rate: f64,
    /// Responses answered by a degraded fit or a ladder rung.
    pub degraded_responses: usize,
    /// Ladder answers served from a stale on-disk model (client count).
    pub degraded_stale: usize,
    /// Ladder answers from a sibling-device transfer (client count).
    pub degraded_sibling: usize,
    /// Ladder answers from the race-to-halt rung (client count).
    pub degraded_fallback: usize,
    /// Sweep retries absorbed by the measurement pipeline.
    pub sweep_retries: usize,
    /// Deepest any shard queue got during the main segment.
    pub max_queue_depth: usize,
    /// Rejections during the main segment (0 when sized correctly; the
    /// client retries after draining its burst, so nothing is lost).
    pub main_rejections: usize,
    /// Worker threads chaos killed (server-side, best-effort).
    pub worker_deaths: usize,
    /// Shard respawns (supervisor + shutdown drain).
    pub respawns: usize,
    /// Stall helper workers the supervisor added.
    pub stall_respawns: usize,
    /// Per-job panics the workers caught and answered typed.
    pub caught_panics: usize,
    /// Circuit-breaker open transitions.
    pub breaker_opens: usize,
    /// Order-insensitive digest over every `(request id, final
    /// outcome)` pair — answers and typed rejections both fold.
    pub digest: u64,
    /// The overload probe segment.
    pub overload: OverloadReport,
    /// The stall/deadline probe segment.
    pub stall_probe: StallProbeReport,
}

/// The synthetic request for `id` under `cfg` — a pure function of
/// `(cfg.seed, id)` and the mix knobs, independent of clients/shards.
pub fn synth_request(cfg: &LoadConfig, id: u64) -> TuneRequest {
    let mut state = cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(splitmix64(&mut state));
    let device_seed = rng.next_u64() % cfg.distinct_devices.max(1);
    let plan_rounds =
        if rng.next_u64() % 1000 < cfg.plan_per_mille as u64 { 4usize } else { 0usize };
    let fmm = !cfg.fmm_sizes.is_empty() && rng.next_u64() % 1000 < cfg.fmm_per_mille as u64;
    let workload = if fmm {
        // A few distinct FMM specs, so shards answer them from their
        // lowering caches after first sight.
        WorkloadSpec::Fmm {
            n: cfg.fmm_sizes[(rng.next_u64() % cfg.fmm_sizes.len() as u64) as usize],
            q: 4,
            seed: rng.next_u64() % 4,
        }
    } else {
        // Three op-count size classes with per-class jitter.
        let base = [1e6, 1e9, 1e11][rng.random_range(0usize..3)];
        let mut count = |class_scale: f64| base * class_scale * rng.random_range(0.5f64..2.0);
        WorkloadSpec::Kernel {
            ops: OpVector::from_pairs(&[
                (OpClass::FlopSp, count(1.0)),
                (OpClass::FlopDp, count(0.25)),
                (OpClass::Int, count(1.5)),
                (OpClass::Shared, count(0.5)),
                (OpClass::L1, count(0.75)),
                (OpClass::L2, count(0.2)),
                (OpClass::Dram, count(0.05)),
            ]),
            utilization: rng.random_range(0.2f64..1.0),
            launches: 1 + (rng.next_u64() % 4) as u32,
        }
    };
    TuneRequest { device_id: cfg.device_id, device_seed, workload, plan_rounds }
}

/// One client's record of one resolved request.
struct Outcome {
    id: u64,
    digest: u64,
    latency_us: f64,
    cache_hit: bool,
    degrade: DegradeLevel,
    attempts: u32,
    /// `Some(kind code)` when the final outcome was a typed rejection.
    rejection: Option<u64>,
}

/// Per-client retry accounting.
#[derive(Default)]
struct ClientStats {
    retries: usize,
    backoff_us: u64,
}

/// The digest code of a rejection kind.  Shard numbers and waited
/// times are deliberately excluded: the digest must be invariant
/// across shard counts and wall-clock speed.
fn rejection_code(r: &Rejected) -> u64 {
    match r {
        Rejected::Overloaded { .. } => 1,
        Rejected::ShuttingDown => 2,
        Rejected::WorkerFailed { .. } => 3,
        Rejected::DeadlineExceeded { .. } => 4,
        Rejected::FitFailed { .. } => 5,
    }
}

fn retryable(r: &Rejected) -> bool {
    matches!(r, Rejected::WorkerFailed { .. } | Rejected::DeadlineExceeded { .. })
}

/// Deterministic exponential backoff with jitter for `(id, attempt)`:
/// doubles from the base, caps at the max, then jitters to 50–100% of
/// the cap via a stateless hash.  Pure in `(seed, id, attempt)` —
/// clients share no RNG state, so the schedule can't leak timing into
/// anything digested.
fn backoff_us(cfg: &LoadConfig, id: u64, attempt: u32) -> u64 {
    let doublings = attempt.saturating_sub(1).min(10);
    let exp = cfg.retry.base_backoff_us.saturating_mul(1u64 << doublings);
    let cap = exp.min(cfg.retry.max_backoff_us.max(1));
    let mut s = cfg.seed ^ id.wrapping_mul(0xA24B_AED4_963E_E407) ^ ((attempt as u64) << 48);
    let h = splitmix64(&mut s);
    cap / 2 + h % (cap / 2 + 1)
}

/// Runs the closed-loop load: the main seeded segment against a
/// production-shaped server, then the overload and stall probes against
/// tiny purpose-built ones.
pub fn service_load(cfg: &LoadConfig) -> LoadReport {
    let server = AutoServer::start(ServeConfig {
        shards: cfg.shards,
        queue_capacity: cfg.queue_capacity,
        batch_max: cfg.batch_max,
        cache_capacity: cfg.cache_capacity,
        cache_dir: None,
        faults: cfg.faults.clone(),
        chaos: cfg.chaos,
        breaker: Default::default(),
        supervision: Default::default(),
    });

    let clients = cfg.clients.max(1);
    let started = Instant::now();
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(cfg.requests);
    let mut retries = 0usize;
    let mut backoff_us_total = 0u64;
    std::thread::scope(|scope| {
        let server = &server;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || client_loop(server, cfg, (c..cfg.requests).step_by(clients)))
            })
            .collect();
        for h in handles {
            let (out, cs) = h.join().expect("client threads do not panic");
            outcomes.extend(out);
            retries += cs.retries;
            backoff_us_total += cs.backoff_us;
        }
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let main_rejections = server.rejected();
    let stats = server.shutdown();

    let mut digest = 0u64;
    let mut hit_us = Vec::new();
    let mut cold_us = Vec::new();
    let mut fit_errors = 0usize;
    let mut typed_rejections = 0usize;
    let mut recovered = 0usize;
    let mut degraded = [0usize; 3];
    for o in &outcomes {
        match o.rejection {
            Some(code) => {
                typed_rejections += 1;
                // Code 5 = `Rejected::FitFailed` (see `rejection_code`).
                if code == 5 {
                    fit_errors += 1;
                }
                digest = fold_digest(digest, o.id, REJECTION_MARK ^ code);
            }
            None => {
                digest = fold_digest(digest, o.id, o.digest);
                if o.attempts > 0 {
                    recovered += 1;
                }
                match o.degrade {
                    DegradeLevel::None => {}
                    DegradeLevel::StaleCache => degraded[0] += 1,
                    DegradeLevel::SiblingModel => degraded[1] += 1,
                    DegradeLevel::RaceToHalt => degraded[2] += 1,
                }
                if o.cache_hit {
                    hit_us.push(o.latency_us);
                } else {
                    cold_us.push(o.latency_us);
                }
            }
        }
    }
    let served = outcomes.len() - typed_rejections;

    LoadReport {
        requests: cfg.requests,
        served,
        fit_errors,
        typed_rejections,
        availability: if cfg.requests > 0 { served as f64 / cfg.requests as f64 } else { 1.0 },
        retries,
        recovered,
        backoff_ms: backoff_us_total as f64 / 1e3,
        clients,
        shards: cfg.shards,
        elapsed_s,
        throughput_rps: if elapsed_s > 0.0 { served as f64 / elapsed_s } else { 0.0 },
        hit: LatencyStats::from_samples(hit_us),
        cold: LatencyStats::from_samples(cold_us),
        cache_hit_rate: if served > 0 { stats.cache_hits as f64 / served as f64 } else { 0.0 },
        degraded_responses: stats.degraded_responses,
        degraded_stale: degraded[0],
        degraded_sibling: degraded[1],
        degraded_fallback: degraded[2],
        sweep_retries: stats.sweep_retries,
        max_queue_depth: stats.max_queue_depth,
        main_rejections,
        worker_deaths: stats.worker_deaths,
        respawns: stats.respawns,
        stall_respawns: stats.stall_respawns,
        caught_panics: stats.caught_panics,
        breaker_opens: stats.breaker_opens,
        digest,
        overload: overload_probe(cfg),
        stall_probe: stall_probe(cfg),
    }
}

/// One closed-loop client: submit a seeded burst, drain it, and settle
/// any retryable failures with deadline/backoff-governed retries.  On
/// an overload rejection (possible only when the config undersizes the
/// queues) the client drains its in-flight burst and retries the
/// submission, so no request is ever lost from the digest.
fn client_loop(
    server: &AutoServer,
    cfg: &LoadConfig,
    ids: impl Iterator<Item = usize>,
) -> (Vec<Outcome>, ClientStats) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC11E_17);
    let deadline = cfg.deadline_ms.map(Duration::from_millis);
    let mut outcomes = Vec::new();
    let mut stats = ClientStats::default();
    let mut budget_us = cfg.retry.budget_ms.saturating_mul(1000);
    let mut pending: Vec<(u64, Instant, Ticket)> = Vec::new();
    let mut redo: Vec<(u64, u32, Instant)> = Vec::new();
    let mut burst = 1 + rng.next_u64() as usize % cfg.burst.max(1);
    for id in ids {
        let req = synth_request(cfg, id as u64);
        loop {
            match server.submit(req.clone()) {
                Ok(ticket) => {
                    pending.push((id as u64, Instant::now(), ticket));
                    break;
                }
                Err(Rejected::Overloaded { .. }) => {
                    drain(cfg, deadline, &mut pending, &mut outcomes, &mut redo);
                    settle(
                        server,
                        cfg,
                        deadline,
                        &mut redo,
                        &mut outcomes,
                        &mut stats,
                        &mut budget_us,
                    );
                    std::thread::yield_now();
                }
                Err(other) => {
                    // A typed submission failure is a final outcome —
                    // recorded, digested, never a panic or a hang.
                    outcomes.push(rejected_outcome(id as u64, 0, 0.0, &other));
                    break;
                }
            }
        }
        if pending.len() >= burst {
            drain(cfg, deadline, &mut pending, &mut outcomes, &mut redo);
            settle(server, cfg, deadline, &mut redo, &mut outcomes, &mut stats, &mut budget_us);
            burst = 1 + rng.next_u64() as usize % cfg.burst.max(1);
        }
    }
    drain(cfg, deadline, &mut pending, &mut outcomes, &mut redo);
    settle(server, cfg, deadline, &mut redo, &mut outcomes, &mut stats, &mut budget_us);
    (outcomes, stats)
}

fn answer_outcome(
    id: u64,
    attempts: u32,
    started: Instant,
    resp: &dvfs_autoserve::TuneResponse,
) -> Outcome {
    Outcome {
        id,
        digest: resp.digest(),
        latency_us: started.elapsed().as_secs_f64() * 1e6,
        cache_hit: resp.cache_hit,
        degrade: resp.degrade,
        attempts,
        rejection: None,
    }
}

fn rejected_outcome(id: u64, attempts: u32, latency_us: f64, r: &Rejected) -> Outcome {
    Outcome {
        id,
        digest: 0,
        latency_us,
        cache_hit: false,
        degrade: DegradeLevel::None,
        attempts,
        rejection: Some(rejection_code(r)),
    }
}

fn wait_ticket(
    ticket: Ticket,
    deadline: Option<Duration>,
) -> Result<dvfs_autoserve::TuneResponse, Rejected> {
    match deadline {
        Some(d) => ticket.wait_deadline(d),
        None => ticket.wait(),
    }
}

/// Resolves every pending ticket: answers and final rejections become
/// outcomes; retryable rejections queue for [`settle`].
fn drain(
    cfg: &LoadConfig,
    deadline: Option<Duration>,
    pending: &mut Vec<(u64, Instant, Ticket)>,
    out: &mut Vec<Outcome>,
    redo: &mut Vec<(u64, u32, Instant)>,
) {
    for (id, submitted, ticket) in pending.drain(..) {
        match wait_ticket(ticket, deadline) {
            Ok(resp) => out.push(answer_outcome(id, 0, submitted, &resp)),
            Err(r) if retryable(&r) && cfg.retry.max_attempts > 1 => {
                redo.push((id, 1, submitted));
            }
            Err(r) => {
                let us = submitted.elapsed().as_secs_f64() * 1e6;
                out.push(rejected_outcome(id, 0, us, &r));
            }
        }
    }
}

/// Runs the retry ladder for every queued retryable failure: backoff
/// (deterministic, budget-bounded), resubmit with the bumped attempt
/// number, wait again; bounded by `retry.max_attempts`.
fn settle(
    server: &AutoServer,
    cfg: &LoadConfig,
    deadline: Option<Duration>,
    redo: &mut Vec<(u64, u32, Instant)>,
    out: &mut Vec<Outcome>,
    stats: &mut ClientStats,
    budget_us: &mut u64,
) {
    while let Some((id, attempt, started)) = redo.pop() {
        stats.retries += 1;
        let pause = backoff_us(cfg, id, attempt).min(*budget_us);
        if pause > 0 {
            *budget_us -= pause;
            stats.backoff_us += pause;
            std::thread::sleep(Duration::from_micros(pause));
        }
        let req = synth_request(cfg, id);
        let mut submitted = None;
        loop {
            match server.submit_retry(req.clone(), attempt) {
                Ok(t) => {
                    submitted = Some(t);
                    break;
                }
                Err(Rejected::Overloaded { .. }) => std::thread::yield_now(),
                Err(r) => {
                    let us = started.elapsed().as_secs_f64() * 1e6;
                    out.push(rejected_outcome(id, attempt, us, &r));
                    break;
                }
            }
        }
        let Some(ticket) = submitted.take() else { continue };
        match wait_ticket(ticket, deadline) {
            Ok(resp) => out.push(answer_outcome(id, attempt, started, &resp)),
            Err(r) if retryable(&r) && attempt + 1 < cfg.retry.max_attempts => {
                redo.push((id, attempt + 1, started));
            }
            Err(r) => {
                let us = started.elapsed().as_secs_f64() * 1e6;
                out.push(rejected_outcome(id, attempt, us, &r));
            }
        }
    }
}

/// Floods a deliberately tiny server (one shard, short queue) with
/// lowering-heavy requests from a tight loop, so the worker falls behind
/// and the bounded queue must reject.  Every accepted request is still
/// answered; rejections are immediate and counted, never panics.
fn overload_probe(cfg: &LoadConfig) -> OverloadReport {
    if cfg.overload_probes == 0 {
        return OverloadReport { attempts: 0, rejections: 0, served: 0, rejection_rate: 0.0 };
    }
    let server = AutoServer::start(ServeConfig {
        shards: 1,
        queue_capacity: 8,
        batch_max: cfg.batch_max,
        cache_capacity: 4,
        cache_dir: None,
        faults: cfg.faults.clone(),
        chaos: None,
        breaker: Default::default(),
        supervision: Default::default(),
    });
    let mut tickets = Vec::new();
    let mut rejections = 0usize;
    for i in 0..cfg.overload_probes {
        // Every request names a fresh board, so each one the worker
        // accepts costs a full cold fit while the tight submission loop
        // keeps hammering the 8-slot queue.
        let req = TuneRequest {
            device_id: cfg.device_id,
            device_seed: 0xDEAD_0000 + i as u64,
            workload: WorkloadSpec::Kernel {
                ops: OpVector::from_pairs(&[(OpClass::FlopDp, 1e9), (OpClass::Dram, 1e7)]),
                utilization: 0.8,
                launches: 1,
            },
            plan_rounds: 0,
        };
        match server.submit(req) {
            Ok(t) => tickets.push(t),
            Err(Rejected::Overloaded { .. }) => rejections += 1,
            Err(other) => unreachable!("server is alive: {other:?}"),
        }
    }
    let served = tickets.into_iter().filter_map(|t| t.wait().ok()).count();
    let stats = server.shutdown();
    debug_assert_eq!(stats.rejected, rejections);
    OverloadReport {
        attempts: cfg.overload_probes,
        rejections,
        served,
        rejection_rate: rejections as f64 / cfg.overload_probes as f64,
    }
}

/// Drives the deadline path end to end: a one-shard server where every
/// first attempt stalls ~40ms, clients wait with an 8ms deadline, so
/// the typed `DeadlineExceeded` must fire — and the deterministic
/// retry (attempt 1 never stalls) must recover.  Timing-dependent by
/// construction, so it reports rates, never digests.
fn stall_probe(cfg: &LoadConfig) -> StallProbeReport {
    if cfg.stall_probes == 0 {
        return StallProbeReport::default();
    }
    let server = AutoServer::start(ServeConfig {
        shards: 1,
        queue_capacity: 64,
        batch_max: 1,
        cache_capacity: 4,
        cache_dir: None,
        faults: cfg.faults.clone(),
        chaos: Some(ChaosConfig {
            seed: cfg.seed | 1,
            rates: ChaosRates { worker_stall: 1.0, stall_ms: 40, ..ChaosRates::off() },
        }),
        breaker: Default::default(),
        supervision: Default::default(),
    });
    let deadline = Duration::from_millis(8);
    let mut report = StallProbeReport { probes: cfg.stall_probes, ..Default::default() };
    for i in 0..cfg.stall_probes {
        let req = TuneRequest {
            device_id: cfg.device_id,
            device_seed: 0,
            workload: WorkloadSpec::Kernel {
                ops: OpVector::from_pairs(&[(OpClass::FlopSp, 1e9 + i as f64)]),
                utilization: 0.9,
                launches: 1,
            },
            plan_rounds: 0,
        };
        let Ok(ticket) = server.submit(req.clone()) else { continue };
        match ticket.wait_deadline(deadline) {
            Ok(_) => report.recovered += 1,
            Err(Rejected::DeadlineExceeded { .. }) => {
                report.deadline_hits += 1;
                if let Ok(retry) = server.submit_retry(req, 1) {
                    if retry.wait().is_ok() {
                        report.recovered += 1;
                    }
                }
            }
            Err(_) => {}
        }
    }
    let stats = server.shutdown();
    report.server_late_answers = stats.late_answers;
    report.server_stalls = stats.chaos_stalls;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LoadConfig {
        LoadConfig {
            requests: 600,
            clients: 3,
            burst: 16,
            shards: 2,
            queue_capacity: 64,
            batch_max: 8,
            cache_capacity: 8,
            device_id: "tk1",
            distinct_devices: 4,
            fmm_per_mille: 0,
            fmm_sizes: Vec::new(),
            plan_per_mille: 10,
            seed: 0x10AD,
            faults: None,
            chaos: None,
            deadline_ms: None,
            retry: RetryPolicy::default(),
            overload_probes: 96,
            stall_probes: 0,
        }
    }

    #[test]
    fn request_stream_is_pure_in_seed_and_id() {
        let cfg = tiny();
        for id in [0u64, 1, 17, 599] {
            assert_eq!(synth_request(&cfg, id), synth_request(&cfg, id));
        }
        let mut other = tiny();
        other.seed ^= 1;
        assert_ne!(synth_request(&cfg, 0), synth_request(&other, 0));
    }

    #[test]
    fn backoff_schedule_is_deterministic_bounded_and_grows() {
        let cfg = tiny();
        for id in [0u64, 7, 599] {
            for attempt in 1..=4u32 {
                let a = backoff_us(&cfg, id, attempt);
                assert_eq!(a, backoff_us(&cfg, id, attempt), "stateless, pure");
                assert!(a <= cfg.retry.max_backoff_us, "capped");
                assert!(a >= cfg.retry.base_backoff_us / 2, "never degenerate");
            }
        }
        // Pre-jitter growth: the cap for retry 3 exceeds retry 1's.
        assert!(
            backoff_us(&cfg, 1, 4) > cfg.retry.base_backoff_us,
            "exponential region reaches past the base"
        );
    }

    #[test]
    fn load_digest_is_invariant_across_shard_and_client_counts() {
        let base = tiny();
        let reference = service_load(&base);
        assert_eq!(reference.served, base.requests);
        assert_eq!(reference.fit_errors, 0);
        assert_eq!(reference.typed_rejections, 0);
        assert!((reference.availability - 1.0).abs() < 1e-12);
        assert!(reference.cache_hit_rate > 0.9, "few devices must mean mostly hits");
        for (shards, clients) in [(1usize, 1usize), (4, 2)] {
            let mut cfg = base.clone();
            cfg.shards = shards;
            cfg.clients = clients;
            cfg.overload_probes = 0;
            let run = service_load(&cfg);
            assert_eq!(run.digest, reference.digest, "{shards} shards / {clients} clients");
            assert_eq!(run.served, base.requests);
        }
    }

    #[test]
    fn overload_probe_rejects_and_never_loses_accepted_requests() {
        let mut cfg = tiny();
        cfg.requests = 0;
        let report = service_load(&cfg);
        let probe = report.overload;
        assert_eq!(probe.attempts, cfg.overload_probes);
        assert_eq!(probe.served + probe.rejections, probe.attempts, "no request vanishes");
        assert!(probe.rejections > 0, "the tiny queue must exercise backpressure");
        assert!(probe.rejection_rate > 0.0 && probe.rejection_rate < 1.0);
    }

    #[test]
    fn stall_probe_hits_deadlines_and_retries_recover() {
        let mut cfg = tiny();
        cfg.requests = 0;
        cfg.overload_probes = 0;
        cfg.stall_probes = 6;
        let report = service_load(&cfg);
        let probe = report.stall_probe;
        assert_eq!(probe.probes, 6);
        assert!(probe.deadline_hits >= 5, "40ms stalls must blow 8ms deadlines: {probe:?}");
        assert_eq!(probe.recovered, 6, "every probe recovers (retries never stall)");
        assert!(probe.server_stalls >= 6);
        assert!(probe.server_late_answers >= probe.deadline_hits);
    }

    #[test]
    fn chaos_soak_resolves_every_request_and_digests_shard_invariantly() {
        // A miniature of the committed chaos soak: every request must
        // resolve (answer or typed rejection — zero hangs by
        // construction, this test completing is the proof), retries
        // must recover abort/stall victims, and the digest must be
        // identical across shard counts.
        let mut base = LoadConfig::chaos_soak(400, 2);
        base.clients = 3;
        base.distinct_devices = 6;
        base.fmm_sizes = Vec::new();
        base.fmm_per_mille = 0;
        base.stall_probes = 0;
        let reference = service_load(&base);
        assert_eq!(
            reference.served + reference.typed_rejections,
            base.requests,
            "every request resolves"
        );
        assert!(
            reference.availability >= 0.99,
            "degraded answers keep availability up: {reference:?}"
        );
        for shards in [1usize, 4] {
            let mut cfg = base.clone();
            cfg.shards = shards;
            cfg.clients = 2;
            let run = service_load(&cfg);
            assert_eq!(run.digest, reference.digest, "chaos digest at {shards} shards");
            assert_eq!(run.served + run.typed_rejections, base.requests);
        }
    }
}
