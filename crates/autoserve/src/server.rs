//! The sharded, batching, *supervised* autotune server.
//!
//! ```text
//!           submit() ── shard_for(key) ──┐
//!                                        ▼
//!   client ── try_send ──► [bounded queue, shard 0] ──► worker 0 ─► reply
//!          ╲─ try_send ──► [bounded queue, shard 1] ──► worker 1 ─► reply
//!                 │                                        ▲
//!                 │                          supervisor ───┘
//!                 │                 (heartbeats → respawn / helper)
//!                 └─ Full → Rejected::Overloaded (counted, immediate)
//! ```
//!
//! Each shard worker drains its queue in batches, owns a [`ModelCache`]
//! and a [`LowerCache`] outright (the router sends each model key to
//! exactly one shard, so no cache state is ever shared), and answers
//! every request as a pure function of `(request, fault config)` —
//! which is why a run's response digest is identical across any shard
//! count.
//!
//! # Failure model (DESIGN.md §13)
//!
//! * A worker that **panics on a job** catches the unwind, answers that
//!   job with [`Rejected::WorkerFailed`], and keeps serving.
//! * A worker that **dies** (an injected abort unwinds past the batch
//!   loop) drops its in-flight reply slots — every waiting client gets
//!   the typed `WorkerFailed`, never a hang — and its `DeathGuard`
//!   raises the shard's dead flag.  The supervisor respawns the shard;
//!   queued requests survive in the shared receiver.
//! * A worker that **stalls** (heartbeat stagnant while its queue is
//!   non-empty) gets a helper worker on the same receiver, from a
//!   bounded per-shard budget.
//! * A key whose **fits keep failing** (latch storm, meter outage)
//!   trips a per-key circuit breaker and is served from the degraded
//!   ladder: stale disk model → sibling-device transfer → race-to-halt.
//! * Shutdown drains everything: if a shard died with requests still
//!   queued, shutdown respawns it until the queue is empty, so every
//!   accepted request resolves with an answer or a typed rejection.

use crate::breaker::{BreakerConfig, BreakerDecision, BreakerRegistry};
use crate::cache::{CacheOutcome, CacheStats, ModelCache};
use crate::config::{ServeConfig, SupervisionConfig};
use crate::request::{DegradeLevel, ModelKey, Rejected, Ticket, TuneRequest, TuneResponse};
use crate::rig::{race_to_halt_answer, LowerCache, Rig};
use compat::chan::{bounded, oneshot, OnceSender, Receiver, Sender, TrySendError};
use compat::error::PipelineError;
use compat::rng::mix64;
use dvfs_energy_model::fitted_sibling_model;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tk1_sim::{catalog, ChaosConfig, ChaosInjector, FaultConfig, WorkerEvent};

/// Lowered FMM workloads each shard keeps around.
const LOWER_CACHE_CAPACITY: usize = 16;
/// Degraded-ladder rigs (stale/sibling) each worker keeps around.
const FALLBACK_CACHE_CAPACITY: usize = 8;
/// Helper workers the supervisor may add per shard over the server's
/// lifetime — a bounded budget so a pathological shard can't leak
/// threads.
const STALL_BUDGET: usize = 2;

/// One server's count of live shard worker threads.  Every server has
/// its own, so a test can assert its server drained every worker at
/// shutdown without another server's workers disturbing the count.
#[derive(Debug, Clone, Default)]
pub struct LiveWorkers(Arc<AtomicUsize>);

impl LiveWorkers {
    /// Shard worker threads of this server currently alive.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

/// RAII live-worker accounting, taken when a worker is spawned and
/// dropped when its thread exits: the count drops even if a worker dies
/// by panic, so a wedged test sees the truth.
struct LiveGuard(Arc<AtomicUsize>);

impl LiveGuard {
    fn enter(live: &LiveWorkers) -> LiveGuard {
        live.0.fetch_add(1, Ordering::SeqCst);
        LiveGuard(Arc::clone(&live.0))
    }
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Chaos payloads carried through `resume_unwind`, bypassing the panic
/// hook (an injected abort is scripted, not a bug worth a backtrace).
struct InjectedWorkerAbort;
struct InjectedFitPanic;

/// One queued request with its reply slot and the client's attempt
/// number (chaos keys worker events on it: aborts and stalls hit only
/// first attempts, so a client retry deterministically recovers).
struct Job {
    req: TuneRequest,
    attempt: u32,
    reply: OnceSender<Result<TuneResponse, Rejected>>,
}

/// Whole-run server accounting, returned by [`AutoServer::shutdown`].
///
/// Under chaos these counters are best-effort: a worker killed by an
/// injected abort takes its `ShardReport` with it (only `worker_deaths`
/// remembers it).  Correctness claims — every request resolves, digests
/// match across shard counts — rest on client-side outcomes, never on
/// these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered (including typed-rejection answers).
    pub served: usize,
    /// Submissions rejected at the ingress queue.
    pub rejected: usize,
    /// Worker wakeups (batches drained).
    pub batches: usize,
    /// In-memory model-cache hits.
    pub cache_hits: usize,
    /// Model-cache misses (disk hits + cold fits).
    pub cache_misses: usize,
    /// Misses intercepted by the on-disk tier.
    pub disk_hits: usize,
    /// Highest queue depth any shard reached.
    pub max_queue_depth: usize,
    /// Sweep retries absorbed across all cold fits.
    pub sweep_retries: usize,
    /// Responses served from a degraded fit or a ladder rung.
    pub degraded_responses: usize,
    /// Shard respawns after a worker death (supervisor + shutdown).
    pub respawns: usize,
    /// Helper workers added for stalled shards.
    pub stall_respawns: usize,
    /// Worker threads that died (join returned a panic).
    pub worker_deaths: usize,
    /// Per-job panics caught and answered as `WorkerFailed`.
    pub caught_panics: usize,
    /// Injected stalls slept through.
    pub chaos_stalls: usize,
    /// Fit attempts that returned a typed error (storms, sanity gates).
    pub fit_failures: usize,
    /// Circuit-breaker open transitions.
    pub breaker_opens: usize,
    /// Answers that arrived after their client had given up.
    pub late_answers: usize,
    /// On-disk cache files quarantined as corrupt.
    pub corrupt_quarantined: usize,
    /// Ladder answers served from a stale on-disk model.
    pub degraded_stale: usize,
    /// Ladder answers served from a sibling-device transfer model.
    pub degraded_sibling: usize,
    /// Ladder answers served from the race-to-halt bottom rung.
    pub degraded_fallback: usize,
}

/// Per-shard accounting a worker returns when it drains out.
#[derive(Debug, Default)]
struct ShardReport {
    served: usize,
    batches: usize,
    cache: CacheStats,
    degraded_responses: usize,
    degraded_stale: usize,
    degraded_sibling: usize,
    degraded_fallback: usize,
    fit_failures: usize,
    breaker_opens: usize,
    caught_panics: usize,
    chaos_stalls: usize,
    late_answers: usize,
    max_queue_depth: usize,
}

/// A shard's liveness state, shared by its workers and the supervisor.
#[derive(Debug, Default)]
struct ShardHealth {
    /// Monotone heartbeat: bumped per batch and per job.
    beats: AtomicU64,
    /// Raised by a dying worker's [`DeathGuard`]; consumed (reset) by
    /// whoever respawns the shard.
    dead: AtomicBool,
}

/// Drop-armed death notice: set on every unclean worker exit (panic or
/// injected abort), disarmed on a clean drain-out.
struct DeathGuard {
    health: Arc<ShardHealth>,
    armed: bool,
}

impl DeathGuard {
    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for DeathGuard {
    fn drop(&mut self) {
        if self.armed {
            self.health.dead.store(true, Ordering::SeqCst);
        }
    }
}

/// Everything needed to (re)spawn one shard's worker.  Cloning is cheap
/// (Arcs + Copy config), which is what lets the supervisor and shutdown
/// respawn a shard without threading state back from the dead worker.
#[derive(Clone)]
struct ShardCtx {
    shard: usize,
    rx: Arc<Receiver<Job>>,
    health: Arc<ShardHealth>,
    live: LiveWorkers,
    faults: Option<FaultConfig>,
    chaos: Option<ChaosConfig>,
    breaker_cfg: BreakerConfig,
    batch_max: usize,
    cache_capacity: usize,
    cache_dir: Option<std::path::PathBuf>,
}

type Registry = Arc<Mutex<Vec<JoinHandle<ShardReport>>>>;

fn spawn_worker(ctx: ShardCtx, registry: &Registry) {
    let name = format!("autoserve-shard-{}", ctx.shard);
    let live = LiveGuard::enter(&ctx.live);
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let _live = live;
            worker_loop(ctx)
        })
        .expect("spawning a shard worker thread");
    registry.lock().expect("worker registry lock").push(handle);
}

/// Supervisor-side accounting.
#[derive(Debug, Default)]
struct SupervisorReport {
    respawns: usize,
    stall_respawns: usize,
}

/// Which shard owns `key` among `shards` workers.  A pure function of
/// the key — platform id, board seed, and fault campaign all route —
/// and the property tests pin that it never depends on thread count,
/// submission order, or anything else.
pub fn shard_for(key: &ModelKey, shards: usize) -> usize {
    (mix64(key.device_seed ^ mix64(key.fault_key) ^ key.device_id_hash()) % shards.max(1) as u64)
        as usize
}

/// A running autotune server.
pub struct AutoServer {
    senders: Vec<Sender<Job>>,
    ctxs: Vec<ShardCtx>,
    registry: Registry,
    supervisor: JoinHandle<SupervisorReport>,
    stop: Arc<AtomicBool>,
    faults: Option<FaultConfig>,
    rejected: AtomicUsize,
    live: LiveWorkers,
}

impl AutoServer {
    /// Starts the shard workers and the supervisor and returns the
    /// running server.
    pub fn start(cfg: ServeConfig) -> AutoServer {
        let shards = cfg.shards.max(1);
        let registry: Registry = Arc::new(Mutex::new(Vec::with_capacity(shards)));
        let stop = Arc::new(AtomicBool::new(false));
        let live = LiveWorkers::default();
        let mut senders = Vec::with_capacity(shards);
        let mut ctxs = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = bounded::<Job>(cfg.queue_capacity.max(1));
            senders.push(tx);
            let ctx = ShardCtx {
                shard,
                rx: Arc::new(rx),
                health: Arc::new(ShardHealth::default()),
                live: live.clone(),
                faults: cfg.faults,
                chaos: cfg.chaos,
                breaker_cfg: cfg.breaker,
                batch_max: cfg.batch_max.max(1),
                cache_capacity: cfg.cache_capacity,
                cache_dir: cfg.cache_dir.clone(),
            };
            spawn_worker(ctx.clone(), &registry);
            ctxs.push(ctx);
        }
        let supervisor = {
            let ctxs = ctxs.clone();
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let sup = cfg.supervision;
            std::thread::Builder::new()
                .name("autoserve-supervisor".to_string())
                .spawn(move || supervise(ctxs, registry, stop, sup))
                .expect("spawning the supervisor thread")
        };
        AutoServer {
            senders,
            ctxs,
            registry,
            supervisor,
            stop,
            faults: cfg.faults,
            rejected: AtomicUsize::new(0),
            live,
        }
    }

    /// Submits a request (a client's first attempt).  Never blocks: a
    /// full shard queue rejects immediately with
    /// [`Rejected::Overloaded`] (and is counted), so overload surfaces
    /// as backpressure, not unbounded memory growth.
    pub fn submit(&self, req: TuneRequest) -> Result<Ticket, Rejected> {
        self.submit_retry(req, 0)
    }

    /// Submits a retry of `req`.  The attempt number reaches the chaos
    /// layer, which keys abort/stall events to first attempts only —
    /// that is what makes "retry after a typed failure" a deterministic
    /// recovery rather than a coin flip.
    pub fn submit_retry(&self, req: TuneRequest, attempt: u32) -> Result<Ticket, Rejected> {
        let key = ModelKey::new(req.device_id, req.device_seed, self.faults.as_ref());
        let shard = shard_for(&key, self.senders.len());
        let (reply, ticket) = oneshot();
        match self.senders[shard].try_send(Job { req, attempt, reply }) {
            Ok(_) => Ok(Ticket { reply: ticket, shard }),
            Err(TrySendError::Full(_)) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(Rejected::Overloaded { shard, queue_depth: self.senders[shard].len() })
            }
            Err(TrySendError::Closed(_)) => Err(Rejected::ShuttingDown),
        }
    }

    /// Submissions rejected so far.
    pub fn rejected(&self) -> usize {
        self.rejected.load(Ordering::Relaxed)
    }

    /// How many shards this server runs.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// This server's live shard-worker count.  The handle outlives the
    /// server, so it can confirm that [`AutoServer::shutdown`] joined
    /// every worker (the count is then zero).
    pub fn live_workers(&self) -> LiveWorkers {
        self.live.clone()
    }

    /// Drains and stops the server: stops the supervisor, closes the
    /// ingress queues, lets every worker finish the requests it already
    /// accepted, joins the threads, and returns the aggregated
    /// accounting.  A shard that died with requests still queued is
    /// respawned here until its queue is empty — accepted requests are
    /// never lost, even under chaos.
    pub fn shutdown(self) -> ServerStats {
        self.stop.store(true, Ordering::SeqCst);
        let mut stats =
            ServerStats { rejected: self.rejected.into_inner(), ..ServerStats::default() };
        if let Ok(sup) = self.supervisor.join() {
            stats.respawns += sup.respawns;
            stats.stall_respawns += sup.stall_respawns;
        }
        drop(self.senders);
        loop {
            let handles = {
                let mut reg = self.registry.lock().expect("worker registry lock");
                std::mem::take(&mut *reg)
            };
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                match handle.join() {
                    // A worker that died contributes nothing; its reply
                    // slots were dropped, so waiters got typed errors.
                    Ok(report) => absorb(&mut stats, report),
                    Err(_) => stats.worker_deaths += 1,
                }
            }
            // The supervisor is gone by now: any shard that died with
            // jobs still queued gets drained here.  Each respawn makes
            // progress (even an immediately-aborting worker consumes
            // its killing job first), so this loop terminates.
            for ctx in &self.ctxs {
                if !ctx.rx.is_empty() {
                    stats.respawns += 1;
                    spawn_worker(ctx.clone(), &self.registry);
                }
            }
        }
        stats
    }
}

fn absorb(stats: &mut ServerStats, report: ShardReport) {
    stats.served += report.served;
    stats.batches += report.batches;
    stats.cache_hits += report.cache.hits;
    stats.cache_misses += report.cache.misses;
    stats.disk_hits += report.cache.disk_hits;
    stats.sweep_retries += report.cache.sweep_retries;
    stats.corrupt_quarantined += report.cache.corrupt_quarantined;
    stats.degraded_responses += report.degraded_responses;
    stats.degraded_stale += report.degraded_stale;
    stats.degraded_sibling += report.degraded_sibling;
    stats.degraded_fallback += report.degraded_fallback;
    stats.fit_failures += report.fit_failures;
    stats.breaker_opens += report.breaker_opens;
    stats.caught_panics += report.caught_panics;
    stats.chaos_stalls += report.chaos_stalls;
    stats.late_answers += report.late_answers;
    stats.max_queue_depth = stats.max_queue_depth.max(report.max_queue_depth);
}

/// The supervisor: polls shard health, respawns dead shards, and adds
/// a (budget-bounded) helper worker to shards whose heartbeat stalls
/// while work is visibly queued.  Batched-but-unprocessed jobs inside
/// a stalled worker are invisible to the backlog check — run chaos
/// probes with `batch_max = 1` when stall coverage matters.
fn supervise(
    ctxs: Vec<ShardCtx>,
    registry: Registry,
    stop: Arc<AtomicBool>,
    sup: SupervisionConfig,
) -> SupervisorReport {
    let mut report = SupervisorReport::default();
    let mut last: Vec<(u64, Instant)> =
        ctxs.iter().map(|c| (c.health.beats.load(Ordering::Relaxed), Instant::now())).collect();
    let mut stall_budget: Vec<usize> = vec![STALL_BUDGET; ctxs.len()];
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(sup.poll_ms.max(1)));
        for (i, ctx) in ctxs.iter().enumerate() {
            if ctx.health.dead.swap(false, Ordering::SeqCst) {
                report.respawns += 1;
                spawn_worker(ctx.clone(), &registry);
                last[i] = (ctx.health.beats.load(Ordering::Relaxed), Instant::now());
                continue;
            }
            let beats = ctx.health.beats.load(Ordering::Relaxed);
            if beats != last[i].0 || ctx.rx.is_empty() {
                last[i] = (beats, Instant::now());
            } else if last[i].1.elapsed() >= Duration::from_millis(sup.stall_timeout_ms)
                && stall_budget[i] > 0
            {
                stall_budget[i] -= 1;
                report.stall_respawns += 1;
                spawn_worker(ctx.clone(), &registry);
                last[i] = (beats, Instant::now());
            }
        }
    }
    report
}

fn worker_loop(ctx: ShardCtx) -> ShardReport {
    let mut death = DeathGuard { health: Arc::clone(&ctx.health), armed: true };
    let injector = ctx.chaos.map(|c| c.injector());
    let mut cache = ModelCache::new(ctx.cache_capacity, ctx.cache_dir.clone());
    cache.set_chaos(injector);
    let mut lowered = LowerCache::new(LOWER_CACHE_CAPACITY);
    let mut breaker = BreakerRegistry::new(ctx.breaker_cfg);
    let mut fallbacks: Vec<(ModelKey, Rig)> = Vec::new();
    let mut report = ShardReport::default();
    loop {
        // One wakeup drains up to `batch_max` queued requests; the
        // batch then amortizes cache lookups (consecutive requests for
        // the same model key reuse the rig the first one resolved).
        let batch = ctx.rx.recv_batch(ctx.batch_max);
        if batch.is_empty() {
            break;
        }
        ctx.health.beats.fetch_add(1, Ordering::Relaxed);
        report.batches += 1;
        for job in batch {
            ctx.health.beats.fetch_add(1, Ordering::Relaxed);
            let Job { req, attempt, reply } = job;
            let mut inject_panic = false;
            if let Some(inj) = &injector {
                match inj.worker_event(req.chaos_key(), attempt) {
                    Some(WorkerEvent::Stall(pause)) => {
                        report.chaos_stalls += 1;
                        std::thread::sleep(pause);
                    }
                    Some(WorkerEvent::Panic) => inject_panic = true,
                    Some(WorkerEvent::Abort) => {
                        // The whole worker dies on this job.  Dropping
                        // the reply slot first is what turns the death
                        // into a typed `WorkerFailed` for the client;
                        // the rest of the batch unwinds with the stack
                        // and its waiters get the same.  The remaining
                        // queue survives in the shared receiver for the
                        // respawned worker.
                        drop(reply);
                        drop(req);
                        resume_unwind(Box::new(InjectedWorkerAbort));
                    }
                    None => {}
                }
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    resume_unwind(Box::new(InjectedFitPanic));
                }
                process_request(
                    &req,
                    &ctx,
                    injector.as_ref(),
                    &mut cache,
                    &mut lowered,
                    &mut breaker,
                    &mut fallbacks,
                    &mut report,
                )
            }));
            report.served += 1;
            let result = match outcome {
                Ok(result) => result,
                Err(_) => {
                    // The dangling-reply fix: a panicking fit used to
                    // take the worker (and every queued reply slot)
                    // down with it.  Now the panic is contained to the
                    // job and answered as a typed failure.
                    report.caught_panics += 1;
                    Err(Rejected::WorkerFailed { shard: ctx.shard })
                }
            };
            if let Ok(resp) = &result {
                if resp.degraded {
                    report.degraded_responses += 1;
                }
            }
            if !reply.send(result) {
                report.late_answers += 1;
            }
        }
    }
    death.disarm();
    report.cache = cache.stats;
    report.breaker_opens = breaker.opens;
    report.max_queue_depth = ctx.rx.max_depth();
    report
}

/// Answers one request: the healthy cache path, or — for keys under a
/// fit storm or with failing fits — the breaker-gated degraded ladder.
#[allow(clippy::too_many_arguments)]
fn process_request(
    req: &TuneRequest,
    ctx: &ShardCtx,
    chaos: Option<&ChaosInjector>,
    cache: &mut ModelCache,
    lowered: &mut LowerCache,
    breaker: &mut BreakerRegistry,
    fallbacks: &mut Vec<(ModelKey, Rig)>,
    report: &mut ShardReport,
) -> Result<TuneResponse, Rejected> {
    let key = ModelKey::new(req.device_id, req.device_seed, ctx.faults.as_ref());
    let storm = chaos.and_then(|c| c.fit_storm(key.chaos_subject()));
    let Some(kind) = storm else {
        return match cache.rig_for(req.device_id, req.device_seed, ctx.faults) {
            Ok((rig, outcome)) => {
                let mut resp = rig.answer(req, lowered);
                resp.cache_hit = outcome == CacheOutcome::Hit;
                Ok(resp)
            }
            Err(e) => {
                report.fit_failures += 1;
                breaker.record_failure(&key);
                degraded_answer(e, &key, req, ctx, chaos, cache, lowered, fallbacks, report)
            }
        };
    };
    // The key is under a fit storm: its cold fits deterministically
    // fail the service sanity gates.  The breaker bounds how many
    // failing sweeps the key may charge the run; everything else goes
    // straight to the ladder.  (Storm rigs never enter the caches —
    // the storm is environmental, not a new model identity.)
    match breaker.admit(&key) {
        BreakerDecision::Attempt => {
            let spec = catalog::device_spec(key.device_id).unwrap_or_else(catalog::tk1);
            let storm_env =
                ChaosInjector::storm_faults(kind, ctx.faults.as_ref(), key.chaos_subject());
            match Rig::cold_fit_keyed(&spec, req.device_seed, ctx.faults, Some(storm_env)) {
                Ok(rig) => {
                    breaker.record_success(&key);
                    Ok(rig.answer(req, lowered))
                }
                Err(e) => {
                    report.fit_failures += 1;
                    breaker.record_failure(&key);
                    degraded_answer(e, &key, req, ctx, chaos, cache, lowered, fallbacks, report)
                }
            }
        }
        BreakerDecision::ShortCircuit => {
            let e = PipelineError::RetryExhausted {
                context: format!(
                    "circuit breaker open for {} seed {}",
                    key.device_id, key.device_seed
                ),
                attempts: 0,
                last_fault: "fit storm".to_string(),
            };
            degraded_answer(e, &key, req, ctx, chaos, cache, lowered, fallbacks, report)
        }
    }
}

/// The degraded-answer ladder: stale on-disk model → sibling-device
/// transfer warm start → race-to-halt.  Every rung is pure in the key
/// (disk state is pre-seeded or absent — storms block persists within
/// a run), so the rung a key lands on — and its answer — is identical
/// at any shard count.  With the ladder disabled the caller gets the
/// typed [`Rejected::FitFailed`] instead.
#[allow(clippy::too_many_arguments)]
fn degraded_answer(
    err: PipelineError,
    key: &ModelKey,
    req: &TuneRequest,
    ctx: &ShardCtx,
    chaos: Option<&ChaosInjector>,
    cache: &mut ModelCache,
    lowered: &mut LowerCache,
    fallbacks: &mut Vec<(ModelKey, Rig)>,
    report: &mut ShardReport,
) -> Result<TuneResponse, Rejected> {
    if !ctx.breaker_cfg.ladder {
        return Err(Rejected::FitFailed { shard: ctx.shard, error: err });
    }
    // A key that already found its rung answers from it directly.
    if let Some(pos) = fallbacks.iter().position(|(k, _)| k == key) {
        let resp = fallbacks[pos].1.answer(req, lowered);
        count_rung(report, resp.degrade);
        return Ok(resp);
    }
    let spec = catalog::device_spec(key.device_id).unwrap_or_else(catalog::tk1);
    // Rung 1: a stale model from the on-disk tier (served verbatim,
    // stamped stale; deliberately kept out of the healthy LRU).
    if let Some(mut rig) = cache.stale_rig(key, &spec, req.device_seed, ctx.faults) {
        rig.degraded = true;
        rig.degrade = DegradeLevel::StaleCache;
        return Ok(serve_rung(rig, key, req, lowered, fallbacks, report));
    }
    // Rung 2: warm-start from the sibling device's transfer model —
    // unless the sibling is stormed too (its fit would also fail).
    if let Some(sib_id) = catalog::sibling_of(key.device_id) {
        let sib_key = ModelKey::new(sib_id, req.device_seed, ctx.faults.as_ref());
        let sib_stormed = chaos.is_some_and(|c| c.fit_storm(sib_key.chaos_subject()).is_some());
        if !sib_stormed {
            if let Some(sib_spec) = catalog::device_spec(sib_id) {
                if let Ok(model) = fitted_sibling_model(&sib_spec, req.device_seed) {
                    let mut rig =
                        Rig::from_cached_model(&spec, req.device_seed, ctx.faults, model, true);
                    rig.degrade = DegradeLevel::SiblingModel;
                    return Ok(serve_rung(rig, key, req, lowered, fallbacks, report));
                }
            }
        }
    }
    // Rung 3: no model at all — race to halt.
    let resp = race_to_halt_answer(&spec, req.device_seed, req, lowered);
    count_rung(report, resp.degrade);
    Ok(resp)
}

/// Serves a freshly-built ladder rig and caches it for the key's next
/// request (bounded FIFO — ladder keys are few).
fn serve_rung(
    rig: Rig,
    key: &ModelKey,
    req: &TuneRequest,
    lowered: &mut LowerCache,
    fallbacks: &mut Vec<(ModelKey, Rig)>,
    report: &mut ShardReport,
) -> TuneResponse {
    let resp = rig.answer(req, lowered);
    count_rung(report, resp.degrade);
    if fallbacks.len() >= FALLBACK_CACHE_CAPACITY {
        fallbacks.remove(0);
    }
    fallbacks.push((*key, rig));
    resp
}

fn count_rung(report: &mut ShardReport, level: DegradeLevel) {
    match level {
        DegradeLevel::None => {}
        DegradeLevel::StaleCache => report.degraded_stale += 1,
        DegradeLevel::SiblingModel => report.degraded_sibling += 1,
        DegradeLevel::RaceToHalt => report.degraded_fallback += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WorkloadSpec;
    use tk1_sim::{ChaosRates, OpClass, OpVector};

    fn request(device_seed: u64, flops: f64) -> TuneRequest {
        TuneRequest {
            device_id: "tk1",
            device_seed,
            workload: WorkloadSpec::Kernel {
                ops: OpVector::from_pairs(&[(OpClass::FlopSp, flops), (OpClass::Dram, 1e6)]),
                utilization: 1.0,
                launches: 1,
            },
            plan_rounds: 0,
        }
    }

    fn tiny_config(shards: usize, queue: usize) -> ServeConfig {
        ServeConfig {
            shards,
            queue_capacity: queue,
            batch_max: 8,
            cache_capacity: 4,
            cache_dir: None,
            faults: None,
            chaos: None,
            breaker: BreakerConfig::default(),
            supervision: SupervisionConfig::default(),
        }
    }

    fn chaos_only(rates: ChaosRates) -> Option<ChaosConfig> {
        Some(ChaosConfig { seed: 0xC4A0_5EED, rates })
    }

    #[test]
    fn serves_and_shuts_down_without_leaking_workers() {
        let server = AutoServer::start(tiny_config(2, 64));
        let live = server.live_workers();
        assert_eq!(live.get(), 2, "one live worker per shard");
        let tickets: Vec<Ticket> =
            (0..16).map(|i| server.submit(request(i % 2, 1e8)).expect("queue has room")).collect();
        for t in tickets {
            let resp = t.wait().expect("clean fit answers");
            assert!(resp.best.energy_j > 0.0);
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, 16);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.cache_misses, 2, "one cold fit per device");
        assert_eq!(stats.cache_hits, 14);
        assert!(stats.max_queue_depth <= 64);
        assert_eq!(stats.worker_deaths, 0);
        assert_eq!(stats.caught_panics, 0);
        // The PR 2 pool-reuse pattern: shutdown drains every worker.
        assert_eq!(live.get(), 0, "no leaked shard workers");
    }

    #[test]
    fn overload_rejections_are_counted_immediate_and_panic_free() {
        // One shard, capacity 2: the worker blocks on its first cold
        // fit while we flood the queue, so rejections must occur.
        let server = AutoServer::start(tiny_config(1, 2));
        let mut accepted = Vec::new();
        let mut overloaded = 0usize;
        for i in 0..64 {
            match server.submit(request(0, 1e8 + i as f64)) {
                Ok(t) => accepted.push(t),
                Err(Rejected::Overloaded { shard, queue_depth }) => {
                    assert_eq!(shard, 0);
                    assert!(queue_depth <= 2, "bounded queue never exceeds capacity");
                    overloaded += 1;
                }
                Err(other) => panic!("unexpected rejection while running: {other:?}"),
            }
        }
        assert!(overloaded > 0, "flooding a capacity-2 queue must reject");
        assert_eq!(server.rejected(), overloaded);
        // Every *accepted* request still gets its answer.
        let n_accepted = accepted.len();
        for t in accepted {
            t.wait().expect("accepted requests are answered");
        }
        let stats = server.shutdown();
        assert_eq!(stats.served, n_accepted);
        assert_eq!(stats.rejected, overloaded);
        assert!(stats.max_queue_depth <= 2);
    }

    #[test]
    fn shutdown_answers_every_accepted_request_before_exiting() {
        // Queue requests and shut down immediately, without waiting:
        // the drain contract says every accepted request still gets
        // answered (tickets redeemed after shutdown), none are lost.
        let server = AutoServer::start(tiny_config(2, 32));
        let tickets: Vec<Ticket> =
            (0..8).map(|i| server.submit(request(i, 1e8)).expect("queue has room")).collect();
        let stats = server.shutdown();
        assert_eq!(stats.served, 8, "drain before exit");
        for t in tickets {
            t.wait().expect("answer delivered before the worker exited");
        }
    }

    #[test]
    fn shard_routing_is_a_pure_function_of_the_key() {
        for shards in [1usize, 2, 4, 8] {
            for seed in 0..256u64 {
                for id in ["tk1", "orin", "mi300x"] {
                    let key = ModelKey::new(id, seed, None);
                    let first = shard_for(&key, shards);
                    assert!(first < shards);
                    assert_eq!(first, shard_for(&key, shards), "same key, same shard, always");
                }
            }
        }
        // The platform id participates in routing: across enough seeds
        // the same board seed must land on different shards for at
        // least one pair of platforms.
        let moved = (0..64u64).any(|seed| {
            shard_for(&ModelKey::new("tk1", seed, None), 8)
                != shard_for(&ModelKey::new("orin", seed, None), 8)
        });
        assert!(moved, "device id must fold into the routing hash");
    }

    #[test]
    fn injected_fit_panic_unblocks_the_client_with_a_typed_error() {
        // Satellite (a): the dangling-reply regression.  A panic inside
        // request processing must answer the client with the typed
        // `WorkerFailed` — not hang the ticket, not kill the worker.
        let mut cfg = tiny_config(1, 32);
        cfg.chaos = chaos_only(ChaosRates { worker_panic: 1.0, ..ChaosRates::off() });
        let server = AutoServer::start(cfg);
        let live = server.live_workers();
        let tickets: Vec<Ticket> =
            (0..4).map(|i| server.submit(request(i, 1e8)).expect("queue has room")).collect();
        for t in tickets {
            match t.wait() {
                Err(Rejected::WorkerFailed { shard }) => assert_eq!(shard, 0),
                other => panic!("expected WorkerFailed, got {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.caught_panics, 4, "every job's panic was contained");
        assert_eq!(stats.worker_deaths, 0, "caught panics never kill the worker");
        assert_eq!(live.get(), 0);
    }

    #[test]
    fn aborted_workers_are_respawned_and_retries_recover() {
        // Every first attempt aborts the worker mid-job; the client
        // sees the typed `WorkerFailed` (dropped reply slot), and a
        // deterministic retry (attempt 1) gets a real answer from the
        // respawned shard.
        let mut cfg = tiny_config(1, 32);
        cfg.chaos = chaos_only(ChaosRates { worker_abort: 1.0, ..ChaosRates::off() });
        cfg.supervision.poll_ms = 1;
        let server = AutoServer::start(cfg);
        let live = server.live_workers();
        let tickets: Vec<Ticket> =
            (0..3).map(|i| server.submit(request(i, 1e8)).expect("queue has room")).collect();
        for t in tickets {
            match t.wait() {
                Err(Rejected::WorkerFailed { shard }) => assert_eq!(shard, 0),
                other => panic!("expected WorkerFailed from an aborted worker, got {other:?}"),
            }
        }
        // Retries carry attempt = 1: the chaos layer keys aborts to
        // first attempts only, so these deterministically succeed.
        let retries: Vec<Ticket> = (0..3)
            .map(|i| server.submit_retry(request(i, 1e8), 1).expect("queue has room"))
            .collect();
        for t in retries {
            let resp = t.wait().expect("retry after respawn succeeds");
            assert!(resp.best.energy_j > 0.0);
        }
        let stats = server.shutdown();
        // One abort can take a whole batch down (the rest of the batch
        // unwinds with the stack), so deaths ∈ [1, 3] here — but there
        // must be at least one, and at least one respawn serving the
        // retries.
        assert!(stats.worker_deaths >= 1, "an abort killed a worker: {stats:?}");
        assert!(stats.respawns >= 1, "supervisor/shutdown respawned the shard: {stats:?}");
        assert_eq!(stats.served, 3, "the respawned shard served every retry: {stats:?}");
        assert_eq!(live.get(), 0, "respawns don't leak threads");
    }

    #[test]
    fn stalled_shard_gets_a_helper_within_budget() {
        // First attempts stall for ~400ms each with batch_max = 1, so
        // queued work is visible while the heartbeat stagnates; the
        // supervisor must add a helper and everything still completes.
        let mut cfg = tiny_config(1, 32);
        cfg.batch_max = 1;
        cfg.chaos =
            chaos_only(ChaosRates { worker_stall: 1.0, stall_ms: 400, ..ChaosRates::off() });
        cfg.supervision.poll_ms = 1;
        cfg.supervision.stall_timeout_ms = 30;
        let server = AutoServer::start(cfg);
        let live = server.live_workers();
        let tickets: Vec<Ticket> =
            (0..3).map(|i| server.submit(request(i, 1e8)).expect("queue has room")).collect();
        for t in tickets {
            let resp = t.wait().expect("stalls delay answers, never lose them");
            assert!(resp.best.energy_j > 0.0);
        }
        let stats = server.shutdown();
        assert!(stats.stall_respawns >= 1, "stall helper was added: {stats:?}");
        assert!(stats.stall_respawns <= 2, "helper budget is bounded: {stats:?}");
        assert!(stats.chaos_stalls >= 3);
        assert_eq!(live.get(), 0, "helpers drain out at shutdown");
    }

    #[test]
    fn storm_trips_the_breaker_and_the_ladder_answers_deterministically() {
        // A total latch storm makes every cold fit fail its sanity
        // gate; after `failure_threshold` strikes the breaker opens and
        // the ladder answers.  With no disk tier and the sibling also
        // stormed, the rung is race-to-halt — and the answers must be
        // identical at 1 and 2 shards.
        let run = |shards: usize| {
            let mut cfg = tiny_config(shards, 64);
            cfg.chaos = chaos_only(ChaosRates { latch_storm: 1.0, ..ChaosRates::off() });
            let server = AutoServer::start(cfg);
            let tickets: Vec<Ticket> =
                (0..6).map(|_| server.submit(request(7, 2e8)).expect("queue has room")).collect();
            let answers: Vec<TuneResponse> =
                tickets.into_iter().map(|t| t.wait().expect("the ladder always answers")).collect();
            (answers, server.shutdown())
        };
        let (a, stats) = run(1);
        for resp in &a {
            assert!(resp.degraded);
            assert_eq!(resp.degrade, DegradeLevel::RaceToHalt, "no disk, sibling stormed");
            assert!(resp.best.energy_j.is_finite() && resp.best.energy_j > 0.0);
        }
        assert!(stats.fit_failures >= 2, "the breaker needed its strikes: {stats:?}");
        assert_eq!(stats.breaker_opens, 1, "{stats:?}");
        assert_eq!(stats.degraded_fallback, 6, "{stats:?}");
        let (b, _) = run(2);
        let da: Vec<u64> = a.iter().map(|r| r.digest()).collect();
        let db: Vec<u64> = b.iter().map(|r| r.digest()).collect();
        assert_eq!(da, db, "ladder answers are shard-count invariant");
    }

    #[test]
    fn stale_disk_models_serve_the_first_ladder_rung() {
        // Pre-seed the disk tier with a healthy model, then storm the
        // key: the ladder's first rung serves the stale model, stamped.
        let dir = std::env::temp_dir().join(format!(
            "autoserve-stale-rung-{}-{:x}",
            std::process::id(),
            mix64(0x57A1_E0)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut warm = tiny_config(1, 32);
        warm.cache_dir = Some(dir.clone());
        let server = AutoServer::start(warm);
        let healthy = server
            .submit(request(11, 2e8))
            .expect("queue has room")
            .wait()
            .expect("clean fit persists to disk");
        server.shutdown();

        let mut stormy = tiny_config(1, 32);
        stormy.cache_dir = Some(dir.clone());
        stormy.chaos = chaos_only(ChaosRates { latch_storm: 1.0, ..ChaosRates::off() });
        let server = AutoServer::start(stormy);
        let resp = server
            .submit(request(11, 2e8))
            .expect("queue has room")
            .wait()
            .expect("stale rung answers");
        let stats = server.shutdown();
        assert_eq!(resp.degrade, DegradeLevel::StaleCache);
        assert!(resp.degraded);
        assert_eq!(stats.degraded_stale, 1, "{stats:?}");
        // Same model, same prediction — only the degrade stamp differs.
        assert_eq!(resp.best.energy_j.to_bits(), healthy.best.energy_j.to_bits());
        assert_ne!(resp.digest(), healthy.digest(), "the stamp is content");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn breaker_without_ladder_surfaces_the_typed_fit_failure() {
        let mut cfg = tiny_config(1, 32);
        cfg.chaos = chaos_only(ChaosRates { meter_storm: 1.0, ..ChaosRates::off() });
        cfg.breaker.ladder = false;
        let server = AutoServer::start(cfg);
        let t = server.submit(request(3, 2e8)).expect("queue has room");
        match t.wait() {
            Err(Rejected::FitFailed { shard, error }) => {
                assert_eq!(shard, 0);
                let msg = format!("{error}");
                assert!(msg.contains("sanity gate"), "typed error carries the gate: {msg}");
            }
            other => panic!("expected FitFailed, got {other:?}"),
        }
        server.shutdown();
    }
}
