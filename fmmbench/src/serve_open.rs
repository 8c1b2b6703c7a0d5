//! `serve_open`: open-loop traffic against `AutoServer` at a fixed
//! 10,000 requests per second.
//!
//! The pacer (the calling thread) submits each request at its due time
//! whatever the server does, as independent users would.  One reaper per
//! shard waits on the replies: a shard answers its queue in order, so a
//! per-shard reaper sees each reply when it lands, where one reaper for
//! all shards would see a fast shard's replies late behind a blocked
//! one.  Latency is timed from each request's due time, so a stall also
//! charges every request queued behind it; a refused or failed request
//! counts as the whole window.  Requests are generated as they are sent
//! and again in the replay, so the harness keeps only a compact record
//! per reply.
//!
//! The mix: kernel requests over 16 warm TK1 boards (fitted during
//! set-up, 8 per shard), 0.5% of them asking for a 4-round phase plan;
//! every 1000th request names a board never seen before (a cold fit) and
//! every 10,000th an FMM spec never seen before (n = 1024, q = 8: a
//! lowering).  The unit of work is the request.
//!
//! Gate: every answer equals a one-thread `Rig::answer` replay of the
//! same request, so the folded run digests agree.

use crate::report::Report;
use crate::stats::{median, quantile};
use crate::trace::{Tracer, NO_SPAN};
use crate::THREADS;
use compat::rng::StdRng;
use dvfs_autoserve::{
    fold_digest, shard_for, AutoServer, LowerCache, ModelKey, Rig, ServeConfig, Ticket,
    TuneRequest, WorkloadSpec,
};
use dvfs_energy_model::{try_fit_model_with, FitOptions};
use dvfs_microbench::{try_run_sweep, SweepConfig};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tk1_sim::{mix64, OpClass, OpVector};

const RATE_PER_S: f64 = 10_000.0;
const WARM_PER_SHARD: usize = 8;
const COLD_EVERY: u64 = 1_000;
const LOWER_EVERY: u64 = 10_000;
const PLAN_PER_MILLE: u64 = 5;
const PLAN_ROUNDS: usize = 4;
/// Deep enough that nothing is refused while a lowering blocks a shard.
const QUEUE_CAPACITY: usize = 4096;
const SETUPS: usize = 11;
/// The server's per-shard lowering cache holds 16 specs.
const LOWER_CACHE: usize = 16;
/// Boards whose sweep and fit are timed apart in a traced run.
const FIT_PROBES: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Plan,
    Cold,
    Lower,
}

struct Job {
    kind: Kind,
    req: TuneRequest,
}

/// Sixteen warm boards, eight routed to each shard, so the load split
/// does not depend on the seed; shard 0's come first.
fn warm_boards(seed: u64) -> Vec<u64> {
    let mut per_shard: [Vec<u64>; THREADS] = Default::default();
    let mut i = 0u64;
    while per_shard.iter().any(|b| b.len() < WARM_PER_SHARD) {
        let board = mix64(seed ^ 0xB0A2D ^ i);
        let shard = shard_for(&ModelKey::new("tk1", board, None), THREADS);
        if per_shard[shard].len() < WARM_PER_SHARD {
            per_shard[shard].push(board);
        }
        i += 1;
    }
    per_shard.concat()
}

/// Op counts in three size classes with per-class jitter.
fn kernel_workload(rng: &mut StdRng) -> WorkloadSpec {
    let base = [1e6, 1e9, 1e11][rng.random_range(0usize..3)];
    let mut count = |scale: f64| base * scale * rng.random_range(0.5f64..2.0);
    let ops = OpVector::from_pairs(&[
        (OpClass::FlopSp, count(1.0)),
        (OpClass::FlopDp, count(0.25)),
        (OpClass::Int, count(1.5)),
        (OpClass::Shared, count(0.5)),
        (OpClass::L1, count(0.75)),
        (OpClass::L2, count(0.2)),
        (OpClass::Dram, count(0.05)),
    ]);
    WorkloadSpec::Kernel {
        ops,
        utilization: rng.random_range(0.2f64..1.0),
        launches: 1 + (rng.next_u64() % 4) as u32,
    }
}

/// Request `id` of the stream: a pure function of `(seed, id)`.  Every
/// lowering names the first warm board, so at every seed the lowerings
/// block the same shard and allocate in the same thread's heap.
fn job(seed: u64, id: u64, boards: &[u64]) -> Job {
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let warm = boards[(rng.next_u64() % boards.len() as u64) as usize];
    let (kind, device_seed, workload) = if id % LOWER_EVERY == LOWER_EVERY - 1 {
        (Kind::Lower, boards[0], WorkloadSpec::Fmm { n: 1024, q: 8, seed: rng.next_u64() })
    } else if id % COLD_EVERY == COLD_EVERY / 2 {
        (Kind::Cold, mix64(seed ^ 0xC01D_0000_0000 ^ id), kernel_workload(&mut rng))
    } else if rng.next_u64() % 1000 < PLAN_PER_MILLE {
        (Kind::Plan, warm, kernel_workload(&mut rng))
    } else {
        (Kind::Hit, warm, kernel_workload(&mut rng))
    };
    let plan_rounds = if kind == Kind::Plan { PLAN_ROUNDS } else { 0 };
    Job { kind, req: TuneRequest { device_id: "tk1", device_seed, workload, plan_rounds } }
}

fn config() -> ServeConfig {
    ServeConfig {
        shards: THREADS,
        queue_capacity: QUEUE_CAPACITY,
        faults: None,
        chaos: None,
        ..ServeConfig::default()
    }
}

/// Starts a server and fits every warm board on it.
fn start_warm(boards: &[u64]) -> Result<AutoServer, String> {
    let server = AutoServer::start(config());
    let mut rng = StdRng::seed_from_u64(0x3A73);
    let tickets = boards
        .iter()
        .map(|&board| {
            let req = TuneRequest {
                device_id: "tk1",
                device_seed: board,
                workload: kernel_workload(&mut rng),
                plan_rounds: 0,
            };
            server.submit(req)
        })
        .collect::<Result<Vec<Ticket>, _>>()
        .map_err(|e| format!("warm-up request refused: {e:?}"))?;
    for t in tickets {
        t.wait().map_err(|e| format!("warm-up request failed: {e:?}"))?;
    }
    Ok(server)
}

struct Sent {
    id: u64,
    due: Instant,
    ticket: Ticket,
}

/// An answered request.  A run keeps one per request, so it is compact.
struct Reply {
    id: u32,
    /// Seconds from the request's due time to its answer.
    latency_s: f32,
    digest: u64,
}

/// What the open loop saw.
struct Drive {
    /// The answered requests, in id order.
    replies: Vec<Reply>,
    refused: u64,
    /// Accepted requests the server answered with an error.
    errors: u64,
    late_max_s: f64,
    /// When request 0 was due.
    t0: Instant,
}

/// When request `id` is due.
fn due(t0: Instant, id: u64) -> Instant {
    t0 + Duration::from_secs_f64(id as f64 / RATE_PER_S)
}

/// Submits requests `0..count` of the stream, each at its due time, and
/// collects the replies.  Each request is generated as it is sent.
fn drive(server: &AutoServer, seed: u64, count: u64, boards: &[u64]) -> Result<Drive, String> {
    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(server.shards());
        let mut reapers = Vec::with_capacity(server.shards());
        for _ in 0..server.shards() {
            let (tx, rx) = mpsc::channel::<Sent>();
            senders.push(tx);
            reapers.push(scope.spawn(move || {
                let (mut replies, mut errors) = (Vec::with_capacity(count as usize), 0u64);
                for sent in rx {
                    let answer = sent.ticket.wait();
                    let latency_s = sent.due.elapsed().as_secs_f32();
                    match answer {
                        Ok(r) => replies.push(Reply {
                            id: sent.id as u32,
                            latency_s,
                            digest: r.digest(),
                        }),
                        Err(_) => errors += 1,
                    }
                }
                (replies, errors)
            }));
        }
        let t0 = Instant::now() + Duration::from_millis(1);
        let (mut refused, mut late_max_s) = (0u64, 0.0f64);
        for id in 0..count {
            let req = job(seed, id, boards).req;
            let due = due(t0, id);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_max_s = late_max_s.max(due.elapsed().as_secs_f64());
            match server.submit(req) {
                Ok(ticket) => {
                    let shard = ticket.shard();
                    senders[shard]
                        .send(Sent { id, due, ticket })
                        .map_err(|_| "a reply reaper exited early".to_string())?;
                }
                Err(_) => refused += 1,
            }
        }
        drop(senders);
        // Each reaper's list has room for every reply, so the first one
        // takes the rest without growing.
        let (mut replies, mut errors) = (Vec::new(), 0u64);
        for reaper in reapers {
            let (r, e) = reaper.join().map_err(|_| "a reply reaper panicked".to_string())?;
            if replies.is_empty() {
                replies = r;
            } else {
                replies.extend(r);
            }
            errors += e;
        }
        replies.sort_unstable_by_key(|r| r.id);
        Ok(Drive { replies, refused, errors, late_max_s, t0 })
    })
}

fn cold_fit(board: u64) -> Result<Rig, String> {
    Rig::cold_fit(board, None).map_err(|e| format!("cold fit of board {board}: {e}"))
}

/// Median sweep and NNLS-fit milliseconds of the cold-fit path, timed
/// apart the way `try_fit_from_sweep` composes them.
pub fn fit_breakdown(
    boards: &[u64],
    tr: &mut Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let (mut sweep_ms, mut fit_ms) = (Vec::new(), Vec::new());
    for &board in boards {
        let cfg = SweepConfig::service_preset(board, None);
        let s = tr.begin("microbench.sweep", board, NO_SPAN);
        let t = Instant::now();
        let run = try_run_sweep(&cfg).map_err(|e| format!("sweep of board {board}: {e}"))?;
        sweep_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end(s);
        let options = FitOptions { device: cfg.device.clone(), ..FitOptions::default() };
        let s = tr.begin("core.fit", board, NO_SPAN);
        let t = Instant::now();
        let fit = try_fit_model_with(run.dataset.training(), &options)
            .map_err(|e| format!("fit of board {board}: {e}"))?;
        fit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end(s);
        black_box(fit);
    }
    layers.insert("microbench.sweep_ms", median(&sweep_ms));
    layers.insert("core.fit_ms", median(&fit_ms));
    Ok(())
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let boards = warm_boards(seed);
    let count = (seconds * RATE_PER_S) as u64;

    // Half the set-ups before the window and half after it, so their
    // median samples the host at both ends of the run.
    let mut setups = Vec::with_capacity(SETUPS);
    let set_up = |setups: &mut Vec<f64>| -> Result<AutoServer, String> {
        let t = Instant::now();
        let server = start_warm(&boards)?;
        setups.push(t.elapsed().as_secs_f64());
        Ok(server)
    };
    for _ in 1..SETUPS / 2 {
        set_up(&mut setups)?.shutdown();
    }
    let server = set_up(&mut setups)?;

    let window_start = Instant::now();
    let driven = drive(&server, seed, count, &boards);
    let window_s = window_start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    let Drive { replies, refused, errors, late_max_s, t0 } = driven?;
    while setups.len() < SETUPS {
        set_up(&mut setups)?.shutdown();
    }
    report.setup_s = median(&setups);

    // One-thread replay of the same stream: the reference answers and each
    // request's service time.  Warm boards are fitted first, as the server
    // had them.
    let mut rigs: HashMap<u64, Rig> = HashMap::new();
    let mut fit_ms = Vec::new();
    for &board in &boards {
        let t = Instant::now();
        rigs.insert(board, cold_fit(board)?);
        fit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut lower = LowerCache::new(LOWER_CACHE);
    let mut served = replies.iter().peekable();
    let (mut lower_ms, mut hit_us, mut plan_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cold, mut waits, mut busy_s) = (Vec::new(), Vec::new(), 0.0);
    let (mut fold_served, mut fold_replay, mut mismatches) = (0u64, 0u64, 0u64);
    for id in 0..count {
        let job = job(seed, id, &boards);
        let span = tr.begin("replay.request", id, NO_SPAN);
        let board = job.req.device_seed;
        let mut service = 0.0;
        if let Entry::Vacant(slot) = rigs.entry(board) {
            let s = tr.begin("autoserve.cold_fit", id, span);
            let t = Instant::now();
            slot.insert(cold_fit(board)?);
            let d = t.elapsed().as_secs_f64();
            tr.end(s);
            fit_ms.push(d * 1e3);
            service += d;
        }
        if job.kind == Kind::Lower {
            let s = tr.begin("autoserve.lower", id, span);
            let t = Instant::now();
            black_box(lower.kernels(&job.req.workload));
            let d = t.elapsed().as_secs_f64();
            tr.end(s);
            lower_ms.push(d * 1e3);
            service += d;
        }
        let rig = rigs.get(&board).expect("fitted above");
        let s = tr.begin("autoserve.answer", id, span);
        let t = Instant::now();
        let answer = rig.answer(&job.req, &mut lower).digest();
        let d = t.elapsed().as_secs_f64();
        tr.end(s);
        tr.end(span);
        service += d;
        busy_s += service;
        match job.kind {
            Kind::Hit => hit_us.push(d * 1e6),
            Kind::Plan => plan_us.push(d * 1e6),
            Kind::Cold | Kind::Lower => {}
        }
        if let Some(r) = served.next_if(|r| u64::from(r.id) == id) {
            fold_served = fold_digest(fold_served, id, r.digest);
            fold_replay = fold_digest(fold_replay, id, answer);
            if r.digest != answer {
                mismatches += 1;
            }
            let latency = f64::from(r.latency_s);
            if job.kind == Kind::Cold {
                cold.push(latency);
            }
            if tr.enabled() {
                waits.push((latency - service).max(0.0));
                let due = due(t0, id);
                tr.record(
                    "serve.request",
                    id,
                    NO_SPAN,
                    due,
                    due + Duration::from_secs_f64(latency),
                );
            }
        }
    }

    report.attempted = count;
    report.failed = refused + errors + mismatches;
    report.gate(fold_served == fold_replay, || {
        format!(
            "served digest {fold_served:016x} differs from the replay's {fold_replay:016x} ({mismatches} answers differ)"
        )
    });
    report.gate(refused == 0 && errors == 0, || {
        format!("{refused} requests refused and {errors} failed")
    });

    // A refused or failed request counts as the whole window.
    let mut all: Vec<f64> = replies.iter().map(|r| f64::from(r.latency_s)).collect();
    all.extend((0..refused + errors).map(|_| window_s));
    report.unit_p50_us = median(&all) * 1e6;
    report.unit_p99_us = quantile(&all, 0.99) * 1e6;
    report.figures.insert("cold_p50_ms", median(&cold) * 1e3);
    report.figures.insert("error_rate", report.failed as f64 / report.attempted as f64);

    if tr.enabled() {
        let l = &mut report.layers;
        l.insert("autoserve.queue_wait_p50_us", median(&waits) * 1e6);
        l.insert("autoserve.queue_wait_p99_us", quantile(&waits, 0.99) * 1e6);
        l.insert("autoserve.shard_busy", busy_s / (THREADS as f64 * window_s));
        l.insert("autoserve.max_queue_depth", stats.max_queue_depth as f64);
        l.insert("autoserve.answer_us", median(&hit_us));
        l.insert("autoserve.answer_plan_us", median(&plan_us));
        l.insert("autoserve.lower_ms", median(&lower_ms));
        l.insert("autoserve.cold_fit_ms", median(&fit_ms));
        let lookups = (stats.cache_hits + stats.cache_misses).max(1);
        l.insert("autoserve.cache_hit_ratio", stats.cache_hits as f64 / lookups as f64);
        l.insert("autoserve.batch_mean", stats.served as f64 / stats.batches.max(1) as f64);
        l.insert("bench.late_max_ms", late_max_s * 1e3);
        fit_breakdown(&boards[..FIT_PROBES], tr, &mut report.layers)?;
    }
    Ok(report)
}
