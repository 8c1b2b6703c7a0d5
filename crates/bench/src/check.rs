//! The gates each committed `BENCH_*.json` artifact must pass.
//!
//! `repro <artifact> --check FILE [--baseline FILE]` loads `FILE` with
//! the in-tree JSON reader and runs that artifact's [`Check`].  A check
//! returns a one-line `OK` summary when every gate holds, or an error
//! that names the field which failed (`cases[3].digest`,
//! `burst.deadline_misses`, ...) — never a panic.

use crate::scaling::DEFAULT_THREAD_GRID;
use compat::json::Json;

/// A check's outcome: the `OK` summary, or the gate that failed.
pub type Verdict = Result<String, String>;

/// Fails the enclosing check with a formatted message unless `cond`
/// holds; a NaN comparison does not.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {{
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    }};
}

/// One artifact's gates.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// The `benchmark` tag the file must carry.
    pub benchmark: &'static str,
    /// The gates a standalone file must pass.
    pub gates: fn(&Obj<'_>) -> Verdict,
    /// The gates against a `--baseline` file, for artifacts that have
    /// them.
    pub against: Option<fn(&Obj<'_>, &Obj<'_>) -> Verdict>,
}

impl Check {
    /// Loads `path` (and `baseline`, if given) and runs the gates.
    /// Callers reject a baseline for checks with no `against` gates.
    pub fn run(&self, path: &str, baseline: Option<&str>) -> Verdict {
        let doc = self.load(path)?;
        let top = Obj::of(&doc, String::new())?;
        let summary = match (baseline, self.against) {
            (Some(base_path), Some(against)) => {
                let base = self.load(base_path)?;
                against(&top, &Obj::of(&base, String::new())?)
                    .map(|s| format!("{s} of {base_path}"))?
            }
            _ => (self.gates)(&top)?,
        };
        Ok(format!("{path} OK ({summary})"))
    }

    fn load(&self, path: &str) -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
        let tag = Obj::of(&doc, String::new())?.str("benchmark")?.to_string();
        ensure!(tag == self.benchmark, "benchmark: expected {:?}, got {tag:?}", self.benchmark);
        Ok(doc)
    }
}

/// `BENCH_fmm.json` (`repro fmm-scaling`).
pub const FMM: Check =
    Check { benchmark: "fmm_evaluate_phases", gates: fmm, against: Some(fmm_against) };
/// `BENCH_governor.json` (`repro governor`).
pub const GOVERNOR: Check =
    Check { benchmark: "governor_policies", gates: governor, against: None };
/// `BENCH_service.json` (`repro service`).
pub const SERVICE: Check = Check { benchmark: "autoserve_load", gates: service, against: None };
/// `BENCH_chaos.json` (`repro chaos`).
pub const CHAOS: Check = Check { benchmark: "autoserve_chaos", gates: chaos, against: None };
/// `BENCH_fleet.json` (`repro fleet`).
pub const FLEET: Check = Check { benchmark: "fleet_catalog", gates: fleet, against: None };
/// `BENCH_stream.json` (`repro stream`).
pub const STREAM: Check = Check { benchmark: "stream_engine", gates: stream, against: None };

/// A JSON object plus the dotted path that names it in messages.
#[derive(Debug)]
pub struct Obj<'a> {
    fields: &'a [(String, Json)],
    path: String,
}

impl<'a> Obj<'a> {
    fn of(value: &'a Json, path: String) -> Result<Obj<'a>, String> {
        match value {
            Json::Obj(fields) => Ok(Obj { fields, path }),
            other if path.is_empty() => Err(format!("expected an object, got {other:?}")),
            other => Err(format!("{path}: expected an object, got {other:?}")),
        }
    }

    /// The dotted path of `key` inside this object.
    fn join(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn field(&self, key: &str) -> Result<&'a Json, String> {
        let found = self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        found.ok_or_else(|| format!("{}: missing", self.join(key)))
    }

    fn wrong(&self, key: &str, want: &str, got: &Json) -> String {
        format!("{}: expected {want}, got {got:?}", self.join(key))
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Json::Num(v) => Ok(*v),
            other => Err(self.wrong(key, "a number", other)),
        }
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        match self.field(key)? {
            Json::Str(s) => Ok(s),
            other => Err(self.wrong(key, "a string", other)),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            Json::Bool(b) => Ok(*b),
            other => Err(self.wrong(key, "a boolean", other)),
        }
    }

    fn obj(&self, key: &str) -> Result<Obj<'a>, String> {
        Obj::of(self.field(key)?, self.join(key))
    }

    /// The array `key`, each element an object named `key[i]`.
    fn objs(&self, key: &str) -> Result<Vec<Obj<'a>>, String> {
        match self.field(key)? {
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| Obj::of(item, format!("{}[{i}]", self.join(key))))
                .collect(),
            other => Err(self.wrong(key, "an array", other)),
        }
    }

    /// Fails unless the sweep array `key` has at least two entries,
    /// covers every one of `widths`, and carries one `digest` in every
    /// entry; returns the entries' `count_key` values.
    fn identical_digests(
        &self,
        key: &str,
        count_key: &str,
        widths: &[usize],
    ) -> Result<Vec<usize>, String> {
        let entries = self.objs(key)?;
        let min = widths.len().max(2);
        ensure!(entries.len() >= min, "{key}: needs >= {min} entries, got {}", entries.len());
        let mut counts = Vec::with_capacity(entries.len());
        let first = entries[0].str("digest")?;
        for e in &entries {
            ensure!(e.str("digest")? == first, "{}: differs from {first}", e.join("digest"));
            counts.push(e.num(count_key)? as usize);
        }
        for w in widths {
            ensure!(counts.contains(w), "{key}: {count_key} {counts:?} miss width {w}");
        }
        Ok(counts)
    }
}

/// One parsed `BENCH_fmm.json` case.
struct FmmCase {
    n: usize,
    threads: usize,
    evaluate_median_s: f64,
}

/// Every case's shape and timings, and one digest per size across the
/// thread counts — the engine's bitwise thread-invariance claim.
fn fmm_cases(top: &Obj<'_>) -> Result<Vec<FmmCase>, String> {
    let mut cases: Vec<(FmmCase, &str)> = Vec::new();
    for c in top.objs("cases")? {
        let phases = c.obj("phase_medians_s")?;
        for key in ["up", "v", "x", "down", "near"] {
            ensure!(phases.num(key)? >= 0.0, "{}: negative", phases.join(key));
        }
        let total = c.num("evaluate_median_s")?;
        ensure!(total > 0.0, "{}: must be positive, got {total}", c.join("evaluate_median_s"));
        ensure!(c.num("reps")? >= 1.0, "{}: must be at least 1", c.join("reps"));
        let n = c.num("n")? as usize;
        let digest = c.str("digest")?;
        if let Some((_, other)) = cases.iter().find(|(k, d)| k.n == n && *d != digest) {
            return Err(format!("{}: {digest} differs from {other} at n={n}", c.join("digest")));
        }
        let threads = c.num("threads")? as usize;
        cases.push((FmmCase { n, threads, evaluate_median_s: total }, digest));
    }
    ensure!(!cases.is_empty(), "cases: empty");
    Ok(cases.into_iter().map(|(c, _)| c).collect())
}

/// The committed grid also covers every width of
/// [`DEFAULT_THREAD_GRID`] and sizes up to `2^20`.
fn fmm(top: &Obj<'_>) -> Verdict {
    let cases = fmm_cases(top)?;
    let mut sizes: Vec<usize> = cases.iter().map(|c| c.n).collect();
    let mut threads: Vec<usize> = cases.iter().map(|c| c.threads).collect();
    for v in [&mut sizes, &mut threads] {
        v.sort_unstable();
        v.dedup();
    }
    for want in DEFAULT_THREAD_GRID {
        ensure!(threads.contains(&want), "cases: threads {threads:?} miss width {want}");
    }
    let max_n = sizes.last().copied().unwrap_or(0);
    ensure!(max_n >= 1_048_576, "cases: largest n {max_n} is below 1048576");
    Ok(format!("{} cases, sizes {sizes:?}, threads {threads:?}", cases.len()))
}

/// A fresh grid fails if `evaluate_median_s` regressed more than 10%
/// at any `(n, threads)` point it shares with the baseline.
fn fmm_against(top: &Obj<'_>, baseline: &Obj<'_>) -> Verdict {
    let cases = fmm_cases(top)?;
    let base = fmm_cases(baseline)?;
    let mut compared = 0usize;
    for c in &cases {
        let Some(b) = base.iter().find(|b| b.n == c.n && b.threads == c.threads) else {
            continue;
        };
        compared += 1;
        ensure!(
            c.evaluate_median_s <= 1.10 * b.evaluate_median_s,
            "evaluate_median_s regressed >10% at n={} threads={}: {:.6}s vs baseline {:.6}s",
            c.n,
            c.threads,
            c.evaluate_median_s,
            b.evaluate_median_s
        );
    }
    ensure!(compared > 0, "cases: no (n, threads) point shared with the baseline");
    Ok(format!("{compared} points within 10%"))
}

/// Every case carries its input, the best static energy, and each
/// policy's energy and time.
fn governor(top: &Obj<'_>) -> Verdict {
    let cases = top.objs("cases")?;
    for c in &cases {
        c.str("input")?;
        c.num("best_static_j")?;
        for p in c.objs("policies")? {
            p.str("policy")?;
            p.num("energy_j")?;
            p.num("time_s")?;
        }
    }
    Ok(format!("{} cases", cases.len()))
}

/// A lossless ≥1M-request run, cache-hit p99 at least 10× below cold
/// p99, partial overload rejections, and one digest at every shard
/// count.
fn service(top: &Obj<'_>) -> Verdict {
    let requests = top.num("requests")?;
    ensure!(requests >= 1_000_000.0, "requests: must be >= 1M, got {requests}");
    ensure!(
        top.num("served")? == requests && top.num("fit_errors")? == 0.0,
        "served, fit_errors: every request must be served without fit errors"
    );
    let hit_rate = top.num("cache_hit_rate")?;
    ensure!((0.5..=1.0).contains(&hit_rate), "cache_hit_rate: {hit_rate} is not mostly hits");
    let rejection_rate = top.num("rejection_rate")?;
    ensure!(
        rejection_rate > 0.0 && rejection_rate < 1.0,
        "rejection_rate: {rejection_rate} must exercise backpressure partially"
    );
    let lat = top.obj("latency_us")?;
    for key in ["hit_p50", "cold_p50", "hit_max", "cold_max"] {
        lat.num(key)?;
    }
    let (hit_p99, cold_p99) = (lat.num("hit_p99")?, lat.num("cold_p99")?);
    ensure!(
        hit_p99 > 0.0 && cold_p99 >= 10.0 * hit_p99,
        "latency_us.hit_p99: {hit_p99}us must be >=10x below cold_p99 {cold_p99}us"
    );
    ensure!(
        top.num("throughput_rps")? > 0.0 && top.num("elapsed_s")? > 0.0,
        "throughput_rps, elapsed_s: must be positive"
    );
    let shards = top.identical_digests("shard_digests", "shards", &[])?;
    Ok(format!("{requests} requests, identical digests at {shards:?} shards"))
}

/// Every request resolved, availability ≥ 99%, chaos visibly biting,
/// the deadline probe fully recovered, and one digest at every shard
/// count.
fn chaos(top: &Obj<'_>) -> Verdict {
    let requests = top.num("requests")?;
    ensure!(requests >= 50_000.0, "requests: must be >= 50k, got {requests}");
    ensure!(
        top.num("served")? + top.num("typed_rejections")? == requests,
        "served, typed_rejections: every request must resolve with an answer or a typed rejection"
    );
    let availability = top.num("availability")?;
    ensure!(availability >= 0.99, "availability: {availability} is below the 99% gate");
    ensure!(
        top.num("caught_panics")? > 0.0 && top.num("typed_rejections")? > 0.0,
        "caught_panics, typed_rejections: the chaos profile must visibly bite"
    );
    ensure!(
        top.num("retries")? > 0.0 && top.num("recovered")? > 0.0,
        "retries, recovered: retries must fire and recover transient failures"
    );
    let probe = top.obj("stall_probe")?;
    let (probes, recovered) = (probe.num("probes")?, probe.num("recovered")?);
    ensure!(
        probes > 0.0 && recovered == probes,
        "stall_probe.recovered: the deadline probe must fully recover ({recovered} of {probes})"
    );
    let lat = top.obj("latency_us")?;
    for key in ["chaos_hit_p99", "chaos_cold_p99", "clean_hit_p99", "clean_cold_p99"] {
        ensure!(lat.num(key)? > 0.0, "{}: must be positive", lat.join(key));
    }
    for e in top.objs("shard_digests")? {
        ensure!(
            e.num("served")? + e.num("typed_rejections")? == e.num("requests")?,
            "{}: lost requests",
            e.join("requests")
        );
    }
    let shards = top.identical_digests("shard_digests", "shards", &DEFAULT_THREAD_GRID)?;
    Ok(format!(
        "{requests} requests, availability {availability:.5}, identical digests at {shards:?} shards"
    ))
}

/// At least five devices with clean sub-10% fits, the TK1 racing to
/// idle, `mi300x` autotuning to an interior best-energy point, and
/// warm-start transfer beating the cold fit at the starved budget on
/// every sibling pair.
fn fleet(top: &Obj<'_>) -> Verdict {
    let devices = top.objs("devices")?;
    ensure!(devices.len() >= 5, "devices: needs >= 5 devices, got {}", devices.len());
    let mut race_to_idle = Vec::new();
    for d in &devices {
        let id = d.str("id")?;
        ensure!(!d.bool("degraded")?, "{}: {id}'s fit degraded", d.join("degraded"));
        let holdout = d.num("holdout_mean_pct")?;
        ensure!(
            holdout > 0.0 && holdout < 10.0,
            "{}: {holdout:.2}% out of range",
            d.join("holdout_mean_pct")
        );
        for pick in ["best_time", "best_energy"] {
            let p = d.obj(pick)?;
            for key in ["core_idx", "mem_idx", "time_s", "energy_j"] {
                ensure!(p.num(key)? >= 0.0, "{}: negative", p.join(key));
            }
        }
        ensure!(
            d.num("energy_saving_pct")? >= 0.0,
            "{}: best-energy costs more than best-time",
            d.join("energy_saving_pct")
        );
        race_to_idle.push((id, d.bool("race_to_idle_optimal")?));
    }
    let race = |id: &str| {
        let found = race_to_idle.iter().find(|(d, _)| *d == id).map(|&(_, race)| race);
        found.ok_or_else(|| format!("devices: {id} missing"))
    };
    ensure!(race("tk1")?, "devices: tk1 race_to_idle_optimal must be true");
    ensure!(!race("mi300x")?, "devices: mi300x race_to_idle_optimal must be false");
    let mut siblings = 0usize;
    for t in top.objs("transfers")? {
        if !t.bool("sibling")? {
            continue;
        }
        siblings += 1;
        let points = t.objs("points")?;
        let Some(p0) = points.first() else {
            return Err(format!("{}: empty", t.join("points")));
        };
        ensure!(p0.num("budget")? == 1.0, "{}: must be the budget-1 study", p0.join("budget"));
        let (warm, cold) = (p0.num("warm_mean_pct")?, p0.num("cold_mean_pct")?);
        ensure!(warm < cold, "{}: {warm:.2}% must beat cold {cold:.2}%", p0.join("warm_mean_pct"));
        ensure!(t.bool("warm_start_wins")?, "{}: must be true", t.join("warm_start_wins"));
    }
    ensure!(siblings >= 2, "transfers: needs >= 2 sibling studies, got {siblings}");
    let ids: Vec<&str> = race_to_idle.iter().map(|&(id, _)| id).collect();
    Ok(format!("{} devices {ids:?}, {siblings} sibling transfers", ids.len()))
}

/// Drift exercised in-place repair and accounts for every step, the
/// pinned burst suite met every deadline, the arbitrated multi-tenant
/// plan was feasible and beat both baselines with zero misses, and one
/// suite digest at every thread count.
fn stream(top: &Obj<'_>) -> Verdict {
    let drift = top.obj("drift")?;
    let steps = drift.num("steps")?;
    let (in_place, rebuilds) = (drift.num("in_place")?, drift.num("rebuilds")?);
    ensure!(steps > 0.0, "drift.steps: must be at least 1");
    ensure!(in_place >= 1.0, "drift.in_place: must exercise the in-place repair path");
    ensure!(
        in_place + rebuilds == steps,
        "drift.steps: {in_place} in-place + {rebuilds} rebuilds != {steps} steps"
    );
    ensure!(
        drift.num("energy_j")? > 0.0 && drift.num("time_s")? > 0.0,
        "drift.energy_j, drift.time_s: must be positive"
    );
    drift.str("digest")?;
    let burst = top.obj("burst")?;
    let requests = burst.num("requests")?;
    ensure!(requests > 0.0, "burst.requests: must be at least 1");
    let misses = burst.num("deadline_misses")?;
    ensure!(misses == 0.0, "burst.deadline_misses: the pinned burst suite missed {misses}");
    let mean = burst.num("mean_latency_s")?;
    ensure!(
        burst.num("energy_j")? > 0.0 && mean > 0.0 && burst.num("makespan_s")? > 0.0,
        "burst.energy_j, mean_latency_s, makespan_s: must be positive"
    );
    ensure!(burst.num("max_latency_s")? >= mean, "burst.max_latency_s: below the mean");
    let windows = burst.objs("windows")?;
    ensure!(!windows.is_empty(), "burst.windows: must record at least one arrival window");
    let mut window_requests = 0.0;
    for w in &windows {
        window_requests += w.num("requests")?;
        ensure!(w.num("energy_j")? > 0.0, "{}: must be positive", w.join("energy_j"));
    }
    ensure!(
        window_requests == requests,
        "burst.windows: cover {window_requests} requests, burst.requests claims {requests}"
    );
    let tenants = top.obj("tenants")?;
    ensure!(tenants.num("tenants")? >= 2.0, "tenants.tenants: needs at least two tenants");
    ensure!(tenants.bool("feasible")?, "tenants.feasible: the arbitrated plan must be feasible");
    let misses = tenants.num("deadline_misses")?;
    ensure!(misses == 0.0, "tenants.deadline_misses: arbitrated tenants missed {misses}");
    let arb = tenants.num("arbitrated_j")?;
    let (stat, race) = (tenants.num("static_best_j")?, tenants.num("race_to_halt_j")?);
    ensure!(arb > 0.0, "tenants.arbitrated_j: must be positive, got {arb}");
    ensure!(arb <= stat, "tenants.arbitrated_j: {arb} J exceeds static_best_j {stat} J");
    ensure!(arb <= race, "tenants.arbitrated_j: {arb} J exceeds race_to_halt_j {race} J");
    let threads = top.identical_digests("thread_digests", "threads", &DEFAULT_THREAD_GRID)?;
    Ok(format!(
        "arbitrated {arb:.4} J <= static-best {stat:.4} J, <= race-to-halt {race:.4} J, \
         0 misses, identical digests at {threads:?} threads"
    ))
}
