//! `repro` — regenerates every table and figure of the paper, and every
//! committed `BENCH_*.json` artifact.
//!
//! ```text
//! repro [<artifact>] [--scale-shift K] [--seed S] [--requests N] [--reps K]
//!       [--sizes N1,N2,...] [--out FILE | --check FILE [--baseline FILE]]
//! ```
//!
//! One table, [`ARTIFACTS`], drives the CLI: `repro --help` lists it,
//! and `repro all` runs the entries marked `in_all`, in order.  Each
//! entry runs its experiment through one function that prints the
//! table and, for the six artifacts committed as `BENCH_*.json`,
//! returns the JSON document: `--out FILE` writes it, and `--check
//! FILE` runs the entry's [`Check`] on a file instead of the
//! experiment.  A malformed option, or one the chosen artifacts have
//! no use for, is a usage error (exit 2); so is a run option beside
//! `--check`, which runs no experiment.  A failed run or check exits
//! 1.
//!
//! `--scale-shift K` divides every FMM problem size by `2^K` (profiles
//! only; the pipeline is identical).  The default 0 reproduces the
//! paper-scale inputs.

use compat::json::Json;
use dvfs_bench::check::{self, Check};
use dvfs_bench::paper;
use dvfs_bench::pipeline::{self, fmm_profiles};
use dvfs_bench::report::{joules, pct, table};
use dvfs_bench::scaling::DEFAULT_THREAD_GRID;
use dvfs_bench::service_load::{service_load, LoadConfig, LoadReport};
use dvfs_energy_model::experiments::{FmmInput, FMM_INPUTS, SYSTEM_SETTINGS};
use dvfs_energy_model::{holdout_validation, leave_one_setting_out, EnergyModel};
use dvfs_microbench::{Dataset, SweepConfig};
use gpu_counters::TABLE3_EVENTS;
use kifmm::FmmProfile;

/// What one artifact's run produces: its `BENCH_*.json` document, if
/// it has one, or the reason it failed.
type Outcome = Result<Option<Json>, String>;

/// An artifact's experiment: prints its table and renders its JSON.
type Run = fn(&mut Context) -> Outcome;

/// One `repro` artifact.
struct Artifact {
    /// The command-line name.
    name: &'static str,
    /// Its entry in the usage listing.
    help: &'static str,
    /// Whether `repro all` runs it.
    in_all: bool,
    /// Runs the experiment.
    run: Run,
    /// The gates of the committed `BENCH_*.json` file.
    check: Option<Check>,
}

/// A paper artifact: part of `all`, printed only.
const fn paper(name: &'static str, help: &'static str, run: Run) -> Artifact {
    Artifact { name, help, in_all: true, run, check: None }
}

/// An extension artifact with a committed `BENCH_*.json`, outside `all`.
const fn bench(name: &'static str, help: &'static str, run: Run, check: Check) -> Artifact {
    Artifact { name, help, in_all: false, run, check: Some(check) }
}

/// Every artifact, in the order `repro all` runs them.
static ARTIFACTS: [Artifact; 23] = [
    paper("table1", "DVFS settings and derived energy/power costs", table1),
    paper("cv", "Section II-D cross-validations", cv),
    paper("table2", "energy autotuning: model vs time oracle", table2),
    paper("table3", "the nvprof counters and their values for F1", table3),
    paper("table4", "the S1-S8 / F1-F8 experiment matrix", table4),
    paper("fig4", "FMM instruction/data breakdown", fig4),
    paper("fig5", "predicted vs measured FMM energy (64 cases)", fig5),
    paper("fig6", "FMM energy breakdown by op class at S1", fig6),
    paper("fig7", "computation/data/constant-power shares", fig7),
    paper("observations", "the Section IV-C findings", observations),
    paper("ablation-util", "race-to-halt penalty vs utilization (A1)", ablation_util),
    paper("prefetch", "prefetch what-if break-even scan (A3)", prefetch),
    paper("roofline", "energy rooflines and balances per setting", roofline),
    paper("governors", "DVFS governors racing on the FMM phase sequence", governors),
    Artifact {
        name: "governor",
        help: "phase-aware governor policies vs the best static setting\n\
               (BENCH_governor.json: --scale-shift 6, FMM_ENERGY_THREADS=1)",
        in_all: true,
        run: governor,
        check: Some(check::GOVERNOR),
    },
    paper("ablation-model", "nested predictor comparison (A4)", ablation_model),
    paper("bootstrap", "confidence intervals for the fitted constants", bootstrap),
    Artifact {
        name: "csv-export",
        help: "write the measurement dataset to dataset.csv",
        in_all: false,
        run: csv_export,
        check: None,
    },
    bench(
        "service",
        "closed-loop load against the autotune server plus a 1/2/4/8-shard\n\
         digest sweep (--requests, default 50000; BENCH_service.json: 1000000)",
        service,
        check::SERVICE,
    ),
    bench(
        "chaos",
        "the service load under the default chaos profile, its clean twin\n\
         and a 1/2/4/8-shard digest sweep (--requests, default 100000)",
        chaos,
        check::CHAOS,
    ),
    bench(
        "fmm-scaling",
        "FMM evaluate over the 1/2/4/8-thread grid (--sizes, default\n\
         8192,32768; --reps, default 3)",
        fmm_scaling,
        check::FMM,
    ),
    bench(
        "fleet",
        "every catalog device through sweep, fit and FMM autotuning, plus\n\
         the sibling transfer studies (BENCH_fleet.json: --scale-shift 6)",
        fleet,
        check::FLEET,
    ),
    bench(
        "stream",
        "streaming engine: particle drift, bursty traffic and multi-tenant\n\
         arbitration at 1/2/4/8 threads",
        stream,
        check::STREAM,
    ),
];

/// Requests per run of the service digest sweep.
const SERVICE_SHARD_REQUESTS: usize = 65_536;
/// Requests per run of the chaos digest sweep.
const CHAOS_SHARD_REQUESTS: usize = 16_384;

fn usage() -> String {
    let mut text = String::from("repro [<artifact>] [options]\n\nartifacts:\n");
    for a in &ARTIFACTS {
        let help = a.help.replace('\n', "\n                ");
        text.push_str(&format!("  {:<13} {help}\n", a.name));
    }
    let outside: Vec<&str> = ARTIFACTS.iter().filter(|a| !a.in_all).map(|a| a.name).collect();
    text.push_str(&format!(
        "  all           everything above, in order (the default), except\n                {}\n",
        outside.join(", ")
    ));
    text.push_str(
        "
options:
  --scale-shift K  divide every FMM problem size by 2^K (default 0 = paper scale)
  --seed S         reseed the whole pipeline (default 12648430 = 0xC0FFEE)
  --requests N     requests of the service or chaos load
  --reps K         timed repetitions per fmm-scaling grid point
  --sizes N1,N2    fmm-scaling problem sizes
  --out FILE       also write the artifact's BENCH JSON to FILE
  --check FILE     run the artifact's gates on FILE instead of the experiment
                   (takes none of the options above --out)
  --baseline FILE  with fmm-scaling --check: fail on a >10% evaluate_median_s
                   regression against FILE",
    );
    text
}

/// The options after the artifact name.  Each artifact applies its
/// own default to an option left unset.
#[derive(Default)]
struct Opts {
    scale_shift: Option<u32>,
    seed: Option<u64>,
    requests: Option<usize>,
    reps: Option<usize>,
    sizes: Option<Vec<usize>>,
    out: Option<String>,
    check: Option<String>,
    baseline: Option<String>,
}

impl Opts {
    /// Parses `--flag value` pairs; an unknown flag, a missing value or
    /// a value of the wrong type is an error naming the argument.
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let next = args.next();
            let value = || next.ok_or_else(|| format!("option '{flag}' needs a value"));
            match flag.as_str() {
                "--scale-shift" => o.scale_shift = Some(int(flag, value()?)?),
                "--seed" => o.seed = Some(int(flag, value()?)?),
                "--requests" => o.requests = Some(positive(flag, value()?)?),
                "--reps" => o.reps = Some(positive(flag, value()?)?),
                "--sizes" => {
                    let list = value()?.split(',').map(|n| positive(flag, n.trim()));
                    o.sizes = Some(list.collect::<Result<_, _>>()?);
                }
                "--out" => o.out = Some(value()?.clone()),
                "--check" => o.check = Some(value()?.clone()),
                "--baseline" => o.baseline = Some(value()?.clone()),
                _ => return Err(format!("unknown option '{flag}'")),
            }
        }
        Ok(o)
    }
}

fn int<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("option '{flag}' needs an unsigned integer, got '{value}'"))
}

fn positive(flag: &str, value: &str) -> Result<usize, String> {
    match int(flag, value)? {
        0 => Err(format!("option '{flag}' needs a positive integer, got '{value}'")),
        n => Ok(n),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("all", String::as_str);
    if matches!(name, "--help" | "-h" | "help") {
        println!("{}", usage());
        return;
    }
    let (chosen, opts) = match select(name, args.get(1..).unwrap_or_default()) {
        Ok(selection) => selection,
        Err(msg) => {
            eprintln!("{msg}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(msg) = run(&chosen, opts) {
        eprintln!("repro {name}: {msg}");
        std::process::exit(1);
    }
}

/// Resolves the artifacts `name` selects and validates the options
/// against them.
fn select(name: &str, args: &[String]) -> Result<(Vec<&'static Artifact>, Opts), String> {
    let opts = Opts::parse(args)?;
    let chosen: Vec<&Artifact> = ARTIFACTS
        .iter()
        .filter(|a| if name == "all" { a.in_all } else { a.name == name })
        .collect();
    if chosen.is_empty() {
        return Err(format!("unknown artifact '{name}'"));
    }
    let only = |names: &[&str]| chosen.iter().all(|a| names.contains(&a.name));
    if opts.requests.is_some() && !only(&["service", "chaos"]) {
        return Err(format!("'{name}' has no use for --requests"));
    }
    if (opts.reps.is_some() || opts.sizes.is_some()) && !only(&["fmm-scaling"]) {
        return Err(format!("'{name}' has no use for --reps or --sizes"));
    }
    let check = match chosen.as_slice() {
        [a] => a.check,
        _ => None,
    };
    if check.is_none() && (opts.out.is_some() || opts.check.is_some()) {
        return Err(format!("'{name}' has no BENCH artifact for --out or --check"));
    }
    if opts.out.is_some() && opts.check.is_some() {
        return Err("--out and --check exclude each other".to_string());
    }
    let run_options = [
        opts.scale_shift.is_some(),
        opts.seed.is_some(),
        opts.requests.is_some(),
        opts.reps.is_some(),
        opts.sizes.is_some(),
    ];
    if opts.check.is_some() && run_options.contains(&true) {
        return Err("--check runs no experiment, so it takes no --scale-shift, --seed, \
                    --requests, --reps or --sizes"
            .to_string());
    }
    if opts.baseline.is_some()
        && (opts.check.is_none() || check.is_some_and(|c| c.against.is_none()))
    {
        return Err(format!(
            "--baseline needs --check on an artifact with baseline gates, not '{name}'"
        ));
    }
    Ok((chosen, opts))
}

fn run(chosen: &[&Artifact], opts: Opts) -> Result<(), String> {
    if let (Some(path), [a]) = (&opts.check, chosen) {
        if let Some(check) = a.check {
            println!("repro {} --check: {}", a.name, check.run(path, opts.baseline.as_deref())?);
        }
        return Ok(());
    }
    let mut ctx = Context::new(opts);
    for a in chosen {
        let doc = (a.run)(&mut ctx)?;
        if let (Some(path), Some(doc)) = (&ctx.opts.out, doc) {
            std::fs::write(path, format!("{}\n", doc.to_text()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("[repro] wrote {path}");
        }
    }
    Ok(())
}

/// Lazily built shared pipeline state so `repro all` fits everything
/// once.
struct Context {
    opts: Opts,
    seed: u64,
    scale_shift: u32,
    fit: Option<(EnergyModel, Dataset)>,
    profiles: Option<Vec<(FmmInput, FmmProfile)>>,
    cases: Option<Vec<pipeline::CaseResult>>,
}

impl Context {
    fn new(opts: Opts) -> Self {
        let seed = opts.seed.unwrap_or(0xC0FFEE);
        let scale_shift = opts.scale_shift.unwrap_or(0);
        Context { opts, seed, scale_shift, fit: None, profiles: None, cases: None }
    }

    /// The sweep + fit, under the `FMM_ENERGY_FAULTS` campaign; fault
    /// rates it cannot survive are an error, not a panic.
    fn fit(&mut self) -> Result<&(EnergyModel, Dataset), String> {
        let fit = match self.fit.take() {
            Some(fit) => fit,
            None => {
                eprintln!("[repro] running microbenchmark sweep + NNLS fit ...");
                let config = SweepConfig { seed: self.seed, ..SweepConfig::default() };
                let fit = pipeline::try_fitted_model(&config)
                    .map_err(|e| format!("sweep + fit failed: {e}"))?;
                (fit.model, fit.dataset)
            }
        };
        Ok(self.fit.insert(fit))
    }

    fn model(&mut self) -> Result<EnergyModel, String> {
        Ok(self.fit()?.0.clone())
    }

    fn dataset(&mut self) -> Result<Dataset, String> {
        Ok(self.fit()?.1.clone())
    }

    fn profiles(&mut self) -> &[(FmmInput, FmmProfile)] {
        let (seed, scale_shift) = (self.seed, self.scale_shift);
        self.profiles.get_or_insert_with(|| {
            eprintln!("[repro] profiling the FMM inputs (scale shift {scale_shift}) ...");
            fmm_profiles(scale_shift, seed)
        })
    }

    fn cases(&mut self) -> Result<Vec<pipeline::CaseResult>, String> {
        let cases = match self.cases.take() {
            Some(cases) => cases,
            None => {
                let model = self.model()?;
                let seed = self.seed;
                pipeline::fig5_validation(&model, self.profiles(), seed).0
            }
        };
        Ok(self.cases.insert(cases).clone())
    }
}

fn table1(ctx: &mut Context) -> Outcome {
    let model = ctx.model()?;
    let rows = pipeline::table1_rows(&model);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let op = r.setting.operating_point();
            vec![
                r.setting_type.to_string(),
                format!("{:.0}", op.core.freq_mhz),
                format!("{:.0}", op.mem.freq_mhz),
                format!("{:.1}/{:.1}", r.measured.0, r.paper.0),
                format!("{:.1}/{:.1}", r.measured.1, r.paper.1),
                format!("{:.1}/{:.1}", r.measured.2, r.paper.2),
                format!("{:.1}/{:.1}", r.measured.3, r.paper.3),
                format!("{:.1}/{:.1}", r.measured.4, r.paper.4),
                format!("{:.0}/{:.0}", r.measured.5, r.paper.5),
                format!("{:.2}/{:.1}", r.measured.6, r.paper.6),
            ]
        })
        .collect();
    println!("== Table I: derived energy and power costs (measured/paper) ==");
    println!(
        "{}",
        table(
            &[
                "Type", "Core", "Mem", "SP pJ", "DP pJ", "Int pJ", "SM pJ", "L2 pJ", "Mem pJ",
                "π0 W"
            ],
            &body
        )
    );
    Ok(None)
}

fn cv(ctx: &mut Context) -> Outcome {
    let dataset = ctx.dataset()?;
    let holdout = holdout_validation(&dataset);
    let kfold = leave_one_setting_out(&dataset);
    println!("== Section II-D: cross-validation ==");
    println!(
        "2-fold holdout : measured {} | paper mean {:.2}% (σ {:.2}), range {:.2}–{:.2}%",
        holdout.stats.summary(),
        paper::CV_HOLDOUT.0,
        paper::CV_HOLDOUT.1,
        paper::CV_HOLDOUT.2,
        paper::CV_HOLDOUT.3
    );
    println!(
        "16-fold        : measured {} | paper mean {:.2}% (σ {:.2}), range {:.2}–{:.2}%",
        kfold.stats.summary(),
        paper::CV_16FOLD.0,
        paper::CV_16FOLD.1,
        paper::CV_16FOLD.2,
        paper::CV_16FOLD.3
    );
    println!();
    Ok(None)
}

fn table2(ctx: &mut Context) -> Outcome {
    let model = ctx.model()?;
    let outcomes = pipeline::table2_outcomes(&model, ctx.seed ^ 0x7AB2);
    let mut body = Vec::new();
    for o in &outcomes {
        let paper_rows: Vec<_> = paper::TABLE2.iter().filter(|r| r.0 == o.kind.name()).collect();
        for (strategy, result, paper_row) in
            [("Our model", &o.model, paper_rows[0]), ("Time Oracle", &o.oracle, paper_rows[1])]
        {
            body.push(vec![
                o.kind.name().to_string(),
                strategy.to_string(),
                format!(
                    "{}/{} (paper {}/{})",
                    result.mispredictions, o.cases, paper_row.2, paper_row.3
                ),
                format!("{:.2} ({:.2})", result.mean_lost_pct(), paper_row.4),
                format!("{:.2} ({:.2})", result.min_lost_pct(), paper_row.5),
                format!("{:.2} ({:.2})", result.max_lost_pct(), paper_row.6),
            ]);
        }
    }
    println!("== Table II: energy autotuning, measured (paper) ==");
    println!(
        "{}",
        table(&["Benchmark", "Strategy", "Mispredictions", "Mean lost %", "Min %", "Max %"], &body)
    );
    Ok(None)
}

fn table3(ctx: &mut Context) -> Outcome {
    let profiles = ctx.profiles();
    let f1 = &profiles[0].1;
    let totals = gpu_counters::CounterSet::new();
    for p in &f1.phases {
        totals.merge(&p.counters);
    }
    let body: Vec<Vec<String>> = TABLE3_EVENTS
        .iter()
        .map(|e| {
            vec![
                match e.kind() {
                    gpu_counters::CounterKind::Event => "E".to_string(),
                    gpu_counters::CounterKind::Metric => "M".to_string(),
                },
                e.name().to_string(),
                format!("{}", totals.get(*e)),
                e.description().to_string(),
            ]
        })
        .collect();
    println!("== Table III: counters used to profile the FMM (values for F1) ==");
    println!("{}", table(&["Type", "Name", "Value (F1)", "Description"], &body));
    Ok(None)
}

fn table4(_: &mut Context) -> Outcome {
    println!("== Table IV: DVFS settings and FMM inputs used for validation ==");
    let body: Vec<Vec<String>> = SYSTEM_SETTINGS
        .iter()
        .zip(FMM_INPUTS.iter())
        .map(|(s, f)| {
            vec![
                s.id.to_string(),
                format!("{:.0} MHz", s.core_mhz),
                format!("{:.0} MHz", s.mem_mhz),
                f.id.to_string(),
                format!("{}", f.n),
                format!("{}", f.q),
            ]
        })
        .collect();
    println!("{}", table(&["ID", "Core", "Memory", "F", "N", "Q"], &body));
    Ok(None)
}

fn fig4(ctx: &mut Context) -> Outcome {
    let rows = pipeline::fig4_breakdown(ctx.profiles());
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.f_id.to_string(),
                pct(r.instruction_shares.0),
                pct(r.instruction_shares.1),
                pct(r.byte_shares.0),
                pct(r.byte_shares.1),
                pct(r.byte_shares.2),
                pct(r.byte_shares.3),
            ]
        })
        .collect();
    println!("== Figure 4: FMM instruction mix and data-access breakdown ==");
    println!(
        "{}",
        table(
            &["F", "DP insts", "Int insts", "SM bytes", "L1 bytes", "L2 bytes", "DRAM bytes"],
            &body
        )
    );
    println!(
        "(paper: integer ≈ {:.0}% of instructions; DRAM ≈ {:.0}% of accesses)\n",
        paper::INTEGER_INSTRUCTION_SHARE * 100.0,
        paper::DRAM_ACCESS_SHARE * 100.0
    );
    Ok(None)
}

fn fig5(ctx: &mut Context) -> Outcome {
    let cases = ctx.cases()?;
    let errors: Vec<f64> = cases.iter().map(|c| c.error()).collect();
    let stats = dvfs_energy_model::ErrorStats::from_relative_errors(&errors);
    let body: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                format!("{}/{}", c.s_id, c.f_id),
                format!("{:.3}", c.time_s),
                joules(c.measured_j),
                joules(c.predicted_j),
                pct(c.error()),
            ]
        })
        .collect();
    println!("== Figure 5: estimated vs measured FMM energy (64 cases) ==");
    println!("{}", table(&["Case", "Time s", "Measured", "Predicted", "Error"], &body));
    println!(
        "measured: {} | paper: mean {:.2}% (σ {:.2}), range {:.2}–{:.2}%\n",
        stats.summary(),
        paper::FMM_VALIDATION.0,
        paper::FMM_VALIDATION.1,
        paper::FMM_VALIDATION.2,
        paper::FMM_VALIDATION.3
    );
    Ok(None)
}

fn fig6(ctx: &mut Context) -> Outcome {
    let model = ctx.model()?;
    let seed = ctx.seed;
    let rows = pipeline::fig6_energy_breakdown(&model, ctx.profiles(), seed);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(f_id, r)| {
            let mut cells = vec![f_id.to_string()];
            for share in &r.per_class {
                cells.push(pct(share.share));
            }
            cells.push(pct(r.constant_share()));
            cells
        })
        .collect();
    println!("== Figure 6: FMM energy breakdown by class at S1 (shares of total) ==");
    println!("{}", table(&["F", "SP", "DP", "Int", "SM", "L1", "L2", "DRAM", "Constant"], &body));
    Ok(None)
}

fn fig7(ctx: &mut Context) -> Outcome {
    let model = ctx.model()?;
    let cases = ctx.cases()?;
    let rows = pipeline::fig7_buckets(&model, &cases);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.label.clone(), pct(r.computation), pct(r.data), pct(r.constant)])
        .collect();
    println!("== Figure 7: computation / data / constant-power energy shares ==");
    println!("{}", table(&["Case", "Computation", "Data", "Constant"], &body));
    let lo = rows.iter().map(|r| r.constant).fold(f64::INFINITY, f64::min);
    let hi = rows.iter().map(|r| r.constant).fold(0.0f64, f64::max);
    println!(
        "constant-power share range: {}–{} (paper: {:.0}%–{:.0}%)\n",
        pct(lo),
        pct(hi),
        paper::FMM_CONSTANT_SHARE_RANGE.0 * 100.0,
        paper::FMM_CONSTANT_SHARE_RANGE.1 * 100.0
    );
    Ok(None)
}

fn observations(ctx: &mut Context) -> Outcome {
    let model = ctx.model()?;
    let seed = ctx.seed;
    let cases = ctx.cases()?;
    let o = pipeline::observations(&model, ctx.profiles(), &cases, seed);
    println!("== Section IV-C observations (measured vs paper) ==");
    println!(
        "integer share of instructions : {} (paper ≈ {})",
        pct(o.integer_instruction_share),
        pct(paper::INTEGER_INSTRUCTION_SHARE)
    );
    println!(
        "integer share of compute energy: {} (paper ≈ {})",
        pct(o.integer_energy_share),
        pct(paper::INTEGER_ENERGY_SHARE)
    );
    println!(
        "DRAM share of accesses        : {} (paper ≈ {})",
        pct(o.dram_access_share),
        pct(paper::DRAM_ACCESS_SHARE)
    );
    println!(
        "DRAM share of data energy     : {} (paper: up to {})",
        pct(o.dram_energy_share),
        pct(paper::DRAM_ENERGY_SHARE)
    );
    println!(
        "FMM constant-power share range: {}–{} (paper {}–{})",
        pct(o.fmm_constant_share_range.0),
        pct(o.fmm_constant_share_range.1),
        pct(paper::FMM_CONSTANT_SHARE_RANGE.0),
        pct(paper::FMM_CONSTANT_SHARE_RANGE.1)
    );
    println!(
        "microbench constant share     : {} (paper ≈ {})",
        pct(o.microbench_constant_share),
        pct(paper::MICROBENCH_CONSTANT_SHARE)
    );
    println!(
        "FMM best-energy == best-time  : {} (paper: yes)\n",
        if o.fmm_best_energy_is_best_time { "yes" } else { "no" }
    );
    Ok(None)
}

fn ablation_util(ctx: &mut Context) -> Outcome {
    let model = ctx.model()?;
    let points = pipeline::utilization_ablation(&model, ctx.seed ^ 0xAB7);
    let body: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![format!("{:.2}", p.utilization), pct(p.constant_share), pct(p.race_to_halt_loss)]
        })
        .collect();
    println!("== Ablation A1: race-to-halt penalty vs utilization ==");
    println!("{}", table(&["Utilization", "Constant share", "Race-to-halt loss"], &body));
    println!("(the paper's IV-C hypothesis: as utilization falls, constant power dominates and racing to halt becomes energy-optimal)\n");
    Ok(None)
}

fn prefetch(ctx: &mut Context) -> Outcome {
    let model = ctx.model()?;
    let cases = ctx.cases()?;
    let f1 = cases.iter().find(|c| c.s_id == "S1" && c.f_id == "F1");
    let f1_time = f1.ok_or("the validation cases lack S1/F1")?.time_s;
    let scan = pipeline::prefetch_scan(&model, &ctx.profiles()[0].1, f1_time);
    let body: Vec<Vec<String>> = scan
        .iter()
        .map(|(unused, breakeven)| vec![pct(*unused), format!("{:.4}×", breakeven)])
        .collect();
    println!("== Ablation A3: prefetch what-if (F1 at S1) ==");
    println!("{}", table(&["Unused prefetched data", "Break-even slowdown"], &body));
    println!("(disabling prefetch saves energy only if the resulting slowdown stays below the break-even factor)\n");
    Ok(None)
}

fn roofline(ctx: &mut Context) -> Outcome {
    use dvfs_energy_model::EnergyRoofline;
    use tk1_sim::Setting;
    let model = ctx.model()?;
    let r = EnergyRoofline::new(&model);
    println!("== Energy rooflines (fitted model) ==");
    for (core, mem) in [(852.0, 924.0), (612.0, 528.0), (396.0, 204.0)] {
        let s = Setting::from_frequencies(core, mem)
            .ok_or_else(|| format!("no TK1 setting at {core}/{mem} MHz"))?;
        println!("{}", r.render(s, 44));
    }
    println!("most energy-efficient setting per intensity:");
    for k in 0..9 {
        let intensity = 0.5 * 2f64.powi(k);
        let s = r.most_efficient_setting(intensity);
        println!(
            "  {:>7.1} flop/B -> {} ({:.2} Gflop/J)",
            intensity,
            s.label(),
            r.attainable_flops_per_joule(s, intensity) / 1e9
        );
    }
    println!();
    Ok(None)
}

fn governors(ctx: &mut Context) -> Outcome {
    use dvfs_governor::{
        FixedSetting, GovernorRuntime, OnDemand, PerPhaseModel, Policy, RaceToHalt, Workload,
    };
    use tk1_sim::Setting;
    let model = ctx.model()?;
    let seed = ctx.seed;
    let workload = Workload::from_profile(&ctx.profiles()[0].1, 1);
    let governors: [(&str, Box<dyn Policy>); 4] = [
        ("performance", Box::new(RaceToHalt)),
        ("powersave", Box::new(FixedSetting(Setting::new(0, 0)))),
        ("ondemand-0.95", Box::new(OnDemand)),
        ("model-based", Box::new(PerPhaseModel::new())),
    ];
    let mut body = Vec::new();
    for (name, mut policy) in governors {
        // A fresh, identically seeded rig per governor: they differ only
        // in their decisions, never in their noise draws.
        let mut rt = GovernorRuntime::new(model.clone(), Setting::all().collect(), seed, None);
        let report = rt.run(&workload, policy.as_mut());
        let settings: Vec<String> = report.records.iter().map(|r| r.applied.label()).collect();
        body.push(vec![
            name.to_string(),
            format!("{:.3}", report.total_time_s),
            format!("{:.3}", report.total_energy_j),
            settings.join(" "),
        ]);
    }
    println!("== DVFS governors on the FMM (F1) phase sequence ==");
    println!(
        "{}",
        table(&["Governor", "Time s", "Energy J", "Core/mem MHz (UP V U W X DOWN)"], &body)
    );
    Ok(None)
}

fn governor(ctx: &mut Context) -> Outcome {
    use dvfs_bench::GOVERNOR_ROUNDS;
    use tk1_sim::FaultConfig;
    let model = ctx.model()?;
    let (seed, scale_shift) = (ctx.seed, ctx.scale_shift);
    let faults = FaultConfig::from_env();
    let profiles = ctx.profiles();
    eprintln!("[repro] running governor policy comparison ({GOVERNOR_ROUNDS} rounds/input) ...");
    let cases = dvfs_bench::governor_comparison(&model, profiles, seed, faults.as_ref());
    let mut body = Vec::new();
    for c in &cases {
        body.push(vec![
            c.input.id.to_string(),
            format!("static {}", c.best_static_id),
            joules(c.best_static_j),
            "—".to_string(),
            "—".to_string(),
            "—".to_string(),
            "—".to_string(),
        ]);
        for o in &c.outcomes {
            let delta = (o.energy_j / c.best_static_j - 1.0) * 100.0;
            body.push(vec![
                String::new(),
                o.policy.to_string(),
                joules(o.energy_j),
                format!("{delta:+.2}%"),
                format!("{:.3}", o.time_s),
                format!("{}", o.switches),
                format!("{}", o.latch_retries),
            ]);
        }
    }
    println!("== Governor: per-phase DVFS policies vs best static setting ==");
    println!(
        "{}",
        table(&["F", "Policy", "Energy", "Δ vs static", "Time s", "Switches", "Retries"], &body)
    );
    let wins =
        cases.iter().filter(|c| c.outcome("per-phase-model").energy_j <= c.best_static_j).count();
    println!(
        "per-phase-model matches or beats the best static setting on {wins}/{} inputs\n",
        cases.len()
    );
    let case_docs = cases.iter().map(|c| {
        let outcomes = c.outcomes.iter().map(|o| {
            Json::obj([
                ("policy", Json::Str(o.policy.to_string())),
                ("energy_j", Json::Num(o.energy_j)),
                ("time_s", Json::Num(o.time_s)),
                ("transition_energy_j", Json::Num(o.transition_energy_j)),
                ("switches", Json::Num(o.switches as f64)),
                ("latch_retries", Json::Num(o.latch_retries as f64)),
            ])
        });
        Json::obj([
            ("input", Json::Str(c.input.id.to_string())),
            ("best_static", Json::Str(c.best_static_id.to_string())),
            ("best_static_j", Json::Num(c.best_static_j)),
            ("policies", Json::Arr(outcomes.collect())),
        ])
    });
    Ok(Some(Json::obj([
        ("benchmark", Json::Str("governor_policies".to_string())),
        ("scale_shift", Json::Num(scale_shift as f64)),
        ("rounds", Json::Num(GOVERNOR_ROUNDS as f64)),
        ("threads", Json::Num(compat::par::num_threads() as f64)),
        ("cases", Json::Arr(case_docs.collect())),
    ])))
}

fn ablation_model(ctx: &mut Context) -> Outcome {
    let dataset = ctx.dataset()?;
    let rows = dvfs_energy_model::model_structure_ablation(&dataset);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.structure.name().to_string(),
                format!("{:.2}", r.holdout.mean_pct),
                format!("{:.2}", r.holdout.std_pct),
                format!("{:.2}", r.holdout.max_pct),
            ]
        })
        .collect();
    println!("== Ablation A4: model structure (held-out settings) ==");
    println!("{}", table(&["Predictor", "Mean err %", "σ", "Max err %"], &body));
    println!("(what DVFS-awareness buys: the static IPDPS'13 roofline and a mean-power\nbaseline degrade once predictions cross DVFS settings)\n");
    Ok(None)
}

fn bootstrap(ctx: &mut Context) -> Outcome {
    let dataset = ctx.dataset()?;
    let report = dvfs_energy_model::bootstrap_fit(&dataset, 48, ctx.seed ^ 0xB00);
    println!(
        "== Bootstrap {}%-confidence intervals ({} replicates) ==",
        (report.confidence * 100.0) as u32,
        report.replicates
    );
    print!("{}", report.summary());
    let pi0 = report.constant_power_at(tk1_sim::Setting::max_performance());
    println!("π0(852/924) = {:.2} W [{:.2}, {:.2}]\n", pi0.estimate, pi0.lo, pi0.hi);
    Ok(None)
}

fn fleet(ctx: &mut Context) -> Outcome {
    let r = dvfs_bench::fleet_report(ctx.seed, ctx.scale_shift)
        .map_err(|e| format!("pipeline error: {e:?}"))?;
    println!("== Fleet: the device catalog through the whole pipeline ==");
    let body: Vec<Vec<String>> = r
        .devices
        .iter()
        .map(|d| {
            vec![
                d.id.clone(),
                format!("{}x{}", d.n_core, d.n_mem),
                format!("{:.2}%", d.holdout_mean_pct),
                pct(d.fmm_constant_share),
                format!("{:.0}/{:.0}", d.best_time.core_mhz, d.best_time.mem_mhz),
                format!("{:.0}/{:.0}", d.best_energy.core_mhz, d.best_energy.mem_mhz),
                if d.race_to_idle_optimal { "yes".to_string() } else { "no".to_string() },
                format!("{:.2}%", d.energy_saving_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "Device",
                "Grid",
                "CV err",
                "Const share",
                "Best-time MHz",
                "Best-energy MHz",
                "Race-to-idle",
                "Saved"
            ],
            &body
        )
    );
    println!(
        "-- Cross-device transfer ({} workload, budget = training settings seen) --",
        r.workload
    );
    let body: Vec<Vec<String>> = r
        .transfers
        .iter()
        .map(|t| {
            let p0 = &t.report.points[0];
            vec![
                format!("{} <- {}", t.target, t.source),
                if t.sibling { "sibling".to_string() } else { "control".to_string() },
                format!("{:.2}% / {:.2}%", p0.warm_mean_pct, p0.cold_mean_pct),
                t.report.warm_budget.map_or("—".to_string(), |b| b.to_string()),
                t.report.cold_budget.map_or("—".to_string(), |b| b.to_string()),
                if t.report.warm_start_wins() { "yes".to_string() } else { "no".to_string() },
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["Pair", "Kind", "Warm/cold @1", "Warm budget", "Cold budget", "Warm wins"], &body)
    );
    Ok(Some(dvfs_bench::fleet_to_json(&r)))
}

fn stream(ctx: &mut Context) -> Outcome {
    use dvfs_bench::{stream_bench, stream_to_json};
    use dvfs_stream::StreamConfig;
    let model = ctx.model()?;
    let cfg = StreamConfig::default();
    eprintln!(
        "[repro] streaming suite: {} drift steps, {} requests, gap {}x, slack {}x, threads {:?} ...",
        cfg.steps, cfg.requests, cfg.gap_scale, cfg.deadline_slack, DEFAULT_THREAD_GRID
    );
    let bench = stream_bench(&model, &cfg, &DEFAULT_THREAD_GRID);
    let r = &bench.suite;
    println!("== Stream: particle drift with incremental tree maintenance ==");
    let d = &r.drift;
    let body = vec![
        vec!["steps".to_string(), format!("{}", d.steps)],
        vec!["in-place repairs".to_string(), format!("{}", d.in_place)],
        vec!["full rebuilds".to_string(), format!("{}", d.rebuilds)],
        vec!["migrated particles".to_string(), format!("{}", d.migrants)],
        vec!["energy".to_string(), joules(d.energy_j)],
        vec!["time".to_string(), format!("{:.4} s", d.time_s)],
        vec!["potential digest".to_string(), format!("{:016x}", d.potential_digest)],
    ];
    println!("{}", table(&["Metric", "Value"], &body));
    println!("== Stream: bursty mixed-size traffic under arbitration ==");
    let b = &r.burst;
    let body: Vec<Vec<String>> = b
        .windows
        .iter()
        .map(|w| {
            vec![
                format!("{:.4}", w.start_s),
                format!("{}", w.requests),
                joules(w.energy_j),
                format!("{:.3}", w.lambda_w),
            ]
        })
        .collect();
    println!("{}", table(&["Window start s", "Requests", "Energy", "λ W"], &body));
    let body = vec![
        vec!["requests".to_string(), format!("{}", b.requests)],
        vec![
            "arbitrated energy".to_string(),
            format!(
                "{} (static-best {}, race-to-halt {})",
                joules(b.energy_j),
                joules(b.static_best_j),
                joules(b.race_to_halt_j)
            ),
        ],
        vec!["deadline misses".to_string(), format!("{}", b.deadline_misses)],
        vec![
            "latency".to_string(),
            format!("mean {:.4} s, max {:.4} s", b.mean_latency_s, b.max_latency_s),
        ],
        vec!["makespan".to_string(), format!("{:.4} s", b.makespan_s)],
        vec!["stream digest".to_string(), format!("{:016x}", b.stream_digest)],
    ];
    println!("{}", table(&["Metric", "Value"], &body));
    println!("== Stream: multi-tenant arbitration on one device ==");
    let t = &r.tenants;
    let body = vec![
        vec!["tenants".to_string(), format!("{}", t.tenants)],
        vec!["interleaving".to_string(), t.order.to_string()],
        vec!["deadline pressure λ".to_string(), format!("{:.3} W", t.lambda_w)],
        vec!["plan feasible".to_string(), if t.feasible { "yes".into() } else { "no".into() }],
        vec!["arbitrated energy".to_string(), joules(t.arbitrated_j)],
        vec!["per-job static-best".to_string(), joules(t.static_best_j)],
        vec!["race-to-halt".to_string(), joules(t.race_to_halt_j)],
        vec!["deadline misses".to_string(), format!("{}", t.deadline_misses)],
    ];
    println!("{}", table(&["Metric", "Value"], &body));
    println!(
        "arbitrated saves {:.2}% vs static-best and {:.2}% vs race-to-halt (suite digest {:016x})\n",
        (1.0 - t.arbitrated_j / t.static_best_j) * 100.0,
        (1.0 - t.arbitrated_j / t.race_to_halt_j) * 100.0,
        r.digest
    );
    let body: Vec<Vec<String>> = bench
        .thread_digests
        .iter()
        .map(|(threads, digest)| vec![format!("{threads}"), format!("{digest:016x}")])
        .collect();
    println!("{}", table(&["Threads", "Suite digest"], &body));
    Ok(Some(stream_to_json(&bench)))
}

/// Runs `cfg(shards)` at every width of [`DEFAULT_THREAD_GRID`] as the
/// shard count, prints the digest sweep, and returns its JSON entries.
fn shard_sweep(cfg: impl Fn(usize) -> LoadConfig, with_rejections: bool) -> Vec<Json> {
    let runs: Vec<LoadReport> = DEFAULT_THREAD_GRID
        .iter()
        .map(|&shards| {
            eprintln!("[repro] digest sweep at {shards} shard(s) ...");
            service_load(&cfg(shards))
        })
        .collect();
    let body: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.shards),
                format!("{}/{}", r.served, r.requests),
                format!("{}", r.typed_rejections),
                format!("{:016x}", r.digest),
            ]
        })
        .collect();
    println!("{}", table(&["Shards", "Served", "Rejected", "Digest"], &body));
    runs.iter()
        .map(|r| {
            let mut fields = vec![
                ("shards", Json::Num(r.shards as f64)),
                ("requests", Json::Num(r.requests as f64)),
                ("served", Json::Num(r.served as f64)),
            ];
            if with_rejections {
                fields.push(("typed_rejections", Json::Num(r.typed_rejections as f64)));
            }
            fields.push(("digest", Json::Str(format!("{:016x}", r.digest))));
            Json::obj(fields)
        })
        .collect()
}

fn service(ctx: &mut Context) -> Outcome {
    let (seed, requests) = (ctx.seed, ctx.opts.requests.unwrap_or(50_000));
    // `FMM_ENERGY_DEVICE` selects the catalog platform the load tunes
    // for (default: the TK1).
    let device_id = tk1_sim::catalog::from_env().id;
    let cfg = LoadConfig { requests, seed, device_id, ..LoadConfig::default() };
    eprintln!(
        "[repro] driving {requests} requests for {device_id} through the autotune server ({} clients, {} shards) ...",
        cfg.clients, cfg.shards
    );
    let r = service_load(&cfg);
    println!("== Service: closed-loop load against the autotune server ==");
    let body = vec![
        vec!["requests served".to_string(), format!("{}/{}", r.served, r.requests)],
        vec!["throughput".to_string(), format!("{:.0} req/s", r.throughput_rps)],
        vec!["elapsed".to_string(), format!("{:.2} s", r.elapsed_s)],
        vec![
            "cache-hit latency".to_string(),
            format!(
                "p50 {:.0} µs, p99 {:.0} µs ({} responses)",
                r.hit.p50_us, r.hit.p99_us, r.hit.count
            ),
        ],
        vec![
            "cold-path latency".to_string(),
            format!(
                "p50 {:.0} µs, p99 {:.0} µs ({} responses)",
                r.cold.p50_us, r.cold.p99_us, r.cold.count
            ),
        ],
        vec!["cache hit rate".to_string(), format!("{:.4}", r.cache_hit_rate)],
        vec!["max queue depth".to_string(), format!("{}", r.max_queue_depth)],
        vec!["degraded responses".to_string(), format!("{}", r.degraded_responses)],
        vec![
            "overload probe".to_string(),
            format!(
                "{}/{} rejected ({:.2}%), {} accepted all answered",
                r.overload.rejections,
                r.overload.attempts,
                r.overload.rejection_rate * 100.0,
                r.overload.served
            ),
        ],
        vec!["run digest".to_string(), format!("{:016x}", r.digest)],
    ];
    println!("{}", table(&["Metric", "Value"], &body));
    let sweep = shard_sweep(
        |shards| LoadConfig {
            requests: SERVICE_SHARD_REQUESTS,
            shards,
            overload_probes: 0,
            seed,
            device_id,
            ..LoadConfig::default()
        },
        false,
    );
    let latency = [
        ("hit_count", r.hit.count as f64),
        ("hit_p50", r.hit.p50_us),
        ("hit_p99", r.hit.p99_us),
        ("hit_max", r.hit.max_us),
        ("cold_count", r.cold.count as f64),
        ("cold_p50", r.cold.p50_us),
        ("cold_p99", r.cold.p99_us),
        ("cold_max", r.cold.max_us),
    ];
    Ok(Some(Json::obj([
        ("benchmark", Json::Str("autoserve_load".to_string())),
        ("seed", Json::Str(format!("{seed:016x}"))),
        ("requests", Json::Num(r.requests as f64)),
        ("served", Json::Num(r.served as f64)),
        ("fit_errors", Json::Num(r.fit_errors as f64)),
        ("clients", Json::Num(r.clients as f64)),
        ("shards", Json::Num(r.shards as f64)),
        ("queue_capacity", Json::Num(cfg.queue_capacity as f64)),
        ("batch_max", Json::Num(cfg.batch_max as f64)),
        ("distinct_devices", Json::Num(cfg.distinct_devices as f64)),
        ("elapsed_s", Json::Num(r.elapsed_s)),
        ("throughput_rps", Json::Num(r.throughput_rps)),
        ("latency_us", Json::obj(latency.map(|(k, v)| (k, Json::Num(v))))),
        ("cache_hit_rate", Json::Num(r.cache_hit_rate)),
        ("rejection_rate", Json::Num(r.overload.rejection_rate)),
        ("overload_attempts", Json::Num(r.overload.attempts as f64)),
        ("overload_served", Json::Num(r.overload.served as f64)),
        ("max_queue_depth", Json::Num(r.max_queue_depth as f64)),
        ("degraded_responses", Json::Num(r.degraded_responses as f64)),
        ("digest", Json::Str(format!("{:016x}", r.digest))),
        ("shard_digests", Json::Arr(sweep)),
        ("threads", Json::Num(compat::par::num_threads() as f64)),
    ])))
}

fn chaos(ctx: &mut Context) -> Outcome {
    let (seed, requests) = (ctx.seed, ctx.opts.requests.unwrap_or(100_000));
    // `FMM_ENERGY_DEVICE` selects the catalog platform the load tunes
    // for (default: the TK1).
    let device_id = tk1_sim::catalog::from_env().id;
    let base = |requests: usize, shards: usize| LoadConfig {
        device_id,
        seed,
        ..LoadConfig::chaos_soak(requests, shards)
    };
    eprintln!("[repro] chaos soak, {requests} requests for {device_id} (4 shards) ...");
    let chaos = service_load(&base(requests, 4));
    eprintln!("[repro] clean twin for the p99 comparison ...");
    let clean = service_load(&LoadConfig { chaos: None, stall_probes: 0, ..base(requests, 4) });
    let degraded = chaos.degraded_stale + chaos.degraded_sibling + chaos.degraded_fallback;
    let share = if chaos.served > 0 { degraded as f64 / chaos.served as f64 } else { 0.0 };
    let probe = &chaos.stall_probe;
    println!("== Chaos: the service load under injected failures ==");
    let body = vec![
        vec!["requests served".to_string(), format!("{}/{}", chaos.served, chaos.requests)],
        vec!["typed rejections".to_string(), format!("{}", chaos.typed_rejections)],
        vec!["availability".to_string(), format!("{:.5}", chaos.availability)],
        vec!["retries / recovered".to_string(), format!("{} / {}", chaos.retries, chaos.recovered)],
        vec!["caught panics".to_string(), format!("{}", chaos.caught_panics)],
        vec![
            "worker deaths / respawns".to_string(),
            format!("{} / {}", chaos.worker_deaths, chaos.respawns),
        ],
        vec!["breaker opens".to_string(), format!("{}", chaos.breaker_opens)],
        vec!["degraded answers".to_string(), format!("{degraded} ({})", pct(share))],
        vec![
            "hit p99, chaos / clean".to_string(),
            format!("{:.0} / {:.0} µs", chaos.hit.p99_us, clean.hit.p99_us),
        ],
        vec!["stall probe".to_string(), format!("{}/{} recovered", probe.recovered, probe.probes)],
        vec!["run digest".to_string(), format!("{:016x}", chaos.digest)],
        vec!["clean digest".to_string(), format!("{:016x}", clean.digest)],
    ];
    println!("{}", table(&["Metric", "Value"], &body));
    let sweep = shard_sweep(
        |shards| LoadConfig { stall_probes: 0, ..base(CHAOS_SHARD_REQUESTS, shards) },
        true,
    );
    let num = |fields: &[(&'static str, f64)]| {
        Json::obj(fields.iter().map(|&(k, v)| (k, Json::Num(v))).collect::<Vec<_>>())
    };
    Ok(Some(Json::obj([
        ("benchmark", Json::Str("autoserve_chaos".to_string())),
        ("seed", Json::Str(format!("{seed:016x}"))),
        ("requests", Json::Num(chaos.requests as f64)),
        ("served", Json::Num(chaos.served as f64)),
        ("typed_rejections", Json::Num(chaos.typed_rejections as f64)),
        ("availability", Json::Num(chaos.availability)),
        ("retries", Json::Num(chaos.retries as f64)),
        ("recovered", Json::Num(chaos.recovered as f64)),
        ("backoff_ms", Json::Num(chaos.backoff_ms)),
        ("worker_deaths", Json::Num(chaos.worker_deaths as f64)),
        ("respawns", Json::Num(chaos.respawns as f64)),
        ("stall_respawns", Json::Num(chaos.stall_respawns as f64)),
        ("caught_panics", Json::Num(chaos.caught_panics as f64)),
        ("breaker_opens", Json::Num(chaos.breaker_opens as f64)),
        (
            "degraded",
            num(&[
                ("stale", chaos.degraded_stale as f64),
                ("sibling", chaos.degraded_sibling as f64),
                ("fallback", chaos.degraded_fallback as f64),
                ("share", share),
            ]),
        ),
        (
            "latency_us",
            num(&[
                ("chaos_hit_p99", chaos.hit.p99_us),
                ("chaos_cold_p99", chaos.cold.p99_us),
                ("clean_hit_p99", clean.hit.p99_us),
                ("clean_cold_p99", clean.cold.p99_us),
            ]),
        ),
        (
            "stall_probe",
            num(&[
                ("probes", probe.probes as f64),
                ("deadline_hits", probe.deadline_hits as f64),
                ("recovered", probe.recovered as f64),
                ("late_answers", probe.server_late_answers as f64),
            ]),
        ),
        ("clean_digest", Json::Str(format!("{:016x}", clean.digest))),
        ("digest", Json::Str(format!("{:016x}", chaos.digest))),
        ("shard_digests", Json::Arr(sweep)),
        ("threads", Json::Num(compat::par::num_threads() as f64)),
    ])))
}

fn fmm_scaling(ctx: &mut Context) -> Outcome {
    use dvfs_bench::scaling::{scaling_grid, DEFAULT_SIZES};
    let reps = ctx.opts.reps.unwrap_or(3);
    let sizes = ctx.opts.sizes.clone().unwrap_or_else(|| DEFAULT_SIZES.to_vec());
    eprintln!(
        "[repro] FMM thread-scaling grid: sizes {sizes:?} x threads {DEFAULT_THREAD_GRID:?}, \
         {reps} reps ..."
    );
    let cases = scaling_grid(&sizes, &DEFAULT_THREAD_GRID, reps, 3);
    println!("== FMM evaluate: thread scaling (q=64, p=4, FFT M2L) ==");
    let body: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            let base = cases
                .iter()
                .find(|b| b.n == c.n && b.threads == 1)
                .map_or(1.0, |b| b.evaluate_median_s);
            let [up, v, x, down, near] = c.phase_medians_s;
            vec![
                format!("{}", c.n),
                format!("{}", c.threads),
                format!("{:.4}", c.evaluate_median_s),
                format!("{:.2}x", base / c.evaluate_median_s),
                format!("{up:.4}"),
                format!("{v:.4}"),
                format!("{x:.4}"),
                format!("{down:.4}"),
                format!("{near:.4}"),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["n", "threads", "eval s", "speedup", "up", "v", "x", "down", "near"], &body)
    );
    let mut consistent = true;
    for &n in &sizes {
        let digests: Vec<u64> = cases.iter().filter(|c| c.n == n).map(|c| c.digest).collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            consistent = false;
            println!("n={n}: POTENTIAL DIGESTS DIFFER ACROSS THREAD COUNTS: {digests:016x?}");
        }
    }
    if !consistent {
        return Err("potential digests differ across thread counts".to_string());
    }
    println!(
        "potentials bitwise-identical across all thread counts at every size \
         (digest check over {} grid points)\n",
        cases.len()
    );
    let case_docs = cases.iter().map(|c| {
        let [up, v, x, down, near] = c.phase_medians_s;
        let phases = [("up", up), ("v", v), ("x", x), ("down", down), ("near", near)];
        Json::obj([
            ("n", Json::Num(c.n as f64)),
            ("q", Json::Num(64.0)),
            ("p", Json::Num(4.0)),
            ("m2l", Json::Str("fft".to_string())),
            ("threads", Json::Num(c.threads as f64)),
            ("reps", Json::Num(c.reps as f64)),
            ("phase_medians_s", Json::obj(phases.map(|(k, s)| (k, Json::Num(s))))),
            ("evaluate_median_s", Json::Num(c.evaluate_median_s)),
            ("digest", Json::Str(format!("{:016x}", c.digest))),
        ])
    });
    Ok(Some(Json::obj([
        ("benchmark", Json::Str("fmm_evaluate_phases".to_string())),
        ("cases", Json::Arr(case_docs.collect())),
    ])))
}

fn csv_export(ctx: &mut Context) -> Outcome {
    let dataset = ctx.dataset()?;
    let csv = dvfs_microbench::to_csv(&dataset);
    let path = "dataset.csv";
    std::fs::write(path, &csv).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {} samples to {path}", dataset.len());
    Ok(None)
}
