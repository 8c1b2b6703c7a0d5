//! End-to-end and per-layer benchmark of the fmm-energy workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path fmmbench/Cargo.toml -- \
//!     --workload <fmm_solve|serve_open|stream_drift> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics.  `--trace 1` runs it untraced for half the time and traced
//! for the other half, then reports the per-layer metrics and the
//! tracing overhead, and writes every span to
//! `.bench_trace/<workload>-<seed>.jsonl`.  Either way the last line of
//! standard output is one JSON object, and the exit code is non-zero when
//! a correctness gate failed.  README.md beside this file defines every
//! workload and metric.

mod fmm_solve;
mod fmmlayer;
mod host;
mod report;
mod serve_open;
mod stats;
mod stream_drift;
mod trace;

use host::HostPeaks;
use report::{Catalogue, Report, FIGURES};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Evaluator pool width, server shards and reply reapers: the two cores
/// the workloads were sized on.
pub const THREADS: usize = 2;

const USAGE: &str = "usage: fmmbench --workload <fmm_solve|serve_open|stream_drift> --seed <u64> --seconds <1-600> --trace <0|1>";

#[derive(Debug, Clone, Copy)]
enum Workload {
    FmmSolve,
    ServeOpen,
    StreamDrift,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fmm_solve" => Some(Workload::FmmSolve),
            "serve_open" => Some(Workload::ServeOpen),
            "stream_drift" => Some(Workload::StreamDrift),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FmmSolve => "fmm_solve",
            Workload::ServeOpen => "serve_open",
            Workload::StreamDrift => "stream_drift",
        }
    }

    fn run(
        self,
        seed: u64,
        seconds: f64,
        tr: &mut Tracer,
        peaks: Option<&HostPeaks>,
    ) -> Result<Report, String> {
        match self {
            Workload::FmmSolve => fmm_solve::run(seed, seconds, tr, peaks),
            Workload::ServeOpen => serve_open::run(seed, seconds, tr),
            Workload::StreamDrift => stream_drift::run(seed, seconds, tr, peaks),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let repeated = || format!("{flag} given twice");
        match flag.as_str() {
            "--workload" if workload.is_none() => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" if seed.is_none() => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?);
            }
            "--seconds" if seconds.is_none() => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1-600"));
                }
                seconds = Some(s);
            }
            "--trace" if trace.is_none() => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is neither 0 nor 1")),
                });
            }
            "--workload" | "--seed" | "--seconds" | "--trace" => return Err(repeated()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Prints the thirteen figures, `n/a` where the workload has none.
fn print_figures(args: &Args, report: &Report, catalogue: &Catalogue) -> Result<(), String> {
    println!(
        "fmmbench {} seed={} seconds={}: {} units, {} failed",
        args.workload.name(),
        args.seed,
        args.seconds,
        report.attempted,
        report.failed
    );
    for name in FIGURES {
        let unit = catalogue.unit(name)?;
        match report.figures.get(name) {
            Some(v) => println!("  {name:<16} {v:>18.6} {unit}"),
            None => println!("  {name:<16} {:>18} {unit}", "n/a"),
        }
    }
    Ok(())
}

fn untraced(args: &Args, catalogue: &Catalogue) -> Result<(String, bool), String> {
    let mut tr = Tracer::new(false);
    let mut report = args.workload.run(args.seed, args.seconds as f64, &mut tr, None)?;
    let f = &mut report.figures;
    f.insert("setup_s", report.setup_s);
    f.insert("peak_rss_mb", stats::peak_rss_mb()?);
    f.insert("p50_us", report.unit_p50_us);
    f.insert("p99_us", report.unit_p99_us);
    report.check_names(catalogue)?;
    print_figures(args, &report, catalogue)?;
    let metrics = catalogue
        .end_to_end
        .iter()
        .map(|(name, unit)| match report.figures.get(name.as_str()) {
            Some(&v) => Ok((name.as_str(), unit.as_str(), v)),
            None => Err(format!("end-to-end metric {name} was not measured")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(report.result_line(&metrics))
}

fn traced(args: &Args, catalogue: &Catalogue) -> Result<(String, bool), String> {
    let half = (args.seconds as f64 / 2.0).max(1.0);
    let peaks = host::probe();
    let plain = args.workload.run(args.seed, half, &mut Tracer::new(false), None)?;
    let mut tr = Tracer::new(true);
    let mut report = args.workload.run(args.seed, half, &mut tr, Some(&peaks))?;
    peaks.record(&mut report.layers);
    report.layers.insert("bench.trace_overhead", report.unit_p50_us / plain.unit_p50_us);
    plain.check_names(catalogue)?;
    report.check_names(catalogue)?;

    let path =
        PathBuf::from(".bench_trace").join(format!("{}-{}.jsonl", args.workload.name(), args.seed));
    tr.write_jsonl(&path, &report.rows).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("{:<28} {:>8} {:>12} {:>12}", "span", "count", "total_s", "self_s");
    for (name, (count, total, own)) in tr.summary() {
        eprintln!("{name:<28} {count:>8} {total:>12.6} {own:>12.6}");
    }
    eprintln!("spans written to {}", path.display());

    // The figures are end-to-end numbers, so they come from the untraced
    // half; the gates of both halves count.  A layer the workload does
    // not drive reads 0.
    let metrics: Vec<(&str, &str, f64)> = catalogue
        .per_layer
        .iter()
        .map(|(name, unit)| {
            let v = report.layers.get(name.as_str()).or_else(|| plain.figures.get(name.as_str()));
            (name.as_str(), unit.as_str(), v.copied().unwrap_or(0.0))
        })
        .collect();
    report.attempted += plain.attempted;
    report.failed += plain.failed;
    report.violations.extend(plain.violations);
    Ok(report.result_line(&metrics))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fmmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    compat::par::set_thread_count(Some(THREADS));
    let outcome = Catalogue::load().and_then(|catalogue| {
        if args.trace {
            traced(&args, &catalogue)
        } else {
            untraced(&args, &catalogue)
        }
    });
    match outcome {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fmmbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
