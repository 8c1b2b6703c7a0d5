//! A criterion-compatible benchmark harness on a warmup/median/MAD
//! timer.
//!
//! Replaces `criterion` for the workspace's `harness = false` bench
//! targets.  The macro surface (`criterion_group!`, `criterion_main!`)
//! and the types the benches use (`Criterion`, `BenchmarkGroup`,
//! `BenchmarkId`, `Bencher::iter`) are drop-in compatible.
//!
//! Measurement protocol per benchmark: calibrate the iteration count by
//! doubling until one batch takes at least `TARGET_BATCH` (10 ms), then time
//! `sample_size` batches and report the median per-iteration time with
//! the median absolute deviation (MAD) as the robust spread estimate.
//!
//! Command-line flags (everything else cargo passes is ignored):
//!
//! * `--quick` / `--test` — run every benchmark body once and skip
//!   timing; used by CI as a smoke test.
//! * a bare string — only run benchmarks whose name contains it.

use std::time::{Duration, Instant};

/// Minimum wall time for one timed batch during calibration.
const TARGET_BATCH: Duration = Duration::from_millis(10);

/// Default number of timed batches per benchmark.
const DEFAULT_SAMPLE_SIZE: usize = 20;

/// Times the body of one benchmark.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` for the harness-chosen number of iterations, timing
    /// the whole batch.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// A benchmark identifier: a function name plus a parameter value.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered as `function_name/parameter`.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{function_name}/{parameter}") }
    }
}

/// Names a benchmark; implemented for strings and [`BenchmarkId`].
pub trait IntoBenchmarkId {
    /// The rendered name.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

impl IntoBenchmarkId for &String {
    fn into_id(self) -> String {
        self.clone()
    }
}

/// The benchmark driver; one per bench binary.
pub struct Criterion {
    quick: bool,
    filter: Option<String>,
    ran: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { quick: false, filter: None, ran: 0 }
    }
}

impl Criterion {
    /// Builds a driver from the process arguments (see module docs).
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" | "--test" => c.quick = true,
                s if s.starts_with('-') => {} // cargo-injected flags
                s => c.filter = Some(s.to_string()),
            }
        }
        c
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl std::fmt::Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.to_string(), sample_size: DEFAULT_SAMPLE_SIZE }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        self.run(&id.into_id(), DEFAULT_SAMPLE_SIZE, f);
        self
    }

    /// Prints the closing line; called by `criterion_main!`.
    pub fn final_summary(&self) {
        println!(
            "\n{} benchmark(s) {}",
            self.ran,
            if self.quick { "smoke-tested (--quick)" } else { "measured" }
        );
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, name: &str, sample_size: usize, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        self.ran += 1;
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        if self.quick {
            f(&mut b);
            println!("{name:<40} ok ({:>12?})", b.elapsed);
            return;
        }
        // Calibrate: double the batch size until a batch is long enough
        // to time reliably.
        loop {
            f(&mut b);
            if b.elapsed >= TARGET_BATCH || b.iters >= (1 << 24) {
                break;
            }
            b.iters *= 2;
        }
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(sample_size);
        for _ in 0..sample_size {
            f(&mut b);
            per_iter_ns.push(b.elapsed.as_nanos() as f64 / b.iters as f64);
        }
        let med = median(&mut per_iter_ns);
        let mut dev: Vec<f64> = per_iter_ns.iter().map(|&x| (x - med).abs()).collect();
        let mad = median(&mut dev);
        println!(
            "{name:<40} median {:>12} (MAD {:>10}, {} x {} iters)",
            fmt_ns(med),
            fmt_ns(mad),
            sample_size,
            b.iters,
        );
    }
}

/// A set of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed batches for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark under this group's prefix.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_id());
        self.criterion.run(&full, self.sample_size, f);
        self
    }

    /// Runs one parameterized benchmark under this group's prefix.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.id);
        self.criterion.run(&full, self.sample_size, |b| f(b, input));
        self
    }

    /// Closes the group (kept for criterion API parity).
    pub fn finish(self) {}
}

fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Bundles benchmark functions into a group runner, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::bench::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generates `fn main` running the given groups, criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::from_args();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quick_mode_runs_each_benchmark_once() {
        let mut c = Criterion { quick: true, filter: None, ran: 0 };
        let mut calls = 0;
        c.bench_function("noop", |b| {
            b.iter(|| ());
            calls += 1;
        });
        assert_eq!(calls, 1);
        assert_eq!(c.ran, 1);
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut c = Criterion { quick: true, filter: Some("keep".into()), ran: 0 };
        let mut kept = false;
        let mut skipped = false;
        c.bench_function("keep/this", |b| {
            b.iter(|| ());
            kept = true;
        });
        c.bench_function("drop/this", |b| {
            b.iter(|| ());
            skipped = true;
        });
        assert!(kept);
        assert!(!skipped);
        assert_eq!(c.ran, 1);
    }

    #[test]
    fn group_prefixes_names() {
        let mut c = Criterion { quick: true, filter: Some("grp/inner".into()), ran: 0 };
        let mut hit = false;
        {
            let mut g = c.benchmark_group("grp");
            g.sample_size(5);
            g.bench_with_input(BenchmarkId::new("inner", 7), &7usize, |b, &n| {
                b.iter(|| n * 2);
                hit = true;
            });
            g.finish();
        }
        assert!(hit);
    }
}
