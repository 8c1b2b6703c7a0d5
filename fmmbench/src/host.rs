//! Host roofs measured in-tree: an FMA-throughput loop for the compute
//! peak and a STREAM-style triad for memory bandwidth, both on
//! [`THREADS`] threads.

use crate::THREADS;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Independent FMA chains per thread: enough to hide FMA latency on two
/// pipes at any vector width the compiler picks.
const CHAINS: usize = 64;
const FMA_ITERS: u64 = 10_000_000;
/// Assumed when the cache hierarchy cannot be read.
const FALLBACK_LLC_BYTES: usize = 32 << 20;
const MB: f64 = (1 << 20) as f64;

/// The measured roofs.
#[derive(Debug, Clone, Copy)]
pub struct HostPeaks {
    /// Best FMA-loop rate, GFLOP/s (an FMA counts two flops).
    pub peak_gflops: f64,
    /// Best triad bandwidth, GB/s (24 bytes per element, no
    /// write-allocate).
    pub triad_gbs: f64,
    /// Last-level cache size, MB.
    pub llc_mb: f64,
    /// Size of each of the three triad arrays, MB (four times the LLC).
    pub triad_array_mb: f64,
}

impl HostPeaks {
    /// Adds the roofs to the per-layer metrics.
    pub fn record(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert("host.peak_gflops", self.peak_gflops);
        layers.insert("host.triad_gbs", self.triad_gbs);
        layers.insert("host.llc_mb", self.llc_mb);
        layers.insert("host.triad_array_mb", self.triad_array_mb);
    }
}

/// Measures both roofs.
pub fn probe() -> HostPeaks {
    let llc = llc_bytes();
    let len = 4 * llc / std::mem::size_of::<f64>();
    HostPeaks {
        peak_gflops: fma_gflops(),
        triad_gbs: triad_gbs(len),
        llc_mb: llc as f64 / MB,
        triad_array_mb: (len * std::mem::size_of::<f64>()) as f64 / MB,
    }
}

fn fma_gflops() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| black_box(fma_chains(FMA_ITERS)));
                }
            });
            let flops = 2.0 * (THREADS as u64 * FMA_ITERS * CHAINS as u64) as f64;
            flops / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

#[inline(never)]
fn fma_chains(iters: u64) -> f64 {
    let (a, b) = (black_box(0.999_999_9), black_box(1e-7));
    let mut acc = [0.0f64; CHAINS];
    for (i, x) in acc.iter_mut().enumerate() {
        *x = i as f64;
    }
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = x.mul_add(a, b);
        }
    }
    acc.iter().sum()
}

fn triad_gbs(len: usize) -> f64 {
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let scalar = black_box(3.0);
    let chunk = len.div_ceil(THREADS);
    (0..5)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                    s.spawn(move || {
                        for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                            *x = y + scalar * z;
                        }
                    });
                }
            });
            let secs = t.elapsed().as_secs_f64();
            black_box(&a);
            (3 * std::mem::size_of::<f64>() * len) as f64 / secs / 1e9
        })
        .fold(0.0, f64::max)
}

/// The largest level-3 cache cpu0 reports.
fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            if level.trim() != "3" {
                return None;
            }
            let size = size.trim();
            let (digits, scale) = match size.strip_suffix('K') {
                Some(d) => (d, 1 << 10),
                None => match size.strip_suffix('M') {
                    Some(d) => (d, 1 << 20),
                    None => (size, 1),
                },
            };
            digits.parse::<usize>().ok().map(|d| d * scale)
        })
        .max()
        .unwrap_or(FALLBACK_LLC_BYTES)
}
