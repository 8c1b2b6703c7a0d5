//! Thread-scaling measurement grid for the FMM evaluation engine.
//!
//! One `(n, threads)` grid drives both the `repro fmm-scaling` table
//! and the `BENCH_fmm.json` it writes with `--out`, so the two can
//! never disagree about what was measured.  For each
//! problem size the plan (tree, lists, operators) is built **once** and
//! evaluated under every pool width; alongside the phase medians each
//! case records a digest folded from the raw potential bits, which makes
//! the engine's bitwise thread-invariance checkable from the artifact
//! alone — equal digests across a size's rows *are* the reproducibility
//! claim.
//!
//! The `threads` recorded per case is the **requested** pool width:
//! [`compat::par::num_threads`] returns the override set here as is, and
//! each parallel region splits into that many chunks, run by the calling
//! thread and as many pool workers as the rest need (at most
//! [`compat::par::MAX_POOL_WORKERS`]), whatever the machine's core
//! count.  On a 2-core host the 4- and 8-wide rows therefore time-share
//! two cores; the record does not say how many cores the run had.

use compat::par;
use compat::rng::StdRng;
use kifmm::evaluator::{FmmPlan, M2lMethod};
use kifmm::{FmmEvaluator, PhaseTimings};

/// Pool widths measured by default: the paper's 1/2/4 core sweep plus
/// an 8-way point for SMT/headroom.
pub const DEFAULT_THREAD_GRID: [usize; 4] = [1, 2, 4, 8];

/// Problem sizes `repro fmm-scaling` measures by default; the committed
/// `BENCH_fmm.json` adds `262_144` and `1_048_576` through `--sizes`.
pub const DEFAULT_SIZES: [usize; 2] = [8_192, 32_768];

/// One measured `(n, threads)` grid point.
#[derive(Debug, Clone)]
pub struct ScalingCase {
    /// Problem size.
    pub n: usize,
    /// Requested pool width the case ran at (chunks per parallel
    /// region), not a count of the machine's cores.
    pub threads: usize,
    /// Timed repetitions behind each median.
    pub reps: usize,
    /// Per-phase median seconds (up, v, x, down, near).
    pub phase_medians_s: [f64; 5],
    /// Median total evaluation seconds.
    pub evaluate_median_s: f64,
    /// FNV-1a fold of the output potentials' bit patterns; identical
    /// across rows of the same `n` iff the engine is thread-invariant.
    pub digest: u64,
}

/// The standard uniform-cube benchmark problem (matches the committed
/// snapshot and the `fmm_phases` criterion bench).
pub fn cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
    let den = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
    (pts, den)
}

/// FNV-1a over the bit patterns of `potentials` — order-sensitive, so
/// it pins both values and their layout.
pub fn potential_digest(potentials: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for p in potentials {
        for b in p.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Measures the full `sizes × threads` grid.  The plan is built once
/// per size (under the first requested width, which also exercises the
/// parallel tree build); each width then gets one warm-up evaluation
/// (pool spin-up, arena touch, schedule build) before `reps` timed
/// runs.  The pool override is restored to its entry state on return.
pub fn scaling_grid(
    sizes: &[usize],
    threads: &[usize],
    reps: usize,
    seed: u64,
) -> Vec<ScalingCase> {
    let mut cases = Vec::with_capacity(sizes.len() * threads.len());
    for &n in sizes {
        let (pts, den) = cloud(n, seed);
        let mut plan: Option<FmmPlan> = None;
        for &t in threads {
            par::set_thread_count(Some(t));
            let width = par::num_threads();
            let plan = plan.get_or_insert_with(|| FmmPlan::new(&pts, &den, 64, 4, M2lMethod::Fft));
            let eval = FmmEvaluator::new();
            let warm = eval.evaluate(plan);
            let mut runs: Vec<PhaseTimings> = Vec::with_capacity(reps);
            for _ in 0..reps {
                let (_, timings) = eval.evaluate_timed(plan);
                runs.push(timings);
            }
            let med = |f: fn(&PhaseTimings) -> f64| {
                let mut xs: Vec<f64> = runs.iter().map(f).collect();
                median(&mut xs)
            };
            cases.push(ScalingCase {
                n,
                threads: width,
                reps,
                phase_medians_s: [
                    med(|t| t.up_s),
                    med(|t| t.v_s),
                    med(|t| t.x_s),
                    med(|t| t.down_s),
                    med(|t| t.near_s),
                ],
                evaluate_median_s: med(|t| t.total_s),
                digest: potential_digest(&warm),
            });
        }
    }
    par::set_thread_count(None);
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let a = potential_digest(&[1.0, 2.0, 3.0]);
        assert_eq!(a, potential_digest(&[1.0, 2.0, 3.0]));
        assert_ne!(a, potential_digest(&[2.0, 1.0, 3.0]), "order matters");
        assert_ne!(a, potential_digest(&[1.0, 2.0]), "length matters");
        assert_ne!(potential_digest(&[0.0]), potential_digest(&[-0.0]), "bit patterns, not values");
    }

    #[test]
    fn grid_covers_every_point_and_digests_agree_per_size() {
        let cases = scaling_grid(&[600], &[1, 2], 1, 3);
        assert_eq!(cases.len(), 2);
        assert!(cases.iter().all(|c| c.n == 600 && c.reps == 1));
        assert_eq!(cases[0].threads, 1);
        assert!(cases.iter().all(|c| c.evaluate_median_s > 0.0));
        assert_eq!(cases[0].digest, cases[1].digest, "potentials bitwise identical across widths");
        assert_eq!(par::num_threads(), par::num_threads(), "override restored");
    }
}
