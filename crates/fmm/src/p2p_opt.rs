//! Optimized direct-interaction (P2P) kernels.
//!
//! The paper's U-list phase is the compute-bound heart of the FMM, and
//! its implementation quality decides whether the phase sits near the
//! roofline (their GPU kernels are "highly tuned").  This module applies
//! the equivalent CPU tuning to the Laplace P2P:
//!
//! * structure-of-arrays source layout (contiguous x/y/z/q streams) so
//!   the compiler can vectorize the inner loop;
//! * a fused inner loop with no branches — the self-interaction guard is
//!   folded into the arithmetic by clamping `r²` away from zero and
//!   multiplying by a 0/1 mask;
//! * explicit array-of-[`LANES`] lane unrolling of the *source* loop:
//!   each target keeps a `[f64; LANES]` accumulator, source `j` lands in
//!   lane `j % LANES`, the vector body walks whole lane groups and a
//!   scalar tail finishes the last `len % LANES` sources in the same
//!   lanes.  Every arithmetic chain is a straight per-lane recurrence,
//!   so the autovectorizer emits packed `sqrt`/`div` instead of scalar
//!   chains.  The final reduction is the fixed pairwise tree of
//!   `lane_sum`, which makes the result a pure function of the source
//!   order — bitwise reproducible for any target blocking, thread
//!   count, or call-site split (the property tests pin this against a
//!   scalar lane-order reference).
//!
//! [`SoaSources`] holds one SoA copy of an entire (permuted) point set;
//! [`SoaView`] borrows the contiguous range a tree box owns, so the
//! evaluator converts the points *once per plan* instead of once per
//! interaction.  `p2p_soa` computes exactly what the naive kernel
//! computes (tests enforce bitwise-tolerance agreement) and
//! [`p2p_soa_grad`] does the same for the gradient kernel; the
//! `numerics` criterion bench measures the speedup.

/// A structure-of-arrays copy of a source point set.
#[derive(Debug, Clone, Default)]
pub struct SoaSources {
    /// x coordinates.
    pub x: Vec<f64>,
    /// y coordinates.
    pub y: Vec<f64>,
    /// z coordinates.
    pub z: Vec<f64>,
    /// densities.
    pub q: Vec<f64>,
}

impl SoaSources {
    /// Converts an AoS point slice + densities into SoA form.
    pub fn from_points(points: &[[f64; 3]], densities: &[f64]) -> Self {
        assert_eq!(points.len(), densities.len());
        let mut s = SoaSources {
            x: Vec::with_capacity(points.len()),
            y: Vec::with_capacity(points.len()),
            z: Vec::with_capacity(points.len()),
            q: Vec::with_capacity(points.len()),
        };
        for (p, &d) in points.iter().zip(densities) {
            s.x.push(p[0]);
            s.y.push(p[1]);
            s.z.push(p[2]);
            s.q.push(d);
        }
        s
    }

    /// An empty buffer with room for `cap` sources (scratch reuse).
    pub fn with_capacity(cap: usize) -> Self {
        SoaSources {
            x: Vec::with_capacity(cap),
            y: Vec::with_capacity(cap),
            z: Vec::with_capacity(cap),
            q: Vec::with_capacity(cap),
        }
    }

    /// Clears the buffer, keeping its allocations.
    pub fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.q.clear();
    }

    /// Appends one source.
    #[inline]
    pub fn push(&mut self, p: [f64; 3], q: f64) {
        self.x.push(p[0]);
        self.y.push(p[1]);
        self.z.push(p[2]);
        self.q.push(q);
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Borrows the whole set as a view.
    pub fn view(&self) -> SoaView<'_> {
        self.range(0, self.len())
    }

    /// Borrows the contiguous source range `[s, e)` — for the permuted
    /// tree layout this is exactly the points one box owns.
    pub fn range(&self, s: usize, e: usize) -> SoaView<'_> {
        SoaView { x: &self.x[s..e], y: &self.y[s..e], z: &self.z[s..e], q: &self.q[s..e] }
    }
}

/// A borrowed SoA source range (see [`SoaSources::range`]).
#[derive(Debug, Clone, Copy)]
pub struct SoaView<'a> {
    /// x coordinates.
    pub x: &'a [f64],
    /// y coordinates.
    pub y: &'a [f64],
    /// z coordinates.
    pub z: &'a [f64],
    /// densities.
    pub q: &'a [f64],
}

impl SoaView<'_> {
    /// Number of sources.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

const INV_4PI: f64 = 1.0 / (4.0 * std::f64::consts::PI);

/// SIMD lane width of the unrolled kernels: four f64 lanes (one AVX
/// register, two SSE registers).  Source `j` always accumulates into
/// lane `j % LANES`, in the vector body *and* in the scalar tail.
/// (Eight lanes measured *slower* here: the gradient kernel's 3×8
/// accumulators spill, and the divider/sqrt units are the bottleneck
/// anyway.)
pub const LANES: usize = 4;

/// One Laplace potential term, shared verbatim by the vector body and
/// the scalar tail so both produce identical bits for the same source.
#[inline(always)]
fn potential_term(tx: f64, ty: f64, tz: f64, sx: f64, sy: f64, sz: f64, qj: f64) -> f64 {
    let dx = tx - sx;
    let dy = ty - sy;
    let dz = tz - sz;
    let r2 = dx * dx + dy * dy + dz * dz;
    // Branch-free self-interaction guard: mask is 0.0 when r² == 0.
    let mask = if r2 > 0.0 { 1.0 } else { 0.0 };
    let safe = r2 + (1.0 - mask); // 1.0 where r² == 0: no NaN from rsqrt
    mask * qj / safe.sqrt()
}

/// Fixed-order pairwise lane reduction: `(a0 + a1) + (a2 + a3)`.
#[inline(always)]
fn lane_sum(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Laplace potential of `sources` at one target: explicit
/// array-of-[`LANES`] lane-unrolled source loop with a scalar tail.
#[inline]
fn potential_at(tx: f64, ty: f64, tz: f64, s: SoaView<'_>) -> f64 {
    let n = s.len();
    let body = n - n % LANES;
    let mut acc = [0.0f64; LANES];
    // `chunks_exact` gives the optimizer length-LANES slices with no
    // per-group bounds checks inside the lane loop.
    let xs = s.x[..body].chunks_exact(LANES);
    let ys = s.y[..body].chunks_exact(LANES);
    let zs = s.z[..body].chunks_exact(LANES);
    let qs = s.q[..body].chunks_exact(LANES);
    for (((sx, sy), sz), sq) in xs.zip(ys).zip(zs).zip(qs) {
        for l in 0..LANES {
            acc[l] += potential_term(tx, ty, tz, sx[l], sy[l], sz[l], sq[l]);
        }
    }
    for j in body..n {
        // Tail sources stay in their home lane `j % LANES == j - body`.
        acc[j - body] += potential_term(tx, ty, tz, s.x[j], s.y[j], s.z[j], s.q[j]);
    }
    lane_sum(acc) * INV_4PI
}

/// Optimized Laplace P2P: `out[i] += Σ_j K(targets[i], sources_j) q_j`.
///
/// Each target owns a `[f64; LANES]` accumulator over the lane-unrolled
/// source loop; the per-target result is independent of target blocking.
pub fn p2p_soa(targets: &[[f64; 3]], sources: &SoaSources, out: &mut [f64]) {
    p2p_soa_view(targets, sources.view(), out);
}

/// [`p2p_soa`] over a borrowed source range.
pub fn p2p_soa_view(targets: &[[f64; 3]], sources: SoaView<'_>, out: &mut [f64]) {
    assert_eq!(targets.len(), out.len());
    for (k, t) in targets.iter().enumerate() {
        out[k] += potential_at(t[0], t[1], t[2], sources);
    }
}

/// One Laplace gradient weight `w = −q·mask/r³` (see [`gradient_at`]),
/// shared verbatim by the vector body and the scalar tail.
#[inline(always)]
fn gradient_term(
    tx: f64,
    ty: f64,
    tz: f64,
    sx: f64,
    sy: f64,
    sz: f64,
    qj: f64,
) -> (f64, f64, f64, f64) {
    let dx = tx - sx;
    let dy = ty - sy;
    let dz = tz - sz;
    let r2 = dx * dx + dy * dy + dz * dz;
    let mask = if r2 > 0.0 { 1.0 } else { 0.0 };
    let safe = r2 + (1.0 - mask);
    // −q/r³ = −q / (r² · r); the mask zeroes the whole contribution.
    let w = -mask * qj / (safe * safe.sqrt());
    (dx, dy, dz, w)
}

/// Laplace gradient of `sources` at one target, lane-unrolled form:
/// `∇ₓ 1/(4π|x−y|) = −(x−y)/(4π|x−y|³)`, zero at `r = 0`.  Keeps one
/// `[f64; LANES]` accumulator per component.
#[inline]
fn gradient_at(tx: f64, ty: f64, tz: f64, s: SoaView<'_>) -> [f64; 3] {
    let n = s.len();
    let body = n - n % LANES;
    let mut gx = [0.0f64; LANES];
    let mut gy = [0.0f64; LANES];
    let mut gz = [0.0f64; LANES];
    let xs = s.x[..body].chunks_exact(LANES);
    let ys = s.y[..body].chunks_exact(LANES);
    let zs = s.z[..body].chunks_exact(LANES);
    let qs = s.q[..body].chunks_exact(LANES);
    for (((sx, sy), sz), sq) in xs.zip(ys).zip(zs).zip(qs) {
        for l in 0..LANES {
            let (dx, dy, dz, w) = gradient_term(tx, ty, tz, sx[l], sy[l], sz[l], sq[l]);
            gx[l] += dx * w;
            gy[l] += dy * w;
            gz[l] += dz * w;
        }
    }
    for j in body..n {
        let l = j - body; // == j % LANES: tail sources keep their lane
        let (dx, dy, dz, w) = gradient_term(tx, ty, tz, s.x[j], s.y[j], s.z[j], s.q[j]);
        gx[l] += dx * w;
        gy[l] += dy * w;
        gz[l] += dz * w;
    }
    [lane_sum(gx) * INV_4PI, lane_sum(gy) * INV_4PI, lane_sum(gz) * INV_4PI]
}

/// Optimized Laplace gradient P2P:
/// `out[i] += Σ_j ∇ₓK(targets[i], sources_j) q_j`, the vectorized
/// counterpart of [`crate::kernel::Kernel::p2p_grad`] for the Laplace
/// kernel (tests enforce bitwise-tolerance agreement with the naive
/// form).
pub fn p2p_soa_grad(targets: &[[f64; 3]], sources: &SoaSources, out: &mut [[f64; 3]]) {
    p2p_soa_grad_view(targets, sources.view(), out);
}

/// [`p2p_soa_grad`] over a borrowed source range.
pub fn p2p_soa_grad_view(targets: &[[f64; 3]], sources: SoaView<'_>, out: &mut [[f64; 3]]) {
    assert_eq!(targets.len(), out.len());
    for (k, t) in targets.iter().enumerate() {
        let g = gradient_at(t[0], t[1], t[2], sources);
        out[k][0] += g[0];
        out[k][1] += g[1];
        out[k][2] += g[2];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, LaplaceKernel};
    use compat::rng::StdRng;

    fn problem(nt: usize, ns: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<[f64; 3]>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = (0..nt).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
        let s: Vec<[f64; 3]> =
            (0..ns).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
        let q = (0..ns).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
        (t, s, q)
    }

    #[test]
    fn matches_naive_kernel_exactly() {
        for (nt, ns) in [(1usize, 1usize), (3, 7), (64, 64), (129, 200)] {
            let (t, s, q) = problem(nt, ns, nt as u64 * 31 + ns as u64);
            let soa = SoaSources::from_points(&s, &q);
            let mut fast = vec![0.0; nt];
            p2p_soa(&t, &soa, &mut fast);
            let mut slow = vec![0.0; nt];
            LaplaceKernel.p2p(&t, &s, &q, &mut slow);
            for (f, n) in fast.iter().zip(&slow) {
                assert!((f - n).abs() <= 1e-13 * (1.0 + n.abs()), "nt={nt} ns={ns}: {f} vs {n}");
            }
        }
    }

    #[test]
    fn grad_matches_naive_kernel_exactly() {
        for (nt, ns) in [(1usize, 1usize), (2, 5), (63, 64), (130, 200)] {
            let (t, s, q) = problem(nt, ns, nt as u64 * 97 + ns as u64 + 1);
            let soa = SoaSources::from_points(&s, &q);
            let mut fast = vec![[0.0; 3]; nt];
            p2p_soa_grad(&t, &soa, &mut fast);
            let mut slow = vec![[0.0; 3]; nt];
            LaplaceKernel.p2p_grad(&t, &s, &q, &mut slow);
            for (i, (f, n)) in fast.iter().zip(&slow).enumerate() {
                for d in 0..3 {
                    assert!(
                        (f[d] - n[d]).abs() <= 1e-12 * (1.0 + n[d].abs()),
                        "nt={nt} ns={ns} target {i} component {d}: {} vs {}",
                        f[d],
                        n[d]
                    );
                }
            }
        }
    }

    #[test]
    fn grad_masks_self_interaction() {
        let pts = [[0.3, 0.3, 0.3], [0.7, 0.7, 0.7], [0.1, 0.9, 0.4]];
        let soa = SoaSources::from_points(&pts, &[5.0, 3.0, -2.0]);
        let mut out = vec![[0.0; 3]; 3];
        p2p_soa_grad(&pts, &soa, &mut out);
        assert!(out.iter().flatten().all(|v| v.is_finite()));
        let mut reference = vec![[0.0; 3]; 3];
        LaplaceKernel.p2p_grad(&pts, &pts, &[5.0, 3.0, -2.0], &mut reference);
        for (a, b) in out.iter().zip(&reference) {
            for d in 0..3 {
                assert!((a[d] - b[d]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn view_range_equals_subslice_conversion() {
        let (_, s, q) = problem(0, 40, 9);
        let soa = SoaSources::from_points(&s, &q);
        let t = [[0.25, 0.5, 0.75], [0.9, 0.1, 0.2], [0.4, 0.4, 0.6]];
        let mut via_range = vec![0.0; 3];
        p2p_soa_view(&t, soa.range(10, 30), &mut via_range);
        let sub = SoaSources::from_points(&s[10..30], &q[10..30]);
        let mut via_copy = vec![0.0; 3];
        p2p_soa(&t, &sub, &mut via_copy);
        assert_eq!(via_range, via_copy, "a range view is the subset, bit for bit");
    }

    #[test]
    fn self_interaction_masked_without_branch_divergence() {
        // Coincident target/source must contribute zero, not NaN.
        let pts = [[0.3, 0.3, 0.3], [0.7, 0.7, 0.7]];
        let soa = SoaSources::from_points(&pts, &[5.0, 3.0]);
        let mut out = vec![0.0; 2];
        p2p_soa(&pts, &soa, &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
        let k = LaplaceKernel;
        let expected0 = 3.0 * k.eval(pts[0], pts[1]);
        assert!((out[0] - expected0).abs() < 1e-14);
    }

    #[test]
    fn accumulates_on_top_of_existing_values() {
        let (t, s, q) = problem(8, 8, 5);
        let soa = SoaSources::from_points(&s, &q);
        let mut out = vec![1.5; 8];
        p2p_soa(&t, &soa, &mut out);
        let mut reference = vec![0.0; 8];
        LaplaceKernel.p2p(&t, &s, &q, &mut reference);
        for (o, r) in out.iter().zip(&reference) {
            assert!((o - 1.5 - r).abs() < 1e-13);
        }
    }

    #[test]
    fn empty_sources_are_a_noop() {
        let soa = SoaSources::default();
        assert!(soa.is_empty());
        let t = [[0.1, 0.2, 0.3]];
        let mut out = vec![7.0];
        p2p_soa(&t, &soa, &mut out);
        assert_eq!(out[0], 7.0);
        let mut grad = vec![[1.0; 3]];
        p2p_soa_grad(&t, &soa, &mut grad);
        assert_eq!(grad[0], [1.0; 3]);
    }

    use compat::prop::prelude::*;

    /// Scalar emulation of the lane-unrolled potential: walks sources
    /// one at a time, accumulating source `j` into lane `j % LANES`,
    /// then reduces with the same fixed tree.  The kernel must match
    /// this bit for bit regardless of how its vector body and scalar
    /// tail split the source range.
    fn scalar_lane_potential(t: [f64; 3], s: &SoaSources) -> f64 {
        let mut acc = [0.0f64; LANES];
        for j in 0..s.len() {
            acc[j % LANES] += potential_term(t[0], t[1], t[2], s.x[j], s.y[j], s.z[j], s.q[j]);
        }
        lane_sum(acc) * INV_4PI
    }

    /// Scalar emulation of the lane-unrolled gradient (see
    /// [`scalar_lane_potential`]).
    fn scalar_lane_gradient(t: [f64; 3], s: &SoaSources) -> [f64; 3] {
        let mut gx = [0.0f64; LANES];
        let mut gy = [0.0f64; LANES];
        let mut gz = [0.0f64; LANES];
        for j in 0..s.len() {
            let l = j % LANES;
            let (dx, dy, dz, w) = gradient_term(t[0], t[1], t[2], s.x[j], s.y[j], s.z[j], s.q[j]);
            gx[l] += dx * w;
            gy[l] += dy * w;
            gz[l] += dz * w;
        }
        [lane_sum(gx) * INV_4PI, lane_sum(gy) * INV_4PI, lane_sum(gz) * INV_4PI]
    }

    #[test]
    fn tail_lengths_match_scalar_lane_reference_bitwise() {
        // Every source count around the lane width, including every
        // tail residue and the empty set.
        for ns in 0usize..=33 {
            let (t, s, q) = problem(5, ns, 1000 + ns as u64);
            let soa = SoaSources::from_points(&s, &q);
            let mut fast = vec![0.0; t.len()];
            p2p_soa(&t, &soa, &mut fast);
            let mut fast_g = vec![[0.0; 3]; t.len()];
            p2p_soa_grad(&t, &soa, &mut fast_g);
            for (k, tk) in t.iter().enumerate() {
                let want = scalar_lane_potential(*tk, &soa);
                assert_eq!(fast[k].to_bits(), want.to_bits(), "ns={ns} target {k}");
                let want_g = scalar_lane_gradient(*tk, &soa);
                for d in 0..3 {
                    assert_eq!(
                        fast_g[k][d].to_bits(),
                        want_g[d].to_bits(),
                        "ns={ns} target {k} component {d}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lane_unrolled_kernels_match_scalar_reference_across_threads(
            ns in 1usize..48,
            nt in 1usize..7,
            seed in 0u64..1_000_000,
        ) {
            let (t, s, q) = problem(nt, ns, seed);
            let soa = SoaSources::from_points(&s, &q);
            let mut want = vec![0.0; nt];
            let mut want_g = vec![[0.0; 3]; nt];
            for (k, tk) in t.iter().enumerate() {
                want[k] = scalar_lane_potential(*tk, &soa);
                want_g[k] = scalar_lane_gradient(*tk, &soa);
            }
            // The kernels are single-threaded inner loops; pinning them
            // under every pool size documents that the pool (and any
            // parallel caller chunking) cannot perturb the bits.
            for threads in [1usize, 2, 4, 8] {
                compat::par::set_thread_count(Some(threads));
                let mut fast = vec![0.0; nt];
                p2p_soa(&t, &soa, &mut fast);
                let mut fast_g = vec![[0.0; 3]; nt];
                p2p_soa_grad(&t, &soa, &mut fast_g);
                for k in 0..nt {
                    prop_assert_eq!(
                        fast[k].to_bits(),
                        want[k].to_bits(),
                        "threads={} ns={} target {}",
                        threads,
                        ns,
                        k
                    );
                    for d in 0..3 {
                        prop_assert_eq!(
                            fast_g[k][d].to_bits(),
                            want_g[k][d].to_bits(),
                            "threads={} ns={} target {} component {}",
                            threads,
                            ns,
                            k,
                            d
                        );
                    }
                }
            }
            compat::par::set_thread_count(None);
        }
    }

    #[test]
    fn soa_conversion_preserves_order() {
        let pts = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]];
        let soa = SoaSources::from_points(&pts, &[0.5, 0.25]);
        assert_eq!(soa.len(), 2);
        assert_eq!(soa.x, vec![1.0, 4.0]);
        assert_eq!(soa.y, vec![2.0, 5.0]);
        assert_eq!(soa.z, vec![3.0, 6.0]);
        assert_eq!(soa.q, vec![0.5, 0.25]);
    }

    #[test]
    fn push_and_clear_reuse_scratch() {
        let mut soa = SoaSources::with_capacity(4);
        soa.push([1.0, 2.0, 3.0], 0.5);
        soa.push([4.0, 5.0, 6.0], 0.25);
        assert_eq!(soa.len(), 2);
        let from = SoaSources::from_points(&[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], &[0.5, 0.25]);
        assert_eq!(soa.x, from.x);
        assert_eq!(soa.q, from.q);
        soa.clear();
        assert!(soa.is_empty());
    }
}
