//! Interaction kernels and direct (P2P) evaluation.
//!
//! The proxy application uses the single-layer Laplace kernel
//! `K(x, y) = 1/(4π‖x−y‖)`, which models electrostatic or gravitational
//! interactions.  The KIFMM is kernel-independent: everything downstream
//! only requires the ability to *evaluate* the kernel, which is the trait
//! boundary here.

use crate::p2p_opt::{p2p_soa_grad_view, p2p_soa_view, SoaView};
use dvfs_linalg::Matrix;

/// A translation-invariant interaction kernel.
pub trait Kernel: Sync {
    /// Evaluates `K(target, source)`.
    fn eval(&self, target: [f64; 3], source: [f64; 3]) -> f64;

    /// Gradient of `K` with respect to the *target*, `∇ₓK(x, y)`.
    ///
    /// The default central-difference fallback keeps the trait easy to
    /// implement for exploratory kernels; production kernels should
    /// override with the analytic form.
    fn eval_grad(&self, target: [f64; 3], source: [f64; 3]) -> [f64; 3] {
        let h = 1e-6;
        let mut g = [0.0; 3];
        for d in 0..3 {
            let mut plus = target;
            let mut minus = target;
            plus[d] += h;
            minus[d] -= h;
            g[d] = (self.eval(plus, source) - self.eval(minus, source)) / (2.0 * h);
        }
        g
    }

    /// Accumulates gradients: `out[i] += Σ_j ∇ₓK(targets[i], sources[j]) ·
    /// densities[j]` (for the Laplace kernel, `−out` is the field/force
    /// per unit density).
    fn p2p_grad(
        &self,
        targets: &[[f64; 3]],
        sources: &[[f64; 3]],
        densities: &[f64],
        out: &mut [[f64; 3]],
    ) {
        debug_assert_eq!(sources.len(), densities.len());
        debug_assert_eq!(targets.len(), out.len());
        for (i, &t) in targets.iter().enumerate() {
            let mut acc = [0.0; 3];
            for (j, &s) in sources.iter().enumerate() {
                let g = self.eval_grad(t, s);
                acc[0] += g[0] * densities[j];
                acc[1] += g[1] * densities[j];
                acc[2] += g[2] * densities[j];
            }
            out[i][0] += acc[0];
            out[i][1] += acc[1];
            out[i][2] += acc[2];
        }
    }

    /// Dense kernel matrix `K[i][j] = K(targets[i], sources[j])`.
    fn matrix(&self, targets: &[[f64; 3]], sources: &[[f64; 3]]) -> Matrix {
        Matrix::from_fn(targets.len(), sources.len(), |i, j| self.eval(targets[i], sources[j]))
    }

    /// Accumulates potentials: `out[i] += Σ_j K(targets[i], sources[j]) ·
    /// densities[j]`.
    fn p2p(&self, targets: &[[f64; 3]], sources: &[[f64; 3]], densities: &[f64], out: &mut [f64]) {
        debug_assert_eq!(sources.len(), densities.len());
        debug_assert_eq!(targets.len(), out.len());
        for (i, &t) in targets.iter().enumerate() {
            let mut acc = 0.0;
            for (j, &s) in sources.iter().enumerate() {
                acc += self.eval(t, s) * densities[j];
            }
            out[i] += acc;
        }
    }

    /// [`Kernel::p2p`] over a structure-of-arrays source range — the
    /// evaluator's near-field fast path.
    ///
    /// The default walks `eval` in the same order as `p2p`, so a kernel
    /// that overrides neither gets bit-identical results from both entry
    /// points; kernels with a tuned SoA inner loop (Laplace) override
    /// this with the lane-unrolled form ([`crate::p2p_opt`]): a
    /// `[f64; LANES]` accumulator per target fed by whole lane groups
    /// plus a scalar tail, reduced in a fixed order so the override is
    /// deterministic for any caller blocking.
    ///
    /// Both forms start each target's sum from `+0.0`, and under
    /// round-to-nearest `+0.0 + x` is `x` for every `x` but `−0.0`, which
    /// such a sum never is (`x + (−x)` is `+0.0`).  So the value added
    /// into a zeroed slot is exactly the value added onto any other: the
    /// step memo stores it and adds it later with the same bits.
    fn p2p_soa(&self, targets: &[[f64; 3]], sources: SoaView<'_>, out: &mut [f64]) {
        debug_assert_eq!(targets.len(), out.len());
        for (i, &t) in targets.iter().enumerate() {
            let mut acc = 0.0;
            for j in 0..sources.len() {
                let s = [sources.x[j], sources.y[j], sources.z[j]];
                acc += self.eval(t, s) * sources.q[j];
            }
            out[i] += acc;
        }
    }

    /// [`Kernel::p2p_grad`] over a structure-of-arrays source range.
    ///
    /// Same contract as [`Kernel::p2p_soa`]: the default matches the
    /// naive gradient loop exactly; Laplace overrides with the unrolled
    /// branch-free kernel.
    fn p2p_grad_soa(&self, targets: &[[f64; 3]], sources: SoaView<'_>, out: &mut [[f64; 3]]) {
        debug_assert_eq!(targets.len(), out.len());
        for (i, &t) in targets.iter().enumerate() {
            let mut acc = [0.0; 3];
            for j in 0..sources.len() {
                let s = [sources.x[j], sources.y[j], sources.z[j]];
                let g = self.eval_grad(t, s);
                acc[0] += g[0] * sources.q[j];
                acc[1] += g[1] * sources.q[j];
                acc[2] += g[2] * sources.q[j];
            }
            out[i][0] += acc[0];
            out[i][1] += acc[1];
            out[i][2] += acc[2];
        }
    }
}

/// The single-layer Laplace kernel `1/(4π r)`, with the self-interaction
/// (`r = 0`) defined as zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaplaceKernel;

impl Kernel for LaplaceKernel {
    #[inline]
    fn eval(&self, target: [f64; 3], source: [f64; 3]) -> f64 {
        let dx = target[0] - source[0];
        let dy = target[1] - source[1];
        let dz = target[2] - source[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            0.0
        } else {
            1.0 / (4.0 * std::f64::consts::PI * r2.sqrt())
        }
    }

    #[inline]
    fn eval_grad(&self, target: [f64; 3], source: [f64; 3]) -> [f64; 3] {
        // ∇ₓ 1/(4π|x−y|) = −(x−y)/(4π|x−y|³).
        let dx = target[0] - source[0];
        let dy = target[1] - source[1];
        let dz = target[2] - source[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            return [0.0; 3];
        }
        let inv = -1.0 / (4.0 * std::f64::consts::PI * r2 * r2.sqrt());
        [dx * inv, dy * inv, dz * inv]
    }

    fn p2p_soa(&self, targets: &[[f64; 3]], sources: SoaView<'_>, out: &mut [f64]) {
        p2p_soa_view(targets, sources, out);
    }

    fn p2p_grad_soa(&self, targets: &[[f64; 3]], sources: SoaView<'_>, out: &mut [[f64; 3]]) {
        p2p_soa_grad_view(targets, sources, out);
    }
}

/// The Yukawa (screened-Coulomb / modified-Helmholtz) kernel
/// `e^{-λr}/(4π r)`.
///
/// This is the "kernel-independent" part of KIFMM made concrete: the
/// scheme only ever *evaluates* the kernel, so swapping the physics —
/// here, exponential screening as in plasmas or electrolytes — requires
/// no new expansions, just this struct.
#[derive(Debug, Clone, Copy)]
pub struct YukawaKernel {
    /// Screening parameter λ (inverse screening length).
    pub lambda: f64,
}

impl YukawaKernel {
    /// Creates a Yukawa kernel with screening parameter `lambda >= 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda >= 0.0 && lambda.is_finite(), "screening must be non-negative");
        YukawaKernel { lambda }
    }
}

impl Kernel for YukawaKernel {
    #[inline]
    fn eval(&self, target: [f64; 3], source: [f64; 3]) -> f64 {
        let dx = target[0] - source[0];
        let dy = target[1] - source[1];
        let dz = target[2] - source[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            0.0
        } else {
            let r = r2.sqrt();
            (-self.lambda * r).exp() / (4.0 * std::f64::consts::PI * r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_distance_value() {
        let k = LaplaceKernel;
        let v = k.eval([0.0; 3], [1.0, 0.0, 0.0]);
        assert!((v - 1.0 / (4.0 * std::f64::consts::PI)).abs() < 1e-15);
    }

    #[test]
    fn self_interaction_is_zero() {
        let k = LaplaceKernel;
        assert_eq!(k.eval([0.3, 0.4, 0.5], [0.3, 0.4, 0.5]), 0.0);
    }

    #[test]
    fn symmetric_in_arguments() {
        let k = LaplaceKernel;
        let a = [0.1, 0.9, 0.2];
        let b = [0.7, 0.3, 0.8];
        assert_eq!(k.eval(a, b), k.eval(b, a));
    }

    #[test]
    fn decays_with_distance() {
        let k = LaplaceKernel;
        let near = k.eval([0.0; 3], [0.5, 0.0, 0.0]);
        let far = k.eval([0.0; 3], [5.0, 0.0, 0.0]);
        assert!((near / far - 10.0).abs() < 1e-12, "1/r decay");
    }

    #[test]
    fn matrix_matches_eval() {
        let k = LaplaceKernel;
        let t = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]];
        let s = [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]];
        let m = k.matrix(&t, &s);
        assert_eq!(m.shape(), (2, 3));
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], k.eval(t[i], s[j]));
            }
        }
    }

    #[test]
    fn yukawa_reduces_to_laplace_at_zero_screening() {
        let y = YukawaKernel::new(0.0);
        let l = LaplaceKernel;
        let a = [0.1, 0.2, 0.3];
        let b = [0.9, 0.5, 0.7];
        assert_eq!(y.eval(a, b), l.eval(a, b));
    }

    #[test]
    fn yukawa_decays_faster_than_laplace() {
        let y = YukawaKernel::new(2.0);
        let l = LaplaceKernel;
        let origin = [0.0; 3];
        let near = [0.5, 0.0, 0.0];
        let far = [5.0, 0.0, 0.0];
        let laplace_ratio = l.eval(origin, near) / l.eval(origin, far);
        let yukawa_ratio = y.eval(origin, near) / y.eval(origin, far);
        assert!(yukawa_ratio > laplace_ratio, "screening accelerates decay");
        assert_eq!(y.eval(origin, origin), 0.0);
    }

    #[test]
    #[should_panic(expected = "screening")]
    fn negative_screening_rejected() {
        let _ = YukawaKernel::new(-1.0);
    }

    #[test]
    fn default_soa_entry_point_matches_p2p_bitwise() {
        // A kernel that overrides neither path (Yukawa) must agree with
        // itself exactly, whichever entry point the evaluator uses.
        use crate::p2p_opt::SoaSources;
        let k = YukawaKernel::new(1.5);
        let t = [[0.1, 0.2, 0.3], [0.9, 0.8, 0.7], [0.5, 0.1, 0.6]];
        let s = [[0.3, 0.3, 0.3], [0.1, 0.2, 0.3], [0.7, 0.2, 0.9], [0.4, 0.6, 0.1]];
        let q = [1.0, -0.5, 0.25, 2.0];
        let soa = SoaSources::from_points(&s, &q);
        let mut aos = vec![0.0; 3];
        k.p2p(&t, &s, &q, &mut aos);
        let mut via_soa = vec![0.0; 3];
        k.p2p_soa(&t, soa.view(), &mut via_soa);
        assert_eq!(aos, via_soa);
        let mut aos_g = vec![[0.0; 3]; 3];
        k.p2p_grad(&t, &s, &q, &mut aos_g);
        let mut soa_g = vec![[0.0; 3]; 3];
        k.p2p_grad_soa(&t, soa.view(), &mut soa_g);
        assert_eq!(aos_g, soa_g);
    }

    #[test]
    fn p2p_superposition() {
        let k = LaplaceKernel;
        let t = [[0.0; 3]];
        let s = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]];
        let mut out = [1.0]; // accumulates on top of existing value
        k.p2p(&t, &s, &[2.0, 4.0], &mut out);
        let expected = 1.0 + 2.0 * k.eval(t[0], s[0]) + 4.0 * k.eval(t[0], s[1]);
        assert!((out[0] - expected).abs() < 1e-15);
    }
}
