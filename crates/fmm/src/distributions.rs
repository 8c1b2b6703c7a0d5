//! Particle distributions for n-body experiments.
//!
//! The paper's evaluation uses uniformly distributed points; the FMM
//! literature exercises adaptivity with highly non-uniform ones.  These
//! generators cover both regimes (all seeded and deterministic):
//!
//! * [`uniform_cube`] — the paper's setup.
//! * [`plummer`] — the Plummer model, the standard astrophysical cluster
//!   profile (`ρ ∝ (1 + r²/a²)^{-5/2}`), radially heavy-tailed.
//! * [`two_clusters`] — a bimodal merger scene.

use compat::rng::StdRng;

/// Uniform points in the unit cube `[0, 1]³`.
pub fn uniform_cube(n: usize, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect()
}

/// The Plummer model with scale radius `a`, clipped into the unit cube
/// around (½, ½, ½).
pub fn plummer(n: usize, a: f64, seed: u64) -> Vec<[f64; 3]> {
    assert!(a > 0.0, "scale radius must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Inverse-CDF sampling of the Plummer radial profile:
        // r = a (u^{-2/3} − 1)^{-1/2}.
        let u: f64 = rng.random();
        if u <= f64::MIN_POSITIVE {
            continue;
        }
        let r = a / (u.powf(-2.0 / 3.0) - 1.0).sqrt();
        if !r.is_finite() || r > 0.5 {
            continue; // clip the heavy tail into the cube
        }
        let dir = gaussian_direction(&mut rng);
        out.push([0.5 + r * dir[0], 0.5 + r * dir[1], 0.5 + r * dir[2]]);
    }
    out
}

/// Two Gaussian blobs of `n/2` points each at opposite corners.
pub fn two_clusters(n: usize, sigma: f64, seed: u64) -> Vec<[f64; 3]> {
    assert!(sigma > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let noise = |rng: &mut StdRng| -> f64 {
        // Box–Muller.
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    (0..n)
        .map(|i| {
            let center = if i % 2 == 0 { 0.25 } else { 0.75 };
            [
                (center + sigma * noise(&mut rng)).clamp(0.0, 1.0),
                (center + sigma * noise(&mut rng)).clamp(0.0, 1.0),
                (center + sigma * noise(&mut rng)).clamp(0.0, 1.0),
            ]
        })
        .collect()
}

fn gaussian_direction(rng: &mut StdRng) -> [f64; 3] {
    loop {
        let mut v = [0.0f64; 3];
        for x in &mut v {
            let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.random();
            *x = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
        let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        if norm > 1e-12 {
            return [v[0] / norm, v[1] / norm, v[2] / norm];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Octree;

    /// Uniform points in the ball of radius ½ centered at (½, ½, ½).
    fn uniform_ball(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Direction from a Gaussian triple, radius via cube-root law.
                let dir = gaussian_direction(&mut rng);
                let r = 0.5 * rng.random::<f64>().cbrt();
                [0.5 + r * dir[0], 0.5 + r * dir[1], 0.5 + r * dir[2]]
            })
            .collect()
    }

    /// Points on the sphere of radius ½ centered at (½, ½, ½), with a
    /// relative shell thickness: every octree box along the surface
    /// splits deeply while the interior stays empty, the classic
    /// adaptive stress case.
    fn sphere_surface(n: usize, thickness: f64, seed: u64) -> Vec<[f64; 3]> {
        assert!((0.0..1.0).contains(&thickness), "thickness is a small fraction");
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let dir = gaussian_direction(&mut rng);
                let r = 0.5 * (1.0 - thickness * rng.random::<f64>());
                [0.5 + r * dir[0], 0.5 + r * dir[1], 0.5 + r * dir[2]]
            })
            .collect()
    }

    #[test]
    fn all_generators_fill_the_unit_cube() {
        for pts in [
            uniform_cube(500, 1),
            uniform_ball(500, 2),
            sphere_surface(500, 0.01, 3),
            plummer(500, 0.05, 4),
            two_clusters(500, 0.03, 5),
        ] {
            assert_eq!(pts.len(), 500);
            for p in &pts {
                for d in 0..3 {
                    assert!((0.0..=1.0).contains(&p[d]), "{p:?} escapes the cube");
                }
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform_cube(64, 9), uniform_cube(64, 9));
        assert_eq!(plummer(64, 0.1, 9), plummer(64, 0.1, 9));
        assert_ne!(uniform_cube(64, 9), uniform_cube(64, 10));
    }

    #[test]
    fn ball_points_stay_in_the_ball() {
        for p in uniform_ball(2000, 7) {
            let r2 = (p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2);
            assert!(r2 <= 0.25 + 1e-12);
        }
    }

    #[test]
    fn sphere_points_sit_on_the_shell() {
        for p in sphere_surface(2000, 0.01, 8) {
            let r = ((p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2)).sqrt();
            assert!(r <= 0.5 + 1e-12 && r >= 0.5 * 0.99 - 1e-12, "r = {r}");
        }
    }

    #[test]
    fn plummer_is_centrally_concentrated() {
        let pts = plummer(4000, 0.05, 11);
        let inner = pts
            .iter()
            .filter(|p| {
                (p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2) + (p[2] - 0.5).powi(2) < 0.1 * 0.1
            })
            .count();
        assert!(inner > pts.len() / 2, "most mass inside 2a: {inner}/{}", pts.len());
    }

    #[test]
    fn nonuniform_distributions_build_deeper_trees_than_uniform() {
        let n = 4000;
        let q = 32;
        let depth = |pts: &[[f64; 3]]| Octree::build(pts, &vec![1.0; pts.len()], q).depth();
        let uniform_depth = depth(&uniform_cube(n, 21));
        let plummer_depth = depth(&plummer(n, 0.02, 21));
        let sphere_depth = depth(&sphere_surface(n, 0.005, 21));
        assert!(plummer_depth > uniform_depth, "{plummer_depth} vs {uniform_depth}");
        assert!(sphere_depth >= uniform_depth);
    }

    #[test]
    fn fmm_stays_accurate_on_every_distribution() {
        use crate::accuracy::{direct_sum, relative_l2_error};
        use crate::evaluator::{FmmEvaluator, FmmPlan, M2lMethod};
        for (name, pts) in [
            ("ball", uniform_ball(900, 31)),
            ("sphere", sphere_surface(900, 0.01, 32)),
            ("plummer", plummer(900, 0.05, 33)),
            ("clusters", two_clusters(900, 0.02, 34)),
        ] {
            let den: Vec<f64> = (0..pts.len()).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
            let plan = FmmPlan::new(&pts, &den, 32, 4, M2lMethod::Fft);
            let fmm = FmmEvaluator::new().evaluate(&plan);
            let reference = direct_sum(&pts, &den);
            let err = relative_l2_error(&fmm, &reference);
            assert!(err < 1e-2, "{name}: relative L2 error {err}");
        }
    }

    #[test]
    #[should_panic(expected = "thickness")]
    fn bad_thickness_rejected() {
        let _ = sphere_surface(10, 1.5, 0);
    }
}
