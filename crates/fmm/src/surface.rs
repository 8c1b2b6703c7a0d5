//! KIFMM equivalent and check surfaces.
//!
//! The kernel-independent FMM represents far fields by single-layer
//! densities on cube surfaces around each box.  Surface points are the
//! boundary nodes of a regular `p × p × p` lattice — a *regular grid*,
//! which is precisely what lets the V-list M2L operator become a
//! convolution (see [`crate::fft_m2l`]).
//!
//! Radius conventions (in units of the box half-width), following the
//! standard KIFMM parameterization:
//!
//! * upward equivalent surface: `1.05` (just outside the box);
//! * upward check surface: `2.95` (just inside the far-field boundary);
//! * downward check surface: `1.05`;
//! * downward equivalent surface: `2.95`.
//!
//! These are exactly the margins that keep every U/V/W/X interaction on
//! the correct side of the relevant surface.

/// Upward-equivalent / downward-check surface radius (× half-width).
pub const RADIUS_INNER: f64 = 1.05;
/// Upward-check / downward-equivalent surface radius (× half-width).
pub const RADIUS_OUTER: f64 = 2.95;

/// Number of surface points for `p` nodes per cube edge.
pub fn surface_point_count(p: usize) -> usize {
    debug_assert!(p >= 2);
    p * p * p - (p - 2) * (p - 2) * (p - 2)
}

/// The boundary nodes of a `p³` lattice spanning the cube
/// `[center - r, center + r]³` where `r = radius_factor × half_width`.
///
/// Points are returned in lattice order: all `(i, j, k)` with at least
/// one index on the boundary, `i` slowest — an order [`crate::fft_m2l`]
/// depends on (it maps surface points back to lattice coordinates).
pub fn surface_points(
    p: usize,
    center: [f64; 3],
    half_width: f64,
    radius_factor: f64,
) -> Vec<[f64; 3]> {
    assert!(p >= 2, "need at least 2 nodes per edge");
    let r = radius_factor * half_width;
    let step = 2.0 * r / (p - 1) as f64;
    let mut out = Vec::with_capacity(surface_point_count(p));
    for i in 0..p {
        for j in 0..p {
            for k in 0..p {
                if i == 0 || i == p - 1 || j == 0 || j == p - 1 || k == 0 || k == p - 1 {
                    out.push([
                        center[0] - r + step * i as f64,
                        center[1] - r + step * j as f64,
                        center[2] - r + step * k as f64,
                    ]);
                }
            }
        }
    }
    out
}

/// A unit surface-point template, cached once per `(p, radius_factor)`
/// and scaled per box.
///
/// [`surface_points`] re-derives the full lattice geometry (three nested
/// loops plus a boundary test per lattice cell) on every call; the
/// evaluator used to pay that per node per phase.  The template stores
/// the surface points of the *unit* box (`center = 0`,
/// `half_width = 1`) once, after which a box's surface is the affine map
/// `center + half_width · unit` — a streaming multiply-add over exactly
/// `ns` points.
#[derive(Debug, Clone)]
pub struct SurfaceTemplate {
    /// Surface order.
    p: usize,
    /// Surface points of the unit box.
    unit: Vec<[f64; 3]>,
}

impl SurfaceTemplate {
    /// Builds the template for surface order `p` and `radius_factor`.
    pub fn new(p: usize, radius_factor: f64) -> Self {
        SurfaceTemplate { p, unit: surface_points(p, [0.0; 3], 1.0, radius_factor) }
    }

    /// Number of surface points.
    pub fn len(&self) -> usize {
        self.unit.len()
    }

    /// True when the template is empty (never for `p >= 2`).
    pub fn is_empty(&self) -> bool {
        self.unit.is_empty()
    }

    /// The surface order this template was built for.
    pub fn order(&self) -> usize {
        self.p
    }

    /// Writes the surface points of the box `(center, half_width)` into
    /// `out` (cleared first, allocation reused).
    pub fn scale_into(&self, center: [f64; 3], half_width: f64, out: &mut Vec<[f64; 3]>) {
        out.clear();
        out.reserve(self.unit.len());
        for u in &self.unit {
            out.push([
                center[0] + half_width * u[0],
                center[1] + half_width * u[1],
                center[2] + half_width * u[2],
            ]);
        }
    }
}

/// Lattice coordinates `(i, j, k)` of each surface point, in the same
/// order as [`surface_points`].
pub fn surface_lattice_coords(p: usize) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::with_capacity(surface_point_count(p));
    for i in 0..p {
        for j in 0..p {
            for k in 0..p {
                if i == 0 || i == p - 1 || j == 0 || j == p - 1 || k == 0 || k == p - 1 {
                    out.push((i, j, k));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_count_formula() {
        assert_eq!(surface_point_count(2), 8);
        assert_eq!(surface_point_count(4), 56);
        assert_eq!(surface_point_count(6), 152);
        for p in 2..8 {
            assert_eq!(surface_points(p, [0.0; 3], 1.0, 1.0).len(), surface_point_count(p));
        }
    }

    #[test]
    fn points_lie_on_cube_surface() {
        let pts = surface_points(5, [1.0, 2.0, 3.0], 0.5, RADIUS_INNER);
        let r = 0.5 * RADIUS_INNER;
        for p in &pts {
            let d = [(p[0] - 1.0).abs(), (p[1] - 2.0).abs(), (p[2] - 3.0).abs()];
            let max = d.iter().cloned().fold(0.0f64, f64::max);
            assert!((max - r).abs() < 1e-12, "on the cube boundary");
            assert!(d.iter().all(|&x| x <= r + 1e-12));
        }
    }

    #[test]
    fn lattice_coords_align_with_points() {
        let p = 4;
        let pts = surface_points(p, [0.0; 3], 1.0, 1.0);
        let coords = surface_lattice_coords(p);
        assert_eq!(pts.len(), coords.len());
        let step = 2.0 / 3.0;
        for (pt, &(i, j, k)) in pts.iter().zip(&coords) {
            assert!((pt[0] - (-1.0 + step * i as f64)).abs() < 1e-12);
            assert!((pt[1] - (-1.0 + step * j as f64)).abs() < 1e-12);
            assert!((pt[2] - (-1.0 + step * k as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn surfaces_nest_correctly() {
        // Inner surface strictly inside outer surface for any box.
        let inner = surface_points(4, [0.0; 3], 1.0, RADIUS_INNER);
        let outer_r = RADIUS_OUTER;
        for p in &inner {
            let max = p.iter().map(|x| x.abs()).fold(0.0f64, f64::max);
            assert!(max < outer_r);
        }
        assert!(RADIUS_INNER > 1.0, "equivalent surface is outside the box itself");
        assert!(RADIUS_OUTER < 3.0, "check surface inside the far-field boundary");
    }

    #[test]
    fn distinct_points() {
        let pts = surface_points(4, [0.0; 3], 1.0, 1.0);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                assert_ne!(pts[i], pts[j]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn degenerate_order_rejected() {
        let _ = surface_points(1, [0.0; 3], 1.0, 1.0);
    }
}
