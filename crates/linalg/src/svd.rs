//! One-sided Jacobi singular value decomposition.
//!
//! Computes the thin SVD `A = U Σ Vᵀ` of an `m x n` matrix (`m >= n`; wide
//! matrices are handled by transposition in [`crate::pinv`]).  One-sided
//! Jacobi orthogonalizes the columns of a working copy of `A` by repeated
//! plane rotations; it is slow for large matrices but extremely accurate for
//! the small kernel matrices the KIFMM needs (high relative accuracy even
//! for tiny singular values, which matters because equivalent-density
//! systems are severely ill-conditioned).
//!
//! Every rotation touches two whole columns, so the working copies of `U`
//! and `V` are kept column-major: the Gram sums and rotations stream over
//! contiguous slices (the rotations vectorize), while each Gram sum still
//! accumulates in row order.  The arithmetic is therefore the classic
//! row-major loop's operation for operation, and the results are bitwise
//! identical to it — the unit tests pin that against a row-major
//! reference.  Non-finite input is rejected up front with
//! [`LinalgError::NonFinite`].

use crate::{LinalgError, Matrix, Result};

/// Thin singular value decomposition.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m x n`.
    pub u: Matrix,
    /// Singular values, descending, length `n`.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n x n` (the matrix `V`, not `Vᵀ`).
    pub v: Matrix,
}

/// Sweep budget of the Jacobi iteration.
const MAX_SWEEPS: usize = 60;
/// Relative off-diagonal Gram tolerance that ends the iteration.
const TOL: f64 = 1e-14;

/// Borrows columns `p < q` of a column-major `len`-row buffer mutably.
fn column_pair(cols: &mut [f64], len: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (left, right) = cols.split_at_mut(q * len);
    (&mut left[p * len..(p + 1) * len], &mut right[..len])
}

/// Applies the plane rotation `(c, s)` to the column pair `(xp, xq)`.
#[inline]
fn rotate(xp: &mut [f64], xq: &mut [f64], c: f64, s: f64) {
    for (a, b) in xp.iter_mut().zip(xq.iter_mut()) {
        let (ap, aq) = (*a, *b);
        *a = c * ap - s * aq;
        *b = s * ap + c * aq;
    }
}

/// Gathers the columns `order` of a column-major `rows`-row buffer into a
/// row-major matrix.
fn gather_columns(cols: &[f64], rows: usize, order: &[usize]) -> Matrix {
    Matrix::from_fn(rows, order.len(), |i, j| cols[order[j] * rows + i])
}

impl Svd {
    /// Computes the thin SVD of `a` (`rows >= cols` required).
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                context: "svd (requires rows >= cols; transpose first)",
                expected: (n, n),
                found: (m, n),
            });
        }
        if a.as_slice().iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite("svd"));
        }
        // Column-major working copies: column j is `u[j*m..(j+1)*m]`.
        let mut u = vec![0.0; m * n];
        for i in 0..m {
            for (j, &x) in a.row(i).iter().enumerate() {
                u[j * m + i] = x;
            }
        }
        let mut v = vec![0.0; n * n];
        for j in 0..n {
            v[j * n + j] = 1.0;
        }
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    let (up, uq) = column_pair(&mut u, m, p, q);
                    // Gram entries over columns p, q.
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for (&x, &y) in up.iter().zip(uq.iter()) {
                        app += x * x;
                        aqq += y * y;
                        apq += x * y;
                    }
                    if apq.abs() <= TOL * (app * aqq).sqrt() {
                        continue;
                    }
                    off = off.max(apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                    // Jacobi rotation that annihilates the (p,q) Gram entry.
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    rotate(up, uq, c, s);
                    let (vp, vq) = column_pair(&mut v, n, p, q);
                    rotate(vp, vq, c, s);
                }
            }
            if off <= TOL {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(LinalgError::NoConvergence { routine: "svd", iterations: MAX_SWEEPS });
        }
        // Column norms are the singular values; normalize U's columns.
        let sigma: Vec<f64> = (0..n).map(|j| crate::norm2(&u[j * m..(j + 1) * m])).collect();
        for (j, &s) in sigma.iter().enumerate() {
            if s > 0.0 {
                for x in &mut u[j * m..(j + 1) * m] {
                    *x /= s;
                }
            }
        }
        // Sort descending, permuting U and V consistently.  `sigma` is
        // finite and non-negative here, where `total_cmp` agrees with
        // the numeric order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| sigma[b].total_cmp(&sigma[a]));
        Ok(Svd {
            u: gather_columns(&u, m, &order),
            sigma: order.iter().map(|&j| sigma[j]).collect(),
            v: gather_columns(&v, n, &order),
        })
    }

    /// Numerical rank at relative threshold `rtol` (relative to σ₁).
    pub fn rank(&self, rtol: f64) -> usize {
        let s0 = self.sigma.first().copied().unwrap_or(0.0);
        self.sigma.iter().filter(|&&s| s > rtol * s0).count()
    }

    /// 2-norm condition number σ₁/σₙ (∞ if rank-deficient).
    pub fn condition_number(&self) -> f64 {
        match (self.sigma.first(), self.sigma.last()) {
            (Some(&s1), Some(&sn)) if sn > 0.0 => s1 / sn,
            _ => f64::INFINITY,
        }
    }

    /// Reconstructs `A = U Σ Vᵀ` (for testing / diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let mut usig = self.u.clone();
        for j in 0..self.sigma.len() {
            for i in 0..usig.rows() {
                usig[(i, j)] *= self.sigma[j];
            }
        }
        usig.matmul(&self.v.transpose()).expect("shape ok")
    }
}

/// Convenience: just the singular values of `a`, descending.
pub fn singular_values(a: &Matrix) -> Result<Vec<f64>> {
    let (m, n) = a.shape();
    let work = if m >= n { a.clone() } else { a.transpose() };
    Ok(Svd::new(&work)?.sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pseudo_inverse;
    use compat::prop::prelude::*;

    /// The classic one-sided Jacobi loop over the row-major `Matrix`,
    /// kept as the bitwise reference for [`Svd::new`].
    fn row_major_reference(a: &Matrix) -> Result<Svd> {
        let (m, n) = a.shape();
        let mut u = a.clone();
        let mut v = Matrix::identity(n);
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for i in 0..m {
                        let up = u[(i, p)];
                        let uq = u[(i, q)];
                        app += up * up;
                        aqq += uq * uq;
                        apq += up * uq;
                    }
                    if apq.abs() <= TOL * (app * aqq).sqrt() {
                        continue;
                    }
                    off = off.max(apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for i in 0..m {
                        let up = u[(i, p)];
                        let uq = u[(i, q)];
                        u[(i, p)] = c * up - s * uq;
                        u[(i, q)] = s * up + c * uq;
                    }
                    for i in 0..n {
                        let vp = v[(i, p)];
                        let vq = v[(i, q)];
                        v[(i, p)] = c * vp - s * vq;
                        v[(i, q)] = s * vp + c * vq;
                    }
                }
            }
            if off <= TOL {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(LinalgError::NoConvergence { routine: "svd", iterations: MAX_SWEEPS });
        }
        let sigma: Vec<f64> = (0..n).map(|j| crate::norm2(&u.col(j))).collect();
        for j in 0..n {
            if sigma[j] > 0.0 {
                for i in 0..m {
                    u[(i, j)] /= sigma[j];
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| sigma[b].partial_cmp(&sigma[a]).unwrap());
        Ok(Svd {
            u: u.select_columns(&order),
            sigma: order.iter().map(|&j| sigma[j]).collect(),
            v: v.select_columns(&order),
        })
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts `Svd::new` and `pseudo_inverse` of `a` are bit for bit
    /// those of the row-major reference.
    fn assert_matches_reference(a: &Matrix) {
        let got = Svd::new(a).unwrap();
        let want = row_major_reference(a).unwrap();
        assert_eq!(bits(&got.sigma), bits(&want.sigma), "sigma");
        assert_eq!(bits(got.u.as_slice()), bits(want.u.as_slice()), "u");
        assert_eq!(bits(got.v.as_slice()), bits(want.v.as_slice()), "v");
        // pinv = V Σ⁺ Uᵀ, formed exactly as `pinv::apply_filter` does.
        let mut vf = want.v.clone();
        let smax = want.sigma[0];
        for (j, &s) in want.sigma.iter().enumerate() {
            let f = if smax > 0.0 && s > 1e-12 * smax { 1.0 / s } else { 0.0 };
            for i in 0..vf.rows() {
                vf[(i, j)] *= f;
            }
        }
        let want_pinv = vf.matmul(&want.u.transpose()).unwrap();
        let got_pinv = pseudo_inverse(a, 1e-12).unwrap();
        assert_eq!(bits(got_pinv.as_slice()), bits(want_pinv.as_slice()), "pinv");
    }

    /// The KIFMM check-to-equivalent kernel matrix at order `p = 4`
    /// (56 surface nodes per cube): Laplace `1/(4π r)` from equivalent
    /// nodes at radius `equiv_r` to check nodes at `check_r` (both in
    /// units of the half-width `hw`).
    fn c2e_kernel_matrix(hw: f64, check_r: f64, equiv_r: f64) -> Matrix {
        let surface = |radius: f64| {
            let (p, r) = (4usize, radius * hw);
            let step = 2.0 * r / (p - 1) as f64;
            let mut out = Vec::new();
            for i in 0..p {
                for j in 0..p {
                    for k in 0..p {
                        if [i, j, k].iter().any(|&c| c == 0 || c == p - 1) {
                            out.push([
                                -r + step * i as f64,
                                -r + step * j as f64,
                                -r + step * k as f64,
                            ]);
                        }
                    }
                }
            }
            out
        };
        let (check, equiv) = (surface(check_r), surface(equiv_r));
        Matrix::from_fn(check.len(), equiv.len(), |i, j| {
            let [dx, dy, dz] = [0, 1, 2].map(|c| check[i][c] - equiv[j][c]);
            1.0 / (4.0 * std::f64::consts::PI * (dx * dx + dy * dy + dz * dz).sqrt())
        })
    }

    #[test]
    fn kifmm_check_to_equivalent_matrices_match_the_row_major_reference() {
        // UC2E (check 2.95, equiv 1.05) and DC2E (check 1.05, equiv
        // 2.95) at the half-widths of a depth-7 tree on the unit cube.
        for level in [0, 3, 7] {
            let hw = 0.5 / f64::from(1u32 << level);
            for (check_r, equiv_r) in [(2.95, 1.05), (1.05, 2.95)] {
                let k = c2e_kernel_matrix(hw, check_r, equiv_r);
                assert_eq!(k.shape(), (56, 56));
                assert_matches_reference(&k);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn tall_matrices_match_the_row_major_reference(
            (rows, cols, data) in (1usize..12, 0usize..12).prop_flat_map(|(n, extra)| {
                let m = n + extra;
                (Just(m), Just(n), compat::prop::collection::vec(-100.0f64..100.0, m * n))
            }),
        ) {
            assert_matches_reference(&Matrix::from_vec(rows, cols, data));
        }
    }

    #[test]
    fn non_finite_entries_are_rejected_with_a_typed_error() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let a = Matrix::from_rows(&[&[1.0, 2.0], &[bad, 4.0], &[5.0, 6.0]]);
            assert_eq!(Svd::new(&a).unwrap_err(), LinalgError::NonFinite("svd"));
            assert_eq!(pseudo_inverse(&a, 1e-12).unwrap_err(), LinalgError::NonFinite("svd"));
            assert!(singular_values(&a.transpose()).is_err());
        }
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let svd = Svd::new(&a).unwrap();
        assert!((svd.sigma[0] - 3.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 2.0).abs() < 1e-12);
        assert!((svd.sigma[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, -3.0], &[1.0, 1.0]]);
        let svd = Svd::new(&a).unwrap();
        assert!(svd.reconstruct().approx_eq(&a, 1e-12));
    }

    #[test]
    fn u_and_v_are_orthonormal() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let svd = Svd::new(&a).unwrap();
        let utu = svd.u.transpose().matmul(&svd.u).unwrap();
        let vtv = svd.v.transpose().matmul(&svd.v).unwrap();
        assert!(utu.approx_eq(&Matrix::identity(2), 1e-12));
        assert!(vtv.approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn rank_deficient_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 1);
        assert!(svd.condition_number() > 1e10);
    }

    #[test]
    fn singular_values_of_wide_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 4.0, 0.0]]);
        let s = singular_values(&a).unwrap();
        assert!((s[0] - 4.0).abs() < 1e-12 && (s[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn frobenius_norm_equals_sigma_norm() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0], &[3.0, 0.0]]);
        let svd = Svd::new(&a).unwrap();
        let sig_norm = crate::norm2(&svd.sigma);
        assert!((a.norm_fro() - sig_norm).abs() < 1e-12);
    }

    #[test]
    fn wide_input_rejected() {
        assert!(Svd::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn empty_matrices_have_empty_decompositions() {
        for (m, n) in [(0, 0), (3, 0)] {
            let svd = Svd::new(&Matrix::zeros(m, n)).unwrap();
            assert!(svd.sigma.is_empty());
            assert_eq!((svd.u.shape(), svd.v.shape()), ((m, 0), (0, 0)));
        }
    }
}
