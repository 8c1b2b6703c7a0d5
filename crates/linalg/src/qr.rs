//! Householder QR factorization and least-squares solves.
//!
//! `A = Q R` with `Q` orthogonal (`m x m`, stored implicitly as Householder
//! reflectors) and `R` upper-triangular.  Solving `min ||A x - b||₂` then
//! reduces to applying the reflectors to `b` and back-substituting through
//! `R`.  This is the workhorse behind both [`lstsq`] and the passive-set
//! solves inside [`crate::nnls`](fn@crate::nnls).

#![allow(clippy::needless_range_loop)] // factorization loops index the packed QR and the rhs together
use crate::{LinalgError, Matrix, Result};

/// A Householder QR factorization of an `m x n` matrix with `m >= n`.
#[derive(Debug, Clone)]
pub struct QrFactorization {
    /// Packed factorization: `R` in the upper triangle, reflector vectors
    /// below the diagonal (with implicit unit leading entry).
    qr: Matrix,
    /// Scalar `beta` of each reflector `H = I - beta v vᵀ`.
    betas: Vec<f64>,
}

impl QrFactorization {
    /// Factors `a`.  Requires `rows >= cols`.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                context: "qr (requires rows >= cols)",
                expected: (n, n),
                found: (m, n),
            });
        }
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        for k in 0..n {
            // Build the Householder vector for column k below the diagonal.
            let mut norm = 0.0f64;
            for i in k..m {
                norm = norm.hypot(qr[(i, k)]);
            }
            if norm == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] > 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // v = (v0, a[k+1..m, k]); normalize so v[0] = 1.
            for i in (k + 1)..m {
                let scaled = qr[(i, k)] / v0;
                qr[(i, k)] = scaled;
            }
            betas[k] = -v0 / alpha;
            qr[(k, k)] = alpha;
            // Apply H to the remaining columns.
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= betas[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        Ok(QrFactorization { qr, betas })
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.qr.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.qr.cols()
    }

    /// The upper-triangular factor `R` (`n x n`).
    pub fn r(&self) -> Matrix {
        let n = self.cols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }

    /// Reconstructs the thin `Q` factor (`m x n`) explicitly.
    pub fn thin_q(&self) -> Matrix {
        let (m, n) = self.qr.shape();
        let mut q = Matrix::from_fn(m, n, |i, j| if i == j { 1.0 } else { 0.0 });
        // Apply reflectors in reverse order: Q = H_0 H_1 ... H_{n-1} I.
        for k in (0..n).rev() {
            if self.betas[k] == 0.0 {
                continue;
            }
            for j in 0..n {
                let mut s = q[(k, j)];
                for i in (k + 1)..m {
                    s += self.qr[(i, k)] * q[(i, j)];
                }
                s *= self.betas[k];
                q[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = self.qr[(i, k)];
                    q[(i, j)] -= s * vik;
                }
            }
        }
        q
    }

    /// Applies `Qᵀ` to a vector in place.
    pub fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = self.qr.shape();
        assert_eq!(b.len(), m, "apply_qt length mismatch");
        for k in 0..n {
            if self.betas[k] == 0.0 {
                continue;
            }
            let mut s = b[k];
            for i in (k + 1)..m {
                s += self.qr[(i, k)] * b[i];
            }
            s *= self.betas[k];
            b[k] -= s;
            for i in (k + 1)..m {
                b[i] -= s * self.qr[(i, k)];
            }
        }
    }

    /// Solves `min ||A x - b||₂`; returns `x` (length `n`).
    ///
    /// Fails with [`LinalgError::Singular`] if `R` has a (numerically) zero
    /// diagonal entry.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                context: "qr solve",
                expected: (m, 1),
                found: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back substitution through R.
        let tol = self.qr.norm_max() * crate::EPS * (m as f64);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.qr[(i, j)] * x[j];
            }
            let d = self.qr[(i, i)];
            if d.abs() <= tol {
                return Err(LinalgError::Singular("qr solve"));
            }
            x[i] = s / d;
        }
        Ok(x)
    }

    /// Residual 2-norm `||A x - b||₂` for a given solution, computed from
    /// the transformed right-hand side (cheap, no re-multiplication).
    pub fn residual_norm(&self, b: &[f64]) -> f64 {
        let n = self.cols();
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        crate::norm2(&y[n..])
    }

    /// Cheap condition estimate: the ratio of the largest to the smallest
    /// absolute diagonal entry of `R`.  A lower bound on the true 2-norm
    /// condition number — already infinite for an exactly rank-deficient
    /// matrix, and large enough to flag the near-collinear design matrices
    /// a corrupted sweep produces.
    pub fn condition_estimate(&self) -> f64 {
        let n = self.cols();
        if n == 0 {
            return 1.0;
        }
        let mut max = 0.0f64;
        let mut min = f64::INFINITY;
        for i in 0..n {
            let d = self.qr[(i, i)].abs();
            max = max.max(d);
            min = min.min(d);
        }
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// Column indices whose `R` diagonal is below `rel_tol` times the
    /// largest diagonal — the (numerically) dependent columns that make a
    /// plain `solve` fail with [`LinalgError::Singular`].
    pub fn small_diagonal_columns(&self, rel_tol: f64) -> Vec<usize> {
        let n = self.cols();
        let max = (0..n).map(|i| self.qr[(i, i)].abs()).fold(0.0f64, f64::max);
        let cutoff = max * rel_tol;
        (0..n).filter(|&i| self.qr[(i, i)].abs() <= cutoff).collect()
    }
}

/// One-shot least squares: solves `min ||A x - b||₂` via Householder QR.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    QrFactorization::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overdetermined() -> (Matrix, Vec<f64>) {
        // x = [1, 2] exactly: b = A x.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, -1.0]]);
        let b = a.matvec(&[1.0, 2.0]);
        (a, b)
    }

    #[test]
    fn exact_system_recovered() {
        let (a, b) = overdetermined();
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn qr_reconstructs_a() {
        let (a, _) = overdetermined();
        let f = QrFactorization::new(&a).unwrap();
        let qr = f.thin_q().matmul(&f.r()).unwrap();
        assert!(qr.approx_eq(&a, 1e-12), "QR != A:\n{qr}\n{a}");
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let (a, _) = overdetermined();
        let q = QrFactorization::new(&a).unwrap().thin_q();
        let qtq = q.transpose().matmul(&q).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Inconsistent system; normal-equations solution known analytically.
        let a = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        let b = [1.0, 2.0, 6.0];
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12, "mean minimizes ||x·1 - b||");
    }

    #[test]
    fn residual_norm_matches_direct_computation() {
        let a = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        let b = [1.0, 2.0, 6.0];
        let f = QrFactorization::new(&a).unwrap();
        let x = f.solve(&b).unwrap();
        let r: Vec<f64> = a.matvec(&x).iter().zip(&b).map(|(ax, bi)| ax - bi).collect();
        assert!((f.residual_norm(&b) - crate::norm2(&r)).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let b = [1.0, 2.0, 3.0];
        assert!(matches!(lstsq(&a, &b), Err(LinalgError::Singular(_))));
    }

    #[test]
    fn underdetermined_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        assert!(QrFactorization::new(&a).is_err());
    }

    #[test]
    fn orthogonal_transform_preserves_norm() {
        let (a, b) = overdetermined();
        let f = QrFactorization::new(&a).unwrap();
        let mut y = b.clone();
        f.apply_qt(&mut y);
        assert!((crate::norm2(&y) - crate::norm2(&b)).abs() < 1e-12);
    }

    #[test]
    fn condition_estimate_flags_near_collinear_columns() {
        let (a, _) = overdetermined();
        let good = QrFactorization::new(&a).unwrap();
        assert!(good.condition_estimate() < 100.0);
        assert!(good.small_diagonal_columns(1e-8).is_empty());

        // Second column is the first plus a tiny perturbation.
        let bad = Matrix::from_rows(&[&[1.0, 1.0 + 1e-11], &[2.0, 2.0], &[3.0, 3.0 - 1e-11]]);
        let f = QrFactorization::new(&bad).unwrap();
        assert!(f.condition_estimate() > 1e8, "cond {}", f.condition_estimate());
        assert_eq!(f.small_diagonal_columns(1e-6), vec![1]);
    }

    #[test]
    fn exactly_singular_matrix_has_huge_condition() {
        // Floating-point rounding may leave a subnormal-sized diagonal
        // instead of an exact zero; either way the estimate is enormous.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let f = QrFactorization::new(&a).unwrap();
        assert!(f.condition_estimate() > 1e12, "cond {}", f.condition_estimate());
        assert_eq!(f.small_diagonal_columns(1e-10), vec![1]);
    }

    #[test]
    fn wide_rhs_rejected() {
        let (a, _) = overdetermined();
        let f = QrFactorization::new(&a).unwrap();
        assert!(f.solve(&[1.0, 2.0]).is_err());
    }
}
