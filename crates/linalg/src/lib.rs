//! Small dense linear-algebra kernels used by the DVFS-aware energy model
//! and the kernel-independent FMM.
//!
//! The paper's analysis pipeline fits the energy-roofline constants with a
//! non-negative least-squares (NNLS) solve, and the KIFMM translation
//! operators require regularized pseudo-inverses of kernel matrices.  This
//! crate provides exactly the numerics those two consumers need, built from
//! scratch:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual algebra.
//! * [`ColMajor`] — a column-major copy of a fixed operator, applied to
//!   many vectors with a loop that vectorizes across output rows.
//! * [`qr`] — Householder QR factorization and least-squares solves.
//! * [`cholesky`] — Cholesky factorization for symmetric positive-definite
//!   systems.
//! * [`svd`] — one-sided Jacobi singular value decomposition.
//! * [`nnls`] — the Lawson–Hanson active-set NNLS algorithm.
//! * [`pinv`] — Tikhonov-regularized pseudo-inverse built on the SVD.
//!
//! All routines are deterministic and allocation-conscious; factorizations
//! reuse workspace where it matters for the FMM's precompute step.

pub mod cholesky;
pub mod colmajor;
pub mod matrix;
pub mod nnls;
pub mod pinv;
pub mod qr;
pub mod svd;

pub use cholesky::Cholesky;
pub use colmajor::ColMajor;
pub use matrix::Matrix;
pub use nnls::{nnls, nnls_ridge, NnlsOptions, NnlsSolution};
pub use pinv::{pseudo_inverse, regularized_pseudo_inverse};
pub use qr::{lstsq, QrFactorization};
pub use svd::{singular_values, Svd};

/// Machine-epsilon-scaled tolerance used as the default rank/convergence
/// threshold throughout the crate.
pub const EPS: f64 = f64::EPSILON;

/// Errors produced by the factorization and solve routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible.
    ShapeMismatch { context: &'static str, expected: (usize, usize), found: (usize, usize) },
    /// The matrix is singular (or numerically so) where a full-rank matrix
    /// is required.
    Singular(&'static str),
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite { pivot: usize },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence { routine: &'static str, iterations: usize },
    /// The input holds an `inf` or `NaN` entry.
    NonFinite(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { context, expected, found } => write!(
                f,
                "{context}: shape mismatch, expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            LinalgError::Singular(ctx) => write!(f, "{ctx}: matrix is singular"),
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NoConvergence { routine, iterations } => {
                write!(f, "{routine}: no convergence after {iterations} iterations")
            }
            LinalgError::NonFinite(ctx) => write!(f, "{ctx}: input has a non-finite entry"),
        }
    }
}

impl std::error::Error for LinalgError {}

impl From<LinalgError> for compat::error::PipelineError {
    fn from(e: LinalgError) -> Self {
        let routine = match &e {
            LinalgError::ShapeMismatch { context, .. } => *context,
            LinalgError::Singular(ctx) => *ctx,
            LinalgError::NotPositiveDefinite { .. } => "cholesky",
            LinalgError::NoConvergence { routine, .. } => *routine,
            LinalgError::NonFinite(ctx) => *ctx,
        };
        compat::error::PipelineError::Numeric {
            routine: routine.to_string(),
            detail: e.to_string(),
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice, computed with scaling to avoid overflow.
pub fn norm2(v: &[f64]) -> f64 {
    let max = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if max == 0.0 {
        return 0.0;
    }
    let sum: f64 = v.iter().map(|x| (x / max) * (x / max)).sum();
    max * sum.sqrt()
}

/// `y <- alpha * x + y`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn norm2_is_scale_safe() {
        let big = 1e300;
        let v = [big, big];
        assert!((norm2(&v) - big * std::f64::consts::SQRT_2).abs() / norm2(&v) < 1e-14);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0; 8]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = LinalgError::NoConvergence { routine: "svd", iterations: 30 };
        assert!(e.to_string().contains("svd"));
        let e = LinalgError::ShapeMismatch { context: "matmul", expected: (2, 3), found: (4, 5) };
        assert!(e.to_string().contains("2x3"));
        assert!(LinalgError::NonFinite("svd").to_string().contains("non-finite"));
    }
}
