//! Row-major dense matrix.
//!
//! The dimensions in this project are small (design matrices of a few
//! thousand rows by ~10 columns; KIFMM kernel matrices of a few hundred
//! square), so a straightforward row-major layout with cache-blocked
//! multiplication is both simple and fast enough.

#![allow(clippy::needless_range_loop)] // kernels index two operands by one induction variable
use crate::{LinalgError, Result};
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The row-major data, consuming the matrix.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    /// Panics (debug) on dimension mismatch.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = crate::dot(self.row(i), x);
        }
        y
    }

    /// Matrix–vector product `A x` written into a caller-owned buffer
    /// (overwriting), one row dot product per entry — the reference the
    /// column-major [`crate::ColMajor::apply_into`] is tested against.
    #[cfg(test)]
    pub(crate) fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        for (i, yi) in out.iter_mut().enumerate() {
            *yi = crate::dot(self.row(i), x);
        }
    }

    /// Matrix–vector product accumulated onto `out`: `out += A x`, the
    /// reference for [`crate::ColMajor::apply_acc`].
    #[cfg(test)]
    pub(crate) fn matvec_acc(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        for (i, yi) in out.iter_mut().enumerate() {
            *yi += crate::dot(self.row(i), x);
        }
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            crate::axpy(x[i], self.row(i), &mut y);
        }
        y
    }

    /// Matrix product `A B`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                context: "matmul",
                expected: (self.cols, other.cols),
                found: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: streams over `other`'s rows, cache-friendly for
        // row-major storage.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                crate::axpy(aik, brow, orow);
            }
        }
        Ok(out)
    }

    /// Gram matrix `AᵀA` (symmetric), computed exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for row in 0..self.rows {
            let r = self.row(row);
            for j in 0..n {
                let rj = r[j];
                if rj == 0.0 {
                    continue;
                }
                for k in j..n {
                    g[(j, k)] += rj * r[k];
                }
            }
        }
        for j in 0..n {
            for k in 0..j {
                g[(j, k)] = g[(k, j)];
            }
        }
        g
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        crate::norm2(&self.data)
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Extracts the sub-matrix `rows x cols` starting at `(r0, c0)`.
    pub fn submatrix(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols, "submatrix out of range");
        Matrix::from_fn(rows, cols, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Builds a matrix from a subset of this matrix's columns.
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, cols.len(), |i, j| self[(i, cols[j])])
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// True if all entries of `self` and `other` agree within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn shape_and_indexing() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn matvec_into_and_acc_match_allocating_form() {
        let m = sample();
        let x = [0.5, -1.0, 2.0];
        let alloc = m.matvec(&x);
        let mut into = vec![9.0; 2]; // overwritten
        m.matvec_into(&x, &mut into);
        assert_eq!(into, alloc);
        let mut acc = vec![1.0; 2];
        m.matvec_acc(&x, &mut acc);
        assert_eq!(acc, vec![1.0 + alloc[0], 1.0 + alloc[1]]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3).unwrap(), m);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let m = sample();
        assert!(m.matmul(&sample()).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn gram_equals_at_a() {
        let m = sample();
        let g = m.gram();
        let expected = m.transpose().matmul(&m).unwrap();
        assert!(g.approx_eq(&expected, 1e-14));
    }

    #[test]
    fn submatrix_and_select_columns() {
        let m = sample();
        let s = m.submatrix(0, 1, 2, 2);
        assert_eq!(s, Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]));
        let c = m.select_columns(&[2, 0]);
        assert_eq!(c, Matrix::from_rows(&[&[3.0, 1.0], &[6.0, 4.0]]));
    }

    #[test]
    fn swap_rows_swaps() {
        let mut m = sample();
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn add_sub_scale() {
        let m = sample();
        let z = &(&m + &m) - &(&m * 2.0);
        assert_eq!(z.norm_max(), 0.0);
    }

    #[test]
    fn from_diag_places_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0]);
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn display_prints_all_rows() {
        let s = format!("{}", sample());
        assert_eq!(s.lines().count(), 2);
    }
}
