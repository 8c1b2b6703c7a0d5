//! Column-major dense matrix for applying a fixed operator to many
//! vectors.
//!
//! [`Matrix::matvec`] forms each output entry as a row dot product,
//! which reads one row contiguously but folds every product into one
//! scalar accumulator, so it runs at one add per floating-point add
//! latency.  [`ColMajor`] stores the same entries column by column and
//! applies them to a block of output rows at once: for each column `j`
//! in order it adds `a_ij · x_j` into every row's partial sum, a loop
//! that vectorizes across the rows.
//!
//! Each row still starts from `-0.0` and adds its products in column
//! order — exactly the fold [`crate::dot`] (`Iterator::sum`) performs,
//! and Rust never contracts `s + a * x` into a fused multiply-add — so
//! every output is bit-for-bit the row dot product's.

use crate::Matrix;

/// The widest row block one pass over the columns carries: 32 `f64`
/// partial sums are four AVX-512 registers, enough independent add
/// chains to cover the add latency.  A 24- or 16-row block, then an
/// 8-row block, then the last few rows finish a row count that is not a
/// multiple of it (the 56 rows of a surface-order-4 operator take one
/// 32-row and one 24-row pass).
const BLOCK: usize = 32;

/// A dense, column-major `f64` matrix: entry `(i, j)` is at
/// `data[j * rows + i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColMajor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl From<Matrix> for ColMajor {
    /// Re-lays `m` out column by column.  A square matrix — every KIFMM
    /// operator — is transposed in its own buffer, so converting an
    /// operator never holds two copies of it.
    fn from(m: Matrix) -> Self {
        let (rows, cols) = m.shape();
        let data = if rows == cols {
            let mut data = m.into_vec();
            for i in 0..rows {
                for j in i + 1..cols {
                    data.swap(i * cols + j, j * rows + i);
                }
            }
            data
        } else {
            (0..cols).flat_map(|j| (0..rows).map(move |i| (i, j))).map(|ij| m[ij]).collect()
        };
        ColMajor { rows, cols, data }
    }
}

impl ColMajor {
    /// The column-major entries.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// `out = A x`, bit-identical to [`Matrix::matvec`] of the same
    /// matrix.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        self.apply_with(x, out, |o, s| *o = s);
    }

    /// `out += A x`: each row's finished sum is added to `out`, as
    /// `out[i] += dot(row_i, x)` does.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn apply_acc(&self, x: &[f64], out: &mut [f64]) {
        self.apply_with(x, out, |o, s| *o += s);
    }

    #[inline(always)]
    fn apply_with(&self, x: &[f64], out: &mut [f64], store: impl Fn(&mut f64, f64) + Copy) {
        assert_eq!(x.len(), self.cols, "apply dimension mismatch");
        assert_eq!(out.len(), self.rows, "apply output length mismatch");
        let mut r0 = 0;
        while self.rows - r0 >= BLOCK {
            self.block::<BLOCK>(x, r0, &mut out[r0..r0 + BLOCK], store);
            r0 += BLOCK;
        }
        if self.rows - r0 >= 24 {
            self.block::<24>(x, r0, &mut out[r0..r0 + 24], store);
            r0 += 24;
        } else if self.rows - r0 >= 16 {
            self.block::<16>(x, r0, &mut out[r0..r0 + 16], store);
            r0 += 16;
        }
        if self.rows - r0 >= 8 {
            self.block::<8>(x, r0, &mut out[r0..r0 + 8], store);
            r0 += 8;
        }
        if r0 < self.rows {
            let mut sums = [-0.0f64; 8];
            let sums = &mut sums[..self.rows - r0];
            for (col, &xj) in self.data.chunks_exact(self.rows).zip(x) {
                for (s, &aij) in sums.iter_mut().zip(&col[r0..]) {
                    *s += aij * xj;
                }
            }
            for (o, &s) in out[r0..].iter_mut().zip(sums.iter()) {
                store(o, s);
            }
        }
    }

    /// Rows `r0..r0 + W` of `A x`, each summed from `-0.0` over the
    /// columns in order, handed to `store` with their output slots.
    #[inline(always)]
    fn block<const W: usize>(
        &self,
        x: &[f64],
        r0: usize,
        out: &mut [f64],
        store: impl Fn(&mut f64, f64),
    ) {
        let mut sums = [-0.0f64; W];
        for (col, &xj) in self.data.chunks_exact(self.rows).zip(x) {
            for (s, &aij) in sums.iter_mut().zip(&col[r0..r0 + W]) {
                *s += aij * xj;
            }
        }
        for (o, s) in out.iter_mut().zip(sums) {
            store(o, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compat::prop::prelude::*;

    /// Entries mixing ordinary values, signed zeros and subnormals, so
    /// sums that start from the wrong zero or round differently show.
    fn entry() -> impl Strategy<Value = f64> {
        prop_oneof![
            -100.0f64..100.0,
            Just(0.0),
            Just(-0.0),
            (1u64..1 << 52).prop_map(f64::from_bits),
            (1u64..1 << 52).prop_map(|b| -f64::from_bits(b)),
            (-1.0f64..1.0).prop_map(|x| x * 1e-160),
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `A x` and `y + A x` through both layouts, bit for bit.
    fn assert_same_bits(a: &Matrix, x: &[f64], y: &[f64]) -> Result<(), TestCaseError> {
        let c = ColMajor::from(a.clone());
        let (mut want, mut got) = (vec![7.0; a.rows()], vec![-7.0; a.rows()]);
        a.matvec_into(x, &mut want);
        c.apply_into(x, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "into, {:?}", a.shape());
        let (mut want, mut got) = (y.to_vec(), y.to_vec());
        a.matvec_acc(x, &mut want);
        c.apply_acc(x, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "acc, {:?}", a.shape());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn apply_is_bitwise_the_row_dot_products(
            (a, x, y) in (1usize..161, 0usize..161).prop_flat_map(|(rows, cols)| {
                (
                    compat::prop::collection::vec(entry(), rows * cols)
                        .prop_map(move |data| Matrix::from_vec(rows, cols, data)),
                    compat::prop::collection::vec(entry(), cols),
                    compat::prop::collection::vec(entry(), rows),
                )
            }),
        ) {
            assert_same_bits(&a, &x, &y)?;
        }
    }

    #[test]
    fn every_block_split_matches_the_row_dot_products() {
        // Every row count through 70 reaches each block width and every
        // tail length at least once, with square matrices (transposed in
        // place) and narrow ones (copied).
        for rows in 0..=70 {
            for cols in [rows, 1 + rows % 9] {
                let a = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17) % 23) as f64 - 11.5);
                let x: Vec<f64> =
                    (0..cols).map(|j| if j % 3 == 0 { -0.0 } else { j as f64 }).collect();
                let y: Vec<f64> = (0..rows).map(|i| i as f64 * 0.25).collect();
                assert_same_bits(&a, &x, &y).unwrap_or_else(|e| panic!("{rows}x{cols}: {e:?}"));
            }
        }
    }

    #[test]
    fn an_empty_row_sums_to_negative_zero() {
        // `Iterator::sum` of nothing is `-0.0`, so a zero-column apply
        // writes `-0.0`; a row of `-0.0` products stays `-0.0`, and one
        // `+0.0` product turns it into `+0.0`.
        let mut out = [1.0; 3];
        ColMajor::from(Matrix::zeros(3, 0)).apply_into(&[], &mut out);
        assert_eq!(bits(&out), bits(&[-0.0; 3]));
        let a = Matrix::from_rows(&[&[-0.0, 0.0], &[0.0, -0.0]]);
        let mut out = [1.0; 2];
        ColMajor::from(a.clone()).apply_into(&[1.0, -1.0], &mut out);
        assert_eq!(bits(&out), bits(&[-0.0, 0.0]));
        assert_eq!(bits(&out), bits(&a.matvec(&[1.0, -1.0])));
    }
}
