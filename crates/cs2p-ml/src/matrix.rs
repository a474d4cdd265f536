//! Small dense matrices and the linear solves the rest of the crate needs.
//!
//! Everything here is deliberately simple: CS2P's models are tiny (an HMM
//! transition matrix is `N x N` with `N <= ~10`; AR fitting solves a
//! handful of normal equations). A full linear-algebra crate would be
//! overkill, so we implement row-major `Matrix` with the few operations we
//! actually use: multiply, transpose, and a partial-pivoting Gaussian
//! elimination solver.

use serde::{Deserialize, Serialize};

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from nested rows; panics if rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix product `self * other`; panics on a dimension mismatch.
    fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// `self * v` for a vector `v` of length `cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `v^T * self` for a vector `v` of length `rows` (row-vector product,
    /// the shape used by HMM state-distribution propagation `pi P`).
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.vecmat_into(v, &mut out);
        out
    }

    /// [`vecmat`](Self::vecmat) into a caller-owned buffer of length
    /// `cols` (overwritten): the same multiply-adds in the same order —
    /// rows of `self` scaled by `v[i]` and accumulated top to bottom, zero
    /// entries of `v` skipped — so the result is bit-identical, without
    /// the allocation. The per-request filter propagates through this.
    pub fn vecmat_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.rows, "vecmat dimension mismatch");
        assert_eq!(out.len(), self.cols, "vecmat output length mismatch");
        out.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += vi * a;
            }
        }
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` for singular (or numerically singular) systems.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivot: find the largest |entry| in this column.
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| {
                    a[r1 * n + col]
                        .abs()
                        .partial_cmp(&a[r2 * n + col].abs())
                        .unwrap()
                })
                .unwrap();
            let pivot = a[pivot_row * n + col];
            if pivot.abs() < 1e-12 {
                return None;
            }
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
                x.swap(col, pivot_row);
            }
            for row in (col + 1)..n {
                let factor = a[row * n + col] / a[col * n + col];
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[row * n + j] -= factor * a[col * n + j];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for j in (col + 1)..n {
                sum -= a[col * n + j] * x[j];
            }
            x[col] = sum / a[col * n + col];
        }
        Some(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Ordinary least squares: finds `beta` minimizing `||X beta - y||^2` via
/// the normal equations `X^T X beta = X^T y`.
///
/// `xs` holds one row per observation. Returns `None` when the system is
/// singular (collinear features or too few observations).
pub fn ols(xs: &Matrix, y: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(xs.rows(), y.len(), "X/y row mismatch");
    let xt = xs.transpose();
    let xtx = xt.matmul(xs);
    let xty = xt.matvec(y);
    xtx.solve(&xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]])
        );
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_vec_close(&a.matvec(&[1.0, 1.0]), &[3.0, 7.0], 1e-12);
        assert_vec_close(&a.vecmat(&[1.0, 1.0]), &[4.0, 6.0], 1e-12);
    }

    #[test]
    fn vecmat_preserves_stochastic_vector() {
        // A row-stochastic transition matrix keeps probability mass at 1.
        let p = Matrix::from_rows(&[vec![0.9, 0.1], vec![0.3, 0.7]]);
        let pi = [0.25, 0.75];
        let next = p.vecmat(&pi);
        assert!((next.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vecmat_into_is_vecmat_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        // The pre-`vecmat_into` body of `vecmat`, kept as the reference.
        fn reference(m: &Matrix, v: &[f64]) -> Vec<f64> {
            let mut out = vec![0.0; m.cols()];
            for (i, &vi) in v.iter().enumerate() {
                if vi == 0.0 {
                    continue;
                }
                for (j, o) in out.iter_mut().enumerate() {
                    *o += vi * m[(i, j)];
                }
            }
            out
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
        for case in 0..200 {
            let (rows, cols) = (rng.gen_range(1..=9), rng.gen_range(1..=9));
            let data = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let m = Matrix { rows, cols, data };
            // Zero entries (which `vecmat` skips, so an infinite matrix
            // entry behind one must not turn into NaN) in half the cases.
            let v: Vec<f64> = (0..rows)
                .map(|_| match rng.gen_range(0..4) {
                    0 if case % 2 == 0 => 0.0,
                    1 if case % 2 == 0 => -0.0,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect();
            // A dirty output buffer must be overwritten, not added to.
            let mut out = vec![f64::NAN; cols];
            m.vecmat_into(&v, &mut out);
            let want = reference(&m, &v);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want), "case {case}");
            assert_eq!(bits(&m.vecmat(&v)), bits(&want), "case {case}");
        }
        let inf = Matrix::from_rows(&[vec![f64::INFINITY, 1.0], vec![2.0, 3.0]]);
        let mut out = [0.0; 2];
        inf.vecmat_into(&[0.0, 1.0], &mut out);
        assert_eq!(out, [2.0, 3.0]);
    }

    #[test]
    fn solve_well_conditioned() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert_vec_close(&x, &[0.8, 1.4], 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_vec_close(&x, &[3.0, 2.0], 1e-12);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn ols_recovers_exact_line() {
        // y = 2 + 3x, design matrix with intercept column.
        let xs = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ]);
        let y = [2.0, 5.0, 8.0, 11.0];
        let beta = ols(&xs, &y).unwrap();
        assert_vec_close(&beta, &[2.0, 3.0], 1e-10);
    }

    #[test]
    fn ols_least_squares_not_interpolation() {
        // Overdetermined noisy system: check residual orthogonality X^T r = 0.
        let xs = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ]);
        let y = [1.0, 2.0, 2.0, 4.0];
        let beta = ols(&xs, &y).unwrap();
        let pred = xs.matvec(&beta);
        let resid: Vec<f64> = y.iter().zip(&pred).map(|(a, b)| a - b).collect();
        let xtr = xs.transpose().matvec(&resid);
        assert_vec_close(&xtr, &[0.0, 0.0], 1e-10);
    }

    #[test]
    fn ols_collinear_returns_none() {
        let xs = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        assert!(ols(&xs, &[1.0, 2.0, 3.0]).is_none());
    }
}
