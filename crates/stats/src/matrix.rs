//! Dense row-major matrix with the operations the ECT/lasso stack needs.
//!
//! The statistics layer of the paper (CESM-ECT, lasso) runs on matrices of
//! `runs × variables` global means. Sizes are modest (≤ a few hundred each
//! way), so a straightforward dense implementation is appropriate; the hot
//! loops (matvec, Gram) are written cache-friendly over contiguous rows.

use serde::{Deserialize, Serialize};

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds from a slice of row vectors (all must share a length).
    pub fn from_row_slices(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds element-wise from a generator — the assembly path for
    /// ensemble/ECT matrices out of a run store: the caller indexes
    /// straight into its step planes (`f(run, col)`) and no intermediate
    /// row `Vec`s are allocated.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Column-gather: a copy keeping only `keep` (by index, in order) —
    /// used when an experimental run set shares just a subset of the
    /// ensemble's outputs.
    pub fn gather_cols(&self, keep: &[usize]) -> Self {
        Matrix::from_fn(self.rows, keep.len(), |r, c| self[(r, keep[c])])
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
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

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (mj, &x) in m.iter_mut().zip(self.row(i)) {
                *mj += x;
            }
        }
        let n = self.rows.max(1) as f64;
        for mj in &mut m {
            *mj /= n;
        }
        m
    }

    /// Per-column sample standard deviations (ddof = 1).
    pub fn col_stds(&self) -> Vec<f64> {
        let means = self.col_means();
        let mut s = vec![0.0; self.cols];
        for i in 0..self.rows {
            for ((sj, &mj), &x) in s.iter_mut().zip(&means).zip(self.row(i)) {
                let d = x - mj;
                *sj += d * d;
            }
        }
        let denom = (self.rows.max(2) - 1) as f64;
        for sj in &mut s {
            *sj = (*sj / denom).sqrt();
        }
        s
    }

    /// Standardizes columns in place using the supplied means and stds;
    /// columns with `std <= eps` are centered but not scaled (the ECT keeps
    /// constant variables from exploding to ±inf).
    pub fn standardize_with(&mut self, means: &[f64], stds: &[f64], eps: f64) {
        assert_eq!(means.len(), self.cols);
        assert_eq!(stds.len(), self.cols);
        for i in 0..self.rows {
            let cols = self.cols;
            let row = &mut self.data[i * cols..(i + 1) * cols];
            for ((x, &m), &s) in row.iter_mut().zip(means).zip(stds) {
                *x -= m;
                if s > eps {
                    *x /= s;
                }
            }
        }
    }

    /// Sample covariance matrix of the columns (`cols × cols`, ddof = 1).
    pub fn covariance(&self) -> Matrix {
        let means = self.col_means();
        let mut cov = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let di = row[i] - means[i];
                for j in i..self.cols {
                    cov[(i, j)] += di * (row[j] - means[j]);
                }
            }
        }
        let denom = (self.rows.max(2) - 1) as f64;
        for i in 0..self.cols {
            for j in i..self.cols {
                let v = cov[(i, j)] / denom;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        cov
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.col(1), vec![2., 5.]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_panics() {
        Matrix::from_rows(2, 2, vec![1.0]);
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn column_stats() {
        let m = Matrix::from_rows(3, 2, vec![1., 10., 2., 20., 3., 30.]);
        assert_eq!(m.col_means(), vec![2.0, 20.0]);
        let s = m.col_stds();
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn standardize_centers_and_scales() {
        let mut m = Matrix::from_rows(3, 2, vec![1., 5., 2., 5., 3., 5.]);
        let means = m.col_means();
        let stds = m.col_stds();
        m.standardize_with(&means, &stds, 1e-12);
        assert!((m.col_means()[0]).abs() < 1e-12);
        assert!((m.col_stds()[0] - 1.0).abs() < 1e-12);
        // Constant column centered, not scaled.
        assert_eq!(m.col(1), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn covariance_known() {
        // Perfectly correlated columns.
        let m = Matrix::from_rows(3, 2, vec![1., 2., 2., 4., 3., 6.]);
        let c = m.covariance();
        assert!((c[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((c[(1, 1)] - 4.0).abs() < 1e-12);
        assert!((c[(0, 1)] - 2.0).abs() < 1e-12);
        assert_eq!(c[(0, 1)], c[(1, 0)]);
    }

    #[test]
    fn from_row_slices_builds() {
        let m = Matrix::from_row_slices(&[vec![1., 2.], vec![3., 4.]]);
        assert_eq!(m[(1, 0)], 3.0);
    }
}
