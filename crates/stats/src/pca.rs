//! Principal component analysis on standardized run×variable matrices.
//!
//! The CESM-ECT (paper refs [2, 24]) quantifies internal model variability
//! by PCA of an ensemble's standardized output means; experimental runs are
//! then scored in PC space. This module provides exactly that fit/project
//! pair, built on the Jacobi eigensolver.

use crate::eigen::jacobi_eigen;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Scale threshold below which a variable is treated as constant.
pub const SCALE_EPS: f64 = 1e-300;

/// A fitted PCA model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pca {
    /// Per-variable means used for standardization.
    pub means: Vec<f64>,
    /// Per-variable standard deviations used for standardization.
    pub stds: Vec<f64>,
    /// Loadings: `vars × components`, column `k` is the k-th PC direction.
    pub loadings: Matrix,
    /// Eigenvalues (variance explained per component), descending.
    pub eigenvalues: Vec<f64>,
}

impl Pca {
    /// Fits a PCA on `data` (`runs × vars`), standardizing every variable by
    /// its column mean/σ first (correlation PCA, as the ECT uses).
    pub fn fit(data: &Matrix) -> Pca {
        let means = data.col_means();
        let stds = data.col_stds();
        let mut z = data.clone();
        z.standardize_with(&means, &stds, SCALE_EPS);
        let cov = z.covariance();
        let eig = jacobi_eigen(&cov, 100, 1e-12);
        Pca {
            means,
            stds,
            loadings: eig.vectors,
            eigenvalues: eig.values,
        }
    }

    /// Number of variables this model was fitted on.
    pub fn n_vars(&self) -> usize {
        self.means.len()
    }

    /// Projects one run (raw, unstandardized) onto the first `k` PCs.
    pub fn project(&self, run: &[f64], k: usize) -> Vec<f64> {
        assert_eq!(run.len(), self.n_vars(), "variable count mismatch");
        let z: Vec<f64> = run
            .iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&x, (&m, &s))| {
                let c = x - m;
                if s > SCALE_EPS {
                    c / s
                } else {
                    c
                }
            })
            .collect();
        (0..k.min(self.n_vars()))
            .map(|c| {
                (0..self.n_vars())
                    .map(|v| self.loadings[(v, c)] * z[v])
                    .sum()
            })
            .collect()
    }

    /// Projects every row of `data` onto the first `k` PCs.
    pub fn project_all(&self, data: &Matrix, k: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..data.rows())
            .map(|i| self.project(data.row(i), k))
            .collect();
        Matrix::from_row_slices(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic data with one dominant direction: x2 = 2*x1 + noise.
    fn correlated_data(n: usize) -> Matrix {
        let mut rows = Vec::new();
        let mut state = 424242u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for _ in 0..n {
            let x = next();
            rows.push(vec![x, 2.0 * x + 0.01 * next(), next() * 0.1]);
        }
        Matrix::from_row_slices(&rows)
    }

    #[test]
    fn first_pc_captures_correlation() {
        let pca = Pca::fit(&correlated_data(200));
        // Standardized x1 and x2 are nearly identical: PC1 weights them
        // almost equally, PC3 (noise dir) explains almost nothing.
        let w1 = pca.loadings[(0, 0)];
        let w2 = pca.loadings[(1, 0)];
        assert!((w1.abs() - w2.abs()).abs() < 0.05, "w1={w1} w2={w2}");
        let total: f64 = pca.eigenvalues.iter().sum();
        assert!(pca.eigenvalues[0] / total > 0.6);
        assert!(pca.eigenvalues[2] / total < 1e-3);
    }

    #[test]
    fn projection_of_mean_is_zero() {
        let data = correlated_data(100);
        let pca = Pca::fit(&data);
        let scores = pca.project(&pca.means.clone(), 3);
        for s in scores {
            assert!(s.abs() < 1e-9);
        }
    }

    #[test]
    fn ensemble_scores_have_eigenvalue_variance() {
        let data = correlated_data(300);
        let pca = Pca::fit(&data);
        let scores = pca.project_all(&data, 3);
        let vars = scores.col_stds();
        for (k, &std) in vars.iter().enumerate().take(3) {
            let expect = pca.eigenvalues[k].max(0.0).sqrt();
            assert!(
                (std - expect).abs() < 0.05 * expect.max(0.05),
                "pc{k}: std {std} vs sqrt(eig) {expect}"
            );
        }
    }

    #[test]
    fn constant_variable_does_not_poison() {
        let mut rows = Vec::new();
        for i in 0..50 {
            rows.push(vec![i as f64, 7.0]);
        }
        let pca = Pca::fit(&Matrix::from_row_slices(&rows));
        assert!(pca.eigenvalues.iter().all(|v| v.is_finite()));
        let s = pca.project(&[25.0, 7.0], 2);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_width_projection_panics() {
        let pca = Pca::fit(&correlated_data(20));
        pca.project(&[1.0], 1);
    }
}
