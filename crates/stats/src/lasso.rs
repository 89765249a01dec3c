//! L1-penalized (lasso) logistic regression for variable selection.
//!
//! Paper §3: "Our second method employs logistic regression with
//! regularization via a penalized L1-norm (known as the lasso). We generate
//! a set of experimental runs and use this in conjunction with our ensemble
//! set to identify the variables that best classify the members of each
//! set. We tune the regularization parameter to select about five
//! variables."
//!
//! Solver: proximal gradient (ISTA) with soft-thresholding, fixed step from
//! the Lipschitz bound `L = ‖X‖₂²/(4n)`, intercept unpenalized. A geometric
//! λ path from `λ_max` (all-zero solution) downward is searched for the
//! target sparsity.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A fitted sparse logistic model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LassoModel {
    /// Coefficients per (standardized) variable; exact zeros mean
    /// "not selected".
    pub weights: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
    /// The regularization strength used.
    pub lambda: f64,
    /// Standardization means (from the training matrix).
    pub means: Vec<f64>,
    /// Standardization scales.
    pub stds: Vec<f64>,
}

impl LassoModel {
    /// Indices of selected (nonzero-weight) variables, ordered by
    /// descending |weight|.
    pub fn selected(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = self
            .weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0.0)
            .map(|(i, _)| i)
            .collect();
        idx.sort_by(|&a, &b| {
            self.weights[b]
                .abs()
                .partial_cmp(&self.weights[a].abs())
                .unwrap()
                .then_with(|| a.cmp(&b))
        });
        idx
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

fn soft_threshold(x: f64, t: f64) -> f64 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

/// Fits L1-penalized logistic regression at a fixed `lambda`.
///
/// `x` is `samples × vars` (standardized internally), `y` holds class
/// labels 0.0 (ensemble) / 1.0 (experiment).
pub fn fit_lasso_logistic(x: &Matrix, y: &[f64], lambda: f64, max_iter: usize) -> LassoModel {
    assert_eq!(x.rows(), y.len(), "label count mismatch");
    let n = x.rows();
    let p = x.cols();
    let means = x.col_means();
    let stds = x.col_stds();
    let mut z = x.clone();
    z.standardize_with(&means, &stds, 1e-300);

    // Lipschitz constant of the logistic gradient: σ_max(Z)² / (4n),
    // bounded via the Frobenius norm (cheap, safe overestimate).
    let fro2: f64 = (0..n)
        .map(|i| z.row(i).iter().map(|v| v * v).sum::<f64>())
        .sum();
    let step = if fro2 > 0.0 {
        4.0 * n as f64 / fro2
    } else {
        1.0
    };

    let mut w = vec![0.0; p];
    let mut b = 0.0;
    let mut margins = vec![0.0; n];
    for _ in 0..max_iter {
        // margins = Z w + b
        for (i, m) in margins.iter_mut().enumerate() {
            *m = b + z.row(i).iter().zip(&w).map(|(a, c)| a * c).sum::<f64>();
        }
        // grad = Z^T (σ(m) − y) / n
        let resid: Vec<f64> = margins
            .iter()
            .zip(y)
            .map(|(&m, &yy)| sigmoid(m) - yy)
            .collect();
        let gb: f64 = resid.iter().sum::<f64>() / n as f64;
        let mut gw = vec![0.0; p];
        for (i, &r) in resid.iter().enumerate() {
            for (g, &zz) in gw.iter_mut().zip(z.row(i)) {
                *g += r * zz;
            }
        }
        let mut delta: f64 = 0.0;
        for (wi, gi) in w.iter_mut().zip(&gw) {
            let new = soft_threshold(*wi - step * gi / n as f64, step * lambda);
            delta = delta.max((new - *wi).abs());
            *wi = new;
        }
        let new_b = b - step * gb;
        delta = delta.max((new_b - b).abs());
        b = new_b;
        if delta < 1e-8 {
            break;
        }
    }
    LassoModel {
        weights: w,
        intercept: b,
        lambda,
        means,
        stds,
    }
}

/// The smallest λ at which the all-zero solution is optimal:
/// `λ_max = ‖Z^T (y − ȳ)‖_∞ / n`.
pub fn lambda_max(x: &Matrix, y: &[f64]) -> f64 {
    let n = x.rows();
    let means = x.col_means();
    let stds = x.col_stds();
    let mut z = x.clone();
    z.standardize_with(&means, &stds, 1e-300);
    let ybar = y.iter().sum::<f64>() / n as f64;
    let mut best: f64 = 0.0;
    for j in 0..x.cols() {
        let g: f64 = (0..n).map(|i| z[(i, j)] * (y[i] - ybar)).sum();
        best = best.max(g.abs() / n as f64);
    }
    best
}

/// Tunes λ along a geometric path to select approximately
/// `target_selected` variables (paper: "about five"), returning the fitted
/// model whose support size is closest to the target (ties favor the
/// sparser model, mirroring the paper's preference for small subsets).
pub fn fit_lasso_path(
    x: &Matrix,
    y: &[f64],
    target_selected: usize,
    path_len: usize,
    max_iter: usize,
) -> LassoModel {
    let lmax = lambda_max(x, y).max(1e-12);
    let lmin = lmax * 1e-3;
    let ratio = (lmin / lmax).powf(1.0 / (path_len.max(2) as f64 - 1.0));
    let mut best: Option<LassoModel> = None;
    let mut best_gap = usize::MAX;
    let mut lambda = lmax;
    for _ in 0..path_len {
        let model = fit_lasso_logistic(x, y, lambda, max_iter);
        let k = model.selected().len();
        let gap = k.abs_diff(target_selected);
        if gap < best_gap
            || (gap == best_gap && k < best.as_ref().map_or(usize::MAX, |m| m.selected().len()))
        {
            best_gap = gap;
            best = Some(model);
        }
        if k >= target_selected && best_gap == 0 {
            break;
        }
        lambda *= ratio;
    }
    best.expect("path_len must be >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two classes separated on columns listed in `informative`; all other
    /// columns are pure noise.
    fn classification_data(
        n_per_class: usize,
        vars: usize,
        informative: &[usize],
        shift: f64,
        seed: u64,
    ) -> (Matrix, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            let mut s = 0.0;
            for _ in 0..12 {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                s += (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
            }
            s - 6.0
        };
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for class in 0..2 {
            for _ in 0..n_per_class {
                let mut row: Vec<f64> = (0..vars).map(|_| next()).collect();
                if class == 1 {
                    for &j in informative {
                        row[j] += shift;
                    }
                }
                rows.push(row);
                y.push(class as f64);
            }
        }
        (Matrix::from_row_slices(&rows), y)
    }

    #[test]
    fn lambda_max_kills_all_weights() {
        let (x, y) = classification_data(40, 8, &[2], 3.0, 42);
        let lmax = lambda_max(&x, &y);
        let model = fit_lasso_logistic(&x, &y, lmax * 1.01, 500);
        assert!(model.selected().is_empty(), "{:?}", model.weights);
    }

    #[test]
    fn informative_variables_selected() {
        let (x, y) = classification_data(60, 10, &[3, 7], 4.0, 7);
        let model = fit_lasso_path(&x, &y, 2, 30, 800);
        let sel = model.selected();
        assert_eq!(sel.len(), 2, "selected {sel:?}");
        assert!(sel.contains(&3) && sel.contains(&7), "selected {sel:?}");
    }

    #[test]
    fn target_five_like_paper() {
        let (x, y) = classification_data(80, 20, &[0, 4, 8, 12, 16], 3.0, 19);
        let model = fit_lasso_path(&x, &y, 5, 40, 800);
        let sel = model.selected();
        assert!(
            (3..=7).contains(&sel.len()),
            "≈5 variables expected, got {}",
            sel.len()
        );
        // The truly informative ones dominate the selection.
        let informative = [0usize, 4, 8, 12, 16];
        let hit = sel.iter().filter(|s| informative.contains(s)).count();
        assert!(hit >= 3, "selection {sel:?}");
    }

    /// Predicted probability that `run` belongs to the experimental class,
    /// from the model's own standardization, weights and intercept.
    fn proba(model: &LassoModel, run: &[f64]) -> f64 {
        let mut z = model.intercept;
        for (i, &x) in run.iter().enumerate() {
            let s = if model.stds[i] > 1e-300 {
                model.stds[i]
            } else {
                1.0
            };
            z += model.weights[i] * (x - model.means[i]) / s;
        }
        sigmoid(z)
    }

    #[test]
    fn prediction_separates_classes() {
        let (x, y) = classification_data(50, 6, &[1], 5.0, 3);
        let model = fit_lasso_path(&x, &y, 1, 30, 800);
        // Mean predicted probability of class-1 rows > class-0 rows.
        let n = x.rows();
        let mut p0 = 0.0;
        let mut p1 = 0.0;
        for (i, &label) in y.iter().enumerate().take(n) {
            let p = proba(&model, x.row(i));
            if label == 0.0 {
                p0 += p;
            } else {
                p1 += p;
            }
        }
        // Strong L1 shrinkage pulls probabilities toward 0.5; test
        // separation, not calibration.
        let (m0, m1) = (p0 / 50.0, p1 / 50.0);
        assert!(m1 > m0 + 0.15, "classes not separated: {m0} vs {m1}");
        // An unregularized-ish refit separates sharply.
        let sharp = fit_lasso_logistic(&x, &y, 1e-4, 2000);
        let mut s0 = 0.0;
        let mut s1 = 0.0;
        for (i, &label) in y.iter().enumerate().take(n) {
            let p = proba(&sharp, x.row(i));
            if label == 0.0 {
                s0 += p;
            } else {
                s1 += p;
            }
        }
        assert!(s1 / 50.0 > 0.9, "class-1 mean prob {}", s1 / 50.0);
        assert!(s0 / 50.0 < 0.1, "class-0 mean prob {}", s0 / 50.0);
    }

    #[test]
    fn weights_ordered_by_magnitude() {
        let (x, y) = classification_data(60, 8, &[2, 5], 3.0, 23);
        let model = fit_lasso_path(&x, &y, 2, 30, 500);
        let sel = model.selected();
        for w in sel.windows(2) {
            assert!(model.weights[w[0]].abs() >= model.weights[w[1]].abs());
        }
    }

    #[test]
    #[should_panic(expected = "label count")]
    fn label_mismatch_panics() {
        let (x, _) = classification_data(10, 3, &[0], 1.0, 1);
        fit_lasso_logistic(&x, &[0.0; 3], 0.1, 10);
    }
}
