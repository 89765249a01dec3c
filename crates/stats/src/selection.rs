//! Variable selection: which output variables are most affected?
//!
//! Paper §3: after a UF-CAM-ECT failure, the pipeline identifies the CAM
//! output variables most affected by the discrepancy. Two methods:
//!
//! 1. **Median distance**: standardize each variable by its ensemble
//!    mean/σ, keep variables whose ensemble and experimental IQRs do not
//!    overlap, rank by descending distance between medians.
//! 2. **Lasso** (in [`crate::lasso`]): logistic regression with an L1
//!    penalty tuned to select ≈5 variables that best classify ensemble vs.
//!    experimental members.
//!
//! "The variables selected by the lasso (and their order) mostly coincide
//! with the order produced by computing the distance between standardized
//! medians."

use crate::descriptive::{iqr_bounds, median, standardize};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// One selected variable with its evidence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectedVariable {
    /// Column index into the data matrices.
    pub index: usize,
    /// Distance between standardized ensemble and experimental medians.
    pub median_distance: f64,
    /// Whether the standardized IQRs were disjoint.
    pub iqr_disjoint: bool,
}

/// Ranks variables by the median-distance method.
///
/// `ensemble` and `experiment` are `runs × vars` matrices over the same
/// variable columns. Variables are standardized by **ensemble** statistics;
/// only variables with disjoint IQRs are returned unless
/// `require_disjoint_iqr` is false (then all variables are returned ranked,
/// useful for diagnostics). Result is sorted by descending median distance.
pub fn median_distance_selection(
    ensemble: &Matrix,
    experiment: &Matrix,
    require_disjoint_iqr: bool,
) -> Vec<SelectedVariable> {
    assert_eq!(
        ensemble.cols(),
        experiment.cols(),
        "variable sets must match"
    );
    let means = ensemble.col_means();
    let stds = ensemble.col_stds();
    let mut out = Vec::new();
    for j in 0..ensemble.cols() {
        let ecol = standardize(&ensemble.col(j), means[j], stds[j], 1e-300);
        let xcol = standardize(&experiment.col(j), means[j], stds[j], 1e-300);
        let dist = (median(&ecol) - median(&xcol)).abs();
        let (e1, e3) = iqr_bounds(&ecol);
        let (x1, x3) = iqr_bounds(&xcol);
        let disjoint = !(e1 <= x3 && x1 <= e3);
        if disjoint || !require_disjoint_iqr {
            out.push(SelectedVariable {
                index: j,
                median_distance: dist,
                iqr_disjoint: disjoint,
            });
        }
    }
    out.sort_by(|a, b| {
        b.median_distance
            .partial_cmp(&a.median_distance)
            .expect("NaN median distance")
            .then_with(|| a.index.cmp(&b.index))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ensemble ~ N(0,1) per var; experiment shifts selected columns.
    fn data(shifts: &[f64], n_ens: usize, n_exp: usize, seed: u64) -> (Matrix, Matrix) {
        let vars = shifts.len();
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
        let ens: Vec<Vec<f64>> = (0..n_ens)
            .map(|_| (0..vars).map(|_| next()).collect())
            .collect();
        let exp: Vec<Vec<f64>> = (0..n_exp)
            .map(|_| shifts.iter().map(|&sh| next() + sh).collect())
            .collect();
        (Matrix::from_row_slices(&ens), Matrix::from_row_slices(&exp))
    }

    #[test]
    fn shifted_variable_ranked_first() {
        let (ens, exp) = data(&[0.0, 8.0, 0.0, 3.0], 80, 40, 77);
        let sel = median_distance_selection(&ens, &exp, true);
        assert!(!sel.is_empty());
        assert_eq!(sel[0].index, 1, "largest shift first: {sel:?}");
        assert!(sel.iter().all(|s| s.iqr_disjoint));
        // Unshifted variables must not appear with disjoint-IQR filtering.
        assert!(sel.iter().all(|s| s.index == 1 || s.index == 3));
    }

    #[test]
    fn wsub_style_dominance() {
        // WSUBBUG (§6.1): the affected variable's median distance is >1000×
        // the runner-up. Verify the ratio is computed faithfully.
        let (ens, exp) = data(&[0.0, 5000.0, 0.004, 0.0], 80, 40, 99);
        let sel = median_distance_selection(&ens, &exp, false);
        assert_eq!(sel[0].index, 1);
        assert!(
            sel[0].median_distance / sel[1].median_distance.max(1e-12) > 1000.0,
            "dominance ratio: {} / {}",
            sel[0].median_distance,
            sel[1].median_distance
        );
    }

    #[test]
    fn no_shift_selects_nothing() {
        let (ens, exp) = data(&[0.0, 0.0, 0.0], 80, 40, 13);
        let sel = median_distance_selection(&ens, &exp, true);
        assert!(
            sel.len() <= 1,
            "overlapping IQRs should filter nearly everything: {sel:?}"
        );
    }

    #[test]
    fn unfiltered_returns_all_ranked() {
        let (ens, exp) = data(&[0.0, 2.0], 50, 25, 5);
        let sel = median_distance_selection(&ens, &exp, false);
        assert_eq!(sel.len(), 2);
        assert!(sel[0].median_distance >= sel[1].median_distance);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_vars_panics() {
        let (ens, _) = data(&[0.0], 10, 5, 1);
        let (_, exp) = data(&[0.0, 0.0], 10, 5, 2);
        median_distance_selection(&ens, &exp, true);
    }
}
