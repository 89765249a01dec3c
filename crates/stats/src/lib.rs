//! # rca-stats — statistics substrate for climate-rca
//!
//! The paper's front end is statistical: a PCA-based **ensemble consistency
//! test** (UF-CAM-ECT, refs [2, 24]) decides whether an experimental run is
//! statistically distinguishable, and two **variable selection** methods
//! (standardized median distance with IQR filtering, and lasso logistic
//! regression tuned to ≈5 variables, §3) identify the output variables most
//! affected. The paper's KGen comparison step flags kernel variables whose
//! **normalized RMS** differs beyond 10⁻¹² (§6.4).
//!
//! Everything here is implemented from scratch on a small dense-matrix
//! layer:
//!
//! - [`matrix`]: row-major dense matrices, covariance, standardization.
//! - [`descriptive`][]: means/medians/quantiles/IQRs.
//! - [`eigen`]: cyclic Jacobi symmetric eigendecomposition.
//! - [`pca`]: correlation PCA (fit/project).
//! - [`ect`]: the ensemble consistency test with Pass/Fail verdicts and
//!   failure-rate estimation (paper Table 1 reports ECT failure rates).
//! - [`selection`]: median-distance/IQR variable ranking (§3, method 1).
//! - [`lasso`]: L1-penalized logistic regression with λ-path tuning
//!   (§3, method 2).
//! - [`mod@rms`]: normalized-RMS comparison (KGen's verification metric).

pub mod descriptive;
pub mod ect;
pub mod eigen;
pub mod lasso;
pub mod matrix;
pub mod pca;
pub mod rms;
pub mod selection;

pub use descriptive::{iqr_bounds, mean, median, quantile, standardize};
pub use ect::{Ect, EctConfig, RunVerdict, Verdict};
pub use eigen::{jacobi_eigen, EigenDecomposition};
pub use lasso::{fit_lasso_logistic, fit_lasso_path, lambda_max, LassoModel};
pub use matrix::Matrix;
pub use pca::Pca;
pub use rms::{normalized_rms_diff, rms, KGEN_RMS_THRESHOLD};
pub use selection::{median_distance_selection, SelectedVariable};
