//! Descriptive statistics: means, medians, quantiles, IQRs.
//!
//! The paper's first variable-selection method (§3) "measures distances
//! between the distribution medians of the ensemble and experimental runs"
//! after standardizing "by its ensemble mean and standard deviation", then
//! keeps variables "whose interquartile ranges (IQRs) of ensemble and
//! experimental distributions do not overlap".

/// Arithmetic mean; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linear-interpolation quantile (type 7, NumPy default). `q` in `[0, 1]`.
///
/// # Panics
/// Panics on empty input or `q` outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "q must be within [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile range as `(q1, q3)`.
pub fn iqr_bounds(xs: &[f64]) -> (f64, f64) {
    (quantile(xs, 0.25), quantile(xs, 0.75))
}

/// Standardizes `xs` by the given location/scale; scale below `eps` only
/// centers (mirrors the ECT treatment of constant variables).
pub fn standardize(xs: &[f64], loc: f64, scale: f64, eps: f64) -> Vec<f64> {
    xs.iter()
        .map(|&x| {
            let c = x - loc;
            if scale > eps {
                c / scale
            } else {
                c
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_known() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(median(&xs), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn standardize_handles_zero_scale() {
        let out = standardize(&[1.0, 2.0], 1.0, 0.0, 1e-12);
        assert_eq!(out, vec![0.0, 1.0]);
        let out = standardize(&[10.0, 20.0], 10.0, 10.0, 1e-12);
        assert_eq!(out, vec![0.0, 1.0]);
    }
}
