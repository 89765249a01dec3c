//! Normalized root-mean-square comparison (the KGen verification metric).
//!
//! Paper §6.4: "KGen flags 42 variables as exhibiting normalized RMS value
//! differences exceeding 10⁻¹²" between AVX2-enabled and AVX2-disabled
//! kernel executions. This module implements that comparator for the kernel
//! extractor in `rca-sim`.

/// Default flagging threshold used by the paper's KGen runs.
pub const KGEN_RMS_THRESHOLD: f64 = 1e-12;

/// Root mean square of a slice (0 for empty input).
pub fn rms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Normalized RMS difference: `RMS(a − b) / RMS(a)`, with a zero-baseline
/// fallback to the un-normalized RMS (so a zero baseline with nonzero
/// comparison still flags).
///
/// # Panics
/// Panics if lengths differ.
pub fn normalized_rms_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let base = rms(a);
    let d = rms(&diff);
    if base > 0.0 {
        d / base
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rms_known() {
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(rms(&[3.0, 4.0]), (12.5f64).sqrt());
    }

    #[test]
    fn identical_arrays_zero() {
        let a = [1.0, -2.0, 3.0];
        assert_eq!(normalized_rms_diff(&a, &a), 0.0);
    }

    #[test]
    fn ulp_size_difference_detected() {
        // One-ULP perturbations (FMA-scale effects) sit around 1e-16
        // relative — below the 1e-12 threshold individually, but a
        // systematic 1e-10 relative bias is flagged.
        let a = [1.0f64; 100];
        let tiny: Vec<f64> = a.iter().map(|x| x + 1e-16).collect();
        let biased: Vec<f64> = a.iter().map(|x| x + 1e-10).collect();
        assert!(normalized_rms_diff(&a, &tiny) <= KGEN_RMS_THRESHOLD);
        assert!(normalized_rms_diff(&a, &biased) > KGEN_RMS_THRESHOLD);
    }

    #[test]
    fn zero_baseline_fallback() {
        let z = [0.0, 0.0];
        let b = [1e-6, 0.0];
        let n = normalized_rms_diff(&z, &b);
        assert!(n > 0.0 && n.is_finite());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        normalized_rms_diff(&[1.0], &[1.0, 2.0]);
    }
}
