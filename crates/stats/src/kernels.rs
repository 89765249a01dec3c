//! Chunked column kernels for outputs-wide plane operations.
//!
//! The hot tails of ensemble assembly — keep-set refinement over a step
//! plane, column gather into a matrix row, history publication — are
//! element-wise loops over contiguous `f64`/`u32`/`bool` columns. Written
//! as branchless fixed-width chunks (bitwise `&` on `bool`, no
//! short-circuit, no data-dependent branches) they autovectorize under
//! the workspace's safe-code constraint: no intrinsics, no `unsafe`, the
//! compiler picks the lanes.
//!
//! Every kernel is **bit-safe**: pure copies, comparisons, and boolean
//! algebra. No floating-point arithmetic is reassociated or fused here —
//! the engines' bit-identity contract (see `rca-sim`'s differential
//! suite) is untouched by routing a caller through these.

/// Lane width of the chunked loops. Eight 64-bit elements is one AVX-512
/// register or two AVX2 registers — wide enough that LLVM unrolls or
/// vectorizes the body, small enough that the scalar remainder is cheap.
const LANES: usize = 8;

/// Branchless keep-set refinement over one member's step plane:
/// `keep[i] &= written[i] > step && plane[i].is_finite()`, without the
/// short-circuits. Exactly the per-member loop of a finite-outputs scan;
/// call once per member, then harvest with [`keep_to_ids`].
///
/// # Panics
/// Panics if the three columns disagree in length.
pub fn keep_refine(keep: &mut [bool], written: &[u32], plane: &[f64], step: u32) {
    assert_eq!(keep.len(), written.len(), "column length mismatch");
    assert_eq!(keep.len(), plane.len(), "column length mismatch");
    let mut k = keep.chunks_exact_mut(LANES);
    let mut w = written.chunks_exact(LANES);
    let mut x = plane.chunks_exact(LANES);
    for ((kc, wc), xc) in (&mut k).zip(&mut w).zip(&mut x) {
        for i in 0..LANES {
            kc[i] = kc[i] & (wc[i] > step) & xc[i].is_finite();
        }
    }
    for ((kr, &wr), &xr) in k
        .into_remainder()
        .iter_mut()
        .zip(w.remainder())
        .zip(x.remainder())
    {
        *kr = *kr & (wr > step) & xr.is_finite();
    }
}

/// Dense ids (positions) of the set entries of a keep mask, in order —
/// the harvest step after [`keep_refine`] passes.
pub fn keep_to_ids(keep: &[bool]) -> Vec<u32> {
    keep.iter()
        .enumerate()
        .filter(|&(_, &k)| k)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Column gather: appends `row[keep[..]]` to `dst`, in keep order — one
/// matrix row assembled from a full-width plane. The indexed loads are
/// independent, so the chunked body is free to overlap them.
///
/// # Panics
/// Panics (indexing) if any id in `keep` is out of bounds for `row`.
pub fn gather_into(dst: &mut Vec<f64>, row: &[f64], keep: &[u32]) {
    dst.reserve(keep.len());
    let mut ks = keep.chunks_exact(LANES);
    for kc in &mut ks {
        let mut lane = [0.0f64; LANES];
        for i in 0..LANES {
            lane[i] = row[kc[i] as usize];
        }
        dst.extend_from_slice(&lane);
    }
    dst.extend(ks.remainder().iter().map(|&k| row[k as usize]));
}

/// Publishes a run's history prefix into a store chunk: copies
/// `min(src.len(), dst.len())` leading elements (the store is NaN-filled
/// past the rows a run reached) and returns the count copied. A straight
/// `copy_from_slice` memcpy — the kernel exists so every publication
/// site shares the one clamped-prefix idiom.
pub fn publish(dst: &mut [f64], src: &[f64]) -> usize {
    let n = src.len().min(dst.len());
    dst[..n].copy_from_slice(&src[..n]);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_refine_matches_scalar_loop() {
        // 19 elements: two full lanes plus a remainder.
        let n = 19;
        let written: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
        let plane: Vec<f64> = (0..n)
            .map(|i| match i % 5 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => i as f64,
            })
            .collect();
        for step in 0..8u32 {
            let mut fast = vec![true; n];
            fast[3] = false; // pre-cleared entries stay cleared
            let mut slow = fast.clone();
            keep_refine(&mut fast, &written, &plane, step);
            for i in 0..n {
                slow[i] = slow[i] && (written[i] > step) && plane[i].is_finite();
            }
            assert_eq!(fast, slow, "step {step}");
        }
    }

    #[test]
    fn gather_matches_indexing() {
        let row: Vec<f64> = (0..23).map(|i| i as f64 * 1.5).collect();
        let keep: Vec<u32> = vec![0, 2, 3, 5, 7, 11, 13, 17, 19, 22];
        let mut dst = vec![-1.0];
        gather_into(&mut dst, &row, &keep);
        let expect: Vec<f64> = std::iter::once(-1.0)
            .chain(keep.iter().map(|&k| row[k as usize]))
            .collect();
        assert_eq!(dst, expect);
    }

    #[test]
    fn publish_clamps_to_shorter_side() {
        let mut dst = vec![f64::NAN; 5];
        assert_eq!(publish(&mut dst, &[1.0, 2.0]), 2);
        assert_eq!(&dst[..2], &[1.0, 2.0]);
        assert!(dst[2..].iter().all(|x| x.is_nan()));
        let mut short = vec![0.0; 2];
        assert_eq!(publish(&mut short, &[7.0, 8.0, 9.0]), 2);
        assert_eq!(short, vec![7.0, 8.0]);
    }

    #[test]
    fn keep_ids_are_positions() {
        assert_eq!(
            keep_to_ids(&[true, false, true, true, false]),
            vec![0, 2, 3]
        );
        assert!(keep_to_ids(&[false; 4]).is_empty());
    }
}
