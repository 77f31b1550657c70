//! Runtime-dispatched SIMD hot kernels with bit-identical scalar fallbacks.
//!
//! The decode hot path spends most of its time in four elementwise loops:
//! the squared-magnitude differential series of edge detection, the
//! sqrt-deviation pass of the robust threshold, the sub-threshold skip scan
//! of peak detection, and the nearest-centroid assignment of k-means. All
//! four operate on structure-of-arrays `&[f64]` slices (see
//! [`lf_types::IqBuffer`] and DESIGN.md §15) so the vector variants can use
//! plain unaligned loads instead of gathers.
//!
//! **Determinism policy (DESIGN.md §15):** every kernel here has exactly one
//! observable result. The AVX-512 variants perform the *same* IEEE-754
//! operations as the scalar spellings — elementwise add/sub/mul (never FMA,
//! which contracts two roundings into one), correctly-rounded `sqrt`, and
//! bitwise `abs` — so scalar and vector outputs are bit-identical on every
//! input, pinned by the `simd_equivalence` proptests and asserted again by
//! the golden decode digest. Backend selection can therefore never change a
//! decode.
//!
//! Selection order: the target must be x86_64, the build must not be
//! under Miri (Miri cannot execute vendor intrinsics), the process-wide
//! scalar override ([`set_scalar_override`]) must be off, and `avx512f`
//! must be detected at runtime. Anything else runs the scalar fallbacks,
//! which are always compiled: they are the proptest oracle.

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide kill switch for the vector kernels (used by the
/// equivalence tests and available to operators chasing a suspected
/// miscompile). `true` forces every kernel onto its scalar fallback.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces (or un-forces) every kernel onto its scalar fallback,
/// process-wide. Outputs are bit-identical either way; this only changes
/// which instructions produce them.
pub fn set_scalar_override(force: bool) {
    // ordering: Relaxed suffices — the flag is an independent boolean with
    // no data published alongside it; readers only need to eventually see
    // the store, and the equivalence tests toggle it on a single thread.
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Which kernel implementation [`active_backend`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar fallbacks (always available; the reference
    /// spelling every other backend is pinned against).
    Scalar,
    /// 8-lane f64 kernels using AVX-512F.
    Avx512f,
}

/// Resolves the backend the kernels will use for the current call.
pub fn active_backend() -> Backend {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        // ordering: Relaxed suffices — the flag guards no other memory;
        // either backend produces bit-identical outputs, so a stale read
        // only changes which instructions compute them.
        if !FORCE_SCALAR.load(Ordering::Relaxed) && is_x86_feature_detected!("avx512f") {
            return Backend::Avx512f;
        }
    }
    Backend::Scalar
}

/// The squared-magnitude differential series of edge detection (§3.1).
///
/// `re`/`im` are the split *prefix-sum* arrays of one epoch (length
/// `n + 1`, leading zero). For every sample `t` in
/// `[guard + window, n - guard - window)` this computes the windowed-mean
/// IQ differential across `t` and writes its squared magnitude to
/// `out[t]`; samples inside the margins get `0.0` (their averaging windows
/// would clamp and the "differential" would be the raw reflection level).
///
/// Bitwise identical to the scalar spelling
/// `(mean(t+g, t+g+w) - mean(t-g-w, t-g)).norm_sqr()` over
/// `PrefixSums::mean`.
pub fn diff_msq_into(re: &[f64], im: &[f64], guard: usize, window: usize, out: &mut Vec<f64>) {
    assert_eq!(re.len(), im.len(), "re/im prefix length mismatch");
    assert!(window > 0, "window must be positive");
    let n = re.len().saturating_sub(1);
    out.clear();
    out.resize(n, 0.0);
    let margin = guard + window;
    let (Some(hi), lo) = (n.checked_sub(margin), margin) else {
        return;
    };
    if lo >= hi {
        return;
    }
    match active_backend() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Backend::Avx512f => x86::diff_msq(re, im, lo, hi, guard, window, out),
        _ => diff_msq_scalar(re, im, lo, hi, guard, window, out),
    }
}

/// Scalar reference for [`diff_msq_into`] over `t ∈ [lo, hi)`.
// hot-kernel begin (no-aos-hotloop: SoA slices only in this region)
fn diff_msq_scalar(
    re: &[f64],
    im: &[f64],
    lo: usize,
    hi: usize,
    g: usize,
    w: usize,
    out: &mut [f64],
) {
    let inv = 1.0 / w as f64;
    for t in lo..hi {
        let a_re = (re[t + g + w] - re[t + g]) * inv;
        let a_im = (im[t + g + w] - im[t + g]) * inv;
        let b_re = (re[t - g] - re[t - g - w]) * inv;
        let b_im = (im[t - g] - im[t - g - w]) * inv;
        let d_re = a_re - b_re;
        let d_im = a_im - b_im;
        out[t] = d_re * d_re + d_im * d_im;
    }
}
// hot-kernel end

/// The sqrt-deviation pass of the robust threshold: rewrites `out` to
/// `|sqrt(msq[i]) - med|` for every element. IEEE `sqrt` is correctly
/// rounded and `abs` clears the sign bit, so the vector variant is
/// bit-identical to the scalar spelling `(v.sqrt() - med).abs()`.
pub fn sqrt_abs_dev_into(msq: &[f64], med: f64, out: &mut Vec<f64>) {
    out.clear();
    out.resize(msq.len(), 0.0);
    match active_backend() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Backend::Avx512f => x86::sqrt_abs_dev(msq, med, out),
        _ => sqrt_abs_dev_scalar(msq, med, out),
    }
}

/// Scalar reference for [`sqrt_abs_dev_into`].
fn sqrt_abs_dev_scalar(msq: &[f64], med: f64, out: &mut [f64]) {
    for (o, &v) in out.iter_mut().zip(msq) {
        *o = (v.sqrt() - med).abs();
    }
}

/// The smallest `i >= from` with `!(series[i] < cutoff)` (i.e. the first
/// sample the peak scan must actually examine; NaN stops the scan exactly
/// as it does in the scalar loop), or `series.len()` when the tail is all
/// sub-threshold. This is the skip scan that lets `find_peaks` move
/// through the ~99 % of a quiet epoch that sits below the noise floor at
/// memory speed.
pub fn first_at_or_above(series: &[f64], from: usize, cutoff: f64) -> usize {
    let n = series.len();
    let mut i = from.min(n);
    match active_backend() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Backend::Avx512f => x86::first_at_or_above(series, i, cutoff),
        _ => {
            while i < n && series[i] < cutoff {
                i += 1;
            }
            i
        }
    }
}

/// Nearest-centroid assignment (k-means inner loop, §3.3): for every point
/// `(pre[i], pim[i])`, finds the centroid `(cre[j], cim[j])` minimizing
/// the squared distance `(px-cx)² + (py-cy)²` and writes the *first*
/// minimizing index to `idx[i]` and its distance to `dist[i]`.
///
/// First-minimum semantics match `Iterator::min_by(f64::total_cmp)` over
/// finite distances: the running best is replaced only on a strict `<`.
/// With no centroids every point gets index 0 and distance `+∞`.
pub fn nearest_centroid_into(
    pre: &[f64],
    pim: &[f64],
    cre: &[f64],
    cim: &[f64],
    idx: &mut Vec<u32>,
    dist: &mut Vec<f64>,
) {
    assert_eq!(pre.len(), pim.len(), "point re/im length mismatch");
    assert_eq!(cre.len(), cim.len(), "centroid re/im length mismatch");
    idx.clear();
    idx.resize(pre.len(), 0);
    dist.clear();
    dist.resize(pre.len(), f64::INFINITY);
    if cre.is_empty() {
        return;
    }
    match active_backend() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Backend::Avx512f => x86::nearest_centroid(pre, pim, cre, cim, idx, dist),
        _ => nearest_centroid_scalar(pre, pim, cre, cim, idx, dist),
    }
}

/// Scalar reference for [`nearest_centroid_into`].
// hot-kernel begin (no-aos-hotloop: SoA slices only in this region)
fn nearest_centroid_scalar(
    pre: &[f64],
    pim: &[f64],
    cre: &[f64],
    cim: &[f64],
    idx: &mut [u32],
    dist: &mut [f64],
) {
    for i in 0..pre.len() {
        let (px, py) = (pre[i], pim[i]);
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for (j, (&cx, &cy)) in cre.iter().zip(cim).enumerate() {
            let dx = px - cx;
            let dy = py - cy;
            let d = dx * dx + dy * dy;
            if d < best_d {
                best_d = d;
                best = j as u32;
            }
        }
        idx[i] = best;
        dist[i] = best_d;
    }
}
// hot-kernel end

/// AVX-512F variants. Every loop performs the same IEEE operations as its
/// scalar reference, lane by lane; tails re-enter the scalar spelling.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[allow(unsafe_code)]
mod x86 {
    use core::arch::x86_64::{
        __m512d, _mm512_andnot_pd, _mm512_castsi512_pd, _mm512_cmp_pd_mask, _mm512_loadu_pd,
        _mm512_mask_blend_pd, _mm512_mul_pd, _mm512_set1_epi64, _mm512_set1_pd, _mm512_sqrt_pd,
        _mm512_storeu_pd, _mm512_sub_pd, _CMP_LT_OQ, _CMP_NLT_UQ,
    };

    const LANES: usize = 8;

    /// Re-asserts CPU support (a cached atomic load), then enters the
    /// vector kernel. The dispatcher only routes here after detection, so
    /// the assert is a backstop that keeps this entry point sound.
    pub(super) fn diff_msq(
        re: &[f64],
        im: &[f64],
        lo: usize,
        hi: usize,
        g: usize,
        w: usize,
        out: &mut [f64],
    ) {
        assert!(is_x86_feature_detected!("avx512f"), "avx512f not available");
        // SAFETY: avx512f verified above; slice bounds are established by
        // `super::diff_msq_into` (see the kernel's safety contract).
        unsafe { diff_msq_avx512(re, im, lo, hi, g, w, out) }
    }

    /// Safe entry for [`sqrt_abs_dev_avx512`]; see [`diff_msq`].
    pub(super) fn sqrt_abs_dev(msq: &[f64], med: f64, out: &mut [f64]) {
        assert!(is_x86_feature_detected!("avx512f"), "avx512f not available");
        // SAFETY: avx512f verified above; `out` is resized to `msq.len()`
        // by the dispatcher.
        unsafe { sqrt_abs_dev_avx512(msq, med, out) }
    }

    /// Safe entry for [`first_at_or_above_avx512`]; see [`diff_msq`].
    pub(super) fn first_at_or_above(series: &[f64], from: usize, cutoff: f64) -> usize {
        assert!(is_x86_feature_detected!("avx512f"), "avx512f not available");
        // SAFETY: avx512f verified above; `from <= series.len()` is
        // clamped by the dispatcher.
        unsafe { first_at_or_above_avx512(series, from, cutoff) }
    }

    /// Safe entry for [`nearest_centroid_avx512`]; see [`diff_msq`].
    pub(super) fn nearest_centroid(
        pre: &[f64],
        pim: &[f64],
        cre: &[f64],
        cim: &[f64],
        idx: &mut [u32],
        dist: &mut [f64],
    ) {
        assert!(is_x86_feature_detected!("avx512f"), "avx512f not available");
        // SAFETY: avx512f verified above; the dispatcher sizes `idx` and
        // `dist` to `pre.len()` and rejects empty centroid sets.
        unsafe { nearest_centroid_avx512(pre, pim, cre, cim, idx, dist) }
    }

    /// # Safety
    /// Caller must have verified `avx512f` is available; `re`/`im` must be
    /// prefix arrays of length `n + 1 > hi - 1 + g + w` with
    /// `lo >= g + w` (both guaranteed by [`super::diff_msq_into`]).
    #[target_feature(enable = "avx512f")]
    unsafe fn diff_msq_avx512(
        re: &[f64],
        im: &[f64],
        lo: usize,
        hi: usize,
        g: usize,
        w: usize,
        out: &mut [f64],
    ) {
        // SAFETY: all loads below read 8 consecutive f64s starting at
        // indices in [t - g - w, t + g + w] with t + LANES <= hi, so the
        // furthest element is (hi - 1) + g + w <= n - 1 < re.len(); the
        // store writes out[t .. t + 8] with t + 8 <= hi <= out.len().
        unsafe {
            let inv = _mm512_set1_pd(1.0 / w as f64);
            let mut t = lo;
            while t + LANES <= hi {
                let a_hi_re = _mm512_loadu_pd(re.as_ptr().add(t + g + w));
                let a_lo_re = _mm512_loadu_pd(re.as_ptr().add(t + g));
                let a_hi_im = _mm512_loadu_pd(im.as_ptr().add(t + g + w));
                let a_lo_im = _mm512_loadu_pd(im.as_ptr().add(t + g));
                let b_hi_re = _mm512_loadu_pd(re.as_ptr().add(t - g));
                let b_lo_re = _mm512_loadu_pd(re.as_ptr().add(t - g - w));
                let b_hi_im = _mm512_loadu_pd(im.as_ptr().add(t - g));
                let b_lo_im = _mm512_loadu_pd(im.as_ptr().add(t - g - w));
                let a_re = _mm512_mul_pd(_mm512_sub_pd(a_hi_re, a_lo_re), inv);
                let a_im = _mm512_mul_pd(_mm512_sub_pd(a_hi_im, a_lo_im), inv);
                let b_re = _mm512_mul_pd(_mm512_sub_pd(b_hi_re, b_lo_re), inv);
                let b_im = _mm512_mul_pd(_mm512_sub_pd(b_hi_im, b_lo_im), inv);
                let d_re = _mm512_sub_pd(a_re, b_re);
                let d_im = _mm512_sub_pd(a_im, b_im);
                // mul + add, not FMA: one rounding per operation, exactly
                // like the scalar `d_re * d_re + d_im * d_im`.
                let msq = _mm512_add_pd_exact(_mm512_mul_pd(d_re, d_re), _mm512_mul_pd(d_im, d_im));
                _mm512_storeu_pd(out.as_mut_ptr().add(t), msq);
                t += LANES;
            }
            super::diff_msq_scalar(re, im, t, hi, g, w, out);
        }
    }

    /// Plain vector add, named to make the no-FMA policy greppable.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn _mm512_add_pd_exact(a: __m512d, b: __m512d) -> __m512d {
        core::arch::x86_64::_mm512_add_pd(a, b)
    }

    /// # Safety
    /// Caller must have verified `avx512f`; `out.len() == msq.len()`.
    #[target_feature(enable = "avx512f")]
    unsafe fn sqrt_abs_dev_avx512(msq: &[f64], med: f64, out: &mut [f64]) {
        // SAFETY: every load/store touches indices [i, i + 8) with
        // i + LANES <= msq.len() == out.len().
        unsafe {
            let m = _mm512_set1_pd(med);
            // abs = clear the sign bit, exactly `f64::abs`.
            let sign = _mm512_castsi512_pd(_mm512_set1_epi64(i64::MIN));
            let n = msq.len();
            let mut i = 0;
            while i + LANES <= n {
                let v = _mm512_loadu_pd(msq.as_ptr().add(i));
                let dev = _mm512_sub_pd(_mm512_sqrt_pd(v), m);
                _mm512_storeu_pd(out.as_mut_ptr().add(i), _mm512_andnot_pd(sign, dev));
                i += LANES;
            }
            super::sqrt_abs_dev_scalar(&msq[i..], med, &mut out[i..]);
        }
    }

    /// # Safety
    /// Caller must have verified `avx512f`; `from <= series.len()`.
    #[target_feature(enable = "avx512f")]
    unsafe fn first_at_or_above_avx512(series: &[f64], from: usize, cutoff: f64) -> usize {
        // SAFETY: loads touch [i, i + 8) with i + LANES <= series.len().
        unsafe {
            let c = _mm512_set1_pd(cutoff);
            let n = series.len();
            let mut i = from;
            while i + LANES <= n {
                let v = _mm512_loadu_pd(series.as_ptr().add(i));
                // Not-less-than, unordered: true for v >= cutoff *and* for
                // NaN — the exact complement of the scalar `v < cutoff`.
                let stop = _mm512_cmp_pd_mask::<_CMP_NLT_UQ>(v, c);
                if stop != 0 {
                    return i + stop.trailing_zeros() as usize;
                }
                i += LANES;
            }
            while i < n && series[i] < cutoff {
                i += 1;
            }
            i
        }
    }

    /// # Safety
    /// Caller must have verified `avx512f`; `idx`/`dist` must be
    /// `pre.len()` long, `cre`/`cim` non-empty and equal-length.
    #[target_feature(enable = "avx512f")]
    unsafe fn nearest_centroid_avx512(
        pre: &[f64],
        pim: &[f64],
        cre: &[f64],
        cim: &[f64],
        idx: &mut [u32],
        dist: &mut [f64],
    ) {
        // SAFETY: point loads and the dist store touch [i, i + 8) with
        // i + LANES <= pre.len() == pim.len() == dist.len() == idx.len();
        // the best-index vector is spilled through a fixed [i64; 8].
        unsafe {
            let n = pre.len();
            let mut i = 0;
            while i + LANES <= n {
                let px = _mm512_loadu_pd(pre.as_ptr().add(i));
                let py = _mm512_loadu_pd(pim.as_ptr().add(i));
                let mut best_d = _mm512_set1_pd(f64::INFINITY);
                let mut best_i = _mm512_set1_epi64(0);
                for (j, (&cx, &cy)) in cre.iter().zip(cim).enumerate() {
                    let dx = _mm512_sub_pd(px, _mm512_set1_pd(cx));
                    let dy = _mm512_sub_pd(py, _mm512_set1_pd(cy));
                    let d = _mm512_add_pd_exact(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
                    // Strict `<` keeps the first minimum, like the scalar.
                    let better = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, best_d);
                    best_d = _mm512_mask_blend_pd(better, best_d, d);
                    best_i = core::arch::x86_64::_mm512_mask_blend_epi64(
                        better,
                        best_i,
                        _mm512_set1_epi64(j as i64),
                    );
                }
                _mm512_storeu_pd(dist.as_mut_ptr().add(i), best_d);
                let mut lanes = [0i64; LANES];
                core::arch::x86_64::_mm512_storeu_si512(lanes.as_mut_ptr().cast(), best_i);
                for (k, &l) in lanes.iter().enumerate() {
                    idx[i + k] = l as u32;
                }
                i += LANES;
            }
            super::nearest_centroid_scalar(
                &pre[i..],
                &pim[i..],
                cre,
                cim,
                &mut idx[i..],
                &mut dist[i..],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
    }

    #[test]
    fn backend_override_round_trips() {
        let initial = active_backend();
        set_scalar_override(true);
        assert_eq!(active_backend(), Backend::Scalar);
        set_scalar_override(false);
        assert_eq!(active_backend(), initial);
    }

    #[test]
    fn diff_msq_margins_are_zero_and_interior_matches_scalar() {
        let mut st = 0x9e37_79b9_7f4a_7c15_u64;
        let n = 300;
        let mut re = vec![0.0];
        let mut im = vec![0.0];
        for _ in 0..n {
            re.push(re.last().copied().unwrap_or(0.0) + xorshift(&mut st));
            im.push(im.last().copied().unwrap_or(0.0) + xorshift(&mut st));
        }
        let (g, w) = (2usize, 4usize);
        let mut got = Vec::new();
        diff_msq_into(&re, &im, g, w, &mut got);
        let mut want = vec![0.0; n];
        diff_msq_scalar(&re, &im, g + w, n - g - w, g, w, &mut want);
        assert_eq!(got.len(), n);
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for t in 0..(g + w) {
            assert_eq!(got[t].to_bits(), 0);
            assert_eq!(got[n - 1 - t].to_bits(), 0);
        }
    }

    #[test]
    fn degenerate_sizes_are_safe() {
        let mut out = Vec::new();
        diff_msq_into(&[0.0], &[0.0], 3, 5, &mut out);
        assert!(out.is_empty());
        // Margin swallows the whole series: all zeros.
        let re = vec![0.0; 9];
        diff_msq_into(&re, &re, 3, 5, &mut out);
        assert_eq!(out, vec![0.0; 8]);
        sqrt_abs_dev_into(&[], 1.0, &mut out);
        assert!(out.is_empty());
        assert_eq!(first_at_or_above(&[], 0, 1.0), 0);
        assert_eq!(first_at_or_above(&[1.0], 5, 0.0), 1);
        let (mut idx, mut dist) = (Vec::new(), Vec::new());
        nearest_centroid_into(&[1.0], &[1.0], &[], &[], &mut idx, &mut dist);
        assert_eq!(idx, vec![0]);
        assert_eq!(dist, vec![f64::INFINITY]);
    }

    #[test]
    fn first_at_or_above_handles_nan_like_the_scalar_loop() {
        let mut s = vec![0.0; 40];
        s[17] = f64::NAN; // `NaN < cutoff` is false: the scan must stop.
        assert_eq!(first_at_or_above(&s, 0, 1.0), 17);
        s[17] = 2.0;
        assert_eq!(first_at_or_above(&s, 0, 1.0), 17);
        assert_eq!(first_at_or_above(&s, 18, 1.0), 40);
    }

    #[test]
    fn nearest_centroid_keeps_first_minimum_on_ties() {
        // Two identical centroids: every point must resolve to index 0.
        let pre: Vec<f64> = (0..20).map(|k| k as f64).collect();
        let pim = vec![0.5; 20];
        let (mut idx, mut dist) = (Vec::new(), Vec::new());
        nearest_centroid_into(&pre, &pim, &[3.0, 3.0], &[0.0, 0.0], &mut idx, &mut dist);
        assert!(idx.iter().all(|&j| j == 0));
        assert!(dist.iter().all(|d| d.is_finite()));
    }
}
