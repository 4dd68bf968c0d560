//! Unified, cheaply-cloneable distribution summaries.
//!
//! The monitoring→scheduling data plane hands per-path bandwidth
//! distributions from the monitoring module down to resource mapping and
//! the PGOS scheduler once per scheduling window. [`CdfSummary`] is the
//! single currency for that hand-off: one enum over the three summary
//! back-ends, every variant O(1) to clone, all answering the full
//! [`BandwidthCdf`] query set.
//!
//! * [`CdfSummary::Exact`] — an `Arc`-shared [`EmpiricalCdf`]; the
//!   paper-faithful baseline. All queries are bit-identical to calling
//!   the inner CDF directly.
//! * [`CdfSummary::Rolling`] — a [`WindowCdf`] snapshot (a shared,
//!   copy-on-write sorted vector) from an incrementally-maintained
//!   [`crate::RollingCdf`]. Same exact answers as `Exact` over the same
//!   multiset, but producing one costs O(1) instead of an O(N log N)
//!   rebuild, and it carries the source's edit count
//!   ([`CdfSummary::edits`]) so a drift check can bound how far two
//!   snapshots of one window can be apart without scanning them.
//! * [`CdfSummary::Sketch`] — an `Arc`-shared constant-memory
//!   [`QuantileSketch`]; approximate answers, O(m) space.
//!
//! # Scaling
//!
//! Resource mapping converts available-bandwidth distributions into
//! goodput distributions by scaling with `1 − loss`. For `Exact` the
//! scale *materializes* immediately via [`EmpiricalCdf::scale`] — the
//! exact float operations the scheduler performed before this type
//! existed, keeping `CdfMode::Exact` runs bit-for-bit reproducible. For
//! `Rolling` and `Sketch` the factor is kept lazily and applied at query
//! time (`quantile`/`mean` multiply by `f`; `prob_below`/`truncated_mean`
//! divide the threshold by `f`), so scaling never copies the structure.

use crate::rolling::WindowCdf;
use crate::sketch::QuantileSketch;
use crate::{BandwidthCdf, EmpiricalCdf};
use std::sync::Arc;

/// A per-path bandwidth distribution summary, cloneable in O(1).
#[derive(Debug, Clone)]
pub enum CdfSummary {
    /// Exact empirical CDF (paper-faithful; `Arc`-shared).
    Exact(Arc<EmpiricalCdf>),
    /// Exact sorted-vector snapshot of a rolling window, with a lazy
    /// scale factor (1.0 = unscaled).
    Rolling {
        /// The frozen window multiset.
        cdf: WindowCdf,
        /// Lazy multiplicative scale applied at query time.
        factor: f64,
    },
    /// Constant-memory streaming sketch, with a lazy scale factor.
    Sketch {
        /// The shared sketch state.
        cdf: Arc<QuantileSketch>,
        /// Lazy multiplicative scale applied at query time.
        factor: f64,
    },
}

impl CdfSummary {
    /// Wraps an exact empirical CDF.
    pub fn exact(cdf: EmpiricalCdf) -> Self {
        CdfSummary::Exact(Arc::new(cdf))
    }

    /// Wraps a rolling-window snapshot (unscaled).
    pub fn rolling(cdf: WindowCdf) -> Self {
        CdfSummary::Rolling { cdf, factor: 1.0 }
    }

    /// Wraps a quantile sketch (unscaled).
    pub fn sketch(cdf: QuantileSketch) -> Self {
        CdfSummary::Sketch {
            cdf: Arc::new(cdf),
            factor: 1.0,
        }
    }

    /// An empty summary (no samples observed yet).
    pub fn empty() -> Self {
        CdfSummary::exact(EmpiricalCdf::from_clean_samples(Vec::new()))
    }

    /// The summary with every sample scaled by `factor` (e.g. available
    /// bandwidth × `(1 − loss)` = goodput). `Exact` materializes via
    /// [`EmpiricalCdf::scale`]; the incremental variants stay lazy.
    ///
    /// # Panics
    /// Panics on a negative or non-finite factor.
    pub fn scale(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "invalid scale factor");
        match self {
            CdfSummary::Exact(e) => CdfSummary::Exact(Arc::new(e.scale(factor))),
            CdfSummary::Rolling { cdf, factor: f } => CdfSummary::Rolling {
                cdf: cdf.clone(),
                factor: f * factor,
            },
            CdfSummary::Sketch { cdf, factor: f } => CdfSummary::Sketch {
                cdf: Arc::clone(cdf),
                factor: f * factor,
            },
        }
    }

    fn parts(&self) -> (&dyn BandwidthCdf, f64) {
        match self {
            CdfSummary::Exact(e) => (e.as_ref(), 1.0),
            CdfSummary::Rolling { cdf, factor } => (cdf, *factor),
            CdfSummary::Sketch { cdf, factor } => (cdf.as_ref(), *factor),
        }
    }

    /// Ascending sample stream (scale applied) plus its length — the
    /// common currency for KS comparison and residual materialization.
    /// `Sketch` streams its support points (raw samples during
    /// bootstrap, marker heights after), an O(m) stand-in for the
    /// stream it summarizes.
    fn sorted_stream(&self) -> (Box<dyn Iterator<Item = f64> + '_>, usize) {
        match self {
            CdfSummary::Exact(e) => (Box::new(e.samples().iter().copied()), e.len()),
            CdfSummary::Rolling { cdf, factor } => {
                let (f, s) = (*factor, cdf.samples());
                (Box::new(s.iter().map(move |&v| v * f)), s.len())
            }
            CdfSummary::Sketch { cdf, factor } => {
                let f = *factor;
                let s = cdf.support();
                (Box::new(s.iter().map(move |&v| v * f)), s.len())
            }
        }
    }

    /// Two-sample Kolmogorov–Smirnov distance between two summaries
    /// (any variant mix) — the remap trigger. O(n + m).
    ///
    /// `Exact` × `Exact` and `Rolling` × `Rolling` — the per-window
    /// drift probe on the scheduler fast path — are allocation-free:
    /// snapshots sharing their `Arc` (and, for `Rolling`, their factor)
    /// are identically zero apart, and distinct ones compare through
    /// concrete slice iterators yielding the same values in the same
    /// order as the generic stream. Mixed-variant comparisons pay two
    /// iterator boxes.
    pub fn ks_distance(&self, other: &Self) -> f64 {
        match (self, other) {
            (CdfSummary::Exact(a), CdfSummary::Exact(b)) => {
                if Arc::ptr_eq(a, b) {
                    return 0.0;
                }
                return crate::cdf::ks_sorted_streams(
                    a.samples().iter().copied(),
                    a.len(),
                    b.samples().iter().copied(),
                    b.len(),
                );
            }
            (
                CdfSummary::Rolling { cdf: a, factor: fa },
                CdfSummary::Rolling { cdf: b, factor: fb },
            ) => {
                let (fa, fb) = (*fa, *fb);
                if a.ptr_eq(b) && fa.to_bits() == fb.to_bits() {
                    return 0.0;
                }
                return crate::cdf::ks_sorted_streams(
                    a.samples().iter().map(|&v| v * fa),
                    a.len(),
                    b.samples().iter().map(|&v| v * fb),
                    b.len(),
                );
            }
            _ => {}
        }
        let (a, n) = self.sorted_stream();
        let (b, m) = other.sorted_stream();
        crate::cdf::ks_sorted_streams(a, n, b, m)
    }

    /// The residual distribution after committing `committed` of this
    /// path's bandwidth: each sample becomes `(b − committed).max(0)`.
    /// Materialized exactly as the pre-refactor scheduler did, so
    /// `Exact`-mode admission decisions are unchanged.
    pub fn residual(&self, committed: f64) -> EmpiricalCdf {
        let (vals, _) = self.sorted_stream();
        EmpiricalCdf::from_clean_samples(vals.map(|b| (b - committed).max(0.0)).collect())
    }

    /// Successful writes the source rolling window had taken when this
    /// summary was snapshotted — `Some` for `Rolling` only. Two
    /// `Rolling` summaries of one window with equal lengths and equal
    /// factors, `e` edits apart, hold counting functions that differ by
    /// at most `e / 2` samples at every point, so their KS distance is
    /// at most `e / (2 · len)`.
    pub fn edits(&self) -> Option<u64> {
        match self {
            CdfSummary::Rolling { cdf, .. } => Some(cdf.edits()),
            _ => None,
        }
    }

    /// The lazy scale factor applied at query time (`1.0` for `Exact`,
    /// which materializes its scaling).
    pub fn factor(&self) -> f64 {
        self.parts().1
    }

    /// Largest sample (scale applied).
    pub fn max(&self) -> Option<f64> {
        let (inner_max, f) = match self {
            CdfSummary::Exact(e) => (e.max(), 1.0),
            CdfSummary::Rolling { cdf, factor } => (cdf.max(), *factor),
            CdfSummary::Sketch { cdf, factor } => (cdf.support().last().copied(), *factor),
        };
        inner_max.map(|v| v * f)
    }
}

impl BandwidthCdf for CdfSummary {
    fn prob_below(&self, b: f64) -> f64 {
        let (inner, f) = self.parts();
        if f == 1.0 {
            return inner.prob_below(b);
        }
        if inner.is_empty() {
            return 0.0;
        }
        if f == 0.0 {
            // Every scaled sample is exactly 0.
            return if b >= 0.0 { 1.0 } else { 0.0 };
        }
        inner.prob_below(b / f)
    }

    fn prob_below_strict(&self, b: f64) -> f64 {
        let (inner, f) = self.parts();
        if f == 1.0 {
            return inner.prob_below_strict(b);
        }
        if inner.is_empty() {
            return 0.0;
        }
        if f == 0.0 {
            return if b > 0.0 { 1.0 } else { 0.0 };
        }
        inner.prob_below_strict(b / f)
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        let (inner, f) = self.parts();
        if f == 1.0 {
            return inner.quantile(q);
        }
        if f == 0.0 {
            return if inner.is_empty() { None } else { Some(0.0) };
        }
        inner.quantile(q).map(|v| v * f)
    }

    fn truncated_mean(&self, b0: f64) -> f64 {
        let (inner, f) = self.parts();
        if f == 1.0 {
            return inner.truncated_mean(b0);
        }
        if f == 0.0 {
            return 0.0;
        }
        f * inner.truncated_mean(b0 / f)
    }

    fn len(&self) -> usize {
        self.parts().0.len()
    }

    fn mean(&self) -> f64 {
        let (inner, f) = self.parts();
        if f == 1.0 {
            return inner.mean();
        }
        f * inner.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(2654435761) % 100_000) as f64 + 1.0)
            .collect()
    }

    fn variants(vals: &[f64]) -> (CdfSummary, CdfSummary) {
        let e = CdfSummary::exact(EmpiricalCdf::from_clean_samples(vals.to_vec()));
        let r = CdfSummary::rolling(WindowCdf::from_samples(vals.iter().copied()));
        (e, r)
    }

    #[test]
    fn exact_and_rolling_agree_bitwise() {
        let vals = pseudo(321);
        let (e, r) = variants(&vals);
        for q in [0.0, 0.05, 0.33, 0.5, 0.95, 1.0] {
            assert_eq!(e.quantile(q), r.quantile(q));
        }
        for b in [0.0, 500.0, 50_000.0, 1e9] {
            assert_eq!(e.prob_below(b), r.prob_below(b));
            assert_eq!(e.truncated_mean(b), r.truncated_mean(b));
        }
        assert_eq!(e.mean(), r.mean());
        assert_eq!(e.max(), r.max());
    }

    #[test]
    fn exact_scale_materializes_like_empirical_scale() {
        let vals = pseudo(100);
        let e = EmpiricalCdf::from_clean_samples(vals.clone());
        let scaled = CdfSummary::exact(e.clone()).scale(0.9);
        let direct = e.scale(0.9);
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(scaled.quantile(q), direct.quantile(q));
        }
        assert_eq!(scaled.mean(), direct.mean());
    }

    #[test]
    fn lazy_scale_queries() {
        let vals = pseudo(200);
        let r = CdfSummary::rolling(WindowCdf::from_samples(vals.iter().copied())).scale(0.5);
        let e = CdfSummary::exact(EmpiricalCdf::from_clean_samples(
            vals.iter().map(|v| v * 0.5).collect(),
        ));
        for q in [0.1, 0.5, 0.9] {
            let (a, b) = (r.quantile(q).unwrap(), e.quantile(q).unwrap());
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "q={q}: {a} vs {b}");
        }
        for t in [10_000.0, 40_000.0] {
            let (a, b) = (r.prob_below(t), e.prob_below(t));
            assert!((a - b).abs() < 1e-9, "prob_below({t}): {a} vs {b}");
            let (a, b) = (r.truncated_mean(t), e.truncated_mean(t));
            assert!(
                (a - b).abs() < 1e-9 * b.abs().max(1.0),
                "trunc({t}): {a} vs {b}"
            );
        }
        assert!((r.mean() - e.mean()).abs() < 1e-9 * e.mean());
    }

    #[test]
    fn zero_scale_collapses_to_zero() {
        let r = CdfSummary::rolling(WindowCdf::from_samples(pseudo(10))).scale(0.0);
        assert_eq!(r.quantile(0.5), Some(0.0));
        assert_eq!(r.prob_below(0.0), 1.0);
        assert_eq!(r.prob_below_strict(0.0), 0.0);
        assert_eq!(r.truncated_mean(5.0), 0.0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn ks_distance_cross_variant() {
        let vals = pseudo(300);
        let (e, r) = variants(&vals);
        assert_eq!(e.ks_distance(&r), 0.0);
        let shifted = CdfSummary::exact(EmpiricalCdf::from_clean_samples(
            vals.iter().map(|v| v + 1.0e6).collect(),
        ));
        assert!((e.ks_distance(&shifted) - 1.0).abs() < 1e-12);
    }

    /// The generic boxed-stream KS path, which the `Rolling` ×
    /// `Rolling` slice arm must reproduce bit for bit.
    fn ks_via_streams(a: &CdfSummary, b: &CdfSummary) -> f64 {
        let (x, n) = a.sorted_stream();
        let (y, m) = b.sorted_stream();
        crate::cdf::ks_sorted_streams(x, n, y, m)
    }

    #[test]
    fn rolling_slice_arm_matches_generic_streams_bitwise() {
        let long = pseudo(300);
        let short: Vec<f64> = pseudo(420).split_off(250);
        let shifted: Vec<f64> = long.iter().map(|v| v * 1.1 + 7.0).collect();
        for f in [1.0, 0.9, 0.0] {
            for (x, y) in [(&long, &shifted), (&long, &short), (&short, &long)] {
                let a = CdfSummary::rolling(WindowCdf::from_samples(x.iter().copied()));
                let b = CdfSummary::rolling(WindowCdf::from_samples(y.iter().copied()));
                for (a, b) in [(a.scale(f), b.scale(f)), (a.clone(), b.scale(f))] {
                    let fast = a.ks_distance(&b);
                    assert_eq!(fast.to_bits(), ks_via_streams(&a, &b).to_bits(), "f={f}");
                }
            }
        }
    }

    #[test]
    fn rolling_shared_snapshot_is_exactly_zero_apart() {
        let r = CdfSummary::rolling(WindowCdf::from_samples(pseudo(50)));
        let twin = r.clone();
        assert_eq!(r.ks_distance(&twin).to_bits(), 0.0f64.to_bits());
        assert_eq!(r.scale(0.9).ks_distance(&twin.scale(0.9)), 0.0);
        // One `Arc`, two factors: a real comparison, not the shortcut.
        assert!(r.ks_distance(&twin.scale(0.5)) > 0.0);
        assert_eq!(r.edits(), Some(50));
        assert_eq!(CdfSummary::empty().edits(), None);
    }

    #[test]
    fn residual_matches_manual_materialization() {
        let vals = pseudo(64);
        let (e, r) = variants(&vals);
        let manual = EmpiricalCdf::from_clean_samples(
            vals.iter().map(|b| (b - 40_000.0).max(0.0)).collect(),
        );
        for s in [&e, &r] {
            let res = s.residual(40_000.0);
            assert_eq!(res.samples(), manual.samples());
        }
    }

    #[test]
    fn sketch_variant_is_consistent() {
        let mut sk = QuantileSketch::new(17);
        let vals = pseudo(2000);
        for &v in &vals {
            sk.observe(v);
        }
        let s = CdfSummary::sketch(sk);
        let e = EmpiricalCdf::from_clean_samples(vals);
        let q = s.quantile(0.5).unwrap();
        assert!((e.prob_below(q) - 0.5).abs() < 0.05);
        // Self-distance of the support stream is zero.
        assert_eq!(s.ks_distance(&s), 0.0);
        // Scaled sketch queries shift with the factor.
        let half = s.scale(0.5);
        assert!((half.mean() - 0.5 * s.mean()).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_defaults() {
        let s = CdfSummary::empty();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.prob_below(1.0), 0.0);
        assert_eq!(s.max(), None);
        assert_eq!(s.scale(0.5).len(), 0);
    }
}
