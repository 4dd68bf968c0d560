//! Incremental rolling-window CDFs.
//!
//! The paper's monitoring module keeps "the last N (e.g., 500 and 1000)
//! samples" per path and re-derives a bandwidth CDF from them every
//! scheduling window (§4). Rebuilding an [`crate::EmpiricalCdf`] costs a
//! clone plus a full sort — O(N log N) per path per window. `RollingCdf`
//! maintains the same multiset *incrementally*: an O(log N) binary
//! search plus an at most N-word memmove per inserted or evicted sample,
//! and an O(1) [`RollingCdf::snapshot`] that freezes the current
//! distribution into an immutable, cheaply-cloneable [`WindowCdf`]
//! answering the exact same queries.
//!
//! # Exactness
//!
//! `WindowCdf` is not an approximation. For the same sample multiset it
//! returns **bit-identical** results to `EmpiricalCdf` for
//! `prob_below`, `prob_below_strict`, `quantile`, `truncated_mean` and
//! `mean`: counts are the same `partition_point` searches over the same
//! sorted array, the quantile index uses the same rounding formula, and
//! sums accumulate in ascending sample order exactly like
//! `EmpiricalCdf`'s prefix array (floating-point addition is
//! order-sensitive, so the traversal order is part of the contract; the
//! property tests in `tests/proptests.rs` pin this).
//!
//! # Implementation
//!
//! One ascending `Arc<Vec<f64>>`, shared copy-on-write between the live
//! structure and its snapshots. A snapshot is one `Arc` clone; the first
//! write after it copies the vector (≤ 8 KB at N = 1000) once, and later
//! writes edit it in place through `Arc::make_mut`. Every successful
//! write bumps an edit counter that snapshots carry, so a consumer
//! holding two snapshots of the same window knows how many single-sample
//! edits separate them (see [`WindowCdf::edits`]).

use crate::BandwidthCdf;
use std::sync::Arc;

/// An immutable snapshot of a [`RollingCdf`] — the multiset frozen at
/// snapshot time, answering the full [`BandwidthCdf`] query set with
/// results bit-identical to an [`crate::EmpiricalCdf`] built from the
/// same samples. Cloning is O(1) (one `Arc` bump).
#[derive(Debug, Clone)]
pub struct WindowCdf {
    sorted: Arc<Vec<f64>>,
    edits: u64,
}

impl WindowCdf {
    /// Builds a snapshot directly from a sample iterator (O(n log n)) —
    /// convenience for converting an existing sample set; the
    /// incremental path is [`RollingCdf::snapshot`]. NaN samples are
    /// dropped, as [`RollingCdf::push`] would.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut r = RollingCdf::new();
        for v in samples {
            r.push(v);
        }
        r.snapshot()
    }

    /// The frozen samples, ascending.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Successful writes the source [`RollingCdf`] had taken when this
    /// snapshot was made. Two snapshots of one structure with equal
    /// lengths and edit counts `e₁ ≤ e₂` differ by at most
    /// `(e₂ − e₁) / 2` samples at any point of their counting functions.
    pub fn edits(&self) -> u64 {
        self.edits
    }

    /// True when both snapshots share one sample vector (so they hold
    /// the same multiset).
    pub(crate) fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.sorted, &other.sorted)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Two-sample Kolmogorov–Smirnov distance to another snapshot,
    /// without materializing either sample set.
    pub fn ks_distance(&self, other: &Self) -> f64 {
        crate::cdf::ks_sorted_streams(
            self.sorted.iter().copied(),
            self.sorted.len(),
            other.sorted.iter().copied(),
            other.sorted.len(),
        )
    }

    /// Materializes the snapshot into an exact [`crate::EmpiricalCdf`]
    /// (O(n); the samples are already sorted).
    pub fn to_empirical(&self) -> crate::EmpiricalCdf {
        crate::EmpiricalCdf::from_clean_samples(self.sorted.to_vec())
    }

    /// Ascending sum of the `k` smallest samples — the operand order of
    /// `EmpiricalCdf`'s prefix sums.
    fn ascending_sum(&self, k: usize) -> f64 {
        let mut acc = 0.0;
        for &v in &self.sorted[..k] {
            acc += v;
        }
        acc
    }
}

impl BandwidthCdf for WindowCdf {
    fn prob_below(&self, b: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        self.sorted.partition_point(|&x| x <= b) as f64 / n as f64
    }

    fn prob_below_strict(&self, b: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        self.sorted.partition_point(|&x| x < b) as f64 / n as f64
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Same index formula (and epsilon) as EmpiricalCdf::quantile.
        let rank = (q * n as f64 - 1e-9).ceil().max(0.0) as usize;
        let idx = rank.saturating_sub(1).min(n - 1);
        Some(self.sorted[idx])
    }

    fn truncated_mean(&self, b0: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let k = self.sorted.partition_point(|&x| x <= b0);
        if k == 0 {
            return 0.0;
        }
        self.ascending_sum(k) / n as f64
    }

    fn len(&self) -> usize {
        self.sorted.len()
    }

    fn mean(&self) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        self.ascending_sum(n) / n as f64
    }
}

/// An incrementally-maintained rolling-window CDF.
///
/// Push each new measurement with [`RollingCdf::push`] and remove each
/// sample the window evicts with [`RollingCdf::remove`] (pair it with
/// [`crate::SampleWindow::push_with`], which reports evictions); each
/// is a binary search plus a memmove of at most N words.
/// [`RollingCdf::snapshot`] freezes the current state in O(1), so
/// producing a per-window distribution summary no longer costs a sort.
///
/// ```
/// use iqpaths_stats::{BandwidthCdf, RollingCdf};
///
/// let mut cdf = RollingCdf::new();
/// for bw in [10.0, 20.0, 30.0, 40.0] {
///     cdf.push(bw);
/// }
/// cdf.remove(10.0); // the window evicted the oldest sample
///
/// let snap = cdf.snapshot(); // O(1); queries match an exact CDF
/// assert_eq!(snap.len(), 3);
/// assert_eq!(snap.quantile(0.5), Some(30.0));
/// assert_eq!(snap.prob_below(25.0), 1.0 / 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RollingCdf {
    sorted: Arc<Vec<f64>>,
    /// Successful `push`/`remove` calls so far.
    edits: u64,
}

impl RollingCdf {
    /// An empty rolling CDF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one sample. NaN is rejected (mirroring
    /// [`crate::SampleWindow::push`]); returns whether it was inserted.
    pub fn push(&mut self, v: f64) -> bool {
        if v.is_nan() {
            return false;
        }
        let sorted = Arc::make_mut(&mut self.sorted);
        let at = sorted.partition_point(|&x| x <= v);
        sorted.insert(at, v);
        self.edits += 1;
        true
    }

    /// Removes one instance of `v`; returns `false` if absent. Evicted
    /// window samples re-enter here with their exact stored value, so
    /// lookup by equality is reliable.
    pub fn remove(&mut self, v: f64) -> bool {
        let at = self.sorted.partition_point(|&x| x < v);
        if self.sorted.get(at) != Some(&v) {
            return false;
        }
        Arc::make_mut(&mut self.sorted).remove(at);
        self.edits += 1;
        true
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// O(1) immutable snapshot of the current distribution.
    pub fn snapshot(&self) -> WindowCdf {
        WindowCdf {
            sorted: Arc::clone(&self.sorted),
            edits: self.edits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmpiricalCdf;

    fn pseudo(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(2654435761) % 100_000) as f64)
            .collect()
    }

    #[test]
    fn empty_behaves_like_empty_empirical() {
        let t = RollingCdf::new().snapshot();
        assert!(t.is_empty());
        assert_eq!(t.quantile(0.5), None);
        assert_eq!(t.prob_below(1.0), 0.0);
        assert_eq!(t.truncated_mean(10.0), 0.0);
        assert_eq!(t.mean(), 0.0);
    }

    #[test]
    fn matches_empirical_on_static_set() {
        let vals = pseudo(257);
        let e = EmpiricalCdf::from_clean_samples(vals.clone());
        let t = WindowCdf::from_samples(vals);
        for q in [0.0, 0.05, 0.1, 0.33, 0.5, 0.9, 0.95, 1.0] {
            assert_eq!(t.quantile(q), e.quantile(q), "quantile({q})");
        }
        for b in [0.0, 1.0, 500.0, 49_999.0, 50_000.0, 1e9] {
            assert_eq!(t.prob_below(b), e.prob_below(b), "prob_below({b})");
            assert_eq!(
                t.prob_below_strict(b),
                e.prob_below_strict(b),
                "prob_below_strict({b})"
            );
            assert_eq!(t.truncated_mean(b), e.truncated_mean(b), "trunc({b})");
        }
        assert_eq!(t.mean(), e.mean());
        assert_eq!(t.len(), e.len());
        assert_eq!(t.min(), e.min());
        assert_eq!(t.max(), e.max());
    }

    #[test]
    fn rolling_eviction_tracks_window() {
        // Slide a window of 64 over 500 values; at every step the
        // structure must agree exactly with a freshly-built EmpiricalCdf.
        let vals = pseudo(500);
        let mut r = RollingCdf::new();
        let mut held: std::collections::VecDeque<f64> = Default::default();
        for (i, &v) in vals.iter().enumerate() {
            if held.len() == 64 {
                let old = held.pop_front().unwrap();
                assert!(r.remove(old));
            }
            held.push_back(v);
            r.push(v);
            if i % 37 == 0 {
                let e = EmpiricalCdf::from_clean_samples(held.iter().copied().collect());
                let t = r.snapshot();
                assert_eq!(t.len(), e.len());
                assert_eq!(t.quantile(0.1), e.quantile(0.1));
                assert_eq!(t.truncated_mean(60_000.0), e.truncated_mean(60_000.0));
            }
        }
    }

    #[test]
    fn snapshot_is_immutable_under_later_updates() {
        let mut r = RollingCdf::new();
        for v in [5.0, 1.0, 9.0] {
            r.push(v);
        }
        let snap = r.snapshot();
        r.push(100.0);
        r.remove(1.0);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.quantile(1.0), Some(9.0));
        assert_eq!(r.snapshot().len(), 3);
        assert_eq!(r.snapshot().quantile(1.0), Some(100.0));
    }

    #[test]
    fn snapshot_survives_many_interleaved_writes() {
        let vals = pseudo(1_200);
        let mut r = RollingCdf::new();
        for &v in &vals[..200] {
            r.push(v);
        }
        let snap = r.snapshot();
        let frozen = EmpiricalCdf::from_clean_samples(vals[..200].to_vec());
        // 500 push/remove pairs: 1 000 writes behind the held snapshot.
        for (k, &v) in vals[200..700].iter().enumerate() {
            assert!(r.push(v));
            assert!(r.remove(vals[k]));
        }
        assert_eq!(r.snapshot().edits() - snap.edits(), 1_000);
        assert_eq!(snap.samples(), frozen.samples());
        assert_eq!(snap.mean(), frozen.mean());
        let live = EmpiricalCdf::from_clean_samples(vals[500..700].to_vec());
        assert_eq!(r.snapshot().samples(), live.samples());
    }

    #[test]
    fn edits_count_successful_writes_only() {
        let mut r = RollingCdf::new();
        r.push(1.0);
        r.push(2.0);
        assert!(!r.push(f64::NAN));
        assert!(!r.remove(3.0));
        assert!(r.remove(1.0));
        assert_eq!(r.snapshot().edits(), 3);
    }

    #[test]
    fn duplicates_count_as_multiset() {
        let mut r = RollingCdf::new();
        for _ in 0..3 {
            r.push(7.0);
        }
        assert_eq!(r.len(), 3);
        assert!(r.remove(7.0));
        assert_eq!(r.len(), 2);
        assert_eq!(r.snapshot().prob_below(7.0), 1.0);
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut r = RollingCdf::new();
        r.push(1.0);
        assert!(!r.remove(2.0));
        assert!(!r.remove(0.5));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn rejects_nan() {
        let mut r = RollingCdf::new();
        assert!(!r.push(f64::NAN));
        assert!(r.is_empty());
    }

    #[test]
    fn ks_distance_matches_empirical() {
        let (x, y) = (pseudo(300), pseudo(150).split_off(50));
        let (ex, ey) = (
            EmpiricalCdf::from_clean_samples(x.clone()),
            EmpiricalCdf::from_clean_samples(y.clone()),
        );
        let (tx, ty) = (WindowCdf::from_samples(x), WindowCdf::from_samples(y));
        assert_eq!(tx.ks_distance(&ty), ex.ks_distance(&ey));
        assert_eq!(tx.ks_distance(&tx), 0.0);
    }
}
