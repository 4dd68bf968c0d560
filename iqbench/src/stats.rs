//! Order statistics over repetitions and the regression-bound rule.
//!
//! Repetitions are the samples: every host-time number is a median
//! with its quartiles and n. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), because
//! that is what the driver computes its spreads with.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// A deterministic metric read once.
    pub fn exact(value: f64) -> Self {
        Self {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }
}

/// The `p`-quantile by the exclusive method: position `p·(n+1)` in the
/// 1-based sorted sample, linearly interpolated and clamped to the ends.
pub fn quantile_exclusive(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let pos = p * (n + 1) as f64;
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
}

/// Nearest-rank percentile of a sorted sample (`p` in `[0, 1]`): the
/// smallest value with at least `p·n` samples at or below it.
pub fn percentile_nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    Summary {
        n: sorted.len(),
        median: quantile_exclusive(&sorted, 0.5),
        q1: quantile_exclusive(&sorted, 0.25),
        q3: quantile_exclusive(&sorted, 0.75),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `base` the value `new` is worse (≤ 0 when it is
/// equal or better). A zero base makes any worsening infinite.
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if delta <= 0.0 {
        0.0
    } else if base == 0.0 {
        f64::INFINITY
    } else {
        delta / base.abs()
    }
}

/// The regression rule: `new` may be worse than `base` by at most
/// `bound` (a share of `base`). A bound of 0 demands bit-identity in
/// both directions — that is how deterministic metrics are compared.
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    if bound == 0.0 {
        base.to_bits() == new.to_bits()
    } else {
        worse_by(base, new, better) <= bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=11], n=4) == [3.0, 6.0, 9.0]
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (3.0, 6.0, 9.0, 11));
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = summarize(&[40.0, 10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = summarize(&[7.5]);
        assert_eq!(s, Summary::exact(7.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&v, 0.5), 50.0);
        assert_eq!(percentile_nearest_rank(&v, 0.99), 99.0);
        assert_eq!(percentile_nearest_rank(&v, 1.0), 100.0);
        assert_eq!(percentile_nearest_rank(&v, 0.0), 1.0);
        assert_eq!(percentile_nearest_rank(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert_eq!(worse_by(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worse_by(100.0, 90.0, Better::Lower), 0.0);
        assert_eq!(worse_by(100.0, 90.0, Better::Higher), 0.1);
        assert_eq!(worse_by(100.0, 110.0, Better::Higher), 0.0);
        assert_eq!(worse_by(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn bound_comparison() {
        assert!(within_bound(100.0, 109.9, Better::Lower, 0.1));
        assert!(!within_bound(100.0, 110.1, Better::Lower, 0.1));
        assert!(within_bound(100.0, 50.0, Better::Lower, 0.1));
        assert!(!within_bound(0.95, 0.80, Better::Higher, 0.1));
        // Bound 0: deterministic metrics must repeat exactly, even an
        // "improvement" is a difference.
        assert!(within_bound(0.25, 0.25, Better::Higher, 0.0));
        assert!(!within_bound(0.25, 0.26, Better::Higher, 0.0));
    }
}
