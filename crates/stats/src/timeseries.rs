//! Time-series helpers: summaries, autocovariance, epoch downsampling
//! and the aggregated-variance Hurst estimate.

/// Basic descriptive statistics of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesSummary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Coefficient of variation (stddev / mean, 0 when mean is 0).
    pub cov: f64,
}

impl SeriesSummary {
    /// Summarizes a slice. Returns `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mean = crate::metrics::mean(xs);
        let stddev = crate::metrics::stddev(xs);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Self {
            n: xs.len(),
            mean,
            stddev,
            min,
            max,
            cov: if mean == 0.0 { 0.0 } else { stddev / mean },
        })
    }
}

/// Lag-`k` autocorrelation of a series (biased estimator).
///
/// The paper argues that available bandwidth is close to IID at the
/// measurement timescale; the Fig 4 harness verifies the synthetic
/// traces have low lag-1 autocorrelation *within* regimes.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if xs.len() <= lag + 1 {
        return 0.0;
    }
    let mean = crate::metrics::mean(xs);
    let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
    if var == 0.0 {
        return 0.0;
    }
    let cov: f64 = xs
        .windows(lag + 1)
        .map(|w| (w[0] - mean) * (w[lag] - mean))
        .sum();
    cov / var
}

/// Splits a series into equal-length epoch means — used to downsample
/// fine-grained measurements (0.1 s) to coarser windows (1 s) when
/// studying the measurement-window sweep of Figure 4.
pub fn downsample_means(xs: &[f64], factor: usize) -> Vec<f64> {
    assert!(factor > 0, "factor must be positive");
    xs.chunks(factor).map(crate::metrics::mean).collect()
}

/// Hurst-exponent estimate via the aggregated-variance method.
///
/// Self-similar traffic (the Willinger on/off aggregation model behind
/// `iqpaths-traces::onoff`) has `H ∈ (0.5, 1)`: the variance of
/// `m`-aggregated means decays like `m^(2H−2)` instead of the `m^-1` of
/// short-range-dependent traffic. Used by the trace-validation tests to
/// confirm the synthetic cross traffic is long-range dependent.
///
/// Returns `None` for series too short to aggregate (< 64 samples) or
/// degenerate (zero variance).
pub fn hurst_aggregated_variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 64 {
        return None;
    }
    // Aggregate levels m = 1, 2, 4, … while at least 8 blocks remain.
    let mut points = Vec::new();
    let mut m = 1usize;
    while xs.len() / m >= 8 {
        let means = downsample_means(&xs[..(xs.len() / m) * m], m);
        let var = {
            let mu = crate::metrics::mean(&means);
            means.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / means.len() as f64
        };
        if var <= 0.0 {
            return None;
        }
        points.push(((m as f64).ln(), var.ln()));
        m *= 2;
    }
    if points.len() < 3 {
        return None;
    }
    // Least-squares slope of log-var vs log-m: slope = 2H − 2.
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    Some((slope / 2.0 + 1.0).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_none() {
        assert!(SeriesSummary::of(&[]).is_none());
    }

    #[test]
    fn summary_fields() {
        let s = SeriesSummary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(s.cov > 0.0);
    }

    #[test]
    fn autocorrelation_of_constant_is_zero() {
        assert_eq!(autocorrelation(&[3.0; 32], 1), 0.0);
    }

    #[test]
    fn autocorrelation_of_alternation_is_negative() {
        let xs: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
    }

    #[test]
    fn autocorrelation_of_trend_is_positive() {
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        assert!(autocorrelation(&xs, 1) > 0.8);
    }

    #[test]
    fn downsample_means_averages_chunks() {
        let xs = [1.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(downsample_means(&xs, 2), vec![2.0, 6.0, 9.0]);
    }

    /// Deterministic xorshift64* generator (a Weyl sequence would be
    /// anti-persistent, not IID).
    fn xorshift_series(n: usize, mut state: u64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f64
            })
            .collect()
    }

    #[test]
    fn hurst_of_iid_noise_is_near_half() {
        let xs = xorshift_series(8192, 0x9E3779B97F4A7C15);
        let h = hurst_aggregated_variance(&xs).unwrap();
        assert!((0.35..0.65).contains(&h), "H={h} for IID noise");
    }

    #[test]
    fn hurst_of_persistent_series_is_high() {
        // A random walk is strongly persistent.
        let steps = xorshift_series(8192, 0xDEADBEEFCAFE);
        let mid = crate::metrics::mean(&steps);
        let mut acc = 0.0;
        let xs: Vec<f64> = steps
            .iter()
            .map(|s| {
                acc += s - mid;
                acc
            })
            .collect();
        let h = hurst_aggregated_variance(&xs).unwrap();
        assert!(h > 0.8, "H={h} for a random walk");
    }

    #[test]
    fn hurst_rejects_degenerate_input() {
        assert!(hurst_aggregated_variance(&[1.0; 10]).is_none());
        assert!(hurst_aggregated_variance(&[5.0; 4096]).is_none());
    }
}
