//! Summary metrics used throughout the experimental evaluation.
//!
//! Figure 11 of the paper reports, per stream and per algorithm: the
//! target bandwidth, the mean achieved bandwidth, the bandwidth attained
//! 95% / 99% of the time, and the standard deviation; the SmartPointer
//! discussion also reports frame jitter. This module computes those
//! summaries from throughput sample series.

/// Population standard deviation. Returns 0 for fewer than 2 samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt()
}

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Mean relative error `mean(|pred − actual| / |actual|)` over paired
/// series, skipping pairs whose actual value is zero.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mean_relative_error(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "paired series must align");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&p, &a) in predicted.iter().zip(actual) {
        if a != 0.0 {
            sum += ((p - a) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The throughput a stream attains at least `fraction` of the time: the
/// `(1 − fraction)`-quantile of the throughput samples.
///
/// E.g. `attained(samples, 0.95)` is the paper's "95% Time" bar — the
/// bandwidth the stream received during 95% of measurement intervals.
pub fn attained(samples: &[f64], fraction: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let cdf = crate::EmpiricalCdf::from_clean_samples(samples.to_vec());
    crate::BandwidthCdf::quantile(&cdf, 1.0 - fraction).unwrap_or(0.0)
}

/// Fraction of samples at or above `target` ("received its required
/// bandwidth P% of the time").
pub fn fraction_meeting(samples: &[f64], target: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&x| x >= target).count() as f64 / samples.len() as f64
}

/// Inter-arrival jitter: mean absolute deviation of consecutive
/// inter-arrival gaps from the mean gap.
///
/// The SmartPointer evaluation reports "application frame jitter ...
/// reduced from 2.0 ms (with MSFQ) to 1.4 ms (with PGOS)"; this is the
/// statistic computed from frame arrival times.
pub fn interarrival_jitter(arrival_times: &[f64]) -> f64 {
    if arrival_times.len() < 3 {
        return 0.0;
    }
    let gaps: Vec<f64> = arrival_times.windows(2).map(|w| w[1] - w[0]).collect();
    let mg = mean(&gaps);
    gaps.iter().map(|g| (g - mg).abs()).sum::<f64>() / gaps.len() as f64
}

/// The Figure 11 per-stream summary row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuaranteeSummary {
    /// SLO bandwidth.
    pub target: f64,
    /// Mean achieved bandwidth.
    pub mean: f64,
    /// Bandwidth attained ≥ 95% of the time.
    pub attained_95: f64,
    /// Bandwidth attained ≥ 99% of the time.
    pub attained_99: f64,
    /// Standard deviation of achieved bandwidth.
    pub stddev: f64,
    /// Fraction of intervals meeting the target.
    pub meet_fraction: f64,
}

impl GuaranteeSummary {
    /// Summarizes a throughput series against an SLO target.
    pub fn from_samples(samples: &[f64], target: f64) -> Self {
        Self {
            target,
            mean: mean(samples),
            attained_95: attained(samples, 0.95),
            attained_99: attained(samples, 0.99),
            stddev: stddev(samples),
            meet_fraction: fraction_meeting(samples, target),
        }
    }

    /// `attained_95 / target` — the paper reports PGOS ≥ 0.995 vs MSFQ
    /// ≈ 0.87 on the SmartPointer critical streams.
    pub fn attainment_ratio_95(&self) -> f64 {
        if self.target == 0.0 {
            1.0
        } else {
            self.attained_95 / self.target
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stddev_of_constant_is_zero() {
        assert_eq!(stddev(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
    }

    #[test]
    fn stddev_known_value() {
        // Population stddev of [2,4,4,4,5,5,7,9] is 2.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_relative_error_skips_zero_actuals() {
        let e = mean_relative_error(&[1.0, 5.0], &[0.0, 4.0]);
        assert!((e - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mre_length_mismatch_panics() {
        let _ = mean_relative_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn attained_is_lower_quantile() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // 95% of the time throughput is at least the 5th percentile = 5.
        assert_eq!(attained(&xs, 0.95), 5.0);
        assert_eq!(attained(&xs, 0.99), 1.0);
        assert_eq!(attained(&[], 0.95), 0.0);
    }

    #[test]
    fn fraction_meeting_counts() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_meeting(&xs, 3.0), 0.5);
        assert_eq!(fraction_meeting(&xs, 0.0), 1.0);
        assert_eq!(fraction_meeting(&[], 1.0), 0.0);
    }

    #[test]
    fn jitter_of_perfect_cadence_is_zero() {
        let times: Vec<f64> = (0..50).map(|i| i as f64 * 0.04).collect();
        assert!(interarrival_jitter(&times) < 1e-12);
    }

    #[test]
    fn jitter_detects_irregularity() {
        let regular: Vec<f64> = (0..50).map(|i| i as f64 * 0.04).collect();
        let mut irregular = regular.clone();
        for (i, t) in irregular.iter_mut().enumerate() {
            if i % 3 == 0 {
                *t += 0.01;
            }
        }
        assert!(interarrival_jitter(&irregular) > interarrival_jitter(&regular));
    }

    #[test]
    fn guarantee_summary_fields() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = GuaranteeSummary::from_samples(&xs, 50.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.attained_95, 5.0);
        assert_eq!(s.meet_fraction, 0.51);
        assert!((s.attainment_ratio_95() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn guarantee_summary_zero_target() {
        let s = GuaranteeSummary::from_samples(&[1.0, 2.0], 0.0);
        assert_eq!(s.attainment_ratio_95(), 1.0);
    }
}
