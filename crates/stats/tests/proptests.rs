//! Property-based tests for the statistical substrate invariants that the
//! PGOS guarantee math (Lemmas 1 & 2) relies on.

use iqpaths_stats::{
    BandwidthCdf, CdfSummary, EmpiricalCdf, HistogramCdf, QuantileSketch, RollingCdf, SampleWindow,
    WindowCdf,
};
use proptest::prelude::*;

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..1e9f64, 1..200)
}

proptest! {
    #[test]
    fn cdf_is_monotone(samples in finite_samples(), a in 0.0..1e9f64, b in 0.0..1e9f64) {
        let c = EmpiricalCdf::from_clean_samples(samples);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(c.prob_below(lo) <= c.prob_below(hi) + 1e-12);
    }

    #[test]
    fn cdf_bounds(samples in finite_samples(), x in 0.0..1e9f64) {
        let c = EmpiricalCdf::from_clean_samples(samples);
        let p = c.prob_below(x);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn quantile_within_sample_range(samples in finite_samples(), q in 0.0..=1.0f64) {
        let c = EmpiricalCdf::from_clean_samples(samples);
        let v = c.quantile(q).unwrap();
        prop_assert!(v >= c.min().unwrap() && v <= c.max().unwrap());
    }

    #[test]
    fn quantile_galois_connection(samples in finite_samples(), q in 0.001..=1.0f64) {
        // F(Q(q)) >= q: the quantile really is a q-level floor.
        let c = EmpiricalCdf::from_clean_samples(samples);
        let v = c.quantile(q).unwrap();
        prop_assert!(c.prob_below(v) + 1e-9 >= q);
    }

    #[test]
    fn truncated_mean_monotone_and_bounded(samples in finite_samples(), b0 in 0.0..1e9f64) {
        let c = EmpiricalCdf::from_clean_samples(samples);
        let m = c.truncated_mean(b0);
        prop_assert!(m >= -1e-9);
        prop_assert!(m <= c.mean() + 1e-6 * c.mean().abs() + 1e-9);
        // Monotone in b0.
        prop_assert!(m <= c.truncated_mean(b0 * 2.0 + 1.0) + 1e-9);
    }

    #[test]
    fn truncated_mean_at_max_is_mean(samples in finite_samples()) {
        let c = EmpiricalCdf::from_clean_samples(samples);
        let m = c.truncated_mean(c.max().unwrap());
        prop_assert!((m - c.mean()).abs() <= 1e-9 * (1.0 + c.mean().abs()));
    }

    #[test]
    fn ks_distance_is_a_metric_ish(a in finite_samples(), b in finite_samples()) {
        let ca = EmpiricalCdf::from_clean_samples(a);
        let cb = EmpiricalCdf::from_clean_samples(b);
        let d = ca.ks_distance(&cb);
        prop_assert!((0.0..=1.0).contains(&d));
        // Symmetry.
        prop_assert!((d - cb.ks_distance(&ca)).abs() < 1e-12);
        // Identity.
        prop_assert!(ca.ks_distance(&ca) < 1e-12);
    }

    #[test]
    fn histogram_tracks_exact_cdf(samples in prop::collection::vec(0.0..100.0f64, 50..300)) {
        let exact = EmpiricalCdf::from_clean_samples(samples.clone());
        let mut h = HistogramCdf::new(0.0, 100.0, 1000);
        h.extend(samples);
        for b in [10.0, 30.0, 50.0, 70.0, 90.0] {
            // Bin width 0.1 over ≥50 samples: within a couple of bins'
            // worth of mass.
            prop_assert!((h.prob_below(b) - exact.prob_below(b)).abs() < 0.05);
        }
    }

    #[test]
    fn histogram_quantile_bounds(samples in prop::collection::vec(0.0..100.0f64, 1..200), q in 0.0..=1.0f64) {
        let mut h = HistogramCdf::new(0.0, 100.0, 64);
        h.extend(samples);
        let v = h.quantile(q).unwrap();
        prop_assert!((0.0..=100.0).contains(&v));
    }

    #[test]
    fn rolling_cdf_matches_empirical_exactly(
        samples in finite_samples(),
        cap in 1usize..50,
        q in 0.0..=1.0f64,
        b in 0.0..1e9f64,
    ) {
        // Mirror a capacity-bounded window into a RollingCdf through the
        // eviction callback, exactly as the monitoring module does; every
        // query must agree bit-for-bit with the exact window CDF.
        let mut w = SampleWindow::new(cap);
        let mut r = RollingCdf::new();
        for (i, &v) in samples.iter().enumerate() {
            if w.push_with(i as f64, v, |old| {
                r.remove(old);
            }) {
                r.push(v);
            }
        }
        let exact = w.cdf();
        let t = r.snapshot();
        prop_assert_eq!(t.len(), exact.len());
        prop_assert_eq!(t.quantile(q), exact.quantile(q));
        prop_assert_eq!(t.prob_below(b), exact.prob_below(b));
        prop_assert_eq!(t.prob_below_strict(b), exact.prob_below_strict(b));
        prop_assert_eq!(t.truncated_mean(b), exact.truncated_mean(b));
        prop_assert_eq!(t.mean(), exact.mean());
        let twin = WindowCdf::from_samples(exact.samples().iter().copied());
        prop_assert_eq!(t.ks_distance(&twin), 0.0);
    }

    #[test]
    fn replace_edits_bound_the_ks_drift(
        reference in prop::collection::vec(0.0..64.0f64, 1..200),
        window in prop::collection::vec(0.0..64.0f64, 1..200),
        picks in prop::collection::vec(0usize..1_000_000, 0..40),
        fresh in prop::collection::vec(0.0..64.0f64, 40),
        factor in 0.0..=1.0f64,
        shift in 0u8..2,
    ) {
        // The scheduler's drift memo skips a KS scan when
        // ks(R, P) + e / (2N) cannot exceed its threshold: C came from
        // the full window P (N samples) by e single-sample edits with
        // the length restored, so the counting functions of P and C
        // differ by at most e / 2 everywhere. Floored values make ties
        // common. `shift == 1` is the case that meets the bound: R = P,
        // and each edit swaps the largest sample for one below them all.
        let mut held: Vec<f64> = window.iter().map(|v| v.floor()).collect();
        let mut r = RollingCdf::new();
        for &v in &held {
            r.push(v);
        }
        let p = CdfSummary::rolling(r.snapshot()).scale(factor);
        let reference = if shift == 1 {
            p.clone()
        } else {
            let floored = reference.iter().map(|v| v.floor());
            CdfSummary::rolling(WindowCdf::from_samples(floored))
        };
        for (k, &pick) in picks.iter().enumerate() {
            let (old, v) = if shift == 1 {
                (r.snapshot().max().unwrap(), -1.0 - k as f64)
            } else {
                (held.swap_remove(pick % held.len()), fresh[k].floor())
            };
            prop_assert!(r.remove(old));
            r.push(v);
            held.push(v);
        }
        let c = CdfSummary::rolling(r.snapshot()).scale(factor);
        let edits = c.edits().unwrap() - p.edits().unwrap();
        prop_assert_eq!(edits, 2 * picks.len() as u64);
        let n = window.len() as f64;
        let (before, after) = (reference.ks_distance(&p), reference.ks_distance(&c));
        prop_assert!(
            after <= before + edits as f64 / (2.0 * n) + 1e-12,
            "ks(R,C)={} ks(R,P)={} e={} N={}", after, before, edits, n
        );
    }

    #[test]
    fn sketch_quantiles_within_rank_epsilon(
        samples in prop::collection::vec(0.0..1e6f64, 600..1200),
        q in 0.05..0.95f64,
    ) {
        // The extended-P² sketch is approximate; measure its error in
        // rank space against the exact CDF of the same stream.
        let mut s = QuantileSketch::new(33);
        for &v in &samples {
            s.observe(v);
        }
        let exact = EmpiricalCdf::from_clean_samples(samples.clone());
        let approx = s.quantile(q).unwrap();
        let rank = exact.prob_below(approx);
        prop_assert!(
            (rank - q).abs() < 0.1,
            "q={} sketch value {} sits at rank {}", q, approx, rank
        );
    }

    #[test]
    fn attained_fraction_consistency(samples in finite_samples(), frac in 0.05..0.95f64) {
        // At least `frac` of samples lie at or above attained(samples, frac).
        let a = iqpaths_stats::metrics::attained(&samples, frac);
        let meeting = iqpaths_stats::metrics::fraction_meeting(&samples, a);
        prop_assert!(meeting + 1e-9 >= frac, "attained={a} meeting={meeting} frac={frac}");
    }

    #[test]
    fn stddev_nonnegative_and_zero_for_constant(x in 0.0..1e6f64, n in 2usize..50) {
        let xs = vec![x; n];
        // Tolerance is relative: summation rounding scales with |x|.
        prop_assert!(iqpaths_stats::metrics::stddev(&xs).abs() < 1e-9 * (1.0 + x));
    }
}
