//! The Figure 4 statistical claim, wired through the public crates: on
//! envelope-stable traces, percentile prediction fails rarely while
//! mean predictors carry substantial relative error; and the monitoring
//! module's CDFs drive correct admission decisions.

use iq_paths::prelude::*;
use iq_paths::stats::percentile::{evaluate_mean_prediction, evaluate_percentile_prediction};
use iq_paths::stats::predictors::standard_suite;
use iq_paths::traces::envelope::{available_bandwidth, EnvelopeConfig};

fn series(seed: u64) -> Vec<f64> {
    available_bandwidth(&EnvelopeConfig::default(), 0.1, 3000.0, seed)
        .rates()
        .to_vec()
}

#[test]
fn percentile_prediction_beats_mean_prediction() {
    for seed in [1, 2, 3] {
        let s = series(seed);
        let pct = evaluate_percentile_prediction(&s, 500, 5, 0.9);
        assert!(
            pct.failure_rate() < 0.08,
            "seed {seed}: percentile failure {}",
            pct.failure_rate()
        );
        for p in &mut standard_suite(32) {
            let err = evaluate_mean_prediction(&s, p.as_mut());
            assert!(
                err > 0.05,
                "seed {seed}: {} error {err} suspiciously low",
                p.name()
            );
        }
    }
}

#[test]
fn floor_is_a_valid_lemma1_input() {
    // Feed the series into the online predictor and verify the Lemma 1
    // probability of its own floor is ≥ the configured guarantee.
    let s = series(5);
    let mut pred = PercentilePredictor::new(500, 0.9);
    for (i, &bw) in s.iter().enumerate().take(800) {
        pred.observe(i as f64 * 0.1, bw);
    }
    let floor = pred.floor().unwrap();
    let cdf = pred.cdf();
    let p = iq_paths::pgos::guarantee::prob_of_service(&cdf, floor);
    assert!(p >= 0.9 - 1e-9, "P(bw >= floor) = {p}");
}

#[test]
fn monitoring_module_cdf_matches_offline_cdf() {
    use iq_paths::overlay::node::MonitoringModule;
    let s = series(6);
    let mut m = MonitoringModule::new(1, 500);
    for (i, &bw) in s.iter().enumerate().take(500) {
        m.observe_bandwidth(0, i as f64 * 0.1, bw);
    }
    let stats = m.stats(0);
    let offline = EmpiricalCdf::from_clean_samples(s[..500].to_vec());
    for q in [0.05, 0.1, 0.5, 0.9] {
        assert_eq!(stats.cdf.quantile(q), offline.quantile(q));
    }
}
