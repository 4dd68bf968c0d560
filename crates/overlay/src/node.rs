//! The Figure 3 overlay node: per-path statistical monitoring feeding
//! the routing/scheduling module.
//!
//! The monitoring module "monitors the bandwidth characteristics (i.e.,
//! bandwidth distribution) of each overlay path and shares this
//! information with the Routing/Scheduling component." Per path it
//! keeps a rolling window of available-bandwidth samples (the paper
//! uses N = 500–1000 samples at 0.1–1 s), an EWMA mean predictor for
//! the mean-based baselines, and a smoothed RTT estimate.
//!
//! Snapshots are emitted as [`PathSnapshot`] — the single summary type
//! of the monitoring→scheduling data plane — holding a
//! [`CdfSummary`] whose representation is chosen by [`CdfMode`].

use iqpaths_core::traits::PathSnapshot;
use iqpaths_stats::{
    BandwidthCdf, CdfSummary, Ewma, HistogramCdf, Predictor, QuantileSketch, RollingCdf,
    SampleWindow,
};

/// How the monitoring module summarizes bandwidth distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CdfMode {
    /// Exact empirical CDF over the rolling window (re-sorts per
    /// snapshot; the reference implementation).
    Exact,
    /// Streaming histogram with exponential decay — O(1) updates for
    /// the scheduler fast path. Snapshots are resampled into empirical
    /// form at `resolution` quantile points.
    Histogram {
        /// Histogram bin count.
        bins: usize,
        /// Quantile points per snapshot.
        resolution: usize,
        /// Domain upper bound in bits/s (e.g. the link capacity).
        max_bw: f64,
    },
    /// Incrementally maintained order statistics over the same rolling
    /// window as `Exact`: a binary search plus an at most N-word memmove
    /// per sample, O(1) snapshot, and queries bit-identical to the exact
    /// empirical CDF.
    Rolling,
    /// Constant-memory extended-P² quantile sketch over the whole
    /// stream — O(markers) per sample and per snapshot, approximate
    /// queries, no eviction.
    Sketch {
        /// Marker count (≥ 3; 33 gives a marker every 3.125 centiles).
        markers: usize,
    },
}

/// Per-path distribution state behind the configured [`CdfMode`].
#[derive(Debug, Clone)]
enum Backend {
    Exact,
    Histogram {
        hists: Vec<HistogramCdf>,
        resolution: usize,
    },
    Rolling(Vec<RollingCdf>),
    Sketch(Vec<QuantileSketch>),
}

/// Per-path monitoring state of an overlay node.
#[derive(Debug, Clone)]
pub struct MonitoringModule {
    windows: Vec<SampleWindow>,
    backend: Backend,
    means: Vec<Ewma>,
    rtts: Vec<f64>,
    last_seen: Vec<Option<f64>>,
    /// Bandwidth observations fed per path (see
    /// [`MonitoringModule::observations`]).
    observations: Vec<u64>,
}

impl MonitoringModule {
    /// Monitoring over `paths` paths keeping `n_samples` of history per
    /// path (the paper's N), with exact CDFs.
    ///
    /// # Panics
    /// Panics if `paths == 0` or `n_samples == 0`.
    pub fn new(paths: usize, n_samples: usize) -> Self {
        Self::with_mode(paths, n_samples, CdfMode::Exact)
    }

    /// Monitoring with an explicit CDF mode (the `abl-hist` knob).
    ///
    /// # Panics
    /// Panics on zero paths/samples, a histogram mode with zero
    /// bins/resolution or non-positive domain, or a sketch mode with
    /// fewer than 3 markers.
    pub fn with_mode(paths: usize, n_samples: usize, mode: CdfMode) -> Self {
        assert!(paths > 0, "need at least one path");
        let backend = match mode {
            CdfMode::Exact => Backend::Exact,
            CdfMode::Histogram {
                bins,
                resolution,
                max_bw,
            } => {
                assert!(bins > 0 && resolution > 1 && max_bw > 0.0);
                // Decay tuned so roughly `n_samples` of history matter.
                let decay = 1.0 - 1.0 / n_samples as f64;
                Backend::Histogram {
                    hists: (0..paths)
                        .map(|_| HistogramCdf::with_decay(0.0, max_bw, bins, decay))
                        .collect(),
                    resolution,
                }
            }
            CdfMode::Rolling => Backend::Rolling((0..paths).map(|_| RollingCdf::new()).collect()),
            CdfMode::Sketch { markers } => {
                Backend::Sketch((0..paths).map(|_| QuantileSketch::new(markers)).collect())
            }
        };
        Self {
            windows: (0..paths).map(|_| SampleWindow::new(n_samples)).collect(),
            backend,
            means: (0..paths).map(|_| Ewma::new(0.3)).collect(),
            rtts: vec![0.0; paths],
            last_seen: vec![None; paths],
            observations: vec![0; paths],
        }
    }

    /// Number of monitored paths.
    pub fn paths(&self) -> usize {
        self.windows.len()
    }

    /// Feeds one available-bandwidth measurement (bits/s) for `path`
    /// taken at time `t` (seconds).
    pub fn observe_bandwidth(&mut self, path: usize, t: f64, bw: f64) {
        let Self {
            windows, backend, ..
        } = self;
        match backend {
            Backend::Exact => {
                windows[path].push(t, bw);
            }
            Backend::Histogram { hists, .. } => {
                windows[path].push(t, bw);
                hists[path].insert(bw);
            }
            Backend::Rolling(rolls) => {
                // Mirror the window's multiset exactly: evictions the
                // push displaces leave the sorted vector before the new
                // sample enters it.
                let roll = &mut rolls[path];
                if windows[path].push_with(t, bw, |old| {
                    roll.remove(old);
                }) {
                    roll.push(bw);
                }
            }
            Backend::Sketch(sketches) => {
                windows[path].push(t, bw);
                sketches[path].observe(bw);
            }
        }
        self.means[path].observe(bw);
        self.observations[path] += 1;
        // Delayed (fault-injected) reports can arrive out of order;
        // staleness tracks the newest measurement timestamp seen.
        self.last_seen[path] = Some(self.last_seen[path].map_or(t, |prev| prev.max(t)));
    }

    /// How many bandwidth measurements [`MonitoringModule::observe_bandwidth`]
    /// has fed `path`. Only that call moves the count, and every
    /// distribution-derived quantity of [`MonitoringModule::stats`]
    /// (the CDF, the mean prediction) is a function of the calls it
    /// counts, so a caller that caches such a quantity can refresh it
    /// exactly when the count moved.
    pub fn observations(&self, path: usize) -> u64 {
        self.observations[path]
    }

    /// Timestamp of the newest bandwidth measurement recorded for
    /// `path`, or `None` before the first one.
    pub fn last_observed(&self, path: usize) -> Option<f64> {
        self.last_seen[path]
    }

    /// How stale `path`'s telemetry is at `now`: seconds since the
    /// newest recorded measurement. Under injected probe loss or delay
    /// this grows beyond the probe interval — the signal re-probing and
    /// conformance checks watch for.
    pub fn staleness(&self, path: usize, now: f64) -> Option<f64> {
        self.last_seen[path].map(|t| (now - t).max(0.0))
    }

    /// Feeds one RTT sample (seconds), smoothed with the TCP-style
    /// `7/8` filter.
    pub fn observe_rtt(&mut self, path: usize, rtt: f64) {
        let prev = self.rtts[path];
        self.rtts[path] = if prev == 0.0 {
            rtt
        } else {
            prev * 0.875 + rtt * 0.125
        };
    }

    /// Number of bandwidth samples held for `path`.
    pub fn sample_count(&self, path: usize) -> usize {
        self.windows[path].len()
    }

    /// Produces the monitoring snapshot for one path.
    ///
    /// Snapshot cost depends on the mode: `Exact` sorts the window
    /// (O(N log N)), `Histogram` resamples quantile points,
    /// `Rolling` shares its sorted vector (O(1)), and `Sketch` clones its
    /// O(markers) state. `oracle_next_rate` and `loss` are left at
    /// their defaults; runtimes with ground truth fill them in.
    pub fn stats(&self, path: usize) -> PathSnapshot {
        let window = &self.windows[path];
        let cdf = match &self.backend {
            Backend::Exact => CdfSummary::exact(window.cdf()),
            Backend::Histogram { hists, resolution } => {
                // Resample the streaming histogram at evenly spaced
                // quantile points into empirical form.
                let h = &hists[path];
                let samples: Vec<f64> = (1..=*resolution)
                    .filter_map(|k| h.quantile(k as f64 / (*resolution + 1) as f64))
                    .collect();
                CdfSummary::exact(iqpaths_stats::EmpiricalCdf::from_clean_samples(samples))
            }
            Backend::Rolling(rolls) => CdfSummary::rolling(rolls[path].snapshot()),
            Backend::Sketch(sketches) => CdfSummary::sketch(sketches[path].clone()),
        };
        PathSnapshot {
            index: path,
            cdf,
            mean_prediction: self.means[path].predict().unwrap_or(0.0),
            oracle_next_rate: None,
            rtt: self.rtts[path],
            loss: 0.0,
        }
    }

    /// Snapshots for every path, in path order.
    pub fn all_stats(&self) -> Vec<PathSnapshot> {
        (0..self.paths()).map(|p| self.stats(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqpaths_stats::BandwidthCdf;

    fn pseudo_bw(i: u64) -> f64 {
        20.0e6 + (i.wrapping_mul(2654435761) % 60_000) as f64 * 1.0e3
    }

    #[test]
    fn cdf_tracks_observations() {
        let mut m = MonitoringModule::new(2, 100);
        for i in 0..50 {
            m.observe_bandwidth(0, i as f64, 10.0 + (i % 5) as f64);
        }
        let s = m.stats(0);
        assert_eq!(s.cdf.len(), 50);
        assert!(s.cdf.quantile(0.5).unwrap() >= 10.0);
        // Path 1 untouched.
        assert!(m.stats(1).cdf.is_empty());
    }

    #[test]
    fn mean_prediction_converges() {
        let mut m = MonitoringModule::new(1, 100);
        for i in 0..100 {
            m.observe_bandwidth(0, i as f64, 42.0);
        }
        assert!((m.stats(0).mean_prediction - 42.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_smoothing() {
        let mut m = MonitoringModule::new(1, 10);
        m.observe_rtt(0, 0.100);
        assert!((m.stats(0).rtt - 0.100).abs() < 1e-12);
        m.observe_rtt(0, 0.200);
        // 0.1·7/8 + 0.2/8 = 0.1125.
        assert!((m.stats(0).rtt - 0.1125).abs() < 1e-12);
    }

    #[test]
    fn window_caps_history() {
        let mut m = MonitoringModule::new(1, 10);
        for i in 0..100 {
            m.observe_bandwidth(0, i as f64, i as f64);
        }
        assert_eq!(m.sample_count(0), 10);
        // Only the last 10 samples (90..99) back the CDF.
        assert!(m.stats(0).cdf.quantile(0.0).unwrap() >= 90.0);
    }

    #[test]
    fn all_stats_covers_every_path() {
        let m = MonitoringModule::new(3, 10);
        assert_eq!(m.all_stats().len(), 3);
    }

    #[test]
    fn staleness_tracks_newest_sample() {
        let mut m = MonitoringModule::new(2, 10);
        assert_eq!(m.last_observed(0), None);
        assert_eq!(m.staleness(0, 5.0), None);
        m.observe_bandwidth(0, 1.0, 10.0);
        m.observe_bandwidth(0, 3.0, 12.0);
        // A delayed report with an older timestamp must not rewind.
        m.observe_bandwidth(0, 2.0, 11.0);
        assert_eq!(m.last_observed(0), Some(3.0));
        assert_eq!(m.staleness(0, 5.0), Some(2.0));
        // Other paths are independent.
        assert_eq!(m.staleness(1, 5.0), None);
    }

    #[test]
    fn observation_count_moves_only_on_observe_bandwidth() {
        let modes = [
            CdfMode::Exact,
            CdfMode::Histogram {
                bins: 16,
                resolution: 8,
                max_bw: 100.0e6,
            },
            CdfMode::Rolling,
            CdfMode::Sketch { markers: 5 },
        ];
        for mode in modes {
            let mut m = MonitoringModule::with_mode(2, 4, mode);
            assert_eq!((m.observations(0), m.observations(1)), (0, 0));
            // Past the window capacity, so evictions are counted too.
            for i in 0..6u64 {
                m.observe_bandwidth(0, i as f64, pseudo_bw(i));
                assert_eq!(m.observations(0), i + 1, "{mode:?}");
                assert_eq!(m.observations(1), 0, "{mode:?}");
            }
            m.observe_bandwidth(1, 7.0, pseudo_bw(7));
            assert_eq!(m.observations(1), 1, "{mode:?}");
            m.observe_rtt(0, 0.01);
            let _ = m.stats(0);
            let _ = m.all_stats();
            let _ = (m.staleness(0, 9.0), m.last_observed(0), m.sample_count(0));
            assert_eq!((m.observations(0), m.observations(1)), (6, 1), "{mode:?}");
        }
    }

    #[test]
    fn histogram_mode_approximates_exact_quantiles() {
        let mode = CdfMode::Histogram {
            bins: 512,
            resolution: 200,
            max_bw: 100.0e6,
        };
        let mut exact = MonitoringModule::new(1, 500);
        let mut hist = MonitoringModule::with_mode(1, 500, mode);
        for i in 0..500u64 {
            // Pseudo-uniform samples in [20, 80] Mbps.
            let bw = pseudo_bw(i);
            exact.observe_bandwidth(0, i as f64 * 0.1, bw);
            hist.observe_bandwidth(0, i as f64 * 0.1, bw);
        }
        let ce = exact.stats(0).cdf;
        let ch = hist.stats(0).cdf;
        for q in [0.05, 0.1, 0.5, 0.9] {
            let e = ce.quantile(q).unwrap();
            let h = ch.quantile(q).unwrap();
            assert!(
                (e - h).abs() / e < 0.05,
                "q={q}: exact {e} vs histogram {h}"
            );
        }
    }

    #[test]
    fn rolling_mode_matches_exact_bitwise() {
        // Push past capacity so eviction mirroring is exercised; every
        // query must agree bit-for-bit with the exact window CDF.
        let mut exact = MonitoringModule::new(1, 100);
        let mut roll = MonitoringModule::with_mode(1, 100, CdfMode::Rolling);
        for i in 0..350u64 {
            let bw = pseudo_bw(i);
            exact.observe_bandwidth(0, i as f64 * 0.1, bw);
            roll.observe_bandwidth(0, i as f64 * 0.1, bw);
        }
        let ce = exact.stats(0).cdf;
        let cr = roll.stats(0).cdf;
        assert_eq!(ce.len(), 100);
        assert_eq!(cr.len(), 100);
        for q in [0.0, 0.05, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(ce.quantile(q), cr.quantile(q));
        }
        for b in [30.0e6, 50.0e6, 70.0e6] {
            assert_eq!(ce.prob_below(b), cr.prob_below(b));
            assert_eq!(ce.prob_below_strict(b), cr.prob_below_strict(b));
            assert_eq!(ce.truncated_mean(b), cr.truncated_mean(b));
        }
        assert_eq!(ce.mean(), cr.mean());
    }

    #[test]
    fn sketch_mode_tracks_quantiles() {
        let mut exact = MonitoringModule::new(1, 5000);
        let mut sk = MonitoringModule::with_mode(1, 5000, CdfMode::Sketch { markers: 33 });
        for i in 0..5000u64 {
            let bw = pseudo_bw(i);
            exact.observe_bandwidth(0, i as f64 * 0.1, bw);
            sk.observe_bandwidth(0, i as f64 * 0.1, bw);
        }
        let ce = exact.stats(0).cdf;
        let cs = sk.stats(0).cdf;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let approx = cs.quantile(q).unwrap();
            let rank = ce.prob_below(approx);
            assert!((rank - q).abs() < 0.05, "q={q}: sketch rank {rank}");
        }
    }

    #[test]
    #[should_panic]
    fn histogram_mode_rejects_zero_bins() {
        let _ = MonitoringModule::with_mode(
            1,
            10,
            CdfMode::Histogram {
                bins: 0,
                resolution: 10,
                max_bw: 1.0,
            },
        );
    }

    #[test]
    #[should_panic]
    fn sketch_mode_rejects_too_few_markers() {
        let _ = MonitoringModule::with_mode(1, 10, CdfMode::Sketch { markers: 2 });
    }
}
