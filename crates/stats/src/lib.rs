//! # iqpaths-stats — statistical substrate for IQ-Paths
//!
//! This crate implements the statistical machinery behind IQ-Paths' core
//! claim (HPDC 2006, §4): the *average* available bandwidth of a shared
//! wide-area path is hard to predict (mean-predictor error around 20%),
//! but the *distribution* of available bandwidth is stable enough that
//! percentile ("statistical") prediction fails rarely (< 4% in the paper).
//!
//! The main pieces are:
//!
//! * [`cdf::EmpiricalCdf`] — exact empirical cumulative distribution of a
//!   sample set, with quantile queries and the truncated mean `M[b0]`
//!   required by the paper's Lemma 2.
//! * [`histogram::HistogramCdf`] — streaming fixed-bin approximation used
//!   on the scheduler fast path.
//! * [`rolling::RollingCdf`] / [`rolling::WindowCdf`] — incrementally
//!   maintained rolling-window CDF (a copy-on-write sorted vector:
//!   binary search plus memmove per sample, O(1) snapshot) answering
//!   queries bit-identically to [`cdf::EmpiricalCdf`].
//! * [`sketch::QuantileSketch`] — constant-memory streaming quantile
//!   sketch (extended P²) for approximate summaries.
//! * [`summary::CdfSummary`] — the unified, cheaply-cloneable summary
//!   handle the monitoring→scheduling data plane passes around.
//! * [`window::SampleWindow`] — time-stamped rolling windows of
//!   bandwidth measurements.
//! * [`predictors`] — classical mean predictors (MA / SMA / EWMA / AR(1))
//!   the paper compares against.
//! * [`percentile::PercentilePredictor`] — the paper's statistical
//!   predictor: "with probability ≥ P the next-interval bandwidth exceeds
//!   the (1 − P)-quantile of the recent distribution".
//! * [`metrics`] — relative-error, failure-rate, jitter and summary
//!   statistics used by every experiment in the evaluation section.
//!
//! All bandwidth values are plain `f64`s; experiments use bits/second but
//! nothing in this crate assumes a unit.
//!
//! ## Paper artifact → code map
//!
//! | paper artifact | where it lives |
//! |---|---|
//! | Figure 4 mean-predictor error | [`predictors`] + [`percentile::evaluate_mean_prediction`] |
//! | Figure 4 percentile failure rate | [`percentile::PercentilePredictor`], [`percentile::evaluate_percentile_prediction`] |
//! | §4 N-sample distribution window | [`window::SampleWindow`] |
//! | Lemma 2's truncated mean `M[b0]` | [`BandwidthCdf::truncated_mean`], exact in [`cdf::EmpiricalCdf`] |
//! | monitoring CDF backends (DESIGN.md §7) | [`cdf`], [`histogram`], [`rolling`], [`sketch`], unified by [`summary::CdfSummary`] |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cdf;
pub mod histogram;
pub mod metrics;
pub mod percentile;
pub mod predictors;
pub mod rolling;
pub mod sketch;
pub mod summary;
pub mod timeseries;
pub mod window;

pub use cdf::EmpiricalCdf;
pub use histogram::HistogramCdf;
pub use percentile::PercentilePredictor;
pub use predictors::{ArOne, Ewma, MovingAverage, Predictor, SlidingMedian};
pub use rolling::{RollingCdf, WindowCdf};
pub use sketch::QuantileSketch;
pub use summary::CdfSummary;
pub use window::SampleWindow;

/// A cumulative distribution over bandwidth values.
///
/// Both the exact [`EmpiricalCdf`] and the streaming [`HistogramCdf`]
/// implement this trait; the PGOS scheduler (crate `iqpaths-core`) is
/// generic over it so experiments can ablate exact-vs-histogram CDFs.
pub trait BandwidthCdf {
    /// `F(b) = P[bandwidth <= b]`.
    fn prob_below(&self, b: f64) -> f64;

    /// `F(b⁻) = P[bandwidth < b]` — strict version, so that
    /// `1 − F(b⁻) = P[bandwidth >= b]` counts atoms at exactly `b`.
    /// Coincides with [`BandwidthCdf::prob_below`] for continuous
    /// approximations; exact for sample CDFs.
    fn prob_below_strict(&self, b: f64) -> f64 {
        self.prob_below(b)
    }

    /// The `q`-quantile (`q` in `[0, 1]`): smallest `b` with `F(b) >= q`.
    ///
    /// Returns `None` when the distribution is empty.
    fn quantile(&self, q: f64) -> Option<f64>;

    /// Truncated first moment `M[b0] = E[b · 1{b <= b0}]`.
    ///
    /// Lemma 2 of the paper bounds the expected number of deadline misses
    /// per scheduling window by `x_i · F(b0) − (t_w / s) · M[b0]`.
    fn truncated_mean(&self, b0: f64) -> f64;

    /// Number of samples (or total weight) the distribution summarizes.
    fn len(&self) -> usize;

    /// True when no samples have been observed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mean of the distribution.
    fn mean(&self) -> f64;

    /// `P[bandwidth >= b] = 1 − F(b⁻)`; convenience for guarantee math.
    fn prob_at_least(&self, b: f64) -> f64 {
        (1.0 - self.prob_below_strict(b)).clamp(0.0, 1.0)
    }
}
