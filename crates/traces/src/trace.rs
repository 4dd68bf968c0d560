//! Piecewise-constant rate traces.
//!
//! A [`RateTrace`] is the fundamental exchange format between the
//! workload generators and the network emulator: the traffic rate (or
//! available bandwidth) is constant within each fixed-length *epoch*.
//! The simulator integrates these step functions to compute packet
//! service times; the statistics crate consumes them as sample series.

/// A piecewise-constant, non-negative rate signal sampled on a uniform
/// epoch grid. Rates are in bits/second; epochs in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct RateTrace {
    epoch: f64,
    rates: Vec<f64>,
}

impl RateTrace {
    /// Builds a trace from per-epoch rates.
    ///
    /// # Panics
    /// Panics if `epoch <= 0`, or any rate is negative/NaN.
    pub fn new(epoch: f64, rates: Vec<f64>) -> Self {
        assert!(epoch > 0.0 && epoch.is_finite(), "epoch must be positive");
        assert!(
            rates.iter().all(|r| r.is_finite() && *r >= 0.0),
            "rates must be finite and non-negative"
        );
        Self { epoch, rates }
    }

    /// A constant-rate trace covering `duration` seconds.
    pub fn constant(epoch: f64, rate: f64, duration: f64) -> Self {
        let n = (duration / epoch).ceil() as usize;
        Self::new(epoch, vec![rate; n])
    }

    /// Epoch length in seconds.
    pub fn epoch(&self) -> f64 {
        self.epoch
    }

    /// Per-epoch rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of epochs.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True when the trace has no epochs.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Total covered duration in seconds.
    pub fn duration(&self) -> f64 {
        self.epoch * self.rates.len() as f64
    }

    /// The rate at absolute time `t` (seconds). Out-of-range times clamp
    /// to the first/last epoch so the emulator can run past the trace end
    /// without special cases; an empty trace reports rate 0.
    pub fn rate_at(&self, t: f64) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        if t <= 0.0 {
            return self.rates[0];
        }
        let idx = (t / self.epoch) as usize;
        self.rates[idx.min(self.rates.len() - 1)]
    }

    /// Index of the epoch containing time `t` (clamped).
    pub fn epoch_index(&self, t: f64) -> usize {
        if self.rates.is_empty() {
            return 0;
        }
        ((t.max(0.0) / self.epoch) as usize).min(self.rates.len() - 1)
    }

    /// Start time of the epoch after the one containing `t`, or `None`
    /// if `t` is in (or past) the final epoch. Used by the emulator to
    /// step rate integration across epoch boundaries.
    pub fn next_boundary_after(&self, t: f64) -> Option<f64> {
        if self.rates.is_empty() {
            return None;
        }
        let mut idx = (t.max(0.0) / self.epoch) as usize;
        // Guarantee strict progress: float truncation of t/epoch can land
        // one epoch early when t sits exactly on a boundary.
        while (idx as f64 + 1.0) * self.epoch <= t {
            idx += 1;
        }
        if idx + 1 >= self.rates.len() {
            None
        } else {
            Some((idx as f64 + 1.0) * self.epoch)
        }
    }

    /// Scales every rate by `factor`.
    ///
    /// # Panics
    /// Panics if `factor` is negative or NaN.
    pub fn scale(&self, factor: f64) -> Self {
        assert!(factor >= 0.0 && factor.is_finite());
        Self::new(self.epoch, self.rates.iter().map(|r| r * factor).collect())
    }

    /// Clamps every rate into `[0, cap]`.
    pub fn clamp_to(&self, cap: f64) -> Self {
        Self::new(self.epoch, self.rates.iter().map(|r| r.min(cap)).collect())
    }

    /// Pointwise sum of two traces on the same epoch grid; the result has
    /// the length of the longer trace (missing epochs treated as 0).
    ///
    /// # Panics
    /// Panics if epoch lengths differ.
    pub fn add(&self, other: &Self) -> Self {
        assert!(
            (self.epoch - other.epoch).abs() < 1e-12,
            "epoch grids must match"
        );
        let n = self.rates.len().max(other.rates.len());
        let rates = (0..n)
            .map(|i| {
                self.rates.get(i).copied().unwrap_or(0.0)
                    + other.rates.get(i).copied().unwrap_or(0.0)
            })
            .collect();
        Self::new(self.epoch, rates)
    }

    /// Residual trace `cap − self`, floored at `floor` (available
    /// bandwidth left on a link of capacity `cap` carrying this cross
    /// traffic).
    pub fn residual(&self, cap: f64, floor: f64) -> Self {
        Self::new(
            self.epoch,
            self.rates.iter().map(|r| (cap - r).max(floor)).collect(),
        )
    }

    /// Sub-trace covering `[from, to)` seconds (epoch-aligned, clamped).
    pub fn slice(&self, from: f64, to: f64) -> Self {
        let a = ((from / self.epoch).floor().max(0.0)) as usize;
        let b = (((to / self.epoch).ceil()) as usize).min(self.rates.len());
        Self::new(self.epoch, self.rates[a.min(b)..b].to_vec())
    }

    /// Mean rate over the trace.
    pub fn mean(&self) -> f64 {
        if self.rates.is_empty() {
            0.0
        } else {
            self.rates.iter().sum::<f64>() / self.rates.len() as f64
        }
    }

    /// Total bytes carried (`mean · duration / 8`).
    pub fn total_bytes(&self) -> f64 {
        self.rates.iter().sum::<f64>() * self.epoch / 8.0
    }

    /// Writes `time,rate` CSV rows (header included).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.rates.len() * 24 + 16);
        out.push_str("time_s,rate_bps\n");
        for (i, r) in self.rates.iter().enumerate() {
            out.push_str(&format!("{:.6},{:.3}\n", i as f64 * self.epoch, r));
        }
        out
    }

    /// Parses the CSV format produced by [`RateTrace::to_csv`]. The epoch
    /// is inferred from the first two timestamps.
    pub fn from_csv(csv: &str) -> Result<Self, TraceParseError> {
        let mut times = Vec::new();
        let mut rates = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("time") || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split(',');
            let t: f64 = parts
                .next()
                .ok_or(TraceParseError::Malformed(lineno))?
                .trim()
                .parse()
                .map_err(|_| TraceParseError::Malformed(lineno))?;
            let r: f64 = parts
                .next()
                .ok_or(TraceParseError::Malformed(lineno))?
                .trim()
                .parse()
                .map_err(|_| TraceParseError::Malformed(lineno))?;
            if !r.is_finite() || r < 0.0 {
                return Err(TraceParseError::InvalidRate(lineno));
            }
            times.push(t);
            rates.push(r);
        }
        if rates.is_empty() {
            return Err(TraceParseError::Empty);
        }
        let epoch = if times.len() >= 2 {
            let e = times[1] - times[0];
            if e <= 0.0 {
                return Err(TraceParseError::NonMonotoneTime);
            }
            e
        } else {
            1.0
        };
        Ok(Self::new(epoch, rates))
    }
}

/// Errors from [`RateTrace::from_csv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceParseError {
    /// A row failed to parse (0-based line number).
    Malformed(usize),
    /// A rate was negative or non-finite (0-based line number).
    InvalidRate(usize),
    /// No data rows found.
    Empty,
    /// Timestamps were not increasing.
    NonMonotoneTime,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(l) => write!(f, "malformed CSV row at line {l}"),
            Self::InvalidRate(l) => write!(f, "invalid rate at line {l}"),
            Self::Empty => write!(f, "trace CSV contained no data rows"),
            Self::NonMonotoneTime => write!(f, "trace timestamps must increase"),
        }
    }
}

impl std::error::Error for TraceParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace() {
        let t = RateTrace::constant(0.1, 5.0, 1.0);
        assert_eq!(t.len(), 10);
        assert_eq!(t.rate_at(0.55), 5.0);
        assert!((t.duration() - 1.0).abs() < 1e-12);
        assert_eq!(t.mean(), 5.0);
    }

    #[test]
    #[should_panic]
    fn negative_rate_rejected() {
        let _ = RateTrace::new(1.0, vec![-1.0]);
    }

    #[test]
    fn rate_at_boundaries_and_clamping() {
        let t = RateTrace::new(1.0, vec![1.0, 2.0, 3.0]);
        assert_eq!(t.rate_at(-5.0), 1.0);
        assert_eq!(t.rate_at(0.0), 1.0);
        assert_eq!(t.rate_at(1.0), 2.0); // epoch boundary belongs to next epoch
        assert_eq!(t.rate_at(2.5), 3.0);
        assert_eq!(t.rate_at(100.0), 3.0); // clamps to last epoch
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = RateTrace::new(1.0, vec![]);
        assert_eq!(t.rate_at(0.0), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert!(t.next_boundary_after(0.0).is_none());
    }

    #[test]
    fn next_boundary() {
        let t = RateTrace::new(0.5, vec![1.0, 2.0, 3.0]);
        assert_eq!(t.next_boundary_after(0.0), Some(0.5));
        assert_eq!(t.next_boundary_after(0.6), Some(1.0));
        assert_eq!(t.next_boundary_after(1.2), None); // in final epoch
    }

    #[test]
    fn scale_and_clamp() {
        let t = RateTrace::new(1.0, vec![1.0, 10.0]);
        assert_eq!(t.scale(2.0).rates(), &[2.0, 20.0]);
        assert_eq!(t.clamp_to(5.0).rates(), &[1.0, 5.0]);
    }

    #[test]
    fn add_pads_shorter_trace() {
        let a = RateTrace::new(1.0, vec![1.0, 1.0, 1.0]);
        let b = RateTrace::new(1.0, vec![2.0]);
        assert_eq!(a.add(&b).rates(), &[3.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn add_mismatched_epochs_panics() {
        let a = RateTrace::new(1.0, vec![1.0]);
        let b = RateTrace::new(0.5, vec![1.0]);
        let _ = a.add(&b);
    }

    #[test]
    fn residual_floors() {
        let t = RateTrace::new(1.0, vec![30.0, 120.0]);
        let r = t.residual(100.0, 1.0);
        assert_eq!(r.rates(), &[70.0, 1.0]);
    }

    #[test]
    fn slice_epoch_aligned() {
        let t = RateTrace::new(1.0, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let s = t.slice(1.0, 3.0);
        assert_eq!(s.rates(), &[1.0, 2.0]);
        // Clamped past the end.
        let s2 = t.slice(4.0, 100.0);
        assert_eq!(s2.rates(), &[4.0]);
    }

    #[test]
    fn csv_roundtrip() {
        let t = RateTrace::new(0.25, vec![1.5, 2.5, 3.5]);
        let parsed = RateTrace::from_csv(&t.to_csv()).unwrap();
        assert!((parsed.epoch() - 0.25).abs() < 1e-9);
        assert_eq!(parsed.len(), 3);
        assert!((parsed.rates()[1] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert_eq!(RateTrace::from_csv(""), Err(TraceParseError::Empty));
        assert!(matches!(
            RateTrace::from_csv("0.0,abc"),
            Err(TraceParseError::Malformed(0))
        ));
        assert!(matches!(
            RateTrace::from_csv("0.0,-3.0"),
            Err(TraceParseError::InvalidRate(0))
        ));
        assert_eq!(
            RateTrace::from_csv("1.0,1.0\n0.5,1.0"),
            Err(TraceParseError::NonMonotoneTime)
        );
    }

    #[test]
    fn csv_skips_comments_and_header() {
        let csv = "time_s,rate_bps\n# comment\n0.0,1.0\n1.0,2.0\n";
        let t = RateTrace::from_csv(csv).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn total_bytes() {
        // 8 bits/s for 2 s = 2 bytes.
        let t = RateTrace::new(1.0, vec![8.0, 8.0]);
        assert!((t.total_bytes() - 2.0).abs() < 1e-12);
    }
}
