//! Stream utility specifications.
//!
//! "Applications specify stream utility in terms of the minimum
//! bandwidths they require, or using Window-Constraints requirement. A
//! Window-Constraint is specified by the values x_i and y_i, where y_i
//! is the number of consecutive packet arrivals from stream S_i for
//! every fixed window, and x_i is the minimum number of packets in the
//! same stream that must be serviced in the window." (§5.1)

/// Identifies a stream (matches `iqpaths_simnet::StreamId` numerically;
/// kept as a plain index here to keep this crate free of the emulator).
pub type StreamIndex = usize;

/// The guarantee an application requests for a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// With probability at least `p`, the stream receives its required
    /// bandwidth in each scheduling window ("receives its required
    /// bandwidth 100·p% of the time").
    Probabilistic {
        /// Required probability, in `(0, 1)`.
        p: f64,
    },
    /// The expected number of packets missing their deadline per
    /// scheduling window is bounded by `max_expected_misses` (Lemma 2).
    ViolationBound {
        /// Bound on `E[Z]` per window, ≥ 0.
        max_expected_misses: f64,
    },
    /// No guarantee: the stream takes whatever bandwidth is left.
    BestEffort,
}

impl Guarantee {
    /// Strength used to order streams during resource mapping: streams
    /// with stronger requirements are placed first ("PGOS first finds
    /// the path that can satisfy the requirement of the most important
    /// stream").
    ///
    /// Probabilistic guarantees order by `p`; violation bounds by the
    /// tightness `1/(1+bound)`; best-effort is always weakest.
    pub fn strength(&self) -> f64 {
        match self {
            Guarantee::Probabilistic { p } => *p,
            Guarantee::ViolationBound {
                max_expected_misses,
            } => 1.0 / (1.0 + max_expected_misses),
            Guarantee::BestEffort => 0.0,
        }
    }

    /// True for best-effort streams.
    pub fn is_best_effort(&self) -> bool {
        matches!(self, Guarantee::BestEffort)
    }
}

/// Per-window packet-count constraint `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConstraint {
    /// Minimum packets that must be serviced per window.
    pub x: u32,
    /// Packets arriving per window.
    pub y: u32,
}

impl WindowConstraint {
    /// `x / y` — the fraction of arrivals that must be serviced; the
    /// Table 1 tie-breaker ("equal deadlines, highest window constraint
    /// first").
    pub fn ratio(&self) -> f64 {
        if self.y == 0 {
            0.0
        } else {
            self.x as f64 / self.y as f64
        }
    }
}

/// Full utility specification of one application stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Dense stream index (position in the scheduler's stream table).
    pub index: StreamIndex,
    /// Human-readable name ("Atom", "Bond1", "DT3" …).
    pub name: String,
    /// Required bandwidth in bits/s (0 for pure best-effort streams).
    pub required_bw: f64,
    /// Packet (message fragment) size in bytes.
    pub packet_bytes: u32,
    /// Requested guarantee.
    pub guarantee: Guarantee,
    /// Relative weight for fair-queuing baselines and best-effort
    /// sharing (defaults to required bandwidth, or 1.0 when none).
    pub weight: f64,
    /// Optional loss-rate service objective (§7 extension): the stream
    /// must not ride a path whose measured loss exceeds this bound.
    pub max_loss: Option<f64>,
    /// DWCS-style partial service (the paper's window-constraint model,
    /// \[31\]): the fraction `x/y` of each window's arrivals that must be
    /// serviced with the stream's guarantee. `1.0` (default) = every
    /// packet; `0.75` = 3 of every 4 (e.g. droppable enhancement
    /// layers). The remainder is eligible for best-effort service only.
    pub service_fraction: f64,
}

impl StreamSpec {
    /// A stream with a probabilistic bandwidth guarantee.
    ///
    /// # Panics
    /// Panics unless `0 < p < 1`, `required_bw > 0`, `packet_bytes > 0`.
    pub fn probabilistic(
        index: StreamIndex,
        name: impl Into<String>,
        required_bw: f64,
        p: f64,
        packet_bytes: u32,
    ) -> Self {
        assert!(p > 0.0 && p < 1.0, "p must be in (0, 1)");
        assert!(required_bw > 0.0, "guaranteed streams need a bandwidth");
        assert!(packet_bytes > 0, "packets must be non-empty");
        Self {
            index,
            name: name.into(),
            required_bw,
            packet_bytes,
            guarantee: Guarantee::Probabilistic { p },
            weight: required_bw,
            max_loss: None,
            service_fraction: 1.0,
        }
    }

    /// A stream with a deadline-violation-bound guarantee.
    ///
    /// # Panics
    /// Panics on negative bound or non-positive bandwidth/packet size.
    pub fn violation_bound(
        index: StreamIndex,
        name: impl Into<String>,
        required_bw: f64,
        max_expected_misses: f64,
        packet_bytes: u32,
    ) -> Self {
        assert!(max_expected_misses >= 0.0);
        assert!(required_bw > 0.0 && packet_bytes > 0);
        Self {
            index,
            name: name.into(),
            required_bw,
            packet_bytes,
            guarantee: Guarantee::ViolationBound {
                max_expected_misses,
            },
            weight: required_bw,
            max_loss: None,
            service_fraction: 1.0,
        }
    }

    /// A best-effort stream with a nominal offered rate (used only for
    /// queue sizing and fair-share weights).
    ///
    /// # Panics
    /// Panics if `packet_bytes == 0`.
    pub fn best_effort(
        index: StreamIndex,
        name: impl Into<String>,
        nominal_bw: f64,
        packet_bytes: u32,
    ) -> Self {
        assert!(packet_bytes > 0);
        Self {
            index,
            name: name.into(),
            required_bw: 0.0,
            packet_bytes,
            guarantee: Guarantee::BestEffort,
            weight: if nominal_bw > 0.0 { nominal_bw } else { 1.0 },
            max_loss: None,
            service_fraction: 1.0,
        }
    }

    /// Overrides the fair-queuing weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0);
        self.weight = weight;
        self
    }

    /// Adds a loss-rate service objective: resource mapping will not
    /// place this stream on a path whose measured loss exceeds `bound`.
    ///
    /// # Panics
    /// Panics unless `bound` is in `[0, 1)`.
    pub fn with_loss_bound(mut self, bound: f64) -> Self {
        assert!((0.0..1.0).contains(&bound), "loss bound must be in [0, 1)");
        self.max_loss = Some(bound);
        self
    }

    /// Requires only a fraction of each window's arrivals to be
    /// serviced with the guarantee (DWCS `x < y`). The required
    /// bandwidth still describes the *offered* rate `y`; the scheduler
    /// commits capacity for `x = ceil(fraction · y)` packets.
    ///
    /// # Panics
    /// Panics unless `fraction` is in `(0, 1]`.
    pub fn with_service_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "service fraction must be in (0, 1]"
        );
        self.service_fraction = fraction;
        self
    }

    /// Packets arriving per scheduling window at the offered rate
    /// (`y_i = ceil(required_bw · t_w / (8 · s))`).
    pub fn arrivals_per_window(&self, tw_secs: f64) -> u32 {
        if self.required_bw <= 0.0 {
            return 0;
        }
        let bits_per_pkt = self.packet_bytes as f64 * 8.0;
        (self.required_bw * tw_secs / bits_per_pkt).ceil() as u32
    }

    /// Packets per scheduling window the guarantee covers
    /// (`x_i = ceil(service_fraction · y_i)`).
    pub fn packets_per_window(&self, tw_secs: f64) -> u32 {
        let y = self.arrivals_per_window(tw_secs);
        if self.service_fraction >= 1.0 {
            y
        } else {
            (self.service_fraction * y as f64).ceil() as u32
        }
    }

    /// The window constraint `(x, y)` implied by the spec.
    pub fn window_constraint(&self, tw_secs: f64) -> WindowConstraint {
        let y = self.arrivals_per_window(tw_secs);
        WindowConstraint {
            x: self.packets_per_window(tw_secs),
            y: y.max(1),
        }
    }

    /// Required rate expressed in bits/s for `x` packets per window.
    pub fn rate_for_packets(&self, x: u32, tw_secs: f64) -> f64 {
        x as f64 * self.packet_bytes as f64 * 8.0 / tw_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strength_ordering() {
        let strong = Guarantee::Probabilistic { p: 0.99 };
        let weak = Guarantee::Probabilistic { p: 0.90 };
        let be = Guarantee::BestEffort;
        assert!(strong.strength() > weak.strength());
        assert!(weak.strength() > be.strength());
        let tight = Guarantee::ViolationBound {
            max_expected_misses: 0.1,
        };
        let loose = Guarantee::ViolationBound {
            max_expected_misses: 10.0,
        };
        assert!(tight.strength() > loose.strength());
    }

    #[test]
    fn window_constraint_ratio() {
        assert_eq!(WindowConstraint { x: 3, y: 4 }.ratio(), 0.75);
        assert_eq!(WindowConstraint { x: 0, y: 0 }.ratio(), 0.0);
    }

    #[test]
    fn packets_per_window_matches_rate() {
        // 8 Mbps at 1000-byte packets over a 1 s window = 1000 packets.
        let s = StreamSpec::probabilistic(0, "s", 8.0e6, 0.95, 1000);
        assert_eq!(s.packets_per_window(1.0), 1000);
        assert_eq!(s.packets_per_window(0.5), 500);
        // Rounds up.
        let s2 = StreamSpec::probabilistic(0, "s2", 8.0e6 + 1.0, 0.95, 1000);
        assert_eq!(s2.packets_per_window(1.0), 1001);
    }

    #[test]
    fn rate_for_packets_inverts() {
        let s = StreamSpec::probabilistic(0, "s", 8.0e6, 0.95, 1000);
        let x = s.packets_per_window(1.0);
        assert!((s.rate_for_packets(x, 1.0) - 8.0e6).abs() < 1e-6);
    }

    #[test]
    fn best_effort_has_zero_required_bw() {
        let s = StreamSpec::best_effort(2, "bulk", 30.0e6, 1500);
        assert_eq!(s.required_bw, 0.0);
        assert_eq!(s.packets_per_window(1.0), 0);
        assert!(s.guarantee.is_best_effort());
        assert_eq!(s.weight, 30.0e6);
    }

    #[test]
    fn best_effort_zero_nominal_gets_unit_weight() {
        let s = StreamSpec::best_effort(0, "x", 0.0, 100);
        assert_eq!(s.weight, 1.0);
    }

    #[test]
    #[should_panic]
    fn probabilistic_requires_valid_p() {
        let _ = StreamSpec::probabilistic(0, "s", 1.0e6, 1.0, 1000);
    }

    #[test]
    fn partial_service_shrinks_x_not_y() {
        // 8 Mbps at 1000 B packets over 1 s: y = 1000 arrivals.
        let s = StreamSpec::probabilistic(0, "s", 8.0e6, 0.95, 1000).with_service_fraction(0.75);
        assert_eq!(s.arrivals_per_window(1.0), 1000);
        assert_eq!(s.packets_per_window(1.0), 750);
        let wc = s.window_constraint(1.0);
        assert_eq!((wc.x, wc.y), (750, 1000));
        assert!((wc.ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_service_fraction_rejected() {
        let _ = StreamSpec::probabilistic(0, "s", 1.0e6, 0.9, 1000).with_service_fraction(0.0);
    }

    #[test]
    fn with_weight_overrides() {
        let s = StreamSpec::probabilistic(0, "s", 1.0e6, 0.9, 1000).with_weight(7.0);
        assert_eq!(s.weight, 7.0);
    }
}
