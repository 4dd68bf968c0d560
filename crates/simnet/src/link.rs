//! Links with fluid cross traffic.
//!
//! Each link has a fixed capacity (100 Mbps in the paper's testbed), a
//! propagation delay, and optionally a cross-traffic [`RateTrace`]. The
//! *residual* service rate available to overlay traffic during epoch `k`
//! is `max(capacity − cross(k), floor)`: the fluid approximation of a
//! FIFO bottleneck shared with trace-driven background packets. Packet
//! service times integrate this piecewise-constant rate exactly.
//!
//! The fluid model is what makes 300-second, multi-path experiments
//! with ~100 Mbps of emulated traffic run in milliseconds; the
//! `quantize_cross` helper produces a packet-granularity variant of a
//! cross trace for the fluid-validation ablation (`abl-fluid`).

use crate::time::SimDuration;
use iqpaths_traces::RateTrace;

/// Default residual floor as a fraction of link capacity. A strictly
/// positive floor guarantees service progress even when cross traffic
/// nominally saturates the link (real TCP cross traffic always yields
/// some capacity). For the testbed's 100 Mbps links this is 10 kbps.
pub const DEFAULT_RESIDUAL_FLOOR_FRACTION: f64 = 1e-4;

/// A unidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Human-readable name ("N-2->N-4").
    name: String,
    capacity: f64,
    prop_delay: SimDuration,
    cross: Option<RateTrace>,
    floor: f64,
    loss_prob: f64,
}

impl Link {
    /// A link with the given capacity (bits/s) and propagation delay.
    ///
    /// # Panics
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn new(name: impl Into<String>, capacity: f64, prop_delay: SimDuration) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        Self {
            name: name.into(),
            capacity,
            prop_delay,
            cross: None,
            floor: capacity * DEFAULT_RESIDUAL_FLOOR_FRACTION,
            loss_prob: 0.0,
        }
    }

    /// Sets an i.i.d. per-packet loss probability (congestion-independent
    /// corruption/drop component; queue overflow is modeled separately
    /// at the stream queues).
    ///
    /// # Panics
    /// Panics unless `loss` is in `[0, 1)`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.loss_prob = loss;
        self
    }

    /// Per-packet loss probability of this link.
    pub fn loss_prob(&self) -> f64 {
        self.loss_prob
    }

    /// Attaches cross traffic; rates above capacity are clamped.
    pub fn with_cross_traffic(mut self, cross: RateTrace) -> Self {
        self.cross = Some(cross.clamp_to(self.capacity));
        self
    }

    /// Composes `extra` cross traffic on top of whatever the link
    /// already carries (pointwise sum, clamped to capacity). This is how
    /// compiled fault schedules degrade a link without disturbing its
    /// nominal background-traffic trace. An `extra` on a different epoch
    /// grid is resampled onto the existing trace's grid first.
    pub fn add_cross_traffic(mut self, extra: RateTrace) -> Self {
        let combined = match self.cross.take() {
            None => extra,
            Some(existing) => {
                let aligned = if (existing.epoch() - extra.epoch()).abs() < 1e-12 {
                    extra
                } else {
                    resample(&extra, existing.epoch())
                };
                existing.add(&aligned)
            }
        };
        self.cross = Some(combined.clamp_to(self.capacity));
        self
    }

    /// Overrides the residual floor.
    ///
    /// # Panics
    /// Panics unless `0 < floor <= capacity`.
    pub fn with_floor(mut self, floor: f64) -> Self {
        assert!(floor > 0.0 && floor <= self.capacity);
        self.floor = floor;
        self
    }

    /// Link name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Raw capacity in bits/s.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Propagation delay.
    pub fn prop_delay(&self) -> SimDuration {
        self.prop_delay
    }

    /// The attached cross-traffic trace, if any.
    pub fn cross_traffic(&self) -> Option<&RateTrace> {
        self.cross.as_ref()
    }

    /// Residual (available) rate at time `t` in seconds.
    pub fn residual_at(&self, t: f64) -> f64 {
        match &self.cross {
            None => self.capacity,
            Some(c) => (self.capacity - c.rate_at(t)).max(self.floor),
        }
    }

    /// The next instant strictly after `t` at which this link's residual
    /// rate may change (a cross-trace epoch boundary), or `None` if the
    /// rate is constant from `t` on.
    pub fn next_rate_change_after(&self, t: f64) -> Option<f64> {
        self.cross.as_ref().and_then(|c| c.next_boundary_after(t))
    }

    /// Time (seconds) at which a transmission of `bits` starting at
    /// `from` completes on this link alone.
    pub fn finish_time(&self, from: f64, bits: f64) -> f64 {
        integrate_service(std::slice::from_ref(self), from, bits)
    }

    /// Samples the residual bandwidth into a [`RateTrace`] on a uniform
    /// grid — what a perfect available-bandwidth probe would see.
    pub fn residual_trace(&self, epoch: f64, duration: f64) -> RateTrace {
        let n = (duration / epoch).ceil() as usize;
        let rates = (0..n)
            .map(|i| self.residual_at((i as f64 + 0.5) * epoch))
            .collect();
        RateTrace::new(epoch, rates)
    }
}

/// Resamples a trace onto a different epoch grid by midpoint sampling,
/// preserving its duration.
fn resample(trace: &RateTrace, epoch: f64) -> RateTrace {
    let duration = trace.epoch() * trace.rates().len() as f64;
    let n = (duration / epoch).ceil().max(1.0) as usize;
    let rates = (0..n)
        .map(|i| trace.rate_at((i as f64 + 0.5) * epoch))
        .collect();
    RateTrace::new(epoch, rates)
}

/// Bottleneck residual rate of a multi-link path at time `t`.
///
/// # Panics
/// Panics on an empty link set.
pub fn bottleneck_residual(links: &[Link], t: f64) -> f64 {
    assert!(!links.is_empty(), "a path needs at least one link");
    links
        .iter()
        .map(|l| l.residual_at(t))
        .fold(f64::INFINITY, f64::min)
}

/// Earliest rate-change instant strictly after `t` across a link set.
pub fn next_rate_change(links: &[Link], t: f64) -> Option<f64> {
    links
        .iter()
        .filter_map(|l| l.next_rate_change_after(t))
        .fold(None, |acc, x| match acc {
            None => Some(x),
            Some(a) => Some(a.min(x)),
        })
}

/// Computes the completion time (seconds) of transmitting `bits` over a
/// path whose service rate is the bottleneck residual of `links`,
/// starting at time `from`. The piecewise-constant rate is integrated
/// exactly, stepping across epoch boundaries.
///
/// # Panics
/// Panics on an empty link set or negative input.
pub fn integrate_service(links: &[Link], from: f64, bits: f64) -> f64 {
    assert!(!links.is_empty(), "a path needs at least one link");
    assert!(from >= 0.0 && bits >= 0.0);
    let mut t = from;
    let mut remaining = bits;
    // Bound iterations defensively: each step either finishes or crosses
    // an epoch boundary; traces are finite so boundaries are finite.
    for _ in 0..10_000_000u64 {
        if remaining <= 0.0 {
            return t;
        }
        let rate = bottleneck_residual(links, t);
        debug_assert!(rate > 0.0, "residual floor guarantees progress");
        match next_rate_change(links, t) {
            Some(boundary) if boundary > t => {
                let span = boundary - t;
                let served = rate * span;
                if served >= remaining {
                    return t + remaining / rate;
                }
                remaining -= served;
                t = boundary;
            }
            _ => {
                // Constant rate from here on (past all trace ends).
                return t + remaining / rate;
            }
        }
    }
    unreachable!("service integration failed to converge");
}

/// Packetizes a fluid cross-traffic trace: each epoch's fluid volume is
/// re-emitted as an integer number of `pkt_bytes` packets, with the
/// fractional remainder carried to the next epoch. Used by the
/// `abl-fluid` ablation to quantify the fluid approximation.
pub fn quantize_cross(trace: &RateTrace, pkt_bytes: f64) -> RateTrace {
    assert!(pkt_bytes > 0.0);
    let pkt_bits = pkt_bytes * 8.0;
    let epoch = trace.epoch();
    let mut carry = 0.0;
    let rates = trace
        .rates()
        .iter()
        .map(|r| {
            let bits = r * epoch + carry;
            let pkts = (bits / pkt_bits).floor();
            carry = bits - pkts * pkt_bits;
            pkts * pkt_bits / epoch
        })
        .collect();
    RateTrace::new(epoch, rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_link(cross: Option<RateTrace>) -> Link {
        let l = Link::new("test", 100.0, SimDuration::from_millis(1));
        match cross {
            Some(c) => l.with_cross_traffic(c),
            None => l,
        }
    }

    #[test]
    fn residual_without_cross_is_capacity() {
        let l = mk_link(None);
        assert_eq!(l.residual_at(5.0), 100.0);
        assert_eq!(l.next_rate_change_after(5.0), None);
    }

    #[test]
    fn residual_subtracts_cross() {
        let l = mk_link(Some(RateTrace::new(1.0, vec![30.0, 90.0, 120.0])));
        assert_eq!(l.residual_at(0.5), 70.0);
        assert_eq!(l.residual_at(1.5), 10.0);
        // Cross clamped to capacity; residual floored at the default
        // fraction of capacity.
        assert_eq!(l.residual_at(2.5), 100.0 * DEFAULT_RESIDUAL_FLOOR_FRACTION);
    }

    #[test]
    fn finish_time_constant_rate() {
        let l = mk_link(None);
        // 100 bits/s, 50 bits → 0.5 s.
        assert!((l.finish_time(2.0, 50.0) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn finish_time_crosses_epoch_boundary() {
        // Residual: 50 bits/s in [0,1), 100 bits/s afterwards.
        let l = mk_link(Some(RateTrace::new(1.0, vec![50.0, 0.0])));
        // Start at 0.5: serve 25 bits by t=1.0, remaining 50 bits at
        // 100 b/s → finish 1.5.
        let f = l.finish_time(0.5, 75.0);
        assert!((f - 1.5).abs() < 1e-9, "finish={f}");
    }

    #[test]
    fn finish_time_zero_bits_is_immediate() {
        let l = mk_link(None);
        assert_eq!(l.finish_time(3.0, 0.0), 3.0);
    }

    #[test]
    fn bottleneck_is_min_across_links() {
        let a = mk_link(Some(RateTrace::new(1.0, vec![20.0])));
        let b = mk_link(Some(RateTrace::new(1.0, vec![60.0])));
        assert_eq!(bottleneck_residual(&[a, b], 0.5), 40.0);
    }

    #[test]
    fn multi_link_integration_uses_bottleneck() {
        // Link a: residual 10 b/s in [0,1), then 100.
        // Link b: residual 100 throughout.
        let a = mk_link(Some(RateTrace::new(1.0, vec![90.0, 0.0])));
        let b = mk_link(None);
        // 20 bits from t=0: 10 bits by t=1, 10 more at 100 b/s → 1.1.
        let f = integrate_service(&[a, b], 0.0, 20.0);
        assert!((f - 1.1).abs() < 1e-9, "finish={f}");
    }

    #[test]
    fn integration_past_trace_end_uses_last_epoch() {
        let l = mk_link(Some(RateTrace::new(1.0, vec![50.0])));
        // Past the trace the residual stays 50 (rate_at clamps).
        let f = l.finish_time(10.0, 100.0);
        assert!((f - 12.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_epoch_grids_integrate() {
        let a = mk_link(Some(RateTrace::new(0.5, vec![50.0, 90.0, 50.0, 90.0])));
        let b = mk_link(Some(RateTrace::new(
            0.3,
            vec![20.0, 80.0, 20.0, 80.0, 20.0],
        )));
        // Sanity: integration converges and is monotone in bits.
        let links = [a, b];
        let f1 = integrate_service(&links, 0.0, 10.0);
        let f2 = integrate_service(&links, 0.0, 20.0);
        assert!(f2 > f1 && f1 > 0.0);
    }

    #[test]
    fn residual_trace_samples_midpoints() {
        let l = mk_link(Some(RateTrace::new(1.0, vec![30.0, 60.0])));
        let rt = l.residual_trace(1.0, 2.0);
        assert_eq!(rt.rates(), &[70.0, 40.0]);
    }

    #[test]
    fn quantize_preserves_volume() {
        let t = RateTrace::new(0.1, vec![1_000_000.0; 100]);
        let q = quantize_cross(&t, 1000.0);
        let orig = t.total_bytes();
        let quant = q.total_bytes();
        assert!(
            (orig - quant).abs() <= 1000.0,
            "volume drift {}",
            orig - quant
        );
    }

    #[test]
    fn quantize_rates_are_packet_multiples() {
        let t = RateTrace::new(1.0, vec![12_345.0, 77_777.0]);
        let q = quantize_cross(&t, 125.0); // 1000 bits/packet
        for &r in q.rates() {
            assert!((r / 1000.0 - (r / 1000.0).round()).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn empty_path_panics() {
        let _ = bottleneck_residual(&[], 0.0);
    }

    #[test]
    fn add_cross_traffic_composes_and_clamps() {
        // Nominal cross 30, fault adds 90 → clamped to capacity 100,
        // residual pinned at the floor.
        let l = mk_link(Some(RateTrace::new(1.0, vec![30.0, 30.0])))
            .add_cross_traffic(RateTrace::new(1.0, vec![0.0, 90.0]));
        assert_eq!(l.residual_at(0.5), 70.0);
        assert_eq!(l.residual_at(1.5), 100.0 * DEFAULT_RESIDUAL_FLOOR_FRACTION);
    }

    #[test]
    fn add_cross_traffic_on_clean_link_sets_it() {
        let l = mk_link(None).add_cross_traffic(RateTrace::new(1.0, vec![40.0]));
        assert_eq!(l.residual_at(0.5), 60.0);
    }

    #[test]
    fn add_cross_traffic_resamples_mismatched_epochs() {
        // Existing grid 1.0 s; extra on a 0.5 s grid gets midpoint-
        // resampled onto the 1.0 s grid.
        let l = mk_link(Some(RateTrace::new(1.0, vec![10.0, 10.0])))
            .add_cross_traffic(RateTrace::new(0.5, vec![20.0, 20.0, 40.0, 40.0]));
        assert_eq!(l.residual_at(0.5), 70.0);
        assert_eq!(l.residual_at(1.5), 50.0);
    }
}
