//! Concrete overlay paths over the emulated network.

use iqpaths_simnet::fault::FaultSchedule;
use iqpaths_simnet::link::{bottleneck_residual, Link};
use iqpaths_simnet::server::PathService;
use iqpaths_simnet::time::SimDuration;
use iqpaths_traces::RateTrace;

/// A multi-link overlay path between the server and a client.
#[derive(Debug, Clone)]
pub struct OverlayPath {
    index: usize,
    name: String,
    links: Vec<Link>,
}

impl OverlayPath {
    /// Path `index` named `name` over `links` (source → sink order).
    ///
    /// # Panics
    /// Panics on an empty link list.
    pub fn new(index: usize, name: impl Into<String>, links: Vec<Link>) -> Self {
        assert!(!links.is_empty(), "a path needs at least one link");
        Self {
            index,
            name: name.into(),
            links,
        }
    }

    /// Path index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Display name ("Path A").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The constituent links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Bottleneck residual bandwidth at time `t` (seconds) — ground
    /// truth; probes add noise on top.
    pub fn residual_at(&self, t: f64) -> f64 {
        bottleneck_residual(&self.links, t)
    }

    /// Average bottleneck residual over `[from, to)`, sampled at `step`
    /// intervals — the oracle rate OptSched receives.
    pub fn mean_residual(&self, from: f64, to: f64, step: f64) -> f64 {
        assert!(to > from && step > 0.0);
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut t = from + step / 2.0;
        while t < to {
            sum += self.residual_at(t);
            n += 1;
            t += step;
        }
        if n == 0 {
            self.residual_at(from)
        } else {
            sum / n as f64
        }
    }

    /// End-to-end per-packet loss probability (`1 − Π (1 − loss_j)`).
    pub fn loss_prob(&self) -> f64 {
        1.0 - self
            .links
            .iter()
            .map(|l| 1.0 - l.loss_prob())
            .product::<f64>()
    }

    /// Total propagation delay.
    pub fn prop_delay(&self) -> SimDuration {
        self.links
            .iter()
            .fold(SimDuration::ZERO, |acc, l| acc + l.prop_delay())
    }

    /// Smallest raw capacity along the path.
    pub fn bottleneck_capacity(&self) -> f64 {
        self.links
            .iter()
            .map(Link::capacity)
            .fold(f64::INFINITY, f64::min)
    }

    /// Ground-truth residual sampled as a [`RateTrace`].
    pub fn residual_trace(&self, epoch: f64, duration: f64) -> RateTrace {
        let n = (duration / epoch).ceil() as usize;
        let rates = (0..n)
            .map(|i| self.residual_at((i as f64 + 0.5) * epoch))
            .collect();
        RateTrace::new(epoch, rates)
    }

    /// Builds the transmit service for this path.
    pub fn service(&self) -> PathService {
        PathService::new(self.index, self.links.clone())
    }

    /// Compiles the capacity faults this path is subject to (keyed by
    /// [`OverlayPath::index`] in `schedule`) into extra cross traffic on
    /// its bottleneck link, over `[0, horizon)` seconds. A `Degrade`
    /// with factor `f` adds `(1 − f) ·` bottleneck capacity of cross, so
    /// the faulted residual is `max(f · cap − nominal cross, floor)` —
    /// path services, probes, blocked-path detection and the OptSched
    /// oracle all see the degradation through the one mechanism.
    /// Returns `self` unchanged when the schedule has no capacity fault
    /// for this path.
    pub fn with_faults(&self, schedule: &FaultSchedule, horizon: f64) -> OverlayPath {
        // Bottleneck link: smallest raw capacity (first wins ties).
        let (bneck, cap) = self
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| (i, l.capacity()))
            .fold(
                (0, f64::INFINITY),
                |acc, x| if x.1 < acc.1 { x } else { acc },
            );
        let epoch = self.links[bneck]
            .cross_traffic()
            .map(|c| c.epoch())
            .unwrap_or(0.1);
        match schedule.fault_cross(self.index, cap, epoch, horizon) {
            None => self.clone(),
            Some(extra) => {
                let mut links = self.links.clone();
                links[bneck] = links[bneck].clone().add_cross_traffic(extra);
                OverlayPath::new(self.index, self.name.clone(), links)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> OverlayPath {
        let a = Link::new("a", 100.0, SimDuration::from_millis(1))
            .with_cross_traffic(RateTrace::new(1.0, vec![20.0, 60.0]));
        let b = Link::new("b", 100.0, SimDuration::from_millis(2));
        OverlayPath::new(0, "Path A", vec![a, b])
    }

    #[test]
    fn residual_is_bottleneck() {
        let p = path();
        assert_eq!(p.residual_at(0.5), 80.0);
        assert_eq!(p.residual_at(1.5), 40.0);
    }

    #[test]
    fn mean_residual_averages() {
        let p = path();
        let m = p.mean_residual(0.0, 2.0, 0.1);
        assert!((m - 60.0).abs() < 1.0, "mean={m}");
    }

    #[test]
    fn capacity_and_delay() {
        let p = path();
        assert_eq!(p.bottleneck_capacity(), 100.0);
        assert_eq!(p.prop_delay(), SimDuration::from_millis(3));
        assert_eq!(p.name(), "Path A");
    }

    #[test]
    fn residual_at_matches_bottleneck_residual_bitwise() {
        let p = path();
        for t in [0.0, 0.5, 1.0, 1.25, 2.0, 9.0] {
            let want = iqpaths_simnet::link::bottleneck_residual(p.links(), t);
            assert_eq!(p.residual_at(t).to_bits(), want.to_bits(), "t={t}");
        }
    }

    #[test]
    fn residual_trace_matches_pointwise() {
        let p = path();
        let rt = p.residual_trace(1.0, 2.0);
        assert_eq!(rt.rates(), &[80.0, 40.0]);
    }

    #[test]
    fn service_carries_index_and_links() {
        let p = path();
        let svc = p.service();
        assert_eq!(svc.index(), 0);
        assert_eq!(svc.links().len(), 2);
    }

    #[test]
    fn with_faults_degrades_bottleneck_residual() {
        let p = path();
        let mut s = FaultSchedule::new();
        s.blackout(0, 1.0, 2.0);
        let faulted = p.with_faults(&s, 3.0);
        // Unaffected epoch: nominal residual survives.
        assert_eq!(faulted.residual_at(0.5), 80.0);
        // During the blackout the residual is pinned at the floor.
        assert!(faulted.residual_at(1.5) < 0.011 * p.bottleneck_capacity());
        // Original path untouched (with_faults clones).
        assert_eq!(p.residual_at(1.5), 40.0);
    }

    #[test]
    fn with_faults_is_identity_without_capacity_faults() {
        let p = path();
        let mut s = FaultSchedule::new();
        s.blackout(7, 1.0, 2.0); // other path
        let faulted = p.with_faults(&s, 3.0);
        assert_eq!(faulted.residual_at(1.5), p.residual_at(1.5));
    }

    #[test]
    fn with_faults_targets_min_capacity_link() {
        // Bottleneck is the 50 Mbps middle link, not the first link.
        let a = Link::new("a", 100.0, SimDuration::ZERO);
        let b = Link::new("b", 50.0, SimDuration::ZERO);
        let c = Link::new("c", 100.0, SimDuration::ZERO);
        let p = OverlayPath::new(2, "thin", vec![a, b, c]);
        let mut s = FaultSchedule::new();
        s.push(
            0.0,
            iqpaths_simnet::fault::Fault::Degrade {
                path: 2,
                factor: 0.5,
            },
        );
        let faulted = p.with_faults(&s, 2.0);
        assert!((faulted.residual_at(1.0) - 25.0).abs() < 1e-9);
        assert!(faulted.links()[0].cross_traffic().is_none());
    }
}
