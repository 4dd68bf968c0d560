//! Path services — the per-path transmit servers of Figure 6.
//!
//! The paper's server model has one scheduler and `L` path services,
//! each serving packets at a time-varying rate `r_j(t)`. A
//! [`PathService`] is that server: it transmits one packet at a time at
//! the bottleneck residual rate of its underlying links, and reports
//! when it will be free. The scheduler (PGOS or a baseline) decides
//! which packet each free path gets; whenever a path is blocked (very
//! low residual), the scheduler "switches to the next path immediately".

use crate::link::{self, Link};
use crate::packet::{Delivery, Packet};
use crate::time::{SimDuration, SimTime};

/// A single overlay path's transmit server.
#[derive(Debug, Clone)]
pub struct PathService {
    index: usize,
    links: Vec<Link>,
    busy_until: SimTime,
    serving: Option<Packet>,
    serving_since: SimTime,
    prop_delay: SimDuration,
    sent_packets: u64,
    sent_bytes: u64,
}

impl PathService {
    /// Builds the service for path `index` over `links` (source → sink
    /// order).
    ///
    /// # Panics
    /// Panics on an empty link list.
    pub fn new(index: usize, links: Vec<Link>) -> Self {
        assert!(!links.is_empty(), "a path needs at least one link");
        let prop_delay = links
            .iter()
            .fold(SimDuration::ZERO, |acc, l| acc + l.prop_delay());
        Self {
            index,
            links,
            busy_until: SimTime::ZERO,
            serving: None,
            serving_since: SimTime::ZERO,
            prop_delay,
            sent_packets: 0,
            sent_bytes: 0,
        }
    }

    /// Path index (position in the scheduler's path set).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The links composing the path.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Total propagation delay source → sink.
    pub fn prop_delay(&self) -> SimDuration {
        self.prop_delay
    }

    /// Whether the transmitter is idle at `now`.
    pub fn is_free(&self, now: SimTime) -> bool {
        now >= self.busy_until
    }

    /// When the in-flight transmission (if any) completes.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// The packet currently being transmitted.
    pub fn serving(&self) -> Option<&Packet> {
        self.serving.as_ref()
    }

    /// How long the current packet has been in service at `now`.
    pub fn serving_for(&self, now: SimTime) -> SimDuration {
        if self.serving.is_some() {
            now.since(self.serving_since)
        } else {
            SimDuration::ZERO
        }
    }

    /// Instantaneous bottleneck residual rate (bits/s) at time `t`.
    pub fn residual_at(&self, t: f64) -> f64 {
        link::bottleneck_residual(&self.links, t)
    }

    /// End-to-end per-packet loss probability: `1 − Π_j (1 − loss_j)`.
    pub fn loss_prob(&self) -> f64 {
        1.0 - self
            .links
            .iter()
            .map(|l| 1.0 - l.loss_prob())
            .product::<f64>()
    }

    /// Begins transmitting `pkt` at `now`; returns the transmission
    /// completion time (propagation *not* included — add
    /// [`PathService::prop_delay`] for arrival).
    ///
    /// # Panics
    /// Panics if the service is still busy.
    pub fn begin(&mut self, pkt: Packet, now: SimTime) -> SimTime {
        assert!(
            self.is_free(now),
            "path {} busy until {}",
            self.index,
            self.busy_until
        );
        let finish_secs = link::integrate_service(&self.links, now.as_secs_f64(), pkt.bits());
        let finish = SimTime::from_secs_f64(finish_secs).max(now + SimDuration::from_nanos(1));
        self.busy_until = finish;
        self.serving = Some(pkt);
        self.serving_since = now;
        finish
    }

    /// Completes the in-flight transmission at `now` (the time returned
    /// by [`PathService::begin`]) and produces the delivery record.
    ///
    /// # Panics
    /// Panics if nothing is being served.
    pub fn complete(&mut self, now: SimTime) -> Delivery {
        let packet = self.serving.take().expect("complete() without begin()");
        self.sent_packets += 1;
        self.sent_bytes += packet.bytes as u64;
        Delivery {
            packet,
            path: self.index,
            sent: now,
            delivered: now + self.prop_delay,
        }
    }

    /// Packets fully transmitted so far.
    pub fn sent_packets(&self) -> u64 {
        self.sent_packets
    }

    /// Bytes fully transmitted so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::StreamId;
    use iqpaths_traces::RateTrace;

    fn service(rate: f64) -> PathService {
        // capacity `rate` with no cross traffic.
        let l = Link::new("l", rate, SimDuration::from_millis(5));
        PathService::new(0, vec![l])
    }

    fn pkt(bytes: u32) -> Packet {
        Packet::best_effort(StreamId(0), 0, bytes, SimTime::ZERO)
    }

    #[test]
    fn begin_computes_service_time() {
        let mut s = service(8000.0); // 1000 bytes/s
        let finish = s.begin(pkt(500), SimTime::ZERO);
        assert!((finish.as_secs_f64() - 0.5).abs() < 1e-9);
        assert!(!s.is_free(SimTime::from_secs_f64(0.4)));
        assert!(s.is_free(finish));
    }

    #[test]
    #[should_panic]
    fn begin_while_busy_panics() {
        let mut s = service(8000.0);
        s.begin(pkt(500), SimTime::ZERO);
        s.begin(pkt(500), SimTime::ZERO);
    }

    #[test]
    fn complete_produces_delivery_with_propagation() {
        let mut s = service(8000.0);
        let finish = s.begin(pkt(500), SimTime::ZERO);
        let d = s.complete(finish);
        assert_eq!(d.path, 0);
        assert_eq!(d.sent, finish);
        assert!((d.delivered.as_secs_f64() - (0.5 + 0.005)).abs() < 1e-9);
        assert_eq!(s.sent_packets(), 1);
        assert_eq!(s.sent_bytes(), 500);
    }

    #[test]
    #[should_panic]
    fn complete_without_begin_panics() {
        let mut s = service(8000.0);
        let _ = s.complete(SimTime::ZERO);
    }

    #[test]
    fn serving_for_tracks_elapsed() {
        let mut s = service(8000.0);
        s.begin(pkt(1000), SimTime::ZERO);
        let probe = SimTime::from_secs_f64(0.25);
        assert!((s.serving_for(probe).as_secs_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn residual_follows_cross_traffic() {
        let l = Link::new("l", 100.0, SimDuration::ZERO)
            .with_cross_traffic(RateTrace::new(1.0, vec![40.0]));
        let s = PathService::new(1, vec![l]);
        assert_eq!(s.residual_at(0.5), 60.0);
        assert_eq!(s.index(), 1);
    }

    #[test]
    fn multi_link_prop_delay_sums() {
        let a = Link::new("a", 100.0, SimDuration::from_millis(2));
        let b = Link::new("b", 100.0, SimDuration::from_millis(3));
        let s = PathService::new(0, vec![a, b]);
        assert_eq!(s.prop_delay(), SimDuration::from_millis(5));
    }

    #[test]
    fn zero_byte_packet_finishes_at_now_plus_epsilon() {
        let mut s = service(8000.0);
        let finish = s.begin(pkt(0), SimTime::from_secs_f64(1.0));
        assert!(finish > SimTime::from_secs_f64(1.0));
        assert!(finish.as_secs_f64() - 1.0 < 1e-6);
    }
}
