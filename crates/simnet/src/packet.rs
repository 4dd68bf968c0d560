//! Packet descriptors.
//!
//! IQ-Paths is "model-neutral": it manipulates arbitrary application
//! messages as packets with a size, an owning stream, and (optionally) a
//! delivery deadline derived from the stream's window constraint. The
//! emulator never carries payload bytes — only descriptors — which keeps
//! multi-hundred-second runs cheap.

use crate::time::SimTime;

/// Identifies an application stream (dense small integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub u32);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A packet descriptor flowing from a source queue over a path service
/// to the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Owning stream.
    pub stream: StreamId,
    /// Per-stream sequence number (assigned at creation, gap-free).
    pub seq: u64,
    /// Size in bytes.
    pub bytes: u32,
    /// Creation (enqueue) time.
    pub created: SimTime,
    /// Virtual deadline, if the stream has one (window-constrained
    /// streams); `SimTime::MAX` means best-effort.
    pub deadline: SimTime,
}

impl Packet {
    /// A best-effort packet (no deadline).
    pub fn best_effort(stream: StreamId, seq: u64, bytes: u32, created: SimTime) -> Self {
        Self {
            stream,
            seq,
            bytes,
            created,
            deadline: SimTime::MAX,
        }
    }

    /// A deadline-bearing packet.
    pub fn with_deadline(
        stream: StreamId,
        seq: u64,
        bytes: u32,
        created: SimTime,
        deadline: SimTime,
    ) -> Self {
        Self {
            stream,
            seq,
            bytes,
            created,
            deadline,
        }
    }

    /// Size in bits (the emulator's service unit).
    pub fn bits(&self) -> f64 {
        self.bytes as f64 * 8.0
    }

    /// True when the packet carries a real deadline.
    pub fn has_deadline(&self) -> bool {
        self.deadline != SimTime::MAX
    }

    /// True if delivery at `at` missed the deadline.
    pub fn missed_deadline(&self, at: SimTime) -> bool {
        self.has_deadline() && at > self.deadline
    }
}

/// A delivery record produced when a packet reaches the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The delivered packet.
    pub packet: Packet,
    /// Path index it traveled over.
    pub path: usize,
    /// Time the packet finished transmission at the bottleneck.
    pub sent: SimTime,
    /// Time it arrived at the client (sent + propagation).
    pub delivered: SimTime,
}

impl Delivery {
    /// End-to-end latency (creation → arrival).
    pub fn latency(&self) -> crate::time::SimDuration {
        self.delivered.since(self.packet.created)
    }

    /// Whether the deadline was met.
    pub fn on_time(&self) -> bool {
        !self.packet.missed_deadline(self.delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn best_effort_never_misses() {
        let p = Packet::best_effort(StreamId(1), 0, 1000, SimTime::ZERO);
        assert!(!p.has_deadline());
        assert!(!p.missed_deadline(SimTime::MAX));
    }

    #[test]
    fn deadline_semantics() {
        let d = SimTime::from_secs_f64(1.0);
        let p = Packet::with_deadline(StreamId(1), 0, 1000, SimTime::ZERO, d);
        assert!(p.has_deadline());
        assert!(!p.missed_deadline(d)); // exactly on time is on time
        assert!(p.missed_deadline(d + SimDuration::from_nanos(1)));
    }

    #[test]
    fn bits_conversion() {
        let p = Packet::best_effort(StreamId(0), 0, 1500, SimTime::ZERO);
        assert_eq!(p.bits(), 12000.0);
    }

    #[test]
    fn delivery_latency_and_on_time() {
        let p = Packet::with_deadline(
            StreamId(2),
            7,
            100,
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(2.0),
        );
        let d = Delivery {
            packet: p,
            path: 0,
            sent: SimTime::from_secs_f64(1.5),
            delivered: SimTime::from_secs_f64(1.6),
        };
        assert!((d.latency().as_secs_f64() - 0.6).abs() < 1e-9);
        assert!(d.on_time());
    }

    #[test]
    fn stream_id_display() {
        assert_eq!(StreamId(3).to_string(), "S3");
    }
}
