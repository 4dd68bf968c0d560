//! Virtual time.
//!
//! All emulation state advances on a nanosecond-resolution virtual
//! clock. Integer nanoseconds keep event ordering exact (no float
//! comparison hazards in the event queue); conversions to fractional
//! seconds exist at the statistics boundary only.

use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant of virtual time (nanoseconds since simulation
/// start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// From fractional seconds (rounded to the nearest nanosecond).
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time {s}");
        Self((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Saturating difference `self − earlier`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// From fractional seconds (rounded to the nearest nanosecond).
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        Self((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Saturating multiply by an integer factor.
    pub fn saturating_mul(self, k: u64) -> Self {
        Self(self.0.saturating_mul(k))
    }

    /// Integer division.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, k: u64) -> Self {
        Self(self.0 / k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_seconds() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_time_panics() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(300);
        assert_eq!(b.since(a).as_nanos(), 200);
        assert_eq!(a.since(b).as_nanos(), 0);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_nanos(5) + SimDuration::from_nanos(7);
        assert_eq!(t.as_nanos(), 12);
        let mut u = SimTime::ZERO;
        u += SimDuration::from_millis(2);
        assert_eq!(u.as_nanos(), 2_000_000);
    }

    #[test]
    fn ordering_is_total_and_exact() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(
            SimTime::from_secs_f64(0.1),
            SimTime::from_nanos(100_000_000)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs_f64(1.0);
        assert_eq!((d + d).as_secs_f64(), 2.0);
        assert_eq!((d - d).as_nanos(), 0);
        assert_eq!(d.saturating_mul(3).as_secs_f64(), 3.0);
        assert_eq!(d.div(4).as_secs_f64(), 0.25);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.5)), "1.500000s");
    }
}
