//! Deterministic fault injection.
//!
//! The paper's headline claim is that PGOS keeps its Lemma 1 / Lemma 2
//! guarantees *while paths degrade, block, and fail*. This module makes
//! those failures injectable on demand: a [`FaultSchedule`] is a list of
//! timed events (capacity collapse/restore, full path blocking, probe
//! loss/delay, packet-reordering bursts), and a [`FaultInjector`]
//! compiles it into piecewise-constant per-path timelines that the
//! runtime queries in O(log events).
//!
//! Determinism is the design constraint: every effect is a pure step
//! function of virtual time (capacity, probe delay) or a pure hash of
//! `(salt, path, counter)` (probe loss, reorder bursts), so identical
//! seeds and schedules give bit-identical runs — the property the
//! conformance suite's regression tests pin down.
//!
//! Capacity faults are not emulated in the event loop at all: the
//! overlay layer *compiles* them into extra cross traffic on the
//! bottleneck link (see `OverlayPath::with_faults`), so path services,
//! available-bandwidth probes, blocked-path detection and the OptSched
//! oracle all see the same degraded ground truth with no special cases.
//! Event times are absolute emulation seconds (warm-up included) and
//! should be multiples of the compile epoch (0.1 s by default) —
//! sub-epoch fault times are quantized to the epoch grid.

use iqpaths_traces::RateTrace;

/// One fault event. `path` indexes the scheduler's path table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The path's bottleneck capacity collapses to `factor` × nominal
    /// (`0.0` = fully blocked, `1.0` = nominal) until the next capacity
    /// event on the same path.
    Degrade {
        /// Affected path.
        path: usize,
        /// Remaining capacity fraction, in `[0, 1]`.
        factor: f64,
    },
    /// Full path blocking — shorthand for `Degrade { factor: 0.0 }`.
    Block {
        /// Affected path.
        path: usize,
    },
    /// Return to nominal capacity — shorthand for `factor: 1.0`.
    Restore {
        /// Affected path.
        path: usize,
    },
    /// From this time on, available-bandwidth probe reports on the path
    /// are lost with probability `prob` (deterministic per-probe hash).
    ProbeLoss {
        /// Affected path.
        path: usize,
        /// Per-probe loss probability in `[0, 1)`.
        prob: f64,
    },
    /// From this time on, probe reports reach the monitoring module
    /// `delay` seconds late (stale-telemetry injection).
    ProbeDelay {
        /// Affected path.
        path: usize,
        /// Reporting latency in seconds (≥ 0).
        delay: f64,
    },
    /// During `[at, at + span)`, every other delivery on the path is
    /// held back by `jitter` seconds at the client — adjacent packets
    /// arrive out of order (a reordering burst).
    ReorderBurst {
        /// Affected path.
        path: usize,
        /// Burst length in seconds.
        span: f64,
        /// Extra client-side delay for the held-back packets.
        jitter: f64,
    },
    /// From this time on, data packets that *complete service* on the
    /// path are silently dropped in transit with probability `prob`
    /// (deterministic per-packet hash of `(seed, path, stream, seq)`).
    ///
    /// Unlike [`Fault::Block`], the path still looks alive to the
    /// scheduler — capacity, probes, pacing and blocked-path detection
    /// are untouched; only deliveries vanish. `prob = 1.0` models a
    /// silently dead path (e.g. a mis-forwarding relay), the failure
    /// mode erasure-coded path diversity exists to survive. Transit
    /// loss is deliberately *not* a capacity change:
    /// [`FaultSchedule::capacity_change_times`] ignores it, so
    /// conformance windows under pure transit loss stay
    /// lemma-eligible.
    TransitLoss {
        /// Affected path.
        path: usize,
        /// Per-packet loss probability in `[0, 1]`.
        prob: f64,
    },
}

impl Fault {
    /// The path this fault targets.
    pub fn path(&self) -> usize {
        match *self {
            Fault::Degrade { path, .. }
            | Fault::Block { path }
            | Fault::Restore { path }
            | Fault::ProbeLoss { path, .. }
            | Fault::ProbeDelay { path, .. }
            | Fault::ReorderBurst { path, .. }
            | Fault::TransitLoss { path, .. } => path,
        }
    }
}

/// A fault with its activation time (absolute emulation seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFault {
    /// Activation time in seconds.
    pub at: f64,
    /// The event.
    pub fault: Fault,
}

/// A deterministic, time-ordered fault script for one run.
///
/// # Examples
///
/// A mid-run blackout plus degraded telemetry, compiled into the
/// step functions the runtime queries:
///
/// ```
/// use iqpaths_simnet::fault::{Fault, FaultInjector, FaultSchedule};
///
/// let mut faults = FaultSchedule::new();
/// faults.blackout(0, 60.0, 72.0); // path 0 fully blocked for 12 s
/// faults.push(60.0, Fault::ProbeLoss { path: 1, prob: 0.5 });
///
/// // Capacity faults become a piecewise-constant factor timeline …
/// assert_eq!(faults.capacity_timeline(0), vec![(60.0, 0.0), (72.0, 1.0)]);
/// // … and telemetry faults a deterministic per-probe draw.
/// let mut inj = FaultInjector::new(&faults, 2, /* run seed */ 42);
/// assert_eq!(inj.probe_loss_at(1, 59.0), 0.0);
/// assert_eq!(inj.probe_loss_at(1, 61.0), 0.5);
/// // Identical seeds replay the identical loss pattern.
/// let mut twin = FaultInjector::new(&faults, 2, 42);
/// let a: Vec<bool> = (0..50).map(|_| inj.probe_lost(1, 61.0)).collect();
/// let b: Vec<bool> = (0..50).map(|_| twin.probe_lost(1, 61.0)).collect();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// An empty schedule (fault-free run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one event; events may be pushed in any order.
    ///
    /// # Panics
    /// Panics on a negative or non-finite activation time, a `Degrade`
    /// factor outside `[0, 1]`, a `ProbeLoss` probability outside
    /// `[0, 1)`, or a negative delay/span/jitter.
    pub fn push(&mut self, at: f64, fault: Fault) -> &mut Self {
        assert!(at.is_finite() && at >= 0.0, "fault time must be >= 0");
        match fault {
            Fault::Degrade { factor, .. } => {
                assert!((0.0..=1.0).contains(&factor), "factor must be in [0, 1]");
            }
            Fault::ProbeLoss { prob, .. } => {
                assert!((0.0..1.0).contains(&prob), "probe loss must be in [0, 1)");
            }
            Fault::ProbeDelay { delay, .. } => {
                assert!(delay >= 0.0 && delay.is_finite(), "delay must be >= 0");
            }
            Fault::ReorderBurst { span, jitter, .. } => {
                assert!(span > 0.0 && jitter >= 0.0, "span > 0, jitter >= 0");
            }
            Fault::TransitLoss { prob, .. } => {
                assert!(
                    (0.0..=1.0).contains(&prob),
                    "transit loss must be in [0, 1]"
                );
            }
            Fault::Block { .. } | Fault::Restore { .. } => {}
        }
        self.events.push(TimedFault { at, fault });
        self
    }

    /// Blocks `path` fully during `[from, to)`.
    pub fn blackout(&mut self, path: usize, from: f64, to: f64) -> &mut Self {
        assert!(to > from, "blackout interval must be non-empty");
        self.push(from, Fault::Block { path });
        self.push(to, Fault::Restore { path })
    }

    /// Flaps `path` between `factor` × nominal and nominal capacity:
    /// starting at `from`, the path degrades for `down_secs` out of
    /// every `period` seconds, until `until`.
    pub fn flap(
        &mut self,
        path: usize,
        factor: f64,
        from: f64,
        until: f64,
        period: f64,
        down_secs: f64,
    ) -> &mut Self {
        assert!(period > down_secs && down_secs > 0.0, "need down < period");
        let mut t = from;
        while t + down_secs <= until {
            self.push(t, Fault::Degrade { path, factor });
            self.push(t + down_secs, Fault::Restore { path });
            t += period;
        }
        self
    }

    /// Silently drops data packets on `path` with probability `prob`
    /// during `[from, to)` — see [`Fault::TransitLoss`].
    pub fn transit_loss(&mut self, path: usize, from: f64, to: f64, prob: f64) -> &mut Self {
        assert!(to > from, "transit-loss interval must be non-empty");
        self.push(from, Fault::TransitLoss { path, prob });
        self.push(to, Fault::TransitLoss { path, prob: 0.0 })
    }

    /// Node churn: every path traversing the departing node blacks out
    /// at `down_at` and is restored when the node rejoins at `up_at`.
    pub fn churn(&mut self, node_paths: &[usize], down_at: f64, up_at: f64) -> &mut Self {
        for &p in node_paths {
            self.blackout(p, down_at, up_at);
        }
        self
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, time-sorted (ties keep insertion order).
    pub fn sorted_events(&self) -> Vec<TimedFault> {
        let mut ev = self.events.clone();
        ev.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite times"));
        ev
    }

    /// Activation times of every event that changes path capacity or
    /// availability — the instants around which conformance checks
    /// exclude adaptation-transient windows.
    pub fn capacity_change_times(&self) -> Vec<f64> {
        let mut times: Vec<f64> = self
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.fault,
                    Fault::Degrade { .. } | Fault::Block { .. } | Fault::Restore { .. }
                )
            })
            .map(|e| e.at)
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        times
    }

    /// The capacity-factor step function of one path: `(time, factor)`
    /// change points, starting implicitly at `(0, 1.0)`.
    pub fn capacity_timeline(&self, path: usize) -> Vec<(f64, f64)> {
        let mut tl = Vec::new();
        for e in self.sorted_events() {
            let f = match e.fault {
                Fault::Degrade { path: p, factor } if p == path => factor,
                Fault::Block { path: p } if p == path => 0.0,
                Fault::Restore { path: p } if p == path => 1.0,
                _ => continue,
            };
            tl.push((e.at, f));
        }
        tl
    }

    /// Compiles the path's capacity faults into an *additional*
    /// cross-traffic trace for its bottleneck link of capacity `cap`:
    /// during a `factor` fault the extra cross is `(1 − factor) · cap`,
    /// pinning the residual at `factor · cap` minus existing cross.
    /// Returns `None` when the path has no capacity faults.
    pub fn fault_cross(
        &self,
        path: usize,
        cap: f64,
        epoch: f64,
        horizon: f64,
    ) -> Option<RateTrace> {
        let tl = self.capacity_timeline(path);
        if tl.is_empty() {
            return None;
        }
        let n = (horizon / epoch).ceil() as usize;
        let rates = (0..n)
            .map(|i| {
                let t = (i as f64 + 0.5) * epoch;
                (1.0 - step_at(&tl, t, 1.0)) * cap
            })
            .collect();
        Some(RateTrace::new(epoch, rates))
    }
}

/// Value of a `(time, value)` step function at `t` (`initial` before the
/// first change point).
fn step_at(timeline: &[(f64, f64)], t: f64, initial: f64) -> f64 {
    match timeline.partition_point(|&(at, _)| at <= t) {
        0 => initial,
        k => timeline[k - 1].1,
    }
}

/// splitmix64 — the deterministic per-event hash behind probe loss and
/// reorder-burst selection.
///
/// Public because it is the workspace's one blessed seed-derivation
/// primitive: anything that needs "independent but reproducible"
/// sub-seeds (the experiment harness derives one seed per sweep cell
/// this way) salts an identifier into the input and hashes, exactly as
/// [`FaultInjector`] salts `(seed, path, counter)`. Keeping a single
/// discipline means a cell/run/draw is bit-identical no matter which
/// order, thread, or process executes it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform `[0, 1)` value from a [`splitmix64`] hash (top 53 bits).
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a 64-bit — the identity-to-salt hash paired with
/// [`splitmix64`] in the salted-seed discipline (also behind the
/// experiment harness's cell seeds and cache keys).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The workspace's salted-seed derivation:
/// `splitmix64(seed ^ fnv1a64(salt))`.
///
/// Every consumer that needs an "independent but reproducible"
/// sub-seed — harness sweep cells, family seeds, per-tenant seeds —
/// derives it through this one function, so two derivations collide
/// only when both the base seed and the salt string agree.
pub fn salted_seed(seed: u64, salt: &str) -> u64 {
    splitmix64(seed ^ fnv1a64(salt.as_bytes()))
}

/// The runtime-facing view of a schedule: per-path step functions for
/// probe faults plus per-path counters driving the deterministic
/// loss/reorder draws.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    probe_loss: Vec<Vec<(f64, f64)>>,
    probe_delay: Vec<Vec<(f64, f64)>>,
    transit_loss: Vec<Vec<(f64, f64)>>,
    bursts: Vec<Vec<(f64, f64, f64)>>,
    probe_count: Vec<u64>,
    delivery_count: Vec<u64>,
    salt: u64,
}

/// Domain-separation constant for the transit-loss hash stream, so a
/// packet's loss draw can never collide with a probe's loss draw under
/// the same run salt.
const TRANSIT_LOSS_DOMAIN: u64 = 0x7261_6e73_6974_4c6f;

impl FaultInjector {
    /// Compiles `schedule` for a run over `n_paths` paths. `salt` (the
    /// run seed) decorrelates the loss/reorder hash streams between
    /// runs with different seeds while keeping each run reproducible.
    ///
    /// # Panics
    /// Panics if an event targets a path `>= n_paths`.
    pub fn new(schedule: &FaultSchedule, n_paths: usize, salt: u64) -> Self {
        let mut probe_loss = vec![Vec::new(); n_paths];
        let mut probe_delay = vec![Vec::new(); n_paths];
        let mut transit_loss = vec![Vec::new(); n_paths];
        let mut bursts = vec![Vec::new(); n_paths];
        for e in schedule.sorted_events() {
            let p = e.fault.path();
            assert!(p < n_paths, "fault targets unknown path {p}");
            match e.fault {
                Fault::ProbeLoss { prob, .. } => probe_loss[p].push((e.at, prob)),
                Fault::ProbeDelay { delay, .. } => probe_delay[p].push((e.at, delay)),
                Fault::TransitLoss { prob, .. } => transit_loss[p].push((e.at, prob)),
                Fault::ReorderBurst { span, jitter, .. } => {
                    bursts[p].push((e.at, e.at + span, jitter));
                }
                _ => {}
            }
        }
        Self {
            probe_loss,
            probe_delay,
            transit_loss,
            bursts,
            probe_count: vec![0; n_paths],
            delivery_count: vec![0; n_paths],
            salt,
        }
    }

    /// An injector for a fault-free run.
    pub fn inert(n_paths: usize) -> Self {
        Self::new(&FaultSchedule::new(), n_paths, 0)
    }

    /// Probe-loss probability in force on `path` at time `t`.
    pub fn probe_loss_at(&self, path: usize, t: f64) -> f64 {
        step_at(&self.probe_loss[path], t, 0.0)
    }

    /// Probe reporting delay in force on `path` at time `t`.
    pub fn probe_delay_at(&self, path: usize, t: f64) -> f64 {
        step_at(&self.probe_delay[path], t, 0.0)
    }

    /// Injected transit-loss probability in force on `path` at `t`.
    pub fn transit_loss_at(&self, path: usize, t: f64) -> f64 {
        step_at(&self.transit_loss[path], t, 0.0)
    }

    /// The deterministic per-packet transit-loss draw for packet
    /// `(stream, seq)` completing service on `path` at time `t`.
    ///
    /// Stateless by design — a pure hash of `(salt, path, stream,
    /// seq)`, no counter — so the draw for a given packet is identical
    /// no matter in what order deliveries interleave.
    pub fn transit_lost(&self, path: usize, stream: u64, seq: u64, t: f64) -> bool {
        let p = self.transit_loss_at(path, t);
        if p <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.salt ^ TRANSIT_LOSS_DOMAIN ^ ((path as u64) << 48) ^ (stream << 32) ^ seq,
        );
        unit(h) < p
    }

    /// Rolls the deterministic per-probe loss draw for `path` at `t`:
    /// `true` means the probe report is lost. Advances the path's probe
    /// counter either way so loss patterns do not depend on the
    /// prevailing probability.
    pub fn probe_lost(&mut self, path: usize, t: f64) -> bool {
        let k = self.probe_count[path];
        self.probe_count[path] += 1;
        let p = self.probe_loss_at(path, t);
        p > 0.0 && unit(splitmix64(self.salt ^ ((path as u64) << 40) ^ k)) < p
    }

    /// Extra client-side delay for the next delivery on `path`
    /// completing at time `t`: inside a reorder burst, every other
    /// delivery is held back by the burst's jitter.
    pub fn reorder_extra(&mut self, path: usize, t: f64) -> f64 {
        let burst = self.bursts[path]
            .iter()
            .find(|&&(from, to, _)| (from..to).contains(&t));
        let Some(&(_, _, jitter)) = burst else {
            return 0.0;
        };
        let k = self.delivery_count[path];
        self.delivery_count[path] += 1;
        if k % 2 == 1 {
            jitter
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_compiles_in_time_order() {
        let mut s = FaultSchedule::new();
        s.push(10.0, Fault::Restore { path: 0 });
        s.push(
            5.0,
            Fault::Degrade {
                path: 0,
                factor: 0.25,
            },
        );
        s.push(7.0, Fault::Block { path: 1 });
        let tl = s.capacity_timeline(0);
        assert_eq!(tl, vec![(5.0, 0.25), (10.0, 1.0)]);
        assert_eq!(s.capacity_timeline(1), vec![(7.0, 0.0)]);
        assert!(s.capacity_timeline(2).is_empty());
    }

    #[test]
    fn transit_loss_is_stateless_and_windowed() {
        let mut s = FaultSchedule::new();
        s.transit_loss(1, 10.0, 20.0, 1.0);
        // Not a capacity change: conformance windows stay eligible.
        assert!(s.capacity_change_times().is_empty());
        assert!(s.capacity_timeline(1).is_empty());
        let inj = FaultInjector::new(&s, 2, 42);
        assert_eq!(inj.transit_loss_at(1, 9.9), 0.0);
        assert_eq!(inj.transit_loss_at(1, 10.0), 1.0);
        assert_eq!(inj.transit_loss_at(1, 20.0), 0.0);
        // prob = 1 drops everything inside the window, nothing outside.
        assert!(inj.transit_lost(1, 3, 77, 15.0));
        assert!(!inj.transit_lost(1, 3, 77, 25.0));
        assert!(!inj.transit_lost(0, 3, 77, 15.0));
        // Pure hash: the same packet draws identically across injector
        // clones.
        let twin = FaultInjector::new(&s, 2, 42);
        let mut s2 = FaultSchedule::new();
        s2.transit_loss(1, 10.0, 20.0, 0.5);
        let frac = FaultInjector::new(&s2, 2, 42);
        for seq in 0..200 {
            assert_eq!(
                inj.transit_lost(1, 3, seq, 15.0),
                twin.transit_lost(1, 3, seq, 15.0)
            );
            // At p = 0.5 the draw is decided by the hash, not order.
            let _ = frac.transit_lost(1, 3, seq, 15.0);
        }
        // ~half survive at p = 0.5 (deterministic, just sanity-bounded).
        let lost = (0..1000)
            .filter(|&seq| frac.transit_lost(1, 3, seq, 15.0))
            .count();
        assert!((350..=650).contains(&lost), "lost {lost}/1000 at p=0.5");
    }

    #[test]
    fn fault_cross_pins_residual() {
        let mut s = FaultSchedule::new();
        s.blackout(0, 1.0, 2.0);
        let cross = s.fault_cross(0, 100.0, 0.5, 3.0).unwrap();
        // Epochs [0,0.5,1.0,1.5,2.0,2.5): blocked during [1,2).
        assert_eq!(cross.rates(), &[0.0, 0.0, 100.0, 100.0, 0.0, 0.0]);
        assert!(s.fault_cross(1, 100.0, 0.5, 3.0).is_none());
    }

    #[test]
    fn degrade_scales_fault_cross() {
        let mut s = FaultSchedule::new();
        s.push(
            0.0,
            Fault::Degrade {
                path: 0,
                factor: 0.4,
            },
        );
        let cross = s.fault_cross(0, 50.0, 1.0, 2.0).unwrap();
        // (1 − 0.4) × 50 = 30 of extra cross traffic.
        assert_eq!(cross.rates(), &[30.0, 30.0]);
    }

    #[test]
    fn flap_emits_alternating_pairs() {
        let mut s = FaultSchedule::new();
        s.flap(2, 0.3, 10.0, 30.0, 10.0, 4.0);
        let tl = s.capacity_timeline(2);
        assert_eq!(tl, vec![(10.0, 0.3), (14.0, 1.0), (20.0, 0.3), (24.0, 1.0)]);
    }

    #[test]
    fn churn_blacks_out_every_listed_path() {
        let mut s = FaultSchedule::new();
        s.churn(&[0, 2], 5.0, 8.0);
        assert_eq!(s.capacity_timeline(0), vec![(5.0, 0.0), (8.0, 1.0)]);
        assert_eq!(s.capacity_timeline(2), vec![(5.0, 0.0), (8.0, 1.0)]);
        assert!(s.capacity_timeline(1).is_empty());
        assert_eq!(s.capacity_change_times(), vec![5.0, 5.0, 8.0, 8.0]);
    }

    #[test]
    fn injector_probe_faults_are_step_functions() {
        let mut s = FaultSchedule::new();
        s.push(10.0, Fault::ProbeLoss { path: 0, prob: 0.5 });
        s.push(20.0, Fault::ProbeLoss { path: 0, prob: 0.0 });
        s.push(
            15.0,
            Fault::ProbeDelay {
                path: 1,
                delay: 2.0,
            },
        );
        let inj = FaultInjector::new(&s, 2, 7);
        assert_eq!(inj.probe_loss_at(0, 9.9), 0.0);
        assert_eq!(inj.probe_loss_at(0, 12.0), 0.5);
        assert_eq!(inj.probe_loss_at(0, 25.0), 0.0);
        assert_eq!(inj.probe_delay_at(1, 14.0), 0.0);
        assert_eq!(inj.probe_delay_at(1, 16.0), 2.0);
    }

    #[test]
    fn probe_loss_is_deterministic_and_rate_accurate() {
        let mut s = FaultSchedule::new();
        s.push(0.0, Fault::ProbeLoss { path: 0, prob: 0.3 });
        let draw = |salt| {
            let mut inj = FaultInjector::new(&s, 1, salt);
            let pattern: Vec<bool> = (0..10_000).map(|_| inj.probe_lost(0, 1.0)).collect();
            pattern
        };
        assert_eq!(draw(42), draw(42), "same salt must reproduce");
        assert_ne!(draw(42), draw(43), "salts must decorrelate");
        let lost = draw(42).iter().filter(|&&l| l).count() as f64 / 10_000.0;
        assert!((lost - 0.3).abs() < 0.02, "loss rate {lost}");
    }

    #[test]
    fn reorder_burst_delays_every_other_delivery() {
        let mut s = FaultSchedule::new();
        s.push(
            5.0,
            Fault::ReorderBurst {
                path: 0,
                span: 2.0,
                jitter: 0.01,
            },
        );
        let mut inj = FaultInjector::new(&s, 1, 1);
        assert_eq!(inj.reorder_extra(0, 4.0), 0.0, "before the burst");
        let inside: Vec<f64> = (0..4).map(|_| inj.reorder_extra(0, 5.5)).collect();
        assert_eq!(inside, vec![0.0, 0.01, 0.0, 0.01]);
        assert_eq!(inj.reorder_extra(0, 7.5), 0.0, "after the burst");
    }

    #[test]
    #[should_panic]
    fn out_of_range_path_rejected() {
        let mut s = FaultSchedule::new();
        s.push(0.0, Fault::Block { path: 3 });
        let _ = FaultInjector::new(&s, 2, 0);
    }

    #[test]
    #[should_panic]
    fn invalid_factor_rejected() {
        let mut s = FaultSchedule::new();
        s.push(
            0.0,
            Fault::Degrade {
                path: 0,
                factor: 1.5,
            },
        );
    }

    #[test]
    fn salted_seed_is_the_pinned_derivation() {
        // Pinned: changing this silently invalidates every recorded
        // experiment (harness cell seeds, per-tenant seeds).
        assert_eq!(salted_seed(42, "x"), splitmix64(42 ^ fnv1a64(b"x")));
        assert_ne!(salted_seed(42, "shard0/2"), salted_seed(42, "shard1/2"));
        assert_ne!(salted_seed(42, "shard0/2"), salted_seed(43, "shard0/2"));
        // FNV-1a reference vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
