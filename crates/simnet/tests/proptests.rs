//! Property tests for the emulation substrate: event-queue ordering and
//! the exactness of fluid service integration.

use iqpaths_simnet::link::{integrate_service, Link};
use iqpaths_simnet::time::{SimDuration, SimTime};
use iqpaths_simnet::EventQueue;
use iqpaths_traces::RateTrace;
use proptest::prelude::*;

proptest! {
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = Vec::new();
        while let Some((at, i)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            popped.push(i);
        }
        prop_assert_eq!(popped.len(), times.len());
    }

    #[test]
    fn event_queue_fifo_within_instant(n in 1usize..200) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_nanos(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn service_time_monotone_in_bits(
        rates in prop::collection::vec(1.0..100.0f64, 1..30),
        bits_a in 0.0..5000.0f64,
        extra in 0.0..5000.0f64,
    ) {
        let link = Link::new("l", 100.0, SimDuration::ZERO)
            .with_cross_traffic(RateTrace::new(0.5, rates.iter().map(|r| 100.0 - r).collect()));
                let t1 = integrate_service(std::slice::from_ref(&link), 0.0, bits_a);
        let t2 = integrate_service(std::slice::from_ref(&link), 0.0, bits_a + extra);
        prop_assert!(t2 >= t1 - 1e-9);
    }

    #[test]
    fn service_integration_conserves_volume(
        rates in prop::collection::vec(1.0..100.0f64, 1..30),
        bits in 1.0..20_000.0f64,
        from in 0.0..5.0f64,
    ) {
        // Integrating the residual rate from `from` to the computed
        // finish time must recover exactly `bits`.
        let cross: Vec<f64> = rates.iter().map(|r| 100.0 - r).collect();
        let link = Link::new("l", 100.0, SimDuration::ZERO)
            .with_cross_traffic(RateTrace::new(0.5, cross));
                let finish = integrate_service(std::slice::from_ref(&link), from, bits);
        // Numeric re-integration on a fine grid.
        let mut acc = 0.0;
        let step = 1e-4f64;
        let mut t = from;
        while t < finish {
            let dt = step.min(finish - t);
            acc += link.residual_at(t + dt / 2.0) * dt;
            t += dt;
        }
        let rel = (acc - bits).abs() / bits;
        prop_assert!(rel < 2e-2, "volume drift {} ({} vs {})", rel, acc, bits);
    }

    #[test]
    fn service_start_order_preserved(
        rates in prop::collection::vec(5.0..95.0f64, 1..20),
        b1 in 1.0..5000.0f64,
        gap in 0.0..3.0f64,
    ) {
        // A transmission starting later finishes no earlier (FIFO paths).
        let link = Link::new("l", 100.0, SimDuration::ZERO)
            .with_cross_traffic(RateTrace::new(0.5, rates.iter().map(|r| 100.0 - r).collect()));
                let f1 = integrate_service(std::slice::from_ref(&link), 0.0, b1);
        let f2 = integrate_service(std::slice::from_ref(&link), f1 + gap, b1);
        prop_assert!(f2 >= f1);
    }

    #[test]
    fn residual_respects_floor_and_capacity(
        cross in prop::collection::vec(0.0..500.0f64, 1..50),
        t in 0.0..100.0f64,
    ) {
        let link = Link::new("l", 100.0, SimDuration::ZERO)
            .with_cross_traffic(RateTrace::new(1.0, cross));
        let r = link.residual_at(t);
        prop_assert!(r > 0.0);
        prop_assert!(r <= 100.0);
    }
}
