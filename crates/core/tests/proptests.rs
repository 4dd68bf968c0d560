//! Property-based tests of PGOS invariants: vector construction,
//! precedence totality, resource-mapping conservation laws, and the
//! decision sequence of the PGOS scheduler itself.

use iqpaths_core::mapping::{largest_remainder_split, ResourceMapper};
use iqpaths_core::stream::StreamSpec;
use iqpaths_core::vectors::{path_lookup_vector, SchedulingVectors};
use iqpaths_core::{
    MappingMode, MultipathScheduler, PathSnapshot, Pgos, PgosConfig, StreamCoding, StreamQueues,
};
use iqpaths_stats::{CdfSummary, EmpiricalCdf};
use proptest::prelude::*;

/// Scheduling window of the decision-sequence properties (0.2 s).
const WINDOW_NS: u64 = 200_000_000;

/// Per-path uniform bandwidth CDFs, in 1000-byte packets per second,
/// drawn from the bits of `op`. Each window start redraws them, so
/// PGOS re-runs resource mapping on a fresh random assignment matrix
/// whenever the drift trips its KS threshold.
fn snapshots_from(op: u64, paths: usize) -> Vec<PathSnapshot> {
    (0..paths)
        .map(|j| {
            let bits = op >> (8 + 12 * j);
            let lo = 2 + bits % 60;
            let hi = lo + 1 + (bits >> 6) % 40;
            let cdf =
                EmpiricalCdf::from_clean_samples((lo..=hi).map(|v| v as f64 * 8000.0).collect());
            PathSnapshot::from_cdf(j, cdf)
        })
        .collect()
}

/// Drives one `Pgos` through a random interleaving of pushes, single
/// and batched decisions on random paths at non-decreasing times, and
/// window starts, checking every popped packet against a model of the
/// queues. Every op is one `u64`: `op % 16` picks the kind, the higher
/// bits its arguments.
///
/// Debug builds (what `cargo test` runs) also judge every decision
/// with the scheduler's own cross-checks: the rule-1 gate against a
/// scan of every stream, and the fallback index against
/// `debug_scan_winner`.
///
/// Stream `i` is best-effort when `kinds[i] == 0` and carries a
/// p = 0.9 guarantee otherwise, at `rates[i]` 1000-byte packets per
/// second.
fn drive_pgos(mode: MappingMode, paths: usize, kinds: &[u32], rates: &[u32], ops: &[u64]) {
    let specs: Vec<StreamSpec> = kinds
        .iter()
        .zip(rates)
        .enumerate()
        .map(|(i, (&kind, &rate))| {
            let bps = f64::from(rate) * 8000.0;
            if kind == 0 {
                StreamSpec::best_effort(i, "bulk", bps, 1000)
            } else {
                StreamSpec::probabilistic(i, "guaranteed", bps, 0.9, 1000)
            }
        })
        .collect();
    let n = specs.len();
    let cfg = PgosConfig {
        window_secs: WINDOW_NS as f64 / 1e9,
        mapping_mode: mode,
        ..PgosConfig::default()
    };
    let mut pgos = Pgos::new(cfg, specs, paths);
    let mut queues = StreamQueues::new(n, 100_000);
    let first = snapshots_from(ops[0], paths);
    let mut plans: Vec<Option<StreamCoding>> = vec![None; n];
    for plan in pgos.plan_coding(&first, &[], 0) {
        if plan.n > 1 {
            queues.set_lanes(plan.stream, plan.n);
            let s = plan.stream;
            plans[s] = Some(plan);
        }
    }
    if mode == MappingMode::Diversity {
        assert!(plans.iter().any(Option::is_some), "no stream was coded");
    }
    pgos.on_window_start(0, WINDOW_NS, &first);

    // Next sequence number each lane must pop (uncoded streams are
    // one lane): pops are per-stream FIFO, or per-lane for striped
    // streams, and never repeat a packet.
    let mut expect: Vec<Vec<u64>> = plans
        .iter()
        .map(|p| {
            p.as_ref()
                .map_or(vec![0], |plan| (0..plan.n as u64).collect())
        })
        .collect();
    let mut pushed = vec![0usize; n];
    let mut popped = vec![0usize; n];
    let mut out = Vec::new();
    let mut now = 0u64;
    for &op in ops {
        match op % 16 {
            0 => {
                now += (op >> 56) * 100_000;
                pgos.on_window_start(now, WINDOW_NS, &snapshots_from(op, paths));
            }
            1..=5 => {
                let s = ((op >> 8) % n as u64) as usize;
                for _ in 0..1 + (op >> 16) % 2 {
                    assert!(queues.push(s, 1000, now));
                    pushed[s] += 1;
                }
            }
            kind => {
                let path = ((op >> 8) % paths as u64) as usize;
                now += (op >> 16) % 40_000_000;
                out.clear();
                if kind == 15 {
                    let max = 1 + ((op >> 48) % 4) as usize;
                    pgos.next_batch(path, now, &mut queues, max, &mut out);
                } else {
                    out.extend(pgos.next_packet(path, now, &mut queues));
                }
                for pkt in &out {
                    let s = pkt.stream;
                    let lane = match &plans[s] {
                        Some(plan) => {
                            let lane = (pkt.seq % plan.n as u64) as usize;
                            assert_eq!(
                                plan.lane_path(lane),
                                path,
                                "coded stream {s} served off its pinned lane"
                            );
                            lane
                        }
                        None => 0,
                    };
                    assert_eq!(pkt.seq, expect[s][lane], "stream {s} popped out of order");
                    expect[s][lane] += expect[s].len() as u64;
                    popped[s] += 1;
                }
            }
        }
    }
    for s in 0..n {
        assert_eq!(
            popped[s] + queues.len(s),
            pushed[s],
            "stream {s} lost packets"
        );
    }
}

proptest! {
    #[test]
    fn pgos_decision_sequences_conserve_packets(
        kinds in prop::collection::vec(0u32..3, 1..7),
        rates in prop::collection::vec(1u32..40, 6),
        paths in 1usize..5,
        ops in prop::collection::vec(0u64..u64::MAX, 1..400),
    ) {
        drive_pgos(MappingMode::Pgos, paths, &kinds, &rates, &ops);
    }

    #[test]
    fn diversity_decision_sequences_keep_lanes_on_their_paths(
        kinds in prop::collection::vec(0u32..3, 1..7),
        rates in prop::collection::vec(1u32..20, 6),
        paths in 2usize..5,
        ops in prop::collection::vec(0u64..u64::MAX, 1..400),
    ) {
        // At least one guaranteed (hence coded) stream per case.
        let mut kinds = kinds;
        kinds[0] = 1;
        drive_pgos(MappingMode::Diversity, paths, &kinds, &rates, &ops);
    }
}

proptest! {
    #[test]
    fn vp_contains_each_path_exactly_its_count(counts in prop::collection::vec(0u32..50, 1..6)) {
        let vp = path_lookup_vector(&counts);
        prop_assert_eq!(vp.len() as u32, counts.iter().sum::<u32>());
        for (j, &c) in counts.iter().enumerate() {
            prop_assert_eq!(vp.iter().filter(|&&p| p == j).count() as u32, c);
        }
    }

    #[test]
    fn vp_interleaving_is_smooth(a in 1u32..40, b in 1u32..40) {
        // In any prefix, a path's share of visits is within one packet of
        // its proportional share (the virtual-deadline property).
        let vp = path_lookup_vector(&[a, b]);
        let total = (a + b) as f64;
        let mut seen_a = 0u32;
        for (k, &p) in vp.iter().enumerate() {
            if p == 0 {
                seen_a += 1;
            }
            let expected = (k as f64 + 1.0) * a as f64 / total;
            prop_assert!(
                (seen_a as f64 - expected).abs() <= 1.0 + 1e-9,
                "prefix {}: seen {} expected {:.2}", k, seen_a, expected
            );
        }
    }

    #[test]
    fn vectors_are_consistent(matrix in prop::collection::vec(prop::collection::vec(0u32..30, 3), 1..5)) {
        let sv = SchedulingVectors::build(matrix.clone());
        // VS[j] lengths match per-path totals, and stream occurrence
        // counts match assignments.
        for j in 0..3 {
            let expect: u32 = matrix.iter().map(|row| row[j]).sum();
            prop_assert_eq!(sv.vs[j].len() as u32, expect);
            for (i, row) in matrix.iter().enumerate() {
                prop_assert_eq!(
                    sv.vs[j].iter().filter(|&&s| s == i).count() as u32,
                    row[j]
                );
            }
        }
        prop_assert_eq!(sv.vp.len() as u32, (0..3).map(|j| sv.packets_on_path(j)).sum::<u32>());
    }

    #[test]
    fn split_conserves_packets(x in 0u32..10_000, w in prop::collection::vec(0.0..100.0f64, 1..6)) {
        let parts = largest_remainder_split(x, &w);
        let total: f64 = w.iter().sum();
        if total > 0.0 {
            prop_assert_eq!(parts.iter().sum::<u32>(), x);
        } else {
            prop_assert!(parts.iter().all(|&p| p == 0));
        }
        for (j, &p) in parts.iter().enumerate() {
            if w[j] == 0.0 {
                prop_assert_eq!(p, 0, "zero-weight path got packets");
            }
        }
    }

    #[test]
    fn mapping_never_over_commits_guaranteed_streams(
        seeds in prop::collection::vec(10u32..90, 2),
        req1 in 1.0..30.0f64,
        req2 in 1.0..30.0f64,
    ) {
        // Two uniform paths with different ranges; mapping output must
        // (a) conserve each admitted stream's packet count and
        // (b) keep committed load within each path's p-quantile.
        let cdfs: Vec<CdfSummary> = seeds
            .iter()
            .map(|&lo| {
                CdfSummary::exact(EmpiricalCdf::from_clean_samples(
                    (lo..=lo + 40).map(|v| v as f64 * 1.0e6).collect(),
                ))
            })
            .collect();
        let specs = vec![
            StreamSpec::probabilistic(0, "a", req1 * 1.0e6, 0.9, 1000),
            StreamSpec::probabilistic(1, "b", req2 * 1.0e6, 0.9, 1000),
        ];
        let mapper = ResourceMapper::new(1.0);
        let m = mapper.map(&specs, &cdfs);
        for (i, spec) in specs.iter().enumerate() {
            let assigned: u32 = m.assignments[i].iter().sum();
            if m.admitted(i) {
                prop_assert_eq!(assigned, spec.packets_per_window(1.0));
            } else {
                prop_assert_eq!(assigned, 0);
            }
        }
        // Feasibility must hold for whatever was admitted.
        let feasible = iqpaths_core::guarantee::mapping_is_feasible(
            &cdfs,
            &specs
                .iter()
                .enumerate()
                .filter(|(i, _)| m.admitted(*i))
                .map(|(_, s)| s.clone())
                .collect::<Vec<_>>(),
            &m.rates
                .iter()
                .enumerate()
                .filter(|(i, _)| m.admitted(*i))
                .map(|(_, r)| r.clone())
                .collect::<Vec<_>>(),
            1.0,
        );
        prop_assert!(feasible, "admitted mapping must be feasible: {:?}", m);
    }

    #[test]
    fn table1_class_rank_dominates_deadline_and_constraint(
        rows in prop::collection::vec(0u64..24_000, 2..24),
    ) {
        // Table 1 rule 1 > 2 > 3 is absolute: no deadline or window
        // constraint lets a lower class beat a higher one.
        use iqpaths_core::precedence::{compare, Candidate, ScheduleClass};
        use std::cmp::Ordering;
        let cands: Vec<Candidate> = rows
            .iter()
            .enumerate()
            .map(|(i, &v)| Candidate {
                stream: i,
                class: match v % 3 {
                    0 => ScheduleClass::CurrentPath,
                    1 => ScheduleClass::OtherPath,
                    _ => ScheduleClass::Unscheduled,
                },
                deadline_ns: (v / 3) % 1000,
                constraint: ((v / 3000) % 8) as f64 / 8.0,
            })
            .collect();
        let rank = |c: &Candidate| match c.class {
            ScheduleClass::CurrentPath => 0u8,
            ScheduleClass::OtherPath => 1,
            ScheduleClass::Unscheduled => 2,
        };
        for a in &cands {
            for b in &cands {
                if rank(a) < rank(b) {
                    prop_assert_eq!(compare(a, b), Ordering::Less);
                } else if rank(a) == rank(b) && a.deadline_ns < b.deadline_ns {
                    // Within a class, EDF: the earlier deadline wins no
                    // matter the constraint (rules 2.1 / 3.1).
                    prop_assert_eq!(compare(a, b), Ordering::Less);
                }
            }
        }
    }

    #[test]
    fn table1_winner_is_arrival_order_invariant(
        rows in prop::collection::vec(0u64..600, 1..16),
        rot in 0usize..16,
    ) {
        // Random arrivals: the Table 1 winner does not depend on the
        // order candidates were enqueued, only on the total order.
        use iqpaths_core::precedence::{best, Candidate, ScheduleClass};
        let cands: Vec<Candidate> = rows
            .iter()
            .enumerate()
            .map(|(i, &v)| Candidate {
                stream: i,
                class: match v % 3 {
                    0 => ScheduleClass::CurrentPath,
                    1 => ScheduleClass::OtherPath,
                    _ => ScheduleClass::Unscheduled,
                },
                deadline_ns: (v / 3) % 50,
                constraint: ((v / 150) % 4) as f64 / 4.0,
            })
            .collect();
        let mut rotated = cands.clone();
        rotated.rotate_left(rot % cands.len().max(1));
        let mut reversed = cands.clone();
        reversed.reverse();
        let w = best(&cands).unwrap();
        prop_assert_eq!(best(&rotated).unwrap(), w);
        prop_assert_eq!(best(&reversed).unwrap(), w);
    }

    #[test]
    fn vp_virtual_deadline_order_never_inverts(
        counts in prop::collection::vec(0u32..40, 1..6),
    ) {
        // Walking VP, each visit's virtual deadline
        // Dp[k] = (k − 1) / x_j is non-decreasing: the merged path order
        // never services a later deadline before an earlier one.
        if !counts.iter().any(|&c| c > 0) {
            continue; // degenerate sample: nothing scheduled
        }
        let vp = path_lookup_vector(&counts);
        let mut seen = vec![0u32; counts.len()];
        let mut last = f64::NEG_INFINITY;
        for &j in &vp {
            let d = seen[j] as f64 / counts[j] as f64;
            prop_assert!(d >= last - 1e-12, "VP inversion: {} after {}", d, last);
            last = d;
            seen[j] += 1;
        }
    }

    #[test]
    fn vs_per_path_edf_order_never_inverts(
        matrix in prop::collection::vec(prop::collection::vec(0u32..30, 4), 1..5),
    ) {
        // Same invariant inside every per-path stream vector VS[j], for
        // arbitrary (random-arrival) assignment matrices.
        let sv = SchedulingVectors::build(matrix.clone());
        for j in 0..4 {
            let counts: Vec<u32> = matrix.iter().map(|row| row[j]).collect();
            let mut seen = vec![0u32; counts.len()];
            let mut last = f64::NEG_INFINITY;
            for &i in sv.vs[j].iter() {
                let d = seen[i] as f64 / counts[i] as f64;
                prop_assert!(d >= last - 1e-12, "VS[{}] inversion", j);
                last = d;
                seen[i] += 1;
            }
        }
    }

    #[test]
    fn precedence_sort_never_panics(
        deadlines in prop::collection::vec(0u64..1000, 1..20),
    ) {
        use iqpaths_core::precedence::{best, Candidate, ScheduleClass};
        let cands: Vec<Candidate> = deadlines
            .iter()
            .enumerate()
            .map(|(i, &d)| Candidate {
                stream: i,
                class: match d % 3 {
                    0 => ScheduleClass::CurrentPath,
                    1 => ScheduleClass::OtherPath,
                    _ => ScheduleClass::Unscheduled,
                },
                deadline_ns: d,
                constraint: (d % 7) as f64 / 7.0,
            })
            .collect();
        let b = best(&cands).unwrap();
        // The winner is no worse than any candidate.
        for c in &cands {
            prop_assert_ne!(
                iqpaths_core::precedence::compare(c, &b),
                std::cmp::Ordering::Less
            );
        }
    }
}
