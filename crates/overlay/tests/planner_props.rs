//! Property tests of the probe planners ([`iqpaths_overlay::planner`]).
//!
//! Four families, sampled over planner kind, path count, budget and
//! seed:
//!
//! * **Seeded determinism** — rebuilding the same planner and replaying
//!   the same belief stream reproduces the plan sequence exactly;
//! * **Budget never exceeded in any window** — for *every* window of
//!   consecutive slots (not just on average), the probes issued stay
//!   within the window's pro-rata share `⌈W·paths·pct/100⌉`;
//! * **No starvation** — every path keeps getting selected at a
//!   bounded interval, because staleness pressure eventually outweighs
//!   any variance gap;
//! * **Legacy pass-through** — `PeriodicPlanner` under
//!   `ProbeBudget::Unlimited` reproduces the historical
//!   probe-everything schedule bit-identically: paths `0..n` in
//!   ascending order, every slot;
//! * **Sorted greedy ≡ scan greedy** — `ActivePlanner` (one descending
//!   sort, sparse overlap rows) makes the same selections, score bits
//!   included, as the scan-per-pick greedy over a dense overlap matrix
//!   kept below as the oracle, on beliefs full of exact ties.

use iqpaths_overlay::planner::{
    build_planner, ActivePlanner, PathBelief, PlannerKind, ProbeBudget, ProbePlanner,
    ProbeSelection,
};
use iqpaths_simnet::fault::splitmix64;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded pseudo-random belief stream: per (slot, path) beliefs drawn
/// from one `StdRng`, so two iterations over the same seed see the
/// same stream.
fn belief_stream(seed: u64, n_paths: usize, slots: u64) -> Vec<Vec<PathBelief>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..slots)
        .map(|_| {
            (0..n_paths)
                .map(|_| PathBelief {
                    prob_ok: rng.gen_range(0.0..=1.0),
                    samples: rng.gen_range(0usize..200),
                    staleness_slots: rng.gen_range(0.0..10.0),
                })
                .collect()
        })
        .collect()
}

/// A seeded random link incidence: each path crosses 1–4 links drawn
/// from a small shared pool, so overlaps (shared bottlenecks) are
/// common.
fn incidence(seed: u64, n_paths: usize) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    (0..n_paths)
        .map(|_| {
            let k = rng.gen_range(1usize..=4);
            (0..k).map(|_| rng.gen_range(0u64..6)).collect()
        })
        .collect()
}

fn plan_paths(
    kind: PlannerKind,
    n_paths: usize,
    seed: u64,
    budget: ProbeBudget,
    beliefs: &[Vec<PathBelief>],
) -> Vec<Vec<usize>> {
    let links = incidence(seed, n_paths);
    let mut planner = build_planner(kind, n_paths, seed, budget, Some(&links));
    beliefs
        .iter()
        .enumerate()
        .map(|(slot, b)| {
            let b = if planner.needs_beliefs() { &b[..] } else { &[] };
            planner
                .plan(slot as u64, n_paths, b)
                .into_iter()
                .map(|s| s.path)
                .collect()
        })
        .collect()
}

/// The scan greedy `ActivePlanner` implemented before it planned by
/// sorting: a dense Jaccard matrix, and per pick an argmax scan over
/// the untaken paths that hashes tie-breaks inside the comparator.
struct ScanActivePlanner {
    budget: ProbeBudget,
    seed: u64,
    overlap: Vec<Vec<f64>>,
    last_selected: Vec<Option<u64>>,
}

impl ScanActivePlanner {
    fn new(seed: u64, budget: ProbeBudget, links: &[Vec<u64>]) -> Self {
        let n = links.len();
        let sets: Vec<std::collections::BTreeSet<u64>> =
            links.iter().map(|l| l.iter().copied().collect()).collect();
        let mut overlap = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let inter = sets[i].intersection(&sets[j]).count() as f64;
                let union = sets[i].union(&sets[j]).count() as f64;
                overlap[i][j] = if union > 0.0 { inter / union } else { 0.0 };
            }
        }
        Self {
            budget,
            seed,
            overlap,
            last_selected: vec![None; n],
        }
    }

    fn base_score(&self, belief: &PathBelief, path: usize, slot: u64) -> f64 {
        let p = belief.prob_ok.clamp(0.0, 1.0);
        let var = if belief.samples == 0 {
            0.25
        } else {
            (p * (1.0 - p)) / belief.samples as f64
        };
        let since_selected = match self.last_selected[path] {
            Some(s) => (slot - s) as f64,
            None => (slot + 1) as f64,
        };
        let stale = belief.staleness_slots.max(since_selected).max(0.0);
        var + 0.01 * stale
    }

    fn tie(&self, slot: u64, path: usize) -> u64 {
        splitmix64(self.seed ^ splitmix64(slot.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ path as u64)
    }

    fn plan(&mut self, slot: u64, n_paths: usize, beliefs: &[PathBelief]) -> Vec<ProbeSelection> {
        let a = self.budget.allowance(slot, n_paths).min(n_paths);
        if a == 0 {
            return Vec::new();
        }
        let mut score: Vec<f64> = (0..n_paths)
            .map(|j| self.base_score(&beliefs[j], j, slot))
            .collect();
        let mut taken = vec![false; n_paths];
        let mut picked: Vec<ProbeSelection> = Vec::with_capacity(a);
        for _ in 0..a {
            let best = (0..n_paths)
                .filter(|&j| !taken[j])
                .max_by(|&i, &j| {
                    score[i]
                        .total_cmp(&score[j])
                        .then_with(|| self.tie(slot, i).cmp(&self.tie(slot, j)))
                })
                .expect("a <= n_paths leaves a candidate");
            taken[best] = true;
            picked.push(ProbeSelection {
                path: best,
                score: score[best],
            });
            for j in 0..n_paths {
                if !taken[j] {
                    score[j] *= 1.0 - 0.5 * self.overlap[best][j];
                }
            }
        }
        for sel in &picked {
            self.last_selected[sel.path] = Some(slot);
        }
        picked.sort_unstable_by_key(|s| s.path);
        picked
    }
}

/// Beliefs built to tie: p̂ ∈ {0, ½, 1}, a sample count of 0 or 8, and
/// one staleness shared by every path of the slot, so many paths score
/// exactly alike and the tie-break decides.
fn tied_beliefs(rng: &mut StdRng, n_paths: usize) -> Vec<PathBelief> {
    let staleness_slots = [0.0, 1.0, 4.0][rng.gen_range(0usize..3)];
    (0..n_paths)
        .map(|_| PathBelief {
            prob_ok: [0.0, 0.5, 1.0][rng.gen_range(0usize..3)],
            samples: [0, 8][rng.gen_range(0usize..2)],
            staleness_slots,
        })
        .collect()
}

proptest! {
    #[test]
    fn sorted_greedy_matches_the_scan_oracle(
        seed in 0u64..1_000_000,
        n_paths in 1usize..=40,
        pool in 1u64..12,
        pct in 1u32..=100,
    ) {
        // Each path crosses 1–4 links of a `pool`-link set: a small pool
        // makes most pairs overlap, a large one leaves many rows empty.
        let mut rng = StdRng::seed_from_u64(seed);
        let links: Vec<Vec<u64>> = (0..n_paths)
            .map(|_| (0..rng.gen_range(1usize..=4)).map(|_| rng.gen_range(0..pool)).collect())
            .collect();
        let budget = ProbeBudget::percent(pct);
        let mut oracle = ScanActivePlanner::new(seed, budget, &links);
        let mut planner = ActivePlanner::new(n_paths, seed, budget).with_incidence(&links);
        let mut got = Vec::new();
        for slot in 0..64u64 {
            let beliefs = tied_beliefs(&mut rng, n_paths);
            let want = oracle.plan(slot, n_paths, &beliefs);
            planner.plan_into(slot, n_paths, &beliefs, &mut got);
            prop_assert_eq!(got.len(), want.len(), "slot {}", slot);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.path, w.path, "slot {}", slot);
                prop_assert_eq!(g.score.to_bits(), w.score.to_bits(), "slot {}", slot);
            }
        }
    }

    #[test]
    fn planning_is_deterministic_per_seed(
        seed in 0u64..10_000,
        n_paths in 1usize..8,
        pct in 1u32..=100,
        active in 0u32..2,
    ) {
        let kind = if active == 1 { PlannerKind::Active } else { PlannerKind::Periodic };
        let beliefs = belief_stream(seed, n_paths, 200);
        let budget = ProbeBudget::percent(pct);
        let a = plan_paths(kind, n_paths, seed, budget, &beliefs);
        let b = plan_paths(kind, n_paths, seed, budget, &beliefs);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn budget_is_never_exceeded_in_any_window(
        seed in 0u64..10_000,
        n_paths in 1usize..8,
        pct in 1u32..=100,
        active in 0u32..2,
    ) {
        let kind = if active == 1 { PlannerKind::Active } else { PlannerKind::Periodic };
        let slots = 300u64;
        let beliefs = belief_stream(seed, n_paths, slots);
        let plans = plan_paths(kind, n_paths, seed, ProbeBudget::percent(pct), &beliefs);
        let counts: Vec<u64> = plans.iter().map(|p| p.len() as u64).collect();
        // Prefix sums make every window sum O(1); check every window of
        // several representative lengths, including length 1.
        let mut prefix = vec![0u64; counts.len() + 1];
        for (i, &c) in counts.iter().enumerate() {
            prefix[i + 1] = prefix[i] + c;
        }
        let num = n_paths as u64 * u64::from(pct);
        for w in [1u64, 3, 17, 100, slots] {
            let cap = num * w / 100 + u64::from(!(num * w).is_multiple_of(100)); // ceil(w*num/100)
            for start in 0..=(slots - w) {
                let spent = prefix[(start + w) as usize] - prefix[start as usize];
                prop_assert!(
                    spent <= cap,
                    "window [{start}, {}) spent {spent} > cap {cap} (pct {pct}, paths {n_paths})",
                    start + w
                );
            }
        }
    }

    #[test]
    fn no_path_starves(
        seed in 0u64..2_000,
        n_paths in 2usize..6,
        pct in 20u32..=100,
    ) {
        // Active planning under a workable budget: staleness pressure
        // guarantees every path reappears at a bounded interval. With
        // pct >= 20 and <= 5 paths the allowance is at least one probe
        // per 5 slots, and 25 slots of staleness dominate the maximal
        // variance gap — 500 slots is far beyond the worst case.
        let slots = 500u64;
        let beliefs = belief_stream(seed, n_paths, slots);
        let plans = plan_paths(PlannerKind::Active, n_paths, seed, ProbeBudget::percent(pct), &beliefs);
        for path in 0..n_paths {
            let first_half = plans[..250].iter().any(|p| p.contains(&path));
            let second_half = plans[250..].iter().any(|p| p.contains(&path));
            prop_assert!(
                first_half && second_half,
                "path {path} starved (pct {pct}, paths {n_paths})"
            );
        }
    }

    #[test]
    fn unlimited_periodic_is_the_legacy_schedule(
        seed in 0u64..10_000,
        n_paths in 1usize..10,
    ) {
        // The historical runtime probed every path every slot with
        // `for (j, path) in paths.iter().enumerate()`. The default
        // planner must reproduce that schedule bit for bit.
        let beliefs = belief_stream(seed, n_paths, 120);
        let plans = plan_paths(
            PlannerKind::Periodic, n_paths, seed, ProbeBudget::Unlimited, &beliefs,
        );
        let legacy: Vec<usize> = (0..n_paths).collect();
        for (slot, plan) in plans.iter().enumerate() {
            prop_assert_eq!(plan, &legacy, "slot {}", slot);
        }
    }

    #[test]
    fn plans_are_sorted_unique_valid_paths(
        seed in 0u64..10_000,
        n_paths in 1usize..8,
        pct in 1u32..=100,
        active in 0u32..2,
    ) {
        let kind = if active == 1 { PlannerKind::Active } else { PlannerKind::Periodic };
        let beliefs = belief_stream(seed, n_paths, 150);
        let plans = plan_paths(kind, n_paths, seed, ProbeBudget::percent(pct), &beliefs);
        for plan in &plans {
            prop_assert!(plan.windows(2).all(|w| w[0] < w[1]), "unsorted or dup: {plan:?}");
            prop_assert!(plan.iter().all(|&p| p < n_paths));
        }
    }
}
