//! Probe planning: who gets measured, under what budget.
//!
//! The periodic prober measures every path each probe slot — a cost
//! model that grows as paths × rate while the information per probe
//! collapses on large overlays. Following the Bayesian active-learning
//! line of Thouin, Coates & Rabbat (*Multi-path Probabilistic Available
//! Bandwidth Estimation*), a [`ProbePlanner`] instead decides, each
//! probe slot and under a global [`ProbeBudget`], which subset of paths
//! is worth a measurement:
//!
//! * [`PeriodicPlanner`] — the legacy discipline behind the trait.
//!   Under [`ProbeBudget::Unlimited`] it reproduces the historical
//!   probe-everything schedule bit-identically; under a budget it
//!   round-robins so every path is probed at a reduced uniform rate.
//! * [`ActivePlanner`] — scores each path by the sampling variance of
//!   the Lemma-1 conformance estimand (`p̂(1−p̂)/n` from the path's
//!   `CdfSummary`) plus a staleness term, discounts paths that share
//!   bottleneck links with an already-selected path, and greedily picks
//!   the argmax-information paths. Ties break through the workspace's
//!   salted-splitmix64 discipline, so schedules are a pure function of
//!   `(seed, slot, beliefs)`.
//!
//! Determinism rules: planners never consult wall clocks or ambient
//! RNGs; every decision derives from the slot counter, the caller-
//! supplied beliefs, and the planner's own seeded state. Identical
//! inputs yield identical schedules on every platform.

use iqpaths_simnet::fault::splitmix64;

/// Global probes-per-window budget, expressed against the periodic
/// baseline of one probe per path per slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeBudget {
    /// No cap: every slot may probe every path (the historical
    /// behavior, and the default).
    Unlimited,
    /// At most `pct`% of the periodic probe rate, enforced per slot by
    /// an error-diffusing allowance so no window of any length ever
    /// exceeds its pro-rata share (see [`ProbeBudget::allowance`]).
    Percent(u32),
}

impl ProbeBudget {
    /// A percentage budget.
    ///
    /// # Panics
    /// Panics unless `1 <= pct <= 100`.
    pub fn percent(pct: u32) -> Self {
        assert!((1..=100).contains(&pct), "budget percent in 1..=100");
        ProbeBudget::Percent(pct)
    }

    /// Whether this is the uncapped default.
    pub fn is_unlimited(self) -> bool {
        matches!(self, ProbeBudget::Unlimited)
    }

    /// How many probes slot `slot` may issue across `paths` paths.
    ///
    /// For `Percent(pct)` the allowance is the Bresenham-style
    /// difference `⌊(slot+1)·paths·pct/100⌋ − ⌊slot·paths·pct/100⌋`, so
    /// the cumulative probe count after any slot is exactly
    /// `⌊slots·paths·pct/100⌋` and any window of `W` consecutive slots
    /// issues at most `⌈W·paths·pct/100⌉` probes — the budget is never
    /// exceeded in any window, not just on average.
    pub fn allowance(self, slot: u64, paths: usize) -> usize {
        match self {
            ProbeBudget::Unlimited => paths,
            ProbeBudget::Percent(pct) => {
                let num = paths as u64 * u64::from(pct);
                ((slot + 1) * num / 100 - slot * num / 100) as usize
            }
        }
    }

    /// Frozen rendering used by knob canon strings and cell ids:
    /// `"unlimited"` or the bare percentage.
    pub fn canon(self) -> String {
        match self {
            ProbeBudget::Unlimited => "unlimited".to_string(),
            ProbeBudget::Percent(pct) => pct.to_string(),
        }
    }
}

/// Which planner implementation a runtime should construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerKind {
    /// [`PeriodicPlanner`] (the default).
    Periodic,
    /// [`ActivePlanner`].
    Active,
}

impl PlannerKind {
    /// Frozen name used by knob canon strings and cell ids.
    pub fn name(self) -> &'static str {
        match self {
            PlannerKind::Periodic => "periodic",
            PlannerKind::Active => "active",
        }
    }

    /// Inverse of [`PlannerKind::name`].
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "periodic" => Some(PlannerKind::Periodic),
            "active" => Some(PlannerKind::Active),
            _ => None,
        }
    }
}

/// What a planner knows about one path when planning a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathBelief {
    /// Estimated probability that the path currently clears the
    /// guaranteed demand — `1 − F̂(demand)` from the path's CDF summary
    /// (any value in `[0, 1]`; the score is symmetric in `p̂` vs
    /// `1 − p̂`).
    pub prob_ok: f64,
    /// Number of samples backing the estimate (the CDF summary length).
    pub samples: usize,
    /// Staleness of the path's telemetry in probe slots: how many
    /// slot-lengths have passed since the newest accepted measurement.
    /// Lost or delayed probe reports show up here.
    pub staleness_slots: f64,
}

impl PathBelief {
    /// A belief carrying no information: unknown distribution, maximal
    /// staleness pressure proportional to `slot`.
    pub fn empty(slot: u64) -> Self {
        Self {
            prob_ok: 0.5,
            samples: 0,
            staleness_slots: (slot + 1) as f64,
        }
    }
}

/// One planned probe: the path to measure and the information score
/// that selected it (0 for schedule-driven planners).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSelection {
    /// Path index to probe this slot.
    pub path: usize,
    /// The planner's score at selection time (post-discount).
    pub score: f64,
}

/// A probe-scheduling policy: given the slot counter and per-path
/// beliefs, decide which paths to measure this slot.
pub trait ProbePlanner {
    /// Frozen planner name (matches [`PlannerKind::name`]).
    fn name(&self) -> &'static str;

    /// Whether [`ProbePlanner::plan_into`] reads `beliefs`. Callers may
    /// pass an empty slice when this is `false` and skip snapshot costs.
    fn needs_beliefs(&self) -> bool {
        false
    }

    /// Writes the paths to probe at `slot` into `out` (cleared first),
    /// in ascending path order (the order the legacy probe-everything
    /// loop used). `beliefs`, when provided, has one entry per path.
    /// Never writes more than `budget.allowance(slot, n_paths)`
    /// selections. Planners keep their own scratch, so a caller that
    /// reuses `out` plans every slot without allocating.
    fn plan_into(
        &mut self,
        slot: u64,
        n_paths: usize,
        beliefs: &[PathBelief],
        out: &mut Vec<ProbeSelection>,
    );

    /// [`ProbePlanner::plan_into`] into a fresh `Vec`.
    fn plan(&mut self, slot: u64, n_paths: usize, beliefs: &[PathBelief]) -> Vec<ProbeSelection> {
        let mut out = Vec::new();
        self.plan_into(slot, n_paths, beliefs, &mut out);
        out
    }

    /// The budget the planner enforces.
    fn budget(&self) -> ProbeBudget;
}

/// The legacy periodic discipline behind the [`ProbePlanner`] trait.
#[derive(Debug, Clone)]
pub struct PeriodicPlanner {
    budget: ProbeBudget,
    cursor: usize,
}

impl PeriodicPlanner {
    /// Periodic probing under `budget`.
    pub fn new(budget: ProbeBudget) -> Self {
        Self { budget, cursor: 0 }
    }
}

impl ProbePlanner for PeriodicPlanner {
    fn name(&self) -> &'static str {
        PlannerKind::Periodic.name()
    }

    fn plan_into(
        &mut self,
        slot: u64,
        n_paths: usize,
        _beliefs: &[PathBelief],
        out: &mut Vec<ProbeSelection>,
    ) {
        out.clear();
        let a = self.budget.allowance(slot, n_paths).min(n_paths);
        // Round-robin from the cursor so a sub-unity allowance still
        // visits every path at a uniform reduced rate. Under Unlimited
        // the allowance equals n_paths and this is [0, n_paths) in
        // ascending order — the historical schedule, bit for bit.
        out.extend((0..a).map(|i| ProbeSelection {
            path: (self.cursor + i) % n_paths,
            score: 0.0,
        }));
        self.cursor = (self.cursor + a) % n_paths.max(1);
        out.sort_unstable_by_key(|s| s.path);
    }

    fn budget(&self) -> ProbeBudget {
        self.budget
    }
}

/// Staleness weight: one slot of telemetry age is worth this much
/// estimand variance. 0.01 means 25 slots of staleness outweigh the
/// maximal Bernoulli variance (0.25), so no path starves for long even
/// against maximally uncertain competitors.
const STALENESS_WEIGHT: f64 = 0.01;

/// How strongly full link overlap suppresses a path's score once a
/// correlated path has been selected in the same slot.
const CORRELATION_DISCOUNT: f64 = 0.5;

/// Bayesian-active path selection under a probe budget.
pub struct ActivePlanner {
    budget: ProbeBudget,
    seed: u64,
    /// Sparse Jaccard link overlaps: `overlap[i]` lists `(j, w)` for
    /// every other path `j` sharing a link with `i` (`w > 0`). Empty
    /// rows (all paths link-disjoint) unless
    /// [`ActivePlanner::with_incidence`] installs real link sets.
    overlap: Vec<Vec<(usize, f64)>>,
    /// Slot at which each path was last selected.
    last_selected: Vec<Option<u64>>,
    /// Per-slot scratch: each path's (discounted) score.
    score: Vec<f64>,
    /// Per-slot scratch: each path's tie-break hash.
    tie: Vec<u64>,
    /// Per-slot scratch: path indices, picked prefix then the unpicked
    /// tail in descending (score, tie, index) order.
    order: Vec<usize>,
}

impl ActivePlanner {
    /// An active planner over `n_paths` paths, seeded for tie-breaking.
    pub fn new(n_paths: usize, seed: u64, budget: ProbeBudget) -> Self {
        Self {
            budget,
            seed,
            overlap: vec![Vec::new(); n_paths],
            last_selected: vec![None; n_paths],
            score: Vec::with_capacity(n_paths),
            tie: Vec::with_capacity(n_paths),
            order: Vec::with_capacity(n_paths),
        }
    }

    /// Installs the link→path incidence: `links[j]` is the set of link
    /// ids path `j` traverses (ids only need to be stable within the
    /// call; duplicates are ignored). Shared-bottleneck correlation is
    /// the Jaccard overlap of these sets.
    ///
    /// # Panics
    /// Panics if `links.len()` differs from the planner's path count.
    #[must_use]
    pub fn with_incidence(mut self, links: &[Vec<u64>]) -> Self {
        let n = self.last_selected.len();
        assert_eq!(links.len(), n, "incidence must cover every path");
        let sets: Vec<std::collections::BTreeSet<u64>> =
            links.iter().map(|l| l.iter().copied().collect()).collect();
        for (i, row) in self.overlap.iter_mut().enumerate() {
            row.clear();
            for j in (0..n).filter(|&j| j != i) {
                let inter = sets[i].intersection(&sets[j]).count() as f64;
                if inter > 0.0 {
                    let union = sets[i].union(&sets[j]).count() as f64;
                    row.push((j, inter / union));
                }
            }
        }
        self
    }
}

/// The pre-discount information score for one belief at `slot`:
/// sampling variance of the Lemma-1 estimand plus staleness pressure.
/// An empty CDF scores the maximal Bernoulli variance. `last_selected`
/// is the slot the planner last scheduled the path in.
fn base_score(belief: &PathBelief, last_selected: Option<u64>, slot: u64) -> f64 {
    let p = belief.prob_ok.clamp(0.0, 1.0);
    let var = if belief.samples == 0 {
        0.25
    } else {
        (p * (1.0 - p)) / belief.samples as f64
    };
    // Staleness is the larger of what the monitoring layer reports
    // (covers lost/delayed reports) and slots since this planner last
    // scheduled the path (covers paths never yet selected).
    let since_selected = match last_selected {
        Some(s) => (slot - s) as f64,
        None => (slot + 1) as f64,
    };
    let stale = belief.staleness_slots.max(since_selected).max(0.0);
    var + STALENESS_WEIGHT * stale
}

/// Sorts `paths` into descending (score, tie, index) order: the first
/// entry is the one `Iterator::max_by` over ascending indices with the
/// (score, tie) key would return, since `max_by` keeps the last of
/// equal maxima.
fn sort_descending(paths: &mut [usize], score: &[f64], tie: &[u64]) {
    paths.sort_unstable_by(|&i, &j| {
        score[j]
            .total_cmp(&score[i])
            .then_with(|| tie[j].cmp(&tie[i]))
            .then_with(|| j.cmp(&i))
    });
}

impl ProbePlanner for ActivePlanner {
    fn name(&self) -> &'static str {
        PlannerKind::Active.name()
    }

    fn needs_beliefs(&self) -> bool {
        true
    }

    fn plan_into(
        &mut self,
        slot: u64,
        n_paths: usize,
        beliefs: &[PathBelief],
        out: &mut Vec<ProbeSelection>,
    ) {
        assert_eq!(beliefs.len(), n_paths, "active planning needs beliefs");
        out.clear();
        let a = self.budget.allowance(slot, n_paths).min(n_paths);
        if a == 0 {
            return;
        }
        let Self {
            seed,
            overlap,
            last_selected,
            score,
            tie,
            order,
            ..
        } = self;
        score.clear();
        score.extend((0..n_paths).map(|j| base_score(&beliefs[j], last_selected[j], slot)));
        // Deterministic tie-break hash per (slot, path), computed once.
        let slot_hash = splitmix64(slot.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        tie.clear();
        tie.extend((0..n_paths).map(|j| splitmix64(*seed ^ slot_hash ^ j as u64)));
        order.clear();
        order.extend(0..n_paths);
        // Greedy argmax, as one sort: the head of the unpicked tail is
        // the argmax of what is left. Shared-bottleneck discounting
        // (probing `best` also informs paths that cross its links, so
        // their marginal information shrinks for the rest of this slot)
        // is the only thing that moves a score, so the tail needs a
        // re-sort only after a pick with a non-empty overlap row.
        sort_descending(order, score, tie);
        for k in 0..a {
            let best = order[k];
            out.push(ProbeSelection {
                path: best,
                score: score[best],
            });
            if !overlap[best].is_empty() {
                // Picked paths' scores are never read again, so the
                // row is applied without a taken-check.
                for &(j, w) in &overlap[best] {
                    score[j] *= 1.0 - CORRELATION_DISCOUNT * w;
                }
                sort_descending(&mut order[k + 1..], score, tie);
            }
        }
        for sel in out.iter() {
            last_selected[sel.path] = Some(slot);
        }
        out.sort_unstable_by_key(|s| s.path);
    }

    fn budget(&self) -> ProbeBudget {
        self.budget
    }
}

/// Constructs the planner `kind` names, seeded and budgeted. The
/// incidence, when given, only affects [`ActivePlanner`].
pub fn build_planner(
    kind: PlannerKind,
    n_paths: usize,
    seed: u64,
    budget: ProbeBudget,
    incidence: Option<&[Vec<u64>]>,
) -> Box<dyn ProbePlanner> {
    match kind {
        PlannerKind::Periodic => Box::new(PeriodicPlanner::new(budget)),
        PlannerKind::Active => {
            let p = ActivePlanner::new(n_paths, seed, budget);
            Box::new(match incidence {
                Some(links) => p.with_incidence(links),
                None => p,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_beliefs(n: usize, _slot: u64) -> Vec<PathBelief> {
        vec![
            PathBelief {
                prob_ok: 0.5,
                samples: 100,
                staleness_slots: 1.0,
            };
            n
        ]
    }

    #[test]
    fn unlimited_allowance_is_path_count() {
        assert_eq!(ProbeBudget::Unlimited.allowance(0, 7), 7);
        assert_eq!(ProbeBudget::Unlimited.allowance(999, 7), 7);
    }

    #[test]
    fn percent_allowance_diffuses_exactly() {
        // 25% of 3 paths = 0.75 probes/slot: cumulative count after S
        // slots must be floor(S * 0.75).
        let b = ProbeBudget::percent(25);
        let mut total = 0usize;
        for slot in 0..400u64 {
            total += b.allowance(slot, 3);
            assert_eq!(total as u64, (slot + 1) * 75 / 100);
        }
    }

    #[test]
    #[should_panic]
    fn zero_percent_budget_rejected() {
        let _ = ProbeBudget::percent(0);
    }

    #[test]
    fn canon_renderings_are_frozen() {
        assert_eq!(ProbeBudget::Unlimited.canon(), "unlimited");
        assert_eq!(ProbeBudget::percent(25).canon(), "25");
        assert_eq!(PlannerKind::Periodic.name(), "periodic");
        assert_eq!(PlannerKind::Active.name(), "active");
        assert_eq!(PlannerKind::by_name("active"), Some(PlannerKind::Active));
        assert_eq!(PlannerKind::by_name("nope"), None);
    }

    #[test]
    fn periodic_unlimited_probes_everything_in_order() {
        let mut p = PeriodicPlanner::new(ProbeBudget::Unlimited);
        for slot in 0..20 {
            let sel = p.plan(slot, 4, &[]);
            let paths: Vec<usize> = sel.iter().map(|s| s.path).collect();
            assert_eq!(paths, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn periodic_budget_round_robins_every_path() {
        let mut p = PeriodicPlanner::new(ProbeBudget::percent(25));
        let mut counts = vec![0usize; 4];
        for slot in 0..400 {
            for sel in p.plan(slot, 4, &[]) {
                counts[sel.path] += 1;
            }
        }
        // 400 slots * 4 paths * 25% = 400 probes, evenly spread.
        assert_eq!(counts.iter().sum::<usize>(), 400);
        for &c in &counts {
            assert_eq!(c, 100);
        }
    }

    #[test]
    fn active_respects_allowance_and_is_deterministic() {
        let run = || {
            let mut p = ActivePlanner::new(5, 42, ProbeBudget::percent(40));
            let mut schedule = Vec::new();
            for slot in 0..200 {
                let beliefs = uniform_beliefs(5, slot);
                let sel = p.plan(slot, 5, &beliefs);
                assert!(sel.len() <= ProbeBudget::percent(40).allowance(slot, 5));
                schedule.push(sel.iter().map(|s| s.path).collect::<Vec<_>>());
            }
            schedule
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn active_prefers_the_uncertain_path() {
        let mut p = ActivePlanner::new(3, 1, ProbeBudget::percent(34));
        let beliefs = vec![
            // Confident: p̂ far from 0.5, many samples.
            PathBelief {
                prob_ok: 0.99,
                samples: 500,
                staleness_slots: 1.0,
            },
            // Uncertain: p̂ = 0.5 on few samples.
            PathBelief {
                prob_ok: 0.5,
                samples: 10,
                staleness_slots: 1.0,
            },
            PathBelief {
                prob_ok: 0.95,
                samples: 500,
                staleness_slots: 1.0,
            },
        ];
        // First slot with allowance 1 must pick the uncertain path.
        let sel: Vec<_> = (0..3u64)
            .flat_map(|slot| p.plan(slot, 3, &beliefs))
            .collect();
        assert_eq!(sel.first().map(|s| s.path), Some(1));
    }

    #[test]
    fn correlation_discount_spreads_probes_across_disjoint_links() {
        // Paths 0 and 1 share a bottleneck link; path 2 is disjoint.
        // With allowance 2 and equal beliefs, picking one of {0, 1}
        // must discount the other, so 2 joins the plan.
        let incidence = vec![vec![1, 2], vec![1, 3], vec![4, 5]];
        let mut p = ActivePlanner::new(3, 9, ProbeBudget::percent(67)).with_incidence(&incidence);
        let beliefs = uniform_beliefs(3, 0);
        let sel = p.plan(1, 3, &beliefs);
        assert_eq!(sel.len(), 2);
        assert!(
            sel.iter().any(|s| s.path == 2),
            "disjoint path must be selected over the correlated twin: {sel:?}"
        );
    }

    #[test]
    fn active_never_starves_a_path() {
        let mut p = ActivePlanner::new(6, 3, ProbeBudget::percent(10));
        let mut last = [0u64; 6];
        for slot in 0..4000u64 {
            let beliefs = uniform_beliefs(6, slot);
            for sel in p.plan(slot, 6, &beliefs) {
                last[sel.path] = slot;
            }
        }
        for (j, &l) in last.iter().enumerate() {
            assert!(l > 3000, "path {j} last probed at slot {l}");
        }
    }

    #[test]
    fn build_planner_dispatches_by_kind() {
        let p = build_planner(PlannerKind::Periodic, 3, 1, ProbeBudget::Unlimited, None);
        assert_eq!(p.name(), "periodic");
        assert!(!p.needs_beliefs());
        let a = build_planner(PlannerKind::Active, 3, 1, ProbeBudget::percent(50), None);
        assert_eq!(a.name(), "active");
        assert!(a.needs_beliefs());
        assert_eq!(a.budget(), ProbeBudget::percent(50));
    }
}
