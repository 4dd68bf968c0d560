//! Utility-based resource mapping (§5.2.2).
//!
//! "PGOS first finds the path that can satisfy the requirement of the
//! most important stream (with highest P_i), then finds the path for the
//! second most important stream, and so on. If there does not exist a
//! single path that can satisfy stream S_i's requirement, then the
//! stream S_i is divided into multiple parts S_i^j if this can satisfy
//! stream S_i's requirement. If this still fails due to limited
//! bandwidth, an upcall is made to inform the application."
//!
//! The MILP formulation the paper mentions (and rejects as NP-hard and
//! reordering-prone) is deliberately not used: mapping is greedy,
//! whole-path-first, in descending guarantee strength.
//!
//! A second mapping policy lives beside PGOS whole-path-first
//! placement: the erasure-coded [`DiversityMapper`] (DESIGN.md §15,
//! docs/POLICIES.md), selected by [`MappingMode`]. It stripes every
//! guaranteed stream across all usable paths in systematic (n, k)
//! block groups (see [`crate::coding`]) so the stream survives the
//! silent loss of any one path — the Fashandi et al. rate-allocation
//! result that coding beats splitting exactly when path failures are
//! uncorrelated.

use crate::coding::{self, StreamCoding, MAX_GROUP_BLOCKS};
use crate::guarantee;
use crate::stream::{Guarantee, StreamSpec};
use iqpaths_stats::CdfSummary;
use iqpaths_trace::{TraceEvent, TraceHandle};
use std::sync::Arc;

/// Admission-control notification delivered to the application.
#[derive(Debug, Clone, PartialEq)]
pub enum Upcall {
    /// A stream could not be scheduled at its requested guarantee. The
    /// application may "reduce its bandwidth requirement (e.g., from 95%
    /// to 90%) or try to adjust its behavior".
    StreamRejected {
        /// Stream index.
        stream: usize,
        /// Stream name.
        name: String,
        /// Requested rate in bits/s.
        requested_bps: f64,
        /// The best single-path service probability achievable at the
        /// requested rate.
        achievable_p: f64,
        /// Total rate (bits/s) admissible at the requested guarantee
        /// across all paths combined (splitting included).
        admissible_bps: f64,
    },
}

/// Output of the mapping step.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingResult {
    /// `assignments[i][j]` — packets of stream `i` scheduled on path `j`
    /// per window. Best-effort and rejected streams have all-zero rows
    /// (they are served opportunistically per the Table 1 precedence).
    ///
    /// Shared: the scheduler's [`crate::vectors::SchedulingVectors`]
    /// view holds the *same* matrix, not a clone.
    pub assignments: Arc<Vec<Vec<u32>>>,
    /// Same assignment expressed as rates in bits/s.
    pub rates: Vec<Vec<f64>>,
    /// Streams that could not be admitted.
    pub upcalls: Vec<Upcall>,
}

impl MappingResult {
    /// True when stream `i` was admitted (has a non-zero assignment or
    /// required nothing).
    pub fn admitted(&self, i: usize) -> bool {
        !self
            .upcalls
            .iter()
            .any(|Upcall::StreamRejected { stream, .. }| *stream == i)
    }

    /// Total committed rate on path `j`.
    pub fn committed(&self, j: usize) -> f64 {
        self.rates.iter().map(|row| row[j]).sum()
    }

    /// Emits this mapping onto `trace`: one `MappingDecision` per
    /// non-zero assignment cell plus one `UpcallRaised` per rejection,
    /// all stamped `at_ns` (the window boundary that ran the remap).
    /// No-op on a disabled handle.
    pub fn emit_trace(&self, trace: &TraceHandle, at_ns: u64) {
        if !trace.enabled() {
            return;
        }
        for (i, row) in self.assignments.iter().enumerate() {
            for (j, &packets) in row.iter().enumerate() {
                if packets > 0 {
                    trace.emit(TraceEvent::MappingDecision {
                        at_ns,
                        stream: i as u32,
                        path: j as u32,
                        packets,
                        rate_bps: self.rates[i][j],
                    });
                }
            }
        }
        for Upcall::StreamRejected {
            stream,
            requested_bps,
            admissible_bps,
            ..
        } in &self.upcalls
        {
            trace.emit(TraceEvent::UpcallRaised {
                at_ns,
                stream: *stream as u32,
                requested_bps: *requested_bps,
                admissible_bps: *admissible_bps,
            });
        }
    }
}

/// The greedy utility-ordered resource mapper.
#[derive(Debug, Clone, Copy)]
pub struct ResourceMapper {
    /// Scheduling-window length in seconds.
    pub tw_secs: f64,
}

impl ResourceMapper {
    /// Mapper for windows of `tw_secs` seconds.
    ///
    /// # Panics
    /// Panics if `tw_secs <= 0`.
    pub fn new(tw_secs: f64) -> Self {
        assert!(tw_secs > 0.0, "window must be positive");
        Self { tw_secs }
    }

    /// The guarantee probability a stream's requirement translates to.
    ///
    /// Violation-bound guarantees are mapped through the Lemma 1 ⇒
    /// Lemma 2 relation `E[Z] ≤ x·F(b0)`: requiring
    /// `F(b0) ≤ bound / x` (i.e. `p = 1 − bound/x`) is sufficient; the
    /// exact Lemma 2 bound (which is tighter) is then re-verified.
    pub fn effective_p(&self, spec: &StreamSpec) -> Option<f64> {
        match spec.guarantee {
            Guarantee::Probabilistic { p } => Some(p),
            Guarantee::ViolationBound {
                max_expected_misses,
            } => {
                let x = spec.packets_per_window(self.tw_secs).max(1) as f64;
                Some((1.0 - max_expected_misses / x).clamp(0.5, 0.9999))
            }
            Guarantee::BestEffort => None,
        }
    }

    /// Runs the mapping over the current path distribution summaries.
    pub fn map(&self, specs: &[StreamSpec], cdfs: &[CdfSummary]) -> MappingResult {
        self.map_full(specs, cdfs, None, None)
    }

    /// Like [`ResourceMapper::map`], with optional per-stream path
    /// affinity: `affinity[i]` is the path that carried stream `i` under
    /// the previous mapping. When several paths qualify within a small
    /// probability margin, the stream stays where it was — repeated
    /// remaps must not flap a critical stream between near-tied paths
    /// (flapping reorders packets exactly the way whole-path placement
    /// exists to avoid).
    pub fn map_with_affinity(
        &self,
        specs: &[StreamSpec],
        cdfs: &[CdfSummary],
        affinity: Option<&[Option<usize>]>,
    ) -> MappingResult {
        self.map_full(specs, cdfs, affinity, None)
    }

    /// The full mapping entry point: affinity plus measured per-path
    /// loss rates. Streams carrying a loss-rate objective
    /// ([`StreamSpec::with_loss_bound`]) are never placed on a path
    /// whose loss exceeds their bound (the paper's §7 "message loss
    /// rate service guarantees" extension).
    pub fn map_full(
        &self,
        specs: &[StreamSpec],
        cdfs: &[CdfSummary],
        affinity: Option<&[Option<usize>]>,
        path_loss: Option<&[f64]>,
    ) -> MappingResult {
        let n = specs.len();
        let l = cdfs.len();
        let mut assignments = vec![vec![0u32; l]; n];
        let mut rates = vec![vec![0.0f64; l]; n];
        let mut upcalls = Vec::new();
        let mut committed = vec![0.0f64; l];

        // Strongest guarantee first; stable tie-break by stream index.
        let mut order: Vec<usize> = (0..n)
            .filter(|&i| !specs[i].guarantee.is_best_effort())
            .collect();
        order.sort_by(|&a, &b| {
            specs[b]
                .guarantee
                .strength()
                .partial_cmp(&specs[a].guarantee.strength())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });

        for &i in &order {
            let spec = &specs[i];
            let p = self
                .effective_p(spec)
                .expect("best-effort filtered out above");
            let x = spec.packets_per_window(self.tw_secs);
            let req = spec.rate_for_packets(x, self.tw_secs);
            // Loss-rate objective: disqualify paths beyond the bound.
            let loss_ok = |j: usize| match (spec.max_loss, path_loss) {
                (Some(bound), Some(losses)) => losses.get(j).copied().unwrap_or(0.0) <= bound,
                _ => true,
            };

            // 1. Whole-path placement: among qualifying paths pick the
            //    one with the highest service probability at the new
            //    committed load (the strongest home for the strongest
            //    stream). Near-ties (within PROB_MARGIN) resolve to the
            //    stream's previous path, then to the lowest index.
            const PROB_MARGIN: f64 = 0.01;
            let probs: Vec<f64> = (0..l)
                .map(|j| {
                    if loss_ok(j) {
                        guarantee::prob_of_service(&cdfs[j], committed[j] + req)
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .collect();
            let best_prob = probs
                .iter()
                .copied()
                .filter(|&pr| pr >= p)
                .fold(f64::NEG_INFINITY, f64::max);
            let preferred = affinity.and_then(|a| a.get(i).copied().flatten());
            let choice = if best_prob.is_finite() {
                let qualifies = |j: usize| probs[j] >= p && probs[j] >= best_prob - PROB_MARGIN;
                match preferred {
                    Some(j) if j < l && qualifies(j) => Some(j),
                    _ => (0..l).find(|&j| qualifies(j)),
                }
            } else {
                None
            };
            if let Some(j) = choice {
                assignments[i][j] = x;
                rates[i][j] = req;
                committed[j] += req;
                continue;
            }

            // 2. Split across paths proportional to per-path headroom.
            //    A stream split over k paths only receives its whole
            //    requirement when *every* part is served, so each part
            //    must be guaranteed at p^(1/k): under independence the
            //    parts compose back to p, and under comonotone failures
            //    the joint is min(per-path) ≥ p. (Loss-violating paths
            //    are excluded.)
            let k_paths = (0..l).filter(|&j| loss_ok(j)).count().max(1);
            let p_split = p.powf(1.0 / k_paths as f64);
            let headroom: Vec<f64> = (0..l)
                .map(|j| {
                    if loss_ok(j) {
                        guarantee::admissible_rate(&cdfs[j], committed[j], p_split)
                    } else {
                        0.0
                    }
                })
                .collect();
            let total_headroom: f64 = headroom.iter().sum();
            if total_headroom >= req && x > 0 {
                let split = largest_remainder_split(x, &headroom);
                for (j, &xj) in split.iter().enumerate() {
                    if xj > 0 {
                        let r = spec.rate_for_packets(xj, self.tw_secs);
                        assignments[i][j] = xj;
                        rates[i][j] = r;
                        committed[j] += r;
                    }
                }
                continue;
            }

            // 3. Infeasible: upcall.
            let achievable_p = (0..l)
                .map(|j| guarantee::prob_of_service(&cdfs[j], committed[j] + req))
                .fold(0.0, f64::max);
            upcalls.push(Upcall::StreamRejected {
                stream: i,
                name: spec.name.clone(),
                requested_bps: req,
                achievable_p,
                admissible_bps: total_headroom,
            });
        }

        // Violation-bound streams: re-verify the exact Lemma 2 bound on
        // the (conservative) Lemma 1 placement; demote to an upcall if
        // even the tight bound fails.
        for &i in &order {
            if let Guarantee::ViolationBound {
                max_expected_misses,
            } = specs[i].guarantee
            {
                if !self.admitted_row_meets_bound(
                    &specs[i],
                    &assignments[i],
                    &rates[i],
                    &committed,
                    cdfs,
                    max_expected_misses,
                ) {
                    let req = specs[i].required_bw;
                    for j in 0..l {
                        committed[j] -= rates[i][j];
                        assignments[i][j] = 0;
                        rates[i][j] = 0.0;
                    }
                    upcalls.push(Upcall::StreamRejected {
                        stream: i,
                        name: specs[i].name.clone(),
                        requested_bps: req,
                        achievable_p: 0.0,
                        admissible_bps: 0.0,
                    });
                }
            }
        }

        MappingResult {
            assignments: Arc::new(assignments),
            rates,
            upcalls,
        }
    }

    fn admitted_row_meets_bound(
        &self,
        spec: &StreamSpec,
        row_pkts: &[u32],
        row_rates: &[f64],
        committed: &[f64],
        cdfs: &[CdfSummary],
        bound: f64,
    ) -> bool {
        let x_total: u32 = row_pkts.iter().sum();
        if x_total == 0 {
            // Was already rejected upstream.
            return true;
        }
        let mut weighted = 0.0;
        for (j, &xj) in row_pkts.iter().enumerate() {
            if xj == 0 {
                continue;
            }
            // Evaluate this part's misses on the path's residual CDF
            // after the *other* streams' load.
            let other = committed[j] - row_rates[j];
            let resid = cdfs[j].residual(other);
            let ez = guarantee::lemma2_expected_misses(&resid, xj, spec.packet_bytes, self.tw_secs);
            weighted += ez * (xj as f64 / x_total as f64);
        }
        weighted <= bound + 1e-9
    }
}

/// Splits `x` packets across paths proportionally to `weights` using
/// largest-remainder rounding, so the parts sum exactly to `x` and no
/// zero-weight path receives packets.
pub fn largest_remainder_split(x: u32, weights: &[f64]) -> Vec<u32> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || x == 0 {
        return vec![0; weights.len()];
    }
    let exact: Vec<f64> = weights.iter().map(|w| x as f64 * w / total).collect();
    let mut parts: Vec<u32> = exact.iter().map(|e| e.floor() as u32).collect();
    let assigned: u32 = parts.iter().sum();
    let mut rem: Vec<(usize, f64)> = exact
        .iter()
        .enumerate()
        .map(|(j, e)| (j, e - e.floor()))
        .collect();
    rem.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    // The leftover count equals the sum of fractional parts, so the
    // first `x − assigned` entries of the sorted remainder list all have
    // strictly positive fractions (hence positive weights).
    for &(j, _) in rem.iter().take((x - assigned) as usize) {
        parts[j] += 1;
    }
    parts
}

/// Which resource-mapping policy the scheduler runs (docs/POLICIES.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingMode {
    /// The paper's §5.2.2 policy: greedy whole-path-first placement,
    /// splitting only when no single path suffices
    /// ([`ResourceMapper`]). The default — bit-identical to every
    /// pre-Diversity run.
    #[default]
    Pgos,
    /// Erasure-coded path diversity ([`DiversityMapper`]): every
    /// guaranteed stream striped across all usable paths in (n, k)
    /// block groups with rates inflated by `n / k`.
    Diversity,
}

impl MappingMode {
    /// Canonical knob/cell-id name (`pgos` / `diversity`). Frozen: it
    /// participates in harness cell identities and cache keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MappingMode::Pgos => "pgos",
            MappingMode::Diversity => "diversity",
        }
    }

    /// Parses a canonical name back to the mode.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "pgos" => Some(MappingMode::Pgos),
            "diversity" => Some(MappingMode::Diversity),
            _ => None,
        }
    }
}

/// How much of a path pair's Jaccard bottleneck overlap discounts the
/// weaker path's delivery probability in the k-of-n feasibility bound
/// (mirrors `iqpaths_overlay::planner`'s correlation discounting —
/// shared bottlenecks mean block losses are *not* independent, so the
/// independence-based bound must be haircut).
pub const CORRELATION_DISCOUNT: f64 = 0.5;

/// A [`DiversityMapper`] mapping: the rate allocation (same shape as a
/// PGOS [`MappingResult`], so the scheduling vectors build unchanged)
/// plus the per-stream coding plans the runtime needs for lane setup,
/// parity synthesis and decode-complete accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct DiversityMapping {
    /// Per-stream per-path packet/rate allocation (coded totals: a
    /// stream's row sums to `n/k ×` its data packet count).
    pub result: MappingResult,
    /// One coding plan per *coded* stream (guaranteed streams only;
    /// best-effort streams stay uncoded and opportunistic).
    pub plans: Vec<StreamCoding>,
}

/// The erasure-coded path-diversity mapper (DESIGN.md §15).
///
/// For each guaranteed stream it picks a group shape `(n, k)` from the
/// usable path count (`n` = paths, capped at
/// [`MAX_GROUP_BLOCKS`]; `k = n − 1`, i.e. one
/// parity block per group), inflates the stream's rate by `n / k`,
/// even-splits the coded packets across the stripe (one lane per
/// path), and reports the exact probability that ≥ k of the n blocks
/// of a group are served — per-path Lemma 1 service probabilities
/// composed by subset enumeration, discounted by
/// [`CORRELATION_DISCOUNT`] × the shared-bottleneck Jaccard overlap.
///
/// The allocation is deliberately *structural*: even weights, paths in
/// index order, no dependence on the evolving CDFs — so a Diversity
/// mapping never flaps under remap.
/// Admission shortfalls surface as advisory [`Upcall`]s; the stream
/// keeps its (best-possible) coded allocation.
///
/// ```
/// use iqpaths_core::mapping::DiversityMapper;
/// use iqpaths_core::stream::StreamSpec;
/// use iqpaths_stats::{CdfSummary, EmpiricalCdf};
///
/// // Three clean 40–100 Mbps paths, one 8 Mbps stream at p = 0.9.
/// let cdf = || {
///     CdfSummary::exact(EmpiricalCdf::from_clean_samples(
///         (40..=100).map(|v| v as f64 * 1.0e6).collect(),
///     ))
/// };
/// let cdfs = vec![cdf(), cdf(), cdf()];
/// let specs = vec![StreamSpec::probabilistic(0, "video", 8.0e6, 0.9, 1250)];
///
/// let m = DiversityMapper::new(1.0).map(&specs, &cdfs, None, None);
/// let plan = &m.plans[0];
/// // Three paths → (3, 2) groups: two data blocks + one XOR parity.
/// assert_eq!((plan.n, plan.k), (3, 2));
/// assert_eq!(plan.paths, vec![0, 1, 2]);
/// // The coded allocation carries n/k = 1.5× the data rate, spread
/// // evenly: 12 Mbps total, 4 Mbps per path.
/// let total: f64 = m.result.rates[0].iter().sum();
/// assert!((total - 12.0e6).abs() < 0.2e6);
/// // Surviving any single-path outage: P(≥2 of 3) beats one path.
/// assert!(plan.decode_probability > 0.99);
/// assert!(m.result.upcalls.is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DiversityMapper {
    /// Scheduling-window length in seconds.
    pub tw_secs: f64,
}

impl DiversityMapper {
    /// Mapper for windows of `tw_secs` seconds.
    ///
    /// # Panics
    /// Panics if `tw_secs <= 0`.
    #[must_use]
    pub fn new(tw_secs: f64) -> Self {
        assert!(tw_secs > 0.0, "window must be positive");
        Self { tw_secs }
    }

    /// The (n, k) block-group shape for a stripe of `paths` usable
    /// paths: one block per path capped at [`MAX_GROUP_BLOCKS`], with a
    /// single parity block (`k = n − 1`). Fewer than two paths leave
    /// nothing to diversify over — the stream degenerates to the
    /// uncoded (1, 1) null group.
    #[must_use]
    pub fn group_shape(paths: usize) -> (usize, usize) {
        let n = paths.min(MAX_GROUP_BLOCKS);
        if n < 2 {
            (1, 1)
        } else {
            (n, n - 1)
        }
    }

    /// The stream spec a coded stream presents to feasibility checks:
    /// the same guarantee at `n / k ×` the data rate (parity rides the
    /// same lanes and deadlines as data, so the scheduler must budget
    /// for it).
    #[must_use]
    pub fn coded_spec(spec: &StreamSpec, n: usize, k: usize) -> StreamSpec {
        let mut s = spec.clone();
        s.required_bw = spec.required_bw * n as f64 / k as f64;
        s
    }

    /// Runs the diversity mapping over the current path summaries.
    ///
    /// `path_loss` (measured loss rates) disqualifies paths beyond a
    /// stream's loss bound exactly as [`ResourceMapper::map_full`]
    /// does; `incidence` (per-path bottleneck-link id sets, as built
    /// by the runtime for the probe planner) enables the Jaccard
    /// correlation discount in the reported decode probability —
    /// without it paths are treated as independent.
    #[must_use]
    pub fn map(
        &self,
        specs: &[StreamSpec],
        cdfs: &[CdfSummary],
        path_loss: Option<&[f64]>,
        incidence: Option<&[Vec<u64>]>,
    ) -> DiversityMapping {
        let n_streams = specs.len();
        let l = cdfs.len();
        let mut assignments = vec![vec![0u32; l]; n_streams];
        let mut rates = vec![vec![0.0f64; l]; n_streams];
        let mut upcalls = Vec::new();
        let mut plans = Vec::new();
        let mut committed = vec![0.0f64; l];
        let effective = ResourceMapper::new(self.tw_secs);

        // Strongest guarantee first (same discipline as PGOS) so the
        // advisory feasibility report charges weaker streams with the
        // stronger streams' load.
        let mut order: Vec<usize> = (0..n_streams)
            .filter(|&i| !specs[i].guarantee.is_best_effort())
            .collect();
        order.sort_by(|&a, &b| {
            specs[b]
                .guarantee
                .strength()
                .partial_cmp(&specs[a].guarantee.strength())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });

        for &i in &order {
            let spec = &specs[i];
            // Stripe: all paths within the stream's loss bound, in
            // index order (every qualifying path gets one lane). When
            // the bound disqualifies everything, fall back to all
            // paths — a coded stream must never be left unroutable.
            let loss_ok = |j: usize| match (spec.max_loss, path_loss) {
                (Some(bound), Some(losses)) => losses.get(j).copied().unwrap_or(0.0) <= bound,
                _ => true,
            };
            let mut stripe: Vec<usize> = (0..l).filter(|&j| loss_ok(j)).collect();
            if stripe.is_empty() {
                stripe = (0..l).collect();
            }
            if stripe.len() > MAX_GROUP_BLOCKS {
                // Cap the stripe at the best paths by current service
                // probability (deterministic tie-break on index), then
                // restore index order for stable lane assignment.
                let mut scored: Vec<(usize, f64)> = stripe
                    .iter()
                    .map(|&j| (j, guarantee::prob_of_service(&cdfs[j], committed[j])))
                    .collect();
                scored.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                stripe = scored[..MAX_GROUP_BLOCKS].iter().map(|&(j, _)| j).collect();
                stripe.sort_unstable();
            }
            let (n, k) = Self::group_shape(stripe.len());
            let coded = Self::coded_spec(spec, n, k);
            let x_total = coded.packets_per_window(self.tw_secs);

            // Even split across the stripe: largest-remainder over
            // unit weights, so lane loads differ by at most one packet.
            let weights: Vec<f64> = (0..l)
                .map(|j| if stripe.contains(&j) { 1.0 } else { 0.0 })
                .collect();
            let split = largest_remainder_split(x_total, &weights);
            for (j, &xj) in split.iter().enumerate() {
                if xj > 0 {
                    let r = spec.rate_for_packets(xj, self.tw_secs);
                    assignments[i][j] = xj;
                    rates[i][j] = r;
                    committed[j] += r;
                }
            }

            // Feasibility report: P(≥ k of n lanes served) from the
            // per-lane Lemma 1 probabilities at the committed loads,
            // correlation-discounted. Shortfall ⇒ advisory upcall; the
            // allocation stands (there is no better coded placement —
            // the split is already maximally diverse).
            let lane_probs: Vec<f64> = stripe
                .iter()
                .map(|&j| {
                    let p = guarantee::prob_of_service(&cdfs[j], committed[j]);
                    let overlap = incidence
                        .map(|inc| max_overlap(inc, j, &stripe))
                        .unwrap_or(0.0);
                    (p * (1.0 - CORRELATION_DISCOUNT * overlap)).clamp(0.0, 1.0)
                })
                .collect();
            let decode_p = coding::group_decode_probability(k, &lane_probs);
            if let Some(p) = effective.effective_p(spec) {
                if decode_p + 1e-9 < p {
                    upcalls.push(Upcall::StreamRejected {
                        stream: i,
                        name: spec.name.clone(),
                        requested_bps: coded.required_bw,
                        achievable_p: decode_p,
                        admissible_bps: stripe
                            .iter()
                            .map(|&j| guarantee::admissible_rate(&cdfs[j], committed[j], p))
                            .sum(),
                    });
                }
            }
            plans.push(StreamCoding {
                stream: i,
                n,
                k,
                paths: stripe,
                decode_probability: decode_p,
            });
        }

        plans.sort_by_key(|p| p.stream);
        DiversityMapping {
            result: MappingResult {
                assignments: Arc::new(assignments),
                rates,
                upcalls,
            },
            plans,
        }
    }
}

/// The largest Jaccard overlap between path `j`'s bottleneck-link set
/// and any *other* path of the stripe.
fn max_overlap(incidence: &[Vec<u64>], j: usize, stripe: &[usize]) -> f64 {
    let mine = match incidence.get(j) {
        Some(links) if !links.is_empty() => links,
        _ => return 0.0,
    };
    stripe
        .iter()
        .filter(|&&o| o != j)
        .map(|&o| jaccard(mine, incidence.get(o).map_or(&[][..], Vec::as_slice)))
        .fold(0.0, f64::max)
}

/// Jaccard similarity |A ∩ B| / |A ∪ B| of two small id sets.
fn jaccard(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.iter().filter(|x| b.contains(x)).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    use iqpaths_stats::EmpiricalCdf;

    fn cdf_mbps(vals: &[f64]) -> CdfSummary {
        CdfSummary::exact(EmpiricalCdf::from_clean_samples(
            vals.iter().map(|v| v * 1.0e6).collect(),
        ))
    }

    /// Uniform 1..=100 Mbps path: q(0.05)=5, q(0.10)=10 Mbps, etc.
    fn uniform_path() -> CdfSummary {
        cdf_mbps(&(1..=100).map(|i| i as f64).collect::<Vec<_>>())
    }

    /// Strong path: 50..=100 Mbps uniform (q(0.05) ≈ 52 Mbps).
    fn strong_path() -> CdfSummary {
        cdf_mbps(&(50..=100).map(|i| i as f64).collect::<Vec<_>>())
    }

    #[test]
    fn single_stream_fits_whole_path() {
        let specs = vec![StreamSpec::probabilistic(0, "a", 5.0e6, 0.9, 1000)];
        let m = ResourceMapper::new(1.0).map(&specs, &[uniform_path()]);
        assert!(m.upcalls.is_empty());
        assert_eq!(m.assignments[0][0], 625); // 5 Mbps / 8000 bits
        assert!(m.admitted(0));
    }

    #[test]
    fn strongest_stream_mapped_first_gets_strong_path() {
        // Weak path can only hold 10 Mbps at p=0.9; strong path holds 52
        // at p=0.95. The 0.95-stream must land on the strong path even
        // though it is listed second.
        let specs = vec![
            StreamSpec::probabilistic(0, "weak-need", 8.0e6, 0.90, 1000),
            StreamSpec::probabilistic(1, "strong-need", 40.0e6, 0.95, 1000),
        ];
        let m = ResourceMapper::new(1.0).map(&specs, &[uniform_path(), strong_path()]);
        assert!(m.upcalls.is_empty());
        // Stream 1 (stronger guarantee) on path 1.
        assert!(m.rates[1][1] > 0.0, "rates: {:?}", m.rates);
        assert_eq!(m.rates[1][0], 0.0);
    }

    #[test]
    fn splits_only_when_no_single_path_fits() {
        // Demand 55 Mbps at p=0.9: uniform path q(0.1)=10, strong path
        // q(0.1)=55 → strong path alone fits exactly; no split.
        let specs = vec![StreamSpec::probabilistic(0, "a", 55.0e6, 0.9, 1000)];
        let m = ResourceMapper::new(1.0).map(&specs, &[uniform_path(), strong_path()]);
        assert!(m.upcalls.is_empty());
        let used: Vec<bool> = m.rates[0].iter().map(|&r| r > 0.0).collect();
        assert_eq!(used.iter().filter(|&&u| u).count(), 1, "must not split");
    }

    #[test]
    fn splits_when_necessary() {
        // Demand 57 Mbps at p=0.9: neither path alone qualifies, but the
        // combined headroom at the split-corrected level p^(1/2) ≈ 0.949
        // (uniform path ≈ 6, strong path ≈ 52) covers it → split.
        let specs = vec![StreamSpec::probabilistic(0, "a", 57.0e6, 0.9, 1000)];
        let m = ResourceMapper::new(1.0).map(&specs, &[uniform_path(), strong_path()]);
        assert!(m.upcalls.is_empty(), "upcalls: {:?}", m.upcalls);
        let parts: u32 = m.assignments[0].iter().sum();
        assert_eq!(parts, specs[0].packets_per_window(1.0));
        assert!(m.assignments[0][0] > 0 && m.assignments[0][1] > 0);
        // Proportional to headroom: path 1 gets the lion's share.
        assert!(m.assignments[0][1] > m.assignments[0][0]);
    }

    #[test]
    fn split_uses_composition_corrected_probability() {
        // Demand 62 Mbps at p=0.9: naive per-path headroom at p = 0.9
        // (10 + 55 = 65) would admit it, but each split part must hold
        // at p^(1/2) ≈ 0.949 (headroom ≈ 6 + 52 = 58) → reject, because
        // a 2-way split of independently-0.9 parts only delivers the
        // whole ~81% of the time.
        let specs = vec![StreamSpec::probabilistic(0, "a", 62.0e6, 0.9, 1000)];
        let m = ResourceMapper::new(1.0).map(&specs, &[uniform_path(), strong_path()]);
        assert_eq!(m.upcalls.len(), 1, "{:?}", m.assignments);
    }

    #[test]
    fn rejects_with_upcall_when_infeasible() {
        let specs = vec![StreamSpec::probabilistic(0, "big", 90.0e6, 0.95, 1000)];
        let m = ResourceMapper::new(1.0).map(&specs, &[uniform_path()]);
        assert_eq!(m.upcalls.len(), 1);
        let Upcall::StreamRejected {
            stream,
            achievable_p,
            admissible_bps,
            ..
        } = &m.upcalls[0];
        assert_eq!(*stream, 0);
        assert!(*achievable_p < 0.95);
        assert!(*admissible_bps < 90.0e6);
        assert!(!m.admitted(0));
        assert_eq!(m.assignments[0][0], 0);
    }

    #[test]
    fn later_streams_see_committed_load() {
        // Two streams each needing 30 Mbps at p=0.9 on one strong path
        // (q(0.1) = 55 Mbps): the first fits, the second must be
        // rejected (30+30 = 60 > 55).
        let specs = vec![
            StreamSpec::probabilistic(0, "a", 30.0e6, 0.9, 1000),
            StreamSpec::probabilistic(1, "b", 30.0e6, 0.9, 1000),
        ];
        let m = ResourceMapper::new(1.0).map(&specs, &[strong_path()]);
        assert_eq!(m.upcalls.len(), 1);
        assert!(m.admitted(0));
        assert!(!m.admitted(1));
    }

    #[test]
    fn best_effort_streams_are_never_assigned_or_rejected() {
        let specs = vec![
            StreamSpec::best_effort(0, "bulk", 50.0e6, 1500),
            StreamSpec::probabilistic(1, "a", 5.0e6, 0.9, 1000),
        ];
        let m = ResourceMapper::new(1.0).map(&specs, &[uniform_path()]);
        assert!(m.upcalls.is_empty());
        assert!(m.assignments[0].iter().all(|&x| x == 0));
        assert!(m.admitted(0));
    }

    #[test]
    fn violation_bound_admitted_when_path_is_good() {
        let specs = vec![StreamSpec::violation_bound(0, "vb", 5.0e6, 1.0, 1000)];
        let m = ResourceMapper::new(1.0).map(&specs, &[strong_path()]);
        assert!(m.upcalls.is_empty(), "{:?}", m.upcalls);
        assert!(m.assignments[0][0] > 0);
    }

    #[test]
    fn violation_bound_rejected_on_bad_path() {
        // Path frequently below the requirement → E[Z] blows the bound.
        let bad = cdf_mbps(&[1.0, 2.0, 3.0, 4.0]);
        let specs = vec![StreamSpec::violation_bound(0, "vb", 5.0e6, 0.001, 1000)];
        let m = ResourceMapper::new(1.0).map(&specs, &[bad]);
        assert_eq!(m.upcalls.len(), 1);
    }

    #[test]
    fn effective_p_for_violation_bound() {
        let mapper = ResourceMapper::new(1.0);
        let spec = StreamSpec::violation_bound(0, "vb", 8.0e6, 10.0, 1000);
        // x = 1000 pkts, bound 10 → p = 1 − 10/1000 = 0.99.
        assert!((mapper.effective_p(&spec).unwrap() - 0.99).abs() < 1e-12);
        let be = StreamSpec::best_effort(1, "be", 0.0, 1000);
        assert_eq!(mapper.effective_p(&be), None);
    }

    #[test]
    fn largest_remainder_sums_exactly() {
        let parts = largest_remainder_split(10, &[1.0, 1.0, 1.0]);
        assert_eq!(parts.iter().sum::<u32>(), 10);
        let parts2 = largest_remainder_split(7, &[0.0, 3.0, 1.0]);
        assert_eq!(parts2.iter().sum::<u32>(), 7);
        assert_eq!(parts2[0], 0, "zero-weight path got packets");
        assert!(parts2[1] > parts2[2]);
        assert_eq!(largest_remainder_split(0, &[1.0]), vec![0]);
        assert_eq!(largest_remainder_split(5, &[0.0, 0.0]), vec![0, 0]);
    }

    #[test]
    fn affinity_pins_near_tied_choices() {
        // Both paths comfortably satisfy the stream: without affinity
        // the lowest index wins; with affinity the stream stays put.
        let specs = vec![StreamSpec::probabilistic(0, "a", 5.0e6, 0.9, 1000)];
        let cdfs = [strong_path(), strong_path()];
        let mapper = ResourceMapper::new(1.0);
        let free = mapper.map(&specs, &cdfs);
        assert!(free.rates[0][0] > 0.0, "no-affinity tie must pick path 0");
        let pinned = mapper.map_with_affinity(&specs, &cdfs, Some(&[Some(1)]));
        assert!(
            pinned.rates[0][1] > 0.0,
            "affinity must keep the stream on path 1"
        );
        // Affinity to a non-qualifying path is ignored.
        let bad = cdf_mbps(&[1.0, 2.0]);
        let cdfs2 = [strong_path(), bad];
        let fallback = mapper.map_with_affinity(&specs, &cdfs2, Some(&[Some(1)]));
        assert!(fallback.rates[0][0] > 0.0);
    }

    #[test]
    fn committed_accumulates() {
        let specs = vec![
            StreamSpec::probabilistic(0, "a", 10.0e6, 0.9, 1000),
            StreamSpec::probabilistic(1, "b", 20.0e6, 0.9, 1000),
        ];
        let m = ResourceMapper::new(1.0).map(&specs, &[strong_path(), strong_path()]);
        let total: f64 = (0..2).map(|j| m.committed(j)).sum();
        assert!((total - 30.0e6).abs() < 1e-3);
    }

    #[test]
    fn mapping_mode_names_round_trip() {
        assert_eq!(MappingMode::default(), MappingMode::Pgos);
        for mode in [MappingMode::Pgos, MappingMode::Diversity] {
            assert_eq!(MappingMode::by_name(mode.name()), Some(mode));
        }
        assert_eq!(MappingMode::by_name("fec"), None);
    }

    #[test]
    fn diversity_even_splits_with_parity_overhead() {
        let specs = vec![StreamSpec::probabilistic(0, "a", 8.0e6, 0.9, 1000)];
        let cdfs = vec![strong_path(), strong_path(), strong_path()];
        let m = DiversityMapper::new(1.0).map(&specs, &cdfs, None, None);
        assert!(m.result.upcalls.is_empty(), "{:?}", m.result.upcalls);
        assert_eq!(m.plans.len(), 1);
        assert_eq!((m.plans[0].n, m.plans[0].k), (3, 2));
        assert_eq!(m.plans[0].paths, vec![0, 1, 2]);
        // 8 Mbps data → 12 Mbps coded → 1500 packets of 8000 bits,
        // 500 per path.
        let row = &m.result.assignments[0];
        assert_eq!(row.iter().sum::<u32>(), 1500);
        assert_eq!(row.iter().copied().max(), row.iter().copied().min());
    }

    #[test]
    fn diversity_skips_best_effort_streams() {
        let specs = vec![
            StreamSpec::best_effort(0, "bulk", 50.0e6, 1500),
            StreamSpec::probabilistic(1, "a", 5.0e6, 0.9, 1000),
        ];
        let cdfs = vec![strong_path(), strong_path()];
        let m = DiversityMapper::new(1.0).map(&specs, &cdfs, None, None);
        assert_eq!(m.plans.len(), 1);
        assert_eq!(m.plans[0].stream, 1);
        assert!(m.result.assignments[0].iter().all(|&x| x == 0));
    }

    #[test]
    fn diversity_single_path_degenerates_to_null_code() {
        let specs = vec![StreamSpec::probabilistic(0, "a", 5.0e6, 0.9, 1000)];
        let m = DiversityMapper::new(1.0).map(&specs, &[strong_path()], None, None);
        assert_eq!((m.plans[0].n, m.plans[0].k), (1, 1));
        // No parity overhead for a (1, 1) group.
        assert_eq!(m.result.assignments[0][0], 625);
    }

    #[test]
    fn diversity_infeasible_raises_advisory_upcall_but_keeps_allocation() {
        // Two terrible paths: the k-of-n probability cannot reach 0.9,
        // but the stream still gets its (maximally diverse) stripe.
        let bad = || cdf_mbps(&[1.0, 2.0, 3.0]);
        let specs = vec![StreamSpec::probabilistic(0, "a", 8.0e6, 0.9, 1000)];
        let m = DiversityMapper::new(1.0).map(&specs, &[bad(), bad()], None, None);
        assert_eq!(m.result.upcalls.len(), 1);
        assert!(m.result.assignments[0].iter().sum::<u32>() > 0);
        assert!(m.plans[0].decode_probability < 0.9);
    }

    #[test]
    fn correlation_discount_lowers_decode_probability() {
        let specs = vec![StreamSpec::probabilistic(0, "a", 8.0e6, 0.9, 1000)];
        let cdfs = vec![strong_path(), strong_path(), strong_path()];
        let mapper = DiversityMapper::new(1.0);
        let independent = mapper.map(&specs, &cdfs, None, None);
        // Paths 0 and 1 share their bottleneck; path 2 is disjoint.
        let incidence = vec![vec![7u64, 8], vec![7u64, 8], vec![9u64]];
        let correlated = mapper.map(&specs, &cdfs, None, Some(&incidence));
        assert!(
            correlated.plans[0].decode_probability < independent.plans[0].decode_probability,
            "shared bottleneck must discount: {} vs {}",
            correlated.plans[0].decode_probability,
            independent.plans[0].decode_probability
        );
    }

    #[test]
    fn diversity_mapping_is_structural() {
        // The allocation must not depend on which path looks better —
        // remaps under CDF drift keep the stripe byte-identical.
        let specs = vec![StreamSpec::probabilistic(0, "a", 8.0e6, 0.9, 1000)];
        let a = DiversityMapper::new(1.0).map(&specs, &[strong_path(), uniform_path()], None, None);
        let b = DiversityMapper::new(1.0).map(&specs, &[uniform_path(), strong_path()], None, None);
        assert_eq!(a.result.assignments, b.result.assignments);
        assert_eq!(a.plans[0].paths, b.plans[0].paths);
    }
}
