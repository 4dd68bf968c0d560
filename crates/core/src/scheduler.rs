//! The PGOS runtime scheduler (§5.2.2, Figure 7).
//!
//! Per scheduling window:
//!
//! 1. `updateCDF()` — fresh monitoring snapshots arrive at
//!    [`Pgos::on_window_start`].
//! 2. If the previous scheduling vectors no longer satisfy the current
//!    CDFs (stream set change, distribution drift, or feasibility
//!    failure), re-run resource mapping and rebuild `VP` / `VS`.
//! 3. While in the window: each free path pulls its next packet via its
//!    stream scheduling vector; when a path's scheduled budget is
//!    exhausted, spare capacity serves other packets by the Table 1
//!    precedence. Blocked paths are skipped with exponential backoff
//!    ("because of the high cost of blocking, timeouts and exponential
//!    backoff are used to avoid sending multiple packets to a blocked
//!    path").

use crate::coding::StreamCoding;
use crate::fastpath::Heap4;
use crate::mapping::{DiversityMapper, MappingMode, MappingResult, ResourceMapper, Upcall};
use crate::precedence::ScheduleClass;
use crate::queues::{QueuedPacket, StreamQueues};
use crate::stream::StreamSpec;
use crate::traits::{MultipathScheduler, PathSnapshot};
use crate::vectors::{SchedulingVectors, VsCursor};
use iqpaths_stats::{BandwidthCdf, CdfSummary};
use iqpaths_trace::{DispatchClass, TraceEvent, TraceHandle};
use std::sync::Arc;

/// PGOS tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PgosConfig {
    /// Scheduling-window length in seconds (`t_w`).
    pub window_secs: f64,
    /// Kolmogorov–Smirnov distance beyond which a path's CDF counts as
    /// having "changed dramatically", triggering a remap.
    pub remap_ks_threshold: f64,
    /// Initial blocked-path backoff.
    pub backoff_initial_ns: u64,
    /// Backoff ceiling.
    pub backoff_max_ns: u64,
    /// Resource-mapping policy: classic whole-path-first PGOS (the
    /// default, bit-identical to every pre-Diversity run) or
    /// erasure-coded path diversity (DESIGN.md §15, docs/POLICIES.md).
    pub mapping_mode: MappingMode,
}

impl Default for PgosConfig {
    fn default() -> Self {
        Self {
            window_secs: 1.0,
            remap_ks_threshold: 0.2,
            backoff_initial_ns: 5_000_000, // 5 ms
            backoff_max_ns: 1_000_000_000, // 1 s
            mapping_mode: MappingMode::Pgos,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Backoff {
    until_ns: u64,
    current_ns: u64,
}

/// What the last exact KS scan of one path's `Rolling` summary against
/// its reference found. A later snapshot of the same window with the
/// same length `N` and factor, `e` edits on, holds a counting function
/// within `e / 2` samples of the scanned one everywhere (the inserts
/// equal the removes, and each moves any count by at most 1), so by
/// the triangle inequality its KS distance to the reference is at most
/// `ks + e / (2N)`. This relies on every `Rolling` summary of path `j`
/// being a snapshot of one `RollingCdf`, as the monitoring module
/// hands them out; debug builds re-check each skip.
#[derive(Debug, Clone, Copy)]
struct DriftMemo {
    ks: f64,
    edits: u64,
    len: usize,
    factor_bits: u64,
}

impl DriftMemo {
    /// Upper bound (with a `1e-9` rounding margin) on the KS distance
    /// of `cdf`, `edits` edits after the memo, to the memo's
    /// reference; `None` when the memo does not cover `cdf`.
    fn bound(&self, cdf: &CdfSummary, edits: u64) -> Option<f64> {
        let len = cdf.len();
        if len == 0 || len != self.len || cdf.factor().to_bits() != self.factor_bits {
            return None;
        }
        let e = edits.checked_sub(self.edits)?;
        Some(self.ks + e as f64 / (2 * len) as f64 + 1e-9)
    }
}

/// Index over backlogged streams replacing the fallback's per-decision
/// scan (DESIGN.md §12). Every backlogged stream has exactly one
/// *valid* entry, in the structure matching its Table 1 class:
///
/// * `behind` — scheduled budget left elsewhere **and** behind its
///   paced schedule (rule 2), keyed `(deadline, constraint, stream)`
///   exactly as `precedence::compare` orders candidates;
/// * `wheel` — scheduled budget left but still on schedule (rule 2 does
///   not apply *yet*), keyed by the exact first instant the
///   behind-schedule predicate will flip, so promotion needs no scan;
/// * `unsched` — no scheduled budget (rule 3), keyed `(constraint,
///   stream)`; the deadline component is omitted because queued
///   packets always carry `deadline_ns == u64::MAX` (see `queues.rs`).
///
/// Entries are invalidated lazily: `stamp[s]` bumps whenever stream
/// `s`'s classification inputs change, and stale entries are discarded
/// when they surface at a heap top. Constraint ratios are mapped to
/// `!ratio.to_bits()` — monotone-decreasing for the non-negative
/// finite ratios `WindowConstraint::ratio` produces — so "higher
/// constraint wins ties" becomes an ascending integer compare.
#[derive(Debug, Clone, Default)]
struct FallbackIndex {
    /// Rebuild everything at the next decision (set at window start and
    /// stream-set changes, where the trait gives no queue access).
    dirty: bool,
    /// Per-stream entry generation; a heap entry is valid iff its stamp
    /// matches.
    stamp: Vec<u64>,
    /// Σ over all paths of the cursor budget left for each stream.
    /// When the current path's cursor has just returned `None`, this
    /// equals the fallback's "budget on *other* paths" (the current
    /// path's share is provably zero for every backlogged stream).
    sched_remaining: Vec<u32>,
    /// `!window_constraint(tw).ratio().to_bits()` per stream.
    cons_key: Vec<u64>,
    /// Per path: uncoded streams with cursor budget left on it and a
    /// non-empty queue — the O(1) half of the rule-1 gate (coded
    /// streams are checked directly, see [`Pgos::rule1_pick`]).
    eligible: Vec<u32>,
    /// Per stream: whether it is counted in `eligible` (uncoded and
    /// backlogged at its last touch). Makes touches idempotent, since
    /// the wake journal may list a stream twice.
    counted: Vec<bool>,
    wheel: Heap4<u64>,
    behind: Heap4<(u64, u64, u32)>,
    unsched: Heap4<(u64, u32)>,
}

/// The Predictive Guarantee Overlay Scheduler.
#[derive(Debug, Clone)]
pub struct Pgos {
    cfg: PgosConfig,
    specs: Vec<StreamSpec>,
    mapper: ResourceMapper,
    paths: usize,
    mapping: Option<MappingResult>,
    vectors: Option<SchedulingVectors>,
    /// Per-path cursor over `VS[j]`, rebuilt each window.
    cursors: Vec<VsCursor>,
    /// Distribution summaries the current mapping was computed against.
    reference_cdfs: Vec<CdfSummary>,
    /// Latest measured per-path loss rates.
    path_loss: Vec<f64>,
    window_start_ns: u64,
    window_ns: u64,
    /// Scheduled packets sent per stream this window (for deadline
    /// stamping).
    window_sent: Vec<u32>,
    backoff: Vec<Backoff>,
    upcalls: Vec<Upcall>,
    remaps: u64,
    /// Decision-event emission handle (null unless a traced run
    /// installed one; see [`MultipathScheduler::set_trace`]).
    trace: TraceHandle,
    /// Zero-alloc fallback index (see [`FallbackIndex`]).
    fp: FallbackIndex,
    /// Window-start scratch: per-path CDF summaries (reused across
    /// windows so the per-window snapshot refresh allocates nothing
    /// once at capacity; emptied after each window start so it pins
    /// no path's samples between windows).
    cdf_scratch: Vec<CdfSummary>,
    /// Remap scratch: previous-placement affinity vector.
    affinity_scratch: Vec<Option<usize>>,
    /// Window-start scratch: per-path committed load for the standing
    /// feasibility re-check.
    feasible_scratch: Vec<f64>,
    /// Per-stream erasure-coding plans (`Diversity` mode; empty under
    /// classic PGOS). A coded stream's packets are lane-striped —
    /// rule 1 pops only from the serving path's lanes, and the stream
    /// is excluded from the rule 2/3 fallback so no other path can
    /// steal a block off its pinned lane (stealing would re-randomize
    /// the block→path placement that makes ≥k-of-n survive a path
    /// failure).
    coding_plans: Vec<Option<StreamCoding>>,
    /// Per path: the coded streams holding budget on it, built once by
    /// `plan_coding` (plans are fixed for the run). Rule 1's gate
    /// checks these directly because lane transitions are not
    /// journaled.
    coded_on_path: Vec<Vec<usize>>,
    /// Per path: the last exact KS scan against `reference_cdfs`, for
    /// `Rolling` summaries only (cleared whenever the references are).
    drift_memo: Vec<Option<DriftMemo>>,
    /// Debug-only scratch for the scan-based fallback cross-check.
    #[cfg(debug_assertions)]
    debug_candidates: Vec<crate::precedence::Candidate>,
}

impl Pgos {
    /// A PGOS instance scheduling `specs` over `paths` overlay paths.
    ///
    /// # Panics
    /// Panics if `paths == 0` or the spec indices are not `0..n`.
    pub fn new(cfg: PgosConfig, specs: Vec<StreamSpec>, paths: usize) -> Self {
        assert!(paths > 0, "need at least one path");
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.index, i, "stream specs must be indexed densely");
        }
        let n = specs.len();
        Self {
            mapper: ResourceMapper::new(cfg.window_secs),
            cfg,
            specs,
            paths,
            mapping: None,
            vectors: None,
            cursors: Vec::new(),
            reference_cdfs: Vec::new(),
            window_start_ns: 0,
            window_ns: 0,
            path_loss: vec![0.0; paths],
            window_sent: vec![0; n],
            backoff: vec![Backoff::default(); paths],
            upcalls: Vec::new(),
            remaps: 0,
            trace: TraceHandle::null(),
            fp: FallbackIndex {
                dirty: true,
                ..FallbackIndex::default()
            },
            cdf_scratch: Vec::new(),
            affinity_scratch: Vec::new(),
            feasible_scratch: Vec::new(),
            coding_plans: Vec::new(),
            coded_on_path: Vec::new(),
            drift_memo: Vec::new(),
            #[cfg(debug_assertions)]
            debug_candidates: Vec::new(),
        }
    }

    /// Absolute time (ns) until which `path` is backed off, or 0 if it
    /// was never blocked. Exposed so fault-injection tests can assert
    /// the exact exponential-backoff retry timestamps.
    pub fn backoff_until(&self, path: usize) -> u64 {
        self.backoff[path].until_ns
    }

    /// Current exponential-backoff step (ns) for `path`: 0 before the
    /// first block, then 5 ms doubling up to the 1 s ceiling.
    pub fn backoff_step(&self, path: usize) -> u64 {
        self.backoff[path].current_ns
    }

    /// Number of resource-mapping runs so far (ablation metric).
    pub fn remap_count(&self) -> u64 {
        self.remaps
    }

    /// Registers a stream that joins mid-run. Resource mapping re-runs
    /// at the next window boundary ("the resource mapping step is
    /// executed when a new stream joins"). Returns the stream's index.
    ///
    /// # Panics
    /// Panics if the spec's index is not the next dense index.
    pub fn add_stream(&mut self, spec: StreamSpec) -> usize {
        assert_eq!(
            self.cfg.mapping_mode,
            MappingMode::Pgos,
            "Diversity fixes its coded mapping at admission; mid-run stream joins are unsupported"
        );
        let idx = self.specs.len();
        assert_eq!(spec.index, idx, "stream specs must stay densely indexed");
        self.specs.push(spec);
        self.window_sent.push(0);
        // Invalidate the standing mapping; the next on_window_start
        // remaps with the new stream table.
        self.mapping = None;
        self.vectors = None;
        self.cursors.clear();
        self.fp.dirty = true;
        idx
    }

    /// Terminates a stream. Its index stays valid (queues and reports
    /// are index-aligned) but it is demoted to a zero-rate best-effort
    /// tombstone, and its committed bandwidth is released at the next
    /// window boundary's remap.
    ///
    /// # Panics
    /// Panics on an out-of-range stream.
    pub fn terminate_stream(&mut self, stream: usize) {
        assert_eq!(
            self.cfg.mapping_mode,
            MappingMode::Pgos,
            "Diversity fixes its coded mapping at admission; mid-run termination is unsupported"
        );
        let old = &self.specs[stream];
        let tombstone = StreamSpec::best_effort(
            stream,
            format!("{} (terminated)", old.name),
            0.0,
            old.packet_bytes,
        );
        self.specs[stream] = tombstone;
        self.mapping = None;
        self.vectors = None;
        self.cursors.clear();
        self.fp.dirty = true;
    }

    /// The current packet assignment matrix, if mapped.
    pub fn mapping(&self) -> Option<&MappingResult> {
        self.mapping.as_ref()
    }

    fn needs_remap(&mut self, cdfs: &[CdfSummary]) -> bool {
        let Some(mapping) = &self.mapping else {
            return true;
        };
        // A previously rejected stream deserves a retry whenever new
        // monitoring data arrives.
        if !mapping.upcalls.is_empty() {
            return true;
        }
        if self.reference_cdfs.len() != cdfs.len() {
            return true;
        }
        // Distribution drift beyond the KS threshold. A `Rolling` path
        // whose drift memo proves it stays below the threshold is not
        // rescanned: it could not have been the first exceeding path.
        let threshold = self.cfg.remap_ks_threshold;
        for (j, (r, c)) in self.reference_cdfs.iter().zip(cdfs).enumerate() {
            let Some(edits) = c.edits() else {
                if r.ks_distance(c) > threshold {
                    return true;
                }
                continue;
            };
            let memo = &mut self.drift_memo[j];
            if let Some(bound) = memo.and_then(|m| m.bound(c, edits)) {
                if bound <= threshold {
                    // `bound <= threshold`, so this also pins the skipped
                    // path below the threshold.
                    #[cfg(debug_assertions)]
                    {
                        let ks = r.ks_distance(c);
                        assert!(
                            ks <= bound,
                            "drift memo skipped path {j} with KS {ks} (bound {bound}, threshold {threshold})"
                        );
                    }
                    continue;
                }
            }
            let ks = r.ks_distance(c);
            *memo = Some(DriftMemo {
                ks,
                edits,
                len: c.len(),
                factor_bits: c.factor().to_bits(),
            });
            if ks > threshold {
                return true;
            }
        }
        // A stream with a loss objective sitting on a now-too-lossy path
        // must be re-placed.
        for (i, spec) in self.specs.iter().enumerate() {
            if let Some(bound) = spec.max_loss {
                for (j, &loss) in self.path_loss.iter().enumerate() {
                    if mapping.rates[i][j] > 0.0 && loss > bound {
                        return true;
                    }
                }
            }
        }
        // Feasibility of the standing mapping under the fresh CDFs,
        // with the committed-load scratch reused across windows.
        !crate::guarantee::mapping_is_feasible_with(
            cdfs,
            &self.specs,
            &mapping.rates,
            self.cfg.window_secs,
            &mut self.feasible_scratch,
        )
    }

    fn remap(&mut self, cdfs: &[CdfSummary]) {
        // Keep streams on their previous paths across near-tied remaps.
        // The affinity vector is a reusable scratch buffer.
        let mut affinity = std::mem::take(&mut self.affinity_scratch);
        affinity.clear();
        match &self.mapping {
            None => affinity.extend((0..self.specs.len()).map(|_| None)),
            Some(m) => affinity.extend(m.rates.iter().map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|(_, r)| **r > 0.0)
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite rates"))
                    .map(|(j, _)| j)
            })),
        };
        let mapping =
            self.mapper
                .map_full(&self.specs, cdfs, Some(&affinity), Some(&self.path_loss));
        self.affinity_scratch = affinity;
        self.upcalls.extend(mapping.upcalls.iter().cloned());
        // One assignment matrix, shared between the mapping result and
        // the vector view (it was deep-cloned here before).
        self.vectors = Some(SchedulingVectors::build_shared(Arc::clone(
            &mapping.assignments,
        )));
        self.mapping = Some(mapping);
        self.set_references(cdfs.iter().cloned());
        self.remaps += 1;
    }

    /// Installs the summaries a fresh mapping was computed against;
    /// every drift memo was measured against the old ones.
    fn set_references(&mut self, cdfs: impl IntoIterator<Item = CdfSummary>) {
        self.reference_cdfs.clear();
        self.reference_cdfs.extend(cdfs);
        self.drift_memo.clear();
        self.drift_memo.resize(self.reference_cdfs.len(), None);
    }

    fn rebuild_cursors(&mut self) {
        let Some(vectors) = self.vectors.take() else {
            self.cursors.clear();
            return;
        };
        // Re-arm standing cursors in place: the `VS[j]` vectors are
        // shared via `Arc` and the budget buffers refill at capacity,
        // so steady-state windows rebuild without allocating.
        if self.cursors.len() != self.paths {
            self.cursors.clear();
            self.cursors
                .extend((0..self.paths).map(|_| VsCursor::new(Vec::new(), Vec::new())));
        }
        let streams = self.specs.len();
        for (j, cursor) in self.cursors.iter_mut().enumerate() {
            let assignments = &vectors.assignments;
            cursor.reset_with(&vectors.vs[j], streams, |i| assignments[i][j]);
        }
        self.vectors = Some(vectors);
    }

    /// Total scheduled packets of `stream` per window across all paths.
    fn scheduled_total(&self, stream: usize) -> u32 {
        self.vectors
            .as_ref()
            .map_or(0, |v| v.packets_of_stream(stream))
    }

    /// Deadline for the next scheduled packet of `stream` this window:
    /// the `k`-th of `x` scheduled packets is due at
    /// `window_start + k/x · t_w`.
    fn stamp_deadline(&mut self, stream: usize) -> u64 {
        let x = self.scheduled_total(stream).max(1);
        let k = (self.window_sent[stream] + 1).min(x);
        self.window_sent[stream] += 1;
        self.window_start_ns + (self.window_ns as f64 * k as f64 / x as f64) as u64
    }

    /// Serves one packet of `stream`, stamping its deadline.
    fn pop_scheduled(&mut self, stream: usize, queues: &mut StreamQueues) -> Option<QueuedPacket> {
        let mut pkt = queues.pop(stream)?;
        pkt.deadline_ns = self.stamp_deadline(stream);
        Some(pkt)
    }

    /// Whether `stream` runs under an erasure-coding plan (always false
    /// under classic PGOS, whose plan table stays empty).
    fn is_coded(&self, stream: usize) -> bool {
        self.coding_plans.get(stream).is_some_and(Option::is_some)
    }

    /// The coding plan of `stream`, if any (test/inspection accessor).
    pub fn coding_plan(&self, stream: usize) -> Option<&StreamCoding> {
        self.coding_plans.get(stream).and_then(Option::as_ref)
    }

    /// Rule-1 service of `stream` on `path`: a coded stream pops the
    /// globally-oldest block among its lanes pinned to `path` (lane
    /// striping keeps each block on its planned path); an uncoded
    /// stream pops its plain FIFO head. Falls back to the FIFO head
    /// when the queue was never lane-striped (harnesses that drive the
    /// scheduler without the runtime's `set_lanes` setup).
    fn pop_scheduled_on_path(
        &mut self,
        stream: usize,
        path: usize,
        queues: &mut StreamQueues,
    ) -> Option<QueuedPacket> {
        let lane = match self.coding_plans.get(stream).and_then(Option::as_ref) {
            Some(plan) if queues.lanes(stream) == plan.n => {
                let mut best: Option<(u64, usize)> = None;
                for l in 0..plan.n {
                    if plan.lane_path(l) != path {
                        continue;
                    }
                    if let Some(h) = queues.lane_head(stream, l) {
                        if best.is_none_or(|(seq, _)| h.seq < seq) {
                            best = Some((h.seq, l));
                        }
                    }
                }
                best.map(|(_, l)| l)
            }
            _ => None,
        };
        let mut pkt = match lane {
            Some(l) => queues.pop_lane(stream, l)?,
            None => queues.pop(stream)?,
        };
        pkt.deadline_ns = self.stamp_deadline(stream);
        Some(pkt)
    }

    /// Whether stream `s` is behind its paced schedule at `now`: fewer
    /// packets sent than the elapsed window fraction implies (with a
    /// 10% grace). Rule 2 of Table 1 exists to rescue *lagging* paths —
    /// an on-schedule stream's packets wait for their owning path, or
    /// splitting would reorder streams that mapping deliberately kept
    /// whole.
    fn behind_schedule(&self, s: usize, now_ns: u64) -> bool {
        let x = self.scheduled_total(s);
        if x == 0 || self.window_ns == 0 {
            return false;
        }
        let frac = (now_ns.saturating_sub(self.window_start_ns)) as f64 / self.window_ns as f64;
        let expected = frac * x as f64;
        let slack = (x as f64 / 10.0).max(1.0);
        (self.window_sent[s] as f64) + slack < expected
    }

    /// The Table 1 deadline used to *rank* a rule-2 candidate: the same
    /// formula as [`Pgos::stamp_deadline`] without the send-count side
    /// effect.
    fn candidate_deadline(&self, s: usize) -> u64 {
        let x = self.scheduled_total(s).max(1);
        let k = (self.window_sent[s] + 1).min(x);
        self.window_start_ns + (self.window_ns as f64 * k as f64 / x as f64) as u64
    }

    /// Exact first instant at which [`Pgos::behind_schedule`] flips to
    /// `true` for `s` given its current sent count (`u64::MAX` when it
    /// never can, e.g. a zero-length window). The predicate is weakly
    /// monotone in time for a fixed sent count — serving a packet is
    /// the only thing that un-behinds a stream, and that re-files it —
    /// so an exponential probe plus a binary search on the *exact*
    /// predicate yields the precise flip point; the wheel is therefore
    /// not a heuristic, it promotes streams at the same instant the
    /// old per-decision scan would have reclassified them.
    fn behind_threshold(&self, s: usize) -> u64 {
        let x = self.scheduled_total(s);
        if x == 0 || self.window_ns == 0 {
            return u64::MAX;
        }
        let ws = self.window_start_ns;
        // behind(ws) is always false: slack >= 1 > 0 = expected.
        let mut hi: u64 = 1;
        loop {
            let t = ws.saturating_add(hi);
            if self.behind_schedule(s, t) {
                break;
            }
            if t == u64::MAX {
                return u64::MAX;
            }
            hi = hi.saturating_mul(2);
        }
        let mut lo = if hi == 1 {
            ws
        } else {
            ws.saturating_add(hi / 2)
        }; // behind(lo) == false
        let mut hi_t = ws.saturating_add(hi); // behind(hi_t) == true
        while hi_t - lo > 1 {
            let mid = lo + (hi_t - lo) / 2;
            if self.behind_schedule(s, mid) {
                hi_t = mid;
            } else {
                lo = mid;
            }
        }
        hi_t
    }

    /// (Re)files `stream` in the fallback index under its current
    /// classification, invalidating any standing entry. Must be called
    /// after every event that changes the stream's backlog, budget, or
    /// sent count. Relies on decision times being non-decreasing within
    /// a window (they are: the runtime clock is monotone), since a
    /// stream classified behind-schedule stays behind until served.
    fn index_touch(&mut self, stream: usize, now_ns: u64, backlogged: bool) {
        self.fp.stamp[stream] += 1;
        // Coded streams never enter the fallback: their blocks are
        // lane-pinned (rule 1 only), so filing them would let rules
        // 2/3 scramble the block→path placement.
        if self.is_coded(stream) {
            return;
        }
        self.count_eligible(stream, backlogged);
        if !backlogged {
            return;
        }
        let stamp = self.fp.stamp[stream];
        if self.fp.sched_remaining[stream] > 0 {
            if self.behind_schedule(stream, now_ns) {
                let d = self.candidate_deadline(stream);
                let ck = self.fp.cons_key[stream];
                self.fp
                    .behind
                    .push((d, ck, stream as u32), stream as u32, stamp);
            } else {
                let t = self.behind_threshold(stream);
                self.fp.wheel.push(t, stream as u32, stamp);
            }
        } else {
            let ck = self.fp.cons_key[stream];
            self.fp
                .unsched
                .push((ck, stream as u32), stream as u32, stamp);
        }
    }

    /// Moves uncoded `stream` into (`backlogged`) or out of the rule-1
    /// `eligible` count of every path it holds budget on. A stream with
    /// no budget left anywhere touches no path.
    fn count_eligible(&mut self, stream: usize, backlogged: bool) {
        if self.fp.counted[stream] == backlogged {
            return;
        }
        self.fp.counted[stream] = backlogged;
        if self.fp.sched_remaining[stream] == 0 {
            return;
        }
        for (j, cursor) in self.cursors.iter().enumerate() {
            if cursor.remaining(stream) > 0 {
                if backlogged {
                    self.fp.eligible[j] += 1;
                } else {
                    self.fp.eligible[j] -= 1;
                }
            }
        }
    }

    /// Books one unit of `stream`'s budget on `path` as spent (the
    /// cursor has already decremented it): once the path's share is
    /// gone, the stream stops counting toward that path's gate.
    fn charge_budget(&mut self, stream: usize, path: usize) {
        self.fp.sched_remaining[stream] -= 1;
        if self.fp.counted[stream] && self.cursors[path].remaining(stream) == 0 {
            self.fp.eligible[path] -= 1;
        }
    }

    /// Full index rebuild, run lazily at the first decision after a
    /// window start or stream-set change (the trait's window hook has
    /// no access to the queues). Also turns on the queues' wake
    /// journal, which keeps the index complete between rebuilds.
    fn index_rebuild(&mut self, now_ns: u64, queues: &mut StreamQueues) {
        queues.set_wake_logging(true);
        while queues.pop_wake().is_some() {} // subsumed by the full scan
        let n = self.specs.len();
        let tw = self.cfg.window_secs;
        self.fp.dirty = false;
        self.fp.stamp.resize(n, 0);
        self.fp.sched_remaining.clear();
        self.fp.sched_remaining.resize(n, 0);
        self.fp.wheel.clear();
        self.fp.behind.clear();
        self.fp.unsched.clear();
        self.fp.eligible.clear();
        self.fp.eligible.resize(self.paths, 0);
        self.fp.counted.clear();
        self.fp.counted.resize(n, false);
        for cursor in &self.cursors {
            for s in 0..n {
                self.fp.sched_remaining[s] += cursor.remaining(s);
            }
        }
        self.fp.cons_key.clear();
        for s in 0..n {
            self.fp
                .cons_key
                .push(!self.specs[s].window_constraint(tw).ratio().to_bits());
        }
        for s in 0..n {
            if queues.len(s) > 0 {
                self.index_touch(s, now_ns, true);
            }
        }
    }

    /// Index sync at the top of every decision: full rebuild when
    /// dirty, otherwise drain the queues' empty→backlogged wake
    /// journal.
    fn index_sync(&mut self, now_ns: u64, queues: &mut StreamQueues) {
        if self.fp.dirty {
            self.index_rebuild(now_ns, queues);
            return;
        }
        while let Some(s) = queues.pop_wake() {
            if queues.len(s) > 0 {
                self.index_touch(s, now_ns, true);
            }
        }
    }

    /// The pre-index fallback winner, recomputed by scanning every
    /// backlogged stream exactly as the old implementation did. Debug
    /// builds (which is what `cargo test` runs, golden traces and the
    /// conformance matrix included) assert the index agrees on every
    /// single fallback decision.
    #[cfg(debug_assertions)]
    fn debug_scan_winner(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &StreamQueues,
    ) -> Option<(usize, ScheduleClass, u64)> {
        use crate::precedence::{self, Candidate};
        let tw = self.cfg.window_secs;
        let mut candidates = std::mem::take(&mut self.debug_candidates);
        candidates.clear();
        for s in queues.backlogged() {
            if self.is_coded(s) {
                continue; // lane-pinned: rule 1 only (see index_touch)
            }
            let head = queues.head(s).expect("backlogged stream has a head");
            let other_budget: u32 = self
                .cursors
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != path)
                .map(|(_, c)| c.remaining(s))
                .sum();
            if other_budget > 0 && !self.behind_schedule(s, now_ns) {
                continue;
            }
            let class = if other_budget > 0 {
                ScheduleClass::OtherPath
            } else {
                ScheduleClass::Unscheduled
            };
            let deadline_ns = if class == ScheduleClass::OtherPath {
                self.candidate_deadline(s)
            } else {
                head.deadline_ns
            };
            candidates.push(Candidate {
                stream: s,
                class,
                deadline_ns,
                constraint: self.specs[s].window_constraint(tw).ratio(),
            });
        }
        let winner = precedence::best(&candidates).map(|w| (w.stream, w.class, w.deadline_ns));
        self.debug_candidates = candidates;
        winner
    }

    /// Table 1 fallback when the current path has no scheduled budget
    /// left: prefer packets scheduled on other (still-budgeted) paths
    /// *that are behind schedule*, then unscheduled packets, EDF within
    /// class, window-constraint on ties. Winner selection is O(log n)
    /// against the [`FallbackIndex`] instead of a scan over all
    /// backlogged streams.
    fn pop_fallback(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
    ) -> Option<QueuedPacket> {
        #[cfg(debug_assertions)]
        let expected = self.debug_scan_winner(path, now_ns, queues);
        // Promote every stream whose behind-schedule instant has passed
        // from the wheel into the rule-2 heap.
        while let Some(top) = self.fp.wheel.peek() {
            if top.key > now_ns {
                break;
            }
            let e = self.fp.wheel.pop().expect("peeked");
            let s = e.stream as usize;
            if e.stamp != self.fp.stamp[s] || queues.len(s) == 0 {
                continue; // stale
            }
            let d = self.candidate_deadline(s);
            let ck = self.fp.cons_key[s];
            self.fp.behind.push((d, ck, e.stream), e.stream, e.stamp);
        }
        // Winner: any rule-2 candidate outranks every rule-3 one; the
        // heap keys mirror `precedence::compare` within each class.
        let mut winner: Option<(usize, ScheduleClass, u64)> = None;
        while let Some(top) = self.fp.behind.peek() {
            let s = top.stream as usize;
            if top.stamp == self.fp.stamp[s] && queues.len(s) > 0 {
                let e = self.fp.behind.pop().expect("peeked");
                winner = Some((s, ScheduleClass::OtherPath, e.key.0));
                break;
            }
            self.fp.behind.pop();
        }
        if winner.is_none() {
            while let Some(top) = self.fp.unsched.peek() {
                let s = top.stream as usize;
                if top.stamp == self.fp.stamp[s] && queues.len(s) > 0 {
                    self.fp.unsched.pop();
                    // Queued packets always carry a u64::MAX deadline.
                    winner = Some((s, ScheduleClass::Unscheduled, u64::MAX));
                    break;
                }
                self.fp.unsched.pop();
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            winner, expected,
            "fallback index diverged from the reference scan (path {path}, now {now_ns})"
        );
        let (stream, class, deadline) = winner?;
        // Table 1 evidence for trace invariants: the heap top *is* the
        // class minimum, and a rule-3 winner proves no rule-2 candidate
        // existed (it would have outranked it).
        let decision = if self.trace.enabled() {
            let dispatch_class = match class {
                ScheduleClass::CurrentPath | ScheduleClass::OtherPath => DispatchClass::OtherPath,
                ScheduleClass::Unscheduled => DispatchClass::Unscheduled,
            };
            let other_present = class == ScheduleClass::OtherPath;
            Some((dispatch_class, deadline, deadline, other_present))
        } else {
            None
        };
        let popped = match class {
            ScheduleClass::OtherPath => {
                // Steal the budget from the other path holding the most
                // (ties: the highest-indexed path, as the old
                // `max_by_key` returned the last maximum).
                let mut victim: Option<usize> = None;
                let mut victim_remaining = 0u32;
                for (j, c) in self.cursors.iter().enumerate() {
                    let r = c.remaining(stream);
                    if j != path && r > 0 && r >= victim_remaining {
                        victim_remaining = r;
                        victim = Some(j);
                    }
                }
                if let Some(j) = victim {
                    let _ = self.cursors[j].next_scheduled(|s| s == stream);
                    self.charge_budget(stream, j);
                }
                self.pop_scheduled(stream, queues)
            }
            _ => {
                let mut pkt = queues.pop(stream)?;
                // Unscheduled packets keep (or get) a best-effort
                // deadline; guaranteed streams' overflow packets inherit
                // an end-of-window deadline so they still sort ahead of
                // pure best-effort traffic.
                if !self.specs[stream].guarantee.is_best_effort() {
                    pkt.deadline_ns = self.window_start_ns + self.window_ns;
                }
                Some(pkt)
            }
        };
        self.index_touch(stream, now_ns, queues.len(stream) > 0);
        if let (Some(pkt), Some((dispatch_class, deadline, class_min, other_present))) =
            (&popped, decision)
        {
            self.trace.emit(TraceEvent::DispatchDecision {
                at_ns: now_ns,
                path: path as u32,
                stream: stream as u32,
                seq: pkt.seq,
                class: dispatch_class,
                candidate_deadline_ns: deadline,
                class_min_deadline_ns: class_min,
                other_scheduled_present: other_present,
            });
        }
        popped
    }

    /// Table 1 rule 1 on `path`: the next stream in `VS[path]` with
    /// budget left on it and a packet this path may serve, its budget
    /// charged. A coded stream qualifies only when one of its lanes
    /// pinned to this path is backlogged (other lanes belong to other
    /// paths); uncoded streams keep the plain backlog test.
    ///
    /// The cursor walks only when the O(1) gate is open: some uncoded
    /// stream is counted in `eligible[path]`, or some coded stream on
    /// the path qualifies. A closed gate means the walk would lap
    /// `VS[path]` without a hit and stop where it started, so skipping
    /// it is exact.
    fn rule1_pick(&mut self, path: usize, queues: &StreamQueues) -> Option<usize> {
        let cursor = self.cursors.get_mut(path)?;
        let plans = &self.coding_plans;
        let eligible = |s: usize| match plans.get(s).and_then(Option::as_ref) {
            Some(plan) if queues.lanes(s) == plan.n => {
                (0..plan.n).any(|l| plan.lane_path(l) == path && queues.lane_backlogged(s, l))
            }
            _ => queues.len(s) > 0,
        };
        let open = self.fp.eligible[path] > 0
            || self.coded_on_path.get(path).is_some_and(|coded| {
                coded
                    .iter()
                    .any(|&s| cursor.remaining(s) > 0 && eligible(s))
            });
        if !open {
            #[cfg(debug_assertions)]
            for s in 0..self.specs.len() {
                assert!(
                    cursor.remaining(s) == 0 || !eligible(s),
                    "rule-1 gate closed on path {path} while stream {s} is eligible"
                );
            }
            return None;
        }
        let stream = cursor.next_scheduled(eligible);
        debug_assert!(
            stream.is_some(),
            "rule-1 gate open on path {path} with no eligible stream"
        );
        let stream = stream?;
        self.charge_budget(stream, path);
        Some(stream)
    }

    /// One Table 1 decision with the index already synced (the shared
    /// tail of [`MultipathScheduler::next_packet`] and
    /// [`MultipathScheduler::next_batch`]).
    fn decide(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
    ) -> Option<QueuedPacket> {
        // 1. The path's own scheduled packets (Table 1 rule 1).
        if let Some(stream) = self.rule1_pick(path, queues) {
            let pkt = self.pop_scheduled_on_path(stream, path, queues);
            self.index_touch(stream, now_ns, queues.len(stream) > 0);
            if let Some(p) = &pkt {
                if self.trace.enabled() {
                    self.trace.emit(TraceEvent::DispatchDecision {
                        at_ns: now_ns,
                        path: path as u32,
                        stream: stream as u32,
                        seq: p.seq,
                        class: DispatchClass::Scheduled,
                        candidate_deadline_ns: p.deadline_ns,
                        class_min_deadline_ns: p.deadline_ns,
                        other_scheduled_present: false,
                    });
                }
            }
            return pkt;
        }
        // 2./3. Spare capacity: other-path and unscheduled packets.
        self.pop_fallback(path, now_ns, queues)
    }
}

impl MultipathScheduler for Pgos {
    fn name(&self) -> &str {
        "PGOS"
    }

    fn specs(&self) -> &[StreamSpec] {
        &self.specs
    }

    fn on_window_start(&mut self, window_start_ns: u64, window_ns: u64, paths: &[PathSnapshot]) {
        assert_eq!(paths.len(), self.paths, "path count changed mid-run");
        self.window_start_ns = window_start_ns;
        self.window_ns = window_ns;
        self.path_loss.clear();
        self.path_loss.extend(paths.iter().map(|p| p.loss));
        // Amortized snapshot refresh: cheap summary clones (they share
        // their backing structure) into a buffer reused across windows.
        let mut cdfs = std::mem::take(&mut self.cdf_scratch);
        cdfs.clear();
        cdfs.extend(paths.iter().map(|p| p.cdf.clone()));
        // Diversity's mapping is structural (even-split over the path
        // set, installed once by `plan_coding`) and deliberately never
        // remaps: a remap would re-stripe lanes mid-group and scramble
        // the block→path placement decode correctness depends on.
        let remapped = if self.cfg.mapping_mode == MappingMode::Diversity {
            false
        } else {
            let r = self.needs_remap(&cdfs);
            if r {
                self.remap(&cdfs);
            }
            r
        };
        cdfs.clear();
        self.cdf_scratch = cdfs;
        if self.trace.enabled() {
            self.trace.emit(TraceEvent::WindowStart {
                at_ns: window_start_ns,
                window_ns,
                remapped,
            });
            for p in paths {
                self.trace.emit(TraceEvent::CdfSnapshot {
                    path: p.index as u32,
                    at_ns: window_start_ns,
                    samples: p.cdf.len() as u32,
                    mean_bps: p.cdf.mean(),
                    q10_bps: p.cdf.quantile(0.1).unwrap_or(0.0),
                    q90_bps: p.cdf.quantile(0.9).unwrap_or(0.0),
                });
            }
            if remapped {
                if let Some(m) = &self.mapping {
                    m.emit_trace(&self.trace, window_start_ns);
                }
            }
        }
        self.rebuild_cursors();
        self.window_sent.iter_mut().for_each(|c| *c = 0);
        // Budgets, thresholds and deadlines all changed: rebuild the
        // fallback index at the first decision of the window (the
        // queues are not reachable from this hook).
        self.fp.dirty = true;
        // A new window clears expired backoffs back to the initial step.
        let trace = self.trace.clone();
        for (j, b) in self.backoff.iter_mut().enumerate() {
            if b.until_ns <= window_start_ns && b.current_ns != 0 {
                b.current_ns = 0;
                trace.emit(TraceEvent::BackoffReset {
                    at_ns: window_start_ns,
                    path: j as u32,
                });
            }
        }
    }

    fn next_packet(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
    ) -> Option<QueuedPacket> {
        if self.backoff[path].until_ns > now_ns {
            return None;
        }
        self.index_sync(now_ns, queues);
        self.decide(path, now_ns, queues)
    }

    fn next_batch(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
        max: usize,
        out: &mut Vec<QueuedPacket>,
    ) -> usize {
        // Batched dispatch: hoist the backoff gate and index sync out
        // of the loop. Exact, because decisions never push packets, so
        // the wake journal cannot gain entries mid-batch.
        if self.backoff[path].until_ns > now_ns {
            return 0;
        }
        self.index_sync(now_ns, queues);
        let mut served = 0;
        while served < max {
            match self.decide(path, now_ns, queues) {
                Some(pkt) => {
                    out.push(pkt);
                    served += 1;
                }
                None => break,
            }
        }
        served
    }

    fn on_path_blocked(&mut self, path: usize, now_ns: u64) {
        let b = &mut self.backoff[path];
        b.current_ns = if b.current_ns == 0 {
            self.cfg.backoff_initial_ns
        } else {
            (b.current_ns * 2).min(self.cfg.backoff_max_ns)
        };
        b.until_ns = now_ns + b.current_ns;
        let (step_ns, until_ns) = (b.current_ns, b.until_ns);
        self.trace.emit(TraceEvent::BackoffStep {
            at_ns: now_ns,
            path: path as u32,
            step_ns,
            until_ns,
        });
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn drain_upcalls(&mut self) -> Vec<Upcall> {
        std::mem::take(&mut self.upcalls)
    }

    fn plan_coding(
        &mut self,
        snapshots: &[PathSnapshot],
        incidence: &[Vec<u64>],
        now_ns: u64,
    ) -> Vec<StreamCoding> {
        if self.cfg.mapping_mode != MappingMode::Diversity {
            return Vec::new();
        }
        assert_eq!(snapshots.len(), self.paths, "snapshot per path expected");
        let cdfs: Vec<CdfSummary> = snapshots.iter().map(|p| p.cdf.clone()).collect();
        self.path_loss.clear();
        self.path_loss.extend(snapshots.iter().map(|p| p.loss));
        let mapper = DiversityMapper::new(self.cfg.window_secs);
        let incidence = (!incidence.is_empty()).then_some(incidence);
        let dm = mapper.map(&self.specs, &cdfs, Some(&self.path_loss), incidence);
        self.upcalls.extend(dm.result.upcalls.iter().cloned());
        self.vectors = Some(SchedulingVectors::build_shared(Arc::clone(
            &dm.result.assignments,
        )));
        if self.trace.enabled() {
            dm.result.emit_trace(&self.trace, now_ns);
        }
        self.mapping = Some(dm.result);
        self.set_references(cdfs);
        self.remaps += 1;
        self.coding_plans.clear();
        self.coding_plans.resize(self.specs.len(), None);
        self.coded_on_path.clear();
        self.coded_on_path.resize(self.paths, Vec::new());
        let assignments = &self.mapping.as_ref().expect("installed above").assignments;
        for plan in &dm.plans {
            if plan.n > 1 {
                self.coding_plans[plan.stream] = Some(plan.clone());
                let row = &assignments[plan.stream];
                for (j, coded) in self.coded_on_path.iter_mut().enumerate() {
                    if row[j] > 0 {
                        coded.push(plan.stream);
                    }
                }
            }
        }
        self.fp.dirty = true;
        dm.plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamSpec;
    use iqpaths_stats::{EmpiricalCdf, RollingCdf};

    fn mbps(v: f64) -> f64 {
        v * 1.0e6
    }

    fn uniform_cdf(lo: u32, hi: u32) -> EmpiricalCdf {
        EmpiricalCdf::from_clean_samples((lo..=hi).map(|i| mbps(i as f64)).collect())
    }

    fn snapshots(cdfs: Vec<EmpiricalCdf>) -> Vec<PathSnapshot> {
        cdfs.into_iter()
            .enumerate()
            .map(|(i, c)| PathSnapshot::from_cdf(i, c))
            .collect()
    }

    /// Two streams (one guaranteed, one best-effort), two paths.
    fn setup() -> (Pgos, StreamQueues) {
        let specs = vec![
            StreamSpec::probabilistic(0, "crit", mbps(8.0), 0.95, 1000),
            StreamSpec::best_effort(1, "bulk", mbps(20.0), 1000),
        ];
        let pgos = Pgos::new(PgosConfig::default(), specs, 2);
        let queues = StreamQueues::new(2, 100_000);
        (pgos, queues)
    }

    fn fill(queues: &mut StreamQueues, stream: usize, n: usize) {
        for _ in 0..n {
            queues.push(stream, 1000, 0);
        }
    }

    #[test]
    fn first_window_triggers_mapping() {
        let (mut pgos, _q) = setup();
        assert!(pgos.mapping().is_none());
        pgos.on_window_start(
            0,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]),
        );
        assert!(pgos.mapping().is_some());
        assert_eq!(pgos.remap_count(), 1);
    }

    #[test]
    fn stable_cdfs_do_not_remap() {
        let (mut pgos, _q) = setup();
        let snaps = snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]);
        pgos.on_window_start(0, 1_000_000_000, &snaps);
        pgos.on_window_start(1_000_000_000, 1_000_000_000, &snaps);
        pgos.on_window_start(2_000_000_000, 1_000_000_000, &snaps);
        assert_eq!(pgos.remap_count(), 1, "identical CDFs must not remap");
    }

    #[test]
    fn drifted_cdf_remaps() {
        let (mut pgos, _q) = setup();
        pgos.on_window_start(
            0,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]),
        );
        // Path 0 distribution collapses.
        pgos.on_window_start(
            1_000_000_000,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(10, 20), uniform_cdf(10, 60)]),
        );
        assert_eq!(pgos.remap_count(), 2);
    }

    #[test]
    fn scheduled_packets_follow_mapping() {
        let (mut pgos, mut q) = setup();
        fill(&mut q, 0, 5000);
        pgos.on_window_start(
            0,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]),
        );
        // Stream 0 needs 1000 pkts/window (8 Mbps / 8000 bits); mapping
        // must put them on the strong path 0.
        let m = pgos.mapping().unwrap().clone();
        assert_eq!(m.assignments[0][0], 1000);
        // Pull the full budget off path 0.
        let mut served = 0;
        while let Some(pkt) = pgos.next_packet(0, 1, &mut q) {
            assert_eq!(pkt.stream, 0);
            assert!(pkt.deadline_ns <= 1_000_000_000);
            served += 1;
            if served == 1000 {
                break;
            }
        }
        assert_eq!(served, 1000);
    }

    #[test]
    fn deadlines_are_evenly_spaced() {
        let (mut pgos, mut q) = setup();
        fill(&mut q, 0, 2000);
        pgos.on_window_start(
            0,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]),
        );
        let d1 = pgos.next_packet(0, 1, &mut q).unwrap().deadline_ns;
        let d2 = pgos.next_packet(0, 2, &mut q).unwrap().deadline_ns;
        let d3 = pgos.next_packet(0, 3, &mut q).unwrap().deadline_ns;
        assert!(d1 < d2 && d2 < d3);
        // 1000 pkts over 1 s → 1 ms spacing.
        assert_eq!(d2 - d1, 1_000_000);
    }

    #[test]
    fn best_effort_served_after_scheduled_budget() {
        let (mut pgos, mut q) = setup();
        fill(&mut q, 1, 10); // only bulk traffic queued
        pgos.on_window_start(
            0,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]),
        );
        // No stream-0 packets → the path serves bulk as unscheduled.
        let pkt = pgos.next_packet(0, 1, &mut q).unwrap();
        assert_eq!(pkt.stream, 1);
    }

    #[test]
    fn empty_queues_leave_path_idle() {
        let (mut pgos, mut q) = setup();
        pgos.on_window_start(
            0,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]),
        );
        assert!(pgos.next_packet(0, 1, &mut q).is_none());
        assert!(pgos.next_packet(1, 1, &mut q).is_none());
    }

    #[test]
    fn blocked_path_backs_off_exponentially() {
        let (mut pgos, mut q) = setup();
        fill(&mut q, 0, 100);
        pgos.on_window_start(
            0,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]),
        );
        pgos.on_path_blocked(0, 100);
        let until1 = pgos.backoff[0].until_ns;
        assert!(pgos.next_packet(0, until1 - 1, &mut q).is_none());
        assert!(pgos.next_packet(0, until1, &mut q).is_some());
        // Second block doubles the step.
        pgos.on_path_blocked(0, until1);
        let step1 = until1 - 100;
        let step2 = pgos.backoff[0].until_ns - until1;
        assert_eq!(step2, step1 * 2);
    }

    #[test]
    fn backoff_is_capped() {
        let (mut pgos, _q) = setup();
        for i in 0..40 {
            pgos.on_path_blocked(0, i);
        }
        let step = pgos.backoff[0].current_ns;
        assert_eq!(step, PgosConfig::default().backoff_max_ns);
    }

    #[test]
    fn infeasible_stream_produces_upcall() {
        let specs = vec![StreamSpec::probabilistic(
            0,
            "huge",
            mbps(500.0),
            0.95,
            1000,
        )];
        let mut pgos = Pgos::new(PgosConfig::default(), specs, 1);
        pgos.on_window_start(0, 1_000_000_000, &snapshots(vec![uniform_cdf(10, 60)]));
        let upcalls = pgos.drain_upcalls();
        assert_eq!(upcalls.len(), 1);
        // Drained only once.
        assert!(pgos.drain_upcalls().is_empty());
    }

    #[test]
    fn guaranteed_overflow_outranks_best_effort_in_fallback() {
        let (mut pgos, mut q) = setup();
        fill(&mut q, 0, 3000); // more than the 1000-pkt budget
        fill(&mut q, 1, 3000);
        pgos.on_window_start(
            0,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]),
        );
        // Half the window has elapsed and stream 0 has sent nothing on
        // its owning path 0: it is behind schedule, so path 1's fallback
        // must rescue it (Table 1 rule 2) ahead of best-effort traffic.
        let pkt = pgos.next_packet(1, 500_000_000, &mut q).unwrap();
        assert_eq!(pkt.stream, 0, "class-2 packet must beat best-effort");
    }

    #[test]
    fn on_schedule_streams_are_not_stolen_by_other_paths() {
        let (mut pgos, mut q) = setup();
        fill(&mut q, 0, 3000);
        fill(&mut q, 1, 3000);
        pgos.on_window_start(
            0,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]),
        );
        // Early in the window stream 0 is on schedule: path 1 (which
        // holds none of its budget) must serve best-effort instead of
        // splitting the critical stream.
        let pkt = pgos.next_packet(1, 1, &mut q).unwrap();
        assert_eq!(pkt.stream, 1, "on-schedule stream must stay whole");
        // Drain path 0 normally: its packets all come from stream 0
        // until the budget is spent.
        let pkt0 = pgos.next_packet(0, 2, &mut q).unwrap();
        assert_eq!(pkt0.stream, 0);
    }

    #[test]
    fn stream_join_triggers_remap_and_gets_budget() {
        let (mut pgos, _q) = setup();
        let snaps = snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]);
        pgos.on_window_start(0, 1_000_000_000, &snaps);
        assert_eq!(pgos.remap_count(), 1);
        // A new 8 Mbps stream joins.
        let idx = pgos.add_stream(StreamSpec::probabilistic(2, "joiner", mbps(8.0), 0.9, 1000));
        assert_eq!(idx, 2);
        pgos.on_window_start(1_000_000_000, 1_000_000_000, &snaps);
        assert_eq!(pgos.remap_count(), 2, "join must force a remap");
        let m = pgos.mapping().unwrap();
        assert_eq!(m.assignments.len(), 3);
        assert_eq!(m.assignments[2].iter().sum::<u32>(), 1000);
        assert!(pgos.drain_upcalls().is_empty());
        // The joiner's packets flow.
        let mut q = StreamQueues::new(3, 1000);
        q.push(2, 1000, 0);
        // It may land on either path; one of them serves it.
        let served = pgos
            .next_packet(0, 1_000_000_001, &mut q)
            .or_else(|| pgos.next_packet(1, 1_000_000_002, &mut q))
            .expect("joiner must be served");
        assert_eq!(served.stream, 2);
    }

    #[test]
    fn stream_termination_releases_capacity() {
        // Path holds 55 Mbps at p=0.9 (uniform 50..=100, q(0.1)=55).
        // Two 30 Mbps streams cannot both fit; after the first
        // terminates, the second must be admitted on retry.
        let specs = vec![
            StreamSpec::probabilistic(0, "a", mbps(30.0), 0.9, 1000),
            StreamSpec::probabilistic(1, "b", mbps(30.0), 0.9, 1000),
        ];
        let mut pgos = Pgos::new(PgosConfig::default(), specs, 1);
        let snaps = snapshots(vec![uniform_cdf(50, 100)]);
        pgos.on_window_start(0, 1_000_000_000, &snaps);
        assert_eq!(pgos.drain_upcalls().len(), 1, "stream b must be rejected");
        pgos.terminate_stream(0);
        pgos.on_window_start(1_000_000_000, 1_000_000_000, &snaps);
        assert!(
            pgos.drain_upcalls().is_empty(),
            "stream b must be admitted after a terminates"
        );
        let m = pgos.mapping().unwrap();
        assert_eq!(m.assignments[0].iter().sum::<u32>(), 0);
        assert!(m.assignments[1].iter().sum::<u32>() > 0);
    }

    #[test]
    #[should_panic]
    fn add_stream_with_wrong_index_panics() {
        let (mut pgos, _q) = setup();
        pgos.add_stream(StreamSpec::probabilistic(7, "bad", 1.0e6, 0.9, 1000));
    }

    #[test]
    #[should_panic]
    fn dense_index_enforced() {
        let specs = vec![StreamSpec::probabilistic(3, "x", 1.0e6, 0.9, 1000)];
        let _ = Pgos::new(PgosConfig::default(), specs, 1);
    }

    /// One guaranteed + one best-effort stream on three clean paths,
    /// running the Diversity mapping mode with coding planned and the
    /// guaranteed stream's queue striped into (n = 3) lanes.
    fn diversity_setup() -> (Pgos, StreamQueues) {
        let specs = vec![
            StreamSpec::probabilistic(0, "crit", mbps(8.0), 0.95, 1000),
            StreamSpec::best_effort(1, "bulk", mbps(20.0), 1000),
        ];
        let cfg = PgosConfig {
            mapping_mode: MappingMode::Diversity,
            ..PgosConfig::default()
        };
        let mut pgos = Pgos::new(cfg, specs, 3);
        let snaps = snapshots(vec![
            uniform_cdf(50, 100),
            uniform_cdf(50, 100),
            uniform_cdf(50, 100),
        ]);
        let plans = pgos.plan_coding(&snaps, &[], 0);
        assert_eq!(plans.len(), 1, "only the guaranteed stream is coded");
        let mut queues = StreamQueues::new(2, 100_000);
        queues.set_lanes(0, plans[0].n);
        pgos.on_window_start(0, 1_000_000_000, &snaps);
        (pgos, queues)
    }

    #[test]
    fn diversity_plan_is_structural_and_never_remaps() {
        let (mut pgos, _q) = diversity_setup();
        let plan = pgos.coding_plan(0).expect("stream 0 is coded").clone();
        assert_eq!((plan.n, plan.k), (3, 2));
        assert_eq!(plan.paths, vec![0, 1, 2]);
        assert!(pgos.coding_plan(1).is_none(), "best-effort stays uncoded");
        assert_eq!(pgos.remap_count(), 1);
        let m = pgos.mapping().expect("mapping installed by plan_coding");
        // Coded totals: 1000 data packets become 1500 blocks, split
        // evenly over the three paths.
        assert_eq!(m.assignments[0].iter().sum::<u32>(), 1500);
        assert_eq!(m.assignments[0], vec![500, 500, 500]);
        // Severe distribution drift would trip PGOS's KS remap test;
        // Diversity must hold the structural mapping regardless.
        let drifted = snapshots(vec![
            uniform_cdf(50, 100),
            uniform_cdf(1, 6),
            uniform_cdf(50, 100),
        ]);
        pgos.on_window_start(1_000_000_000, 1_000_000_000, &drifted);
        assert_eq!(pgos.remap_count(), 1, "Diversity never remaps");
        assert!(pgos.coding_plan(0).is_some());
    }

    #[test]
    fn diversity_rule1_serves_only_the_paths_own_lanes() {
        let (mut pgos, mut q) = diversity_setup();
        fill(&mut q, 0, 9); // seqs 0..9, lane = seq % 3, lane l → path l
        for path in 0..3usize {
            for round in 0..3u64 {
                let pkt = pgos.next_packet(path, 1 + round, &mut q).unwrap();
                assert_eq!(pkt.stream, 0);
                assert_eq!(
                    pkt.seq,
                    path as u64 + 3 * round,
                    "path {path} must serve its pinned lane in seq order"
                );
            }
        }
        assert_eq!(q.len(0), 0);
    }

    #[test]
    fn coded_streams_are_excluded_from_fallback() {
        let (mut pgos, mut q) = diversity_setup();
        fill(&mut q, 0, 3); // one block per lane
                            // Drain lanes 0 and 1 directly, leaving only lane 2 (pinned to
                            // path 2) backlogged.
        assert_eq!(q.pop_lane(0, 0).unwrap().seq, 0);
        assert_eq!(q.pop_lane(0, 1).unwrap().seq, 1);
        assert_eq!(q.len(0), 1);
        // Paths 0 and 1 own no backlogged lane of stream 0 and the
        // best-effort stream is empty: rule 1 skips it and rules 2/3
        // must NOT steal the lane-2 block.
        assert!(pgos.next_packet(0, 1, &mut q).is_none());
        assert!(pgos.next_packet(1, 2, &mut q).is_none());
        let pkt = pgos.next_packet(2, 3, &mut q).expect("path 2 owns lane 2");
        assert_eq!((pkt.stream, pkt.seq), (0, 2));
    }

    /// A stale eligible-stream count (the count says path 0 has no
    /// rule-1 candidate while one is queued) must trip the debug
    /// cross-check instead of silently falling through to rules 2/3.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rule-1 gate closed on path 0 while stream 0 is eligible")]
    fn stale_eligible_count_trips_the_gate_cross_check() {
        let (mut pgos, mut q) = setup();
        fill(&mut q, 0, 10);
        pgos.on_window_start(
            0,
            1_000_000_000,
            &snapshots(vec![uniform_cdf(50, 100), uniform_cdf(10, 60)]),
        );
        // First decision rebuilds the index: stream 0 (budget on path
        // 0, 9 packets left) is the only eligible stream there.
        assert_eq!(pgos.next_packet(0, 1, &mut q).unwrap().stream, 0);
        assert_eq!(pgos.fp.eligible[0], 1);
        pgos.fp.eligible[0] = 0;
        let _ = pgos.next_packet(0, 2, &mut q);
    }

    fn rolling_uniform(lo: u32, hi: u32) -> RollingCdf {
        let mut r = RollingCdf::new();
        for i in lo..=hi {
            r.push(mbps(i as f64));
        }
        r
    }

    fn rolling_snapshots(rolls: &[RollingCdf]) -> Vec<PathSnapshot> {
        rolls
            .iter()
            .enumerate()
            .map(|(i, r)| PathSnapshot::from_summary(i, CdfSummary::rolling(r.snapshot())))
            .collect()
    }

    /// Replaces the `n` largest samples with `v` Mbps each, one
    /// remove-then-push edit pair at a time (the length stays put).
    fn replace_samples(r: &mut RollingCdf, n: usize, v: f64) {
        for _ in 0..n {
            let top = r.snapshot().max().expect("non-empty");
            assert!(r.remove(top));
            r.push(mbps(v));
        }
    }

    #[test]
    fn drift_memo_skips_small_edits_and_still_catches_drift() {
        let (mut pgos, _q) = setup();
        let mut rolls = [rolling_uniform(50, 100), rolling_uniform(10, 60)];
        let second = 1_000_000_000;
        pgos.on_window_start(0, second, &rolling_snapshots(&rolls));
        // First window after the mapping: an exact scan per path.
        pgos.on_window_start(second, second, &rolling_snapshots(&rolls));
        let scanned = pgos.drift_memo[0].expect("scanned").edits;
        // Two replacements: bound 4 / (2 · 51) ≈ 0.04 < 0.2, no scan.
        replace_samples(&mut rolls[0], 2, 75.0);
        pgos.on_window_start(2 * second, second, &rolling_snapshots(&rolls));
        assert_eq!(pgos.drift_memo[0].expect("kept").edits, scanned);
        assert_eq!(pgos.remap_count(), 1);
        // A collapse is past any bound: scanned, and it remaps.
        replace_samples(&mut rolls[0], 40, 12.0);
        pgos.on_window_start(3 * second, second, &rolling_snapshots(&rolls));
        assert_eq!(pgos.remap_count(), 2);
        assert!(pgos.drift_memo.iter().all(Option::is_none));
    }

    /// A stale drift memo (KS 0 at the current edit count, planted
    /// after a real drift) must trip the debug cross-check instead of
    /// silently suppressing the remap.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "drift memo skipped path 0")]
    fn stale_drift_memo_trips_the_cross_check() {
        let (mut pgos, _q) = setup();
        let mut rolls = [rolling_uniform(50, 100), rolling_uniform(10, 60)];
        pgos.on_window_start(0, 1_000_000_000, &rolling_snapshots(&rolls));
        replace_samples(&mut rolls[0], 51, 12.0);
        let drifted = rolling_snapshots(&rolls);
        pgos.drift_memo[0] = Some(DriftMemo {
            ks: 0.0,
            edits: drifted[0].cdf.edits().expect("rolling"),
            len: drifted[0].cdf.len(),
            factor_bits: 1.0f64.to_bits(),
        });
        pgos.on_window_start(1_000_000_000, 1_000_000_000, &drifted);
    }

    #[test]
    #[should_panic(expected = "mid-run stream joins are unsupported")]
    fn diversity_rejects_mid_run_stream_join() {
        let (mut pgos, _q) = diversity_setup();
        pgos.add_stream(StreamSpec::probabilistic(2, "late", mbps(1.0), 0.9, 1000));
    }
}
