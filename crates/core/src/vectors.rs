//! Scheduling vectors (§5.2.2, "Path Routing and Packet Scheduling").
//!
//! The resource-mapping step assigns `Tp[i][j]` packets of stream `i` to
//! path `j` per scheduling window. From this assignment PGOS derives:
//!
//! * the **path lookup vector** `VP` — the order in which the scheduler
//!   visits paths, built from per-path virtual deadlines
//!   `Dp[k] = t_w / x_j · (k − 1)` so that a path with `x_j` packets is
//!   visited `x_j` times, evenly interleaved; and
//! * per-path **stream scheduling vectors** `VS[j]` — for each visit to
//!   path `j`, which stream's packet to send, built by EDF-merging the
//!   per-stream virtual deadlines within the path.
//!
//! The paper's worked example (5 packets of S1 and 4 of S2 on path 1,
//! 6 packets of S2 on path 2) is reproduced verbatim in the tests.
//!
//! The assignment matrix and the per-path `VS[j]` vectors are held
//! behind [`Arc`]s: the mapping result, the vector set and every
//! per-path cursor *share* one copy instead of deep-cloning it per
//! window (the pre-refactor `rebuild_cursors` cloned each `VS[j]` and
//! collected a fresh budget column every window, and `remap` stored the
//! matrix twice). Row/column totals are precomputed once at build so
//! the scheduler's per-decision deadline stamping reads
//! [`SchedulingVectors::packets_of_stream`] in O(1) instead of summing
//! a row.

use std::sync::Arc;

/// Virtual-deadline entry used during vector construction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DeadlineEntry {
    /// Virtual deadline as a fraction of the window, in `[0, 1)`.
    deadline: f64,
    /// Owning path or stream index (tie-break: lower index first).
    owner: usize,
}

fn merge_by_deadline(counts: &[u32]) -> Vec<usize> {
    let mut entries: Vec<DeadlineEntry> =
        Vec::with_capacity(counts.iter().map(|&c| c as usize).sum());
    for (owner, &count) in counts.iter().enumerate() {
        for k in 0..count {
            entries.push(DeadlineEntry {
                deadline: k as f64 / count as f64,
                owner,
            });
        }
    }
    // Stable sort on deadline keeps the by-owner insertion order for
    // ties, i.e. lower owner index first.
    entries.sort_by(|a, b| {
        a.deadline
            .partial_cmp(&b.deadline)
            .expect("finite deadlines")
    });
    entries.into_iter().map(|e| e.owner).collect()
}

/// Builds the path lookup vector `VP` from per-path packet totals
/// (`x_j = Σ_i Tp[i][j]`). Paths with zero packets never appear.
pub fn path_lookup_vector(per_path_packets: &[u32]) -> Vec<usize> {
    merge_by_deadline(per_path_packets)
}

/// Builds the stream scheduling vector `VS[j]` for one path from the
/// per-stream packet counts assigned to that path.
pub fn stream_scheduling_vector(per_stream_packets: &[u32]) -> Vec<usize> {
    merge_by_deadline(per_stream_packets)
}

/// The complete vector set for one scheduling window.
///
/// The matrix behind `assignments` is shared (not cloned) with the
/// producing [`crate::mapping::MappingResult`], and each `vs[j]` is
/// shared with the per-path [`VsCursor`]s — one copy of each, however
/// many windows elapse.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingVectors {
    /// `assignments[i][j]` — packets of stream `i` on path `j`.
    pub assignments: Arc<Vec<Vec<u32>>>,
    /// Path visit order.
    pub vp: Vec<usize>,
    /// Per-path stream visit order (shared with the cursors).
    pub vs: Vec<Arc<Vec<usize>>>,
    per_stream_total: Vec<u32>,
    per_path_total: Vec<u32>,
}

impl SchedulingVectors {
    /// Derives `VP` and all `VS[j]` from a packet assignment matrix.
    ///
    /// # Panics
    /// Panics if the matrix is ragged.
    pub fn build(assignments: Vec<Vec<u32>>) -> Self {
        Self::build_shared(Arc::new(assignments))
    }

    /// Like [`SchedulingVectors::build`], but shares an existing matrix
    /// instead of taking ownership of a fresh clone.
    ///
    /// # Panics
    /// Panics if the matrix is ragged.
    pub fn build_shared(assignments: Arc<Vec<Vec<u32>>>) -> Self {
        let paths = assignments.first().map_or(0, Vec::len);
        assert!(
            assignments.iter().all(|row| row.len() == paths),
            "assignment matrix must be rectangular"
        );
        let per_path_total: Vec<u32> = (0..paths)
            .map(|j| assignments.iter().map(|row| row[j]).sum())
            .collect();
        let per_stream_total: Vec<u32> = assignments.iter().map(|row| row.iter().sum()).collect();
        let vp = path_lookup_vector(&per_path_total);
        let vs = (0..paths)
            .map(|j| {
                let per_stream: Vec<u32> = assignments.iter().map(|row| row[j]).collect();
                Arc::new(stream_scheduling_vector(&per_stream))
            })
            .collect();
        Self {
            assignments,
            vp,
            vs,
            per_stream_total,
            per_path_total,
        }
    }

    /// Number of paths.
    pub fn paths(&self) -> usize {
        self.vs.len()
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.assignments.len()
    }

    /// Total packets scheduled on path `j` per window. O(1) — totals
    /// are precomputed at build.
    pub fn packets_on_path(&self, j: usize) -> u32 {
        self.per_path_total[j]
    }

    /// Total packets scheduled for stream `i` per window. O(1) — the
    /// scheduler stamps a deadline per decision off this.
    pub fn packets_of_stream(&self, i: usize) -> u32 {
        self.per_stream_total[i]
    }

    /// True when stream `i` is split across more than one path (the
    /// mapping avoids this for important streams: splitting causes
    /// packet reordering).
    pub fn is_split(&self, i: usize) -> bool {
        self.assignments[i].iter().filter(|&&c| c > 0).count() > 1
    }
}

/// Per-window cursor over a stream scheduling vector, tracking how many
/// of each stream's scheduled packets remain.
#[derive(Debug, Clone)]
pub struct VsCursor {
    vs: Arc<Vec<usize>>,
    pos: usize,
    remaining: Vec<u32>,
}

impl VsCursor {
    /// Cursor over `vs` with per-stream budgets `remaining`.
    pub fn new(vs: Vec<usize>, remaining: Vec<u32>) -> Self {
        Self {
            vs: Arc::new(vs),
            pos: 0,
            remaining,
        }
    }

    /// Re-arms an existing cursor for a new window: shares `vs` (no
    /// clone), rewinds the position, and refills the per-stream budget
    /// in place via `budget(stream)`. After the first window the
    /// budget buffer is at capacity, so this allocates nothing.
    pub fn reset_with<F: Fn(usize) -> u32>(
        &mut self,
        vs: &Arc<Vec<usize>>,
        streams: usize,
        budget: F,
    ) {
        self.vs = Arc::clone(vs);
        self.pos = 0;
        self.remaining.clear();
        self.remaining.extend((0..streams).map(budget));
    }

    /// Budget left for stream `i` this window (0 for a stream the
    /// budget vector does not cover).
    pub fn remaining(&self, stream: usize) -> u32 {
        self.remaining.get(stream).copied().unwrap_or(0)
    }

    /// Total scheduled packets left this window.
    pub fn total_remaining(&self) -> u32 {
        self.remaining.iter().sum()
    }

    /// Advances to the next scheduled stream that still has budget and
    /// for which `has_packet(stream)` holds; decrements its budget.
    ///
    /// Streams whose application queue is empty are skipped without
    /// consuming budget (their slots may be reclaimed later in the
    /// window if packets arrive). A miss walks one full lap and leaves
    /// the position where it started; `Pgos` only calls this when its
    /// O(1) rule-1 gate says an eligible stream exists (DESIGN.md §12).
    pub fn next_scheduled<F: Fn(usize) -> bool>(&mut self, has_packet: F) -> Option<usize> {
        if self.vs.is_empty() {
            return None;
        }
        // One full lap at most.
        for _ in 0..self.vs.len() {
            let stream = self.vs[self.pos];
            self.pos = (self.pos + 1) % self.vs.len();
            if self.remaining(stream) > 0 && has_packet(stream) {
                self.remaining[stream] -= 1;
                return Some(stream);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_vp() {
        // Path 1 carries 9 packets, path 2 carries 6:
        // VP = [1,2,1,2,1,1,2,1,2,1,1,2,1,2,1] (1-indexed in the paper).
        let vp = path_lookup_vector(&[9, 6]);
        let expected_1_indexed = vec![1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1];
        let got: Vec<usize> = vp.iter().map(|p| p + 1).collect();
        assert_eq!(got, expected_1_indexed);
    }

    #[test]
    fn paper_example_vs_path1() {
        // Path 1: 5 packets of S1, 4 of S2 → alternating EDF merge
        // starting with S1: [1,2,1,2,1,2,1,2,1].
        let vs = stream_scheduling_vector(&[5, 4]);
        let got: Vec<usize> = vs.iter().map(|s| s + 1).collect();
        assert_eq!(got, vec![1, 2, 1, 2, 1, 2, 1, 2, 1]);
    }

    #[test]
    fn vector_lengths_match_totals() {
        let vp = path_lookup_vector(&[3, 0, 7]);
        assert_eq!(vp.len(), 10);
        assert!(!vp.contains(&1), "empty path must not be visited");
        assert_eq!(vp.iter().filter(|&&p| p == 0).count(), 3);
        assert_eq!(vp.iter().filter(|&&p| p == 2).count(), 7);
    }

    #[test]
    fn interleaving_is_even() {
        // 2 vs 2 must strictly alternate after the paired start.
        let v = merge_by_deadline(&[2, 2]);
        assert_eq!(v, vec![0, 1, 0, 1]);
    }

    #[test]
    fn single_owner_vector() {
        assert_eq!(merge_by_deadline(&[4]), vec![0, 0, 0, 0]);
        assert!(merge_by_deadline(&[0, 0]).is_empty());
    }

    #[test]
    fn build_full_vectors_from_paper_example() {
        // Stream 1: 5 pkts on path 0. Stream 2: 4 on path 0, 6 on path 1.
        let sv = SchedulingVectors::build(vec![vec![5, 0], vec![4, 6]]);
        assert_eq!(sv.packets_on_path(0), 9);
        assert_eq!(sv.packets_on_path(1), 6);
        assert_eq!(sv.packets_of_stream(1), 10);
        assert!(!sv.is_split(0));
        assert!(sv.is_split(1));
        let vp1: Vec<usize> = sv.vp.iter().map(|p| p + 1).collect();
        assert_eq!(vp1, vec![1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1]);
        let vs0: Vec<usize> = sv.vs[0].iter().map(|s| s + 1).collect();
        assert_eq!(vs0, vec![1, 2, 1, 2, 1, 2, 1, 2, 1]);
        let vs1: Vec<usize> = sv.vs[1].iter().map(|s| s + 1).collect();
        assert_eq!(vs1, vec![2, 2, 2, 2, 2, 2]);
    }

    #[test]
    #[should_panic]
    fn ragged_matrix_panics() {
        let _ = SchedulingVectors::build(vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn cursor_respects_budgets() {
        let mut c = VsCursor::new(vec![0, 1, 0, 1, 0], vec![3, 2]);
        let mut order = Vec::new();
        while let Some(s) = c.next_scheduled(|_| true) {
            order.push(s);
        }
        assert_eq!(order, vec![0, 1, 0, 1, 0]);
        assert_eq!(c.total_remaining(), 0);
        assert_eq!(c.next_scheduled(|_| true), None);
    }

    #[test]
    fn cursor_skips_empty_queues_without_spending_budget() {
        let mut c = VsCursor::new(vec![0, 1], vec![1, 1]);
        // Stream 0's queue is empty: only stream 1 is eligible.
        assert_eq!(c.next_scheduled(|s| s == 1), Some(1));
        assert_eq!(c.remaining(0), 1, "stream 0's budget must be intact");
        // Stream 0's packet arrives later in the window.
        assert_eq!(c.next_scheduled(|_| true), Some(0));
    }

    #[test]
    fn cursor_treats_a_missing_budget_as_zero() {
        // `VS` names stream 1 but the budget vector stops at stream 0:
        // the lap must skip it, as `remaining(1)` reports, not panic.
        let mut c = VsCursor::new(vec![0, 1], vec![1]);
        assert_eq!(c.remaining(1), 0);
        assert_eq!(c.next_scheduled(|_| true), Some(0));
        assert_eq!(c.next_scheduled(|_| true), None);
        assert_eq!(c.total_remaining(), 0);
    }

    #[test]
    fn cursor_none_when_no_queues_have_packets() {
        let mut c = VsCursor::new(vec![0, 1], vec![5, 5]);
        assert_eq!(c.next_scheduled(|_| false), None);
        assert_eq!(c.total_remaining(), 10);
    }
}
