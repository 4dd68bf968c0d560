//! Bounded per-stream packet queues (Figure 6, "Queue 1, 2, …").
//!
//! Application generators enqueue packet descriptors; schedulers pop
//! them when a path service becomes free. Queues are bounded — a full
//! queue drop-tails and the loss is accounted per stream, which is how
//! an overloaded best-effort stream sheds load in the experiments.
//!
//! Storage is a slab-backed structure-of-arrays pool shared by every
//! stream: parallel `bytes` / `created_ns` / `deadline_ns` / `seq`
//! arrays plus an intrusive `next` link per slot, with each stream
//! owning a head/tail index list threaded through the slab. The slab
//! grows only to the high-water mark of concurrently queued packets
//! and recycles slots through a free list, so the steady-state
//! enqueue/dequeue cycle performs **zero heap allocation** — the
//! property the allocation-counter test in `tests/zero_alloc.rs` pins.
//! A live-packet counter makes [`StreamQueues::total_len`] and
//! [`StreamQueues::is_empty`] O(1) (both were O(streams) scans when
//! each stream owned its own `VecDeque`).
//!
//! Invariant (relied on by the scheduler's fallback index): a packet
//! *in the pool* always has `deadline_ns == u64::MAX`. Deadlines are
//! stamped on the popped copy by the scheduler, never written back, so
//! every queued head ties on deadline and precedence among unscheduled
//! streams reduces to (constraint, stream index). See DESIGN.md §12.
//!
//! **Lanes** (the `Diversity` mapping mode, DESIGN.md §15): a stream
//! may be striped into up to [`crate::coding::MAX_GROUP_BLOCKS`]
//! *lanes* — parallel sub-FIFOs with packet `seq` assigned to lane
//! `seq % lanes`. Erasure-coded streams pin each lane to one overlay
//! path, which makes block→path placement a pure function of the
//! sequence number (the determinism rule coded delivery accounting
//! depends on). Lane-unaware consumers see nothing new:
//! [`StreamQueues::pop`] and [`StreamQueues::head`] return the
//! globally oldest packet (minimum `seq` across lane heads), and a
//! stream defaults to a single lane with the exact pre-lane layout
//! and cost.

use serde::{Deserialize, Serialize};

use crate::coding::MAX_GROUP_BLOCKS;

/// A packet descriptor as seen by the scheduler. Mirrors
/// `iqpaths_simnet::Packet` but lives here so the scheduler crate stays
/// emulator-independent; the middleware converts between the two.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueuedPacket {
    /// Owning stream index.
    pub stream: usize,
    /// Per-stream sequence number.
    pub seq: u64,
    /// Size in bytes.
    pub bytes: u32,
    /// Enqueue time in nanoseconds of virtual time.
    pub created_ns: u64,
    /// Virtual deadline in nanoseconds (`u64::MAX` = best-effort). Set
    /// by the scheduler when the packet is admitted to a window.
    pub deadline_ns: u64,
}

/// Sentinel slot index: "no slot".
const NIL: u32 = u32::MAX;

/// Per-stream bounded FIFO queues over a shared structure-of-arrays
/// packet pool.
#[derive(Debug, Clone)]
pub struct StreamQueues {
    // --- slab (parallel arrays, indexed by slot) ---
    bytes: Vec<u32>,
    created_ns: Vec<u64>,
    deadline_ns: Vec<u64>,
    seq_of: Vec<u64>,
    /// Intrusive link: next slot in the owning stream's FIFO, or the
    /// next free slot when on the free list. `NIL` terminates both.
    next: Vec<u32>,
    free_head: u32,
    // --- per-lane FIFO heads (lane slot = lane_base[stream] + lane;
    //     single-lane streams keep lane slot == stream index) ---
    head: Vec<u32>,
    tail: Vec<u32>,
    lane_base: Vec<u32>,
    lane_count: Vec<u8>,
    // --- per-stream totals ---
    len: Vec<usize>,
    // --- accounting ---
    capacity: usize,
    live: usize,
    offered: Vec<u64>,
    dropped: Vec<u64>,
    seq: Vec<u64>,
    // --- empty→non-empty wake journal (for index-based schedulers) ---
    wake_log: Vec<u32>,
    wake_enabled: bool,
}

impl StreamQueues {
    /// `streams` queues, each holding at most `capacity` packets.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(streams: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "queues need positive capacity");
        Self {
            bytes: Vec::new(),
            created_ns: Vec::new(),
            deadline_ns: Vec::new(),
            seq_of: Vec::new(),
            next: Vec::new(),
            free_head: NIL,
            head: vec![NIL; streams],
            tail: vec![NIL; streams],
            lane_base: (0..streams as u32).collect(),
            lane_count: vec![1; streams],
            len: vec![0; streams],
            capacity,
            live: 0,
            offered: vec![0; streams],
            dropped: vec![0; streams],
            seq: vec![0; streams],
            wake_log: Vec::new(),
            wake_enabled: false,
        }
    }

    /// Like [`StreamQueues::new`], but pre-sizes the slab for `slots`
    /// concurrently queued packets so the first `slots` pushes never
    /// grow the pool. The runtime uses this to pre-warm the pool before
    /// the event loop starts.
    pub fn with_pool_capacity(streams: usize, capacity: usize, slots: usize) -> Self {
        let mut q = Self::new(streams, capacity);
        q.reserve_slots(slots);
        q
    }

    /// Grows the slab (and free list) so at least `slots` packets can
    /// be queued without further allocation.
    pub fn reserve_slots(&mut self, slots: usize) {
        while self.next.len() < slots {
            let slot = self.next.len() as u32;
            self.bytes.push(0);
            self.created_ns.push(0);
            self.deadline_ns.push(u64::MAX);
            self.seq_of.push(0);
            self.next.push(self.free_head);
            self.free_head = slot;
        }
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.len.len()
    }

    /// Stripes `stream` into `lanes` sub-FIFOs (packet `seq` → lane
    /// `seq % lanes`). Must be called before the stream's first push;
    /// lane-unaware `pop`/`head` keep returning the globally oldest
    /// packet.
    ///
    /// # Panics
    /// Panics when the stream already has queued packets or consumed
    /// sequence numbers, or when `lanes` is outside
    /// `1..=`[`MAX_GROUP_BLOCKS`].
    pub fn set_lanes(&mut self, stream: usize, lanes: usize) {
        assert!(
            (1..=MAX_GROUP_BLOCKS).contains(&lanes),
            "lanes must be in 1..={MAX_GROUP_BLOCKS}"
        );
        assert!(
            self.len[stream] == 0 && self.seq[stream] == 0,
            "set_lanes requires a fresh stream"
        );
        if lanes == usize::from(self.lane_count[stream]) {
            return;
        }
        // Allocate a fresh contiguous lane block at the end; the
        // stream's original slot (or previous block) is empty and
        // simply goes unused.
        self.lane_base[stream] = self.head.len() as u32;
        self.lane_count[stream] = lanes as u8;
        for _ in 0..lanes {
            self.head.push(NIL);
            self.tail.push(NIL);
        }
    }

    /// Lane count of a stream (1 unless striped via
    /// [`StreamQueues::set_lanes`]).
    pub fn lanes(&self, stream: usize) -> usize {
        self.lane_count.get(stream).map_or(1, |&c| usize::from(c))
    }

    /// Slab high-water mark: slots ever allocated. Steady-state
    /// workloads plateau here; the zero-alloc test asserts it.
    pub fn pool_slots(&self) -> usize {
        self.next.len()
    }

    /// Enqueues a new packet for `stream`; returns `false` (and counts a
    /// drop) when the queue is full.
    ///
    /// # Panics
    /// Panics on an out-of-range stream.
    pub fn push(&mut self, stream: usize, bytes: u32, created_ns: u64) -> bool {
        self.offered[stream] += 1;
        if self.len[stream] >= self.capacity {
            self.dropped[stream] += 1;
            return false;
        }
        let seq = self.seq[stream];
        self.seq[stream] += 1;
        let slot = match self.free_head {
            NIL => {
                let slot = self.next.len() as u32;
                self.bytes.push(bytes);
                self.created_ns.push(created_ns);
                self.deadline_ns.push(u64::MAX);
                self.seq_of.push(seq);
                self.next.push(NIL);
                slot
            }
            slot => {
                self.free_head = self.next[slot as usize];
                self.bytes[slot as usize] = bytes;
                self.created_ns[slot as usize] = created_ns;
                self.deadline_ns[slot as usize] = u64::MAX;
                self.seq_of[slot as usize] = seq;
                self.next[slot as usize] = NIL;
                slot
            }
        };
        let lane_slot =
            (self.lane_base[stream] + (seq % u64::from(self.lane_count[stream])) as u32) as usize;
        if self.wake_enabled && self.len[stream] == 0 {
            self.wake_log.push(stream as u32);
        }
        match self.tail[lane_slot] {
            NIL => self.head[lane_slot] = slot,
            tail => self.next[tail as usize] = slot,
        }
        self.tail[lane_slot] = slot;
        self.len[stream] += 1;
        self.live += 1;
        true
    }

    /// Like [`StreamQueues::push`], but a full queue consumes the
    /// sequence number anyway (counted as offered + dropped, nothing
    /// stored). Coded streams use this for synthesized parity: group
    /// positions are a pure function of `seq`, so a parity block that
    /// cannot be queued must still burn its group position — otherwise
    /// the next data packet would slide into a parity slot and corrupt
    /// every later group's layout.
    pub fn push_consuming(&mut self, stream: usize, bytes: u32, created_ns: u64) -> bool {
        if self.len[stream] >= self.capacity {
            self.offered[stream] += 1;
            self.dropped[stream] += 1;
            self.seq[stream] += 1;
            return false;
        }
        self.push(stream, bytes, created_ns)
    }

    fn packet_at(&self, stream: usize, slot: u32) -> QueuedPacket {
        let s = slot as usize;
        QueuedPacket {
            stream,
            seq: self.seq_of[s],
            bytes: self.bytes[s],
            created_ns: self.created_ns[s],
            deadline_ns: self.deadline_ns[s],
        }
    }

    /// The lane slot holding the stream's globally oldest packet
    /// (minimum `seq` across the non-empty lane heads), or `None` when
    /// the stream is empty. Single-lane streams resolve in O(1).
    fn oldest_lane_slot(&self, stream: usize) -> Option<usize> {
        let base = *self.lane_base.get(stream)? as usize;
        let lanes = usize::from(self.lane_count[stream]);
        if lanes == 1 {
            return (self.head[base] != NIL).then_some(base);
        }
        (base..base + lanes)
            .filter(|&ls| self.head[ls] != NIL)
            .min_by_key(|&ls| self.seq_of[self.head[ls] as usize])
    }

    /// Head packet of a stream, if any (a copy — queued state is never
    /// mutated in place). For a striped stream this is the globally
    /// oldest packet across lanes, so lane-unaware consumers still see
    /// strict FIFO order.
    pub fn head(&self, stream: usize) -> Option<QueuedPacket> {
        let ls = self.oldest_lane_slot(stream)?;
        Some(self.packet_at(stream, self.head[ls]))
    }

    /// Pops the head packet of a stream (globally oldest across lanes).
    pub fn pop(&mut self, stream: usize) -> Option<QueuedPacket> {
        let ls = self.oldest_lane_slot(stream)?;
        Some(self.pop_lane_slot(stream, ls))
    }

    /// Head packet of one lane of a striped stream.
    ///
    /// # Panics
    /// Panics on an out-of-range lane.
    pub fn lane_head(&self, stream: usize, lane: usize) -> Option<QueuedPacket> {
        assert!(
            lane < usize::from(self.lane_count[stream]),
            "lane out of range"
        );
        let ls = self.lane_base[stream] as usize + lane;
        (self.head[ls] != NIL).then(|| self.packet_at(stream, self.head[ls]))
    }

    /// Pops the head packet of one lane of a striped stream.
    ///
    /// # Panics
    /// Panics on an out-of-range lane.
    pub fn pop_lane(&mut self, stream: usize, lane: usize) -> Option<QueuedPacket> {
        assert!(
            lane < usize::from(self.lane_count[stream]),
            "lane out of range"
        );
        let ls = self.lane_base[stream] as usize + lane;
        (self.head[ls] != NIL).then(|| self.pop_lane_slot(stream, ls))
    }

    /// True when the lane has a queued packet.
    pub fn lane_backlogged(&self, stream: usize, lane: usize) -> bool {
        lane < usize::from(self.lane_count[stream])
            && self.head[self.lane_base[stream] as usize + lane] != NIL
    }

    fn pop_lane_slot(&mut self, stream: usize, lane_slot: usize) -> QueuedPacket {
        let slot = self.head[lane_slot];
        debug_assert_ne!(slot, NIL);
        let pkt = self.packet_at(stream, slot);
        self.head[lane_slot] = self.next[slot as usize];
        if self.head[lane_slot] == NIL {
            self.tail[lane_slot] = NIL;
        }
        self.next[slot as usize] = self.free_head;
        self.free_head = slot;
        self.len[stream] -= 1;
        self.live -= 1;
        pkt
    }

    /// Queue length of a stream.
    pub fn len(&self, stream: usize) -> usize {
        self.len.get(stream).copied().unwrap_or(0)
    }

    /// True when every queue is empty. O(1) via the live-packet counter.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total queued packets across all streams. O(1) via the
    /// live-packet counter.
    pub fn total_len(&self) -> usize {
        self.live
    }

    /// Sequence number the next successfully pushed packet of `stream`
    /// will receive (equivalently: packets enqueued so far). Trace
    /// emission uses this to tag `Enqueue` events without re-deriving
    /// the sequence from offered/dropped counters.
    pub fn next_seq(&self, stream: usize) -> u64 {
        self.seq[stream]
    }

    /// Packets offered to a stream's queue so far.
    pub fn offered(&self, stream: usize) -> u64 {
        self.offered[stream]
    }

    /// Packets dropped at a stream's queue so far.
    pub fn dropped(&self, stream: usize) -> u64 {
        self.dropped[stream]
    }

    /// Drop rate of a stream (0 when nothing offered).
    pub fn drop_rate(&self, stream: usize) -> f64 {
        if self.offered[stream] == 0 {
            0.0
        } else {
            self.dropped[stream] as f64 / self.offered[stream] as f64
        }
    }

    /// Streams whose queues are non-empty.
    pub fn backlogged(&self) -> impl Iterator<Item = usize> + '_ {
        self.len
            .iter()
            .enumerate()
            .filter(|(_, l)| **l > 0)
            .map(|(i, _)| i)
    }

    /// Enables (or disables) the empty→non-empty wake journal. While
    /// enabled, every push that transitions a stream from empty to
    /// backlogged records the stream in a log drained by
    /// [`StreamQueues::pop_wake`]. Index-based schedulers use this to
    /// re-admit woken streams without scanning; when disabled (the
    /// default) pushes pay nothing.
    pub fn set_wake_logging(&mut self, enabled: bool) {
        self.wake_enabled = enabled;
        if !enabled {
            self.wake_log.clear();
        }
    }

    /// Drains one entry from the wake journal (see
    /// [`StreamQueues::set_wake_logging`]). Order is unspecified; a
    /// stream may appear more than once and may have gone empty again
    /// by the time it is drained — consumers must re-check `len`.
    pub fn pop_wake(&mut self) -> Option<usize> {
        self.wake_log.pop().map(|s| s as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_sequence_numbers() {
        let mut q = StreamQueues::new(2, 8);
        q.push(0, 100, 1);
        q.push(0, 200, 2);
        let a = q.pop(0).unwrap();
        let b = q.pop(0).unwrap();
        assert_eq!((a.seq, a.bytes), (0, 100));
        assert_eq!((b.seq, b.bytes), (1, 200));
        assert!(q.pop(0).is_none());
    }

    #[test]
    fn capacity_drops_tail() {
        let mut q = StreamQueues::new(1, 2);
        assert!(q.push(0, 1, 0));
        assert!(q.push(0, 1, 0));
        assert!(!q.push(0, 1, 0));
        assert_eq!(q.len(0), 2);
        assert_eq!(q.offered(0), 3);
        assert_eq!(q.dropped(0), 1);
        assert!((q.drop_rate(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn streams_are_independent() {
        let mut q = StreamQueues::new(3, 4);
        q.push(1, 10, 0);
        assert_eq!(q.len(0), 0);
        assert_eq!(q.len(1), 1);
        assert_eq!(q.total_len(), 1);
        let backlogged: Vec<usize> = q.backlogged().collect();
        assert_eq!(backlogged, vec![1]);
    }

    #[test]
    fn head_peeks_without_popping() {
        let mut q = StreamQueues::new(1, 4);
        q.push(0, 42, 7);
        assert_eq!(q.head(0).unwrap().bytes, 42);
        assert_eq!(q.len(0), 1);
    }

    #[test]
    fn empty_checks() {
        let mut q = StreamQueues::new(2, 4);
        assert!(q.is_empty());
        q.push(0, 1, 0);
        assert!(!q.is_empty());
        q.pop(0);
        assert!(q.is_empty());
        assert_eq!(q.drop_rate(1), 0.0);
    }

    #[test]
    fn out_of_range_accessors_are_safe() {
        let q = StreamQueues::new(1, 4);
        assert!(q.head(9).is_none());
        assert_eq!(q.len(9), 0);
    }

    #[test]
    #[should_panic]
    fn push_out_of_range_panics() {
        let mut q = StreamQueues::new(1, 4);
        q.push(5, 1, 0);
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let mut q = StreamQueues::new(2, 8);
        for round in 0..100 {
            q.push(0, round, 0);
            q.push(1, round, 0);
            q.pop(0);
            q.pop(1);
        }
        // High-water mark was 2 concurrent packets: the slab never grew
        // past it despite 200 pushes.
        assert_eq!(q.pool_slots(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_streams_share_the_slab_without_crosstalk() {
        let mut q = StreamQueues::new(3, 16);
        for i in 0..10u32 {
            q.push(i as usize % 3, i, u64::from(i));
        }
        for s in 0..3 {
            let mut expect_seq = 0;
            while let Some(p) = q.pop(s) {
                assert_eq!(p.stream, s);
                assert_eq!(p.seq, expect_seq);
                assert_eq!(p.bytes as usize % 3, s);
                assert_eq!(p.deadline_ns, u64::MAX);
                expect_seq += 1;
            }
        }
        assert_eq!(q.total_len(), 0);
    }

    #[test]
    fn reserve_slots_prewarms_the_slab() {
        let mut q = StreamQueues::with_pool_capacity(1, 64, 16);
        assert_eq!(q.pool_slots(), 16);
        for _ in 0..16 {
            q.push(0, 1, 0);
        }
        assert_eq!(q.pool_slots(), 16);
        q.push(0, 1, 0);
        assert_eq!(q.pool_slots(), 17);
    }

    #[test]
    fn lanes_stripe_by_sequence_number() {
        let mut q = StreamQueues::new(2, 16);
        q.set_lanes(0, 3);
        assert_eq!(q.lanes(0), 3);
        assert_eq!(q.lanes(1), 1);
        for i in 0..7u32 {
            q.push(0, 100 + i, u64::from(i));
        }
        // Lane l holds seqs ≡ l (mod 3).
        assert_eq!(q.lane_head(0, 0).unwrap().seq, 0);
        assert_eq!(q.lane_head(0, 1).unwrap().seq, 1);
        assert_eq!(q.lane_head(0, 2).unwrap().seq, 2);
        assert_eq!(q.pop_lane(0, 1).unwrap().seq, 1);
        assert_eq!(q.pop_lane(0, 1).unwrap().seq, 4);
        assert!(q.lane_backlogged(0, 0));
        // Lane-unaware pop returns the globally oldest packet.
        assert_eq!(q.head(0).unwrap().seq, 0);
        assert_eq!(q.pop(0).unwrap().seq, 0);
        assert_eq!(q.pop(0).unwrap().seq, 2);
        assert_eq!(q.pop(0).unwrap().seq, 3);
        assert_eq!(q.pop(0).unwrap().seq, 5);
        assert_eq!(q.pop(0).unwrap().seq, 6);
        assert!(q.pop(0).is_none());
        assert_eq!(q.len(0), 0);
    }

    #[test]
    fn lanes_leave_other_streams_untouched() {
        let mut q = StreamQueues::new(3, 8);
        q.set_lanes(1, 4);
        q.push(0, 1, 0);
        q.push(1, 2, 0);
        q.push(2, 3, 0);
        assert_eq!(q.pop(0).unwrap().bytes, 1);
        assert_eq!(q.pop(1).unwrap().bytes, 2);
        assert_eq!(q.pop(2).unwrap().bytes, 3);
        assert_eq!(q.streams(), 3);
    }

    #[test]
    fn push_consuming_burns_the_seq_on_full() {
        let mut q = StreamQueues::new(1, 2);
        q.set_lanes(0, 2);
        assert!(q.push_consuming(0, 1, 0)); // seq 0
        assert!(q.push_consuming(0, 1, 0)); // seq 1
        assert!(!q.push_consuming(0, 1, 0)); // full: seq 2 burned
        assert_eq!(q.next_seq(0), 3);
        assert_eq!(q.dropped(0), 1);
        q.pop(0);
        assert!(q.push(0, 1, 0)); // seq 3 → lane 1
        assert_eq!(q.lane_head(0, 1).unwrap().seq, 1);
        // Plain push does NOT burn the seq on full.
        let mut p = StreamQueues::new(1, 1);
        assert!(p.push(0, 1, 0));
        assert!(!p.push(0, 1, 0));
        assert_eq!(p.next_seq(0), 1);
    }

    #[test]
    #[should_panic]
    fn set_lanes_on_used_stream_panics() {
        let mut q = StreamQueues::new(1, 4);
        q.push(0, 1, 0);
        q.set_lanes(0, 2);
    }

    #[test]
    fn wake_journal_fires_on_stream_level_transitions_with_lanes() {
        let mut q = StreamQueues::new(1, 8);
        q.set_lanes(0, 2);
        q.set_wake_logging(true);
        q.push(0, 1, 0); // empty→backlogged: journaled
        q.push(0, 1, 0); // other lane, stream already backlogged: not
        let mut wakes = Vec::new();
        while let Some(s) = q.pop_wake() {
            wakes.push(s);
        }
        assert_eq!(wakes, vec![0]);
    }

    #[test]
    fn wake_journal_records_empty_to_backlogged_transitions() {
        let mut q = StreamQueues::new(3, 4);
        q.push(0, 1, 0); // before enabling: not journaled
        q.set_wake_logging(true);
        q.push(0, 1, 0); // already backlogged: not journaled
        q.push(2, 1, 0); // empty→backlogged: journaled
        q.pop(2);
        q.push(2, 1, 0); // woke again: journaled again
        let mut wakes = Vec::new();
        while let Some(s) = q.pop_wake() {
            wakes.push(s);
        }
        wakes.sort_unstable();
        assert_eq!(wakes, vec![2, 2]);
        q.set_wake_logging(false);
        q.push(1, 1, 0);
        assert!(q.pop_wake().is_none());
    }
}
