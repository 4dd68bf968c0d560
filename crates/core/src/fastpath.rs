//! Allocation-free priority primitives for the scheduling fast path.
//!
//! The PGOS fallback (Table 1 rules 2/3) used to scan every backlogged
//! stream per decision. The refactored scheduler instead keeps each
//! backlogged stream in exactly one of three priority structures keyed
//! on VP/VS virtual deadlines (see `scheduler.rs` and DESIGN.md §12)
//! and pays O(log n) per touched stream. All three are a [`Heap4`]: a
//! 4-ary implicit heap over a reusable `Vec`, with exact key order,
//! O(1) min peek, shallow (log₄) sift paths and zero allocation once
//! the backing vector reaches its high-water mark.
//!
//! Entries are `(key, stream, stamp)` triples. Staleness is handled by
//! the *caller* through lazy invalidation: the scheduler bumps a
//! per-stream stamp whenever a stream's classification changes and
//! discards popped entries whose stamp no longer matches. The heap
//! does not support in-place decrease-key — it is never needed.

/// One entry in a [`Heap4`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<K> {
    /// Priority key (smaller = sooner).
    pub key: K,
    /// Owning stream index.
    pub stream: u32,
    /// Generation stamp for lazy invalidation.
    pub stamp: u64,
}

/// A 4-ary implicit min-heap over a reusable vector.
///
/// Keys need only be `Ord + Copy`; ties (if the key type permits them)
/// pop in an unspecified but deterministic order, so callers that need
/// a total order must fold the tie-break into the key (the scheduler
/// appends the stream index).
#[derive(Debug, Clone, Default)]
pub struct Heap4<K: Ord + Copy> {
    items: Vec<Entry<K>>,
}

impl<K: Ord + Copy> Heap4<K> {
    /// An empty heap. The backing vector grows to the workload's
    /// high-water mark and is then reused forever.
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Number of live entries (including stale ones not yet popped).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no entries remain.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drops all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The minimum entry, if any.
    pub fn peek(&self) -> Option<&Entry<K>> {
        self.items.first()
    }

    /// Inserts an entry.
    pub fn push(&mut self, key: K, stream: u32, stamp: u64) {
        self.items.push(Entry { key, stream, stamp });
        let mut i = self.items.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.items[parent].key <= self.items[i].key {
                break;
            }
            self.items.swap(parent, i);
            i = parent;
        }
    }

    /// Removes and returns the minimum entry.
    pub fn pop(&mut self) -> Option<Entry<K>> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let top = self.items.pop();
        let mut i = 0;
        loop {
            let first_child = 4 * i + 1;
            if first_child >= self.items.len() {
                break;
            }
            let mut min_child = first_child;
            for c in (first_child + 1)..(first_child + 4).min(self.items.len()) {
                if self.items[c].key < self.items[min_child].key {
                    min_child = c;
                }
            }
            if self.items[i].key <= self.items[min_child].key {
                break;
            }
            self.items.swap(i, min_child);
            i = min_child;
        }
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_pops_in_key_order() {
        let mut h = Heap4::new();
        for (i, k) in [5u64, 1, 9, 3, 7, 2, 8, 0, 6, 4].iter().enumerate() {
            h.push(*k, i as u32, 0);
        }
        let mut keys = Vec::new();
        while let Some(e) = h.pop() {
            keys.push(e.key);
        }
        assert_eq!(keys, (0..10).collect::<Vec<u64>>());
        assert!(h.is_empty());
    }

    #[test]
    fn heap_peek_matches_pop() {
        let mut h = Heap4::new();
        h.push((3u64, 1u32), 1, 10);
        h.push((1u64, 7u32), 7, 11);
        h.push((1u64, 2u32), 2, 12);
        assert_eq!(h.peek().unwrap().key, (1, 2));
        let e = h.pop().unwrap();
        assert_eq!((e.key, e.stream, e.stamp), ((1, 2), 2, 12));
        assert_eq!(h.pop().unwrap().stream, 7);
        assert_eq!(h.pop().unwrap().stream, 1);
        assert!(h.pop().is_none());
    }

    #[test]
    fn heap_clear_retains_capacity() {
        let mut h = Heap4::new();
        for i in 0..100u32 {
            h.push(u64::from(i), i, 0);
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        h.push(1, 1, 1);
        assert_eq!(h.pop().unwrap().key, 1);
    }

    #[test]
    fn heap_randomized_against_sorted_order() {
        // Deterministic splitmix-style stream of keys.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let mut h = Heap4::new();
        let mut reference = Vec::new();
        for i in 0..1000u32 {
            // Unique keys: fold the index in.
            let k = ((next() >> 16) << 10) | u64::from(i);
            h.push(k, i, 0);
            reference.push(k);
        }
        reference.sort_unstable();
        let mut got = Vec::new();
        while let Some(e) = h.pop() {
            got.push(e.key);
        }
        assert_eq!(got, reference);
    }
}
