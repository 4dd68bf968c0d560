//! The zero-allocation contract of probe planning, proven with a
//! counting global allocator: once a planner and the caller's selection
//! buffer have been through one slot, `ProbePlanner::plan_into`
//! performs **zero** heap allocations per slot, for both planners.
//!
//! This file deliberately holds a single `#[test]`: the allocation
//! counter is process-global, and a second concurrently running test
//! would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use iqpaths_overlay::planner::{
    build_planner, PathBelief, PlannerKind, ProbeBudget, ProbePlanner, ProbeSelection,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const PATHS: usize = 32;
const SLOTS: u64 = 1_000;

/// Beliefs that move every slot (so scores and tie-breaks differ from
/// slot to slot), written in place.
fn refresh(beliefs: &mut [PathBelief], slot: u64) {
    for (j, b) in beliefs.iter_mut().enumerate() {
        let h = (slot.wrapping_mul(31) ^ (j as u64 * 7)) % 11;
        b.prob_ok = h as f64 / 10.0;
        b.samples = (h * 40) as usize;
        b.staleness_slots = (h % 3) as f64;
    }
}

#[test]
fn plan_into_allocates_nothing_after_one_slot() {
    // Each path shares a link with its neighbour, so every Active pick
    // applies an overlap row and re-sorts the unpicked tail.
    let incidence: Vec<Vec<u64>> = (0..PATHS as u64)
        .map(|j| vec![j, j + 1, 1_000 + j])
        .collect();
    for (kind, budget) in [
        (PlannerKind::Periodic, ProbeBudget::Unlimited),
        (PlannerKind::Periodic, ProbeBudget::percent(30)),
        (PlannerKind::Active, ProbeBudget::percent(30)),
        (PlannerKind::Active, ProbeBudget::Unlimited),
    ] {
        let mut planner: Box<dyn ProbePlanner> =
            build_planner(kind, PATHS, 7, budget, Some(&incidence));
        let mut beliefs = vec![PathBelief::empty(0); PATHS];
        // The caller sizes its buffer for every path, as the runtime
        // does; one warm-up slot sizes the planner's own scratch.
        let mut out: Vec<ProbeSelection> = Vec::with_capacity(PATHS);
        refresh(&mut beliefs, 0);
        planner.plan_into(0, PATHS, &beliefs, &mut out);
        let before = ALLOCS.load(Ordering::Relaxed);
        let mut picked = 0usize;
        for slot in 1..=SLOTS {
            refresh(&mut beliefs, slot);
            planner.plan_into(slot, PATHS, &beliefs, &mut out);
            picked += out.len();
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(picked > 0, "{kind:?}/{budget:?} never picked a path");
        assert_eq!(
            allocs, 0,
            "{kind:?}/{budget:?}: {allocs} allocations over {SLOTS} slots"
        );
    }
}
