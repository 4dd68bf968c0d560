//! Golden-trace regression suite.
//!
//! Pinned-seed scenarios serialize their *decision-level* trace
//! (window boundaries, CDF digests, mapping decisions, upcalls,
//! blocking/backoff — see `TraceEvent::is_decision`) to JSONL and diff
//! it against `tests/golden/*.jsonl`. Any change to monitoring,
//! mapping, or scheduling decisions shows up as a readable line diff.
//!
//! When a decision change is *intended*, refresh the goldens with
//! `UPDATE_GOLDEN=1 cargo test --test golden_trace` and commit the
//! diff — the point is that decision changes are reviewed, never
//! silent. A copy of each regenerated trace is also dropped under
//! `target/experiments/traces/` for CI artifact upload.
//!
//! The compare/refresh/artifact machinery itself lives in
//! `iqpaths_testkit::golden` (shared with the scalability golden
//! suite); this file only owns the pinned scenarios.

use iqpaths_overlay::node::CdfMode;
use iqpaths_overlay::planner::{PlannerKind, ProbeBudget};
use iqpaths_testkit::{
    check_golden_trace, decisions_jsonl, run_conformance, run_conformance_traced,
    ConformanceConfig, FaultScenario,
};

/// Pinned seed, matching the conformance job.
const SEED: u64 = 11;

/// The refresh command cited by divergence panics.
const REFRESH: &str = "cargo test --test golden_trace";

fn golden_case(scenario: FaultScenario) -> ConformanceConfig {
    ConformanceConfig {
        duration: 60.0,
        warmup: 10.0,
        ..ConformanceConfig::new(SEED, CdfMode::Exact, scenario)
    }
}

/// Runs a golden scenario and compares (or, under `UPDATE_GOLDEN=1`,
/// rewrites) its pinned decision trace.
fn check_golden(scenario: FaultScenario, name: &str) {
    check_golden_cfg(golden_case(scenario), name);
}

fn check_golden_cfg(cfg: ConformanceConfig, name: &str) {
    let (_, events) = run_conformance_traced(cfg);
    check_golden_trace(name, REFRESH, &events);
}

#[test]
fn golden_no_fault_decision_trace() {
    check_golden(FaultScenario::NoFault, "no_fault.jsonl");
}

#[test]
fn golden_flap_decision_trace() {
    check_golden(FaultScenario::Flap, "flap.jsonl");
}

#[test]
fn golden_probe_budget_flap_decision_trace() {
    // The active planner under a 25% budget: its `probe_plan` /
    // `probe_select` decisions land in the golden alongside the
    // mapping/window decisions they perturb, so any scoring or
    // tie-break change is reviewed as a line diff.
    check_golden_cfg(
        golden_case(FaultScenario::Flap)
            .with_planner(PlannerKind::Active, ProbeBudget::percent(25)),
        "probe_budget_flap.jsonl",
    );
}

#[test]
fn traced_equals_untraced_under_active_planner() {
    // Planner trace emission must not perturb the planned schedule or
    // the run it drives.
    let case = golden_case(FaultScenario::Flap)
        .with_planner(PlannerKind::Active, ProbeBudget::percent(25));
    let untraced = run_conformance(case);
    let (traced, events) = run_conformance_traced(case);
    assert!(!events.is_empty());
    assert_eq!(untraced.report, traced.report);
    assert_eq!(untraced.probe_counts, traced.probe_counts);
    assert_eq!(untraced.eligible_windows, traced.eligible_windows);
}

#[test]
fn default_planner_emits_no_planner_events() {
    // With the default periodic/unlimited configuration the planner is
    // pass-through and must stay invisible — the pre-planner goldens
    // depend on it.
    let (_, events) = run_conformance_traced(golden_case(FaultScenario::Flap));
    assert!(!events
        .iter()
        .any(|e| matches!(e.kind(), "probe_plan" | "probe_select")));
}

#[test]
fn golden_traces_are_bit_stable_across_runs() {
    // Two identical runs must serialize byte-identically — the property
    // that makes the golden diff meaningful at all.
    let case = golden_case(FaultScenario::Flap);
    let (_, a) = run_conformance_traced(case);
    let (_, b) = run_conformance_traced(case);
    assert_eq!(a.len(), b.len(), "event counts differ between runs");
    assert_eq!(decisions_jsonl(&a), decisions_jsonl(&b));
}

#[test]
fn decision_trace_is_a_small_subset() {
    // The golden files stay reviewable: decision events are a tiny
    // fraction of the full packet-level trace.
    let (_, events) = run_conformance_traced(golden_case(FaultScenario::Flap));
    let decisions = events.iter().filter(|e| e.is_decision()).count();
    assert!(decisions > 0);
    assert!(
        decisions * 10 < events.len(),
        "decision events ({decisions}) should be < 10% of the trace ({})",
        events.len()
    );
}
