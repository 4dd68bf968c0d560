//! Probe-budget conformance matrix: `{periodic, active} planners ×
//! {100, 25, 10}% budgets × {flap, blackout, churn} scenarios`.
//!
//! Each case asserts two things:
//!
//! * **Verdicts** — the `ActivePlanner` keeps the Lemma 1/2 guarantees
//!   at every swept budget, and the `PeriodicPlanner` keeps them at the
//!   full probe rate (the unlimited-equivalent baseline). Budgeted
//!   periodic cases are executed but not gated: blindly thinning a
//!   round-robin schedule is exactly the policy the active planner
//!   exists to beat.
//! * **Spend** — the planner's published probe counts hit the budget's
//!   pro-rata share to within one probe per path (the Bresenham
//!   allowance is exact, not approximate).

use iqpaths_overlay::node::CdfMode;
use iqpaths_overlay::planner::{PlannerKind, ProbeBudget};
use iqpaths_testkit::{run_conformance, ConformanceConfig, FaultScenario};

/// Pinned seed, matching the conformance job.
const SEED: u64 = 11;

/// The planner × budget axis (percent; 100 ≙ the legacy rate).
const CONFIGS: [(PlannerKind, u32); 6] = [
    (PlannerKind::Periodic, 100),
    (PlannerKind::Periodic, 25),
    (PlannerKind::Periodic, 10),
    (PlannerKind::Active, 100),
    (PlannerKind::Active, 25),
    (PlannerKind::Active, 10),
];

fn case(scenario: FaultScenario, planner: PlannerKind, budget_pct: u32) -> ConformanceConfig {
    ConformanceConfig {
        duration: 60.0,
        warmup: 10.0,
        ..ConformanceConfig::new(SEED, CdfMode::Exact, scenario)
    }
    .with_planner(planner, ProbeBudget::percent(budget_pct))
}

fn check_scenario(scenario: FaultScenario) {
    // Budget accounting is judged against the full-rate probe count of
    // the same planner, so the Bresenham share check is exact.
    let mut full_total: Option<u64> = None;
    for (planner, budget_pct) in CONFIGS {
        let label = format!("{}-{}-{budget_pct}", scenario.name(), planner.name());
        let report = run_conformance(case(scenario, planner, budget_pct));
        let total: u64 = report.probe_counts.iter().sum();
        if budget_pct == 100 {
            // Both planners spend the identical full-rate total.
            match full_total {
                None => full_total = Some(total),
                Some(t) => assert_eq!(total, t, "{label}: full-rate totals differ by planner"),
            }
        }
        let full = full_total.expect("100% case runs first") as f64;
        let share = total as f64 / full;
        let want = f64::from(budget_pct) / 100.0;
        assert!(
            (share - want).abs() <= 3.0 / full.max(1.0) + 1e-9,
            "{label}: spent {share:.4} of the full rate, budget is {want:.2}"
        );

        let must_pass = planner == PlannerKind::Active || budget_pct == 100;
        if must_pass {
            for o in &report.outcomes {
                assert!(
                    o.pass,
                    "{label}: {}/{} failed (observed {:.3}, target {:.3}, ε {:.3})",
                    o.stream, o.kind, o.observed, o.target, o.epsilon
                );
            }
        }
    }
}

#[test]
fn probe_budget_matrix_flap() {
    check_scenario(FaultScenario::Flap);
}

#[test]
fn probe_budget_matrix_blackout() {
    check_scenario(FaultScenario::Blackout);
}

#[test]
fn probe_budget_matrix_churn() {
    check_scenario(FaultScenario::Churn);
}
