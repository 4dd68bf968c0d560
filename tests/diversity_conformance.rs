//! Diversity-vs-PGOS conformance matrix: `{pgos, diversity} mappings ×
//! {flap, blackout, churn, uncorrelated, correlated} scenarios`.
//!
//! Each case asserts two things:
//!
//! * **Verdicts** — the `Diversity` mapping keeps the Lemma 1/2
//!   guarantees in every scenario where its premise holds (silent,
//!   uncorrelated loss; capacity faults settle out within the standard
//!   transient). The classic mapping is executed alongside for the
//!   ratio comparison but is only gated where it is expected to hold.
//! * **The headline ratio** — on the `uncorrelated` rotation (one path
//!   silently dead at all times) the coded mapping's
//!   delivered-before-deadline ratio must beat the classic mapping's
//!   by a clear margin, while on the `correlated` all-path black hole
//!   the classic mapping must win or tie: no coding shape decodes
//!   through the loss of every lane at once, so Diversity's extra
//!   parity buys nothing there (DESIGN.md §15, docs/POLICIES.md).

use iqpaths_core::mapping::MappingMode;
use iqpaths_overlay::node::CdfMode;
use iqpaths_testkit::{run_conformance, ConformanceConfig, ConformanceReport, FaultScenario};

/// Pinned seed, matching the conformance job.
const SEED: u64 = 11;

/// Margin by which Diversity must beat the classic mapping on the
/// uncorrelated rotation (the dead path costs uncoded placement far
/// more than this; coding recovers it entirely).
const WIN_MARGIN: f64 = 0.05;

/// Tie tolerance for the correlated black hole (both mappings lose the
/// same blacked-out windows; only sub-percent queueing noise differs).
const TIE_MARGIN: f64 = 0.02;

fn case(scenario: FaultScenario, mapping: MappingMode) -> ConformanceConfig {
    ConformanceConfig {
        duration: 60.0,
        warmup: 10.0,
        ..ConformanceConfig::new(SEED, CdfMode::Exact, scenario)
    }
    .with_mapping(mapping)
}

fn assert_all_pass(label: &str, report: &ConformanceReport) {
    for o in &report.outcomes {
        assert!(
            o.pass,
            "{label}: {}/{} failed (observed {:.3}, target {:.3}, ε {:.3})",
            o.stream, o.kind, o.observed, o.target, o.epsilon
        );
    }
}

/// Coded-vs-classic pair for one scenario, with the coded run's coding
/// stats sanity-checked (both guaranteed streams striped (3, 2), parity
/// actually synthesized).
fn run_pair(scenario: FaultScenario) -> (ConformanceReport, ConformanceReport) {
    let classic = run_conformance(case(scenario, MappingMode::Pgos));
    let coded = run_conformance(case(scenario, MappingMode::Diversity));
    let label = scenario.name();
    assert!(
        classic.report.streams.iter().all(|s| s.coding.is_none()),
        "{label}: classic mapping must stay uncoded"
    );
    for name in ["prob", "vbound"] {
        let c = coded
            .report
            .stream(name)
            .and_then(|s| s.coding.as_ref())
            .unwrap_or_else(|| panic!("{label}: {name} must carry coding stats"));
        assert_eq!((c.n, c.k), (3, 2), "{label}: {name} group shape");
        assert!(c.parity_sent > 0, "{label}: {name} synthesized no parity");
        assert!(c.groups_decoded > 0, "{label}: {name} decoded no groups");
    }
    assert!(
        coded
            .report
            .stream("bulk")
            .is_some_and(|s| s.coding.is_none()),
        "{label}: best-effort streams stay uncoded"
    );
    (classic, coded)
}

#[test]
fn diversity_wins_the_uncorrelated_rotation() {
    let (classic, coded) = run_pair(FaultScenario::Uncorrelated);
    // Transit loss is invisible to capacity monitoring, so every
    // window is eligible and the guarantees are checked across the
    // whole rotation. The coded mapping must hold both lemmas.
    assert_all_pass("uncorrelated/diversity", &coded);
    for i in [0, 1] {
        assert!(
            coded.before_deadline[i] > classic.before_deadline[i] + WIN_MARGIN,
            "stream {i}: diversity {:.3} must beat pgos {:.3} by {WIN_MARGIN}",
            coded.before_deadline[i],
            classic.before_deadline[i],
        );
    }
    // The rotation kills one path at all times; uncoded placement
    // cannot dodge silent loss and visibly bleeds data.
    assert!(
        classic.before_deadline[0] < 0.9,
        "pgos unexpectedly survived the rotation: {:.3}",
        classic.before_deadline[0]
    );
    // Coding recovers essentially everything: any single dead lane is
    // reconstructed from the other two.
    assert!(
        coded.before_deadline[0] > 0.95,
        "diversity ratio {:.3}",
        coded.before_deadline[0]
    );
}

#[test]
fn pgos_wins_or_ties_the_correlated_black_hole() {
    let (classic, coded) = run_pair(FaultScenario::Correlated);
    for i in [0, 1] {
        assert!(
            classic.before_deadline[i] + TIE_MARGIN >= coded.before_deadline[i],
            "stream {i}: pgos {:.3} must win or tie diversity {:.3}",
            classic.before_deadline[i],
            coded.before_deadline[i],
        );
    }
    // Both lose the two 6 s black holes and nothing else.
    assert!(classic.before_deadline[0] < 0.95);
    assert!(coded.before_deadline[0] < 0.95);
}

#[test]
fn diversity_holds_guarantees_under_capacity_faults() {
    // The classic fault trio: capacity faults settle within the
    // standard transient, after which the structural coded mapping
    // must keep Lemma 1/2 without remapping.
    for scenario in [
        FaultScenario::Flap,
        FaultScenario::Blackout,
        FaultScenario::Churn,
    ] {
        let (_, coded) = run_pair(scenario);
        assert_all_pass(&format!("{}/diversity", scenario.name()), &coded);
    }
}
