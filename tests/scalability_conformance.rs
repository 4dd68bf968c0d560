//! Graph-scale many-tenant conformance matrix.
//!
//! {64, 256} nodes × {8, 64} tenants: every tenant — routed over Yen's
//! k cheapest loopless paths of a seeded Waxman overlay, under
//! shared-bottleneck contention, a flash-crowd wave and relay churn —
//! must pass its Lemma 1/2 checks, and two identical runs must render
//! byte-identically ([`ScalabilityReport::render`] is the compare
//! surface).

use iqpaths_testkit::{run_scalability, GraphModel, ScalabilityConfig, ScalabilityReport};

/// Pinned seed for the whole matrix.
const SEED: u64 = 2024;

/// One matrix cell's config: the shortest duration the wave/churn
/// script allows, so the full matrix stays CI-sized.
fn cfg(nodes: usize, tenants: usize) -> ScalabilityConfig {
    ScalabilityConfig {
        duration: 12.0,
        warmup: 3.0,
        settle_secs: 3.0,
        ..ScalabilityConfig::new(
            SEED,
            GraphModel::by_name("waxman").unwrap(),
            nodes,
            tenants,
            2,
        )
    }
}

fn assert_every_tenant_conforms(cell: &str, r: &ScalabilityReport, tenants: usize) {
    assert_eq!(r.tenants.len(), tenants, "{cell}: tenant count");
    for t in &r.tenants {
        assert!(t.routes >= 1, "{cell}: tenant {} got no route", t.tenant);
        assert!(
            t.delivered_packets > 0,
            "{cell}: tenant {} starved",
            t.tenant
        );
        // One Lemma 1 (probabilistic) + one Lemma 2 (violation-bound)
        // verdict per tenant; best-effort streams assert nothing.
        assert_eq!(t.outcomes.len(), 2, "{cell}: tenant {}", t.tenant);
    }
    assert!(
        r.all_pass(),
        "{cell}: tenants {:?} failed a lemma check:\n{}",
        r.failing_tenants(),
        r.render()
    );
}

/// Runs one (nodes, tenants) cell.
fn assert_cell(nodes: usize, tenants: usize) {
    let cell = format!("waxman_{nodes}n_{tenants}t");
    let report = run_scalability(cfg(nodes, tenants));
    assert_every_tenant_conforms(&cell, &report, tenants);
}

#[test]
fn waxman_64_nodes_8_tenants() {
    assert_cell(64, 8);
}

#[test]
fn waxman_64_nodes_64_tenants() {
    assert_cell(64, 64);
}

#[test]
fn waxman_256_nodes_8_tenants() {
    assert_cell(256, 8);
}

#[test]
fn waxman_256_nodes_64_tenants() {
    assert_cell(256, 64);
}

#[test]
fn runs_are_repeatable() {
    // Two identical runs serialize byte-identically — the precondition
    // for the golden scalability trace to be meaningful.
    let a = run_scalability(cfg(64, 8));
    let b = run_scalability(cfg(64, 8));
    assert_eq!(a.render(), b.render());
}
