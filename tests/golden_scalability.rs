//! Golden decision trace for the graph-scale scenario family, plus
//! pinned generator hashes.
//!
//! One 64-node / 16-tenant Waxman case serializes its decision-level
//! trace (all tenants concatenated in tenant order, stream ids remapped
//! to `tenant · STREAMS_PER_TENANT + local`) and diffs it against
//! `tests/golden/scalability_waxman.jsonl`. Any change to graph
//! generation, Yen's path enumeration order, contention compilation or
//! the scheduler's decisions shows up as a readable line diff; refresh
//! intended changes with `UPDATE_GOLDEN=1 cargo test --test
//! golden_scalability` and review the diff in the commit.
//!
//! The generator-determinism test pins the `GraphGen` hash for both
//! wiring models at both matrix scales: a drifting hash means the
//! random-graph family silently changed under every consumer — the
//! sweep tables, the conformance matrix and this golden file.
//!
//! The route-pinning test hashes every tenant's Yen routes at the
//! 256-node / 64-tenant scale the benchmark compiles, where the golden
//! trace's 64-node case is too small to exercise the deep spur searches
//! and cost ties of a dense graph.

use iqpaths_simnet::fault::fnv1a64;
use iqpaths_testkit::{
    check_golden_trace, compile_scalability, run_scalability_traced, GraphGen, GraphModel,
    ScalabilityConfig, STREAMS_PER_TENANT,
};

/// Pinned seed, matching the conformance matrix.
const SEED: u64 = 2024;

/// The refresh command cited by divergence panics.
const REFRESH: &str = "cargo test --test golden_scalability";

fn golden_case() -> ScalabilityConfig {
    ScalabilityConfig {
        duration: 12.0,
        warmup: 3.0,
        settle_secs: 3.0,
        ..ScalabilityConfig::new(SEED, GraphModel::by_name("waxman").unwrap(), 64, 16, 2)
    }
}

#[test]
fn golden_scalability_waxman_decision_trace() {
    let (report, events) = run_scalability_traced(golden_case());
    assert!(
        report.all_pass(),
        "failing tenants: {:?}",
        report.failing_tenants()
    );
    check_golden_trace("scalability_waxman.jsonl", REFRESH, &events);
}

#[test]
fn traced_streams_cover_every_tenant() {
    let (report, events) = run_scalability_traced(golden_case());
    let tenants = report.tenants.len();
    // Global ids partition into per-tenant blocks of STREAMS_PER_TENANT;
    // every tenant's block must appear in the trace.
    let mut seen = vec![false; tenants];
    for s in events.iter().filter_map(|e| e.stream()) {
        let t = s as usize / STREAMS_PER_TENANT;
        assert!(t < tenants, "stream id {s} out of range");
        seen[t] = true;
    }
    assert!(
        seen.iter().all(|&b| b),
        "tenant missing from trace: {seen:?}"
    );
}

#[test]
fn generator_hashes_are_pinned() {
    // Frozen: a change here invalidates every recorded scalability
    // experiment and golden trace. Regenerate deliberately (and refresh
    // the goldens + EXPERIMENTS.md tables) or not at all.
    for (model, nodes, hash, edges) in [
        ("waxman", 64usize, 0xe3a5_965f_e0f3_0756_u64, 397usize),
        ("waxman", 256, 0xf416_cfde_fec4_8aac, 5985),
        ("ba", 64, 0xdb59_7ba6_7b35_2ed4, 125),
        ("ba", 256, 0x936d_0bb1_3593_3c34, 509),
    ] {
        let g = GraphGen {
            seed: SEED,
            nodes,
            model: GraphModel::by_name(model).unwrap(),
            ..GraphGen::default()
        }
        .build();
        assert_eq!(
            g.graph_hash(),
            hash,
            "{model}/{nodes}n generator drifted (got {:#018x})",
            g.graph_hash()
        );
        assert_eq!(g.edges.len(), edges, "{model}/{nodes}n edge count drifted");
    }
}

#[test]
fn tenant_routes_are_pinned() {
    // Frozen: every tenant's (src, dst) and its k routes in Yen order,
    // rendered one tenant per line and FNV-1a hashed. A drift means
    // path enumeration (cost, tie-break or candidate order) changed
    // under every scalability table, golden trace and ledger row.
    for (seed, model, hash) in [
        (42u64, "waxman", 0x32d3_6bc2_d328_61ca_u64),
        (SEED, "ba", 0x59f6_89cb_e715_f311),
    ] {
        let cfg = ScalabilityConfig::new(seed, GraphModel::by_name(model).unwrap(), 256, 64, 4);
        let mut canon = String::new();
        for t in compile_scalability(&cfg).tenants {
            canon.push_str(&format!("{} {}->{}:", t.tenant, t.src, t.dst));
            for route in &t.routes {
                let ids: Vec<String> = route.iter().map(|n| n.0.to_string()).collect();
                canon.push_str(&format!(" {}", ids.join(",")));
            }
            canon.push('\n');
        }
        assert_eq!(
            fnv1a64(canon.as_bytes()),
            hash,
            "{model}/seed {seed} routes drifted (got {:#018x})",
            fnv1a64(canon.as_bytes())
        );
    }
}
