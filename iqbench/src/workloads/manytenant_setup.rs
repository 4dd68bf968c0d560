//! Graph-scale many-tenant family: set-up (Waxman graph, Yen k-paths,
//! cross-traffic traces) is a large part of the total, and per-run
//! fixed cost rather than steady state sets the per-packet time.

use super::{framed_25fps, scaled, time_ms, RunInput, WorkloadDef};
use crate::sim::SimCounts;
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_middleware::runtime::RuntimeConfig;
use iqpaths_overlay::graph::OverlayNodeId;
use iqpaths_simnet::fault::salted_seed;
use iqpaths_testkit::manytenant::{compile, run_scalability, ScalabilityConfig};
use iqpaths_testkit::topology::GraphModel;

pub const DEF: WorkloadDef = WorkloadDef {
    name: "manytenant_setup",
    why: "256-node Waxman graph, 64 tenants x 4 Yen paths, 64 short runs: the cell where set-up and per-run fixed cost, not steady state, set the numbers",
    params: "ScalabilityConfig::new(seed, waxman, 256 nodes, 64 tenants, k=4): compile() is the set-up, then 64 back-to-back \
             24 s runs (4 streams x <=4 paths, waves + churn, warm-up 6 s, history 50, per-tenant salted seed), Pgos default",
    build,
    setup_drives,
    cross_check: Some(cross_check),
};

/// The configuration, shared with the correctness gate that re-runs it
/// through `testkit::manytenant::run_scalability`.
pub fn config(seed: u64, quick: bool) -> ScalabilityConfig {
    let tenants = if quick { 16 } else { 64 };
    let base = ScalabilityConfig::new(
        seed,
        GraphModel::by_name("waxman").expect("known model"),
        256,
        tenants,
        4,
    );
    ScalabilityConfig {
        // The wave/churn script needs at least 12 s.
        duration: scaled(base.duration, quick).max(12.0),
        ..base
    }
}

/// Mirrors the serial arm of `testkit::manytenant::run_scalability`.
fn build(seed: u64, quick: bool) -> Vec<RunInput> {
    let cfg = config(seed, quick);
    let specs = ScalabilityConfig::tenant_streams();
    compile(&cfg)
        .tenants
        .into_iter()
        .map(|ct| RunInput {
            scheduler: Box::new(Pgos::new(
                PgosConfig::default(),
                specs.clone(),
                ct.paths.len(),
            )),
            workload: Box::new(framed_25fps(&specs, cfg.duration)),
            cfg: RuntimeConfig {
                warmup_secs: cfg.warmup,
                history_samples: 50,
                seed: salted_seed(cfg.seed, &format!("tenant:{}", ct.tenant)),
                cdf_mode: cfg.mode,
                ..RuntimeConfig::default()
            },
            paths: ct.paths,
            specs: specs.clone(),
            duration: cfg.duration,
            faults: ct.faults,
        })
        .collect()
}

/// `compile()` as a whole, and its two dominant parts driven through
/// their own public functions: Yen's k-shortest paths per tenant, and
/// the cross-traffic trace of every hop of every route.
fn setup_drives(seed: u64, quick: bool) -> Vec<(&'static str, f64)> {
    let cfg = config(seed, quick);
    let compiled = compile(&cfg);
    let graph = &compiled.graph;
    let kpaths_ms = time_ms(quick, || {
        for t in &compiled.tenants {
            std::hint::black_box(graph.graph.k_shortest_paths(
                OverlayNodeId(t.src),
                OverlayNodeId(t.dst),
                cfg.k,
            ));
        }
    });
    let traces_ms = time_ms(quick, || {
        for hop in compiled
            .tenants
            .iter()
            .flat_map(|t| &t.routes)
            .flat_map(|route| route.windows(2))
        {
            std::hint::black_box(graph.link(hop[0], hop[1], 0.0));
        }
    });
    vec![
        (
            "testkit.manytenant.compile_ms",
            time_ms(quick, || compile(&cfg)),
        ),
        (
            "overlay.graph.kpaths_ms_per_tenant",
            kpaths_ms / compiled.tenants.len() as f64,
        ),
        ("traces.gen_ms", traces_ms),
    ]
}

/// The packet total must equal an untimed `run_scalability` of the
/// same configuration: the benchmark's hand-assembled runs are the
/// runs the program's own many-tenant family makes.
fn cross_check(seed: u64, quick: bool, counts: &SimCounts) -> Result<(), String> {
    let reference = run_scalability(config(seed, quick)).total_packets;
    if reference == counts.delivered_packets {
        Ok(())
    } else {
        Err(format!(
            "manytenant_setup delivered {} packets, testkit::manytenant::run_scalability {}",
            counts.delivered_packets, reference
        ))
    }
}
