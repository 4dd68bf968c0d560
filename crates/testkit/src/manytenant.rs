//! Graph-scale many-tenant scenario families.
//!
//! The paper's testbed has one server→client pair over two disjoint
//! paths; a production overlay has hundreds of tenants routed over a
//! large random graph, contending for shared bottlenecks. This module
//! compiles that setting down to the machinery the rest of the
//! workspace already trusts:
//!
//! 1. a seeded [`GraphGen`] builds the overlay ([`GraphModel::Waxman`]
//!    or preferential attachment),
//! 2. each tenant draws a `(src, dst)` pair and routes over its k
//!    cheapest loopless paths (`OverlayGraph::k_shortest_paths`),
//! 3. shared-bottleneck contention becomes extra ambient cross traffic
//!    on every edge (each tenant sees the *other* tenants' guaranteed
//!    demand, spread evenly over their routes),
//! 4. a flash-crowd wave degrades the hottest edge mid-run and relay
//!    churn blacks out every path through the highest-degree node, both
//!    expressed as ordinary [`FaultSchedule`] scripts with local path
//!    indices,
//! 5. each tenant then runs the standard runtime unchanged, and its
//!    guarantees are checked with the same [`lemma_outcomes`] the
//!    single-tenant conformance suite uses.
//!
//! Determinism: the graph, the tenant pairs, the contention map and
//! every per-tenant runtime seed are salted-splitmix64 derivations of
//! [`ScalabilityConfig::seed`], so a scalability report is a pure
//! function of its config — tenants may be re-run in any order (or not
//! at all) without perturbing each other.

use crate::scenario::{eligible_windows, lemma_outcomes, mode_name, LemmaOutcome};
use crate::topology::{GeneratedGraph, GraphGen, GraphModel};
use iqpaths_apps::workload::FramedSource;
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_core::stream::StreamSpec;
use iqpaths_middleware::runtime::{run_traced, RuntimeConfig};
use iqpaths_overlay::graph::OverlayNodeId;
use iqpaths_overlay::node::CdfMode;
use iqpaths_overlay::path::OverlayPath;
use iqpaths_simnet::fault::{salted_seed, Fault, FaultSchedule};
use iqpaths_trace::{shared, InMemorySink, TraceEvent, TraceHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Streams each tenant drives (fixed, so global trace stream ids are
/// `tenant · STREAMS_PER_TENANT + local`).
pub const STREAMS_PER_TENANT: usize = 4;

/// One graph-scale scalability case.
#[derive(Debug, Clone, Copy)]
pub struct ScalabilityConfig {
    /// Master seed: graph, tenant pairs, contention and per-tenant
    /// runtime streams all derive from it.
    pub seed: u64,
    /// Overlay node count.
    pub nodes: usize,
    /// Tenant ((src, dst) pair) count.
    pub tenants: usize,
    /// Paths requested per tenant (Yen's k; a tenant gets fewer only
    /// when the graph has fewer simple paths).
    pub k: usize,
    /// Wiring model.
    pub model: GraphModel,
    /// Monitoring CDF backend.
    pub mode: CdfMode,
    /// Measured duration in seconds (after warm-up, ≥ 12).
    pub duration: f64,
    /// Monitoring-only warm-up in seconds.
    pub warmup: f64,
    /// Confidence level of every statistical assertion.
    pub confidence: f64,
    /// Adaptation transient excluded after each capacity change point.
    pub settle_secs: f64,
    /// Inject the flash-crowd wave on the hottest edge.
    pub waves: bool,
    /// Inject relay churn at the highest-degree node.
    pub churn: bool,
}

impl ScalabilityConfig {
    /// The standard case: 24 s measured, 6 s warm-up, 99% confidence,
    /// 4 s settle, waves + churn on.
    pub fn new(seed: u64, model: GraphModel, nodes: usize, tenants: usize, k: usize) -> Self {
        Self {
            seed,
            nodes,
            tenants,
            k,
            model,
            mode: CdfMode::Exact,
            duration: 24.0,
            warmup: 6.0,
            confidence: 0.99,
            settle_secs: 4.0,
            waves: true,
            churn: true,
        }
    }

    /// The per-tenant stream mix: one probabilistic (2 Mbps at
    /// p = 0.9), one violation-bound (1.5 Mbps, ≤ 30 expected
    /// misses/window), two best-effort (0.5 Mbps each). Guaranteed
    /// demand (3.5 Mbps) is tiny against generated edge capacities
    /// (≥ 200 Mbps), so conformance is about adaptation, not admission.
    pub fn tenant_streams() -> Vec<StreamSpec> {
        vec![
            StreamSpec::probabilistic(0, "prob", 2.0e6, 0.9, 1250),
            StreamSpec::violation_bound(1, "vbound", 1.5e6, 30.0, 1250),
            StreamSpec::best_effort(2, "bulk-a", 0.5e6, 1250),
            StreamSpec::best_effort(3, "bulk-b", 0.5e6, 1250),
        ]
    }
}

/// Guaranteed (admission-relevant) demand of one tenant in bits/s.
fn tenant_guaranteed_bw() -> f64 {
    ScalabilityConfig::tenant_streams()
        .iter()
        .map(|s| s.required_bw)
        .sum()
}

/// One tenant's compiled slice of the scenario.
#[derive(Debug, Clone)]
pub struct CompiledTenant {
    /// Tenant index.
    pub tenant: usize,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// The k cheapest loopless routes, Yen order.
    pub routes: Vec<Vec<OverlayNodeId>>,
    /// One overlay path per route (contention-adjusted links).
    pub paths: Vec<OverlayPath>,
    /// Flash-crowd + churn script over this tenant's local path
    /// indices.
    pub faults: FaultSchedule,
}

/// The fully compiled scenario: graph + per-tenant paths/faults, ready
/// for the unchanged runtime.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// The generated overlay.
    pub graph: GeneratedGraph,
    /// Per-tenant slices, tenant order.
    pub tenants: Vec<CompiledTenant>,
    /// The flash-crowd target (highest aggregate guaranteed demand),
    /// when any tenant routes exist.
    pub hot_edge: Option<(usize, usize)>,
    /// The churn target (highest-degree node).
    pub hub: Option<usize>,
}

/// Compiles a config down to graph + per-tenant paths and fault
/// scripts. Pure function of the config.
///
/// # Panics
/// Panics on zero tenants, `k = 0`, fewer than 8 nodes, or a measured
/// duration under 12 s (the wave/churn script needs room).
pub fn compile(cfg: &ScalabilityConfig) -> CompiledScenario {
    assert!(cfg.tenants >= 1, "need at least one tenant");
    assert!(cfg.k >= 1, "need at least one path per tenant");
    assert!(cfg.nodes >= 8, "graph-scale scenarios start at 8 nodes");
    assert!(cfg.duration >= 12.0, "wave/churn script needs >= 12 s");
    let horizon = cfg.warmup + cfg.duration + 10.0;
    let graph = GraphGen {
        seed: cfg.seed,
        nodes: cfg.nodes,
        model: cfg.model,
        horizon,
        ..GraphGen::default()
    }
    .build();

    // Tenant pairs + routes.
    let mut rng = StdRng::seed_from_u64(salted_seed(cfg.seed, "tenants"));
    let mut routed: Vec<(usize, usize, Vec<Vec<OverlayNodeId>>)> = (0..cfg.tenants)
        .map(|_| {
            let src = rng.gen_range(0..cfg.nodes);
            let mut dst = rng.gen_range(0..cfg.nodes);
            while dst == src {
                dst = rng.gen_range(0..cfg.nodes);
            }
            let routes =
                graph
                    .graph
                    .k_shortest_paths(OverlayNodeId(src), OverlayNodeId(dst), cfg.k);
            assert!(!routes.is_empty(), "generated graphs are connected");
            (src, dst, routes)
        })
        .collect();

    // Shared-bottleneck contention: every tenant's guaranteed demand,
    // spread evenly over its routes, accumulates on each edge the route
    // crosses. A tenant's own contribution is subtracted back out when
    // its links are compiled — it already injects that load itself.
    let per_tenant_bw = tenant_guaranteed_bw();
    let mut demand: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (_, _, routes) in &routed {
        let share = per_tenant_bw / routes.len() as f64;
        for route in routes {
            for w in route.windows(2) {
                *demand.entry(GeneratedGraph::key(w[0], w[1])).or_insert(0.0) += share;
            }
        }
    }
    let hot_edge = demand
        .iter()
        .fold(
            None,
            |best: Option<((usize, usize), f64)>, (&e, &d)| match best {
                Some((_, bd)) if bd >= d => best,
                _ => Some((e, d)),
            },
        )
        .map(|(e, _)| e);
    let hub = (0..cfg.nodes)
        .fold(None, |best: Option<(usize, usize)>, n| {
            let deg = graph.graph.neighbors(OverlayNodeId(n)).len();
            match best {
                Some((_, bd)) if bd >= deg => best,
                _ => Some((n, deg)),
            }
        })
        .map(|(n, _)| n);

    // Wave/churn script instants (absolute emulation time).
    let wave_down = cfg.warmup + 0.25 * cfg.duration;
    let wave_up = wave_down + 0.25 * cfg.duration;
    let churn_down = cfg.warmup + 0.70 * cfg.duration;
    // Churn span stays within the settle window so fully-blocked
    // tenants lose those windows to the eligibility filter instead of
    // failing their lemmas on them.
    let churn_up = churn_down + cfg.settle_secs.min(3.0);

    let tenants = routed
        .drain(..)
        .enumerate()
        .map(|(t, (src, dst, routes))| {
            let share = per_tenant_bw / routes.len() as f64;
            let paths: Vec<OverlayPath> = routes
                .iter()
                .enumerate()
                .map(|(j, route)| {
                    let links = route
                        .windows(2)
                        .map(|w| {
                            let key = GeneratedGraph::key(w[0], w[1]);
                            let cap = graph.edges[&key].capacity;
                            // Ambient contention = everyone else's load
                            // on this edge, as a utilization fraction
                            // (clamped so residual never collapses
                            // without an injected fault).
                            let own = if route_crosses(route, key) {
                                share
                            } else {
                                0.0
                            };
                            let extra = ((demand[&key] - own) / cap).clamp(0.0, 0.25);
                            graph.link(w[0], w[1], extra)
                        })
                        .collect();
                    OverlayPath::new(j, format!("T{t}-P{j}"), links)
                })
                .collect();

            let mut faults = FaultSchedule::new();
            if cfg.waves {
                if let Some(hot) = hot_edge {
                    for (j, route) in routes.iter().enumerate() {
                        if route_crosses(route, hot) {
                            // The flash crowd shaves 15% off the hot
                            // edge: mild enough that settled-degrade
                            // windows still meet the lemmas (the
                            // paper's keep-guarantees-while-degraded
                            // claim), abrupt enough to force a CDF
                            // re-learn.
                            faults.push(
                                wave_down,
                                Fault::Degrade {
                                    path: j,
                                    factor: 0.85,
                                },
                            );
                            faults.push(wave_up, Fault::Restore { path: j });
                        }
                    }
                }
            }
            if cfg.churn {
                if let Some(hub) = hub {
                    let through: Vec<usize> = routes
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.iter().any(|n| n.0 == hub))
                        .map(|(j, _)| j)
                        .collect();
                    if !through.is_empty() {
                        faults.churn(&through, churn_down, churn_up);
                    }
                }
            }

            CompiledTenant {
                tenant: t,
                src,
                dst,
                routes,
                paths,
                faults,
            }
        })
        .collect();

    CompiledScenario {
        graph,
        tenants,
        hot_edge,
        hub,
    }
}

fn route_crosses(route: &[OverlayNodeId], key: (usize, usize)) -> bool {
    route
        .windows(2)
        .any(|w| GeneratedGraph::key(w[0], w[1]) == key)
}

/// Per-tenant verdicts and throughput totals.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant index.
    pub tenant: usize,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Routes the tenant actually got.
    pub routes: usize,
    /// Lemma 1/2 verdicts (one per guaranteed stream).
    pub outcomes: Vec<LemmaOutcome>,
    /// Packets delivered across all four streams.
    pub delivered_packets: u64,
    /// Bytes delivered across all four streams.
    pub delivered_bytes: u64,
}

/// Outcome of one scalability case.
#[derive(Debug, Clone)]
pub struct ScalabilityReport {
    /// Model name (`waxman` / `ba`).
    pub model: &'static str,
    /// CDF-mode name.
    pub mode: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Requested k.
    pub k: usize,
    /// Pinned generator hash of the underlying graph.
    pub graph_hash: u64,
    /// Undirected edge count.
    pub edges: usize,
    /// Sum of per-tenant route counts.
    pub total_routes: usize,
    /// Per-tenant outcomes, tenant order.
    pub tenants: Vec<TenantOutcome>,
    /// Packets delivered across all tenants.
    pub total_packets: u64,
    /// Bytes delivered across all tenants.
    pub total_bytes: u64,
    /// Delivered packets per *virtual* second (deterministic; the
    /// wall-clock rate belongs in `BENCH_scalability.json`, never in a
    /// checked table).
    pub virtual_pps: f64,
}

impl ScalabilityReport {
    /// True when every tenant passed every lemma check.
    pub fn all_pass(&self) -> bool {
        self.tenants
            .iter()
            .all(|t| t.outcomes.iter().all(|o| o.pass))
    }

    /// Tenants with at least one failing check.
    pub fn failing_tenants(&self) -> Vec<usize> {
        self.tenants
            .iter()
            .filter(|t| t.outcomes.iter().any(|o| !o.pass))
            .map(|t| t.tenant)
            .collect()
    }

    /// Canonical full rendering — every deterministic field of every
    /// tenant — used by the repeatability tests to bit-compare runs.
    pub fn render(&self) -> String {
        let mut out = format!(
            "scalability model={} mode={} nodes={} k={} graph={:#018x} edges={} routes={}\n",
            self.model,
            self.mode,
            self.nodes,
            self.k,
            self.graph_hash,
            self.edges,
            self.total_routes,
        );
        for t in &self.tenants {
            out.push_str(&format!(
                "tenant {} n{}->n{} routes={} pkts={} bytes={}",
                t.tenant, t.src, t.dst, t.routes, t.delivered_packets, t.delivered_bytes
            ));
            for o in &t.outcomes {
                out.push_str(&format!(
                    " | {} {} obs={:.6} tgt={:.6} eps={:.6} w={} {}",
                    o.kind,
                    o.stream,
                    o.observed,
                    o.target,
                    o.epsilon,
                    o.windows,
                    if o.pass { "pass" } else { "FAIL" },
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "total packets={} bytes={} vpps={:.3}\n",
            self.total_packets, self.total_bytes, self.virtual_pps
        ));
        out
    }
}

/// Runs one scalability case end to end.
pub fn run_scalability(cfg: ScalabilityConfig) -> ScalabilityReport {
    run_compiled(cfg, None)
}

/// Runs one scalability case with an in-memory decision trace attached:
/// per-tenant event streams are concatenated in tenant order with local
/// stream ids remapped to `tenant · STREAMS_PER_TENANT + local`, so one
/// golden file pins the whole scenario.
pub fn run_scalability_traced(cfg: ScalabilityConfig) -> (ScalabilityReport, Vec<TraceEvent>) {
    let mut events = Vec::new();
    let report = run_compiled(cfg, Some(&mut events));
    (report, events)
}

fn run_compiled(
    cfg: ScalabilityConfig,
    mut trace_out: Option<&mut Vec<TraceEvent>>,
) -> ScalabilityReport {
    let compiled = compile(&cfg);
    let specs = ScalabilityConfig::tenant_streams();
    let frames: Vec<u32> = specs
        .iter()
        .map(|s| (s.required_bw.max(s.weight) / (8.0 * 25.0)).round() as u32)
        .collect();

    let mut tenants = Vec::with_capacity(compiled.tenants.len());
    let mut total_packets = 0u64;
    let mut total_bytes = 0u64;
    let mut total_routes = 0usize;
    for ct in &compiled.tenants {
        let rt = RuntimeConfig {
            warmup_secs: cfg.warmup,
            history_samples: 50,
            seed: salted_seed(cfg.seed, &format!("tenant:{}", ct.tenant)),
            cdf_mode: cfg.mode,
            ..RuntimeConfig::default()
        };
        let workload = FramedSource::new(specs.clone(), frames.clone(), 25.0, cfg.duration);
        let n_windows = (cfg.duration / rt.monitor_window_secs).ceil() as usize;
        let mut misses = vec![vec![0.0f64; n_windows]; specs.len()];
        let mut on_delivery = |d: &iqpaths_middleware::DeliveryEvent| {
            if d.missed_deadline {
                let w = ((d.delivered / rt.monitor_window_secs) as usize).min(n_windows - 1);
                misses[d.stream][w] += 1.0;
            }
        };
        let (sink, trace) = if trace_out.is_some() {
            let (sink, trace) = shared(InMemorySink::unbounded());
            (Some(sink), trace)
        } else {
            (None, TraceHandle::null())
        };
        let scheduler = Pgos::new(PgosConfig::default(), specs.clone(), ct.paths.len());
        let report = run_traced(
            &ct.paths,
            Box::new(workload),
            Box::new(scheduler),
            rt,
            cfg.duration,
            &ct.faults,
            trace,
            &mut on_delivery,
        );
        if let (Some(sink), Some(out)) = (sink, trace_out.as_deref_mut()) {
            let base = (ct.tenant * STREAMS_PER_TENANT) as u32;
            out.extend(
                sink.borrow()
                    .events()
                    .into_iter()
                    .map(|e| e.map_stream(|s| base + s)),
            );
        }

        let changes = ct.faults.capacity_change_times();
        let eligible = eligible_windows(
            n_windows,
            cfg.warmup,
            rt.monitor_window_secs,
            &changes,
            cfg.settle_secs,
        );
        let outcomes = lemma_outcomes(
            &specs,
            &report,
            &misses,
            &eligible,
            rt.monitor_window_secs,
            cfg.confidence,
        );
        let delivered_packets: u64 = report.streams.iter().map(|s| s.delivered_packets).sum();
        let delivered_bytes: u64 = report.streams.iter().map(|s| s.delivered_bytes).sum();
        total_packets += delivered_packets;
        total_bytes += delivered_bytes;
        total_routes += ct.routes.len();
        tenants.push(TenantOutcome {
            tenant: ct.tenant,
            src: ct.src,
            dst: ct.dst,
            routes: ct.routes.len(),
            outcomes,
            delivered_packets,
            delivered_bytes,
        });
    }

    ScalabilityReport {
        model: cfg.model.canon(),
        mode: mode_name(cfg.mode),
        nodes: cfg.nodes,
        k: cfg.k,
        graph_hash: compiled.graph.graph_hash(),
        edges: compiled.graph.edges.len(),
        total_routes,
        tenants,
        total_packets,
        total_bytes,
        virtual_pps: total_packets as f64 / cfg.duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScalabilityConfig {
        ScalabilityConfig {
            duration: 12.0,
            warmup: 3.0,
            ..ScalabilityConfig::new(5, GraphModel::by_name("waxman").unwrap(), 16, 2, 2)
        }
    }

    #[test]
    fn compile_is_deterministic() {
        let a = compile(&small());
        let b = compile(&small());
        assert_eq!(a.graph.graph_hash(), b.graph.graph_hash());
        assert_eq!(a.hot_edge, b.hot_edge);
        assert_eq!(a.hub, b.hub);
        assert_eq!(a.tenants.len(), 2);
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(ta.routes, tb.routes);
            assert_eq!(ta.faults, tb.faults);
            assert_eq!(ta.src, tb.src);
            assert_eq!(ta.dst, tb.dst);
        }
    }

    #[test]
    fn tenants_route_over_their_k_paths() {
        let c = compile(&small());
        for t in &c.tenants {
            assert!(!t.routes.is_empty() && t.routes.len() <= 2);
            assert_eq!(t.paths.len(), t.routes.len());
            for (route, path) in t.routes.iter().zip(&t.paths) {
                assert_eq!(route.first().unwrap().0, t.src);
                assert_eq!(route.last().unwrap().0, t.dst);
                assert_eq!(path.links().len(), route.len() - 1);
            }
        }
    }

    #[test]
    fn small_case_passes_and_renders_stably() {
        let cfg = small();
        let a = run_scalability(cfg);
        let b = run_scalability(cfg);
        assert_eq!(a.render(), b.render());
        assert!(a.all_pass(), "failing tenants: {:?}", a.failing_tenants());
        assert!(a.total_packets > 0);
        assert_eq!(a.tenants.len(), 2);
        for t in &a.tenants {
            // One lemma 1 + one lemma 2 verdict per tenant.
            assert_eq!(t.outcomes.len(), 2);
        }
    }

    #[test]
    fn traced_run_remaps_stream_ids_per_tenant() {
        let (report, events) = run_scalability_traced(small());
        assert!(report.all_pass());
        let max_stream = events.iter().filter_map(|e| e.stream()).max().unwrap_or(0);
        assert!(max_stream >= STREAMS_PER_TENANT as u32);
        assert!(max_stream < (2 * STREAMS_PER_TENANT) as u32);
    }
}
