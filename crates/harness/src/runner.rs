//! Cell execution: turns a [`CellSpec`] into a [`CellResult`].
//!
//! Every cell runs with its *derived* seed ([`CellSpec::cell_seed`]),
//! never the raw axis seed, and touches no global state — the whole
//! function is a pure map from spec to result, which is what lets the
//! engine run cells in any order, on any thread, with a byte-identical
//! outcome. Logic is ported 1:1 from the original `iqpaths-bench`
//! binaries (`fault_sweep`, `seed_sweep`, `ablations`, `validation`,
//! `fig04_prediction`); metric names are the stable contract the
//! report layer renders from.

use iqpaths_apps::smartpointer::{
    SmartPointer, SmartPointerConfig, ATOM, ATOM_BW, BOND1, BOND1_BW,
};
use iqpaths_apps::workload::FramedSource;
use iqpaths_core::guarantee::{lemma1_probability, lemma2_expected_misses};
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_core::stream::StreamSpec;
use iqpaths_middleware::knobs::{mapping_mode_by_name, scheduler_by_name};
use iqpaths_middleware::runtime::{run, RuntimeConfig};
use iqpaths_overlay::node::CdfMode;
use iqpaths_overlay::path::OverlayPath;
use iqpaths_overlay::planner::{PlannerKind, ProbeBudget};
use iqpaths_simnet::link::{quantize_cross, Link};
use iqpaths_simnet::time::SimDuration;
use iqpaths_simnet::topology::{emulab_testbed, PATH_A_ROUTE, PATH_B_ROUTE};
use iqpaths_stats::percentile::{evaluate_mean_prediction, evaluate_percentile_prediction};
use iqpaths_stats::predictors::extended_suite;
use iqpaths_stats::{BandwidthCdf, EmpiricalCdf};
use iqpaths_testkit::{
    mode_by_name, run_conformance, run_scalability, ConformanceConfig, FaultScenario, GraphModel,
    ScalabilityConfig,
};
use iqpaths_traces::envelope::{available_bandwidth, EnvelopeConfig};
use iqpaths_traces::RateTrace;

use crate::cell::{CellKind, CellResult, CellSpec};

/// Executes one cell. Panics on a malformed spec (unknown mode,
/// scenario or scheduler name) — specs come from the in-crate sweep
/// definitions, so that is a programming error, not an input error.
pub fn run_cell(spec: &CellSpec) -> CellResult {
    let mut res = CellResult::for_spec(spec);
    match &spec.kind {
        CellKind::Conformance { mode, scenario } => {
            run_conformance_cell(spec, mode, scenario, &mut res)
        }
        CellKind::SmartPointer {
            scheduler,
            knobs,
            bond2_mbps,
            quantize_bytes,
        } => run_smartpointer_cell(
            spec,
            scheduler,
            knobs,
            *bond2_mbps,
            *quantize_bytes,
            &mut res,
        ),
        CellKind::Validation { demand_pct } => run_validation_cell(spec, *demand_pct, &mut res),
        CellKind::Scalability {
            model,
            nodes,
            tenants,
            k,
        } => run_scalability_cell(spec, model, *nodes, *tenants, *k, &mut res),
        CellKind::Prediction { window_ds } => run_prediction_cell(spec, *window_ds, &mut res),
        CellKind::ProbeBudget {
            planner,
            budget_pct,
            scenario,
        } => run_probe_budget_cell(spec, planner, *budget_pct, scenario, &mut res),
        CellKind::Diversity { mapping, scenario } => {
            run_diversity_cell(spec, mapping, scenario, &mut res)
        }
        CellKind::SchedThroughput {
            streams,
            paths,
            workers,
        } => crate::sched_bench::run_sched_throughput_cell(
            spec, *streams, *paths, *workers, &mut res,
        ),
    }
    res
}

fn run_conformance_cell(spec: &CellSpec, mode: &str, scenario: &str, res: &mut CellResult) {
    let mode = mode_by_name(mode).unwrap_or_else(|| panic!("unknown CDF mode `{mode}`"));
    let scenario =
        FaultScenario::by_name(scenario).unwrap_or_else(|| panic!("unknown scenario `{scenario}`"));
    let mut cfg = ConformanceConfig::new(spec.cell_seed(), mode, scenario);
    cfg.duration = spec.duration;
    let r = run_conformance(cfg);
    for o in &r.outcomes {
        res.metric(&format!("{}.observed", o.kind), o.observed);
        res.metric(&format!("{}.target", o.kind), o.target);
        res.metric(&format!("{}.epsilon", o.kind), o.epsilon);
        res.metric(&format!("{}.windows", o.kind), o.windows as f64);
        res.verdict(&format!("{}.pass", o.kind), o.pass);
    }
    for (j, blocked) in r.report.path_blocked_events.iter().enumerate() {
        res.metric(&format!("path{j}.blocked"), *blocked as f64);
    }
    res.metric("upcalls", r.report.upcalls.len() as f64);
    res.metric("events", r.report.events as f64);
    for (name, value) in r.report.metrics.kv_pairs() {
        res.metric(&name, value);
    }
}

fn run_probe_budget_cell(
    spec: &CellSpec,
    planner: &str,
    budget_pct: u32,
    scenario: &str,
    res: &mut CellResult,
) {
    let planner =
        PlannerKind::by_name(planner).unwrap_or_else(|| panic!("unknown planner `{planner}`"));
    let scenario =
        FaultScenario::by_name(scenario).unwrap_or_else(|| panic!("unknown scenario `{scenario}`"));
    let budget = ProbeBudget::percent(budget_pct);
    let mut cfg = ConformanceConfig::new(spec.cell_seed(), CdfMode::Exact, scenario)
        .with_planner(planner, budget);
    cfg.duration = spec.duration;
    let r = run_conformance(cfg);
    for o in &r.outcomes {
        res.metric(&format!("{}.observed", o.kind), o.observed);
        res.metric(&format!("{}.target", o.kind), o.target);
        res.metric(&format!("{}.epsilon", o.kind), o.epsilon);
        res.metric(&format!("{}.windows", o.kind), o.windows as f64);
        res.verdict(&format!("{}.pass", o.kind), o.pass);
    }
    res.metric("budget_pct", f64::from(budget_pct));
    for (j, n) in r.probe_counts.iter().enumerate() {
        res.metric(&format!("path{j}.probes"), *n as f64);
    }
    res.metric("probes_total", r.probe_counts.iter().sum::<u64>() as f64);
    res.verdict("conformance.pass", r.all_pass());
}

fn run_diversity_cell(spec: &CellSpec, mapping: &str, scenario: &str, res: &mut CellResult) {
    let mapping =
        mapping_mode_by_name(mapping).unwrap_or_else(|| panic!("unknown mapping mode `{mapping}`"));
    let scenario =
        FaultScenario::by_name(scenario).unwrap_or_else(|| panic!("unknown scenario `{scenario}`"));
    let mut cfg =
        ConformanceConfig::new(spec.cell_seed(), CdfMode::Exact, scenario).with_mapping(mapping);
    cfg.duration = spec.duration;
    let r = run_conformance(cfg);
    for o in &r.outcomes {
        res.metric(&format!("{}.observed", o.kind), o.observed);
        res.metric(&format!("{}.target", o.kind), o.target);
        res.metric(&format!("{}.epsilon", o.kind), o.epsilon);
        res.metric(&format!("{}.windows", o.kind), o.windows as f64);
        res.verdict(&format!("{}.pass", o.kind), o.pass);
    }
    // The headline ratio plus the coding evidence, per stream. For the
    // classic mapping every stream is uncoded and only the ratio rows
    // appear — a `diversity`-mapped guaranteed stream additionally
    // reports its group shape and recovery counters.
    for (i, s) in r.report.streams.iter().enumerate() {
        res.metric(&format!("{}.before_deadline", s.name), r.before_deadline[i]);
        if let Some(c) = &s.coding {
            res.metric(&format!("{}.coding_n", s.name), c.n as f64);
            res.metric(&format!("{}.coding_k", s.name), c.k as f64);
            res.metric(&format!("{}.parity_sent", s.name), c.parity_sent as f64);
            res.metric(
                &format!("{}.groups_decoded", s.name),
                c.groups_decoded as f64,
            );
            res.metric(&format!("{}.groups_total", s.name), c.groups_total as f64);
            res.metric(&format!("{}.recovered", s.name), c.recovered as f64);
        }
    }
    res.metric(
        "coded_streams",
        r.report
            .streams
            .iter()
            .filter(|s| s.coding.is_some())
            .count() as f64,
    );
    res.verdict("conformance.pass", r.all_pass());
}

fn run_scalability_cell(
    spec: &CellSpec,
    model: &str,
    nodes: u32,
    tenants: u32,
    k: u32,
    res: &mut CellResult,
) {
    let model =
        GraphModel::by_name(model).unwrap_or_else(|| panic!("unknown graph model `{model}`"));
    let mut cfg = ScalabilityConfig::new(
        spec.cell_seed(),
        model,
        nodes as usize,
        tenants as usize,
        k as usize,
    );
    cfg.duration = spec.duration;
    let t0 = std::time::Instant::now();
    let r = run_scalability(cfg);
    let wall = t0.elapsed().as_secs_f64().max(1e-9);

    // Deterministic evidence (feeds the checked EXPERIMENTS.md block).
    res.metric("nodes", r.nodes as f64);
    res.metric("tenants", r.tenants.len() as f64);
    res.metric("k", r.k as f64);
    res.metric("edges", r.edges as f64);
    res.metric("routes", r.total_routes as f64);
    // The 64-bit generator hash split into exact-in-f64 halves.
    res.metric("graph_hi", (r.graph_hash >> 32) as f64);
    res.metric("graph_lo", (r.graph_hash & 0xffff_ffff) as f64);
    res.metric("packets", r.total_packets as f64);
    res.metric("bytes", r.total_bytes as f64);
    res.metric("vpps", r.virtual_pps);
    let pass = r
        .tenants
        .iter()
        .filter(|t| t.outcomes.iter().all(|o| o.pass))
        .count();
    res.metric("tenants_pass", pass as f64);
    let worst = |kind: &str, init: f64, pick: fn(f64, f64) -> f64| {
        r.tenants
            .iter()
            .flat_map(|t| t.outcomes.iter())
            .filter(|o| o.kind == kind)
            .map(|o| o.observed)
            .fold(init, pick)
    };
    res.metric("lemma1.worst_obs", worst("lemma1", 1.0, f64::min));
    res.metric("lemma2.worst_obs", worst("lemma2", 0.0, f64::max));
    res.verdict("conformance.pass", r.all_pass());

    // Wall-clock throughput: BENCH_scalability.json only, never the
    // checked table.
    res.metric("wall_secs", wall);
    res.metric("pps_wall", r.total_packets as f64 / wall);
}

fn run_smartpointer_cell(
    spec: &CellSpec,
    scheduler: &str,
    knobs: &iqpaths_middleware::ExperimentKnobs,
    bond2_mbps: Option<f64>,
    quantize_bytes: Option<f64>,
    res: &mut CellResult,
) {
    let kind =
        scheduler_by_name(scheduler).unwrap_or_else(|| panic!("unknown scheduler `{scheduler}`"));
    let e = knobs.experiment(spec.cell_seed(), spec.duration);
    let app = SmartPointerConfig {
        bond2_bw: bond2_mbps.map_or(SmartPointerConfig::default().bond2_bw, |m| m * 1.0e6),
        ..SmartPointerConfig::default()
    };

    if let Some(grain) = quantize_bytes {
        // Packet-quantized cross traffic (abl-fluid): rebuild the
        // testbed by hand with the quantized traces, same seed stream.
        let horizon = e.runtime.warmup_secs + spec.duration + 10.0;
        let (cross_a, cross_b) =
            iqpaths_traces::nlanr::figure8_cross_traffic(0.1, horizon, spec.cell_seed());
        let topo = emulab_testbed(
            quantize_cross(&cross_a, grain),
            quantize_cross(&cross_b, grain),
        );
        let paths = vec![
            OverlayPath::new(0, "Path A", topo.route(&PATH_A_ROUTE)),
            OverlayPath::new(1, "Path B", topo.route(&PATH_B_ROUTE)),
        ];
        let app = SmartPointerConfig {
            duration: spec.duration,
            ..app
        };
        let workload = SmartPointer::new(app);
        let specs = SmartPointer::specs(app);
        let sched = kind.build(specs, paths.len(), e.pgos);
        let report = run(&paths, Box::new(workload), sched, e.runtime, spec.duration);
        let atom = report.streams[ATOM].summary();
        let bond1 = report.streams[BOND1].summary();
        res.metric(
            "min_meet_fraction",
            atom.meet_fraction.min(bond1.meet_fraction),
        );
        res.metric(
            "min_ratio95",
            atom.attainment_ratio_95().min(bond1.attainment_ratio_95()),
        );
        res.metric("atom_mean_bps", atom.mean);
        return;
    }

    let out = e.run_smartpointer(app, kind);
    let atom = out.report.streams[ATOM].summary();
    let bond1 = out.report.streams[BOND1].summary();
    res.metric(
        "min_meet_fraction",
        atom.meet_fraction.min(bond1.meet_fraction),
    );
    res.metric(
        "min_ratio95",
        atom.attainment_ratio_95().min(bond1.attainment_ratio_95()),
    );
    res.metric(
        "max_jitter_ms",
        out.frame_jitter[0].max(out.frame_jitter[1]) * 1e3,
    );
    res.metric("atom_mean_bps", atom.mean);
    res.metric("startup_atom_s", out.startup_delay[0]);
    res.metric("startup_bond1_s", out.startup_delay[1]);
    // Client playback buffer implied by the startup delay (abl-buffer).
    res.metric("buffer_atom_bytes", out.startup_delay[0] * ATOM_BW / 8.0);
    res.metric("buffer_bond1_bytes", out.startup_delay[1] * BOND1_BW / 8.0);
    res.metric("frames_atom", out.frames_completed[0] as f64);
    res.metric("frames_bond1", out.frames_completed[1] as f64);
}

fn run_validation_cell(spec: &CellSpec, demand_pct: u32, res: &mut CellResult) {
    // All demand levels must be measured against the *same* path
    // distribution — the sweep compares demand quantiles on one
    // envelope realization — so the seed is derived per family, not
    // per cell.
    let seed = spec.family_seed("validation:path");
    let warmup = 30.0;
    let duration = spec.duration;
    let horizon = warmup + duration + 5.0;
    let cap = 100.0e6;
    let avail = available_bandwidth(
        &EnvelopeConfig {
            capacity: cap,
            util_range: (0.4, 0.55),
            ..Default::default()
        },
        0.1,
        horizon,
        seed,
    );
    let cross = RateTrace::new(
        0.1,
        avail.rates().iter().map(|a| (cap - a).max(0.0)).collect(),
    );
    let link = Link::new("l", cap, SimDuration::from_millis(1)).with_cross_traffic(cross);
    let truth =
        EmpiricalCdf::from_clean_samples(avail.slice(warmup, warmup + duration).rates().to_vec());

    let pkt: u32 = 1250;
    let pkt_bits = f64::from(pkt) * 8.0;
    let median = truth.quantile(0.5).expect("non-empty truth CDF");
    let req = median * f64::from(demand_pct) / 100.0;
    let q = truth.prob_below(req);
    let x = (req / pkt_bits).floor().max(1.0) as u32;
    let rate = f64::from(x) * pkt_bits;
    let promised = lemma1_probability(&truth, x, pkt, 1.0);
    let bound = lemma2_expected_misses(&truth, x, pkt, 1.0);

    let specs = vec![StreamSpec::probabilistic(0, "s", rate, 0.5, pkt)];
    let frame = (rate / (8.0 * 25.0)).round() as u32;
    let w = FramedSource::new(specs.clone(), vec![frame], 25.0, duration);
    let pgos = Pgos::new(PgosConfig::default(), specs, 1);
    let cfg = RuntimeConfig {
        warmup_secs: warmup,
        seed,
        ..Default::default()
    };
    let path = OverlayPath::new(0, "p", vec![link]);
    let report = run(&[path], Box::new(w), Box::new(pgos), cfg, duration);
    let series = &report.streams[0].throughput_series;
    let meet = series.iter().filter(|&&v| v >= 0.99 * rate).count() as f64 / series.len() as f64;
    let shortfall = series
        .iter()
        .map(|&v| (f64::from(x) - v / pkt_bits).max(0.0))
        .sum::<f64>()
        / series.len() as f64;

    res.metric("demand_quantile", q);
    res.metric("rate_bps", rate);
    res.metric("lemma1_prob", promised);
    res.metric("measured_meet", meet);
    res.metric("lemma2_bound", bound);
    res.metric("measured_shortfall", shortfall);
}

fn run_prediction_cell(spec: &CellSpec, window_ds: u32, res: &mut CellResult) {
    let window = 0.1 * f64::from(window_ds);
    let horizon = spec.duration;
    // One seed across all window sizes (like the original
    // `fig04_prediction` bin): the sweep compares averaging windows
    // over a common generator stream, not over fresh realizations.
    let seed = spec.family_seed("fig04:trace");
    let series: Vec<f64> = available_bandwidth(&EnvelopeConfig::default(), window, horizon, seed)
        .rates()
        .to_vec();
    let mut errs = Vec::new();
    let mut names = Vec::new();
    for predictor in &mut extended_suite(32) {
        names.push(predictor.name().to_lowercase());
        errs.push(evaluate_mean_prediction(&series, predictor.as_mut()));
    }
    for (name, err) in names.iter().zip(&errs) {
        res.metric(&format!("{name}_err"), *err);
    }
    // The paper's "mean prediction error" aggregates the MA family
    // (the first four predictors of the suite).
    res.metric("mean_err", errs[..4].iter().sum::<f64>() / 4.0);
    let n_hist = 500.min(series.len() / 3).max(10);
    let report = evaluate_percentile_prediction(&series, n_hist, 5, 0.9);
    res.metric("percentile_failure_rate", report.failure_rate());
}
