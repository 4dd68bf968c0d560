//! Declarative sweep definitions: the experiment matrix of the
//! reproduction, expressed as data.
//!
//! A [`SweepSpec`] is `templates × seeds`: each template is one
//! `(group, label, kind)` setting, each axis seed replicates the whole
//! template set, and [`SweepSpec::expand`] flattens the product into
//! independent [`CellSpec`]s for the engine. The definitions below
//! mirror the five `iqpaths-bench` binaries (which are now thin
//! wrappers over these sweeps) plus a `smoke` mini-matrix for CI.

use iqpaths_middleware::knobs::{cdf_mode_name, scheduler_name, ExperimentKnobs};
use iqpaths_middleware::SchedulerKind;
use iqpaths_overlay::node::CdfMode;
use iqpaths_testkit::{mode_name, sweep_modes, FaultScenario};

use crate::cell::{CellKind, CellSpec};

/// One sweep setting, replicated across the seed axis.
#[derive(Debug, Clone)]
pub struct CellTemplate {
    /// Study group within the sweep (may be empty).
    pub group: String,
    /// Setting label for report rows.
    pub label: String,
    /// What the cell runs.
    pub kind: CellKind,
    /// Duration override for this template (else the sweep default).
    pub duration: Option<f64>,
}

impl CellTemplate {
    fn new(group: &str, label: &str, kind: CellKind) -> Self {
        Self {
            group: group.to_string(),
            label: label.to_string(),
            kind,
            duration: None,
        }
    }
}

/// A declarative experiment matrix.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (`fault_sweep`, `seed_sweep`, …).
    pub name: &'static str,
    /// One-line description for `harness list`.
    pub about: &'static str,
    /// Default measured duration per cell in seconds.
    pub duration: f64,
    /// Axis seeds (each replicates every template).
    pub seeds: Vec<u64>,
    /// Whether results may be served from / written to the on-disk
    /// cache. `false` for sweeps whose results carry wall-clock
    /// measurements (e.g. `sched_throughput`): a cached timing is a
    /// stale timing, so those cells re-run every invocation.
    pub cacheable: bool,
    /// The settings.
    pub templates: Vec<CellTemplate>,
}

impl SweepSpec {
    /// Flattens `templates × seeds` into independent cells, template-
    /// major (all seeds of a template are adjacent, matching report
    /// grouping).
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.templates.len() * self.seeds.len());
        for t in &self.templates {
            for &seed in &self.seeds {
                cells.push(CellSpec {
                    sweep: self.name.to_string(),
                    group: t.group.clone(),
                    label: t.label.clone(),
                    seed,
                    duration: t.duration.unwrap_or(self.duration),
                    kind: t.kind.clone(),
                });
            }
        }
        cells
    }
}

fn conformance_template(group: &str, mode: CdfMode, scenario: FaultScenario) -> CellTemplate {
    CellTemplate::new(
        group,
        &format!("{}/{}", mode_name(mode), scenario.name()),
        CellKind::Conformance {
            mode: cdf_mode_name(mode),
            scenario: scenario.name().to_string(),
        },
    )
}

fn smartpointer_template(
    group: &str,
    label: &str,
    sched: SchedulerKind,
    knobs: ExperimentKnobs,
) -> CellTemplate {
    CellTemplate::new(
        group,
        label,
        CellKind::SmartPointer {
            scheduler: scheduler_name(sched).to_string(),
            knobs,
            bond2_mbps: None,
            quantize_bytes: None,
        },
    )
}

/// `{Exact, Rolling, Sketch} × {no-fault, flap, blackout, churn}`
/// guarantee conformance (the `fault_sweep` binary).
pub fn fault_sweep(seed: u64, duration: f64) -> SweepSpec {
    let duration = duration.clamp(60.0, 120.0);
    let mut templates = Vec::new();
    for mode in sweep_modes() {
        for scenario in FaultScenario::ALL {
            templates.push(conformance_template("", mode, scenario));
        }
    }
    SweepSpec {
        name: "fault_sweep",
        about: "guarantee conformance across CDF backends x fault scenarios",
        duration,
        seeds: vec![seed],
        cacheable: true,
        templates,
    }
}

/// Figure 11 headline comparison across ten cross-traffic seeds (the
/// `seed_sweep` binary).
pub fn seed_sweep(duration: f64) -> SweepSpec {
    let schedulers = [
        SchedulerKind::Msfq,
        SchedulerKind::Pgos,
        SchedulerKind::OptSched,
    ];
    SweepSpec {
        name: "seed_sweep",
        about: "SmartPointer critical-stream guarantees across 10 seeds x 3 schedulers",
        duration: duration.min(60.0),
        seeds: (1..=10).collect(),
        cacheable: true,
        templates: schedulers
            .into_iter()
            .map(|s| smartpointer_template("", scheduler_name(s), s, ExperimentKnobs::none()))
            .collect(),
    }
}

/// The DESIGN.md §6 ablation studies (the `ablations` binary).
pub fn ablations(seed: u64, duration: f64) -> SweepSpec {
    let mut templates = Vec::new();
    for w in [0.25, 0.5, 1.0, 2.0, 4.0] {
        templates.push(smartpointer_template(
            "abl-window",
            &format!("tw={w}"),
            SchedulerKind::Pgos,
            ExperimentKnobs {
                window_secs: Some(w),
                ..ExperimentKnobs::none()
            },
        ));
    }
    for ks in [0.0, 0.1, 0.2, 0.4, 1.0] {
        templates.push(smartpointer_template(
            "abl-remap",
            &format!("ks={ks}"),
            SchedulerKind::Pgos,
            ExperimentKnobs {
                remap_ks: Some(ks),
                ..ExperimentKnobs::none()
            },
        ));
    }
    for noise in [0.0, 0.05, 0.1, 0.2, 0.3] {
        templates.push(smartpointer_template(
            "abl-noise",
            &format!("noise={noise}"),
            SchedulerKind::Pgos,
            ExperimentKnobs {
                probe_noise: Some(noise),
                ..ExperimentKnobs::none()
            },
        ));
    }
    for load in [40.0, 55.0, 70.0, 85.0] {
        for sched in [SchedulerKind::Pgos, SchedulerKind::Msfq] {
            let mut t = smartpointer_template(
                "abl-load",
                &format!("bond2={load}M/{}", scheduler_name(sched)),
                sched,
                ExperimentKnobs::none(),
            );
            if let CellKind::SmartPointer { bond2_mbps, .. } = &mut t.kind {
                *bond2_mbps = Some(load);
            }
            templates.push(t);
        }
    }
    for mode in [
        CdfMode::Exact,
        CdfMode::Histogram {
            bins: 512,
            resolution: 200,
            max_bw: iqpaths_traces::EMULAB_LINK_CAPACITY,
        },
        CdfMode::Rolling,
        CdfMode::Sketch { markers: 33 },
    ] {
        templates.push(smartpointer_template(
            "abl-hist",
            &cdf_mode_name(mode),
            SchedulerKind::Pgos,
            ExperimentKnobs {
                cdf_mode: Some(mode),
                ..ExperimentKnobs::none()
            },
        ));
    }
    for sched in [SchedulerKind::Msfq, SchedulerKind::Pgos] {
        templates.push(smartpointer_template(
            "abl-buffer",
            scheduler_name(sched),
            sched,
            ExperimentKnobs::none(),
        ));
    }
    // Fluid vs packet-quantized cross traffic (DESIGN.md §2).
    templates.push(smartpointer_template(
        "abl-fluid",
        "fluid",
        SchedulerKind::Pgos,
        ExperimentKnobs::none(),
    ));
    let mut quantized = smartpointer_template(
        "abl-fluid",
        "quantized-1500B",
        SchedulerKind::Pgos,
        ExperimentKnobs::none(),
    );
    if let CellKind::SmartPointer { quantize_bytes, .. } = &mut quantized.kind {
        *quantize_bytes = Some(1500.0);
    }
    templates.push(quantized);

    SweepSpec {
        name: "ablations",
        about: "DESIGN.md \u{a7}6 ablations: window, remap, noise, load, CDF, buffer, fluid",
        duration,
        seeds: vec![seed],
        cacheable: true,
        templates,
    }
}

/// Lemma 1/2 promise-vs-measurement validation across demand levels
/// (the `validation` binary).
pub fn validation(seed: u64, duration: f64) -> SweepSpec {
    SweepSpec {
        name: "validation",
        about: "Lemma 1/2 promises from the truth CDF vs measured service",
        duration,
        seeds: vec![seed],
        cacheable: true,
        templates: [55u32, 70, 85, 95, 105]
            .into_iter()
            .map(|pct| {
                CellTemplate::new(
                    "",
                    &format!("demand={pct}%"),
                    CellKind::Validation { demand_pct: pct },
                )
            })
            .collect(),
    }
}

/// Figure 4 predictor comparison across measurement windows (the
/// `fig04_prediction` binary). The duration is the trace horizon.
pub fn fig04_prediction(seed: u64) -> SweepSpec {
    SweepSpec {
        name: "fig04_prediction",
        about: "Figure 4: mean-predictor error vs percentile failure rate",
        duration: 20_000.0,
        seeds: vec![seed],
        cacheable: true,
        templates: (1..=10u32)
            .map(|k| {
                CellTemplate::new(
                    "",
                    &format!("w={:.1}s", 0.1 * f64::from(k)),
                    CellKind::Prediction { window_ds: k },
                )
            })
            .collect(),
    }
}

/// CI mini-matrix: two seeds, two scenarios, all three sweep CDF
/// backends, at the shortest duration the fault scenarios allow —
/// enough to exercise the full engine path in minutes.
pub fn smoke() -> SweepSpec {
    let mut templates = Vec::new();
    for mode in sweep_modes() {
        for scenario in [FaultScenario::NoFault, FaultScenario::Blackout] {
            templates.push(conformance_template("", mode, scenario));
        }
    }
    SweepSpec {
        name: "smoke",
        about: "CI mini-matrix: 3 CDF backends x 2 scenarios x 2 seeds, short runs",
        duration: 48.0,
        seeds: vec![7, 8],
        cacheable: true,
        templates,
    }
}

/// Probe-budget ablation: `{periodic, active} planners × {100, 50, 25,
/// 10, 5}% budgets × {flap, blackout, churn} fault scenarios`, each
/// cell a full conformance case reporting Lemma 1/2 verdicts plus the
/// planner's per-path probe spend. Everything in the result — verdicts,
/// margins, probe counts — is deterministic, so the sweep caches like
/// the conformance families (the `BENCH_probe_budget.json` artifact
/// carries no wall-clock columns).
pub fn probe_budget(seed: u64, duration: f64) -> SweepSpec {
    let duration = duration.clamp(60.0, 120.0);
    let scenarios = [
        FaultScenario::Flap,
        FaultScenario::Blackout,
        FaultScenario::Churn,
    ];
    let mut templates = Vec::new();
    for scenario in scenarios {
        for planner in ["periodic", "active"] {
            for budget in [100u32, 50, 25, 10, 5] {
                templates.push(CellTemplate::new(
                    scenario.name(),
                    &format!("{planner}/{budget}"),
                    CellKind::ProbeBudget {
                        planner: planner.to_string(),
                        budget_pct: budget,
                        scenario: scenario.name().to_string(),
                    },
                ));
            }
        }
    }
    SweepSpec {
        name: "probe_budget",
        about: "probe planners x budgets x fault scenarios: conformance vs probe spend",
        duration,
        seeds: vec![seed],
        cacheable: true,
        templates,
    }
}

/// Diversity-vs-PGOS mapping matrix: `{pgos, diversity} mappings ×
/// {flap, blackout, churn, uncorrelated, correlated} scenarios`, each
/// cell a full conformance case reporting Lemma 1/2 verdicts, the
/// delivered-before-deadline ratio per guaranteed stream, and the
/// erasure-coding evidence (groups decoded, blocks recovered). The
/// lossy scenarios are the ROADMAP hypothesis: coded striping wins
/// when path failures are uncorrelated and buys nothing when every
/// path blacks out at once — the classic mapping's *expected* lemma
/// failures under `uncorrelated` render as honest `**FAIL**` rows,
/// exactly like the starved budgets of the probe-budget sweep.
/// Everything in the result is deterministic, so the sweep caches.
pub fn diversity(seed: u64, duration: f64) -> SweepSpec {
    let duration = duration.clamp(60.0, 120.0);
    let scenarios = [
        FaultScenario::Flap,
        FaultScenario::Blackout,
        FaultScenario::Churn,
        FaultScenario::Uncorrelated,
        FaultScenario::Correlated,
    ];
    let mut templates = Vec::new();
    for scenario in scenarios {
        for mapping in ["pgos", "diversity"] {
            templates.push(CellTemplate::new(
                scenario.name(),
                mapping,
                CellKind::Diversity {
                    mapping: mapping.to_string(),
                    scenario: scenario.name().to_string(),
                },
            ));
        }
    }
    SweepSpec {
        name: "diversity",
        about: "Diversity vs PGOS mappings x capacity + silent-loss fault scenarios",
        duration,
        seeds: vec![seed],
        cacheable: true,
        templates,
    }
}

/// The scheduling fast-path throughput ladder: the refactored PGOS hot
/// path vs the frozen pre-refactor reference ([`crate::sched_ref`])
/// over `{10, 100, 1k, 10k} streams × {2, 8, 32} paths × {1, 4}
/// workers`. The decision counts, window counts and the fast≡legacy
/// equivalence verdict are deterministic (they feed the checked
/// `EXPERIMENTS.md` block); the packets/sec and speedup columns are
/// wall-clock measurements and only reach the
/// `BENCH_sched_throughput.json` artifact — which is also why this
/// sweep is the one non-cacheable family.
pub fn sched_throughput(seed: u64) -> SweepSpec {
    let mut templates = Vec::new();
    for streams in [10u32, 100, 1_000, 10_000] {
        for paths in [2u32, 8, 32] {
            for workers in [1u32, 4] {
                templates.push(CellTemplate::new(
                    "",
                    &format!("{streams}x{paths}x{workers}"),
                    CellKind::SchedThroughput {
                        streams,
                        paths,
                        workers,
                    },
                ));
            }
        }
    }
    SweepSpec {
        name: "sched_throughput",
        about: "zero-alloc fast path vs pre-refactor reference: streams x paths x workers",
        duration: 1.0,
        seeds: vec![seed],
        cacheable: false,
        templates,
    }
}

/// Graph-scale many-tenant conformance: seeded random overlays
/// (Waxman / preferential attachment), tenants routed over Yen's k
/// cheapest loopless paths, flash-crowd waves + relay churn, per-tenant
/// Lemma 1/2 verdicts. The axes climb `nodes × tenants × k`. The
/// conformance verdicts and throughput *per virtual second* are
/// deterministic and feed the checked `EXPERIMENTS.md` block; the
/// wall-clock packets/sec only reach `BENCH_scalability.json`, which is
/// why the sweep is uncacheable — same policy as `sched_throughput`.
pub fn scalability(seed: u64) -> SweepSpec {
    let axes: [(&str, u32, u32, u32); 6] = [
        ("waxman", 64, 8, 2),
        ("waxman", 64, 16, 2),
        ("ba", 64, 16, 2),
        ("waxman", 128, 32, 3),
        ("waxman", 256, 64, 4),
        ("ba", 256, 64, 4),
    ];
    let templates = axes
        .into_iter()
        .map(|(model, nodes, tenants, k)| {
            CellTemplate::new(
                "",
                &format!("{model}/{nodes}n/{tenants}t/k{k}"),
                CellKind::Scalability {
                    model: model.to_string(),
                    nodes,
                    tenants,
                    k,
                },
            )
        })
        .collect();
    SweepSpec {
        name: "scalability",
        about: "graph-scale many-tenant conformance: nodes x tenants x k",
        duration: 24.0,
        seeds: vec![seed],
        cacheable: false,
        templates,
    }
}

/// Every defined sweep, report order. `seed`/`duration` parameterize
/// the single-seed sweeps exactly like the old `IQP_SEED`/`IQP_DURATION`
/// env knobs (the smoke matrix and the seed-sweep axis stay fixed).
pub fn all_sweeps(seed: u64, duration: f64) -> Vec<SweepSpec> {
    vec![
        fig04_prediction(seed),
        validation(seed, duration),
        fault_sweep(seed, duration.clamp(60.0, 120.0)),
        seed_sweep(duration),
        ablations(seed, duration),
        smoke(),
        probe_budget(seed, duration.clamp(60.0, 120.0)),
        diversity(seed, duration.clamp(60.0, 120.0)),
        scalability(seed),
        sched_throughput(seed),
    ]
}

/// Looks a sweep up by name with the standard knobs applied.
pub fn sweep_by_name(name: &str, seed: u64, duration: f64) -> Option<SweepSpec> {
    all_sweeps(seed, duration)
        .into_iter()
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_counts_match_the_matrix() {
        assert_eq!(fault_sweep(42, 120.0).expand().len(), 12);
        assert_eq!(seed_sweep(60.0).expand().len(), 30);
        assert_eq!(ablations(42, 150.0).expand().len(), 31);
        assert_eq!(validation(42, 150.0).expand().len(), 5);
        assert_eq!(fig04_prediction(42).expand().len(), 10);
        assert_eq!(smoke().expand().len(), 12);
        assert_eq!(probe_budget(42, 120.0).expand().len(), 30);
        assert_eq!(diversity(42, 120.0).expand().len(), 10);
        assert_eq!(scalability(42).expand().len(), 6);
        assert_eq!(sched_throughput(42).expand().len(), 24);
    }

    #[test]
    fn only_wall_clock_sweeps_are_uncacheable() {
        // Both carry wall-clock measurements in their JSON artifacts;
        // a cached timing is a stale timing.
        for sweep in all_sweeps(42, 120.0) {
            assert_eq!(
                sweep.cacheable,
                !matches!(sweep.name, "sched_throughput" | "scalability"),
                "unexpected cacheability for {}",
                sweep.name
            );
        }
    }

    #[test]
    fn cell_ids_are_unique_within_a_sweep() {
        for sweep in all_sweeps(42, 120.0) {
            let mut ids: Vec<String> = sweep.expand().iter().map(CellSpec::id).collect();
            let n = ids.len();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), n, "duplicate cell id in {}", sweep.name);
        }
    }

    #[test]
    fn smoke_duration_clears_the_scenario_floor() {
        // FaultScenario::schedule asserts span > 40 s.
        for cell in smoke().expand() {
            assert!(cell.duration > 40.0);
        }
    }
}
