//! Canonical fault scenarios and the guarantee-conformance runner.
//!
//! A conformance case is `(seed, CdfMode, FaultScenario)`: the runner
//! generates a seeded 3-path topology, drives a fixed 3-stream mix
//! (probabilistic, violation-bound, best-effort) through PGOS under the
//! scenario's [`FaultSchedule`], and checks the paper's two guarantees
//! empirically:
//!
//! * **Lemma 1** — in each *eligible* monitor window, the probabilistic
//!   stream receives its required bandwidth; the success frequency must
//!   be at least `p` up to a Hoeffding tolerance ([`BernoulliCheck`]).
//! * **Lemma 2** — the violation-bound stream's deadline misses per
//!   eligible window must average at most its bound up to a
//!   range-scaled Hoeffding tolerance ([`BoundedMeanCheck`]).
//!
//! Eligible windows exclude an adaptation transient of
//! [`ConformanceConfig::settle_secs`] after every capacity change
//! point: the lemmas assume the monitored CDF describes the current
//! path, which takes one rolling window of probes to become true again
//! after an abrupt shift. Everything else — including windows *during*
//! a settled fault — is checked, because keeping guarantees while
//! degraded is the paper's claim.

use crate::stats::{BernoulliCheck, BoundedMeanCheck};
use crate::topology::TopologyGen;
use iqpaths_apps::workload::FramedSource;
use iqpaths_core::mapping::MappingMode;
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_core::stream::{Guarantee, StreamSpec};
use iqpaths_middleware::report::RunReport;
use iqpaths_middleware::runtime::{run_traced_counted, RuntimeConfig};
use iqpaths_overlay::node::CdfMode;
use iqpaths_overlay::planner::{PlannerKind, ProbeBudget};
use iqpaths_simnet::fault::{Fault, FaultSchedule};
use iqpaths_trace::{shared, InMemorySink, TraceEvent, TraceHandle};

/// The scenario axis of the conformance sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// No injected faults (the regression baseline).
    NoFault,
    /// Path 0 repeatedly degrades to 25% capacity (10 s down out of
    /// every 30 s) with probe loss while degraded and a probe-reporting
    /// delay on path 1.
    Flap,
    /// Path 0 fully blocked for 12 s mid-run, plus a client-side
    /// reordering burst on path 1.
    Blackout,
    /// A shared relay node carrying paths 0 and 1 leaves twice for 4 s,
    /// blacking out both paths simultaneously.
    Churn,
    /// Loss-heavy, *uncorrelated* silent failure: exactly one path at a
    /// time silently eats every data packet ([`Fault::TransitLoss`] at
    /// probability 1), rotating through the paths on a 30 s cycle so
    /// some path is dead at every instant of the measured run. Transit
    /// loss is invisible to probing and is not a capacity change, so
    /// every window stays lemma-eligible — the scenario erasure-coded
    /// path diversity exists to win.
    Uncorrelated,
    /// Loss-heavy, *correlated* silent failure: twice per run, every
    /// path simultaneously eats all data packets for 6 s (a shared
    /// upstream black hole). No coding shape with all lanes on the
    /// affected paths can decode through it, so path diversity buys
    /// nothing over whole-path-first placement here — the honest
    /// counter-case to [`FaultScenario::Uncorrelated`].
    Correlated,
}

impl FaultScenario {
    /// The classic conformance sweep axis. The loss-heavy pair
    /// ([`FaultScenario::Uncorrelated`] / [`FaultScenario::Correlated`])
    /// is deliberately *not* here: it exists for the mapping-mode
    /// (`diversity`) sweep, and adding it to `ALL` would silently grow
    /// every existing conformance matrix and invalidate pinned
    /// expansion counts.
    pub const ALL: [FaultScenario; 4] = [
        FaultScenario::NoFault,
        FaultScenario::Flap,
        FaultScenario::Blackout,
        FaultScenario::Churn,
    ];

    /// The loss-heavy scenario pair of the `diversity` sweep, in sweep
    /// order: the uncorrelated rotation coding survives, then the
    /// correlated black hole it cannot.
    pub const LOSSY: [FaultScenario; 2] = [FaultScenario::Uncorrelated, FaultScenario::Correlated];

    /// Scenario name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::NoFault => "no-fault",
            FaultScenario::Flap => "flap",
            FaultScenario::Blackout => "blackout",
            FaultScenario::Churn => "churn",
            FaultScenario::Uncorrelated => "uncorrelated",
            FaultScenario::Correlated => "correlated",
        }
    }

    /// Inverse of [`FaultScenario::name`], for sweep cells that carry
    /// the scenario as a canonical string.
    pub fn by_name(name: &str) -> Option<FaultScenario> {
        FaultScenario::ALL
            .into_iter()
            .chain(FaultScenario::LOSSY)
            .find(|s| s.name() == name)
    }

    /// The scenario's fault script over absolute emulation time
    /// `[start, end)` (start = end of warm-up). Requires ≥ 2 paths.
    pub fn schedule(self, start: f64, end: f64) -> FaultSchedule {
        let span = end - start;
        assert!(span > 40.0, "scenarios need a reasonable run length");
        let mut s = FaultSchedule::new();
        match self {
            FaultScenario::NoFault => {}
            FaultScenario::Flap => {
                s.flap(0, 0.25, start + 5.0, end - 5.0, 30.0, 10.0);
                // Degraded telemetry rides along: probes on path 0 drop
                // 30% while the path flaps, path 1 reports 0.5 s late.
                s.push(start + 5.0, Fault::ProbeLoss { path: 0, prob: 0.3 });
                s.push(end - 5.0, Fault::ProbeLoss { path: 0, prob: 0.0 });
                s.push(
                    start + 5.0,
                    Fault::ProbeDelay {
                        path: 1,
                        delay: 0.5,
                    },
                );
            }
            FaultScenario::Blackout => {
                let mid = start + span / 2.0;
                s.blackout(0, mid - 6.0, mid + 6.0);
                s.push(
                    mid,
                    Fault::ReorderBurst {
                        path: 1,
                        span: 3.0,
                        jitter: 0.002,
                    },
                );
            }
            FaultScenario::Churn => {
                let q1 = start + span * 0.25;
                let q3 = start + span * 0.75;
                s.churn(&[0, 1], q1, q1 + 4.0);
                s.churn(&[0, 1], q3, q3 + 4.0);
            }
            FaultScenario::Uncorrelated => {
                // Paths 0, 1, 2 take turns eating every data packet:
                // path p is dead during the p-th 10 s third of each
                // 30 s cycle, so exactly one path is down at all times.
                let cycle = 30.0;
                let phase = cycle / 3.0;
                let cycles = (span / cycle).ceil() as usize;
                for c in 0..cycles {
                    for p in 0..3 {
                        let from = start + c as f64 * cycle + p as f64 * phase;
                        let to = (from + phase).min(end);
                        if from < end {
                            s.transit_loss(p, from, to, 1.0);
                        }
                    }
                }
            }
            FaultScenario::Correlated => {
                let q1 = start + span * 0.25;
                let q3 = start + span * 0.75;
                for p in 0..3 {
                    s.transit_loss(p, q1, q1 + 6.0, 1.0);
                    s.transit_loss(p, q3, q3 + 6.0, 1.0);
                }
            }
        }
        s
    }
}

/// One conformance case.
#[derive(Debug, Clone, Copy)]
pub struct ConformanceConfig {
    /// Topology + runtime seed.
    pub seed: u64,
    /// Monitoring CDF backend under test.
    pub mode: CdfMode,
    /// Fault scenario.
    pub scenario: FaultScenario,
    /// Measured duration in seconds (after warm-up).
    pub duration: f64,
    /// Monitoring-only warm-up in seconds.
    pub warmup: f64,
    /// Confidence level of every statistical assertion.
    pub confidence: f64,
    /// Adaptation transient excluded after each capacity change point.
    pub settle_secs: f64,
    /// Probe planner driving the main monitoring loop
    /// ([`PlannerKind::Periodic`] = the legacy schedule).
    pub planner: PlannerKind,
    /// Probe budget the planner spends ([`ProbeBudget::Unlimited`] =
    /// the legacy probe-everything rate).
    pub probe_budget: ProbeBudget,
    /// PGOS resource-mapping mode under test
    /// ([`MappingMode::Pgos`] = classic whole-path-first placement,
    /// bit-identical to every pre-Diversity release).
    pub mapping: MappingMode,
}

impl ConformanceConfig {
    /// The standard case: 120 s measured, 20 s warm-up, 99% confidence,
    /// 10 s settle.
    pub fn new(seed: u64, mode: CdfMode, scenario: FaultScenario) -> Self {
        Self {
            seed,
            mode,
            scenario,
            duration: 120.0,
            warmup: 20.0,
            confidence: 0.99,
            settle_secs: 10.0,
            planner: PlannerKind::Periodic,
            probe_budget: ProbeBudget::Unlimited,
            mapping: MappingMode::Pgos,
        }
    }

    /// Same case under a non-default probe planner and budget.
    #[must_use]
    pub fn with_planner(mut self, planner: PlannerKind, budget: ProbeBudget) -> Self {
        self.planner = planner;
        self.probe_budget = budget;
        self
    }

    /// Same case under a different PGOS resource-mapping mode.
    #[must_use]
    pub fn with_mapping(mut self, mapping: MappingMode) -> Self {
        self.mapping = mapping;
        self
    }
}

/// Verdict of one lemma check on one stream.
#[derive(Debug, Clone)]
pub struct LemmaOutcome {
    /// Stream name.
    pub stream: String,
    /// `"lemma1"` or `"lemma2"`.
    pub kind: &'static str,
    /// Observed statistic: success fraction `p̂` (Lemma 1) or mean
    /// misses per window (Lemma 2).
    pub observed: f64,
    /// Guaranteed value: `p` (at least) or the miss bound (at most).
    pub target: f64,
    /// Hoeffding tolerance applied.
    pub epsilon: f64,
    /// Eligible windows backing the check.
    pub windows: u64,
    /// Whether the check passed within tolerance.
    pub pass: bool,
}

/// Full outcome of one conformance case.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// CDF-mode name.
    pub mode: &'static str,
    /// The underlying run report (deterministic per seed).
    pub report: RunReport,
    /// Indices of the eligible monitor windows.
    pub eligible_windows: Vec<usize>,
    /// One outcome per guaranteed stream.
    pub outcomes: Vec<LemmaOutcome>,
    /// Per-path main-loop probe spend, published by the runtime's
    /// probe planner.
    pub probe_counts: Vec<u64>,
    /// Per-stream fraction of offered data delivered before its
    /// deadline — the headline metric of the `diversity` sweep. Coded
    /// streams count at decode-complete granularity
    /// (`CodingStats::delivered_before_deadline`); uncoded streams
    /// count on-time deadline deliveries over offered packets.
    pub before_deadline: Vec<f64>,
}

impl ConformanceReport {
    /// True when every lemma check passed.
    pub fn all_pass(&self) -> bool {
        self.outcomes.iter().all(|o| o.pass)
    }

    /// Markdown table rows (one per outcome) for EXPERIMENTS.md.
    pub fn table_rows(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.3} | {:.3} | {:.3} | {} | {} |\n",
                self.scenario,
                self.mode,
                o.stream,
                o.kind,
                o.observed,
                o.target,
                o.epsilon,
                o.windows,
                if o.pass { "pass" } else { "FAIL" },
            ));
        }
        out
    }

    /// Header matching [`ConformanceReport::table_rows`].
    pub fn table_header() -> &'static str {
        "| scenario | mode | stream | check | observed | target | epsilon | windows | verdict |\n\
         |---|---|---|---|---|---|---|---|---|\n"
    }
}

/// Short name of a [`CdfMode`].
pub fn mode_name(mode: CdfMode) -> &'static str {
    match mode {
        CdfMode::Exact => "exact",
        CdfMode::Histogram { .. } => "histogram",
        CdfMode::Rolling => "rolling",
        CdfMode::Sketch { .. } => "sketch",
    }
}

/// The three CDF backends the conformance suite sweeps.
pub fn sweep_modes() -> [CdfMode; 3] {
    [
        CdfMode::Exact,
        CdfMode::Rolling,
        CdfMode::Sketch { markers: 33 },
    ]
}

/// Resolves a canonical backend name to its standard sweep
/// configuration: `exact`, `rolling`, `sketch33` (Figure 4's 33-marker
/// P²-style sketch), or `histogram512` (the ablation-study histogram at
/// 512 bins over the Emulab link capacity). Inverse of
/// `iqpaths_middleware::knobs::cdf_mode_name` over these four.
pub fn mode_by_name(name: &str) -> Option<CdfMode> {
    Some(match name {
        "exact" => CdfMode::Exact,
        "rolling" => CdfMode::Rolling,
        "sketch33" => CdfMode::Sketch { markers: 33 },
        "histogram512" => CdfMode::Histogram {
            bins: 512,
            resolution: 200,
            max_bw: iqpaths_traces::EMULAB_LINK_CAPACITY,
        },
        _ => return None,
    })
}

/// Monitor windows not overlapping `[τ, τ + settle_secs)` for any
/// capacity change point `τ` (times absolute; window `w` spans
/// `[warmup + w·window_secs, warmup + (w+1)·window_secs)`). The lemmas
/// assume the monitored CDF describes the current path, which takes one
/// rolling window of probes to become true again after an abrupt
/// capacity shift — everything else, including windows *during* a
/// settled fault, is checked.
pub fn eligible_windows(
    n_windows: usize,
    warmup: f64,
    window_secs: f64,
    changes: &[f64],
    settle_secs: f64,
) -> Vec<usize> {
    (0..n_windows)
        .filter(|&w| {
            let a = warmup + w as f64 * window_secs;
            let b = a + window_secs;
            changes.iter().all(|&t| b <= t || t + settle_secs <= a)
        })
        .collect()
}

/// Lemma 1/2 verdicts for one run: per guaranteed stream in `specs`,
/// checks the report's per-window throughput series (Lemma 1,
/// [`BernoulliCheck`]) or the attributed per-window deadline-miss
/// matrix (Lemma 2, [`BoundedMeanCheck`]) over the eligible windows.
/// `misses[stream][window]` must be indexed like `specs`; best-effort
/// streams produce no outcome. Shared by the single-tenant conformance
/// runner and the graph-scale many-tenant family, so every sweep
/// anywhere in the workspace applies the identical statistical test.
pub fn lemma_outcomes(
    specs: &[StreamSpec],
    report: &RunReport,
    misses: &[Vec<f64>],
    eligible: &[usize],
    monitor_window_secs: f64,
    confidence: f64,
) -> Vec<LemmaOutcome> {
    specs
        .iter()
        .enumerate()
        .filter_map(|(i, spec)| match spec.guarantee {
            Guarantee::Probabilistic { p } => {
                let series = &report.streams[i].throughput_series;
                let successes = eligible
                    .iter()
                    .filter(|&&w| series.get(w).copied().unwrap_or(0.0) >= spec.required_bw - 1.0)
                    .count() as u64;
                let check = BernoulliCheck {
                    successes,
                    trials: eligible.len() as u64,
                };
                Some(LemmaOutcome {
                    stream: spec.name.clone(),
                    kind: "lemma1",
                    observed: check.fraction(),
                    target: p,
                    epsilon: check.epsilon(confidence),
                    windows: check.trials,
                    pass: check.meets_at_least(p, confidence),
                })
            }
            Guarantee::ViolationBound {
                max_expected_misses,
            } => {
                let samples: Vec<f64> = eligible.iter().map(|&w| misses[i][w]).collect();
                // One window's misses are bounded by its packet budget.
                let range =
                    spec.required_bw * monitor_window_secs / (8.0 * spec.packet_bytes as f64);
                let check = BoundedMeanCheck::from_samples(&samples, range);
                Some(LemmaOutcome {
                    stream: spec.name.clone(),
                    kind: "lemma2",
                    observed: check.mean(),
                    target: max_expected_misses,
                    epsilon: check.epsilon(confidence),
                    windows: check.n,
                    pass: check.meets_at_most(max_expected_misses, confidence),
                })
            }
            Guarantee::BestEffort => None,
        })
        .collect()
}

/// The fixed stream mix: one probabilistic (8 Mbps at p = 0.9), one
/// violation-bound (6 Mbps, ≤ 30 expected misses/window), one
/// best-effort (4 Mbps nominal). Total guaranteed demand (14 Mbps)
/// stays feasible on any single generated path, so churn never makes
/// admission impossible.
pub fn conformance_streams() -> Vec<StreamSpec> {
    vec![
        StreamSpec::probabilistic(0, "prob", 8.0e6, 0.9, 1250),
        StreamSpec::violation_bound(1, "vbound", 6.0e6, 30.0, 1250),
        StreamSpec::best_effort(2, "bulk", 4.0e6, 1250),
    ]
}

/// Runs one conformance case end to end.
pub fn run_conformance(cfg: ConformanceConfig) -> ConformanceReport {
    run_case(cfg, TraceHandle::null())
}

/// Runs one conformance case with an in-memory decision trace attached,
/// returning the report and the full event log. This is the entry point
/// of the trace-invariant and golden-trace suites: same deterministic
/// run as [`run_conformance`], plus the evidence to check it against.
pub fn run_conformance_traced(cfg: ConformanceConfig) -> (ConformanceReport, Vec<TraceEvent>) {
    let (sink, trace) = shared(InMemorySink::unbounded());
    let report = run_case(cfg, trace);
    let events = sink.borrow().events();
    (report, events)
}

fn run_case(cfg: ConformanceConfig, trace: TraceHandle) -> ConformanceReport {
    let horizon = cfg.warmup + cfg.duration + 10.0;
    let gen = TopologyGen {
        seed: cfg.seed,
        horizon,
        ..TopologyGen::default()
    };
    let paths = gen.build();
    let specs = conformance_streams();
    let frames: Vec<u32> = specs
        .iter()
        .map(|s| (s.required_bw.max(s.weight) / (8.0 * 25.0)).round() as u32)
        .collect();
    let workload = FramedSource::new(specs.clone(), frames, 25.0, cfg.duration);
    let rt = RuntimeConfig {
        warmup_secs: cfg.warmup,
        history_samples: 100,
        seed: cfg.seed,
        cdf_mode: cfg.mode,
        planner: cfg.planner,
        probe_budget: cfg.probe_budget,
        ..RuntimeConfig::default()
    };
    let faults = cfg.scenario.schedule(cfg.warmup, cfg.warmup + cfg.duration);

    // Per-stream, per-window deadline-miss attribution via the sink.
    let n_windows = (cfg.duration / rt.monitor_window_secs).ceil() as usize;
    let mut misses = vec![vec![0.0f64; n_windows]; specs.len()];
    let mut on_delivery = |d: &iqpaths_middleware::DeliveryEvent| {
        if d.missed_deadline {
            let w = ((d.delivered / rt.monitor_window_secs) as usize).min(n_windows - 1);
            misses[d.stream][w] += 1.0;
        }
    };
    let pgos_cfg = PgosConfig {
        mapping_mode: cfg.mapping,
        ..PgosConfig::default()
    };
    let scheduler = Pgos::new(pgos_cfg, specs.clone(), paths.len());
    let (report, probe_counts) = run_traced_counted(
        &paths,
        Box::new(workload),
        Box::new(scheduler),
        rt,
        cfg.duration,
        &faults,
        trace,
        &mut on_delivery,
    );

    let changes = faults.capacity_change_times();
    let eligible_windows = eligible_windows(
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
        &eligible_windows,
        rt.monitor_window_secs,
        cfg.confidence,
    );

    // Delivered-before-deadline ratio, offered-normalized so silent
    // transit loss shows up (a lost packet is neither delivered nor a
    // recorded miss). Coded streams credit decode-recovered blocks.
    let before_deadline = report
        .streams
        .iter()
        .enumerate()
        .map(|(i, s)| match &s.coding {
            Some(c) => c.delivered_before_deadline(),
            None => {
                let m = &report.metrics.streams[i];
                let offered = m.enqueued + m.queue_dropped;
                if offered == 0 {
                    0.0
                } else {
                    (s.deadline_packets - s.deadline_misses) as f64 / offered as f64
                }
            }
        })
        .collect();

    ConformanceReport {
        scenario: cfg.scenario.name(),
        mode: mode_name(cfg.mode),
        report,
        eligible_windows,
        outcomes,
        probe_counts,
        before_deadline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_schedules_are_deterministic_scripts() {
        for sc in FaultScenario::ALL {
            let a = sc.schedule(20.0, 140.0);
            let b = sc.schedule(20.0, 140.0);
            assert_eq!(a, b);
            if sc == FaultScenario::NoFault {
                assert!(a.is_empty());
            } else {
                assert!(!a.is_empty(), "{} has faults", sc.name());
            }
        }
    }

    #[test]
    fn churn_hits_two_paths() {
        let s = FaultScenario::Churn.schedule(20.0, 140.0);
        assert_eq!(s.capacity_timeline(0).len(), 4);
        assert_eq!(s.capacity_timeline(1).len(), 4);
        assert!(s.capacity_timeline(2).is_empty());
    }

    #[test]
    fn eligible_windows_exclude_settle_zones() {
        // Cheap case: short no-fault run just to exercise plumbing is
        // still ~seconds; use the blackout schedule directly instead.
        let s = FaultScenario::Blackout.schedule(20.0, 140.0);
        let changes = s.capacity_change_times();
        assert_eq!(changes.len(), 2);
        let (down, up) = (changes[0], changes[1]);
        assert!((up - down - 12.0).abs() < 1e-9);
        // A window inside [down, down + settle) must be excluded by the
        // filter logic replicated here.
        let settle = 10.0;
        let w_in = (down - 20.0) as usize + 1;
        let a = 20.0 + w_in as f64;
        let b = a + 1.0;
        assert!(!changes.iter().all(|&t| b <= t || t + settle <= a));
    }

    #[test]
    fn lossy_scenarios_are_named_but_not_in_the_classic_sweep() {
        for sc in FaultScenario::LOSSY {
            assert_eq!(FaultScenario::by_name(sc.name()), Some(sc));
            assert!(!FaultScenario::ALL.contains(&sc));
        }
    }

    #[test]
    fn uncorrelated_keeps_exactly_one_path_dead() {
        let s = FaultScenario::Uncorrelated.schedule(20.0, 140.0);
        // Transit loss is not a capacity change: every window stays
        // lemma-eligible.
        assert!(s.capacity_change_times().is_empty());
        let inj = iqpaths_simnet::fault::FaultInjector::new(&s, 3, 1);
        for t in [25.0, 47.0, 75.0, 103.0, 135.0] {
            let dead: Vec<usize> = (0..3)
                .filter(|&p| (0..64).all(|seq| inj.transit_lost(p, 0, seq, t)))
                .collect();
            assert_eq!(dead.len(), 1, "t={t} dead={dead:?}");
        }
    }

    #[test]
    fn correlated_kills_every_path_at_once() {
        let s = FaultScenario::Correlated.schedule(20.0, 140.0);
        assert!(s.capacity_change_times().is_empty());
        let inj = iqpaths_simnet::fault::FaultInjector::new(&s, 3, 1);
        // q1 = 50, q3 = 110: inside a burst all paths drop everything;
        // between bursts nothing does (prob 0 draws never lose).
        for p in 0..3 {
            assert!(inj.transit_lost(p, 0, 0, 52.0));
            assert!(inj.transit_lost(p, 0, 0, 112.0));
            assert!(!inj.transit_lost(p, 0, 0, 80.0));
        }
    }

    #[test]
    fn stream_mix_has_all_three_guarantee_kinds() {
        let specs = conformance_streams();
        assert!(matches!(
            specs[0].guarantee,
            Guarantee::Probabilistic { .. }
        ));
        assert!(matches!(
            specs[1].guarantee,
            Guarantee::ViolationBound { .. }
        ));
        assert!(matches!(specs[2].guarantee, Guarantee::BestEffort));
        // Frame sizes divide exactly at 25 fps (no rate rounding).
        for s in &specs {
            let bw = s.required_bw.max(s.weight);
            assert_eq!(bw % (8.0 * 25.0), 0.0);
        }
    }
}
