//! The `RunConfig`-to-cell adapter.
//!
//! A sweep cell (see `iqpaths-harness`) must carry *everything* that
//! distinguishes its run in plain, hashable data: the experiment engine
//! derives the cell's cache key and its per-cell seed from this
//! description, so any field that changes run behaviour has to live
//! here, and nothing else may. [`ExperimentKnobs`] is that description
//! for Figure 8-testbed runs: a sparse set of overrides applied on top
//! of a paper-faithful [`Figure8Experiment`].
//!
//! Every knob is an `Option`: `None` means "paper default", keeping the
//! canonical rendering (and therefore the cache key) of the default
//! cell free of incidental values.

use crate::builder::{Figure8Experiment, SchedulerKind};
use iqpaths_core::mapping::MappingMode;
use iqpaths_overlay::node::CdfMode;
use iqpaths_overlay::planner::{PlannerKind, ProbeBudget};

/// Sparse overrides a sweep cell applies to a [`Figure8Experiment`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExperimentKnobs {
    /// Scheduling-window length `t_w` in seconds (runtime + PGOS).
    pub window_secs: Option<f64>,
    /// KS remap threshold (PGOS).
    pub remap_ks: Option<f64>,
    /// Probe measurement noise (±fraction).
    pub probe_noise: Option<f64>,
    /// Monitoring CDF backend.
    pub cdf_mode: Option<CdfMode>,
    /// Probe planner selection (`None` = the legacy periodic planner).
    pub planner: Option<PlannerKind>,
    /// Probe budget as a percentage of the periodic probe-everything
    /// rate (`None` = unlimited, the legacy behavior).
    pub probe_budget: Option<u32>,
    /// Resource-mapping mode for the PGOS scheduler (`None` = classic
    /// whole-path-first PGOS; see `docs/POLICIES.md`).
    pub mapping: Option<MappingMode>,
}

impl ExperimentKnobs {
    /// No overrides: the paper-faithful configuration.
    pub fn none() -> Self {
        Self::default()
    }

    /// Applies the overrides onto `e` (window length is threaded into
    /// both the runtime clock and the PGOS deadline machinery, which
    /// must agree).
    pub fn apply(&self, e: &mut Figure8Experiment) {
        if let Some(w) = self.window_secs {
            e.runtime.window_secs = w;
            e.pgos.window_secs = w;
        }
        if let Some(ks) = self.remap_ks {
            e.pgos.remap_ks_threshold = ks;
        }
        if let Some(n) = self.probe_noise {
            e.runtime.probe_noise = n;
        }
        if let Some(m) = self.cdf_mode {
            e.runtime.cdf_mode = m;
        }
        if let Some(p) = self.planner {
            e.runtime.planner = p;
        }
        if let Some(b) = self.probe_budget {
            e.runtime.probe_budget = ProbeBudget::percent(b);
        }
        if let Some(m) = self.mapping {
            e.pgos.mapping_mode = m;
        }
    }

    /// Canonical `key=value` rendering of the overrides, sorted and
    /// stable — the fragment the experiment engine folds into a cell's
    /// identity (and therefore its cache key and derived seed). Default
    /// knobs render to the empty string, so "no overrides" hashes the
    /// same whether the struct was written out or omitted.
    pub fn canon(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(w) = self.window_secs {
            parts.push(format!("window={w}"));
        }
        if let Some(ks) = self.remap_ks {
            parts.push(format!("remap_ks={ks}"));
        }
        if let Some(n) = self.probe_noise {
            parts.push(format!("noise={n}"));
        }
        if let Some(m) = self.cdf_mode {
            parts.push(format!("cdf={}", cdf_mode_name(m)));
        }
        if let Some(p) = self.planner {
            parts.push(format!("planner={}", p.name()));
        }
        if let Some(b) = self.probe_budget {
            parts.push(format!("budget={b}"));
        }
        if let Some(m) = self.mapping {
            parts.push(format!("mapping={}", mapping_mode_name(m)));
        }
        parts.sort();
        parts.join(",")
    }

    /// Builds the experiment for `(seed, duration)` with the overrides
    /// applied.
    pub fn experiment(&self, seed: u64, duration: f64) -> Figure8Experiment {
        let mut e = Figure8Experiment::new(seed, duration);
        self.apply(&mut e);
        e
    }
}

/// Canonical short name of a [`MappingMode`] (stable: participates in
/// cache keys).
pub fn mapping_mode_name(mode: MappingMode) -> &'static str {
    match mode {
        MappingMode::Pgos => "pgos",
        MappingMode::Diversity => "diversity",
    }
}

/// Parses a canonical mapping-mode name back (inverse of
/// [`mapping_mode_name`]).
pub fn mapping_mode_by_name(name: &str) -> Option<MappingMode> {
    Some(match name {
        "pgos" => MappingMode::Pgos,
        "diversity" => MappingMode::Diversity,
        _ => return None,
    })
}

/// Canonical short name of a [`CdfMode`] (stable across releases: it
/// participates in cache keys).
pub fn cdf_mode_name(mode: CdfMode) -> String {
    match mode {
        CdfMode::Exact => "exact".into(),
        CdfMode::Histogram { bins, .. } => format!("histogram{bins}"),
        CdfMode::Rolling => "rolling".into(),
        CdfMode::Sketch { markers } => format!("sketch{markers}"),
    }
}

/// Canonical scheduler name (stable: participates in cache keys).
pub fn scheduler_name(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Pgos => "pgos",
        SchedulerKind::Wfq => "wfq",
        SchedulerKind::Dwcs => "dwcs",
        SchedulerKind::Msfq => "msfq",
        SchedulerKind::OptSched => "optsched",
        SchedulerKind::GridFtpBlocked => "gridftp-blocked",
        SchedulerKind::GridFtpPartitioned => "gridftp-partitioned",
    }
}

/// Parses a canonical scheduler name back (inverse of
/// [`scheduler_name`]).
pub fn scheduler_by_name(name: &str) -> Option<SchedulerKind> {
    Some(match name {
        "pgos" => SchedulerKind::Pgos,
        "wfq" => SchedulerKind::Wfq,
        "dwcs" => SchedulerKind::Dwcs,
        "msfq" => SchedulerKind::Msfq,
        "optsched" => SchedulerKind::OptSched,
        "gridftp-blocked" => SchedulerKind::GridFtpBlocked,
        "gridftp-partitioned" => SchedulerKind::GridFtpPartitioned,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_knobs_render_empty_and_change_nothing() {
        let knobs = ExperimentKnobs::none();
        assert_eq!(knobs.canon(), "");
        let plain = Figure8Experiment::new(7, 10.0);
        let mut knobbed = Figure8Experiment::new(7, 10.0);
        knobs.apply(&mut knobbed);
        assert_eq!(plain.runtime.window_secs, knobbed.runtime.window_secs);
        assert_eq!(plain.runtime.probe_noise, knobbed.runtime.probe_noise);
        assert_eq!(
            plain.pgos.remap_ks_threshold,
            knobbed.pgos.remap_ks_threshold
        );
    }

    #[test]
    fn window_override_hits_runtime_and_pgos() {
        let knobs = ExperimentKnobs {
            window_secs: Some(0.5),
            ..ExperimentKnobs::none()
        };
        let e = knobs.experiment(1, 10.0);
        assert_eq!(e.runtime.window_secs, 0.5);
        assert_eq!(e.pgos.window_secs, 0.5);
    }

    #[test]
    fn canon_is_sorted_and_stable() {
        let knobs = ExperimentKnobs {
            probe_noise: Some(0.2),
            window_secs: Some(2.0),
            cdf_mode: Some(CdfMode::Sketch { markers: 33 }),
            ..ExperimentKnobs::none()
        };
        assert_eq!(knobs.canon(), "cdf=sketch33,noise=0.2,window=2");
        assert_eq!(knobs.canon(), knobs.canon());
    }

    #[test]
    fn planner_knobs_render_and_apply() {
        let knobs = ExperimentKnobs {
            planner: Some(PlannerKind::Active),
            probe_budget: Some(25),
            ..ExperimentKnobs::none()
        };
        assert_eq!(knobs.canon(), "budget=25,planner=active");
        let e = knobs.experiment(1, 10.0);
        assert_eq!(e.runtime.planner, PlannerKind::Active);
        assert_eq!(e.runtime.probe_budget, ProbeBudget::percent(25));
        // Defaults stay out of the identity and leave the legacy
        // probe-everything configuration untouched.
        let plain = ExperimentKnobs::none().experiment(1, 10.0);
        assert_eq!(plain.runtime.planner, PlannerKind::Periodic);
        assert_eq!(plain.runtime.probe_budget, ProbeBudget::Unlimited);
    }

    #[test]
    fn mapping_knob_renders_and_applies() {
        let knobs = ExperimentKnobs {
            mapping: Some(MappingMode::Diversity),
            ..ExperimentKnobs::none()
        };
        assert_eq!(knobs.canon(), "mapping=diversity");
        let e = knobs.experiment(1, 10.0);
        assert_eq!(e.pgos.mapping_mode, MappingMode::Diversity);
        // The classic whole-path-first default stays out of the cell
        // identity, keeping pre-existing cache keys (and goldens)
        // byte-identical.
        let plain = ExperimentKnobs::none().experiment(1, 10.0);
        assert_eq!(plain.pgos.mapping_mode, MappingMode::Pgos);
    }

    #[test]
    fn mapping_mode_names_round_trip() {
        for mode in [MappingMode::Pgos, MappingMode::Diversity] {
            assert_eq!(mapping_mode_by_name(mapping_mode_name(mode)), Some(mode));
        }
        assert_eq!(mapping_mode_by_name("nope"), None);
    }

    #[test]
    fn scheduler_names_round_trip() {
        for kind in [
            SchedulerKind::Pgos,
            SchedulerKind::Wfq,
            SchedulerKind::Dwcs,
            SchedulerKind::Msfq,
            SchedulerKind::OptSched,
            SchedulerKind::GridFtpBlocked,
            SchedulerKind::GridFtpPartitioned,
        ] {
            assert_eq!(scheduler_by_name(scheduler_name(kind)), Some(kind));
        }
        assert_eq!(scheduler_by_name("nope"), None);
    }
}
