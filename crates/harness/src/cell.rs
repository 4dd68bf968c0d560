//! Sweep cells: the unit of experiment execution.
//!
//! A [`CellSpec`] is a pure-data description of one run — experiment
//! kind, knobs, axis seed, duration. Three derived quantities make the
//! engine work, all computed from the spec's canonical rendering and
//! nothing else:
//!
//! * **identity** ([`CellSpec::id`]) — the stable human-readable name a
//!   cell sorts, logs and caches under;
//! * **cell seed** ([`CellSpec::cell_seed`]) — the RNG seed the run is
//!   executed with, derived by the workspace's salted-splitmix64
//!   discipline ([`iqpaths_simnet::fault::splitmix64`]): the axis seed
//!   XOR an FNV-1a hash of the cell's identity, passed through
//!   splitmix64. Because it is a pure function of the spec, a cell is
//!   bit-identical whether it runs serially, rayon-parallel, in any
//!   order, or alone in a fresh process;
//! * **cache key** (see [`crate::cache`]) — identity hash + code
//!   version, so re-runs only execute changed cells.

use iqpaths_middleware::ExperimentKnobs;
use iqpaths_simnet::fault::salted_seed;

use crate::json::Json;

/// What one cell runs. Variants mirror the four experiment families
/// the paper's evaluation matrix is built from.
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// Testkit guarantee-conformance case: seeded 3-path topology,
    /// PGOS, Lemma 1/2 verdicts (the `fault_sweep` family).
    /// `mode`/`scenario` are canonical names (`exact`, `blackout`, …).
    Conformance {
        /// CDF backend name (see `iqpaths_testkit::mode_name`).
        mode: String,
        /// Fault scenario name (see `FaultScenario::name`).
        scenario: String,
    },
    /// Figure 8 SmartPointer application study (the `seed_sweep` and
    /// `ablations` families).
    SmartPointer {
        /// Scheduler canonical name (see
        /// `iqpaths_middleware::knobs::scheduler_name`).
        scheduler: String,
        /// Sparse runtime/PGOS overrides.
        knobs: ExperimentKnobs,
        /// Bond2 offered load override in Mbps (the `abl-load` axis).
        bond2_mbps: Option<f64>,
        /// Packet-quantize the cross traffic at this grain in bytes
        /// (the `abl-fluid` axis; `None` = fluid).
        quantize_bytes: Option<f64>,
    },
    /// Lemma 1/2 promise-vs-measurement validation at one demand level
    /// (the `validation` family). The demand is `frac` × the
    /// ground-truth distribution's median.
    Validation {
        /// Demand as a fraction of the median, in percent (55 → 0.55 ×
        /// median). Integer so the cell identity never renders a float.
        demand_pct: u32,
    },
    /// Figure 4 predictor comparison at one measurement window (the
    /// `fig04_prediction` family).
    Prediction {
        /// Measurement window in deciseconds (1 → 0.1 s).
        window_ds: u32,
    },
    /// Graph-scale many-tenant conformance: a seeded random overlay
    /// (`iqpaths_testkit::GraphGen`), tenants routed over Yen's k
    /// cheapest loopless paths, flash-crowd waves + relay churn, and
    /// per-tenant Lemma 1/2 verdicts (the `scalability` family).
    Scalability {
        /// Graph wiring model name (`waxman` / `ba`; see
        /// `iqpaths_testkit::GraphModel::by_name`).
        model: String,
        /// Overlay node count.
        nodes: u32,
        /// Tenant ((src, dst) pair) count.
        tenants: u32,
        /// Paths requested per tenant (Yen's k).
        k: u32,
    },
    /// Probe-budget ablation: one conformance scenario run under an
    /// explicit probe planner and probes-per-window budget, reporting
    /// Lemma 1/2 verdicts plus the planner's probe spend (the
    /// `probe_budget` family).
    ProbeBudget {
        /// Planner canonical name (see
        /// `iqpaths_overlay::planner::PlannerKind::name`).
        planner: String,
        /// Budget as a percentage of the periodic probe-everything
        /// rate (100 = unlimited legacy rate).
        budget_pct: u32,
        /// Fault scenario name (see `FaultScenario::name`).
        scenario: String,
    },
    /// Diversity-vs-PGOS mapping comparison: one conformance scenario
    /// run under an explicit resource-mapping mode, reporting Lemma
    /// 1/2 verdicts, the delivered-before-deadline ratio and the
    /// erasure-coding evidence (the `diversity` family; see
    /// `docs/POLICIES.md`).
    Diversity {
        /// Mapping-mode canonical name (see
        /// `iqpaths_middleware::knobs::mapping_mode_name`).
        mapping: String,
        /// Fault scenario name (see `FaultScenario::name`).
        scenario: String,
    },
    /// Scheduling fast-path throughput ladder: the refactored PGOS hot
    /// path vs the frozen pre-refactor reference
    /// ([`crate::sched_ref`]) over one synthetic workload scale (the
    /// `sched_throughput` family).
    SchedThroughput {
        /// Stream count.
        streams: u32,
        /// Overlay path count.
        paths: u32,
        /// Independent scheduler instances driven on their own OS
        /// threads (round-robin stream partition; 1 = single instance).
        workers: u32,
    },
}

impl CellKind {
    /// Canonical rendering of the kind + parameters (participates in
    /// the cell identity, the derived seed and the cache key — never
    /// change an existing rendering).
    pub fn canon(&self) -> String {
        match self {
            CellKind::Conformance { mode, scenario } => {
                format!("conformance:mode={mode},scenario={scenario}")
            }
            CellKind::SmartPointer {
                scheduler,
                knobs,
                bond2_mbps,
                quantize_bytes,
            } => {
                let mut s = format!("smartpointer:sched={scheduler}");
                let k = knobs.canon();
                if !k.is_empty() {
                    s.push(',');
                    s.push_str(&k);
                }
                if let Some(b) = bond2_mbps {
                    s.push_str(&format!(",bond2={b}"));
                }
                if let Some(q) = quantize_bytes {
                    s.push_str(&format!(",quantize={q}"));
                }
                s
            }
            CellKind::Validation { demand_pct } => format!("validation:demand={demand_pct}"),
            CellKind::Scalability {
                model,
                nodes,
                tenants,
                k,
            } => format!("scalability:model={model},nodes={nodes},tenants={tenants},k={k}"),
            CellKind::Prediction { window_ds } => format!("prediction:window_ds={window_ds}"),
            CellKind::ProbeBudget {
                planner,
                budget_pct,
                scenario,
            } => format!("probebudget:planner={planner},budget={budget_pct},scenario={scenario}"),
            CellKind::Diversity { mapping, scenario } => {
                format!("diversity:mapping={mapping},scenario={scenario}")
            }
            CellKind::SchedThroughput {
                streams,
                paths,
                workers,
            } => format!("schedthroughput:streams={streams},paths={paths},workers={workers}"),
        }
    }
}

/// One fully specified experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Sweep family (`fault_sweep`, `seed_sweep`, …).
    pub sweep: String,
    /// Sub-table / study within the family (`abl-window`, …; may be
    /// empty).
    pub group: String,
    /// Human-readable setting label for report rows (`tw=0.5`, …).
    pub label: String,
    /// Axis seed (the seed the sweep enumerates; the run executes with
    /// the derived [`CellSpec::cell_seed`]).
    pub seed: u64,
    /// Measured duration in seconds.
    pub duration: f64,
    /// Experiment kind + parameters.
    pub kind: CellKind,
}

/// FNV-1a 64-bit — the identity-to-salt hash behind cell seeds and
/// cache keys (re-exported from the workspace's single seed-derivation
/// home, `iqpaths_simnet::fault`).
pub use iqpaths_simnet::fault::fnv1a64;

impl CellSpec {
    /// Stable identity: `sweep/group/label` plus everything that
    /// distinguishes the run.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}@s{},d{},{}",
            self.sweep,
            self.group,
            self.label,
            self.seed,
            self.duration,
            self.kind.canon()
        )
    }

    /// The seed this cell executes with: axis seed salted with the
    /// cell identity through splitmix64 (the `simnet::fault`
    /// discipline). Independent cells get decorrelated seed streams;
    /// the same cell always gets the same seed, no matter where or in
    /// what order it runs.
    pub fn cell_seed(&self) -> u64 {
        salted_seed(self.seed, &self.kind.canon())
    }

    /// A seed shared by every cell of the same axis seed that names the
    /// same `salt` — for sweeps whose cells must vary one knob against a
    /// *common* random environment (e.g. the validation sweep's demand
    /// levels, which only compare meaningfully against one path
    /// distribution). Same derivation discipline as
    /// [`CellSpec::cell_seed`], just salted with an explicit family
    /// name instead of the full cell identity; still never the raw
    /// axis seed.
    pub fn family_seed(&self, salt: &str) -> u64 {
        salted_seed(self.seed, salt)
    }
}

/// The machine-readable outcome of one cell: flat named metrics plus
/// boolean verdicts, serialized as canonical JSON (the cache format and
/// the bit-compare surface of the determinism suite).
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The spec identity this result was produced from.
    pub id: String,
    /// Sweep family (copied from the spec for self-description).
    pub sweep: String,
    /// Study group.
    pub group: String,
    /// Setting label.
    pub label: String,
    /// Axis seed.
    pub seed: u64,
    /// Derived seed the run executed with.
    pub cell_seed: u64,
    /// Named scalar metrics, in emission order.
    pub metrics: Vec<(String, f64)>,
    /// Named pass/fail verdicts (conformance cells), in emission order.
    pub verdicts: Vec<(String, bool)>,
}

impl CellResult {
    /// Starts an empty result for `spec`.
    pub fn for_spec(spec: &CellSpec) -> Self {
        Self {
            id: spec.id(),
            sweep: spec.sweep.clone(),
            group: spec.group.clone(),
            label: spec.label.clone(),
            seed: spec.seed,
            cell_seed: spec.cell_seed(),
            metrics: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// Records one metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records one verdict.
    pub fn verdict(&mut self, name: &str, pass: bool) {
        self.verdicts.push((name.to_string(), pass));
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// True when every verdict passed (vacuously true without any).
    pub fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|&(_, pass)| pass)
    }

    /// Canonical JSON rendering (the cache file format).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("sweep".into(), Json::Str(self.sweep.clone())),
            ("group".into(), Json::Str(self.group.clone())),
            ("label".into(), Json::Str(self.label.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            (
                "cell_seed_hex".into(),
                Json::Str(format!("{:016x}", self.cell_seed)),
            ),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "verdicts".into(),
                Json::Obj(
                    self.verdicts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Bool(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Canonical serialized form — byte-compare two results with this.
    pub fn to_text(&self) -> String {
        self.to_json().to_text()
    }

    /// Parses a cached result.
    ///
    /// # Errors
    /// Returns a message when the text is not a well-formed result.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let field_str = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{k}`"))
        };
        let cell_seed = u64::from_str_radix(&field_str("cell_seed_hex")?, 16)
            .map_err(|e| format!("bad cell_seed_hex: {e}"))?;
        let metrics = match doc.get("metrics") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("metric `{k}` is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing `metrics` object".into()),
        };
        let verdicts = match doc.get("verdicts") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_bool()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("verdict `{k}` is not a bool"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing `verdicts` object".into()),
        };
        Ok(Self {
            id: field_str("id")?,
            sweep: field_str("sweep")?,
            group: field_str("group")?,
            label: field_str("label")?,
            seed: doc
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or("missing `seed`")? as u64,
            cell_seed,
            metrics,
            verdicts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        CellSpec {
            sweep: "fault_sweep".into(),
            group: "".into(),
            label: "exact/blackout".into(),
            seed: 42,
            duration: 120.0,
            kind: CellKind::Conformance {
                mode: "exact".into(),
                scenario: "blackout".into(),
            },
        }
    }

    #[test]
    fn identity_is_stable_and_seed_is_derived() {
        let s = spec();
        assert_eq!(
            s.id(),
            "fault_sweep//exact/blackout@s42,d120,conformance:mode=exact,scenario=blackout"
        );
        // Pinned derivation: axis seed ^ fnv(kind canon) through
        // splitmix64. A change here silently invalidates every recorded
        // experiment — keep it locked.
        use iqpaths_simnet::fault::splitmix64;
        let salt = fnv1a64(b"conformance:mode=exact,scenario=blackout");
        assert_eq!(s.cell_seed(), splitmix64(42 ^ salt));
        // Different axis seeds and kinds decorrelate.
        let mut other = spec();
        other.seed = 43;
        assert_ne!(other.cell_seed(), s.cell_seed());
    }

    #[test]
    fn scalability_canon_is_pinned() {
        // Frozen: participates in cell identity, seed and cache key.
        let kind = CellKind::Scalability {
            model: "waxman".into(),
            nodes: 256,
            tenants: 64,
            k: 4,
        };
        assert_eq!(
            kind.canon(),
            "scalability:model=waxman,nodes=256,tenants=64,k=4"
        );
    }

    #[test]
    fn probe_budget_canon_is_pinned() {
        // Frozen: participates in cell identity, seed and cache key.
        let kind = CellKind::ProbeBudget {
            planner: "active".into(),
            budget_pct: 25,
            scenario: "flap".into(),
        };
        assert_eq!(
            kind.canon(),
            "probebudget:planner=active,budget=25,scenario=flap"
        );
        // The budget renders into the full cell id, so budgeted cells
        // cache apart from unlimited ones.
        let s = CellSpec {
            sweep: "probe_budget".into(),
            group: "flap".into(),
            label: "active/25".into(),
            seed: 42,
            duration: 120.0,
            kind,
        };
        assert_eq!(
            s.id(),
            "probe_budget/flap/active/25@s42,d120,probebudget:planner=active,budget=25,scenario=flap"
        );
    }

    #[test]
    fn diversity_canon_is_pinned() {
        // Frozen: participates in cell identity, seed and cache key.
        let kind = CellKind::Diversity {
            mapping: "diversity".into(),
            scenario: "uncorrelated".into(),
        };
        assert_eq!(
            kind.canon(),
            "diversity:mapping=diversity,scenario=uncorrelated"
        );
        let s = CellSpec {
            sweep: "diversity".into(),
            group: "uncorrelated".into(),
            label: "diversity".into(),
            seed: 42,
            duration: 120.0,
            kind,
        };
        assert_eq!(
            s.id(),
            "diversity/uncorrelated/diversity@s42,d120,diversity:mapping=diversity,scenario=uncorrelated"
        );
        // The classic mapping renders its own identity, so the pair of
        // cells in each scenario group never alias in the cache.
        let classic = CellKind::Diversity {
            mapping: "pgos".into(),
            scenario: "uncorrelated".into(),
        };
        assert_ne!(classic.canon(), s.kind.canon());
    }

    #[test]
    fn result_round_trips_through_json() {
        let mut r = CellResult::for_spec(&spec());
        r.metric("lemma1.observed", 0.991234567891234);
        r.metric("events", 1_234_567.0);
        r.verdict("lemma1.pass", true);
        r.verdict("lemma2.pass", false);
        let text = r.to_text();
        let back = CellResult::from_text(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_text(), text);
        assert!(!back.all_pass());
        assert_eq!(back.get("events"), Some(1_234_567.0));
    }
}
