//! Report generation: sweep results → markdown tables, generated
//! blocks in `EXPERIMENTS.md`, and CSV artifacts.
//!
//! `EXPERIMENTS.md` owns the prose; the numbers live inside marked
//! regions:
//!
//! ```text
//! <!-- BEGIN GENERATED: fault_sweep -->
//! | scenario | mode | ... |
//! <!-- END GENERATED: fault_sweep -->
//! ```
//!
//! [`patch_blocks`] replaces each region's body with freshly rendered
//! tables; [`check_blocks`] verifies the committed regions match what
//! the current code + sweeps produce (the `harness report --check` CI
//! gate). Everything rendered here is a deterministic function of the
//! sweep results, which are themselves deterministic per spec — so a
//! drifting block means the code changed behaviour without the tables
//! being regenerated.

use std::collections::BTreeMap;

use crate::cell::CellResult;
use crate::json::Json;

/// One named generated region.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Marker name (`fault_sweep`, `fig04`, …).
    pub name: String,
    /// Markdown body between the markers (no marker lines).
    pub body: String,
}

fn begin_marker(name: &str) -> String {
    format!("<!-- BEGIN GENERATED: {name} -->")
}

fn end_marker(name: &str) -> String {
    format!("<!-- END GENERATED: {name} -->")
}

/// Replaces each block's region in `doc`. Returns the patched document
/// and the names whose markers were not found (left for the caller to
/// report).
pub fn patch_blocks(doc: &str, blocks: &[Block]) -> (String, Vec<String>) {
    let mut out = doc.to_string();
    let mut missing = Vec::new();
    for b in blocks {
        let (begin, end) = (begin_marker(&b.name), end_marker(&b.name));
        let Some(start) = out.find(&begin) else {
            missing.push(b.name.clone());
            continue;
        };
        let body_start = start + begin.len();
        let Some(rel_end) = out[body_start..].find(&end) else {
            missing.push(b.name.clone());
            continue;
        };
        let body_end = body_start + rel_end;
        out.replace_range(body_start..body_end, &format!("\n{}", b.body));
    }
    (out, missing)
}

/// Compares each block against the committed region. Returns one
/// message per drifting or missing block; empty means clean.
pub fn check_blocks(doc: &str, blocks: &[Block]) -> Vec<String> {
    let mut problems = Vec::new();
    for b in blocks {
        let (begin, end) = (begin_marker(&b.name), end_marker(&b.name));
        let committed = doc.find(&begin).and_then(|start| {
            let body_start = start + begin.len();
            doc[body_start..]
                .find(&end)
                .map(|rel| &doc[body_start..body_start + rel])
        });
        match committed {
            None => problems.push(format!("block `{}`: markers not found", b.name)),
            Some(committed) if committed.trim() != b.body.trim() => {
                problems.push(format!(
                    "block `{}`: committed table drifts from regenerated output \
                     (run `harness report` to refresh)",
                    b.name
                ));
            }
            Some(_) => {}
        }
    }
    problems
}

/// Renders the generated blocks for one sweep's results. Unknown sweep
/// names produce no blocks.
pub fn blocks_for(sweep: &str, results: &[CellResult]) -> Vec<Block> {
    match sweep {
        "fig04_prediction" => vec![Block {
            name: "fig04".into(),
            body: fig04_table(results),
        }],
        "validation" => vec![Block {
            name: "validation".into(),
            body: validation_table(results),
        }],
        "seed_sweep" => vec![Block {
            name: "seed_sweep".into(),
            body: seed_sweep_table(results),
        }],
        "fault_sweep" => vec![Block {
            name: "fault_sweep".into(),
            body: conformance_table(results),
        }],
        "smoke" => vec![Block {
            name: "smoke".into(),
            body: conformance_table(results),
        }],
        "ablations" => vec![
            Block {
                name: "ablations".into(),
                body: ablations_table(results),
            },
            Block {
                name: "ablations-buffer".into(),
                body: buffer_table(results),
            },
        ],
        "sched_throughput" => vec![Block {
            name: "sched_throughput".into(),
            body: sched_throughput_table(results),
        }],
        "probe_budget" => vec![Block {
            name: "probe_budget".into(),
            body: probe_budget_table(results),
        }],
        "diversity" => vec![Block {
            name: "diversity".into(),
            body: diversity_table(results),
        }],
        "scalability" => vec![Block {
            name: "scalability".into(),
            body: scalability_table(results),
        }],
        _ => Vec::new(),
    }
}

/// Renders the CSV artifact for one sweep (name, contents), if the
/// sweep has one.
pub fn csv_for(sweep: &str, results: &[CellResult]) -> Option<(String, String)> {
    match sweep {
        "fig04_prediction" => Some(("fig04_prediction.csv".into(), fig04_csv(results))),
        "validation" => Some(("validation.csv".into(), validation_csv(results))),
        "seed_sweep" => Some(("seed_sweep.csv".into(), seed_sweep_csv(results))),
        "ablations" => Some(("ablations.csv".into(), ablations_csv(results))),
        "fault_sweep" => Some(("fault_sweep.md".into(), fault_sweep_artifact(results))),
        "sched_throughput" => Some((
            "BENCH_sched_throughput.json".into(),
            sched_throughput_json(results),
        )),
        "scalability" => Some(("BENCH_scalability.json".into(), scalability_json(results))),
        "probe_budget" => Some(("BENCH_probe_budget.json".into(), probe_budget_json(results))),
        "diversity" => Some(("BENCH_diversity.json".into(), diversity_json(results))),
        _ => None,
    }
}

fn get(r: &CellResult, name: &str) -> f64 {
    r.get(name).unwrap_or(f64::NAN)
}

fn fig04_table(results: &[CellResult]) -> String {
    let mut out = String::from(
        "| window (s) | MA err | SMA err | EWMA err | AR1 err | HOLT err | SMED err | percentile failure |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in results {
        out.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | **{:.3}** |\n",
            r.label.trim_start_matches("w=").trim_end_matches('s'),
            get(r, "ma_err"),
            get(r, "sma_err"),
            get(r, "ewma_err"),
            get(r, "ar1_err"),
            get(r, "holt_err"),
            get(r, "smed_err"),
            get(r, "percentile_failure_rate"),
        ));
    }
    out
}

fn fig04_csv(results: &[CellResult]) -> String {
    let mut csv = String::from(
        "window_s,ma_err,sma_err,ewma_err,ar1_err,holt_err,smed_err,mean_err,percentile_failure_rate\n",
    );
    for r in results {
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.5}\n",
            r.label.trim_start_matches("w=").trim_end_matches('s'),
            get(r, "ma_err"),
            get(r, "sma_err"),
            get(r, "ewma_err"),
            get(r, "ar1_err"),
            get(r, "holt_err"),
            get(r, "smed_err"),
            get(r, "mean_err"),
            get(r, "percentile_failure_rate"),
        ));
    }
    csv
}

fn validation_table(results: &[CellResult]) -> String {
    let mut out = String::from(
        "| demand (Mbps) | demand quantile | Lemma 1 prob | measured meet | Lemma 2 E[Z] | measured E[Z] |\n\
         |---|---|---|---|---|---|\n",
    );
    for r in results {
        out.push_str(&format!(
            "| {:.1} | {:.2} | {:.3} | {:.3} | {:.2} | {:.2} |\n",
            get(r, "rate_bps") / 1e6,
            get(r, "demand_quantile"),
            get(r, "lemma1_prob"),
            get(r, "measured_meet"),
            get(r, "lemma2_bound"),
            get(r, "measured_shortfall"),
        ));
    }
    out
}

fn validation_csv(results: &[CellResult]) -> String {
    let mut csv = String::from(
        "demand_quantile,rate_bps,lemma1_prob,measured_meet,lemma2_bound,measured_shortfall\n",
    );
    for r in results {
        csv.push_str(&format!(
            "{},{:.0},{:.4},{:.4},{:.3},{:.3}\n",
            get(r, "demand_quantile"),
            get(r, "rate_bps"),
            get(r, "lemma1_prob"),
            get(r, "measured_meet"),
            get(r, "lemma2_bound"),
            get(r, "measured_shortfall"),
        ));
    }
    csv
}

fn seed_sweep_table(results: &[CellResult]) -> String {
    // Group by scheduler label, preserving first-seen order.
    let mut order: Vec<&str> = Vec::new();
    let mut by_sched: BTreeMap<&str, Vec<&CellResult>> = BTreeMap::new();
    for r in results {
        if !order.contains(&r.label.as_str()) {
            order.push(&r.label);
        }
        by_sched.entry(&r.label).or_default().push(r);
    }
    let mut out =
        String::from("| scheduler | mean min-meet | sd | worst seed |\n|---|---|---|---|\n");
    for sched in order {
        let rows = &by_sched[sched];
        let meets: Vec<f64> = rows.iter().map(|r| get(r, "min_meet_fraction")).collect();
        let worst = rows
            .iter()
            .min_by(|a, b| {
                get(a, "min_meet_fraction")
                    .partial_cmp(&get(b, "min_meet_fraction"))
                    .expect("finite meets")
            })
            .expect("non-empty scheduler group");
        out.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:.3} (seed {}) |\n",
            sched,
            iqpaths_stats::metrics::mean(&meets),
            iqpaths_stats::metrics::stddev(&meets),
            get(worst, "min_meet_fraction"),
            worst.seed,
        ));
    }
    out
}

fn seed_sweep_csv(results: &[CellResult]) -> String {
    let mut csv = String::from("scheduler,seed,min_meet_fraction,max_jitter_ms\n");
    for r in results {
        csv.push_str(&format!(
            "{},{},{:.4},{:.3}\n",
            r.label,
            r.seed,
            get(r, "min_meet_fraction"),
            get(r, "max_jitter_ms"),
        ));
    }
    csv
}

fn blocked_per_path(r: &CellResult) -> String {
    let mut parts = Vec::new();
    for j in 0..16 {
        match r.get(&format!("path{j}.blocked")) {
            Some(v) => parts.push(format!("{}", v as u64)),
            None => break,
        }
    }
    parts.join("/")
}

/// The Lemma 1/2 conformance table (fault_sweep and smoke share it).
fn conformance_table(results: &[CellResult]) -> String {
    let mut out = String::from(
        "| seed | scenario | mode | p̂ (lemma1) | ε₁ | misses/win (lemma2) | ε₂ | windows | blocked/path | verdict |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in results {
        let (mode, scenario) = r.label.split_once('/').unwrap_or((r.label.as_str(), ""));
        out.push_str(&format!(
            "| {} | {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {} | {} | {} |\n",
            r.seed,
            scenario,
            mode,
            get(r, "lemma1.observed"),
            get(r, "lemma1.epsilon"),
            get(r, "lemma2.observed"),
            get(r, "lemma2.epsilon"),
            get(r, "lemma1.windows") as u64,
            blocked_per_path(r),
            if r.all_pass() { "pass" } else { "**FAIL**" },
        ));
    }
    out
}

fn fault_sweep_artifact(results: &[CellResult]) -> String {
    let mut out = String::from("# fault_sweep — engine-generated\n\n## Lemma conformance\n\n");
    out.push_str(&conformance_table(results));
    out.push_str(
        "\n## Run counters\n\n| scenario | mode | upcalls | events |\n|---|---|---|---|\n",
    );
    for r in results {
        let (mode, scenario) = r.label.split_once('/').unwrap_or((r.label.as_str(), ""));
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            scenario,
            mode,
            get(r, "upcalls") as u64,
            get(r, "events") as u64,
        ));
    }
    out
}

fn ablations_table(results: &[CellResult]) -> String {
    let mut out = String::from(
        "| study | setting | min meet | min ratio95 | jitter (ms) |\n|---|---|---|---|---|\n",
    );
    for r in results {
        if r.group == "abl-buffer" {
            continue;
        }
        let jitter = match r.get("max_jitter_ms") {
            Some(j) => format!("{j:.2}"),
            None => "—".to_string(),
        };
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:.3} | {} |\n",
            r.group,
            r.label,
            get(r, "min_meet_fraction"),
            get(r, "min_ratio95"),
            jitter,
        ));
    }
    out
}

fn buffer_table(results: &[CellResult]) -> String {
    let mut out = String::from(
        "| scheduler | startup Atom (ms) | startup Bond1 (ms) | buffer Atom (kB) | buffer Bond1 (kB) |\n\
         |---|---|---|---|---|\n",
    );
    for r in results.iter().filter(|r| r.group == "abl-buffer") {
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} |\n",
            r.label,
            get(r, "startup_atom_s") * 1e3,
            get(r, "startup_bond1_s") * 1e3,
            get(r, "buffer_atom_bytes") / 1e3,
            get(r, "buffer_bond1_bytes") / 1e3,
        ));
    }
    out
}

fn ablations_csv(results: &[CellResult]) -> String {
    let mut csv = String::from("ablation,setting,min_meet_fraction,min_ratio95,max_jitter_ms\n");
    for r in results {
        if r.group == "abl-buffer" {
            csv.push_str(&format!(
                "buffer,{},{:.4},{:.4},{:.3}\n",
                r.label,
                get(r, "startup_atom_s"),
                get(r, "startup_bond1_s"),
                get(r, "buffer_bond1_bytes"),
            ));
        } else {
            csv.push_str(&format!(
                "{},{},{:.4},{:.4},{:.3}\n",
                r.group.trim_start_matches("abl-"),
                r.label,
                get(r, "min_meet_fraction"),
                get(r, "min_ratio95"),
                r.get("max_jitter_ms").unwrap_or(0.0),
            ));
        }
    }
    csv
}

/// The `sched_throughput` ladder's checked table: deterministic
/// evidence only. The wall-clock numbers (pps, speedup) deliberately
/// stay out of this block — they vary run to run, and a checked block
/// must be a pure function of the cell specs. They go to the JSON
/// artifact ([`sched_throughput_json`]) instead.
fn sched_throughput_table(results: &[CellResult]) -> String {
    let mut out = String::from(
        "| streams | paths | workers | decisions | windows | offered | dropped | fast ≡ legacy |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in results {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            get(r, "streams") as u64,
            get(r, "paths") as u64,
            get(r, "workers") as u64,
            get(r, "decisions") as u64,
            get(r, "windows") as u64,
            get(r, "offered") as u64,
            get(r, "dropped") as u64,
            if r.all_pass() { "pass" } else { "**FAIL**" },
        ));
    }
    out
}

/// The full ladder — wall-clock throughput included — as the
/// `BENCH_sched_throughput.json` artifact CI uploads and the committed
/// baseline is distilled from.
fn sched_throughput_json(results: &[CellResult]) -> String {
    let cells: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("label".into(), Json::Str(r.label.clone())),
                ("streams".into(), Json::Num(get(r, "streams"))),
                ("paths".into(), Json::Num(get(r, "paths"))),
                ("workers".into(), Json::Num(get(r, "workers"))),
                ("decisions".into(), Json::Num(get(r, "decisions"))),
                ("windows".into(), Json::Num(get(r, "windows"))),
                ("offered".into(), Json::Num(get(r, "offered"))),
                ("dropped".into(), Json::Num(get(r, "dropped"))),
                ("pps_fast".into(), Json::Num(get(r, "pps_fast").round())),
                ("pps_legacy".into(), Json::Num(get(r, "pps_legacy").round())),
                (
                    "speedup".into(),
                    Json::Num((get(r, "speedup") * 100.0).round() / 100.0),
                ),
                ("equivalent".into(), Json::Bool(r.all_pass())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("sweep".into(), Json::Str("sched_throughput".into())),
        ("cells".into(), Json::Arr(cells)),
    ])
    .to_text()
}

/// The graph-scale scalability sweep's checked table. Every column is a
/// deterministic function of the cell spec — including the delivered
/// packets and the per-*virtual*-second rate — so the block is safe to
/// gate with `report --check`. Wall-clock rates live in
/// [`scalability_json`] only.
fn scalability_table(results: &[CellResult]) -> String {
    let mut out = String::from(
        "| cell | nodes | tenants | k | edges | routes | graph | packets | virtual pps | p̂ min | E[Z] max | tenants pass |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in results {
        let hash = ((get(r, "graph_hi") as u64) << 32) | get(r, "graph_lo") as u64;
        let tenants = get(r, "tenants") as u64;
        let pass = get(r, "tenants_pass") as u64;
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {:#018x} | {} | {:.1} | {:.4} | {:.3} | {} |\n",
            r.label,
            get(r, "nodes") as u64,
            tenants,
            get(r, "k") as u64,
            get(r, "edges") as u64,
            get(r, "routes") as u64,
            hash,
            get(r, "packets") as u64,
            get(r, "vpps"),
            get(r, "lemma1.worst_obs"),
            get(r, "lemma2.worst_obs"),
            if r.all_pass() {
                format!("{pass}/{tenants}")
            } else {
                format!("**{pass}/{tenants} FAIL**")
            },
        ));
    }
    out
}

/// The scalability sweep — wall-clock throughput included — as the
/// `BENCH_scalability.json` artifact CI uploads.
fn scalability_json(results: &[CellResult]) -> String {
    let cells: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("label".into(), Json::Str(r.label.clone())),
                ("nodes".into(), Json::Num(get(r, "nodes"))),
                ("tenants".into(), Json::Num(get(r, "tenants"))),
                ("k".into(), Json::Num(get(r, "k"))),
                ("edges".into(), Json::Num(get(r, "edges"))),
                ("routes".into(), Json::Num(get(r, "routes"))),
                ("packets".into(), Json::Num(get(r, "packets"))),
                ("bytes".into(), Json::Num(get(r, "bytes"))),
                (
                    "vpps".into(),
                    Json::Num((get(r, "vpps") * 1000.0).round() / 1000.0),
                ),
                ("wall_secs".into(), Json::Num(get(r, "wall_secs"))),
                ("pps_wall".into(), Json::Num(get(r, "pps_wall").round())),
                ("tenants_pass".into(), Json::Num(get(r, "tenants_pass"))),
                ("all_pass".into(), Json::Bool(r.all_pass())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("sweep".into(), Json::Str("scalability".into())),
        ("cells".into(), Json::Arr(cells)),
    ])
    .to_text()
}

/// Probes actually spent by the `periodic/100` baseline of each
/// scenario group — the denominator of the table's "spend" column.
fn probe_budget_baselines(results: &[CellResult]) -> BTreeMap<&str, f64> {
    results
        .iter()
        .filter(|r| r.label == "periodic/100")
        .map(|r| (r.group.as_str(), get(r, "probes_total")))
        .collect()
}

/// The probe-budget ablation's checked table. Probe counts are a
/// deterministic function of the planner, the budget and the fault
/// script (lost probes still spend budget), so the whole block —
/// spend column included — is safe to gate with `report --check`.
fn probe_budget_table(results: &[CellResult]) -> String {
    let baselines = probe_budget_baselines(results);
    let mut out = String::from(
        "| scenario | planner | budget | probes | spend | p̂ (lemma1) | ε₁ | misses/win (lemma2) | ε₂ | windows | verdict |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in results {
        let (planner, budget) = r.label.split_once('/').unwrap_or((r.label.as_str(), ""));
        let probes = get(r, "probes_total");
        let spend = baselines
            .get(r.group.as_str())
            .filter(|&&b| b > 0.0)
            .map_or("—".to_string(), |b| format!("{:.0}%", 100.0 * probes / b));
        out.push_str(&format!(
            "| {} | {} | {}% | {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {} | {} |\n",
            r.group,
            planner,
            budget,
            probes as u64,
            spend,
            get(r, "lemma1.observed"),
            get(r, "lemma1.epsilon"),
            get(r, "lemma2.observed"),
            get(r, "lemma2.epsilon"),
            get(r, "lemma1.windows") as u64,
            if r.all_pass() { "pass" } else { "**FAIL**" },
        ));
    }
    out
}

/// The probe-budget sweep as the `BENCH_probe_budget.json` artifact.
/// Unlike the wall-clock benches, every field here is deterministic —
/// the artifact exists so budget-vs-conformance curves can be plotted
/// without re-running the sweep.
fn probe_budget_json(results: &[CellResult]) -> String {
    let baselines = probe_budget_baselines(results);
    let cells: Vec<Json> = results
        .iter()
        .map(|r| {
            let probes = get(r, "probes_total");
            let spend = baselines
                .get(r.group.as_str())
                .filter(|&&b| b > 0.0)
                .map_or(f64::NAN, |b| (1000.0 * probes / b).round() / 1000.0);
            Json::Obj(vec![
                ("scenario".into(), Json::Str(r.group.clone())),
                ("label".into(), Json::Str(r.label.clone())),
                ("budget_pct".into(), Json::Num(get(r, "budget_pct"))),
                ("probes_total".into(), Json::Num(probes)),
                ("spend_frac".into(), Json::Num(spend)),
                (
                    "lemma1_observed".into(),
                    Json::Num(get(r, "lemma1.observed")),
                ),
                ("lemma1_epsilon".into(), Json::Num(get(r, "lemma1.epsilon"))),
                (
                    "lemma2_observed".into(),
                    Json::Num(get(r, "lemma2.observed")),
                ),
                ("lemma2_epsilon".into(), Json::Num(get(r, "lemma2.epsilon"))),
                ("windows".into(), Json::Num(get(r, "lemma1.windows"))),
                ("all_pass".into(), Json::Bool(r.all_pass())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("sweep".into(), Json::Str("probe_budget".into())),
        ("cells".into(), Json::Arr(cells)),
    ])
    .to_text()
}

/// The Diversity-vs-PGOS mapping matrix's checked table. Every column
/// is deterministic in virtual time, so the whole block is safe to
/// gate with `report --check`. The classic mapping's rows under the
/// `uncorrelated` rotation are *expected* to fail Lemma 1 — silent
/// loss is invisible to capacity monitoring and uncoded placement
/// cannot dodge it — which is the sweep's headline, so those rows
/// render their honest `**FAIL**` verdict rather than being gated
/// away (same policy as the starved probe budgets).
fn diversity_table(results: &[CellResult]) -> String {
    let mut out = String::from(
        "| scenario | mapping | p̂ (lemma1) | ε₁ | misses/win (lemma2) | ε₂ | windows | on-time (prob) | on-time (vbound) | recovered | verdict |\n\
         |---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in results {
        // Coding evidence only exists for the diversity mapping; the
        // classic rows render an em-dash.
        let recovered = r.get("prob.recovered").map_or("—".to_string(), |p| {
            format!("{}", (p + get(r, "vbound.recovered")) as u64)
        });
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {} | {:.3} | {:.3} | {} | {} |\n",
            r.group,
            r.label,
            get(r, "lemma1.observed"),
            get(r, "lemma1.epsilon"),
            get(r, "lemma2.observed"),
            get(r, "lemma2.epsilon"),
            get(r, "lemma1.windows") as u64,
            get(r, "prob.before_deadline"),
            get(r, "vbound.before_deadline"),
            recovered,
            if r.all_pass() { "pass" } else { "**FAIL**" },
        ));
    }
    out
}

/// The diversity sweep as the `BENCH_diversity.json` artifact. Every
/// field is deterministic — the artifact exists so the mapping-vs-
/// scenario comparison can be plotted without re-running the sweep.
fn diversity_json(results: &[CellResult]) -> String {
    let cells: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("scenario".into(), Json::Str(r.group.clone())),
                ("mapping".into(), Json::Str(r.label.clone())),
                (
                    "lemma1_observed".into(),
                    Json::Num(get(r, "lemma1.observed")),
                ),
                ("lemma1_epsilon".into(), Json::Num(get(r, "lemma1.epsilon"))),
                (
                    "lemma2_observed".into(),
                    Json::Num(get(r, "lemma2.observed")),
                ),
                ("lemma2_epsilon".into(), Json::Num(get(r, "lemma2.epsilon"))),
                ("windows".into(), Json::Num(get(r, "lemma1.windows"))),
                (
                    "prob_before_deadline".into(),
                    Json::Num(get(r, "prob.before_deadline")),
                ),
                (
                    "vbound_before_deadline".into(),
                    Json::Num(get(r, "vbound.before_deadline")),
                ),
                ("coded_streams".into(), Json::Num(get(r, "coded_streams"))),
                (
                    "recovered".into(),
                    Json::Num(
                        r.get("prob.recovered").unwrap_or(0.0)
                            + r.get("vbound.recovered").unwrap_or(0.0),
                    ),
                ),
                ("all_pass".into(), Json::Bool(r.all_pass())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("sweep".into(), Json::Str("diversity".into())),
        ("cells".into(), Json::Arr(cells)),
    ])
    .to_text()
}

/// The CI regression gate for the `sched_throughput` ladder.
///
/// `baseline_text` is the committed
/// `crates/harness/baselines/sched_throughput.json`:
/// `{"gate": "<cell label>", "speedup": <x>}`. The gate fails when the
/// fast/legacy decision sequences diverge on *any* cell, or when the
/// measured speedup at the gate cell falls below 0.9 × the committed
/// baseline. The 10% allowance absorbs machine noise; the baseline is
/// deliberately conservative (well under locally measured speedups) so
/// only a genuine fast-path regression trips it.
pub fn sched_throughput_gate(results: &[CellResult], baseline_text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for r in results {
        if !r.all_pass() {
            problems.push(format!(
                "sched_throughput `{}`: fast and legacy decision sequences diverged",
                r.label
            ));
        }
    }
    let doc = match Json::parse(baseline_text) {
        Ok(doc) => doc,
        Err(e) => {
            problems.push(format!("sched_throughput baseline unreadable: {e}"));
            return problems;
        }
    };
    let (Some(gate_label), Some(base)) = (
        doc.get("gate").and_then(Json::as_str),
        doc.get("speedup").and_then(Json::as_f64),
    ) else {
        problems
            .push("sched_throughput baseline: need `gate` (string) and `speedup` (number)".into());
        return problems;
    };
    let Some(r) = results.iter().find(|r| r.label == gate_label) else {
        problems.push(format!(
            "sched_throughput baseline gates `{gate_label}` but the sweep produced no such cell"
        ));
        return problems;
    };
    let measured = r.get("speedup").unwrap_or(0.0);
    let floor = 0.9 * base;
    if measured < floor {
        problems.push(format!(
            "sched_throughput gate `{gate_label}`: measured speedup {measured:.2}x \
             is below 0.9x the committed baseline {base:.2}x (floor {floor:.2}x)"
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(name: &str, body: &str) -> Block {
        Block {
            name: name.into(),
            body: body.into(),
        }
    }

    const DOC: &str = "# Title\n\nprose before\n\n\
        <!-- BEGIN GENERATED: t1 -->\nold table\n<!-- END GENERATED: t1 -->\n\n\
        prose after\n";

    #[test]
    fn patch_replaces_only_the_region() {
        let (patched, missing) = patch_blocks(DOC, &[block("t1", "| a |\n| 1 |\n")]);
        assert!(missing.is_empty());
        assert!(patched.contains("prose before"));
        assert!(patched.contains("prose after"));
        assert!(patched.contains("| a |\n| 1 |"));
        assert!(!patched.contains("old table"));
        // Patching is idempotent.
        let (again, _) = patch_blocks(&patched, &[block("t1", "| a |\n| 1 |\n")]);
        assert_eq!(again, patched);
    }

    #[test]
    fn check_flags_drift_and_missing_markers() {
        assert!(check_blocks(DOC, &[block("t1", "old table")]).is_empty());
        let drift = check_blocks(DOC, &[block("t1", "new table")]);
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("drifts"));
        let missing = check_blocks(DOC, &[block("nope", "x")]);
        assert_eq!(missing.len(), 1);
        assert!(missing[0].contains("not found"));
    }

    #[test]
    fn patched_doc_passes_check() {
        let b = [block("t1", "| fresh |\n")];
        let (patched, _) = patch_blocks(DOC, &b);
        assert!(check_blocks(&patched, &b).is_empty());
    }

    fn sched_result(label: &str, speedup: f64, equivalent: bool) -> CellResult {
        CellResult {
            id: format!("sched_throughput//{label}"),
            sweep: "sched_throughput".into(),
            group: String::new(),
            label: label.into(),
            seed: 42,
            cell_seed: 7,
            metrics: vec![
                ("streams".into(), 1000.0),
                ("paths".into(), 8.0),
                ("workers".into(), 1.0),
                ("decisions".into(), 5000.0),
                ("windows".into(), 3.0),
                ("offered".into(), 6000.0),
                ("dropped".into(), 0.0),
                ("pps_fast".into(), 1.0e6),
                ("pps_legacy".into(), 2.0e5),
                ("speedup".into(), speedup),
            ],
            verdicts: vec![("equivalent.pass".into(), equivalent)],
        }
    }

    const BASELINE: &str = r#"{"gate": "1000x8x1", "speedup": 5.0}"#;

    #[test]
    fn sched_gate_passes_at_and_above_the_floor() {
        // Floor is 0.9 x baseline = 4.5x.
        for speedup in [4.5, 5.0, 11.0] {
            let results = [sched_result("1000x8x1", speedup, true)];
            assert_eq!(
                sched_throughput_gate(&results, BASELINE),
                Vec::<String>::new()
            );
        }
    }

    #[test]
    fn sched_gate_fails_below_the_floor_and_on_divergence() {
        let slow = [sched_result("1000x8x1", 4.4, true)];
        let problems = sched_throughput_gate(&slow, BASELINE);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("below 0.9x"), "{problems:?}");

        let diverged = [sched_result("1000x8x1", 11.0, false)];
        let problems = sched_throughput_gate(&diverged, BASELINE);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("diverged"), "{problems:?}");

        let missing = [sched_result("10x2x1", 11.0, true)];
        let problems = sched_throughput_gate(&missing, BASELINE);
        assert!(problems[0].contains("no such cell"), "{problems:?}");

        assert!(!sched_throughput_gate(&slow, "not json").is_empty());
    }

    fn scal_result(pass: bool) -> CellResult {
        CellResult {
            id: "scalability//waxman/64n/8t/k2".into(),
            sweep: "scalability".into(),
            group: String::new(),
            label: "waxman/64n/8t/k2".into(),
            seed: 42,
            cell_seed: 7,
            metrics: vec![
                ("nodes".into(), 64.0),
                ("tenants".into(), 8.0),
                ("k".into(), 2.0),
                ("edges".into(), 300.0),
                ("routes".into(), 16.0),
                ("graph_hi".into(), 0xdead_beef_u64 as f64),
                ("graph_lo".into(), 0x1234_5678_u64 as f64),
                ("packets".into(), 123456.0),
                ("bytes".into(), 1.5e8),
                ("vpps".into(), 5144.0),
                ("lemma1.worst_obs".into(), 0.9712),
                ("lemma2.worst_obs".into(), 3.125),
                ("tenants_pass".into(), if pass { 8.0 } else { 7.0 }),
                ("wall_secs".into(), 2.5),
                ("pps_wall".into(), 49382.4),
            ],
            verdicts: vec![("conformance.pass".into(), pass)],
        }
    }

    #[test]
    fn scalability_table_is_deterministic_and_json_carries_wall_clock() {
        let table = scalability_table(&[scal_result(true)]);
        assert!(table.contains("| waxman/64n/8t/k2 | 64 | 8 | 2 | 300 | 16 |"));
        assert!(table.contains("0xdeadbeef12345678"));
        assert!(table.contains("| 8/8 |"));
        // Wall-clock numbers never reach the checked block.
        assert!(!table.contains("2.5") && !table.contains("49382"));
        let failing = scalability_table(&[scal_result(false)]);
        assert!(failing.contains("**7/8 FAIL**"));

        let json = scalability_json(&[scal_result(true)]);
        assert!(json.contains("\"pps_wall\"") && json.contains("\"wall_secs\""));
        let doc = Json::parse(&json).unwrap();
        assert_eq!(doc.get("sweep").and_then(Json::as_str), Some("scalability"));
    }

    fn pb_result(label: &str, probes: f64, pass: bool) -> CellResult {
        CellResult {
            id: format!("probe_budget/flap/{label}"),
            sweep: "probe_budget".into(),
            group: "flap".into(),
            label: label.into(),
            seed: 42,
            cell_seed: 7,
            metrics: vec![
                ("lemma1.observed".into(), 0.987),
                ("lemma1.target".into(), 0.9),
                ("lemma1.epsilon".into(), 0.11),
                ("lemma1.windows".into(), 95.0),
                ("lemma2.observed".into(), 1.2),
                ("lemma2.target".into(), 30.0),
                ("lemma2.epsilon".into(), 8.0),
                ("lemma2.windows".into(), 95.0),
                (
                    "budget_pct".into(),
                    label.split('/').nth(1).unwrap().parse().unwrap(),
                ),
                ("probes_total".into(), probes),
            ],
            verdicts: vec![
                ("lemma1.pass".into(), pass),
                ("lemma2.pass".into(), pass),
                ("conformance.pass".into(), pass),
            ],
        }
    }

    #[test]
    fn probe_budget_table_reports_spend_against_the_periodic_baseline() {
        let results = [
            pb_result("periodic/100", 360.0, true),
            pb_result("active/25", 90.0, true),
            pb_result("active/5", 18.0, false),
        ];
        let table = probe_budget_table(&results);
        assert!(table.contains("| flap | periodic | 100% | 360 | 100% |"));
        assert!(table.contains("| flap | active | 25% | 90 | 25% |"));
        assert!(table.contains("**FAIL**"));
        let json = probe_budget_json(&results);
        let doc = Json::parse(&json).unwrap();
        assert_eq!(
            doc.get("sweep").and_then(Json::as_str),
            Some("probe_budget")
        );
        assert!(json.contains("\"spend_frac\":0.25"), "{json}");
    }

    fn div_result(scenario: &str, mapping: &str, pass: bool) -> CellResult {
        let mut metrics = vec![
            ("lemma1.observed".into(), if pass { 0.984 } else { 0.741 }),
            ("lemma1.epsilon".into(), 0.11),
            ("lemma2.observed".into(), 1.5),
            ("lemma2.epsilon".into(), 8.0),
            ("lemma1.windows".into(), 95.0),
            (
                "prob.before_deadline".into(),
                if pass { 0.993 } else { 0.687 },
            ),
            (
                "vbound.before_deadline".into(),
                if pass { 0.991 } else { 0.702 },
            ),
            (
                "coded_streams".into(),
                if mapping == "diversity" { 2.0 } else { 0.0 },
            ),
        ];
        if mapping == "diversity" {
            metrics.push(("prob.recovered".into(), 1200.0));
            metrics.push(("vbound.recovered".into(), 800.0));
        }
        CellResult {
            id: format!("diversity/{scenario}/{mapping}"),
            sweep: "diversity".into(),
            group: scenario.into(),
            label: mapping.into(),
            seed: 42,
            cell_seed: 7,
            metrics,
            verdicts: vec![
                ("lemma1.pass".into(), pass),
                ("lemma2.pass".into(), pass),
                ("conformance.pass".into(), pass),
            ],
        }
    }

    #[test]
    fn diversity_table_pairs_mappings_and_keeps_honest_failures() {
        let results = [
            div_result("uncorrelated", "pgos", false),
            div_result("uncorrelated", "diversity", true),
        ];
        let table = diversity_table(&results);
        // The classic mapping's expected lemma failure stays visible…
        assert!(table.contains("| uncorrelated | pgos |"));
        assert!(table.contains("**FAIL**"));
        // …the coded twin reports its recovery evidence and passes.
        assert!(table.contains("| uncorrelated | diversity |"));
        assert!(table.contains("| 2000 | pass |"));
        // Uncoded rows render no recovery counter at all.
        assert!(table.contains("| — | **FAIL** |"));

        let json = diversity_json(&results);
        let doc = Json::parse(&json).unwrap();
        assert_eq!(doc.get("sweep").and_then(Json::as_str), Some("diversity"));
        assert!(json.contains("\"recovered\":2000"), "{json}");
        assert!(json.contains("\"coded_streams\":0"), "{json}");
    }

    #[test]
    fn sched_table_is_deterministic_and_json_carries_wall_clock() {
        let results = [sched_result("1000x8x1", 7.3, true)];
        let table = sched_throughput_table(&results);
        assert!(table.contains("| 1000 | 8 | 1 | 5000 | 3 | 6000 | 0 | pass |"));
        // No wall-clock number leaks into the checked block.
        assert!(!table.contains("7.3") && !table.contains("pps"));
        let json = sched_throughput_json(&results);
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"pps_fast\""));
        let doc = Json::parse(&json).unwrap();
        assert_eq!(
            doc.get("sweep").and_then(Json::as_str),
            Some("sched_throughput")
        );
    }
}
