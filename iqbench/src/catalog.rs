//! The metric catalogue: every name the benchmark reports, with its
//! unit, direction and — for end-to-end metrics — regression bound.
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step); the ledger (`result.json`) carries the extra columns.

use crate::stats::Better::{self, Higher, Lower};

/// Whether a metric measures the simulator (host time, host memory) or
/// the modelled system (virtual time; deterministic for a seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Sim,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
        }
    }
}

pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median by which the metric may get worse.
    /// Across seeds and commits, that is; for one seed and one commit a
    /// `Sim` metric must repeat exactly (`--check-repeat`).
    pub bound: f64,
}

/// One row per line: the table is the documentation.
#[rustfmt::skip]
pub const E2E: [E2eDef; 9] = [
    E2eDef { name: "wall_ns_per_pkt", unit: "ns", better: Lower, kind: Kind::Host, bound: 0.1 },
    E2eDef { name: "setup_s", unit: "s", better: Lower, kind: Kind::Host, bound: 0.25 },
    E2eDef { name: "peak_rss_mb", unit: "MB", better: Lower, kind: Kind::Host, bound: 0.2 },
    E2eDef { name: "lemma1_ok_share", unit: "share", better: Higher, kind: Kind::Sim, bound: 0.03 },
    E2eDef { name: "ontime_share", unit: "share", better: Higher, kind: Kind::Sim, bound: 0.02 },
    E2eDef { name: "guar_latency_p50_ms", unit: "ms", better: Lower, kind: Kind::Sim, bound: 0.2 },
    E2eDef { name: "guar_latency_p99_ms", unit: "ms", better: Lower, kind: Kind::Sim, bound: 0.25 },
    E2eDef { name: "goodput_mbps", unit: "Mbit/s", better: Higher, kind: Kind::Sim, bound: 0.02 },
    E2eDef { name: "delivered_share", unit: "share", better: Higher, kind: Kind::Sim, bound: 0.02 },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timing decorators around the public traits during a real run.
    Span,
    /// Exact counts (decision trace, `RunReport`): repeat bit-for-bit.
    Count,
    /// An isolated drive of the layer's public functions.
    Replay,
    /// The benchmark's own overheads and calibration.
    Overhead,
}

impl Source {
    pub fn name(self) -> &'static str {
        match self {
            Source::Span => "span",
            Source::Count => "count",
            Source::Replay => "replay",
            Source::Overhead => "overhead",
        }
    }
}

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The (end-to-end metric, workload) pairs this number is predicted
    /// to move — written before measuring, see README.md.
    pub moves: &'static str,
}

impl LayerDef {
    /// Layer names are module names: the name without its last
    /// segment, at most two segments deep (`core.scheduler`, `traces`).
    pub fn layer(&self) -> String {
        let segments: Vec<&str> = self.name.split('.').collect();
        segments[..(segments.len() - 1).min(2)].join(".")
    }
}

const NP: &str = "wall_ns_per_pkt on fig8_smartpointer (~0.8 of a saving), diversity_loss (~0.7), wide_smallpkt (~0.4); none on control_churn";
const WS: &str = "wall_ns_per_pkt on control_churn only (<= 2 % elsewhere)";
const PKT: &str = "wall_ns_per_pkt on wide_smallpkt, then manytenant_setup";
const SETUP: &str = "setup_s on manytenant_setup only";
const FIXED: &str = "wall_ns_per_pkt and peak_rss_mb on manytenant_setup";
const SIM: &str = "simulated metrics (ontime_share, lemma1_ok_share, guar_latency_*) on control_churn and diversity_loss; a pure speed-up leaves it unchanged";
const NONE: &str = "no end-to-end metric (tracing and decorators are off in the end-to-end runs)";

macro_rules! layer {
    ($name:literal, $unit:literal, $better:expr, $source:expr, $moves:expr) => {
        LayerDef {
            name: $name,
            unit: $unit,
            better: $better,
            source: $source,
            moves: $moves,
        }
    };
}

#[rustfmt::skip]
pub const LAYERS: [LayerDef; 60] = [
    // In-run spans (decorated repetitions, trace off).
    layer!("core.scheduler.next_packet.calls", "count", Lower, Source::Span, NP),
    layer!("core.scheduler.next_packet.ns_p50", "ns", Lower, Source::Span, NP),
    layer!("core.scheduler.next_packet.ns_p99", "ns", Lower, Source::Span, NP),
    layer!("core.scheduler.next_packet.total_ms", "ms", Lower, Source::Span, NP),
    layer!("core.scheduler.next_packet.share_pct", "%", Lower, Source::Span, NP),
    layer!("core.scheduler.next_packet.idle_share", "share", Lower, Source::Span, NP),
    layer!("core.scheduler.on_window_start.calls", "count", Lower, Source::Span, WS),
    layer!("core.scheduler.on_window_start.us_p50", "us", Lower, Source::Span, WS),
    layer!("core.scheduler.on_window_start.us_p99", "us", Lower, Source::Span, WS),
    layer!("core.scheduler.on_window_start.total_ms", "ms", Lower, Source::Span, WS),
    layer!("core.scheduler.on_window_start.share_pct", "%", Lower, Source::Span, WS),
    layer!("core.scheduler.plan_coding.us", "us", Lower, Source::Span, "wall_ns_per_pkt on diversity_loss (one call per run: negligible)"),
    layer!("apps.workload.next_arrival.calls", "count", Lower, Source::Span, PKT),
    layer!("apps.workload.next_arrival.total_ms", "ms", Lower, Source::Span, PKT),
    layer!("apps.workload.next_arrival.share_pct", "%", Lower, Source::Span, PKT),
    layer!("middleware.runtime.events", "count", Lower, Source::Count, PKT),
    layer!("middleware.runtime.events_per_s", "1/s", Higher, Source::Span, PKT),
    layer!("middleware.runtime.events_per_pkt", "1/pkt", Lower, Source::Count, PKT),
    layer!("middleware.runtime.other_share_pct", "%", Lower, Source::Span, PKT),
    // Exact counts from the decision trace and the run reports.
    layer!("core.scheduler.rule1_share", "share", Higher, Source::Count, SIM),
    layer!("core.scheduler.rule2_share", "share", Lower, Source::Count, SIM),
    layer!("core.scheduler.rule3_share", "share", Lower, Source::Count, SIM),
    layer!("core.scheduler.backoff_steps", "count", Lower, Source::Count, SIM),
    layer!("core.mapping.decisions", "count", Lower, Source::Count, SIM),
    layer!("core.mapping.upcalls", "count", Lower, Source::Count, SIM),
    layer!("overlay.probe.samples", "count", Lower, Source::Count, WS),
    layer!("overlay.probe.lost", "count", Lower, Source::Count, SIM),
    layer!("overlay.planner.spend_share", "share", Lower, Source::Count, WS),
    layer!("core.queues.drops", "count", Lower, Source::Count, SIM),
    layer!("simnet.server.transit_drops", "count", Lower, Source::Count, SIM),
    layer!("simnet.server.blocked_events", "count", Lower, Source::Count, SIM),
    layer!("core.coding.parity_sent", "count", Lower, Source::Count, SIM),
    layer!("core.coding.recovered", "count", Higher, Source::Count, SIM),
    layer!("core.coding.groups_decoded_share", "share", Higher, Source::Count, SIM),
    layer!("trace.sink.events", "count", Lower, Source::Count, NONE),
    layer!("trace.sink.events_per_pkt", "1/pkt", Lower, Source::Count, NONE),
    layer!("middleware.runtime.fail_share", "share", Lower, Source::Count, "delivered_share on every workload (it is 1 - this)"),
    // Replay drives.
    layer!("simnet.event.ns_per_op", "ns", Lower, Source::Replay, PKT),
    layer!("simnet.event.est_share_pct", "%", Lower, Source::Replay, PKT),
    layer!("core.queues.ns_per_pushpop", "ns", Lower, Source::Replay, PKT),
    layer!("core.queues.est_share_pct", "%", Lower, Source::Replay, PKT),
    layer!("simnet.server.ns_per_pkt", "ns", Lower, Source::Replay, PKT),
    layer!("simnet.server.est_share_pct", "%", Lower, Source::Replay, PKT),
    layer!("overlay.probe.ns_per_probe", "ns", Lower, Source::Replay, WS),
    layer!("overlay.probe.est_share_pct", "%", Lower, Source::Replay, WS),
    layer!("overlay.node.snapshot_us", "us", Lower, Source::Replay, WS),
    layer!("overlay.node.est_share_pct", "%", Lower, Source::Replay, WS),
    layer!("overlay.planner.plan_us", "us", Lower, Source::Replay, WS),
    layer!("overlay.planner.est_share_pct", "%", Lower, Source::Replay, WS),
    layer!("trace.metrics.ns_per_pkt", "ns", Lower, Source::Replay, PKT),
    layer!("trace.metrics.est_share_pct", "%", Lower, Source::Replay, PKT),
    layer!("simnet.fault.with_faults_us_per_path", "us", Lower, Source::Replay, FIXED),
    layer!("overlay.graph.kpaths_ms_per_tenant", "ms", Lower, Source::Replay, SETUP),
    layer!("traces.gen_ms", "ms", Lower, Source::Replay, SETUP),
    layer!("testkit.manytenant.compile_ms", "ms", Lower, Source::Replay, SETUP),
    // Overheads and honesty.
    layer!("trace.sink.overhead_pct", "%", Lower, Source::Overhead, NONE),
    layer!("bench.decorator_overhead_pct", "%", Lower, Source::Overhead, NONE),
    layer!("bench.timer_ns", "ns", Lower, Source::Overhead, NONE),
    layer!("bench.calib_ns", "ns", Lower, Source::Overhead, NONE),
    layer!("bench.unattributed_pct", "%", Lower, Source::Overhead, NONE),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = E2E
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(E2E.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(E2E
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn layer_is_the_module_path() {
        let layer = |n: &str| LAYERS.iter().find(|l| l.name == n).unwrap().layer();
        assert_eq!(layer("core.scheduler.next_packet.ns_p50"), "core.scheduler");
        assert_eq!(layer("core.scheduler.rule1_share"), "core.scheduler");
        assert_eq!(layer("apps.workload.next_arrival.calls"), "apps.workload");
        assert_eq!(layer("traces.gen_ms"), "traces");
        assert_eq!(layer("bench.timer_ns"), "bench");
    }

    /// `BENCHMARK.json` is the contract the driver reads; the catalogue
    /// is what the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = text
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("{key} missing"));
            let end = text[start..].find(']').expect("section closes") + start;
            &text[start..end]
        };
        let named = |section: &str| -> BTreeSet<String> {
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').unwrap()].to_string())
                .collect()
        };
        let set = |names: &mut dyn Iterator<Item = &'static str>| {
            names.map(str::to_string).collect::<BTreeSet<_>>()
        };
        assert_eq!(
            named(section("end_to_end")),
            set(&mut E2E.iter().map(|m| m.name))
        );
        assert_eq!(
            named(section("per_layer")),
            set(&mut LAYERS.iter().map(|m| m.name))
        );
        assert_eq!(
            named(section("workloads")),
            set(&mut crate::workloads::ALL.iter().map(|w| w.name))
        );
        assert!(text.contains(&format!("\"run_seconds\": {}", crate::DEFAULT_SECONDS)));
        for m in &E2E {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
    }
}
