//! Report CSV/table exports and experiment-builder configuration plumbing.

use iq_paths::apps::smartpointer::SmartPointerConfig;
use iq_paths::middleware::builder::{Figure8Experiment, SchedulerKind};

fn tiny() -> Figure8Experiment {
    let mut e = Figure8Experiment::new(5, 10.0);
    e.runtime.warmup_secs = 10.0;
    e.runtime.history_samples = 50;
    e
}

#[test]
fn report_exports_series_rows_cdf_header_and_summary_table() {
    let out = tiny().run_smartpointer(SmartPointerConfig::default(), SchedulerKind::Pgos);
    let series_csv = out.report.series_csv();
    // Header + one row per (stream, window).
    let expected_rows: usize = out
        .report
        .streams
        .iter()
        .map(|s| s.throughput_series.len())
        .sum();
    assert_eq!(series_csv.lines().count(), 1 + expected_rows);
    let cdf_csv = out.report.cdf_csv();
    assert!(cdf_csv.starts_with("stream,throughput_bps,cdf"));
    let table = out.report.summary_table();
    for s in &out.report.streams {
        assert!(table.contains(&s.name), "summary table missing {}", s.name);
    }
}

#[test]
fn runtime_config_knobs_propagate() {
    let mut e = tiny();
    e.runtime.monitor_window_secs = 0.5;
    let out = e.run_smartpointer(SmartPointerConfig::default(), SchedulerKind::Pgos);
    // 10 s at 0.5 s windows → 20 samples per stream.
    assert_eq!(out.report.streams[0].throughput_series.len(), 20);
    assert_eq!(out.report.monitor_window, 0.5);
}

#[test]
fn pgos_window_config_propagates_through_builder() {
    let mut e = tiny();
    e.runtime.window_secs = 0.5;
    e.pgos.window_secs = 0.5;
    let out = e.run_smartpointer(SmartPointerConfig::default(), SchedulerKind::Pgos);
    // Still meets its guarantees at the shorter scheduling window.
    assert!(out.report.streams[0].summary().meet_fraction > 0.9);
}

#[test]
fn dwcs_through_the_builder_protects_critical_streams() {
    let e = tiny();
    let out = e.run_smartpointer(SmartPointerConfig::default(), SchedulerKind::Dwcs);
    assert_eq!(out.report.scheduler, "DWCS");
    // Single path only.
    assert_eq!(out.report.path_sent_bytes[1], 0);
    // Critical streams protected at the expense of Bond2.
    let atom = out.report.streams[0].summary();
    assert!(atom.meet_fraction > 0.9, "{}", atom.meet_fraction);
    let bond2 = &out.report.streams[2];
    assert!(bond2.mean_throughput() < 60.0e6);
}

#[test]
fn figure9_scheduler_list_is_the_paper_order() {
    use SchedulerKind::*;
    assert_eq!(SchedulerKind::FIGURE9, [Wfq, Msfq, Pgos, OptSched]);
}
