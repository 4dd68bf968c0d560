//! Experiment result records.

use iqpaths_core::mapping::Upcall;
use iqpaths_core::stream::StreamSpec;
use iqpaths_stats::metrics::GuaranteeSummary;
use iqpaths_stats::{BandwidthCdf, EmpiricalCdf};
use iqpaths_trace::Metrics;

/// Per-stream outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Stream name.
    pub name: String,
    /// SLO bandwidth (0 for best effort).
    pub required_bw: f64,
    /// Per-window achieved throughput (bits/s), one sample per monitor
    /// window — the Figure 9/12 time series.
    pub throughput_series: Vec<f64>,
    /// Per-path throughput series (`[path][window]`) — the
    /// "Bond2-PathA / Bond2-PathB" style curves of Figures 9c/13b.
    pub per_path_series: Vec<Vec<f64>>,
    /// Packets delivered.
    pub delivered_packets: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Packets dropped at the stream queue (overload shedding).
    pub queue_drops: u64,
    /// Queue drop rate.
    pub drop_rate: f64,
    /// Packets lost in transit (link loss).
    pub transit_lost: u64,
    /// Transit loss rate relative to packets transmitted for the stream.
    pub transit_loss_rate: f64,
    /// Mean end-to-end latency in seconds.
    pub mean_latency: f64,
    /// Packets carrying a scheduling-window deadline.
    pub deadline_packets: u64,
    /// Deadline-bearing packets served past their deadline — the raw
    /// count behind Lemma 2's expected-violation bound.
    pub deadline_misses: u64,
    /// Fraction of deadline-bearing packets that missed.
    pub deadline_miss_rate: f64,
    /// Erasure-coding outcome, present only for streams that ran under
    /// a `Diversity` coding plan (absent ⇒ the classic uncoded path,
    /// keeping pre-Diversity report JSON byte-identical).
    pub coding: Option<CodingStats>,
}

/// Decode-complete delivery accounting for one erasure-coded stream
/// (DESIGN.md §15). "On time" means the block finished transmission
/// before its scheduling-window deadline; a group *decodes* when any
/// `k` of its `n` blocks are on time, at which point every data block
/// of the group counts as delivered before deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct CodingStats {
    /// Blocks per group (data + parity).
    pub n: usize,
    /// Data blocks per group.
    pub k: usize,
    /// Planner's correlation-discounted P(group decodes on time).
    pub decode_probability: f64,
    /// Data packets the application offered (parity excluded).
    pub data_offered: u64,
    /// Data blocks that arrived before their deadline directly.
    pub data_ontime: u64,
    /// Data blocks credited by group decode despite being lost or late
    /// themselves.
    pub recovered: u64,
    /// Groups that reached `k` on-time blocks.
    pub groups_decoded: u64,
    /// Groups that received at least one block.
    pub groups_total: u64,
    /// Parity blocks synthesized and enqueued.
    pub parity_sent: u64,
}

impl CodingStats {
    /// Fraction of offered data delivered before deadline at
    /// decode-complete granularity — the Diversity-vs-PGOS headline
    /// metric of the `diversity` sweep.
    pub fn delivered_before_deadline(&self) -> f64 {
        if self.data_offered == 0 {
            0.0
        } else {
            (self.data_ontime + self.recovered) as f64 / self.data_offered as f64
        }
    }
}

impl StreamReport {
    /// The Figure 11 summary row for this stream.
    pub fn summary(&self) -> GuaranteeSummary {
        GuaranteeSummary::from_samples(&self.throughput_series, self.required_bw)
    }

    /// Empirical CDF of the throughput series (Figure 10 / 13 curves).
    pub fn throughput_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::from_clean_samples(self.throughput_series.clone())
    }

    /// Bandwidth attained at least `fraction` of the time.
    pub fn attained(&self, fraction: f64) -> f64 {
        iqpaths_stats::metrics::attained(&self.throughput_series, fraction)
    }

    /// Mean achieved throughput in bits/s.
    pub fn mean_throughput(&self) -> f64 {
        iqpaths_stats::metrics::mean(&self.throughput_series)
    }
}

/// Full outcome of one experiment run.
///
/// `PartialEq` compares every field bit-for-bit (float equality
/// included) — the currency of the traced ≡ untraced and repeatability
/// checks.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scheduler under test.
    pub scheduler: String,
    /// Measured duration in seconds (after warm-up).
    pub duration: f64,
    /// Monitor window length in seconds.
    pub monitor_window: f64,
    /// One report per stream, in stream order.
    pub streams: Vec<StreamReport>,
    /// Bytes transmitted per path.
    pub path_sent_bytes: Vec<u64>,
    /// Blocked-path detections per path (each one fed the scheduler's
    /// exponential backoff) — the fault-injection observability hook.
    pub path_blocked_events: Vec<u64>,
    /// Admission-control upcalls raised during the run.
    pub upcalls: Vec<Upcall>,
    /// Discrete events processed (run cost metric).
    pub events: u64,
    /// Always-on packet-lifecycle counters and latency histograms
    /// (populated by the runtime whether or not a trace was attached).
    pub metrics: Metrics,
}

impl RunReport {
    /// Looks a stream up by name.
    pub fn stream(&self, name: &str) -> Option<&StreamReport> {
        self.streams.iter().find(|s| s.name == name)
    }

    /// Total delivered goodput across streams, bits/s.
    pub fn total_goodput(&self) -> f64 {
        self.streams
            .iter()
            .map(|s| s.delivered_bytes as f64 * 8.0)
            .sum::<f64>()
            / self.duration
    }

    /// Prints the Figure 11-style summary table to a string.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>12} {:>12} {:>10} {:>8}\n",
            "stream", "target", "mean", "95%time", "99%time", "stddev", "meet%"
        ));
        for s in &self.streams {
            let g = s.summary();
            out.push_str(&format!(
                "{:<10} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>10.0} {:>8.3}\n",
                s.name, g.target, g.mean, g.attained_95, g.attained_99, g.stddev, g.meet_fraction
            ));
        }
        out
    }

    /// Writes the throughput time series as CSV (`window,stream,value`).
    pub fn series_csv(&self) -> String {
        let mut out = String::from("window_s,stream,throughput_bps\n");
        for s in &self.streams {
            for (w, v) in s.throughput_series.iter().enumerate() {
                out.push_str(&format!(
                    "{:.3},{},{:.1}\n",
                    w as f64 * self.monitor_window,
                    s.name,
                    v
                ));
            }
        }
        out
    }

    /// Writes the throughput CDFs as CSV (`stream,throughput,cdf`).
    pub fn cdf_csv(&self) -> String {
        let mut out = String::from("stream,throughput_bps,cdf\n");
        for s in &self.streams {
            let cdf = s.throughput_cdf();
            let n = cdf.len();
            for (k, v) in cdf.samples().iter().enumerate() {
                out.push_str(&format!(
                    "{},{:.1},{:.4}\n",
                    s.name,
                    v,
                    (k + 1) as f64 / n as f64
                ));
            }
        }
        out
    }
}

/// Helper to build a [`StreamReport`] (used by the runtime).
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream_report(
    spec: &StreamSpec,
    throughput_series: Vec<f64>,
    per_path_series: Vec<Vec<f64>>,
    delivered_packets: u64,
    delivered_bytes: u64,
    queue_drops: u64,
    offered: u64,
    latencies_sum: f64,
    deadline_packets: u64,
    deadline_misses: u64,
    transit_lost: u64,
    coding: Option<CodingStats>,
) -> StreamReport {
    let transmitted = delivered_packets + transit_lost;
    StreamReport {
        name: spec.name.clone(),
        required_bw: spec.required_bw,
        throughput_series,
        per_path_series,
        delivered_packets,
        delivered_bytes,
        queue_drops,
        drop_rate: if offered == 0 {
            0.0
        } else {
            queue_drops as f64 / offered as f64
        },
        transit_lost,
        transit_loss_rate: if transmitted == 0 {
            0.0
        } else {
            transit_lost as f64 / transmitted as f64
        },
        mean_latency: if delivered_packets == 0 {
            0.0
        } else {
            latencies_sum / delivered_packets as f64
        },
        deadline_packets,
        deadline_misses,
        deadline_miss_rate: if deadline_packets == 0 {
            0.0
        } else {
            deadline_misses as f64 / deadline_packets as f64
        },
        coding,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let spec = StreamSpec::probabilistic(0, "Atom", 10.0, 0.95, 100);
        let sr = stream_report(
            &spec,
            vec![8.0, 10.0, 12.0, 11.0],
            vec![vec![8.0, 10.0, 12.0, 11.0]],
            40,
            4000,
            2,
            42,
            0.4,
            40,
            4,
            10,
            None,
        );
        let mut metrics = Metrics::new(1, 1);
        for _ in 0..50 {
            metrics.on_enqueue(0);
        }
        for _ in 0..2 {
            metrics.on_queue_drop(0);
        }
        for _ in 0..50 {
            metrics.on_dispatch(0, 0, 100);
        }
        for _ in 0..40 {
            metrics.on_deliver(0, 0, 10_000_000, true, false);
        }
        for _ in 0..10 {
            metrics.on_transit_loss(0, 0);
        }
        RunReport {
            scheduler: "PGOS".into(),
            duration: 4.0,
            monitor_window: 1.0,
            streams: vec![sr],
            path_sent_bytes: vec![4000],
            path_blocked_events: vec![0],
            upcalls: vec![],
            events: 100,
            metrics,
        }
    }

    #[test]
    fn stream_report_metrics() {
        let r = report();
        let s = &r.streams[0];
        assert!((s.mean_throughput() - 10.25).abs() < 1e-9);
        assert!((s.drop_rate - 2.0 / 42.0).abs() < 1e-12);
        assert!((s.mean_latency - 0.01).abs() < 1e-12);
        assert!((s.deadline_miss_rate - 0.1).abs() < 1e-12);
        assert_eq!(s.deadline_packets, 40);
        assert_eq!(s.deadline_misses, 4);
        assert_eq!(s.throughput_cdf().len(), 4);
        assert_eq!(s.transit_lost, 10);
        assert!((s.transit_loss_rate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn run_report_lookup_and_goodput() {
        let r = report();
        assert!(r.stream("Atom").is_some());
        assert!(r.stream("nope").is_none());
        assert!((r.total_goodput() - 8000.0).abs() < 1e-9);
    }

    #[test]
    fn summary_and_attained_percentiles() {
        let r = report();
        let s = &r.streams[0];
        // Sorted series [8, 10, 11, 12]: the rate attained 100% of the
        // time is the minimum; 50% of the time, the median sample.
        assert!((s.attained(1.0) - 8.0).abs() < 1e-12);
        assert!((s.attained(0.5) - 10.0).abs() < 1e-12);
        let g = s.summary();
        assert!((g.target - 10.0).abs() < 1e-12);
        assert!((g.mean - 10.25).abs() < 1e-12);
        // 3 of 4 windows meet the 10.0 target.
        assert!((g.meet_fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn run_metrics_agree_with_stream_report() {
        let r = report();
        assert!(r.metrics.conserved());
        let m = &r.metrics.streams[0];
        assert_eq!(m.enqueued, 50);
        assert_eq!(m.queue_dropped, r.streams[0].queue_drops);
        assert_eq!(m.delivered, r.streams[0].delivered_packets);
        assert_eq!(m.transit_lost, r.streams[0].transit_lost);
        assert_eq!(m.deadline_packets, r.streams[0].deadline_packets);
        assert_eq!(m.outstanding(), 0);
        assert_eq!(r.metrics.paths[0].bytes, 5000);
        // 10 ms deliveries → the log2-bucketed p99 is within 2×.
        let p99 = r.metrics.latency_quantile(0, 0.99).unwrap();
        assert!((0.01..0.02).contains(&p99), "p99={p99}");
        assert_eq!(
            r.metrics.latency_quantile(0, 0.5),
            r.metrics.latency_quantile(0, 0.99)
        );
    }

    #[test]
    fn csv_outputs_are_well_formed() {
        let r = report();
        let series = r.series_csv();
        assert_eq!(series.lines().count(), 1 + 4);
        assert!(series.starts_with("window_s,stream,throughput_bps"));
        let cdf = r.cdf_csv();
        assert_eq!(cdf.lines().count(), 1 + 4);
        let table = r.summary_table();
        assert!(table.contains("Atom"));
    }
}
