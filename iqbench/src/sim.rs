//! Simulated-time metrics: what the modelled middleware delivered,
//! computed from the verify repetition's `RunReport`s and delivery
//! events. They are deterministic — for one seed they repeat exactly —
//! so a change meant only to speed the simulator up must leave every
//! one of them, and the digest, bit-identical.

use crate::stats::{median, percentile_nearest_rank};
use iqpaths_core::stream::{Guarantee, StreamSpec};
use iqpaths_middleware::report::RunReport;
use iqpaths_middleware::runtime::DeliveryEvent;
use iqpaths_simnet::fault::fnv1a64;

/// FNV-1a over the report's full `Debug` rendering. `f64`'s `Debug` is
/// shortest-round-trip, so two reports share a digest exactly when
/// every field, floats included, is bit-identical.
pub fn digest(report: &RunReport) -> u64 {
    fnv1a64(format!("{report:?}").as_bytes())
}

/// Folds the digests of a repetition's runs into one.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut bytes = Vec::new();
    for d in digests {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The delivery sink of one verify run. Guaranteed-stream deliveries
/// are kept whole until the run's report says which streams were
/// erasure-coded: parity blocks (`seq % n >= k`) are not application
/// packets, and the (n, k) plan is only visible on the report.
#[derive(Debug)]
pub struct DeliveryLog {
    /// Per guaranteed stream: (seq, bytes, enqueue→client seconds).
    guaranteed: Vec<Option<Vec<(u64, u32, f64)>>>,
    best_effort_bytes: u64,
}

/// Application-level deliveries of a repetition's runs.
#[derive(Debug, Default)]
pub struct Delivered {
    /// Per run: the median and the 99th percentile (nearest rank) of
    /// the virtual enqueue→client latency of its guaranteed-stream
    /// application packets, in seconds. Runs without such a delivery
    /// add nothing.
    pub run_latency_p50_s: Vec<f64>,
    pub run_latency_p99_s: Vec<f64>,
    /// Latency samples behind the percentiles, all runs.
    pub latency_samples: usize,
    /// Application bytes delivered, parity excluded.
    pub app_bytes: u64,
}

impl DeliveryLog {
    pub fn new(specs: &[StreamSpec]) -> Self {
        Self {
            guaranteed: specs
                .iter()
                .map(|s| (!s.guarantee.is_best_effort()).then(Vec::new))
                .collect(),
            best_effort_bytes: 0,
        }
    }

    pub fn on_delivery(&mut self, d: &DeliveryEvent) {
        match &mut self.guaranteed[d.stream] {
            Some(log) => log.push((d.seq, d.bytes, d.delivered - d.created)),
            None => self.best_effort_bytes += u64::from(d.bytes),
        }
    }

    /// Folds the run's application packets into `out`.
    pub fn finish(self, report: &RunReport, out: &mut Delivered) {
        out.app_bytes += self.best_effort_bytes;
        let mut latencies = Vec::new();
        for (log, stream) in self.guaranteed.into_iter().zip(&report.streams) {
            let (n, k) = stream
                .coding
                .as_ref()
                .map_or((1, 1), |c| (c.n as u64, c.k as u64));
            for (seq, bytes, latency) in log.into_iter().flatten() {
                if seq % n < k {
                    out.app_bytes += u64::from(bytes);
                    latencies.push(latency);
                }
            }
        }
        if !latencies.is_empty() {
            latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            out.run_latency_p50_s
                .push(percentile_nearest_rank(&latencies, 0.50));
            out.run_latency_p99_s
                .push(percentile_nearest_rank(&latencies, 0.99));
            out.latency_samples += latencies.len();
        }
    }
}

/// Counters behind the simulated metrics, summed over a repetition's
/// runs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimCounts {
    /// (probabilistic stream, monitor window) pairs, and how many met
    /// `throughput ≥ required_bw − 1` (the `lemma_outcomes` criterion,
    /// all windows, no settle filter).
    pub lemma1_pairs: u64,
    pub lemma1_ok: u64,
    /// Guaranteed-stream application packets offered / delivered (or
    /// decode-recovered) before their window deadline.
    pub guaranteed_offered: u64,
    pub guaranteed_ontime: u64,
    /// Application packets offered, all streams, and how many failed:
    /// queue drops + transit losses not recovered by decode +
    /// guaranteed packets served past their deadline.
    pub attempted: u64,
    pub failed: u64,
    pub delivered_packets: u64,
    pub events: u64,
    pub virtual_secs: f64,
    /// Decoded / total erasure-coded groups (0/0 on uncoded runs).
    pub groups_decoded: u64,
    pub groups_total: u64,
}

impl SimCounts {
    pub fn absorb(&mut self, specs: &[StreamSpec], report: &RunReport) {
        for (i, (spec, s)) in specs.iter().zip(&report.streams).enumerate() {
            let m = &report.metrics.streams[i];
            // Coded streams account at decode-complete granularity and
            // count data blocks only (parity is not application data).
            let (offered, ontime, failed) = match &s.coding {
                Some(c) => {
                    self.groups_decoded += c.groups_decoded;
                    self.groups_total += c.groups_total;
                    let ok = c.data_ontime + c.recovered;
                    (c.data_offered, ok, c.data_offered.saturating_sub(ok))
                }
                None => (
                    m.enqueued + m.queue_dropped,
                    s.deadline_packets - s.deadline_misses,
                    s.queue_drops + s.transit_lost + s.deadline_misses,
                ),
            };
            self.attempted += offered;
            self.failed += failed;
            if !spec.guarantee.is_best_effort() {
                self.guaranteed_offered += offered;
                self.guaranteed_ontime += ontime;
            }
            if let Guarantee::Probabilistic { .. } = spec.guarantee {
                self.lemma1_pairs += s.throughput_series.len() as u64;
                self.lemma1_ok += s
                    .throughput_series
                    .iter()
                    .filter(|&&bw| bw >= spec.required_bw - 1.0)
                    .count() as u64;
            }
            self.delivered_packets += s.delivered_packets;
        }
        self.events += report.events;
        self.virtual_secs += report.duration;
    }

    pub fn fail_share(&self) -> f64 {
        share(self.failed, self.attempted)
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The six simulated end-to-end metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    pub lemma1_ok_share: f64,
    pub ontime_share: f64,
    pub guar_latency_p50_ms: f64,
    pub guar_latency_p99_ms: f64,
    pub goodput_mbps: f64,
    pub delivered_share: f64,
}

/// A workload of several runs (tenants) reports the median run's
/// percentile: each tenant sees its own tail, and pooling every
/// tenant's packets would report the one tenant with the longest route.
pub fn sim_metrics(counts: &SimCounts, delivered: &Delivered) -> SimMetrics {
    let across_runs_ms = |per_run: &[f64]| {
        if per_run.is_empty() {
            0.0
        } else {
            median(per_run) * 1.0e3
        }
    };
    SimMetrics {
        lemma1_ok_share: share(counts.lemma1_ok, counts.lemma1_pairs),
        ontime_share: share(counts.guaranteed_ontime, counts.guaranteed_offered),
        guar_latency_p50_ms: across_runs_ms(&delivered.run_latency_p50_s),
        guar_latency_p99_ms: across_runs_ms(&delivered.run_latency_p99_s),
        goodput_mbps: delivered.app_bytes as f64 * 8.0 / counts.virtual_secs / 1.0e6,
        delivered_share: 1.0 - counts.fail_share(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_folding_is_order_sensitive_and_stable() {
        let a = fold_digests([1, 2, 3]);
        assert_eq!(a, fold_digests([1, 2, 3]));
        assert_ne!(a, fold_digests([3, 2, 1]));
        assert_ne!(fold_digests([1]), fold_digests([1, 0]));
        // FNV-1a offset basis for the empty input.
        assert_eq!(fold_digests([]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn shares_of_empty_counts_are_zero_not_nan() {
        let c = SimCounts::default();
        assert_eq!(c.fail_share(), 0.0);
        assert_eq!(share(0, 0), 0.0);
    }
}
