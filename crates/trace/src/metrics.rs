//! Always-on runtime counters and latency histograms.
//!
//! Unlike the event bus (opt-in, arbitrarily detailed), metrics are
//! plain `u64` bumps plus one logarithmic histogram bucket per
//! delivery — cheap enough to keep enabled on every run and exported
//! on `RunReport` as the production-observability surface.

/// A base-2 logarithmic latency histogram over nanoseconds.
///
/// Bucket `k` holds samples with `floor(log2(ns)) == k` (bucket 0 also
/// takes 0 ns). 64 buckets cover the full `u64` range; quantile
/// queries return the upper bound of the containing bucket, i.e. they
/// are exact to within a factor of 2 — the right fidelity for
/// "p99 latency regressed 10×" regression gates at zero allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        63 - ns.max(1).leading_zeros() as usize
    }

    /// Records one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Exact maximum sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`None` when empty). Exact to within a factor of 2.
    ///
    /// # Panics
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile in [0, 1]");
        if self.count == 0 {
            return None;
        }
        // Rank of the q-quantile sample, 1-based, clamped into range.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if k >= 63 { u64::MAX } else { (2u64 << k) - 1 });
            }
        }
        unreachable!("count covers all buckets");
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Per-stream packet accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Packets admitted to the stream queue.
    pub enqueued: u64,
    /// Arrivals shed by the full queue.
    pub queue_dropped: u64,
    /// Packets handed to a path service.
    pub dispatched: u64,
    /// Packets delivered to the client.
    pub delivered: u64,
    /// Packets lost in transit after dispatch.
    pub transit_lost: u64,
    /// Delivered packets that carried a scheduling-window deadline.
    pub deadline_packets: u64,
    /// Deadline-bearing packets served past their deadline.
    pub deadline_misses: u64,
}

impl StreamCounters {
    /// Packets enqueued but neither delivered nor lost — still queued
    /// or in flight when the run ended.
    pub fn outstanding(&self) -> u64 {
        self.enqueued - self.delivered - self.transit_lost
    }

    /// Flow conservation: every enqueued packet is delivered, lost, or
    /// still outstanding, and nothing is delivered twice.
    pub fn conserved(&self) -> bool {
        self.delivered + self.transit_lost <= self.enqueued
            && self.dispatched >= self.delivered + self.transit_lost
            && self.dispatched <= self.enqueued
    }
}

/// Per-path service accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCounters {
    /// Packets handed to this path's service.
    pub dispatched: u64,
    /// Packets this path delivered.
    pub delivered: u64,
    /// Packets this path lost in transit.
    pub transit_lost: u64,
    /// Payload bytes dispatched.
    pub bytes: u64,
    /// Blocked-path detections.
    pub blocked_events: u64,
}

/// The run's metrics snapshot: per-stream and per-path counters plus a
/// per-stream end-to-end latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// One row per stream, in stream order.
    pub streams: Vec<StreamCounters>,
    /// One row per path, in path order.
    pub paths: Vec<PathCounters>,
    /// Per-stream end-to-end latency (enqueue → client arrival).
    pub latency: Vec<LatencyHistogram>,
}

impl Metrics {
    /// Zeroed metrics for `streams` × `paths`.
    pub fn new(streams: usize, paths: usize) -> Self {
        Self {
            streams: vec![StreamCounters::default(); streams],
            paths: vec![PathCounters::default(); paths],
            latency: vec![LatencyHistogram::new(); streams],
        }
    }

    /// Records a successful enqueue.
    #[inline]
    pub fn on_enqueue(&mut self, stream: usize) {
        self.streams[stream].enqueued += 1;
    }

    /// Records a queue-full drop.
    #[inline]
    pub fn on_queue_drop(&mut self, stream: usize) {
        self.streams[stream].queue_dropped += 1;
    }

    /// Records a packet handed to a path service.
    #[inline]
    pub fn on_dispatch(&mut self, stream: usize, path: usize, bytes: u32) {
        self.streams[stream].dispatched += 1;
        self.paths[path].dispatched += 1;
        self.paths[path].bytes += u64::from(bytes);
    }

    /// Records a delivery with its end-to-end latency.
    #[inline]
    pub fn on_deliver(
        &mut self,
        stream: usize,
        path: usize,
        latency_ns: u64,
        has_deadline: bool,
        missed_deadline: bool,
    ) {
        self.streams[stream].delivered += 1;
        self.paths[path].delivered += 1;
        if has_deadline {
            self.streams[stream].deadline_packets += 1;
            if missed_deadline {
                self.streams[stream].deadline_misses += 1;
            }
        }
        self.latency[stream].record(latency_ns);
    }

    /// Records a transit loss.
    #[inline]
    pub fn on_transit_loss(&mut self, stream: usize, path: usize) {
        self.streams[stream].transit_lost += 1;
        self.paths[path].transit_lost += 1;
    }

    /// Records a blocked-path detection.
    #[inline]
    pub fn on_path_blocked(&mut self, path: usize) {
        self.paths[path].blocked_events += 1;
    }

    /// Flow conservation across every stream.
    pub fn conserved(&self) -> bool {
        self.streams.iter().all(StreamCounters::conserved)
    }

    /// End-to-end latency quantile for one stream, in seconds (`None`
    /// when the stream delivered nothing).
    pub fn latency_quantile(&self, stream: usize, q: f64) -> Option<f64> {
        self.latency[stream]
            .quantile_ns(q)
            .map(|ns| ns as f64 / 1e9)
    }

    /// Flat `(name, value)` export of every counter and the headline
    /// latency quantiles — the machine-readable surface the experiment
    /// harness folds into each sweep cell's `CellResult`. Names are
    /// stable (`stream<i>.<counter>` / `path<j>.<counter>`) and emitted
    /// in a deterministic order, so serialized cells can be compared
    /// byte-for-byte across runs.
    pub fn kv_pairs(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (i, s) in self.streams.iter().enumerate() {
            out.push((format!("stream{i}.enqueued"), s.enqueued as f64));
            out.push((format!("stream{i}.queue_dropped"), s.queue_dropped as f64));
            out.push((format!("stream{i}.dispatched"), s.dispatched as f64));
            out.push((format!("stream{i}.delivered"), s.delivered as f64));
            out.push((format!("stream{i}.transit_lost"), s.transit_lost as f64));
            out.push((
                format!("stream{i}.deadline_misses"),
                s.deadline_misses as f64,
            ));
            out.push((
                format!("stream{i}.latency_p50_s"),
                self.latency_quantile(i, 0.5).unwrap_or(0.0),
            ));
            out.push((
                format!("stream{i}.latency_p99_s"),
                self.latency_quantile(i, 0.99).unwrap_or(0.0),
            ));
        }
        for (j, p) in self.paths.iter().enumerate() {
            out.push((format!("path{j}.delivered"), p.delivered as f64));
            out.push((format!("path{j}.bytes"), p.bytes as f64));
            out.push((format!("path{j}.blocked_events"), p.blocked_events as f64));
        }
        out
    }

    /// A human-readable per-stream metrics table.
    pub fn summary_table(&self) -> String {
        let mut out = format!(
            "{:<7} {:>10} {:>8} {:>10} {:>10} {:>7} {:>9} {:>11} {:>11}\n",
            "stream",
            "enqueued",
            "qdrop",
            "delivered",
            "lost",
            "missed",
            "p50(ms)",
            "p99(ms)",
            "max(ms)"
        );
        for (i, s) in self.streams.iter().enumerate() {
            let ms = |q| {
                self.latency_quantile(i, q)
                    .map_or_else(|| "-".to_string(), |v| format!("{:.3}", v * 1e3))
            };
            out.push_str(&format!(
                "{:<7} {:>10} {:>8} {:>10} {:>10} {:>7} {:>9} {:>11} {:>11.3}\n",
                i,
                s.enqueued,
                s.queue_dropped,
                s.delivered,
                s.transit_lost,
                s.deadline_misses,
                ms(0.5),
                ms(0.99),
                self.latency[i].max_ns() as f64 / 1e6,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.5), None);
        h.record(0);
        h.record(1);
        h.record(1000);
        h.record(1_000_000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_ns(), 1_000_000);
        // 0 and 1 land in bucket 0 (upper bound 1).
        assert_eq!(h.quantile_ns(0.0), Some(1));
        assert_eq!(h.quantile_ns(0.5), Some(1));
        // 1000 is in bucket 9: upper bound 1023.
        assert_eq!(h.quantile_ns(0.75), Some(1023));
        // The top sample's bucket bound is within 2× of the sample.
        let p100 = h.quantile_ns(1.0).unwrap();
        assert!((1_000_000..2_000_000).contains(&p100));
        assert!((h.mean_ns() - 250_250.25).abs() < 1e-6);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1 << 40);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 1 << 40);
        assert_eq!(a.quantile_ns(1.0), Some((2u64 << 40) - 1));
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut m = Metrics::new(2, 2);
        m.on_enqueue(0);
        m.on_enqueue(0);
        m.on_queue_drop(1);
        m.on_dispatch(0, 1, 1250);
        m.on_deliver(0, 1, 2_000_000, true, false);
        assert!(m.conserved());
        assert_eq!(m.streams[0].enqueued, 2);
        assert_eq!(m.streams[0].outstanding(), 1);
        assert_eq!(m.streams[1].queue_dropped, 1);
        assert_eq!(m.paths[1].bytes, 1250);
        assert_eq!(m.streams[0].deadline_packets, 1);
        assert_eq!(m.streams[0].deadline_misses, 0);
        // 2 ms latency → p50 in the [2^20, 2^21) bucket ≈ 2.097 ms.
        let p50 = m.latency_quantile(0, 0.5).unwrap();
        assert!((2.0e-3..4.2e-3).contains(&p50), "p50={p50}");
        assert_eq!(m.latency_quantile(1, 0.5), None);
    }

    #[test]
    fn conservation_detects_overdelivery() {
        let mut m = Metrics::new(1, 1);
        m.on_enqueue(0);
        m.on_dispatch(0, 0, 100);
        m.on_deliver(0, 0, 10, false, false);
        assert!(m.conserved());
        // A second delivery of the same lone packet breaks the books.
        m.on_deliver(0, 0, 10, false, false);
        assert!(!m.conserved());
    }

    #[test]
    fn transit_loss_and_blocked_are_per_path() {
        let mut m = Metrics::new(1, 3);
        m.on_enqueue(0);
        m.on_dispatch(0, 2, 500);
        m.on_transit_loss(0, 2);
        m.on_path_blocked(2);
        assert!(m.conserved());
        assert_eq!(m.paths[2].transit_lost, 1);
        assert_eq!(m.paths[2].blocked_events, 1);
        assert_eq!(m.paths[0].blocked_events, 0);
    }

    #[test]
    fn summary_table_has_one_row_per_stream() {
        let mut m = Metrics::new(2, 1);
        m.on_enqueue(0);
        m.on_dispatch(0, 0, 10);
        m.on_deliver(0, 0, 5_000_000, false, false);
        let t = m.summary_table();
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("p99"));
    }
}
