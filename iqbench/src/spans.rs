//! Span recording for the traced pass.
//!
//! Every decorated call is a span: name, start, end, the span that
//! caused it (the repetition's run span) and the repetition id. All
//! spans are aggregated into count / total / p50 / p99; the quantiles
//! come from the in-tree fixed-size `QuantileSketch` (extended P², the
//! incremental estimator of Chambers et al. in PAPERS.md), so memory
//! stays bounded however long the run is. Full spans are kept only for
//! the first scheduling windows of the first traced repetition and are
//! written out when the benchmark ends.

use iqpaths_stats::{BandwidthCdf, QuantileSketch};
use std::io::Write;
use std::time::Instant;

/// Full spans are kept for this many scheduling windows …
pub const KEPT_WINDOWS: u64 = 3;
/// … and never more than this many (the small-packet workload would
/// otherwise keep 1.5 M of them).
pub const KEPT_SPANS_MAX: usize = 100_000;
/// Per-packet spans feed the sketch once in this many calls (counts and
/// totals are exact over every call). A prime stride, so the sample
/// cannot lock onto a periodic path or stream pattern.
pub const SKETCH_STRIDE: u64 = 13;
/// 101 markers put one exactly on every whole percentile, p99 included.
const SKETCH_MARKERS: usize = 101;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// Id of the causing span; the run span is its own parent.
    pub parent: u32,
    pub rep: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count / total / quantiles of one span name.
#[derive(Debug, Clone)]
pub struct Aggregate {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Sample every call (window-rate spans) or every
    /// [`SKETCH_STRIDE`]-th (packet-rate spans).
    stride: u64,
    sketch: QuantileSketch,
}

impl Aggregate {
    fn new(name: &'static str, stride: u64) -> Self {
        Self {
            name,
            count: 0,
            total_ns: 0,
            stride,
            sketch: QuantileSketch::new(SKETCH_MARKERS),
        }
    }

    fn observe(&mut self, ns: u64) {
        if self.count.is_multiple_of(self.stride) {
            self.sketch.observe(ns as f64);
        }
        self.count += 1;
        self.total_ns += ns;
    }

    /// Estimated `q`-quantile of the span duration in ns (0 when the
    /// span never occurred).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        self.sketch.quantile(q).unwrap_or(0.0)
    }

    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1.0e6
    }
}

/// Handle to one aggregate, so the hot path indexes instead of
/// comparing names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKind(usize);

/// The root span of a repetition: one `run_traced` call sequence.
pub const RUN_SPAN: &str = "middleware.runtime.run";
const RUN: SpanKind = SpanKind(0);

/// Collects the spans of the traced repetitions of one workload.
pub struct Recorder {
    epoch: Instant,
    aggregates: Vec<Aggregate>,
    kept: Vec<Span>,
    keeping: bool,
    windows_seen: u64,
    rep: u32,
    run_span: u32,
    run_start_ns: u64,
    next_id: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            aggregates: vec![Aggregate::new(RUN_SPAN, 1)],
            kept: Vec::new(),
            keeping: false,
            windows_seen: 0,
            rep: 0,
            run_span: 0,
            run_start_ns: 0,
            next_id: 0,
        }
    }

    /// Registers a span name. `per_packet` spans are sketch-sampled.
    pub fn kind(&mut self, name: &'static str, per_packet: bool) -> SpanKind {
        if let Some(i) = self.aggregates.iter().position(|a| a.name == name) {
            return SpanKind(i);
        }
        let stride = if per_packet { SKETCH_STRIDE } else { 1 };
        self.aggregates.push(Aggregate::new(name, stride));
        SpanKind(self.aggregates.len() - 1)
    }

    pub fn aggregates(&self) -> &[Aggregate] {
        &self.aggregates
    }

    pub fn aggregate(&self, name: &str) -> Option<&Aggregate> {
        self.aggregates.iter().find(|a| a.name == name)
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens the run span of the next repetition; full spans are kept
    /// during the first repetition only.
    pub fn begin_run(&mut self, start: Instant) {
        self.rep += 1;
        self.windows_seen = 0;
        self.keeping = self.rep == 1;
        self.run_span = self.next_id;
        self.run_start_ns = self.since_epoch(start);
        self.next_id += 1;
    }

    /// Closes the run span opened by [`Recorder::begin_run`].
    pub fn end_run(&mut self, end: Instant) {
        let end_ns = self.since_epoch(end);
        self.aggregates[RUN.0].observe(end_ns - self.run_start_ns);
        if self.rep == 1 {
            self.kept.push(Span {
                id: self.run_span,
                parent: self.run_span,
                rep: self.rep,
                name: RUN_SPAN,
                start_ns: self.run_start_ns,
                end_ns,
            });
        }
        self.keeping = false;
    }

    /// The scheduler decorator reports every window boundary, so the
    /// recorder knows when the first [`KEPT_WINDOWS`] windows are over.
    pub fn window_started(&mut self) {
        self.windows_seen += 1;
        if self.windows_seen > KEPT_WINDOWS {
            self.keeping = false;
        }
    }

    /// Records one decorated call as a child of the current run span.
    #[inline]
    pub fn record(&mut self, kind: SpanKind, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as u64;
        self.aggregates[kind.0].observe(ns);
        if self.keeping {
            if self.kept.len() >= KEPT_SPANS_MAX {
                self.keeping = false;
                return;
            }
            let start_ns = self.since_epoch(start);
            self.kept.push(Span {
                id: self.next_id,
                parent: self.run_span,
                rep: self.rep,
                name: self.aggregates[kind.0].name,
                start_ns,
                end_ns: start_ns + ns,
            });
            self.next_id += 1;
        }
    }

    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// Writes the kept spans, one JSON object per line, with each
    /// span's self time.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let own = self_times(&self.kept);
        for (s, self_ns) in self.kept.iter().zip(own) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"rep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.rep, s.name, s.start_ns, s.end_ns, self_ns
            )?;
        }
        Ok(())
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are not counted twice;
/// a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != s.id) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            rep: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 0, 0, 100),  // root
            span(1, 0, 10, 30),  // child
            span(2, 0, 20, 50),  // overlaps child 1: union covers 10..50
            span(3, 0, 90, 120), // sticks out: clipped to 90..100
            span(4, 1, 12, 18),  // grandchild: only its parent pays
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(7, 7, 5, 9)]), vec![4]);
    }

    #[test]
    fn recorder_aggregates_every_call_and_keeps_the_first_windows() {
        let mut r = Recorder::new();
        let call = r.kind("call", true);
        let t0 = Instant::now();
        r.begin_run(t0);
        for w in 0..5u64 {
            r.window_started();
            let a = t0 + Duration::from_nanos(1_000 * (w + 1));
            r.record(call, a, a + Duration::from_nanos(100));
        }
        r.end_run(t0 + Duration::from_nanos(10_000));
        let agg = r.aggregate("call").unwrap();
        assert_eq!((agg.count, agg.total_ns), (5, 500));
        // Windows 1..=3 keep their spans, plus the run span itself.
        assert_eq!(r.kept().len(), KEPT_WINDOWS as usize + 1);
        assert!(r.kept().iter().all(|s| s.rep == 1));
        let root = r.kept().last().unwrap();
        assert_eq!((root.parent, root.name), (root.id, RUN_SPAN));
        let own = self_times(r.kept());
        assert_eq!(*own.last().unwrap(), 10_000 - 300);

        // A second repetition aggregates but keeps nothing.
        r.begin_run(t0);
        r.window_started();
        r.record(call, t0, t0 + Duration::from_nanos(50));
        r.end_run(t0 + Duration::from_nanos(60));
        assert_eq!(r.aggregate("call").unwrap().count, 6);
        assert_eq!(r.kept().len(), KEPT_WINDOWS as usize + 1);
        assert_eq!(r.aggregate(RUN_SPAN).unwrap().count, 2);
    }

    #[test]
    fn sketch_quantiles_track_the_sample() {
        let mut a = Aggregate::new("x", 1);
        for ns in 1..=1000u64 {
            a.observe(ns);
        }
        assert!((a.quantile_ns(0.5) - 500.0).abs() < 25.0);
        assert!((a.quantile_ns(0.99) - 990.0).abs() < 25.0);
        assert_eq!(Aggregate::new("empty", 1).quantile_ns(0.5), 0.0);
    }
}
