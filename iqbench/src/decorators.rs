//! Decorators over the program's public traits: the layers are
//! measured from outside, no source file of the program changes.
//!
//! * [`TimedScheduler`] forwards **every** `MultipathScheduler` method,
//!   the defaulted ones included (a decorator that fell back to a trait
//!   default would silently change `uses_path`, `plan_coding`,
//!   `next_batch` or `set_trace` behaviour), and times the ones the
//!   runtime calls per packet or per window.
//! * [`TimedWorkload`] does the same for `Workload`.
//! * [`CountingSink`] counts decision-trace events by kind in front of a
//!   bounded `InMemorySink`.

use crate::spans::{Recorder, SpanKind};
use iqpaths_apps::workload::{Arrival, Workload};
use iqpaths_core::coding::StreamCoding;
use iqpaths_core::mapping::Upcall;
use iqpaths_core::queues::{QueuedPacket, StreamQueues};
use iqpaths_core::stream::StreamSpec;
use iqpaths_core::traits::{MultipathScheduler, PathSnapshot};
use iqpaths_trace::{DispatchClass, InMemorySink, TraceEvent, TraceHandle, TraceSink};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

pub const NEXT_PACKET: &str = "core.scheduler.next_packet";
pub const ON_WINDOW_START: &str = "core.scheduler.on_window_start";
pub const PLAN_CODING: &str = "core.scheduler.plan_coding";
pub const NEXT_BATCH: &str = "core.scheduler.next_batch";
pub const ON_PATH_BLOCKED: &str = "core.scheduler.on_path_blocked";
pub const DRAIN_UPCALLS: &str = "core.scheduler.drain_upcalls";
pub const NEXT_ARRIVAL: &str = "apps.workload.next_arrival";

pub type SharedRecorder = Rc<RefCell<Recorder>>;

pub struct TimedScheduler {
    inner: Box<dyn MultipathScheduler>,
    rec: SharedRecorder,
    next_packet: SpanKind,
    on_window_start: SpanKind,
    plan_coding: SpanKind,
    next_batch: SpanKind,
    on_path_blocked: SpanKind,
    drain_upcalls: SpanKind,
    /// `next_packet` calls that returned no packet.
    idle: Rc<RefCell<u64>>,
}

impl TimedScheduler {
    pub fn new(
        inner: Box<dyn MultipathScheduler>,
        rec: &SharedRecorder,
        idle: &Rc<RefCell<u64>>,
    ) -> Self {
        let mut r = rec.borrow_mut();
        Self {
            inner,
            next_packet: r.kind(NEXT_PACKET, true),
            on_window_start: r.kind(ON_WINDOW_START, false),
            plan_coding: r.kind(PLAN_CODING, false),
            next_batch: r.kind(NEXT_BATCH, true),
            on_path_blocked: r.kind(ON_PATH_BLOCKED, false),
            drain_upcalls: r.kind(DRAIN_UPCALLS, false),
            rec: Rc::clone(rec),
            idle: Rc::clone(idle),
        }
    }
}

impl MultipathScheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn specs(&self) -> &[StreamSpec] {
        self.inner.specs()
    }

    fn on_window_start(&mut self, window_start_ns: u64, window_ns: u64, paths: &[PathSnapshot]) {
        let t0 = Instant::now();
        self.inner
            .on_window_start(window_start_ns, window_ns, paths);
        let t1 = Instant::now();
        let mut rec = self.rec.borrow_mut();
        rec.window_started();
        rec.record(self.on_window_start, t0, t1);
    }

    fn next_packet(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
    ) -> Option<QueuedPacket> {
        let t0 = Instant::now();
        let pkt = self.inner.next_packet(path, now_ns, queues);
        let t1 = Instant::now();
        self.rec.borrow_mut().record(self.next_packet, t0, t1);
        if pkt.is_none() {
            *self.idle.borrow_mut() += 1;
        }
        pkt
    }

    fn next_batch(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
        max: usize,
        out: &mut Vec<QueuedPacket>,
    ) -> usize {
        let t0 = Instant::now();
        let served = self.inner.next_batch(path, now_ns, queues, max, out);
        let t1 = Instant::now();
        self.rec.borrow_mut().record(self.next_batch, t0, t1);
        served
    }

    fn on_path_blocked(&mut self, path: usize, now_ns: u64) {
        let t0 = Instant::now();
        self.inner.on_path_blocked(path, now_ns);
        let t1 = Instant::now();
        self.rec.borrow_mut().record(self.on_path_blocked, t0, t1);
    }

    fn uses_path(&self, path: usize) -> bool {
        self.inner.uses_path(path)
    }

    fn drain_upcalls(&mut self) -> Vec<Upcall> {
        let t0 = Instant::now();
        let upcalls = self.inner.drain_upcalls();
        let t1 = Instant::now();
        self.rec.borrow_mut().record(self.drain_upcalls, t0, t1);
        upcalls
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.inner.set_trace(trace);
    }

    fn plan_coding(
        &mut self,
        snapshots: &[PathSnapshot],
        incidence: &[Vec<u64>],
        now_ns: u64,
    ) -> Vec<StreamCoding> {
        let t0 = Instant::now();
        let plans = self.inner.plan_coding(snapshots, incidence, now_ns);
        let t1 = Instant::now();
        self.rec.borrow_mut().record(self.plan_coding, t0, t1);
        plans
    }
}

pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    rec: SharedRecorder,
    next_arrival: SpanKind,
}

impl TimedWorkload {
    pub fn new(inner: Box<dyn Workload>, rec: &SharedRecorder) -> Self {
        Self {
            inner,
            next_arrival: rec.borrow_mut().kind(NEXT_ARRIVAL, true),
            rec: Rc::clone(rec),
        }
    }
}

impl Workload for TimedWorkload {
    fn specs(&self) -> &[StreamSpec] {
        self.inner.specs()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let t0 = Instant::now();
        let arrival = self.inner.next_arrival();
        let t1 = Instant::now();
        self.rec.borrow_mut().record(self.next_arrival, t0, t1);
        arrival
    }
}

/// Exact event counts from the decision trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    pub events: u64,
    pub rule1: u64,
    pub rule2: u64,
    pub rule3: u64,
    pub backoff_steps: u64,
    pub mapping_decisions: u64,
    pub upcalls: u64,
    pub probe_samples: u64,
    pub probe_lost: u64,
    /// `ProbePlan` events (only non-default planners emit them) …
    pub probe_plans: u64,
    /// … and the probes they selected.
    pub probe_selected: u64,
    pub queue_drops: u64,
    pub transit_drops: u64,
    pub blocked_events: u64,
    pub parity_sent: u64,
    pub recovered: u64,
}

/// A counting `TraceSink` over a bounded `InMemorySink`: counts every
/// event, retains the newest [`CountingSink::RING`] of them, so a
/// 10-million-event run costs a fixed 64 Ki-event ring.
pub struct CountingSink {
    ring: InMemorySink,
    pub counts: TraceCounts,
}

impl CountingSink {
    pub const RING: usize = 1 << 16;

    /// A fresh ring that keeps counting from `counts`, so one set of
    /// counters spans every run of a repetition.
    pub fn resuming(counts: TraceCounts) -> Self {
        Self {
            ring: InMemorySink::with_capacity(Self::RING),
            counts,
        }
    }
}

impl TraceSink for CountingSink {
    fn emit(&mut self, ev: &TraceEvent) {
        let c = &mut self.counts;
        c.events += 1;
        match *ev {
            TraceEvent::DispatchDecision { class, .. } => match class {
                DispatchClass::Scheduled => c.rule1 += 1,
                DispatchClass::OtherPath => c.rule2 += 1,
                DispatchClass::Unscheduled => c.rule3 += 1,
            },
            TraceEvent::BackoffStep { .. } => c.backoff_steps += 1,
            TraceEvent::MappingDecision { .. } => c.mapping_decisions += 1,
            TraceEvent::UpcallRaised { .. } => c.upcalls += 1,
            TraceEvent::ProbeSample { .. } => c.probe_samples += 1,
            TraceEvent::ProbeLost { .. } => c.probe_lost += 1,
            TraceEvent::ProbePlan { selected, .. } => {
                c.probe_plans += 1;
                c.probe_selected += u64::from(selected);
            }
            TraceEvent::QueueDrop { .. } => c.queue_drops += 1,
            TraceEvent::TransitDrop { .. } => c.transit_drops += 1,
            TraceEvent::PathBlocked { .. } => c.blocked_events += 1,
            TraceEvent::CodingParity { .. } => c.parity_sent += 1,
            TraceEvent::CodingDecode { recovered, .. } => c.recovered += u64::from(recovered),
            _ => {}
        }
        self.ring.emit(ev);
    }
}
