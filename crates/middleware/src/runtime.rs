//! The virtual-time experiment loop.
//!
//! One run wires together: a [`Workload`] (application packet arrivals),
//! per-stream [`StreamQueues`], a [`MultipathScheduler`] under test, one
//! transmit [`PathService`] per overlay path, the monitoring module
//! (periodic available-bandwidth probes feeding per-path CDFs), and the
//! scheduling-window clock. The event loop is deterministic: identical
//! seeds produce identical reports.

use crate::report::{self, CodingStats, RunReport};
use iqpaths_apps::workload::Workload;
use iqpaths_core::coding::StreamCoding;
use iqpaths_core::queues::StreamQueues;
use iqpaths_core::traits::{MultipathScheduler, PathSnapshot};
use iqpaths_overlay::node::MonitoringModule;
use iqpaths_overlay::path::OverlayPath;
use iqpaths_overlay::planner::{
    build_planner, PathBelief, PlannerKind, ProbeBudget, ProbeSelection,
};
use iqpaths_overlay::probe::AvailBwProbe;
use iqpaths_simnet::fault::{fnv1a64, salted_seed, FaultInjector, FaultSchedule};
use iqpaths_simnet::monitor::ThroughputMonitor;
use iqpaths_simnet::packet::{Packet, StreamId};
use iqpaths_simnet::server::PathService;
use iqpaths_simnet::time::SimTime;
use iqpaths_simnet::EventQueue;
use iqpaths_stats::BandwidthCdf as _;
use iqpaths_trace::{Metrics, TraceEvent, TraceHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Runtime tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Scheduling-window length `t_w` in seconds.
    pub window_secs: f64,
    /// Report-side throughput sampling window in seconds.
    pub monitor_window_secs: f64,
    /// Available-bandwidth probe interval (the paper samples each 0.1–1 s).
    pub probe_interval_secs: f64,
    /// Multiplicative probe noise (±fraction).
    pub probe_noise: f64,
    /// Monitoring history depth (the paper's N = 500–1000 samples).
    pub history_samples: usize,
    /// Monitoring-only prelude before data flows, so the first window
    /// already has a populated CDF (the overlay "has been running").
    pub warmup_secs: f64,
    /// Per-stream queue bound (packets).
    pub queue_capacity: usize,
    /// A path whose residual falls below this fraction of its bottleneck
    /// capacity counts as blocked.
    pub blocked_residual_frac: f64,
    /// How soon a blocked, idle path is re-examined.
    pub blocked_recheck_secs: f64,
    /// Probe-noise RNG seed.
    pub seed: u64,
    /// How the monitoring module summarizes distributions (the
    /// `abl-hist` exact-vs-streaming-histogram knob).
    pub cdf_mode: iqpaths_overlay::node::CdfMode,
    /// Which probe planner schedules main-loop measurements.
    /// `Periodic` with an unlimited budget (the default) is the legacy
    /// probe-everything discipline, byte-identical to the pre-planner
    /// runtime including its trace output.
    pub planner: PlannerKind,
    /// Global probes-per-window budget the planner enforces, as a
    /// percentage of the periodic probe-everything rate. The monitoring
    /// pre-warm is exempt (it bootstraps the CDFs before data flows).
    pub probe_budget: ProbeBudget,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            window_secs: 1.0,
            monitor_window_secs: 1.0,
            probe_interval_secs: 0.1,
            probe_noise: 0.05,
            history_samples: 500,
            warmup_secs: 50.0,
            queue_capacity: 100_000,
            blocked_residual_frac: 0.02,
            blocked_recheck_secs: 0.01,
            seed: 1,
            cdf_mode: iqpaths_overlay::node::CdfMode::Exact,
            planner: PlannerKind::Periodic,
            probe_budget: ProbeBudget::Unlimited,
        }
    }
}

/// One delivered packet, reported through the run sink. Times are in
/// seconds relative to measurement start (after warm-up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryEvent {
    /// Stream index.
    pub stream: usize,
    /// Per-stream sequence number.
    pub seq: u64,
    /// Payload bytes.
    pub bytes: u32,
    /// Enqueue time.
    pub created: f64,
    /// Client arrival time.
    pub delivered: f64,
    /// Path traveled.
    pub path: usize,
    /// Whether the packet carried a scheduling-window deadline.
    pub has_deadline: bool,
    /// Whether a deadline-bearing packet was served past its deadline
    /// (always `false` for best-effort packets). Lets conformance
    /// harnesses attribute Lemma 2 violations to monitor windows.
    pub missed_deadline: bool,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival,
    PathFree(usize),
    Delivered(usize),
    Probe,
    /// A fault-delayed probe report reaching the monitoring module:
    /// `(path, measurement timestamp, measured bandwidth)`.
    ProbeReady(usize, f64, f64),
    Window,
}

/// Decode state of one in-flight coded group: a group decodes at its
/// `k`-th on-time block, crediting every data block of the group.
#[derive(Debug, Clone, Copy, Default)]
struct GroupState {
    /// Blocks (data or parity) that finished before their deadline.
    ontime: u32,
    /// Data blocks directly on time before the group decoded.
    data_ontime: u32,
    /// Whether the group already reached `k` on-time blocks.
    decoded: bool,
    /// Bytes of data blocks silently lost in transit before the group
    /// decoded — credited to the goodput series at decode time (the
    /// receiver reconstructs them from the surviving blocks).
    lost_bytes: u64,
}

/// Per-stream erasure-coding state the event loop maintains for
/// streams running under a Diversity coding plan: parity synthesis at
/// the arrival side, decode-complete accounting at the delivery side.
#[derive(Debug, Clone)]
struct CodingRuntime {
    /// The scheduler's plan (lane striping, group shape).
    plan: StreamCoding,
    /// Largest payload among the open group's data blocks — parity
    /// blocks carry this size so any `k` survivors reconstruct the
    /// group (shorter blocks zero-pad).
    group_bytes: u32,
    /// Open groups by index; pruned oldest-first past a bounded depth.
    groups: BTreeMap<u64, GroupState>,
    /// Groups below this index were pruned and take no further credit.
    pruned_below: u64,
    /// Accumulated report counters.
    stats: CodingStats,
}

/// Open-group retention depth. At conformance rates (≤ a few thousand
/// blocks/s, 1 s deadlines) a group settles within a handful of window
/// lengths, so hundreds of open groups is already generous.
const MAX_OPEN_GROUPS: usize = 512;

impl CodingRuntime {
    fn new(plan: StreamCoding) -> Self {
        let stats = CodingStats {
            n: plan.n,
            k: plan.k,
            decode_probability: plan.decode_probability,
            data_offered: 0,
            data_ontime: 0,
            recovered: 0,
            groups_decoded: 0,
            groups_total: 0,
            parity_sent: 0,
        };
        Self {
            plan,
            group_bytes: 0,
            groups: BTreeMap::new(),
            pruned_below: 0,
            stats,
        }
    }

    /// Records an accepted data push; true when the block completed the
    /// group's data portion (position `k − 1`), i.e. parity is due.
    fn on_data_enqueued(&mut self, seq: u64, bytes: u32) -> bool {
        self.group_bytes = self.group_bytes.max(bytes);
        seq % self.plan.n as u64 == self.plan.k as u64 - 1
    }

    /// Records a delivered block. Returns `Some((group, recovered,
    /// reconstructed_bytes))` when this block completed the group's
    /// decode; `reconstructed_bytes` are the transit-lost data bytes
    /// the decode just made available to the receiver (goodput
    /// credit). Credit per group is exact: blocks on time after the
    /// decode add nothing (the decode already credited all `k` data
    /// blocks), and stragglers of pruned groups add nothing either.
    fn record_delivery(&mut self, seq: u64, ontime: bool) -> Option<(u64, u32, u64)> {
        let n = self.plan.n as u64;
        let k = self.plan.k as u64;
        let group = seq / n;
        let is_data = seq % n < k;
        if group < self.pruned_below {
            return None;
        }
        let groups_total = &mut self.stats.groups_total;
        let entry = self.groups.entry(group).or_insert_with(|| {
            *groups_total += 1;
            GroupState::default()
        });
        let mut decode = None;
        if ontime && !entry.decoded {
            entry.ontime += 1;
            if is_data {
                entry.data_ontime += 1;
                self.stats.data_ontime += 1;
            }
            if u64::from(entry.ontime) >= k {
                entry.decoded = true;
                let recovered = k as u32 - entry.data_ontime;
                self.stats.recovered += u64::from(recovered);
                self.stats.groups_decoded += 1;
                decode = Some((group, recovered, std::mem::take(&mut entry.lost_bytes)));
            }
        }
        while self.groups.len() > MAX_OPEN_GROUPS {
            let (&oldest, _) = self.groups.iter().next().expect("non-empty");
            self.groups.remove(&oldest);
            self.pruned_below = oldest + 1;
        }
        decode
    }

    /// Records a data block silently lost in transit. Returns the
    /// bytes to credit to the goodput series immediately (the group
    /// already decoded, so the receiver reconstructs the block on the
    /// spot); before the decode the bytes park in the group and ride
    /// out with [`CodingRuntime::record_delivery`]'s decode result.
    /// Parity blocks and stragglers of pruned groups carry no goodput.
    fn on_transit_loss(&mut self, seq: u64, bytes: u64) -> u64 {
        let n = self.plan.n as u64;
        let k = self.plan.k as u64;
        let group = seq / n;
        if seq % n >= k || group < self.pruned_below {
            return 0;
        }
        let groups_total = &mut self.stats.groups_total;
        let entry = self.groups.entry(group).or_insert_with(|| {
            *groups_total += 1;
            GroupState::default()
        });
        if entry.decoded {
            bytes
        } else {
            entry.lost_bytes += bytes;
            0
        }
    }
}

/// Runs an experiment and returns the standard report (no delivery
/// sink).
pub fn run(
    paths: &[OverlayPath],
    workload: Box<dyn Workload>,
    scheduler: Box<dyn MultipathScheduler>,
    cfg: RuntimeConfig,
    duration: f64,
) -> RunReport {
    run_with_sink(paths, workload, scheduler, cfg, duration, &mut |_| {})
}

/// Runs an experiment, invoking `sink` on every delivery (for
/// frame/record tracking by application harnesses).
///
/// # Panics
/// Panics on an empty path set or non-positive duration.
pub fn run_with_sink(
    paths: &[OverlayPath],
    workload: Box<dyn Workload>,
    scheduler: Box<dyn MultipathScheduler>,
    cfg: RuntimeConfig,
    duration: f64,
    sink: &mut dyn FnMut(&DeliveryEvent),
) -> RunReport {
    run_faulted(
        paths,
        workload,
        scheduler,
        cfg,
        duration,
        &FaultSchedule::new(),
        sink,
    )
}

/// Runs an experiment under a deterministic [`FaultSchedule`].
///
/// Capacity faults (degrade/block/restore) are compiled into extra
/// bottleneck cross traffic via [`OverlayPath::with_faults`] before the
/// run, so path services, probes, blocked-path detection and the
/// OptSched oracle all see the same degraded ground truth. Probe
/// loss/delay and reordering bursts are applied inside the event loop
/// through a [`FaultInjector`] salted with `cfg.seed`. Fault times are
/// absolute emulation seconds — warm-up included — and probe faults
/// only act on the main loop (schedule them after `cfg.warmup_secs`).
///
/// # Panics
/// Panics on an empty path set, non-positive duration, or a fault
/// targeting an unknown path index.
pub fn run_faulted(
    paths: &[OverlayPath],
    workload: Box<dyn Workload>,
    scheduler: Box<dyn MultipathScheduler>,
    cfg: RuntimeConfig,
    duration: f64,
    faults: &FaultSchedule,
    sink: &mut dyn FnMut(&DeliveryEvent),
) -> RunReport {
    run_traced(
        paths,
        workload,
        scheduler,
        cfg,
        duration,
        faults,
        TraceHandle::null(),
        sink,
    )
}

/// Runs a faulted experiment with a scheduling-decision trace attached.
///
/// The handle is installed on the scheduler (see
/// [`MultipathScheduler::set_trace`]) and on every probe *after* the
/// monitoring pre-warm, then the runtime itself emits the packet-level
/// lifecycle: `Enqueue`/`QueueDrop` at arrival, `Dispatch` when a path
/// service accepts a packet, `Deliver`/`TransitDrop` at completion,
/// `PathBlocked` on blocked-path detection and `ProbeLost` on injected
/// probe loss. With a null handle every emission is a no-op and this is
/// exactly [`run_faulted`]. Always-on [`Metrics`] counters (independent
/// of the trace) land on [`RunReport::metrics`].
///
/// # Panics
/// Panics on an empty path set, non-positive duration, or a fault
/// targeting an unknown path index.
#[allow(clippy::too_many_arguments)]
pub fn run_traced(
    paths: &[OverlayPath],
    workload: Box<dyn Workload>,
    scheduler: Box<dyn MultipathScheduler>,
    cfg: RuntimeConfig,
    duration: f64,
    faults: &FaultSchedule,
    trace: TraceHandle,
    sink: &mut dyn FnMut(&DeliveryEvent),
) -> RunReport {
    run_traced_counted(
        paths, workload, scheduler, cfg, duration, faults, trace, sink,
    )
    .0
}

/// Builds per-path goodput snapshots from the monitoring module's
/// current state: the measured loss rate scales each available-
/// bandwidth distribution down to goodput (guarantees are made on
/// goodput). `oracle` supplies `PathSnapshot::oracle_next_rate`.
///
/// Fills `out` in place so the per-window caller reuses one buffer for
/// the whole run instead of allocating a fresh `Vec` every window.
fn goodput_snapshots_into(
    monitoring: &MonitoringModule,
    path_transmitted: &[u64],
    path_lost: &[u64],
    oracle: impl Fn(usize) -> Option<f64>,
    out: &mut Vec<PathSnapshot>,
) {
    out.clear();
    out.extend((0..monitoring.paths()).map(|j| {
        let st = monitoring.stats(j);
        let measured_loss = if path_transmitted[j] == 0 {
            0.0
        } else {
            path_lost[j] as f64 / path_transmitted[j] as f64
        };
        let goodput_factor = 1.0 - measured_loss;
        PathSnapshot {
            index: j,
            cdf: st.cdf.scale(goodput_factor),
            mean_prediction: st.mean_prediction * goodput_factor,
            oracle_next_rate: oracle(j),
            rtt: st.rtt,
            loss: measured_loss,
        }
    }));
}

/// The one event loop: [`run_traced`] that additionally returns how many
/// main-loop probes the planner scheduled per path (lost reports
/// included — the planner spent budget on them), so callers can account
/// probe spend against the budget.
///
/// # Panics
/// Panics on an empty path set, non-positive duration, or a fault
/// targeting an unknown path index.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub fn run_traced_counted(
    paths: &[OverlayPath],
    mut workload: Box<dyn Workload>,
    mut scheduler: Box<dyn MultipathScheduler>,
    cfg: RuntimeConfig,
    duration: f64,
    faults: &FaultSchedule,
    trace: TraceHandle,
    sink: &mut dyn FnMut(&DeliveryEvent),
) -> (RunReport, Vec<u64>) {
    assert!(!paths.is_empty(), "need at least one overlay path");
    assert!(duration > 0.0, "duration must be positive");
    let n_paths = paths.len();
    let horizon = cfg.warmup_secs + duration + cfg.window_secs;
    let faulted: Vec<OverlayPath> = paths
        .iter()
        .map(|p| p.with_faults(faults, horizon))
        .collect();
    let paths = &faulted[..];
    let mut injector = FaultInjector::new(faults, n_paths, cfg.seed);
    let specs: Vec<_> = scheduler.specs().to_vec();
    let n_streams = specs.len();
    assert_eq!(
        workload.specs().len(),
        n_streams,
        "workload and scheduler stream tables must align"
    );

    let warmup = cfg.warmup_secs;
    let end = SimTime::from_secs_f64(warmup + duration);

    // --- Components -----------------------------------------------------
    // Pre-warm the packet pool so steady-state pushes never grow the
    // slab; capped so huge stream×capacity products don't reserve
    // memory the run will never touch (the pool grows on demand past
    // the cap, up to its high-water mark, and then stops allocating).
    let prewarm = n_streams.saturating_mul(cfg.queue_capacity).min(65_536);
    let mut queues = StreamQueues::with_pool_capacity(n_streams, cfg.queue_capacity, prewarm);
    // Reused by every Window event; snapshots are cloned out by the
    // scheduler only if it keeps them (CdfSummary shares its backing).
    let mut snapshot_scratch: Vec<PathSnapshot> = Vec::with_capacity(n_paths);
    let mut services: Vec<PathService> = paths.iter().map(OverlayPath::service).collect();
    let mut monitoring = MonitoringModule::with_mode(n_paths, cfg.history_samples, cfg.cdf_mode);
    let mut probes: Vec<AvailBwProbe> = (0..n_paths)
        .map(|j| {
            AvailBwProbe::new(
                cfg.probe_interval_secs,
                cfg.probe_noise,
                cfg.seed.wrapping_add(j as u64),
            )
        })
        .collect();

    // Probe planner for the main loop. The default (periodic planner,
    // unlimited budget) reproduces the legacy probe-everything schedule
    // bit-identically and emits no planner trace events; only
    // non-default configurations change probe behavior or the trace.
    let planner_default =
        matches!(cfg.planner, PlannerKind::Periodic) && cfg.probe_budget.is_unlimited();
    let incidence: Vec<Vec<u64>> = paths
        .iter()
        .map(|p| {
            p.links()
                .iter()
                .map(|l| fnv1a64(l.name().as_bytes()))
                .collect()
        })
        .collect();
    let mut planner = build_planner(
        cfg.planner,
        n_paths,
        salted_seed(cfg.seed, "planner"),
        cfg.probe_budget,
        Some(&incidence),
    );
    let mut probe_slot: u64 = 0;
    let mut probe_counts = vec![0u64; n_paths];
    // Planner state reused by every probe slot: the beliefs (one per
    // path, empty for planners that read none), the observation count
    // each belief was last refreshed at, and the selection buffer.
    let mut beliefs: Vec<PathBelief> = if planner.needs_beliefs() {
        vec![PathBelief::empty(0); n_paths]
    } else {
        Vec::new()
    };
    let mut belief_seen: Vec<Option<u64>> = vec![None; beliefs.len()];
    let mut selection: Vec<ProbeSelection> = Vec::with_capacity(n_paths);
    // Lemma-1 estimand threshold for active planning: the aggregate
    // guaranteed demand the path set must clear.
    let demand: f64 = specs
        .iter()
        .filter(|s| !s.guarantee.is_best_effort())
        .map(|s| s.required_bw)
        .sum();

    // Pre-warm monitoring from the warm-up interval.
    {
        let mut t = cfg.probe_interval_secs;
        while t < warmup {
            for (j, path) in paths.iter().enumerate() {
                let bw = probes[j].measure(path, t);
                monitoring.observe_bandwidth(j, t, bw);
                monitoring.observe_rtt(j, path.prop_delay().as_secs_f64() * 2.0);
            }
            t += cfg.probe_interval_secs;
        }
    }

    // Install tracing after the pre-warm so traces cover the measured
    // run only (warm-up probes would otherwise dominate the log).
    scheduler.set_trace(trace.clone());
    for (j, probe) in probes.iter_mut().enumerate() {
        probe.set_trace(trace.clone(), j);
    }
    let mut metrics = Metrics::new(n_streams, n_paths);

    // One-shot erasure-coding planning: hand the scheduler the warmed
    // per-path beliefs and the link-incidence sets; a Diversity
    // scheduler returns one plan per coded stream (the default returns
    // none, keeping this whole block inert on the classic path). The
    // coded streams' queues are striped into one lane per group block
    // so every block stays on its planned path.
    let t0_ns = SimTime::from_secs_f64(warmup).as_nanos();
    let coding_plans: Vec<StreamCoding> = {
        let zeros = vec![0u64; n_paths]; // nothing transmitted yet
        let mut warm = Vec::with_capacity(n_paths);
        goodput_snapshots_into(&monitoring, &zeros, &zeros, |_| None, &mut warm);
        scheduler.plan_coding(&warm, &incidence, t0_ns)
    };
    let mut coding: Vec<Option<CodingRuntime>> = vec![None; n_streams];
    for plan in coding_plans {
        if plan.n <= 1 {
            continue;
        }
        let stream = plan.stream;
        queues.set_lanes(stream, plan.n);
        trace.emit(TraceEvent::CodingPlan {
            at_ns: t0_ns,
            stream: stream as u32,
            n: plan.n as u32,
            k: plan.k as u32,
            decode_p: plan.decode_probability,
        });
        coding[stream] = Some(CodingRuntime::new(plan));
    }

    // Report-side monitors.
    let mut stream_tp: Vec<ThroughputMonitor> = (0..n_streams)
        .map(|_| ThroughputMonitor::new(cfg.monitor_window_secs))
        .collect();
    let mut stream_path_tp: Vec<Vec<ThroughputMonitor>> = (0..n_streams)
        .map(|_| {
            (0..n_paths)
                .map(|_| ThroughputMonitor::new(cfg.monitor_window_secs))
                .collect()
        })
        .collect();
    let mut delivered_packets = vec![0u64; n_streams];
    let mut delivered_bytes = vec![0u64; n_streams];
    let mut latency_sum = vec![0.0f64; n_streams];
    let mut deadline_pkts = vec![0u64; n_streams];
    let mut deadline_misses = vec![0u64; n_streams];
    let mut transit_lost = vec![0u64; n_streams];
    let mut path_transmitted = vec![0u64; n_paths];
    let mut path_lost = vec![0u64; n_paths];
    let mut path_blocked_events = vec![0u64; n_paths];
    let mut loss_rng = StdRng::seed_from_u64(cfg.seed ^ 0x1055_c0de);
    let mut upcalls = Vec::new();

    // --- Event loop -------------------------------------------------------
    let mut events: EventQueue<Ev> = EventQueue::new();
    let mut idle = vec![false; n_paths];
    let mut next_arrival = workload.next_arrival();

    let t0 = SimTime::from_secs_f64(warmup);
    if let Some(a) = &next_arrival {
        events.schedule(t0.max(SimTime::from_secs_f64(warmup + a.at)), Ev::Arrival);
    }
    events.schedule(t0, Ev::Window);
    events.schedule(t0, Ev::Probe);
    for j in 0..n_paths {
        if scheduler.uses_path(j) {
            events.schedule(t0, Ev::PathFree(j));
        }
    }

    while let Some((now, ev)) = events.pop_until(end) {
        let now_s = now.as_secs_f64();
        let now_ns = now.as_nanos();
        match ev {
            Ev::Arrival => {
                // Push every arrival due now; schedule the next one.
                // Due-times are compared in rounded nanoseconds (the
                // same domain the event was scheduled in) so an arrival
                // that rounds onto `now` is always consumed here rather
                // than rescheduled forever.
                while let Some(a) = next_arrival {
                    let due = SimTime::from_secs_f64(warmup + a.at);
                    if due > now {
                        break;
                    }
                    if let Some(cr) = coding[a.stream].as_mut() {
                        cr.stats.data_offered += 1;
                    }
                    if queues.push(a.stream, a.bytes, now_ns) {
                        metrics.on_enqueue(a.stream);
                        if trace.enabled() {
                            trace.emit(TraceEvent::Enqueue {
                                at_ns: now_ns,
                                stream: a.stream as u32,
                                seq: queues.next_seq(a.stream) - 1,
                                bytes: a.bytes,
                            });
                        }
                        // Parity synthesis: the group's k-th accepted
                        // data block is followed immediately by its
                        // n − k parity blocks. A full queue burns the
                        // parity's sequence slot (`push_consuming`) so
                        // a dropped parity block can never shift later
                        // data into parity positions.
                        if let Some(cr) = coding[a.stream].as_mut() {
                            let seq = queues.next_seq(a.stream) - 1;
                            if cr.on_data_enqueued(seq, a.bytes) {
                                for _ in 0..(cr.plan.n - cr.plan.k) {
                                    let pseq = queues.next_seq(a.stream);
                                    if queues.push_consuming(a.stream, cr.group_bytes, now_ns) {
                                        cr.stats.parity_sent += 1;
                                        metrics.on_enqueue(a.stream);
                                        if trace.enabled() {
                                            trace.emit(TraceEvent::Enqueue {
                                                at_ns: now_ns,
                                                stream: a.stream as u32,
                                                seq: pseq,
                                                bytes: cr.group_bytes,
                                            });
                                            trace.emit(TraceEvent::CodingParity {
                                                at_ns: now_ns,
                                                stream: a.stream as u32,
                                                seq: pseq,
                                                group: pseq / cr.plan.n as u64,
                                            });
                                        }
                                    } else {
                                        metrics.on_queue_drop(a.stream);
                                        trace.emit(TraceEvent::QueueDrop {
                                            at_ns: now_ns,
                                            stream: a.stream as u32,
                                        });
                                    }
                                }
                                cr.group_bytes = 0;
                            }
                        }
                    } else {
                        metrics.on_queue_drop(a.stream);
                        trace.emit(TraceEvent::QueueDrop {
                            at_ns: now_ns,
                            stream: a.stream as u32,
                        });
                    }
                    next_arrival = workload.next_arrival();
                }
                if let Some(a) = &next_arrival {
                    events.schedule(SimTime::from_secs_f64(warmup + a.at), Ev::Arrival);
                }
                // Wake idle transmitters.
                for j in 0..n_paths {
                    if idle[j] && services[j].is_free(now) && scheduler.uses_path(j) {
                        idle[j] = false;
                        events.schedule(now, Ev::PathFree(j));
                    }
                }
            }
            Ev::PathFree(j) => {
                let svc = &mut services[j];
                if !svc.is_free(now) || svc.serving().is_some() {
                    // Stale wake-up: a Delivered event for this path is
                    // still pending at this same instant.
                    continue;
                }
                // Blocked-path detection feeds the scheduler's backoff.
                let residual = svc.residual_at(now_s);
                let blocked = residual < cfg.blocked_residual_frac * paths[j].bottleneck_capacity();
                if blocked {
                    path_blocked_events[j] += 1;
                    metrics.on_path_blocked(j);
                    trace.emit(TraceEvent::PathBlocked {
                        at_ns: now_ns,
                        path: j as u32,
                        residual_bps: residual,
                    });
                    scheduler.on_path_blocked(j, now_ns);
                }
                // O(1) empty check skips the scheduler entirely when no
                // stream is backlogged (a `None` either way: backoff
                // state only changes on `on_path_blocked`, and wake-
                // journal entries only accrue from pushes, which make
                // the queues non-empty again).
                let decision = if queues.is_empty() {
                    None
                } else {
                    scheduler.next_packet(j, now_ns, &mut queues)
                };
                match decision {
                    Some(qpkt) => {
                        metrics.on_dispatch(qpkt.stream, j, qpkt.bytes);
                        if trace.enabled() {
                            trace.emit(TraceEvent::Dispatch {
                                at_ns: now_ns,
                                path: j as u32,
                                stream: qpkt.stream as u32,
                                seq: qpkt.seq,
                                bytes: qpkt.bytes,
                                deadline_ns: qpkt.deadline_ns,
                            });
                        }
                        let pkt = Packet {
                            stream: StreamId(qpkt.stream as u32),
                            seq: qpkt.seq,
                            bytes: qpkt.bytes,
                            created: SimTime::from_nanos(qpkt.created_ns),
                            deadline: if qpkt.deadline_ns == u64::MAX {
                                SimTime::MAX
                            } else {
                                SimTime::from_nanos(qpkt.deadline_ns)
                            },
                        };
                        let finish = svc.begin(pkt, now);
                        // Delivered is scheduled before the next
                        // PathFree at the same instant, so completion
                        // always precedes the next begin.
                        events.schedule(finish, Ev::Delivered(j));
                        events.schedule(finish, Ev::PathFree(j));
                    }
                    None => {
                        if blocked {
                            events.schedule(
                                now + iqpaths_simnet::SimDuration::from_secs_f64(
                                    cfg.blocked_recheck_secs,
                                ),
                                Ev::PathFree(j),
                            );
                        } else {
                            idle[j] = true;
                        }
                    }
                }
            }
            Ev::Delivered(j) => {
                let delivery = services[j].complete(now);
                let s = delivery.packet.stream.0 as usize;
                path_transmitted[j] += 1;
                // Per-packet transit loss (link corruption / drops the
                // fluid queue model doesn't cover).
                let loss_p = services[j].loss_prob();
                let lost_random = loss_p > 0.0 && loss_rng.gen_bool(loss_p);
                // Scheduled transit-loss faults (`Fault::TransitLoss`):
                // silent post-service loss, drawn statelessly from the
                // packet identity, independent of event order.
                if lost_random || injector.transit_lost(j, s as u64, delivery.packet.seq, now_s) {
                    transit_lost[s] += 1;
                    path_lost[j] += 1;
                    metrics.on_transit_loss(s, j);
                    trace.emit(TraceEvent::TransitDrop {
                        at_ns: now_ns,
                        path: j as u32,
                        stream: s as u32,
                        seq: delivery.packet.seq,
                    });
                    // A lost data block of an already-decoded group is
                    // reconstructed at the receiver on the spot; its
                    // bytes are goodput even though the block never
                    // arrived (decode-complete delivery).
                    if let Some(cr) = coding[s].as_mut() {
                        let credit =
                            cr.on_transit_loss(delivery.packet.seq, delivery.packet.bytes as u64);
                        if credit > 0 {
                            let rel = delivery.delivered.as_secs_f64() - warmup;
                            stream_tp[s].record(SimTime::from_secs_f64(rel.max(0.0)), credit);
                        }
                    }
                    continue;
                }
                // Reordering bursts hold every other delivery back at
                // the client for the burst's jitter.
                let extra = injector.reorder_extra(j, now_s);
                let delivered_at =
                    delivery.delivered + iqpaths_simnet::SimDuration::from_secs_f64(extra);
                let rel = delivered_at.as_secs_f64() - warmup;
                delivered_packets[s] += 1;
                delivered_bytes[s] += delivery.packet.bytes as u64;
                latency_sum[s] += delivery.latency().as_secs_f64() + extra;
                // Lemma 1 speaks of packets *served* within the
                // window, so the deadline is checked against
                // transmission completion, not client arrival
                // (propagation delay is a constant the application
                // budgets separately).
                let block_deadline = delivery.packet.has_deadline();
                let block_missed = block_deadline && delivery.packet.missed_deadline(delivery.sent);
                // Coded streams account delivery at decode-complete
                // granularity: parity blocks feed the group decode but
                // are invisible to the user-facing deadline and
                // goodput metrics.
                let mut is_parity = false;
                let mut decode_credit = 0u64;
                if let Some(cr) = coding[s].as_mut() {
                    is_parity = delivery.packet.seq % cr.plan.n as u64 >= cr.plan.k as u64;
                    let ontime = block_deadline && !block_missed;
                    if let Some((group, recovered, reconstructed)) =
                        cr.record_delivery(delivery.packet.seq, ontime)
                    {
                        decode_credit = reconstructed;
                        trace.emit(TraceEvent::CodingDecode {
                            at_ns: now_ns,
                            stream: s as u32,
                            group,
                            recovered,
                        });
                    }
                }
                let has_deadline = block_deadline && !is_parity;
                let missed = has_deadline && block_missed;
                if has_deadline {
                    deadline_pkts[s] += 1;
                    if missed {
                        deadline_misses[s] += 1;
                    }
                }
                let latency_ns = ((delivery.latency().as_secs_f64() + extra) * 1e9).round() as u64;
                metrics.on_deliver(s, j, latency_ns, has_deadline, missed);
                if trace.enabled() {
                    trace.emit(TraceEvent::Deliver {
                        at_ns: now_ns,
                        path: j as u32,
                        stream: s as u32,
                        seq: delivery.packet.seq,
                        missed_deadline: missed,
                    });
                }
                let shifted = SimTime::from_secs_f64(rel.max(0.0));
                // Parity is redundancy, not goodput: the throughput
                // series report data bytes only (raw conservation
                // counters above still include parity).
                if !is_parity {
                    stream_tp[s].record(shifted, delivery.packet.bytes as u64);
                    stream_path_tp[s][j].record(shifted, delivery.packet.bytes as u64);
                }
                // Data bytes the decode just reconstructed from parity
                // (their own blocks were lost in transit) become
                // application-visible goodput now. Not attributed to
                // any path series: no path carried them to the client.
                if decode_credit > 0 {
                    stream_tp[s].record(shifted, decode_credit);
                }
                sink(&DeliveryEvent {
                    stream: s,
                    seq: delivery.packet.seq,
                    bytes: delivery.packet.bytes,
                    created: delivery.packet.created.as_secs_f64() - warmup,
                    delivered: rel,
                    path: j,
                    has_deadline,
                    missed_deadline: missed,
                });
            }
            Ev::Probe => {
                // Beliefs are kept only for belief-driven planners — the
                // default periodic path pays nothing. A path's estimand
                // is recomputed only when an observation reached it
                // since the last refresh; staleness moves every slot.
                for (j, belief) in beliefs.iter_mut().enumerate() {
                    let seen = monitoring.observations(j);
                    if belief_seen[j] != Some(seen) {
                        belief_seen[j] = Some(seen);
                        let st = monitoring.stats(j);
                        belief.samples = st.cdf.len();
                        belief.prob_ok = if belief.samples == 0 || demand <= 0.0 {
                            0.5
                        } else {
                            1.0 - st.cdf.prob_below_strict(demand)
                        };
                    }
                    belief.staleness_slots = monitoring
                        .staleness(j, now_s)
                        .map_or((probe_slot + 1) as f64, |s| s / cfg.probe_interval_secs);
                }
                planner.plan_into(probe_slot, n_paths, &beliefs, &mut selection);
                if !planner_default {
                    let allowance = cfg.probe_budget.allowance(probe_slot, n_paths).min(n_paths);
                    trace.emit(TraceEvent::ProbePlan {
                        at_ns: now_ns,
                        slot: probe_slot,
                        allowance: allowance as u32,
                        selected: selection.len() as u32,
                    });
                    for sel in &selection {
                        trace.emit(TraceEvent::ProbeSelect {
                            at_ns: now_ns,
                            slot: probe_slot,
                            path: sel.path as u32,
                            score: sel.score,
                        });
                    }
                }
                for sel in &selection {
                    let j = sel.path;
                    let path = &paths[j];
                    probe_counts[j] += 1;
                    // Injected probe loss: the report never arrives, so
                    // the path's telemetry goes stale.
                    if injector.probe_lost(j, now_s) {
                        trace.emit(TraceEvent::ProbeLost {
                            path: j as u32,
                            at_ns: now_ns,
                        });
                        continue;
                    }
                    let delay = injector.probe_delay_at(j, now_s);
                    if delay > 0.0 {
                        let s = probes[j].measure_delayed(path, now_s, delay);
                        events.schedule(
                            SimTime::from_secs_f64(s.ready_at),
                            Ev::ProbeReady(j, s.taken_at, s.bw),
                        );
                    } else {
                        let bw = probes[j].measure(path, now_s);
                        monitoring.observe_bandwidth(j, now_s, bw);
                        monitoring.observe_rtt(j, path.prop_delay().as_secs_f64() * 2.0);
                    }
                }
                probe_slot += 1;
                events.schedule(
                    now + iqpaths_simnet::SimDuration::from_secs_f64(cfg.probe_interval_secs),
                    Ev::Probe,
                );
            }
            Ev::ProbeReady(j, taken_at, bw) => {
                monitoring.observe_bandwidth(j, taken_at, bw);
                monitoring.observe_rtt(j, paths[j].prop_delay().as_secs_f64() * 2.0);
            }
            Ev::Window => {
                goodput_snapshots_into(
                    &monitoring,
                    &path_transmitted,
                    &path_lost,
                    |j| {
                        Some(
                            paths[j].mean_residual(
                                now_s,
                                now_s + cfg.window_secs,
                                cfg.window_secs / 20.0,
                            ) * (1.0 - paths[j].loss_prob()),
                        )
                    },
                    &mut snapshot_scratch,
                );
                scheduler.on_window_start(
                    now_ns,
                    (cfg.window_secs * 1e9) as u64,
                    &snapshot_scratch,
                );
                // Release the snapshots (keeping the capacity): held
                // across the window, each would make the next probe
                // write to its path copy a Rolling CDF's sample vector.
                snapshot_scratch.clear();
                upcalls.extend(scheduler.drain_upcalls());
                for j in 0..n_paths {
                    if idle[j] && services[j].is_free(now) && scheduler.uses_path(j) {
                        idle[j] = false;
                        events.schedule(now, Ev::PathFree(j));
                    }
                }
                events.schedule(
                    now + iqpaths_simnet::SimDuration::from_secs_f64(cfg.window_secs),
                    Ev::Window,
                );
            }
        }
    }

    // --- Reports ----------------------------------------------------------
    let end_rel = SimTime::from_secs_f64(duration);
    let streams = specs
        .iter()
        .enumerate()
        .map(|(s, spec)| {
            let series = stream_tp.remove(0).finish(end_rel);
            let per_path = stream_path_tp
                .remove(0)
                .into_iter()
                .map(|m| m.finish(end_rel))
                .collect();
            report::stream_report(
                spec,
                series,
                per_path,
                delivered_packets[s],
                delivered_bytes[s],
                queues.dropped(s),
                queues.offered(s),
                latency_sum[s],
                deadline_pkts[s],
                deadline_misses[s],
                transit_lost[s],
                coding[s].take().map(|cr| cr.stats),
            )
        })
        .collect();

    trace.flush();
    let report = RunReport {
        scheduler: scheduler.name().to_string(),
        duration,
        monitor_window: cfg.monitor_window_secs,
        streams,
        path_sent_bytes: services.iter().map(PathService::sent_bytes).collect(),
        path_blocked_events,
        upcalls,
        events: events.processed(),
        metrics,
    };
    (report, probe_counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqpaths_apps::workload::FramedSource;
    use iqpaths_core::scheduler::{Pgos, PgosConfig};
    use iqpaths_core::stream::StreamSpec;
    use iqpaths_simnet::link::Link;
    use iqpaths_simnet::time::SimDuration;
    use iqpaths_traces::RateTrace;

    fn clean_path(index: usize, capacity_mbps: f64) -> OverlayPath {
        let l = Link::new(
            format!("l{index}"),
            capacity_mbps * 1.0e6,
            SimDuration::from_millis(1),
        );
        OverlayPath::new(index, format!("P{index}"), vec![l])
    }

    fn congested_path(index: usize, capacity_mbps: f64, cross_mbps: f64) -> OverlayPath {
        let cross = RateTrace::constant(0.1, cross_mbps * 1.0e6, 1000.0);
        let l = Link::new(
            format!("l{index}"),
            capacity_mbps * 1.0e6,
            SimDuration::from_millis(1),
        )
        .with_cross_traffic(cross);
        OverlayPath::new(index, format!("P{index}"), vec![l])
    }

    fn quick_cfg() -> RuntimeConfig {
        RuntimeConfig {
            warmup_secs: 5.0,
            probe_interval_secs: 0.1,
            history_samples: 100,
            seed: 7,
            ..Default::default()
        }
    }

    fn one_stream_workload(rate_mbps: f64, duration: f64) -> (Vec<StreamSpec>, FramedSource) {
        let specs = vec![StreamSpec::probabilistic(
            0,
            "s0",
            rate_mbps * 1.0e6,
            0.9,
            1250,
        )];
        let frame = (rate_mbps * 1.0e6 / (8.0 * 25.0)).round() as u32;
        let src = FramedSource::new(specs.clone(), vec![frame], 25.0, duration);
        (specs, src)
    }

    #[test]
    fn uncongested_stream_achieves_its_rate() {
        let paths = vec![clean_path(0, 100.0)];
        let (specs, src) = one_stream_workload(10.0, 10.0);
        let pgos = Pgos::new(PgosConfig::default(), specs, 1);
        let report = run(&paths, Box::new(src), Box::new(pgos), quick_cfg(), 10.0);
        let s = &report.streams[0];
        assert!(
            (s.mean_throughput() - 10.0e6).abs() / 10.0e6 < 0.05,
            "mean {}",
            s.mean_throughput()
        );
        assert_eq!(s.queue_drops, 0);
        assert!(s.deadline_miss_rate < 0.05, "miss {}", s.deadline_miss_rate);
        assert!(report.upcalls.is_empty());
    }

    #[test]
    fn congestion_caps_throughput_at_residual() {
        // 100 Mbps link with 95 Mbps cross traffic → ~5 Mbps residual.
        let paths = vec![congested_path(0, 100.0, 95.0)];
        let (specs, src) = one_stream_workload(20.0, 10.0);
        let pgos = Pgos::new(PgosConfig::default(), specs, 1);
        let report = run(&paths, Box::new(src), Box::new(pgos), quick_cfg(), 10.0);
        let s = &report.streams[0];
        assert!(
            s.mean_throughput() < 6.0e6,
            "throughput {} exceeds residual",
            s.mean_throughput()
        );
        // The 20 Mbps demand is infeasible at p=0.9 on a 5 Mbps path.
        assert!(!report.upcalls.is_empty());
    }

    #[test]
    fn two_paths_split_a_big_stream() {
        let paths = vec![clean_path(0, 10.0), clean_path(1, 10.0)];
        let (specs, src) = one_stream_workload(15.0, 10.0);
        let pgos = Pgos::new(PgosConfig::default(), specs, 2);
        let report = run(&paths, Box::new(src), Box::new(pgos), quick_cfg(), 10.0);
        let s = &report.streams[0];
        assert!(
            (s.mean_throughput() - 15.0e6).abs() / 15.0e6 < 0.08,
            "mean {}",
            s.mean_throughput()
        );
        // Both paths carried data.
        assert!(report.path_sent_bytes.iter().all(|&b| b > 0));
    }

    #[test]
    fn deterministic_across_runs() {
        let paths = vec![congested_path(0, 100.0, 40.0)];
        let run_once = || {
            let (specs, src) = one_stream_workload(10.0, 5.0);
            let pgos = Pgos::new(PgosConfig::default(), specs, 1);
            run(&paths, Box::new(src), Box::new(pgos), quick_cfg(), 5.0)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(
            a.streams[0].throughput_series,
            b.streams[0].throughput_series
        );
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn rolling_cdf_mode_reproduces_exact_run() {
        // The rolling summary answers every query bit-identically to the
        // exact CDF, so a seeded run must produce the same report under
        // either mode: same scheduling decisions, same event count.
        // (Lossless paths keep the goodput scale factor at exactly 1.)
        let run_once = |mode| {
            let paths = vec![congested_path(0, 100.0, 40.0), clean_path(1, 20.0)];
            let (specs, src) = one_stream_workload(25.0, 8.0);
            let pgos = Pgos::new(PgosConfig::default(), specs, 2);
            let cfg = RuntimeConfig {
                cdf_mode: mode,
                ..quick_cfg()
            };
            run(&paths, Box::new(src), Box::new(pgos), cfg, 8.0)
        };
        let e = run_once(iqpaths_overlay::node::CdfMode::Exact);
        let r = run_once(iqpaths_overlay::node::CdfMode::Rolling);
        assert_eq!(e.events, r.events);
        assert_eq!(e.path_sent_bytes, r.path_sent_bytes);
        assert_eq!(e.upcalls.len(), r.upcalls.len());
        for (se, sr) in e.streams.iter().zip(&r.streams) {
            assert_eq!(se.delivered_packets, sr.delivered_packets);
            assert_eq!(se.delivered_bytes, sr.delivered_bytes);
            assert_eq!(se.throughput_series, sr.throughput_series);
            assert_eq!(se.per_path_series, sr.per_path_series);
            assert_eq!(se.mean_latency, sr.mean_latency);
            assert_eq!(se.deadline_miss_rate, sr.deadline_miss_rate);
        }
    }

    #[test]
    fn blackout_shifts_traffic_and_counts_blocked_events() {
        use iqpaths_simnet::fault::FaultSchedule;
        // Two clean 20 Mbps paths; path 0 blacks out mid-run. Fault
        // times are absolute (warm-up = 5 s ends at t = 5).
        let mut faults = FaultSchedule::new();
        faults.blackout(0, 8.0, 12.0);
        let run_once = |faults: &FaultSchedule| {
            let paths = vec![clean_path(0, 20.0), clean_path(1, 20.0)];
            let (specs, src) = one_stream_workload(8.0, 15.0);
            let pgos = Pgos::new(PgosConfig::default(), specs, 2);
            run_faulted(
                &paths,
                Box::new(src),
                Box::new(pgos),
                quick_cfg(),
                15.0,
                faults,
                &mut |_| {},
            )
        };
        let faulted = run_once(&faults);
        let clean = run_once(&FaultSchedule::new());
        // The blackout trips blocked-path detection on path 0 only.
        assert!(faulted.path_blocked_events[0] > 0);
        assert_eq!(faulted.path_blocked_events[1], 0);
        assert_eq!(clean.path_blocked_events, vec![0, 0]);
        // Despite the 4 s outage the stream still lands near its rate:
        // PGOS shifts onto path 1.
        let s = &faulted.streams[0];
        assert!(
            s.mean_throughput() > 0.85 * 8.0e6,
            "mean {}",
            s.mean_throughput()
        );
        // And the faulted run moved more bytes over path 1 than the
        // clean run did.
        assert!(faulted.path_sent_bytes[1] > clean.path_sent_bytes[1]);
    }

    #[test]
    fn probe_loss_starves_monitoring_but_run_completes() {
        use iqpaths_simnet::fault::{Fault, FaultSchedule};
        let mut faults = FaultSchedule::new();
        faults.push(5.0, Fault::ProbeLoss { path: 0, prob: 0.9 });
        let paths = vec![clean_path(0, 50.0)];
        let (specs, src) = one_stream_workload(5.0, 10.0);
        let pgos = Pgos::new(PgosConfig::default(), specs, 1);
        let report = run_faulted(
            &paths,
            Box::new(src),
            Box::new(pgos),
            quick_cfg(),
            10.0,
            &faults,
            &mut |_| {},
        );
        // A clean 50 Mbps path keeps serving even with starved probes.
        assert!(report.streams[0].mean_throughput() > 4.5e6);
    }

    #[test]
    fn sink_sees_every_delivery() {
        let paths = vec![clean_path(0, 100.0)];
        let (specs, src) = one_stream_workload(5.0, 3.0);
        let pgos = Pgos::new(PgosConfig::default(), specs, 1);
        let mut count = 0u64;
        let report = run_with_sink(
            &paths,
            Box::new(src),
            Box::new(pgos),
            quick_cfg(),
            3.0,
            &mut |d| {
                assert!(d.delivered >= d.created);
                count += 1;
            },
        );
        assert_eq!(count, report.streams[0].delivered_packets);
        assert!(count > 0);
    }

    #[test]
    fn budgeted_probing_spends_exactly_its_share() {
        // 25% budget on 2 paths over the main loop: the planner may
        // schedule at most ceil(slots * 2 * 0.25) probes, and the run
        // still lands its throughput (probing is telemetry, not data).
        let paths = vec![clean_path(0, 100.0), clean_path(1, 100.0)];
        let (specs, src) = one_stream_workload(10.0, 10.0);
        let pgos = Pgos::new(PgosConfig::default(), specs, 2);
        let cfg = RuntimeConfig {
            planner: PlannerKind::Active,
            probe_budget: ProbeBudget::percent(25),
            ..quick_cfg()
        };
        let (report, probe_counts) = run_traced_counted(
            &paths,
            Box::new(src),
            Box::new(pgos),
            cfg,
            10.0,
            &FaultSchedule::new(),
            TraceHandle::null(),
            &mut |_| {},
        );
        let total: u64 = probe_counts.iter().sum();
        // ~100 slots in 10 s at 0.1 s interval; the event loop's end
        // bound can add/remove one slot, hence the ceiling with slack.
        let slots = (10.0f64 / cfg.probe_interval_secs).round() as u64 + 2;
        assert!(total > 0, "budgeted planner never probed");
        assert!(
            total <= (slots * 2).div_ceil(4),
            "total {total} exceeds 25% of {} probe opportunities",
            slots * 2
        );
        assert!(probe_counts.iter().all(|&c| c > 0), "a path starved");
        assert!(
            (report.streams[0].mean_throughput() - 10.0e6).abs() / 10.0e6 < 0.05,
            "mean {}",
            report.streams[0].mean_throughput()
        );
    }

    #[test]
    fn active_planner_runs_are_deterministic() {
        let run_once = || {
            let paths = vec![congested_path(0, 100.0, 40.0), clean_path(1, 20.0)];
            let (specs, src) = one_stream_workload(15.0, 8.0);
            let pgos = Pgos::new(PgosConfig::default(), specs, 2);
            let cfg = RuntimeConfig {
                planner: PlannerKind::Active,
                probe_budget: ProbeBudget::percent(50),
                ..quick_cfg()
            };
            run(&paths, Box::new(src), Box::new(pgos), cfg, 8.0)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(
            a.streams[0].throughput_series,
            b.streams[0].throughput_series
        );
        assert_eq!(a.path_sent_bytes, b.path_sent_bytes);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn default_config_publishes_full_probe_counts() {
        // The default planner probes every path every slot; the
        // published planner state reflects that.
        let paths = vec![clean_path(0, 100.0)];
        let (specs, src) = one_stream_workload(5.0, 5.0);
        let pgos = Pgos::new(PgosConfig::default(), specs, 1);
        let (_, probe_counts) = run_traced_counted(
            &paths,
            Box::new(src),
            Box::new(pgos),
            quick_cfg(),
            5.0,
            &FaultSchedule::new(),
            TraceHandle::null(),
            &mut |_| {},
        );
        let slots = (5.0f64 / quick_cfg().probe_interval_secs).round() as u64;
        assert!((probe_counts[0] as i64 - slots as i64).abs() <= 2);
    }

    #[test]
    fn series_lengths_match_duration() {
        let paths = vec![clean_path(0, 100.0)];
        let (specs, src) = one_stream_workload(5.0, 8.0);
        let pgos = Pgos::new(PgosConfig::default(), specs, 1);
        let report = run(&paths, Box::new(src), Box::new(pgos), quick_cfg(), 8.0);
        assert_eq!(report.streams[0].throughput_series.len(), 8);
        assert_eq!(report.streams[0].per_path_series[0].len(), 8);
    }

    fn diversity_pgos(specs: Vec<StreamSpec>, n_paths: usize) -> Pgos {
        use iqpaths_core::mapping::MappingMode;
        let cfg = PgosConfig {
            mapping_mode: MappingMode::Diversity,
            ..PgosConfig::default()
        };
        Pgos::new(cfg, specs, n_paths)
    }

    #[test]
    fn diversity_mode_codes_groups_and_reports_stats() {
        let paths = vec![
            clean_path(0, 30.0),
            clean_path(1, 30.0),
            clean_path(2, 30.0),
        ];
        let (specs, src) = one_stream_workload(8.0, 10.0);
        let report = run(
            &paths,
            Box::new(src),
            Box::new(diversity_pgos(specs, 3)),
            quick_cfg(),
            10.0,
        );
        let c = report.streams[0]
            .coding
            .as_ref()
            .expect("coded stream carries stats");
        assert_eq!((c.n, c.k), (3, 2));
        assert!(c.parity_sent > 0, "parity {}", c.parity_sent);
        assert!(c.groups_decoded > 0, "decoded {}", c.groups_decoded);
        assert!(c.data_offered > 0);
        let ratio = c.delivered_before_deadline();
        assert!(ratio > 0.9, "delivered-before-deadline ratio {ratio}");
        // Lane striping spreads the group across all three paths.
        assert!(report.path_sent_bytes.iter().all(|&b| b > 0));
        assert!(report.metrics.conserved());
    }

    #[test]
    fn diversity_decodes_through_a_silently_lossy_path() {
        use iqpaths_simnet::fault::{Fault, FaultSchedule};
        // Path 0 carries data lane 0 and silently eats every block
        // after warm-up: a (3,2) code still decodes every group from
        // the surviving data lane plus the parity lane, so the
        // before-deadline ratio stays high even though a third of the
        // blocks vanish in transit.
        let mut faults = FaultSchedule::new();
        faults.push(5.0, Fault::TransitLoss { path: 0, prob: 1.0 });
        let paths = vec![
            clean_path(0, 30.0),
            clean_path(1, 30.0),
            clean_path(2, 30.0),
        ];
        let (specs, src) = one_stream_workload(8.0, 15.0);
        let report = run_faulted(
            &paths,
            Box::new(src),
            Box::new(diversity_pgos(specs, 3)),
            quick_cfg(),
            15.0,
            &faults,
            &mut |_| {},
        );
        let c = report.streams[0]
            .coding
            .as_ref()
            .expect("coded stream carries stats");
        assert!(c.recovered > 0, "recovered {}", c.recovered);
        let ratio = c.delivered_before_deadline();
        assert!(ratio > 0.9, "delivered-before-deadline ratio {ratio}");
    }

    #[test]
    fn pgos_default_is_bit_identical_with_coding_machinery_present() {
        // The classic mapping must not observe the coding plumbing at
        // all: no lanes, no parity, no coding stats.
        let paths = vec![clean_path(0, 30.0), clean_path(1, 30.0)];
        let (specs, src) = one_stream_workload(8.0, 8.0);
        let pgos = Pgos::new(PgosConfig::default(), specs, 2);
        let report = run(&paths, Box::new(src), Box::new(pgos), quick_cfg(), 8.0);
        assert!(report.streams[0].coding.is_none());
    }
}
