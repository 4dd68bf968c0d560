//! Replay drives: the layers that cannot be wrapped in a decorator are
//! timed in isolation, by calling their public functions the way
//! `middleware::runtime` does, on the workload's own paths, stream
//! table and configuration. Each drive yields a cost per operation;
//! multiplied by the operation counts of the real run it becomes an
//! *estimated* share of the run (`*.est_share_pct`) — an estimate,
//! because an isolated loop runs with warmer caches than the event
//! loop does.

use crate::workloads::RunInput;
use iqpaths_core::queues::StreamQueues;
use iqpaths_overlay::node::MonitoringModule;
use iqpaths_overlay::path::OverlayPath;
use iqpaths_overlay::planner::{build_planner, PathBelief};
use iqpaths_overlay::probe::AvailBwProbe;
use iqpaths_simnet::fault::{fnv1a64, salted_seed, splitmix64};
use iqpaths_simnet::packet::{Packet, StreamId};
use iqpaths_simnet::time::{SimDuration, SimTime};
use iqpaths_simnet::EventQueue;
use iqpaths_stats::BandwidthCdf as _;
use iqpaths_trace::Metrics;
use std::hint::black_box;
use std::time::Instant;

/// Cost per operation of each replayed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCosts {
    /// One `EventQueue::pop_until` + one `schedule`, at the run's live
    /// queue depth.
    pub event_ns_per_op: f64,
    pub queue_push_ns: f64,
    pub queue_pop_ns: f64,
    /// `is_free` + `residual_at` + `begin` + `complete` of one packet.
    pub server_ns_per_pkt: f64,
    /// `AvailBwProbe::measure` + `observe_bandwidth` + `observe_rtt`.
    pub probe_ns: f64,
    /// One window's snapshot of every path: `all_stats` +
    /// `CdfSummary::scale` + the oracle's `mean_residual`.
    pub snapshot_us: f64,
    /// One probe slot: belief construction (when the planner wants
    /// beliefs) + `ProbePlanner::plan`.
    pub plan_us: f64,
    /// `Metrics::on_enqueue` + `on_dispatch` + `on_deliver`.
    pub metrics_ns_per_pkt: f64,
    pub with_faults_us_per_path: f64,
}

fn ns_per(t: Instant, ops: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Runs every drive on `input` (a workload's first run).
pub fn drive(input: &RunInput) -> ReplayCosts {
    let cfg = input.cfg;
    let horizon = cfg.warmup_secs + input.duration + cfg.window_secs;
    let t_faults = Instant::now();
    const FAULT_ROUNDS: u64 = 10;
    let mut faulted = Vec::new();
    for _ in 0..FAULT_ROUNDS {
        faulted = input
            .paths
            .iter()
            .map(|p| p.with_faults(&input.faults, horizon))
            .collect::<Vec<OverlayPath>>();
    }
    let with_faults_us_per_path = ns_per(t_faults, FAULT_ROUNDS * input.paths.len() as u64) / 1.0e3;
    let paths = &faulted[..];
    let (probe_ns, snapshot_us, plan_us) = monitoring(input, paths);
    let (queue_push_ns, queue_pop_ns) = queues(input);
    ReplayCosts {
        event_ns_per_op: event_queue(paths.len()),
        queue_push_ns,
        queue_pop_ns,
        server_ns_per_pkt: server(input, paths),
        probe_ns,
        snapshot_us,
        plan_us,
        metrics_ns_per_pkt: metrics(input),
        with_faults_us_per_path,
    }
}

/// The runtime keeps about two events per busy path (`Delivered` +
/// `PathFree`) plus the arrival, probe and window timers pending.
fn event_queue(n_paths: usize) -> f64 {
    const OPS: u64 = 1_000_000;
    let depth = 2 * n_paths + 3;
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut x = 1u64;
    for i in 0..depth {
        x = splitmix64(x);
        q.schedule(SimTime::from_nanos(x % 1_000_000), i as u32);
    }
    let t = Instant::now();
    for _ in 0..OPS {
        let (now, ev) = q.pop_until(SimTime::MAX).expect("queue stays at depth");
        x = splitmix64(x);
        q.schedule(
            now + SimDuration::from_nanos(1 + x % 1_000_000),
            black_box(ev),
        );
    }
    black_box(q.len());
    ns_per(t, OPS)
}

fn queues(input: &RunInput) -> (f64, f64) {
    const ROUNDS: usize = 200;
    const BATCH: usize = 4096;
    let n = input.specs.len();
    let mut q = StreamQueues::with_pool_capacity(
        n,
        input.cfg.queue_capacity,
        65_536.min(n * input.cfg.queue_capacity),
    );
    let (mut push_ns, mut pop_ns) = (0u128, 0u128);
    for r in 0..ROUNDS {
        let t = Instant::now();
        for i in 0..BATCH {
            let s = (r + i) % n;
            black_box(q.push(s, input.specs[s].packet_bytes, (r * BATCH + i) as u64));
        }
        push_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        for i in 0..BATCH {
            black_box(q.pop((r + i) % n));
        }
        pop_ns += t.elapsed().as_nanos();
    }
    let ops = (ROUNDS * BATCH) as f64;
    (push_ns as f64 / ops, pop_ns as f64 / ops)
}

fn server(input: &RunInput, paths: &[OverlayPath]) -> f64 {
    const PKTS: u64 = 100_000;
    let mut svc = paths[0].service();
    let bytes = input.specs[0].packet_bytes;
    let mut now = SimTime::from_secs_f64(input.cfg.warmup_secs);
    let t = Instant::now();
    for seq in 0..PKTS {
        if svc.is_free(now) {
            black_box(svc.residual_at(now.as_secs_f64()));
            let pkt = Packet {
                stream: StreamId(0),
                seq,
                bytes,
                created: now,
                deadline: SimTime::MAX,
            };
            now = svc.begin(pkt, now);
            black_box(svc.complete(now));
        }
    }
    ns_per(t, PKTS)
}

/// Probe writes, per-window snapshots and probe planning, against one
/// monitoring module in the workload's CDF mode and history depth.
fn monitoring(input: &RunInput, paths: &[OverlayPath]) -> (f64, f64, f64) {
    let cfg = input.cfg;
    let n = paths.len();
    let mut module = MonitoringModule::with_mode(n, cfg.history_samples, cfg.cdf_mode);
    let mut probes: Vec<AvailBwProbe> = (0..n)
        .map(|j| {
            AvailBwProbe::new(
                cfg.probe_interval_secs,
                cfg.probe_noise,
                cfg.seed.wrapping_add(j as u64),
            )
        })
        .collect();
    let probe_round = |module: &mut MonitoringModule, probes: &mut [AvailBwProbe], t: f64| {
        for (j, path) in paths.iter().enumerate() {
            let bw = probes[j].measure(path, t);
            module.observe_bandwidth(j, t, bw);
            module.observe_rtt(j, path.prop_delay().as_secs_f64() * 2.0);
        }
    };

    // Probe writes: every path, every interval, until the history is
    // full and then as long again (steady-state eviction included).
    let slots = (2 * cfg.history_samples).clamp(200, 2_000) as u64;
    let mut t = 0.0;
    let timer = Instant::now();
    for _ in 0..slots {
        t += cfg.probe_interval_secs;
        probe_round(&mut module, &mut probes, t);
    }
    let probe_ns = ns_per(timer, slots * n as u64);

    // Window snapshots, with one (untimed) probe round between them so
    // no snapshot can be served from the previous one.
    const SNAPSHOTS: u64 = 100;
    let mut snapshot_ns = 0u128;
    for _ in 0..SNAPSHOTS {
        t += cfg.probe_interval_secs;
        probe_round(&mut module, &mut probes, t);
        let timer = Instant::now();
        for (j, st) in module.all_stats().into_iter().enumerate() {
            black_box(st.cdf.scale(1.0));
            black_box(paths[j].mean_residual(t, t + cfg.window_secs, cfg.window_secs / 20.0));
        }
        snapshot_ns += timer.elapsed().as_nanos();
    }
    let snapshot_us = snapshot_ns as f64 / SNAPSHOTS as f64 / 1.0e3;

    // Probe planning, as the runtime's `Probe` event arm does it.
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
        n,
        salted_seed(cfg.seed, "planner"),
        cfg.probe_budget,
        Some(&incidence),
    );
    let demand: f64 = input
        .specs
        .iter()
        .filter(|s| !s.guarantee.is_best_effort())
        .map(|s| s.required_bw)
        .sum();
    const PLANS: u64 = 2_000;
    let timer = Instant::now();
    for slot in 0..PLANS {
        let beliefs: Vec<PathBelief> = if planner.needs_beliefs() {
            (0..n)
                .map(|j| {
                    let st = module.stats(j);
                    PathBelief {
                        prob_ok: 1.0 - st.cdf.prob_below_strict(demand),
                        samples: st.cdf.len(),
                        staleness_slots: module
                            .staleness(j, t)
                            .map_or((slot + 1) as f64, |s| s / cfg.probe_interval_secs),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        black_box(planner.plan(slot, n, &beliefs));
    }
    let plan_us = ns_per(timer, PLANS) / 1.0e3;
    (probe_ns, snapshot_us, plan_us)
}

fn metrics(input: &RunInput) -> f64 {
    const PKTS: u64 = 1_000_000;
    let (streams, paths) = (input.specs.len(), input.paths.len());
    let mut m = Metrics::new(streams, paths);
    let t = Instant::now();
    for i in 0..PKTS {
        let (s, j) = (i as usize % streams, i as usize % paths);
        m.on_enqueue(s);
        m.on_dispatch(s, j, 1250);
        m.on_deliver(s, j, 1_000_000 + i, true, false);
    }
    black_box(m.conserved());
    ns_per(t, PKTS)
}
