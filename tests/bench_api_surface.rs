//! The benchmark's bound API surface, compiled and smoke-run in tier-1.
//!
//! `iqbench/` is a workspace of its own, so `cargo test` never builds
//! it; a refactor that renames or drops one of the public items it
//! links against would only surface when the benchmark driver runs.
//! This file names every item of `iqbench/README.md`, "Bound API
//! surface", the way `iqbench` uses it — struct-update literals,
//! pass-through decorators over the three traits, the replay drives'
//! call sequences — and runs one 2-second `run_traced`. If it stops
//! compiling, either keep the item as a thin wrapper or land a
//! `benchmark` PR first.

use iqpaths_apps::smartpointer::{SmartPointer, SmartPointerConfig};
use iqpaths_apps::workload::{Arrival, FramedSource, Workload};
use iqpaths_core::coding::StreamCoding;
use iqpaths_core::mapping::{MappingMode, Upcall};
use iqpaths_core::queues::{QueuedPacket, StreamQueues};
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_core::stream::{Guarantee, StreamSpec};
use iqpaths_core::traits::{MultipathScheduler, PathSnapshot};
use iqpaths_middleware::builder::Figure8Experiment;
use iqpaths_middleware::report::RunReport;
use iqpaths_middleware::runtime::{run_traced, DeliveryEvent, RuntimeConfig};
use iqpaths_overlay::graph::OverlayNodeId;
use iqpaths_overlay::node::{CdfMode, MonitoringModule};
use iqpaths_overlay::path::OverlayPath;
use iqpaths_overlay::planner::{build_planner, PathBelief, PlannerKind, ProbeBudget};
use iqpaths_overlay::probe::AvailBwProbe;
use iqpaths_simnet::fault::{fnv1a64, salted_seed, splitmix64, unit, FaultSchedule};
use iqpaths_simnet::packet::{Packet, StreamId};
use iqpaths_simnet::time::{SimDuration, SimTime};
use iqpaths_simnet::EventQueue;
use iqpaths_stats::{BandwidthCdf, QuantileSketch};
use iqpaths_testkit::manytenant::{compile, run_scalability, ScalabilityConfig};
use iqpaths_testkit::scenario::{conformance_streams, FaultScenario};
use iqpaths_testkit::topology::{GraphModel, TopologyGen};
use iqpaths_trace::{
    shared, DispatchClass, InMemorySink, Metrics, TraceEvent, TraceHandle, TraceSink,
};
use iqpaths_traces::nlanr::figure8_cross_traffic;
use iqpaths_traces::RateTrace;
use std::cell::RefCell;
use std::rc::Rc;

/// Forwards every `MultipathScheduler` method, defaulted ones included,
/// as `iqbench`'s `TimedScheduler` does.
struct PassScheduler {
    inner: Box<dyn MultipathScheduler>,
    next_packet_calls: Rc<RefCell<u64>>,
}

impl MultipathScheduler for PassScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn specs(&self) -> &[StreamSpec] {
        self.inner.specs()
    }
    fn on_window_start(&mut self, window_start_ns: u64, window_ns: u64, paths: &[PathSnapshot]) {
        self.inner
            .on_window_start(window_start_ns, window_ns, paths);
    }
    fn next_packet(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
    ) -> Option<QueuedPacket> {
        *self.next_packet_calls.borrow_mut() += 1;
        self.inner.next_packet(path, now_ns, queues)
    }
    fn next_batch(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
        max: usize,
        out: &mut Vec<QueuedPacket>,
    ) -> usize {
        self.inner.next_batch(path, now_ns, queues, max, out)
    }
    fn on_path_blocked(&mut self, path: usize, now_ns: u64) {
        self.inner.on_path_blocked(path, now_ns);
    }
    fn uses_path(&self, path: usize) -> bool {
        self.inner.uses_path(path)
    }
    fn drain_upcalls(&mut self) -> Vec<Upcall> {
        self.inner.drain_upcalls()
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
        self.inner.plan_coding(snapshots, incidence, now_ns)
    }
}

struct PassWorkload(Box<dyn Workload>);

impl Workload for PassWorkload {
    fn specs(&self) -> &[StreamSpec] {
        self.0.specs()
    }
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.0.next_arrival()
    }
}

/// Counts Table 1 classes in front of a bounded ring, as `iqbench`'s
/// `CountingSink` does.
struct ClassSink {
    ring: InMemorySink,
    dispatch_decisions: u64,
}

impl TraceSink for ClassSink {
    fn emit(&mut self, ev: &TraceEvent) {
        if let TraceEvent::DispatchDecision { class, .. } = *ev {
            match class {
                DispatchClass::Scheduled
                | DispatchClass::OtherPath
                | DispatchClass::Unscheduled => {
                    self.dispatch_decisions += 1;
                }
            }
        }
        self.ring.emit(ev);
    }
}

fn framed_25fps(specs: &[StreamSpec], duration: f64) -> FramedSource {
    let frames = specs
        .iter()
        .map(|s| (s.required_bw.max(s.weight) / (8.0 * 25.0)).round() as u32)
        .collect();
    FramedSource::new(specs.to_vec(), frames, 25.0, duration)
}

#[test]
fn one_decorated_traced_run() {
    const WARMUP: f64 = 5.0;
    const DURATION: f64 = 2.0;
    let paths = TopologyGen {
        seed: 42,
        paths: 3,
        horizon: WARMUP + DURATION + 10.0,
        ..TopologyGen::default()
    }
    .build();
    let specs = conformance_streams();
    let cfg = RuntimeConfig {
        window_secs: 0.5,
        probe_interval_secs: 0.05,
        history_samples: 100,
        warmup_secs: WARMUP,
        seed: 42,
        cdf_mode: CdfMode::Rolling,
        planner: PlannerKind::Active,
        probe_budget: ProbeBudget::percent(25),
        ..RuntimeConfig::default()
    };
    let pgos_cfg = PgosConfig {
        window_secs: 0.5,
        mapping_mode: MappingMode::Pgos,
        ..PgosConfig::default()
    };
    let calls = Rc::new(RefCell::new(0u64));
    let (sink, trace) = shared(ClassSink {
        ring: InMemorySink::with_capacity(1 << 10),
        dispatch_decisions: 0,
    });
    let mut guaranteed_bytes = 0u64;
    let report: RunReport = run_traced(
        &paths,
        Box::new(PassWorkload(Box::new(framed_25fps(&specs, DURATION)))),
        Box::new(PassScheduler {
            inner: Box::new(Pgos::new(pgos_cfg, specs.clone(), paths.len())),
            next_packet_calls: Rc::clone(&calls),
        }),
        cfg,
        DURATION,
        &FaultScenario::Uncorrelated.schedule(WARMUP, WARMUP + 41.0),
        trace,
        &mut |d: &DeliveryEvent| {
            assert!(d.delivered >= d.created && d.path < 3);
            if !specs[d.stream].guarantee.is_best_effort() {
                guaranteed_bytes += u64::from(d.bytes);
            }
            let _ = (d.seq, d.has_deadline, d.missed_deadline);
        },
    );
    assert!(guaranteed_bytes > 0);
    assert!(*calls.borrow() > 0);
    assert!(sink.borrow().dispatch_decisions > 0);
    assert!(report.metrics.conserved());
    assert!(report.events > 0 && report.duration == DURATION);
    // `PartialEq` and `Debug` are the benchmark's transparency gate and
    // digest input.
    assert_eq!(report, report.clone());
    assert_ne!(fnv1a64(format!("{report:?}").as_bytes()), 0);
    for (i, (spec, s)) in specs.iter().zip(&report.streams).enumerate() {
        let m = &report.metrics.streams[i];
        assert!(
            m.enqueued + m.queue_dropped > 0,
            "{} offered nothing",
            spec.name
        );
        assert!(s.delivered_packets > 0, "{} starved", spec.name);
        assert!(s.deadline_packets >= s.deadline_misses);
        let _ = (s.queue_drops, s.transit_lost);
        if let Guarantee::Probabilistic { .. } = spec.guarantee {
            assert_eq!(s.throughput_series.len(), 2);
        }
        // Uncoded here; the fields `iqbench` reads off a coded stream.
        if let Some(c) = &s.coding {
            let _ = (c.n, c.k, c.data_offered, c.data_ontime, c.recovered);
            let _ = (c.groups_decoded, c.groups_total);
        }
    }
}

#[test]
fn figure8_and_manytenant_builders_keep_their_shape() {
    // fig8_smartpointer's inputs.
    let exp = Figure8Experiment::new(42, 2.0);
    let paths: Vec<OverlayPath> = exp.paths();
    let app_cfg = SmartPointerConfig {
        duration: exp.duration,
        ..SmartPointerConfig::default()
    };
    let specs = SmartPointer::specs(app_cfg);
    let _: Box<dyn Workload> = Box::new(SmartPointer::new(app_cfg));
    let _: Box<dyn MultipathScheduler> = Box::new(Pgos::new(exp.pgos, specs, paths.len()));
    let _: (RuntimeConfig, FaultSchedule) = (exp.runtime, FaultSchedule::new());
    let (cross_a, _) = figure8_cross_traffic(0.1, 5.0, 42);
    assert!(!cross_a.is_empty());

    // The seed's cross-traffic jitter is layered on through the Link
    // accessors.
    let link = &paths[0].links()[0];
    let jittered = match link.cross_traffic() {
        Some(cross) => {
            let rates = (0..cross.len() as u64)
                .map(|i| {
                    unit(splitmix64(salted_seed(7, link.name()).wrapping_add(i)))
                        * 0.02
                        * link.capacity()
                })
                .collect();
            link.clone()
                .add_cross_traffic(RateTrace::new(cross.epoch(), rates))
        }
        None => link.clone(),
    };
    let _ = OverlayPath::new(paths[0].index(), paths[0].name(), vec![jittered]);

    // manytenant_setup's inputs and its cross-check.
    let base = ScalabilityConfig::new(42, GraphModel::by_name("waxman").unwrap(), 16, 2, 2);
    let cfg = ScalabilityConfig {
        duration: 12.0,
        ..base
    };
    let compiled = compile(&cfg);
    assert_eq!(compiled.tenants.len(), 2);
    let t = &compiled.tenants[0];
    let routes =
        compiled
            .graph
            .graph
            .k_shortest_paths(OverlayNodeId(t.src), OverlayNodeId(t.dst), cfg.k);
    assert_eq!(routes.len(), t.routes.len());
    let _ = compiled.graph.link(t.routes[0][0], t.routes[0][1], 0.0);
    let _ = (
        &t.paths, &t.faults, t.tenant, cfg.warmup, cfg.mode, cfg.seed,
    );
    assert_eq!(ScalabilityConfig::tenant_streams().len(), 4);
    assert!(run_scalability(cfg).total_packets > 0);
}

#[test]
fn replay_drive_call_sequences_compile_and_run() {
    let paths = TopologyGen::default().build();
    let cfg = RuntimeConfig::default();
    let faulted: Vec<OverlayPath> = paths
        .iter()
        .map(|p| p.with_faults(&FaultScenario::Flap.schedule(5.0, 50.0), 60.0))
        .collect();

    // simnet::event
    let mut q: EventQueue<u32> = EventQueue::new();
    q.schedule(SimTime::from_nanos(5), 1);
    let (now, ev) = q.pop_until(SimTime::MAX).unwrap();
    q.schedule(now + SimDuration::from_nanos(1), ev);
    assert_eq!(q.len(), 1);

    // core::queues
    let mut queues = StreamQueues::with_pool_capacity(2, cfg.queue_capacity, 64);
    assert!(queues.push(0, 1250, 0));
    assert!(queues.pop(0).is_some());

    // simnet::server
    let mut svc = faulted[0].service();
    let now = SimTime::from_secs_f64(1.0);
    assert!(svc.is_free(now));
    let _ = svc.residual_at(now.as_secs_f64());
    let done = svc.begin(
        Packet {
            stream: StreamId(0),
            seq: 0,
            bytes: 1250,
            created: now,
            deadline: SimTime::MAX,
        },
        now,
    );
    let _ = svc.complete(done);

    // overlay::probe, overlay::node, CdfSummary::scale
    let n = faulted.len();
    let mut module = MonitoringModule::with_mode(n, cfg.history_samples, cfg.cdf_mode);
    let mut probe = AvailBwProbe::new(cfg.probe_interval_secs, cfg.probe_noise, cfg.seed);
    for (j, path) in faulted.iter().enumerate() {
        let bw = probe.measure(path, 0.1);
        module.observe_bandwidth(j, 0.1, bw);
        module.observe_rtt(j, path.prop_delay().as_secs_f64() * 2.0);
    }
    for (j, st) in module.all_stats().into_iter().enumerate() {
        assert_eq!(st.cdf.scale(1.0).len(), 1);
        let _ = faulted[j].mean_residual(0.1, 1.1, 0.05);
    }

    // overlay::planner
    let incidence: Vec<Vec<u64>> = faulted
        .iter()
        .map(|p| {
            p.links()
                .iter()
                .map(|l| fnv1a64(l.name().as_bytes()))
                .collect()
        })
        .collect();
    let mut planner = build_planner(
        PlannerKind::Active,
        n,
        salted_seed(cfg.seed, "planner"),
        ProbeBudget::percent(25),
        Some(&incidence),
    );
    assert!(planner.needs_beliefs());
    let beliefs: Vec<PathBelief> = (0..n)
        .map(|j| {
            let st = module.stats(j);
            PathBelief {
                prob_ok: 1.0 - st.cdf.prob_below_strict(1.0e6),
                samples: st.cdf.len(),
                staleness_slots: module
                    .staleness(j, 0.2)
                    .map_or(1.0, |s| s / cfg.probe_interval_secs),
            }
        })
        .collect();
    assert!(planner.plan(0, n, &beliefs).len() <= n);

    // trace::Metrics, stats::QuantileSketch
    let mut m = Metrics::new(1, 1);
    m.on_enqueue(0);
    m.on_dispatch(0, 0, 1250);
    m.on_deliver(0, 0, 1_000_000, true, false);
    assert!(m.conserved());
    let mut sketch = QuantileSketch::new(33);
    sketch.observe(1.0);
    assert_eq!(sketch.quantile(0.5), Some(1.0));
}
