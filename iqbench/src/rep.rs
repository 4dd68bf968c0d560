//! One repetition: build the inputs (timed → set-up), run them through
//! `middleware::runtime::run_traced` (timed → run wall), in one of four
//! observation modes. A closed loop with one client: the next
//! repetition starts when the previous one has returned.

use crate::decorators::{CountingSink, SharedRecorder, TimedScheduler, TimedWorkload, TraceCounts};
use crate::host::cpu_secs;
use crate::sim::{digest, fold_digests, Delivered, DeliveryLog, SimCounts};
use crate::workloads::{RunInput, WorkloadDef};
use iqpaths_middleware::report::RunReport;
use iqpaths_middleware::runtime::{run_traced, DeliveryEvent};
use iqpaths_trace::{shared, TraceHandle};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// How a repetition is observed.
pub enum Mode<'a> {
    /// Null trace handle, no-op delivery sink: the only mode whose
    /// timings become end-to-end metrics.
    Plain,
    /// Untimed: a recording delivery sink, for the simulated metrics.
    Verify(&'a mut Delivered),
    /// Scheduler and workload wrapped in timing decorators, trace off.
    Decorated {
        rec: &'a SharedRecorder,
        idle: &'a Rc<RefCell<u64>>,
    },
    /// Undecorated, decision trace on into a counting sink.
    Traced(&'a mut TraceTotals),
}

/// Decision-trace counts summed over a repetition's runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceTotals {
    pub counts: TraceCounts,
    /// Σ over runs of (probe slots planned × paths): the
    /// probe-everything spend a budgeted planner is compared with.
    pub probe_opportunities: u64,
}

/// What one repetition produced.
pub struct RepOut {
    pub setup_s: f64,
    /// Σ of the `run_traced` calls' wall time.
    pub wall_s: f64,
    /// Wall and CPU seconds of the whole run phase (digest included),
    /// for the wall/CPU noise guard.
    pub phase_wall_s: f64,
    pub phase_cpu_s: f64,
    pub digest: u64,
    pub counts: SimCounts,
    pub reports: Vec<RunReport>,
}

impl RepOut {
    pub fn wall_ns_per_pkt(&self) -> f64 {
        self.wall_s * 1.0e9 / self.counts.delivered_packets.max(1) as f64
    }
}

pub fn run_rep(def: &WorkloadDef, seed: u64, quick: bool, mut mode: Mode<'_>) -> RepOut {
    let t_setup = Instant::now();
    let inputs = (def.build)(seed, quick);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let phase_start = Instant::now();
    let cpu_start = cpu_secs();
    if let Mode::Decorated { rec, .. } = &mode {
        rec.borrow_mut().begin_run(phase_start);
    }
    let mut wall_s = 0.0;
    let mut counts = SimCounts::default();
    let mut reports = Vec::with_capacity(inputs.len());
    for input in inputs {
        let RunInput {
            paths,
            specs,
            mut workload,
            mut scheduler,
            cfg,
            duration,
            faults,
        } = input;
        let mut log = DeliveryLog::new(&specs);
        let mut trace = TraceHandle::null();
        let mut counting = None;
        match &mut mode {
            Mode::Plain | Mode::Verify(_) => {}
            Mode::Decorated { rec, idle } => {
                scheduler = Box::new(TimedScheduler::new(scheduler, rec, idle));
                workload = Box::new(TimedWorkload::new(workload, rec));
            }
            Mode::Traced(totals) => {
                let (sink, handle) = shared(CountingSink::resuming(totals.counts));
                trace = handle;
                counting = Some(sink);
            }
        }
        let mut record = |d: &DeliveryEvent| log.on_delivery(d);
        let mut ignore = |_: &DeliveryEvent| {};
        let sink: &mut dyn FnMut(&DeliveryEvent) = if matches!(mode, Mode::Verify(_)) {
            &mut record
        } else {
            &mut ignore
        };
        let t_run = Instant::now();
        let report = run_traced(
            &paths, workload, scheduler, cfg, duration, &faults, trace, sink,
        );
        wall_s += t_run.elapsed().as_secs_f64();
        match &mut mode {
            Mode::Verify(delivered) => log.finish(&report, delivered),
            Mode::Traced(totals) => {
                let counts = counting
                    .expect("traced mode installs a sink")
                    .borrow()
                    .counts;
                let plans = counts.probe_plans - totals.counts.probe_plans;
                totals.probe_opportunities += plans * paths.len() as u64;
                totals.counts = counts;
            }
            Mode::Plain | Mode::Decorated { .. } => {}
        }
        counts.absorb(&specs, &report);
        reports.push(report);
    }
    if let Mode::Decorated { rec, .. } = &mode {
        rec.borrow_mut().end_run(Instant::now());
    }
    let digest = fold_digests(reports.iter().map(digest));
    RepOut {
        setup_s,
        wall_s,
        phase_wall_s: phase_start.elapsed().as_secs_f64(),
        phase_cpu_s: cpu_secs() - cpu_start,
        digest,
        counts,
        reports,
    }
}

/// Repeats `one` for about `budget_s` seconds of wall time (to the
/// nearest whole repetition), at least `min_reps` times.
pub fn repeat(budget_s: f64, min_reps: usize, mut one: impl FnMut() -> RepOut) -> Vec<RepOut> {
    let start = Instant::now();
    let mut reps: Vec<RepOut> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let half_rep = 0.5 * elapsed / reps.len().max(1) as f64;
        if reps.len() >= min_reps && elapsed + half_rep >= budget_s {
            return reps;
        }
        reps.push(one());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Recorder;
    use iqpaths_apps::workload::FramedSource;
    use iqpaths_core::mapping::MappingMode;
    use iqpaths_core::scheduler::{Pgos, PgosConfig};
    use iqpaths_middleware::runtime::RuntimeConfig;
    use iqpaths_testkit::scenario::{conformance_streams, FaultScenario};
    use iqpaths_testkit::topology::TopologyGen;

    /// A 45 s cut of `diversity_loss` (or its uncoded twin): small
    /// enough for a debug-build test, still coded, lossy and faulted.
    fn tiny(mapping_mode: MappingMode) -> Vec<RunInput> {
        let specs = conformance_streams();
        let frames = specs
            .iter()
            .map(|s| (s.required_bw.max(s.weight) / 200.0) as u32)
            .collect();
        let paths = TopologyGen {
            seed: 3,
            horizon: 70.0,
            ..TopologyGen::default()
        }
        .build();
        let cfg = PgosConfig {
            mapping_mode,
            ..PgosConfig::default()
        };
        vec![RunInput {
            scheduler: Box::new(Pgos::new(cfg, specs.clone(), paths.len())),
            workload: Box::new(FramedSource::new(specs.clone(), frames, 25.0, 45.0)),
            paths,
            specs,
            cfg: RuntimeConfig {
                warmup_secs: 5.0,
                history_samples: 50,
                seed: 3,
                ..RuntimeConfig::default()
            },
            duration: 45.0,
            faults: FaultScenario::Uncorrelated.schedule(5.0, 50.0),
        }]
    }

    fn def(build: fn(u64, bool) -> Vec<RunInput>) -> WorkloadDef {
        WorkloadDef {
            name: "tiny",
            why: "",
            params: "",
            build,
            setup_drives: |_, _| Vec::new(),
            cross_check: None,
        }
    }

    #[test]
    fn observers_leave_the_run_report_untouched() {
        let def = def(|_, _| tiny(MappingMode::Diversity));
        let plain = run_rep(&def, 1, false, Mode::Plain);
        let mut delivered = Delivered::default();
        let verify = run_rep(&def, 1, false, Mode::Verify(&mut delivered));
        let recorder = Rc::new(RefCell::new(Recorder::new()));
        let idle = Rc::new(RefCell::new(0));
        let decorated = run_rep(
            &def,
            1,
            false,
            Mode::Decorated {
                rec: &recorder,
                idle: &idle,
            },
        );
        let mut totals = TraceTotals::default();
        let traced = run_rep(&def, 1, false, Mode::Traced(&mut totals));
        for observed in [&verify, &decorated, &traced] {
            assert!(observed.reports == plain.reports);
            assert_eq!(observed.digest, plain.digest);
            assert_eq!(observed.counts, plain.counts);
        }

        // The decorators saw every call the runtime made …
        let rec = recorder.borrow();
        let calls = |name| rec.aggregate(name).map_or(0, |a| a.count);
        assert_eq!(calls(crate::decorators::PLAN_CODING), 1);
        assert_eq!(calls(crate::decorators::ON_WINDOW_START), 46);
        assert!(calls(crate::decorators::NEXT_PACKET) >= plain.counts.delivered_packets);
        // … and the trace counted what the report counted.
        let coding = plain.reports[0].streams[0].coding.as_ref().expect("coded");
        assert_eq!(totals.counts.parity_sent, {
            let all = plain.reports[0]
                .streams
                .iter()
                .filter_map(|s| s.coding.as_ref());
            all.map(|c| c.parity_sent).sum::<u64>()
        });
        assert!(coding.recovered > 0 && totals.counts.recovered >= coding.recovered);
        assert!(totals.counts.transit_drops > 0);
        assert_eq!(
            totals.counts.rule1 + totals.counts.rule2 + totals.counts.rule3,
            plain.reports[0]
                .metrics
                .streams
                .iter()
                .map(|s| s.dispatched)
                .sum::<u64>()
        );
    }

    #[test]
    fn parity_is_not_application_data() {
        let run = |mode| {
            let def = def(match mode {
                MappingMode::Diversity => |_, _| tiny(MappingMode::Diversity),
                MappingMode::Pgos => |_, _| tiny(MappingMode::Pgos),
            });
            let mut delivered = Delivered::default();
            let rep = run_rep(&def, 1, false, Mode::Verify(&mut delivered));
            let report = &rep.reports[0];
            let bytes: u64 = report.streams.iter().map(|s| s.delivered_bytes).sum();
            // Streams 0 and 1 are the guaranteed ones.
            let guaranteed: u64 = report.streams[..2]
                .iter()
                .map(|s| s.delivered_packets)
                .sum();
            (delivered, bytes, guaranteed as usize)
        };
        let (uncoded, bytes, guaranteed) = run(MappingMode::Pgos);
        assert_eq!(
            (uncoded.app_bytes, uncoded.latency_samples),
            (bytes, guaranteed)
        );
        let (coded, bytes, guaranteed) = run(MappingMode::Diversity);
        assert!(coded.app_bytes < bytes && coded.latency_samples < guaranteed);
        assert!(coded.run_latency_p50_s[0] <= coded.run_latency_p99_s[0]);
    }
}
