//! High-level experiment builder for the Figure 8 testbed.
//!
//! Wraps topology construction, cross-traffic generation, workload
//! wiring and scheduler instantiation so examples and the benchmark
//! harness can express a full paper experiment in a few lines.

use crate::report::RunReport;
use crate::runtime::{self, DeliveryEvent, RuntimeConfig};
use iqpaths_apps::gridftp::{GridFtp, GridFtpConfig};
use iqpaths_apps::mpeg4::{Mpeg4Config, Mpeg4Video, QualityTracker};
use iqpaths_apps::smartpointer::{SmartPointer, SmartPointerConfig};
use iqpaths_apps::workload::Workload;
use iqpaths_baselines::{BlockedLayout, Dwcs, Msfq, OptSched, PartitionedLayout, Wfq};
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_core::stream::StreamSpec;
use iqpaths_core::traits::MultipathScheduler;
use iqpaths_overlay::path::OverlayPath;
use iqpaths_simnet::topology::{emulab_testbed, PATH_A_ROUTE, PATH_B_ROUTE};
use iqpaths_traces::nlanr::figure8_cross_traffic;

/// Which scheduler an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The paper's contribution.
    Pgos,
    /// Single-path (path A) weighted fair queuing.
    Wfq,
    /// Single-path (path A) Dynamic Window-Constrained Scheduling —
    /// the algorithm PGOS is "inspired by" (the paper's ref. 31).
    Dwcs,
    /// Multi-server fair queuing across both paths.
    Msfq,
    /// Offline near-optimal oracle.
    OptSched,
    /// Standard GridFTP blocked layout.
    GridFtpBlocked,
    /// Standard GridFTP partitioned layout.
    GridFtpPartitioned,
}

impl SchedulerKind {
    /// All four SmartPointer-experiment schedulers (Figure 9 a–d order).
    pub const FIGURE9: [SchedulerKind; 4] = [
        SchedulerKind::Wfq,
        SchedulerKind::Msfq,
        SchedulerKind::Pgos,
        SchedulerKind::OptSched,
    ];

    /// Instantiates the scheduler for a stream table over `paths` paths.
    pub fn build(
        self,
        specs: Vec<StreamSpec>,
        paths: usize,
        pgos_cfg: PgosConfig,
    ) -> Box<dyn MultipathScheduler> {
        match self {
            SchedulerKind::Pgos => Box::new(Pgos::new(pgos_cfg, specs, paths)),
            SchedulerKind::Wfq => Box::new(Wfq::new(specs, 0)),
            SchedulerKind::Dwcs => Box::new(Dwcs::new(specs, 0, pgos_cfg.window_secs)),
            SchedulerKind::Msfq => Box::new(Msfq::new(specs)),
            SchedulerKind::OptSched => Box::new(OptSched::new(specs, paths)),
            SchedulerKind::GridFtpBlocked => Box::new(BlockedLayout::new(specs)),
            SchedulerKind::GridFtpPartitioned => Box::new(PartitionedLayout::new(specs, paths)),
        }
    }
}

/// A Figure 8 testbed experiment.
#[derive(Debug, Clone)]
pub struct Figure8Experiment {
    /// Cross-traffic / probe seed.
    pub seed: u64,
    /// Measured duration in seconds.
    pub duration: f64,
    /// Runtime configuration.
    pub runtime: RuntimeConfig,
    /// PGOS configuration (used when the scheduler is PGOS/OptSched).
    pub pgos: PgosConfig,
}

impl Figure8Experiment {
    /// An experiment with default paper-faithful settings.
    pub fn new(seed: u64, duration: f64) -> Self {
        Self {
            seed,
            duration,
            runtime: RuntimeConfig {
                seed,
                ..Default::default()
            },
            pgos: PgosConfig::default(),
        }
    }

    /// Builds the two overlay paths with freshly generated NLANR-like
    /// cross traffic covering the whole run.
    pub fn paths(&self) -> Vec<OverlayPath> {
        let horizon = self.runtime.warmup_secs + self.duration + 10.0;
        let (cross_a, cross_b) = figure8_cross_traffic(0.1, horizon, self.seed);
        let topo = emulab_testbed(cross_a, cross_b);
        vec![
            OverlayPath::new(0, "Path A", topo.route(&PATH_A_ROUTE)),
            OverlayPath::new(1, "Path B", topo.route(&PATH_B_ROUTE)),
        ]
    }

    /// Runs an arbitrary workload/scheduler pair on the testbed.
    pub fn run(&self, workload: Box<dyn Workload>, kind: SchedulerKind) -> RunReport {
        let paths = self.paths();
        self.dispatch(&paths, workload, kind, &mut |_| {})
    }

    /// Builds the scheduler for `kind` and runs the event loop — every
    /// builder experiment funnels through here.
    fn dispatch(
        &self,
        paths: &[OverlayPath],
        workload: Box<dyn Workload>,
        kind: SchedulerKind,
        sink: &mut dyn FnMut(&DeliveryEvent),
    ) -> RunReport {
        let specs = workload.specs().to_vec();
        let scheduler = kind.build(specs, paths.len(), self.pgos);
        runtime::run_with_sink(
            paths,
            workload,
            scheduler,
            self.runtime,
            self.duration,
            sink,
        )
    }

    /// Runs the SmartPointer experiment (Figures 9–11).
    pub fn run_smartpointer(
        &self,
        app_cfg: SmartPointerConfig,
        kind: SchedulerKind,
    ) -> SmartPointerOutcome {
        let app_cfg = SmartPointerConfig {
            duration: self.duration,
            ..app_cfg
        };
        let app = SmartPointer::new(app_cfg);
        let mut tracker = app.frame_tracker();
        let paths = self.paths();
        let report = self.dispatch(&paths, Box::new(app), kind, &mut |d| {
            tracker.on_delivery(d.stream, d.seq, d.delivered);
        });
        let jitter = [
            tracker.jitter(iqpaths_apps::smartpointer::ATOM),
            tracker.jitter(iqpaths_apps::smartpointer::BOND1),
        ];
        let fps = iqpaths_apps::smartpointer::FPS;
        SmartPointerOutcome {
            frame_jitter: jitter,
            frames_completed: [
                tracker.frames_completed(iqpaths_apps::smartpointer::ATOM),
                tracker.frames_completed(iqpaths_apps::smartpointer::BOND1),
            ],
            startup_delay: [
                tracker.startup_delay(iqpaths_apps::smartpointer::ATOM, fps),
                tracker.startup_delay(iqpaths_apps::smartpointer::BOND1, fps),
            ],
            report,
        }
    }

    /// Runs the GridFTP experiment (Figures 12–13).
    pub fn run_gridftp(&self, app_cfg: GridFtpConfig, kind: SchedulerKind) -> GridFtpOutcome {
        let app_cfg = GridFtpConfig {
            duration: self.duration,
            ..app_cfg
        };
        let app = GridFtp::new(app_cfg);
        let mut tracker = app.record_tracker();
        let paths = self.paths();
        let report = self.dispatch(&paths, Box::new(app), kind, &mut |d| {
            tracker.on_delivery(d.stream, d.seq, d.delivered);
        });
        let records_per_sec = [
            tracker.frames_completed(0) as f64 / self.duration,
            tracker.frames_completed(1) as f64 / self.duration,
            tracker.frames_completed(2) as f64 / self.duration,
        ];
        GridFtpOutcome {
            report,
            records_per_sec,
        }
    }

    /// Runs the MPEG-4 FGS layered-video extension experiment.
    pub fn run_mpeg4(&self, app_cfg: Mpeg4Config, kind: SchedulerKind) -> Mpeg4Outcome {
        let app_cfg = Mpeg4Config {
            duration: self.duration,
            ..app_cfg
        };
        // One generator instance feeds the runtime; an identical twin
        // (same seed) replays the arrival schedule into the quality
        // tracker.
        let app = Mpeg4Video::new(app_cfg.clone());
        let mut twin = Mpeg4Video::new(app_cfg.clone());
        let layers = app.layers();
        let mut quality = QualityTracker::new(layers, app_cfg.fps, 0.5);
        while let Some(a) = twin.next_arrival() {
            quality.on_arrival(a.stream, a.at, a.bytes);
        }
        // Track created-time per (stream, seq) to resolve frames at
        // delivery time: seq order equals arrival order per stream.
        let mut created: Vec<Vec<f64>> = vec![Vec::new(); layers];
        let mut replay = Mpeg4Video::new(app_cfg.clone());
        while let Some(a) = replay.next_arrival() {
            created[a.stream].push(a.at);
        }
        let paths = self.paths();
        let report = self.dispatch(&paths, Box::new(app), kind, &mut |d| {
            if let Some(&c) = created[d.stream].get(d.seq as usize) {
                quality.on_delivery(d.stream, c, d.delivered, d.bytes);
            }
        });
        let n_frames = (app_cfg.fps * self.duration) as u64;
        Mpeg4Outcome {
            report,
            mean_quality: quality.mean_quality(n_frames),
            playable_fraction: quality.playable_fraction(n_frames),
        }
    }
}

/// SmartPointer run outcome.
#[derive(Debug, Clone)]
pub struct SmartPointerOutcome {
    /// The standard run report.
    pub report: RunReport,
    /// Frame jitter in seconds for [Atom, Bond1].
    pub frame_jitter: [f64; 2],
    /// Completed frames for [Atom, Bond1].
    pub frames_completed: [usize; 2],
    /// Minimum gap-free playback startup delay in seconds for
    /// [Atom, Bond1] (the client buffer-size requirement metric).
    pub startup_delay: [f64; 2],
}

/// GridFTP run outcome.
#[derive(Debug, Clone)]
pub struct GridFtpOutcome {
    /// The standard run report.
    pub report: RunReport,
    /// Completed records per second for [DT1, DT2, DT3].
    pub records_per_sec: [f64; 3],
}

/// MPEG-4 run outcome.
#[derive(Debug, Clone)]
pub struct Mpeg4Outcome {
    /// The standard run report.
    pub report: RunReport,
    /// Mean delivered layer count per frame.
    pub mean_quality: f64,
    /// Fraction of frames whose base layer arrived on time.
    pub playable_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Figure8Experiment {
        let mut e = Figure8Experiment::new(3, 8.0);
        e.runtime.warmup_secs = 5.0;
        e.runtime.history_samples = 50;
        e
    }

    #[test]
    fn paths_are_the_testbed_routes() {
        let e = quick();
        let paths = e.paths();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].name(), "Path A");
        assert_eq!(paths[0].links().len(), 3);
        // Cross traffic rides the bottleneck links.
        assert!(paths[0].links()[1].cross_traffic().is_some());
        assert!(paths[1].links()[1].cross_traffic().is_some());
        assert!(paths[0].links()[0].cross_traffic().is_none());
    }

    #[test]
    fn smartpointer_runs_under_all_schedulers() {
        let e = quick();
        let app = SmartPointerConfig::default();
        for kind in SchedulerKind::FIGURE9 {
            let out = e.run_smartpointer(app, kind);
            assert_eq!(out.report.streams.len(), 3);
            assert!(
                out.report.streams[0].delivered_packets > 0,
                "{kind:?} delivered nothing"
            );
        }
    }

    #[test]
    fn gridftp_runs_and_counts_records() {
        let e = quick();
        let out = e.run_gridftp(GridFtpConfig::default(), SchedulerKind::Pgos);
        assert!(out.records_per_sec[0] > 0.0);
        assert_eq!(out.report.streams.len(), 3);
    }

    #[test]
    fn mpeg4_quality_is_sane() {
        let e = quick();
        let out = e.run_mpeg4(Mpeg4Config::default(), SchedulerKind::Pgos);
        assert!(out.playable_fraction > 0.5, "{}", out.playable_fraction);
        assert!(out.mean_quality >= 1.0, "{}", out.mean_quality);
    }

    #[test]
    fn wfq_uses_only_path_a() {
        let e = quick();
        let out = e.run_smartpointer(SmartPointerConfig::default(), SchedulerKind::Wfq);
        assert!(out.report.path_sent_bytes[0] > 0);
        assert_eq!(
            out.report.path_sent_bytes[1], 0,
            "WFQ must not touch path B"
        );
    }
}
