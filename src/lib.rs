//! # IQ-Paths — facade crate
//!
//! Reproduction of *"IQ-Paths: Predictably High Performance Data Streams
//! across Dynamic Network Overlays"* (Cai, Kumar, Schwan — HPDC 2006).
//!
//! This crate re-exports the whole workspace; see `DESIGN.md` for the
//! crate inventory and `EXPERIMENTS.md` for the reproduced evaluation.

pub use iqpaths_apps as apps;
pub use iqpaths_baselines as baselines;
pub use iqpaths_core as pgos;
pub use iqpaths_harness as harness;
pub use iqpaths_middleware as middleware;
pub use iqpaths_overlay as overlay;
pub use iqpaths_simnet as simnet;
pub use iqpaths_stats as stats;
pub use iqpaths_traces as traces;

/// Section-by-section map from the paper to this implementation.
///
/// | Paper | Here |
/// |---|---|
/// | §1 overlay of servers/routers/clients (Fig 1) | [`overlay::graph`], [`simnet::topology`] |
/// | §3 middleware architecture (Fig 2) | [`middleware`] (runtime). The ECho messaging and IQ-RUDP transport layers are not reproduced: IQ-Paths sits below the messaging model, and the runtime carries each stream as a queue of sized packets (DESIGN.md §2) |
/// | §3 overlay node structure (Fig 3) | [`overlay::node::MonitoringModule`] ⇄ [`pgos::scheduler::Pgos`] |
/// | §4 statistical bandwidth prediction (Fig 4) | [`stats::percentile`], [`stats::predictors`]; sweep `fig04_prediction` ([`harness::sweeps`]) |
/// | §5.1 streams, window constraints, `F_j(b)` | [`pgos::stream`], [`stats::cdf`] |
/// | §5.2.1 Lemma 1 / Lemma 2 | [`pgos::guarantee`] |
/// | §5.2.2 resource mapping, upcalls | [`pgos::mapping`] |
/// | §5.2.2 scheduling vectors `VP`/`VS` (worked example) | [`pgos::vectors`] |
/// | Table 1 precedence | [`pgos::precedence`] |
/// | §5.2.2 blocked paths, timeouts + backoff | [`pgos::scheduler`] (`on_path_blocked`) |
/// | §6 Emulab testbed (Fig 8) | [`simnet::topology::emulab_testbed`], [`traces::nlanr`] |
/// | §6.1 SmartPointer (Figs 9–11) | [`apps::smartpointer`]; harnesses `fig09/10/11` |
/// | §6.1 baselines WFQ/MSFQ/OptSched | [`baselines`] |
/// | §6.2 GridFTP layouts (Figs 12–13) | [`apps::gridftp`], [`baselines::layouts`]; harnesses `fig12/13` |
/// | tech-report MPEG-4 FGS | [`apps::mpeg4`]; harness `ext_mpeg4_video` |
/// | tech-report buffer-size analysis | `FrameTracker::startup_delay`; ablation `abl-buffer` |
/// | §7 loss-rate objectives | `StreamSpec::with_loss_bound`, goodput-scaled CDFs in [`middleware::runtime`] |
/// | §7 overlay multicast | not reproduced: the paper leaves it to future work |
/// | DWCS heritage (the paper's ref. 31) | [`baselines::dwcs`] |
pub mod paper_map {}

/// Commonly used types for quick starts.
pub mod prelude {
    pub use iqpaths_apps::workload::{FramedSource, Workload};
    pub use iqpaths_core::scheduler::{Pgos, PgosConfig};
    pub use iqpaths_core::stream::{Guarantee, StreamSpec};
    pub use iqpaths_core::traits::MultipathScheduler;
    pub use iqpaths_middleware::builder::{Figure8Experiment, SchedulerKind};
    pub use iqpaths_middleware::runtime::{run, RuntimeConfig};
    pub use iqpaths_overlay::path::OverlayPath;
    pub use iqpaths_stats::{BandwidthCdf, EmpiricalCdf, PercentilePredictor};
}
