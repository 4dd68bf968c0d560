//! # iqpaths-middleware — the IQ-Paths runtime
//!
//! Glues the substrates into the running system of Figures 2/3/6:
//! application workloads fill per-stream queues; a scheduler (PGOS or a
//! baseline) assigns packets to overlay-path transmit services; the
//! emulated network serves them at trace-driven residual rates; the
//! monitoring module probes available bandwidth and feeds statistics
//! back to the scheduler at every scheduling-window boundary.
//!
//! * [`runtime`] — the virtual-time experiment loop.
//! * [`report`] — per-stream and per-run result records.
//! * [`builder`] — a high-level API for standing up the Figure 8
//!   testbed with any workload/scheduler combination.
//! * [`knobs`] — the sparse, hashable override set a sweep cell applies
//!   to a builder experiment (the `RunConfig`-to-cell adapter used by
//!   `iqpaths-harness`).
//!
//! ## Paper artifact → code map
//!
//! | paper artifact | where it lives |
//! |---|---|
//! | Figure 2/3 middleware architecture | [`runtime`] event loop + [`builder`] |
//! | Figure 6 scheduling-window loop | [`runtime`] (probe → remap → schedule → serve) |
//! | Figure 8 two-path testbed | [`builder::Figure8Experiment`] |
//! | §5.2.2 admission upcalls | [`runtime::DeliveryEvent`] stream-rejected records |
//! | Diversity mapping (coded lanes) | [`runtime`] decode-complete delivery + [`report::CodingStats`] |
//! | per-stream delivered/missed accounting | [`report::StreamReport`] |
//! | sweep knob surface (docs/POLICIES.md) | [`knobs::ExperimentKnobs`] |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod knobs;
pub mod report;
pub mod runtime;

pub use builder::{Figure8Experiment, SchedulerKind};
pub use knobs::ExperimentKnobs;
pub use report::{RunReport, StreamReport};
pub use runtime::{run, run_faulted, DeliveryEvent, RuntimeConfig};
