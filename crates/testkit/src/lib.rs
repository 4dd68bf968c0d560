//! # iqpaths-testkit — statistical guarantee-conformance harness
//!
//! The paper's claims are probabilistic: Lemma 1 promises each
//! guaranteed stream its bandwidth in at least a fraction `p` of
//! scheduling windows, Lemma 2 bounds the *expected* deadline
//! violations per window. Testing such claims with point assertions is
//! either vacuous or flaky. This crate provides the pieces that make
//! them testable deterministically and with explicit tolerances:
//!
//! * [`stats`] — Hoeffding/Wilson confidence machinery and the two
//!   assertion shapes ([`stats::BernoulliCheck`],
//!   [`stats::BoundedMeanCheck`]) whose false-failure probability is
//!   capped by the configured confidence.
//! * [`topology`] — seeded random multi-path overlay generation
//!   ([`topology::TopologyGen`]), so conformance holds on families of
//!   networks rather than one hand-picked testbed.
//! * [`scenario`] — the canonical fault scenarios
//!   ([`scenario::FaultScenario`]: no-fault, flap, blackout, churn)
//!   built on `iqpaths_simnet::fault`, and the end-to-end runner
//!   ([`scenario::run_conformance`]) behind the `conformance`
//!   integration suite and the `fault_sweep` bench binary.
//! * [`invariants`] — streaming checkers over scheduling-decision
//!   traces ([`scenario::run_conformance_traced`]): packet
//!   conservation, virtual-deadline monotonicity, Table 1 precedence,
//!   exponential-backoff shape, and mapping freshness. These are exact
//!   (non-statistical) properties that must hold on every run.
//!
//! ## Paper artifact → code map
//!
//! | paper artifact | where it lives |
//! |---|---|
//! | Lemma 1 conformance (service probability) | [`scenario::lemma_outcomes`] "prob" stream |
//! | Lemma 2 conformance (violation bound) | [`scenario::lemma_outcomes`] "vbound" stream |
//! | §6 fault scenarios (+ silent-loss extensions) | [`scenario::FaultScenario`] |
//! | Table 1 precedence as a trace invariant | [`invariants::PrecedenceChecker`] |
//! | blocked-path exponential backoff | [`invariants::BackoffChecker`] |
//! | many-tenant scalability (DESIGN.md §13) | [`manytenant`] |
//! | statistical assertion machinery | [`stats`] |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod golden;
pub mod invariants;
pub mod manytenant;
pub mod scenario;
pub mod stats;
pub mod topology;

pub use golden::{check_golden_trace, decisions_jsonl};
pub use invariants::{
    assert_invariants, check_all, BackoffChecker, ConservationChecker, DeadlineChecker,
    InvariantChecker, MappingFreshnessChecker, PrecedenceChecker, Violation,
};
pub use manytenant::{
    compile as compile_scalability, run_scalability, run_scalability_traced, ScalabilityConfig,
    ScalabilityReport, TenantOutcome, STREAMS_PER_TENANT,
};
pub use scenario::{
    conformance_streams, eligible_windows, lemma_outcomes, mode_by_name, mode_name,
    run_conformance, run_conformance_traced, sweep_modes, ConformanceConfig, ConformanceReport,
    FaultScenario, LemmaOutcome,
};
pub use stats::{hoeffding_epsilon, probit, wilson_interval, BernoulliCheck, BoundedMeanCheck};
pub use topology::{GeneratedGraph, GraphGen, GraphModel, TopologyGen};
