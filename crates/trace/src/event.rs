//! The trace-event taxonomy of the monitor→map→schedule→deliver
//! pipeline.
//!
//! Events are small `Copy` records — stream/path indices and
//! nanosecond timestamps, never names or owned strings — so emitting
//! one allocates nothing. Names are resolved offline by joining against
//! the run's stream table.

use std::fmt::Write as _;

/// Which Table 1 precedence class a dispatched packet was served under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchClass {
    /// Rule 1 — the packet was scheduled on the serving path's own
    /// scheduling vector (`VP`/`VS`).
    Scheduled,
    /// Rule 2 — budget stolen from another path whose owning stream is
    /// behind its paced schedule.
    OtherPath,
    /// Rule 3 — a packet not scheduled anywhere this window
    /// (guaranteed-stream overflow or best-effort traffic).
    Unscheduled,
}

impl DispatchClass {
    /// Table 1 rank (smaller serves first).
    pub fn rank(self) -> u8 {
        match self {
            DispatchClass::Scheduled => 1,
            DispatchClass::OtherPath => 2,
            DispatchClass::Unscheduled => 3,
        }
    }

    /// Stable short name used in serialized traces.
    pub fn name(self) -> &'static str {
        match self {
            DispatchClass::Scheduled => "sched",
            DispatchClass::OtherPath => "other",
            DispatchClass::Unscheduled => "unsched",
        }
    }
}

/// One event of the scheduling pipeline. All times are nanoseconds of
/// virtual (emulation) time; bandwidths are bits/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An available-bandwidth probe report reached the monitoring
    /// module. `taken_at_ns < ready_at_ns` only under injected
    /// probe-reporting delay.
    ProbeSample {
        /// Path index.
        path: u32,
        /// Measurement timestamp.
        taken_at_ns: u64,
        /// When the monitoring module received the report.
        ready_at_ns: u64,
        /// Measured available bandwidth, bits/s.
        bw_bps: f64,
    },
    /// An injected fault dropped a probe report; the path's telemetry
    /// goes stale.
    ProbeLost {
        /// Path index.
        path: u32,
        /// When the lost probe would have fired.
        at_ns: u64,
    },
    /// A scheduling-window boundary.
    WindowStart {
        /// Window start time.
        at_ns: u64,
        /// Window length.
        window_ns: u64,
        /// Whether this boundary re-ran resource mapping.
        remapped: bool,
    },
    /// Digest of one path's monitoring CDF as handed to the scheduler
    /// at a window boundary (quantiles in bits/s; NaN when empty).
    CdfSnapshot {
        /// Path index.
        path: u32,
        /// Window start time this snapshot fed.
        at_ns: u64,
        /// Samples (or markers) backing the summary.
        samples: u32,
        /// Distribution mean.
        mean_bps: f64,
        /// 10th-percentile bandwidth (the guarantee floor at p = 0.9).
        q10_bps: f64,
        /// 90th-percentile bandwidth.
        q90_bps: f64,
    },
    /// Resource mapping placed `packets` packets/window of `stream`
    /// onto `path`. One event per non-zero assignment cell, emitted
    /// only when mapping re-runs.
    MappingDecision {
        /// Window start time of the remap.
        at_ns: u64,
        /// Stream index.
        stream: u32,
        /// Path index.
        path: u32,
        /// Packets per window assigned.
        packets: u32,
        /// The same assignment as a rate, bits/s.
        rate_bps: f64,
    },
    /// Admission control rejected a stream (§5.2.2 upcall).
    UpcallRaised {
        /// Window start time of the rejecting remap.
        at_ns: u64,
        /// Stream index.
        stream: u32,
        /// Requested rate, bits/s.
        requested_bps: f64,
        /// Total admissible rate at the requested guarantee, bits/s.
        admissible_bps: f64,
    },
    /// A packet entered its stream queue.
    Enqueue {
        /// Enqueue time.
        at_ns: u64,
        /// Stream index.
        stream: u32,
        /// Per-stream sequence number.
        seq: u64,
        /// Payload bytes.
        bytes: u32,
    },
    /// A full stream queue drop-tailed an arrival (no sequence number:
    /// the packet never existed).
    QueueDrop {
        /// Arrival time of the shed packet.
        at_ns: u64,
        /// Stream index.
        stream: u32,
    },
    /// The scheduler chose a packet for a free path — the VP/VS
    /// virtual-deadline assignment point. `candidate_deadline_ns` and
    /// `class_min_deadline_ns` expose the Table 1 comparison the
    /// precedence invariant checks; for `Scheduled` dispatches both
    /// equal the stamped deadline.
    DispatchDecision {
        /// Decision time.
        at_ns: u64,
        /// Serving path.
        path: u32,
        /// Chosen stream.
        stream: u32,
        /// Sequence number of the popped packet.
        seq: u64,
        /// Precedence class the packet was served under.
        class: DispatchClass,
        /// The winning candidate's virtual deadline at comparison time.
        candidate_deadline_ns: u64,
        /// Minimum deadline among same-class candidates (EDF witness).
        class_min_deadline_ns: u64,
        /// Whether any rule 2 (other-path) candidate was considered.
        other_scheduled_present: bool,
    },
    /// A packet began transmission on a path.
    Dispatch {
        /// Transmission start time.
        at_ns: u64,
        /// Serving path.
        path: u32,
        /// Stream index.
        stream: u32,
        /// Sequence number.
        seq: u64,
        /// Payload bytes.
        bytes: u32,
        /// Virtual deadline carried by the packet (`u64::MAX` =
        /// best-effort).
        deadline_ns: u64,
    },
    /// A packet finished transmission and reached the client.
    Deliver {
        /// Transmission completion time.
        at_ns: u64,
        /// Path traveled.
        path: u32,
        /// Stream index.
        stream: u32,
        /// Sequence number.
        seq: u64,
        /// Whether a deadline-bearing packet was served past its
        /// deadline.
        missed_deadline: bool,
    },
    /// A packet was lost in transit (link loss after dispatch).
    TransitDrop {
        /// Loss detection time.
        at_ns: u64,
        /// Path traveled.
        path: u32,
        /// Stream index.
        stream: u32,
        /// Sequence number.
        seq: u64,
    },
    /// Blocked-path detection fired: the path's residual fell below the
    /// blocked threshold while it was due to transmit.
    PathBlocked {
        /// Detection time.
        at_ns: u64,
        /// Path index.
        path: u32,
        /// Residual bandwidth observed, bits/s.
        residual_bps: f64,
    },
    /// The scheduler advanced a blocked path's exponential backoff.
    BackoffStep {
        /// When the block was reported.
        at_ns: u64,
        /// Path index.
        path: u32,
        /// New backoff step (5 ms doubling to the 1 s cap).
        step_ns: u64,
        /// Absolute time until which the path is skipped.
        until_ns: u64,
    },
    /// A window boundary found a path's backoff expired and reset it to
    /// the initial step.
    BackoffReset {
        /// Window start time.
        at_ns: u64,
        /// Path index.
        path: u32,
    },
    /// A budgeted probe planner planned one probe slot: `selected` of
    /// `allowance` permitted probes were issued across the path set.
    /// Emitted only when a non-default planner/budget is active, so the
    /// legacy probe-everything configuration traces byte-identically.
    ProbePlan {
        /// Slot planning time.
        at_ns: u64,
        /// Probe-slot counter (0-based, main loop only).
        slot: u64,
        /// Probes the budget permitted this slot.
        allowance: u32,
        /// Probes actually planned.
        selected: u32,
    },
    /// One planned probe: the planner chose `path` at `slot` with
    /// information score `score` (0 for schedule-driven planners).
    ProbeSelect {
        /// Slot planning time.
        at_ns: u64,
        /// Probe-slot counter.
        slot: u64,
        /// Selected path.
        path: u32,
        /// Post-discount information score at selection time.
        score: f64,
    },
    /// The Diversity mapper planned an (n, k) erasure-coding stripe for
    /// a stream (one event per coded stream, emitted once at planning
    /// time). Absent under the default PGOS mapping, so classic traces
    /// stay byte-identical.
    CodingPlan {
        /// Planning time (admission pre-warm).
        at_ns: u64,
        /// Stream index.
        stream: u32,
        /// Blocks per group (data + parity).
        n: u32,
        /// Data blocks per group.
        k: u32,
        /// Planner's correlation-discounted P(group decodes on time).
        decode_p: f64,
    },
    /// A parity block was synthesized and enqueued behind the group's
    /// `k`-th data block.
    CodingParity {
        /// Synthesis time.
        at_ns: u64,
        /// Stream index.
        stream: u32,
        /// Sequence number of the parity block.
        seq: u64,
        /// Group index (`seq / n`).
        group: u64,
    },
    /// A coded group reached `k` on-time blocks: every data packet of
    /// the group counts as delivered before its deadline, including
    /// `recovered` blocks that were lost or late themselves.
    CodingDecode {
        /// Decode-complete time (arrival of the `k`-th on-time block).
        at_ns: u64,
        /// Stream index.
        stream: u32,
        /// Group index.
        group: u64,
        /// Data blocks credited by reconstruction rather than direct
        /// on-time delivery.
        recovered: u32,
    },
}

impl TraceEvent {
    /// Stable event-type tag used in serialized traces.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ProbeSample { .. } => "probe",
            TraceEvent::ProbeLost { .. } => "probe_lost",
            TraceEvent::WindowStart { .. } => "window",
            TraceEvent::CdfSnapshot { .. } => "cdf",
            TraceEvent::MappingDecision { .. } => "map",
            TraceEvent::UpcallRaised { .. } => "upcall",
            TraceEvent::Enqueue { .. } => "enq",
            TraceEvent::QueueDrop { .. } => "qdrop",
            TraceEvent::DispatchDecision { .. } => "decide",
            TraceEvent::Dispatch { .. } => "tx",
            TraceEvent::Deliver { .. } => "rx",
            TraceEvent::TransitDrop { .. } => "loss",
            TraceEvent::PathBlocked { .. } => "blocked",
            TraceEvent::BackoffStep { .. } => "backoff",
            TraceEvent::BackoffReset { .. } => "backoff_reset",
            TraceEvent::ProbePlan { .. } => "probe_plan",
            TraceEvent::ProbeSelect { .. } => "probe_select",
            TraceEvent::CodingPlan { .. } => "coding_plan",
            TraceEvent::CodingParity { .. } => "coding_parity",
            TraceEvent::CodingDecode { .. } => "coding_decode",
        }
    }

    /// Timestamp of the event in nanoseconds of virtual time (the
    /// measurement timestamp for probe samples).
    pub fn at_ns(&self) -> u64 {
        match *self {
            TraceEvent::ProbeSample { taken_at_ns, .. } => taken_at_ns,
            TraceEvent::ProbeLost { at_ns, .. }
            | TraceEvent::WindowStart { at_ns, .. }
            | TraceEvent::CdfSnapshot { at_ns, .. }
            | TraceEvent::MappingDecision { at_ns, .. }
            | TraceEvent::UpcallRaised { at_ns, .. }
            | TraceEvent::Enqueue { at_ns, .. }
            | TraceEvent::QueueDrop { at_ns, .. }
            | TraceEvent::DispatchDecision { at_ns, .. }
            | TraceEvent::Dispatch { at_ns, .. }
            | TraceEvent::Deliver { at_ns, .. }
            | TraceEvent::TransitDrop { at_ns, .. }
            | TraceEvent::PathBlocked { at_ns, .. }
            | TraceEvent::BackoffStep { at_ns, .. }
            | TraceEvent::BackoffReset { at_ns, .. }
            | TraceEvent::ProbePlan { at_ns, .. }
            | TraceEvent::ProbeSelect { at_ns, .. }
            | TraceEvent::CodingPlan { at_ns, .. }
            | TraceEvent::CodingParity { at_ns, .. }
            | TraceEvent::CodingDecode { at_ns, .. } => at_ns,
        }
    }

    /// Whether this is a *decision-level* event — the compact subset
    /// the golden-trace regression suite pins (window boundaries, CDF
    /// digests, mapping, upcalls, blocking/backoff, shed arrivals), as
    /// opposed to the per-packet and per-probe data plane.
    pub fn is_decision(&self) -> bool {
        matches!(
            self,
            TraceEvent::WindowStart { .. }
                | TraceEvent::CdfSnapshot { .. }
                | TraceEvent::MappingDecision { .. }
                | TraceEvent::UpcallRaised { .. }
                | TraceEvent::QueueDrop { .. }
                | TraceEvent::PathBlocked { .. }
                | TraceEvent::BackoffStep { .. }
                | TraceEvent::BackoffReset { .. }
                | TraceEvent::ProbeLost { .. }
                | TraceEvent::ProbePlan { .. }
                | TraceEvent::ProbeSelect { .. }
                | TraceEvent::CodingPlan { .. }
        )
    }

    /// Appends the event as one compact, stable JSON line (no trailing
    /// newline). Field order is fixed; floats use Rust's shortest
    /// round-trip formatting, so identical runs serialize bit-identically.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = match *self {
            TraceEvent::ProbeSample {
                path,
                taken_at_ns,
                ready_at_ns,
                bw_bps,
            } => write!(
                out,
                r#"{{"ev":"probe","path":{path},"taken_ns":{taken_at_ns},"ready_ns":{ready_at_ns},"bw":{bw_bps:?}}}"#
            ),
            TraceEvent::ProbeLost { path, at_ns } => {
                write!(out, r#"{{"ev":"probe_lost","t":{at_ns},"path":{path}}}"#)
            }
            TraceEvent::WindowStart {
                at_ns,
                window_ns,
                remapped,
            } => write!(
                out,
                r#"{{"ev":"window","t":{at_ns},"len_ns":{window_ns},"remapped":{remapped}}}"#
            ),
            TraceEvent::CdfSnapshot {
                path,
                at_ns,
                samples,
                mean_bps,
                q10_bps,
                q90_bps,
            } => write!(
                out,
                r#"{{"ev":"cdf","t":{at_ns},"path":{path},"n":{samples},"mean":{mean_bps:?},"q10":{q10_bps:?},"q90":{q90_bps:?}}}"#
            ),
            TraceEvent::MappingDecision {
                at_ns,
                stream,
                path,
                packets,
                rate_bps,
            } => write!(
                out,
                r#"{{"ev":"map","t":{at_ns},"stream":{stream},"path":{path},"pkts":{packets},"rate":{rate_bps:?}}}"#
            ),
            TraceEvent::UpcallRaised {
                at_ns,
                stream,
                requested_bps,
                admissible_bps,
            } => write!(
                out,
                r#"{{"ev":"upcall","t":{at_ns},"stream":{stream},"req":{requested_bps:?},"adm":{admissible_bps:?}}}"#
            ),
            TraceEvent::Enqueue {
                at_ns,
                stream,
                seq,
                bytes,
            } => write!(
                out,
                r#"{{"ev":"enq","t":{at_ns},"stream":{stream},"seq":{seq},"bytes":{bytes}}}"#
            ),
            TraceEvent::QueueDrop { at_ns, stream } => {
                write!(out, r#"{{"ev":"qdrop","t":{at_ns},"stream":{stream}}}"#)
            }
            TraceEvent::DispatchDecision {
                at_ns,
                path,
                stream,
                seq,
                class,
                candidate_deadline_ns,
                class_min_deadline_ns,
                other_scheduled_present,
            } => write!(
                out,
                r#"{{"ev":"decide","t":{at_ns},"path":{path},"stream":{stream},"seq":{seq},"class":"{}","dl":{candidate_deadline_ns},"dl_min":{class_min_deadline_ns},"other":{other_scheduled_present}}}"#,
                class.name()
            ),
            TraceEvent::Dispatch {
                at_ns,
                path,
                stream,
                seq,
                bytes,
                deadline_ns,
            } => write!(
                out,
                r#"{{"ev":"tx","t":{at_ns},"path":{path},"stream":{stream},"seq":{seq},"bytes":{bytes},"dl":{deadline_ns}}}"#
            ),
            TraceEvent::Deliver {
                at_ns,
                path,
                stream,
                seq,
                missed_deadline,
            } => write!(
                out,
                r#"{{"ev":"rx","t":{at_ns},"path":{path},"stream":{stream},"seq":{seq},"missed":{missed_deadline}}}"#
            ),
            TraceEvent::TransitDrop {
                at_ns,
                path,
                stream,
                seq,
            } => write!(
                out,
                r#"{{"ev":"loss","t":{at_ns},"path":{path},"stream":{stream},"seq":{seq}}}"#
            ),
            TraceEvent::PathBlocked {
                at_ns,
                path,
                residual_bps,
            } => write!(
                out,
                r#"{{"ev":"blocked","t":{at_ns},"path":{path},"residual":{residual_bps:?}}}"#
            ),
            TraceEvent::BackoffStep {
                at_ns,
                path,
                step_ns,
                until_ns,
            } => write!(
                out,
                r#"{{"ev":"backoff","t":{at_ns},"path":{path},"step_ns":{step_ns},"until_ns":{until_ns}}}"#
            ),
            TraceEvent::BackoffReset { at_ns, path } => {
                write!(out, r#"{{"ev":"backoff_reset","t":{at_ns},"path":{path}}}"#)
            }
            TraceEvent::ProbePlan {
                at_ns,
                slot,
                allowance,
                selected,
            } => write!(
                out,
                r#"{{"ev":"probe_plan","t":{at_ns},"slot":{slot},"allow":{allowance},"sel":{selected}}}"#
            ),
            TraceEvent::ProbeSelect {
                at_ns,
                slot,
                path,
                score,
            } => write!(
                out,
                r#"{{"ev":"probe_select","t":{at_ns},"slot":{slot},"path":{path},"score":{score:?}}}"#
            ),
            TraceEvent::CodingPlan {
                at_ns,
                stream,
                n,
                k,
                decode_p,
            } => write!(
                out,
                r#"{{"ev":"coding_plan","t":{at_ns},"stream":{stream},"n":{n},"k":{k},"decode_p":{decode_p:?}}}"#
            ),
            TraceEvent::CodingParity {
                at_ns,
                stream,
                seq,
                group,
            } => write!(
                out,
                r#"{{"ev":"coding_parity","t":{at_ns},"stream":{stream},"seq":{seq},"group":{group}}}"#
            ),
            TraceEvent::CodingDecode {
                at_ns,
                stream,
                group,
                recovered,
            } => write!(
                out,
                r#"{{"ev":"coding_decode","t":{at_ns},"stream":{stream},"group":{group},"recovered":{recovered}}}"#
            ),
        };
    }

    /// The event as one owned JSON line (convenience over
    /// [`TraceEvent::write_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_jsonl(&mut s);
        s
    }

    /// The stream index the event is about, when it carries one —
    /// exactly the events [`TraceEvent::map_stream`] rewrites.
    pub fn stream(&self) -> Option<u32> {
        match self {
            TraceEvent::MappingDecision { stream, .. }
            | TraceEvent::UpcallRaised { stream, .. }
            | TraceEvent::Enqueue { stream, .. }
            | TraceEvent::QueueDrop { stream, .. }
            | TraceEvent::DispatchDecision { stream, .. }
            | TraceEvent::Dispatch { stream, .. }
            | TraceEvent::Deliver { stream, .. }
            | TraceEvent::TransitDrop { stream, .. }
            | TraceEvent::CodingPlan { stream, .. }
            | TraceEvent::CodingParity { stream, .. }
            | TraceEvent::CodingDecode { stream, .. } => Some(*stream),
            _ => None,
        }
    }

    /// Returns the event with its stream index rewritten through `f`
    /// (identity on events that carry no stream). The many-tenant
    /// testkit traces each tenant against its local stream indices and
    /// remaps to global indices when it concatenates the traces.
    #[must_use]
    pub fn map_stream(self, f: impl Fn(u32) -> u32) -> Self {
        let mut ev = self;
        match &mut ev {
            TraceEvent::MappingDecision { stream, .. }
            | TraceEvent::UpcallRaised { stream, .. }
            | TraceEvent::Enqueue { stream, .. }
            | TraceEvent::QueueDrop { stream, .. }
            | TraceEvent::DispatchDecision { stream, .. }
            | TraceEvent::Dispatch { stream, .. }
            | TraceEvent::Deliver { stream, .. }
            | TraceEvent::TransitDrop { stream, .. }
            | TraceEvent::CodingPlan { stream, .. }
            | TraceEvent::CodingParity { stream, .. }
            | TraceEvent::CodingDecode { stream, .. } => *stream = f(*stream),
            TraceEvent::ProbeSample { .. }
            | TraceEvent::ProbeLost { .. }
            | TraceEvent::WindowStart { .. }
            | TraceEvent::CdfSnapshot { .. }
            | TraceEvent::PathBlocked { .. }
            | TraceEvent::BackoffStep { .. }
            | TraceEvent::BackoffReset { .. }
            | TraceEvent::ProbePlan { .. }
            | TraceEvent::ProbeSelect { .. } => {}
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_timestamps_are_consistent() {
        let evs = [
            TraceEvent::ProbeSample {
                path: 1,
                taken_at_ns: 5,
                ready_at_ns: 9,
                bw_bps: 1.5e6,
            },
            TraceEvent::WindowStart {
                at_ns: 7,
                window_ns: 10,
                remapped: true,
            },
            TraceEvent::Deliver {
                at_ns: 11,
                path: 0,
                stream: 2,
                seq: 3,
                missed_deadline: false,
            },
        ];
        assert_eq!(evs[0].kind(), "probe");
        assert_eq!(evs[0].at_ns(), 5);
        assert_eq!(evs[1].at_ns(), 7);
        assert_eq!(evs[2].at_ns(), 11);
    }

    #[test]
    fn decision_filter_keeps_control_plane_only() {
        let win = TraceEvent::WindowStart {
            at_ns: 0,
            window_ns: 1,
            remapped: false,
        };
        let rx = TraceEvent::Deliver {
            at_ns: 0,
            path: 0,
            stream: 0,
            seq: 0,
            missed_deadline: false,
        };
        let probe = TraceEvent::ProbeSample {
            path: 0,
            taken_at_ns: 0,
            ready_at_ns: 0,
            bw_bps: 0.0,
        };
        assert!(win.is_decision());
        assert!(!rx.is_decision());
        assert!(!probe.is_decision());
    }

    #[test]
    fn jsonl_is_stable_and_compact() {
        let ev = TraceEvent::MappingDecision {
            at_ns: 1_000_000_000,
            stream: 0,
            path: 1,
            packets: 800,
            rate_bps: 8.0e6,
        };
        assert_eq!(
            ev.to_jsonl(),
            r#"{"ev":"map","t":1000000000,"stream":0,"path":1,"pkts":800,"rate":8000000.0}"#
        );
        // Serialization is a pure function of the value.
        assert_eq!(ev.to_jsonl(), ev.to_jsonl());
    }

    #[test]
    fn map_stream_rewrites_stream_bearing_events_only() {
        let rx = TraceEvent::Deliver {
            at_ns: 9,
            path: 1,
            stream: 2,
            seq: 5,
            missed_deadline: false,
        };
        match rx.map_stream(|s| s + 10) {
            TraceEvent::Deliver { stream, seq, .. } => {
                assert_eq!(stream, 12);
                assert_eq!(seq, 5);
            }
            other => panic!("variant changed: {other:?}"),
        }
        let win = TraceEvent::WindowStart {
            at_ns: 3,
            window_ns: 4,
            remapped: false,
        };
        assert_eq!(win.map_stream(|_| 99), win);
    }

    #[test]
    fn planner_events_are_decisions_with_stable_jsonl() {
        let plan = TraceEvent::ProbePlan {
            at_ns: 2_000_000_000,
            slot: 17,
            allowance: 2,
            selected: 2,
        };
        let sel = TraceEvent::ProbeSelect {
            at_ns: 2_000_000_000,
            slot: 17,
            path: 3,
            score: 0.03125,
        };
        assert!(plan.is_decision());
        assert!(sel.is_decision());
        assert_eq!(plan.at_ns(), 2_000_000_000);
        assert_eq!(
            plan.to_jsonl(),
            r#"{"ev":"probe_plan","t":2000000000,"slot":17,"allow":2,"sel":2}"#
        );
        assert_eq!(
            sel.to_jsonl(),
            r#"{"ev":"probe_select","t":2000000000,"slot":17,"path":3,"score":0.03125}"#
        );
        // Planner events carry no stream and are merge-stable.
        assert_eq!(sel.stream(), None);
        assert_eq!(sel.map_stream(|_| 99), sel);
    }

    #[test]
    fn class_ranks_follow_table1() {
        assert!(DispatchClass::Scheduled.rank() < DispatchClass::OtherPath.rank());
        assert!(DispatchClass::OtherPath.rank() < DispatchClass::Unscheduled.rank());
        assert_eq!(DispatchClass::OtherPath.name(), "other");
    }
}
