//! The two measurement passes of one workload, each in a process of
//! its own (so `peak_rss_mb` is per workload and per pass):
//!
//! * [`end_to_end`] (`--trace 0`): a discarded warm-up repetition, then
//!   untraced, undecorated repetitions for `--seconds` → the host-time
//!   metrics; peak RSS is read; then one untimed verify repetition with
//!   a recording delivery sink → the simulated metrics and the digest.
//! * [`per_layer`] (`--trace 1`): untraced repetitions again (the base
//!   every share is taken of), the verify repetition, decorated
//!   repetitions (spans), traced repetitions (exact counts, sink
//!   overhead), then the replay drives.
//!
//! Both passes gate correctness: every repetition of a workload must
//! produce the same digest, packet conservation must hold, and a
//! decorated or traced repetition's `RunReport`s must equal the verify
//! repetition's (`PartialEq`: the observers are transparent).

use crate::catalog::{E2E, LAYERS};
use crate::decorators::{NEXT_ARRIVAL, NEXT_PACKET, ON_WINDOW_START, PLAN_CODING};
use crate::host;
use crate::rep::{repeat, run_rep, Mode, RepOut, TraceTotals};
use crate::replay;
use crate::sim::{sim_metrics, Delivered};
use crate::spans::{Recorder, RUN_SPAN};
use crate::stats::{median, summarize, Summary};
use crate::workloads::WorkloadDef;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;

/// What a pass was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct PassArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// The outcome of a pass.
pub struct PassOut {
    pub readings: Vec<Reading>,
    /// Non-metric facts worth a line: digest, repetition counts, the
    /// failed/attempted counters behind `delivered_share`, noise flags.
    pub info: Vec<(&'static str, String)>,
    /// Repetitions run and checked / repetitions that failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Correctness bookkeeping shared by both passes.
struct Gate {
    reference_digest: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    noisy_reps: u64,
}

impl Gate {
    fn new(reference_digest: u64) -> Self {
        Self {
            reference_digest,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            noisy_reps: 0,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Every repetition must reproduce the warm-up's digest.
    fn check(&mut self, what: &str, rep: &RepOut) {
        self.attempted += 1;
        if rep.digest != self.reference_digest {
            self.fail(format!(
                "{what}: digest {:016x} differs from the warm-up's {:016x}",
                rep.digest, self.reference_digest
            ));
        }
        // A repetition that waited for the CPU was disturbed.
        if rep.phase_cpu_s > 0.0 && rep.phase_wall_s / rep.phase_cpu_s > 1.1 {
            self.noisy_reps += 1;
        }
    }

    /// An observed repetition must leave the program's output untouched.
    fn check_transparent(&mut self, what: &str, rep: &RepOut, verify: &RepOut) {
        self.check(what, rep);
        if rep.reports != verify.reports {
            self.fail(format!(
                "{what}: RunReport differs from the unobserved verify repetition's"
            ));
        }
    }
}

/// `--quick` runs every phase exactly once, whatever `--seconds` says.
fn phase(args: PassArgs, share: f64, min_reps: usize, one: impl FnMut() -> RepOut) -> Vec<RepOut> {
    if args.quick {
        repeat(0.0, 1, one)
    } else {
        repeat(share * args.seconds, min_reps, one)
    }
}

/// An unobserved repetition; its reports are dropped (the digest is
/// what gets compared).
fn plain_rep(def: &WorkloadDef, args: PassArgs) -> RepOut {
    let mut rep = run_rep(def, args.seed, args.quick, Mode::Plain);
    rep.reports = Vec::new();
    rep
}

fn each(reps: &[RepOut], f: impl Fn(&RepOut) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

fn noise_info(
    info: &mut Vec<(&'static str, String)>,
    gate: &Gate,
    calib_before: f64,
    calib_after: f64,
) {
    let drift = (calib_after - calib_before).abs() / calib_before;
    info.push(("calib_ns_before", calib_before.to_string()));
    info.push(("calib_ns_after", calib_after.to_string()));
    info.push(("reps_wall_over_cpu_above_1.1", gate.noisy_reps.to_string()));
    info.push(("noisy", (drift > 0.10 || gate.noisy_reps > 0).to_string()));
}

/// Runs the verify repetition and applies the report-level gates.
fn verify_rep(def: &WorkloadDef, args: PassArgs, gate: &mut Gate) -> (RepOut, Delivered) {
    let mut delivered = Delivered::default();
    let verify = run_rep(def, args.seed, args.quick, Mode::Verify(&mut delivered));
    gate.check("verify repetition", &verify);
    if !verify.reports.iter().all(|r| r.metrics.conserved()) {
        gate.fail("verify repetition: packet conservation violated".to_string());
    }
    (verify, delivered)
}

pub fn end_to_end(def: &WorkloadDef, args: PassArgs) -> PassOut {
    let calib_before = host::calib_ns();
    let warm = plain_rep(def, args);
    // Read after one repetition in a fresh process: what one simulation
    // of this workload needs. Read later it would also count what the
    // allocator retains across a number of repetitions that depends on
    // how fast this machine is.
    let peak_rss_mb = host::peak_rss_mb();
    let mut gate = Gate::new(warm.digest);

    let reps = phase(args, 1.0, 3, || plain_rep(def, args));
    for (i, rep) in reps.iter().enumerate() {
        gate.check(&format!("repetition {}", i + 1), rep);
    }

    let (verify, delivered) = verify_rep(def, args, &mut gate);
    if let Some(cross_check) = def.cross_check {
        if let Err(problem) = cross_check(args.seed, args.quick, &verify.counts) {
            gate.fail(problem);
        }
    }
    let sim = sim_metrics(&verify.counts, &delivered);
    let calib_after = host::calib_ns();

    let summaries: BTreeMap<&str, Summary> = [
        (
            "wall_ns_per_pkt",
            summarize(&each(&reps, RepOut::wall_ns_per_pkt)),
        ),
        ("setup_s", summarize(&each(&reps, |r| r.setup_s))),
        ("peak_rss_mb", Summary::exact(peak_rss_mb)),
        ("lemma1_ok_share", Summary::exact(sim.lemma1_ok_share)),
        ("ontime_share", Summary::exact(sim.ontime_share)),
        (
            "guar_latency_p50_ms",
            Summary::exact(sim.guar_latency_p50_ms),
        ),
        (
            "guar_latency_p99_ms",
            Summary::exact(sim.guar_latency_p99_ms),
        ),
        ("goodput_mbps", Summary::exact(sim.goodput_mbps)),
        ("delivered_share", Summary::exact(sim.delivered_share)),
    ]
    .into();
    let readings = E2E
        .iter()
        .map(|m| Reading {
            name: m.name,
            unit: m.unit,
            summary: summaries[m.name],
        })
        .collect();

    let run_wall = median(&each(&reps, |r| r.wall_s));
    let mut info = vec![
        ("digest", format!("{:016x}", verify.digest)),
        ("reps", reps.len().to_string()),
        ("run_wall_s_median", run_wall.to_string()),
        ("setup_share_of_setup_plus_run", {
            let setup = summaries["setup_s"].median;
            (setup / (setup + run_wall)).to_string()
        }),
        (
            "delivered_packets",
            verify.counts.delivered_packets.to_string(),
        ),
        ("sim_packets_attempted", verify.counts.attempted.to_string()),
        ("sim_packets_failed", verify.counts.failed.to_string()),
        (
            "guar_latency_samples",
            delivered.latency_samples.to_string(),
        ),
    ];
    noise_info(&mut info, &gate, calib_before, calib_after);
    PassOut {
        readings,
        info,
        attempted: gate.attempted,
        failed: gate.failed,
        problems: gate.problems,
    }
}

pub fn per_layer(def: &WorkloadDef, args: PassArgs, spans_out: &Path) -> PassOut {
    let calib_before = host::calib_ns();
    let timer_ns = host::timer_ns();
    let warm = plain_rep(def, args);
    let mut gate = Gate::new(warm.digest);

    // The base: untraced, undecorated, exactly as the end-to-end pass.
    let base = phase(args, 0.4, 3, || plain_rep(def, args));
    for (i, rep) in base.iter().enumerate() {
        gate.check(&format!("base repetition {}", i + 1), rep);
    }
    let base_wall_s = median(&each(&base, |r| r.wall_s));
    let base_wall_ms = base_wall_s * 1.0e3;

    let (verify, _) = verify_rep(def, args, &mut gate);
    let counts = &verify.counts;
    let pkts = counts.delivered_packets.max(1) as f64;

    // Decorated repetitions: spans, trace off.
    let recorder = Rc::new(RefCell::new(Recorder::new()));
    let idle = Rc::new(RefCell::new(0u64));
    let decorated = phase(args, 0.3, 2, || {
        run_rep(
            def,
            args.seed,
            args.quick,
            Mode::Decorated {
                rec: &recorder,
                idle: &idle,
            },
        )
    });
    for (i, rep) in decorated.iter().enumerate() {
        gate.check_transparent(&format!("decorated repetition {}", i + 1), rep, &verify);
    }
    let decorated_wall_s = median(&each(&decorated, |r| r.wall_s));

    // Traced repetitions: exact counts, decorators off.
    let mut totals = TraceTotals::default();
    let mut first_totals = None;
    let traced = phase(args, 0.3, 2, || {
        totals = TraceTotals::default();
        let rep = run_rep(def, args.seed, args.quick, Mode::Traced(&mut totals));
        first_totals.get_or_insert(totals);
        rep
    });
    for (i, rep) in traced.iter().enumerate() {
        gate.check_transparent(&format!("traced repetition {}", i + 1), rep, &verify);
    }
    if first_totals != Some(totals) {
        gate.fail("traced repetitions disagree on the decision-trace counts".to_string());
    }
    let traced_wall_s = median(&each(&traced, |r| r.wall_s));
    let tc = totals.counts;

    // Replay drives on the workload's first run, and its set-up drives.
    let first_input = (def.build)(args.seed, args.quick).swap_remove(0);
    let costs = replay::drive(&first_input);
    let setup: BTreeMap<&str, f64> = (def.setup_drives)(args.seed, args.quick)
        .into_iter()
        .collect();
    let calib_after = host::calib_ns();

    // Per-repetition means of the span aggregates.
    let rec = recorder.borrow();
    let n_dec = decorated.len() as f64;
    let span = |name: &str| rec.aggregate(name);
    let calls = |name: &str| span(name).map_or(0.0, |a| a.count as f64 / n_dec);
    let total_ms = |name: &str| span(name).map_or(0.0, |a| a.total_ms() / n_dec);
    let quantile = |name: &str, q: f64| span(name).map_or(0.0, |a| a.quantile_ns(q));
    // Every share is a share of the untraced median run wall.
    let share_pct = |ms: f64| 100.0 * ms / base_wall_ms;
    let est_pct = |ops: f64, ns_per_op: f64| 100.0 * ops * ns_per_op / 1.0e9 / base_wall_s;

    // Σ of every decorated (child) span, per repetition.
    let decorated_ms: f64 = rec
        .aggregates()
        .iter()
        .filter(|a| a.name != RUN_SPAN)
        .map(|a| a.total_ms())
        .sum::<f64>()
        / n_dec;
    let np_share = share_pct(total_ms(NEXT_PACKET));
    let ws_share = share_pct(total_ms(ON_WINDOW_START));
    let na_share = share_pct(total_ms(NEXT_ARRIVAL));
    let other_share = 100.0 - share_pct(decorated_ms);

    let decisions = (tc.rule1 + tc.rule2 + tc.rule3).max(1) as f64;
    let offered = counts.attempted as f64 + tc.parity_sent as f64;
    let windows = calls(ON_WINDOW_START);
    let cfg = first_input.cfg;
    let n_runs = verify.reports.len() as f64;
    // Warm-up probes (every path, every interval before `warmup_secs`)
    // are exempt from the budget and invisible to the trace.
    let warmup_probes: f64 = {
        let per_path = ((cfg.warmup_secs / cfg.probe_interval_secs).ceil() - 1.0).max(0.0);
        per_path * first_input.paths.len() as f64 * n_runs
    };
    let probes = warmup_probes + (tc.probe_samples + tc.probe_lost) as f64;
    let slots = n_runs * (first_input.duration / cfg.probe_interval_secs).floor();

    let event_est = est_pct(counts.events as f64, costs.event_ns_per_op);
    let queue_est = est_pct(offered, costs.queue_push_ns);
    let server_est = est_pct(pkts, costs.server_ns_per_pkt);
    let probe_est = est_pct(probes, costs.probe_ns);
    let node_est = est_pct(windows, costs.snapshot_us * 1.0e3);
    let planner_est = est_pct(slots, costs.plan_us * 1.0e3);
    let metrics_est = est_pct(pkts, costs.metrics_ns_per_pkt);
    let unattributed = other_share
        - (event_est + queue_est + server_est + probe_est + node_est + planner_est + metrics_est);

    let values: BTreeMap<&str, f64> = [
        ("core.scheduler.next_packet.calls", calls(NEXT_PACKET)),
        (
            "core.scheduler.next_packet.ns_p50",
            quantile(NEXT_PACKET, 0.50),
        ),
        (
            "core.scheduler.next_packet.ns_p99",
            quantile(NEXT_PACKET, 0.99),
        ),
        ("core.scheduler.next_packet.total_ms", total_ms(NEXT_PACKET)),
        ("core.scheduler.next_packet.share_pct", np_share),
        (
            "core.scheduler.next_packet.idle_share",
            *idle.borrow() as f64 / n_dec / calls(NEXT_PACKET).max(1.0),
        ),
        ("core.scheduler.on_window_start.calls", windows),
        (
            "core.scheduler.on_window_start.us_p50",
            quantile(ON_WINDOW_START, 0.50) / 1.0e3,
        ),
        (
            "core.scheduler.on_window_start.us_p99",
            quantile(ON_WINDOW_START, 0.99) / 1.0e3,
        ),
        (
            "core.scheduler.on_window_start.total_ms",
            total_ms(ON_WINDOW_START),
        ),
        ("core.scheduler.on_window_start.share_pct", ws_share),
        (
            "core.scheduler.plan_coding.us",
            total_ms(PLAN_CODING) * 1.0e3 / calls(PLAN_CODING).max(1.0),
        ),
        ("apps.workload.next_arrival.calls", calls(NEXT_ARRIVAL)),
        (
            "apps.workload.next_arrival.total_ms",
            total_ms(NEXT_ARRIVAL),
        ),
        ("apps.workload.next_arrival.share_pct", na_share),
        ("middleware.runtime.events", counts.events as f64),
        (
            "middleware.runtime.events_per_s",
            counts.events as f64 / base_wall_s,
        ),
        (
            "middleware.runtime.events_per_pkt",
            counts.events as f64 / pkts,
        ),
        ("middleware.runtime.other_share_pct", other_share),
        ("core.scheduler.rule1_share", tc.rule1 as f64 / decisions),
        ("core.scheduler.rule2_share", tc.rule2 as f64 / decisions),
        ("core.scheduler.rule3_share", tc.rule3 as f64 / decisions),
        ("core.scheduler.backoff_steps", tc.backoff_steps as f64),
        ("core.mapping.decisions", tc.mapping_decisions as f64),
        ("core.mapping.upcalls", tc.upcalls as f64),
        ("overlay.probe.samples", tc.probe_samples as f64),
        ("overlay.probe.lost", tc.probe_lost as f64),
        (
            "overlay.planner.spend_share",
            // The default planner probes everything and plans nothing.
            if totals.probe_opportunities == 0 {
                1.0
            } else {
                tc.probe_selected as f64 / totals.probe_opportunities as f64
            },
        ),
        ("core.queues.drops", tc.queue_drops as f64),
        ("simnet.server.transit_drops", tc.transit_drops as f64),
        ("simnet.server.blocked_events", tc.blocked_events as f64),
        ("core.coding.parity_sent", tc.parity_sent as f64),
        ("core.coding.recovered", tc.recovered as f64),
        (
            "core.coding.groups_decoded_share",
            counts.groups_decoded as f64 / counts.groups_total.max(1) as f64,
        ),
        ("trace.sink.events", tc.events as f64),
        ("trace.sink.events_per_pkt", tc.events as f64 / pkts),
        ("middleware.runtime.fail_share", counts.fail_share()),
        ("simnet.event.ns_per_op", costs.event_ns_per_op),
        ("simnet.event.est_share_pct", event_est),
        (
            "core.queues.ns_per_pushpop",
            costs.queue_push_ns + costs.queue_pop_ns,
        ),
        // Push only: the pop happens inside next_packet's span.
        ("core.queues.est_share_pct", queue_est),
        ("simnet.server.ns_per_pkt", costs.server_ns_per_pkt),
        ("simnet.server.est_share_pct", server_est),
        ("overlay.probe.ns_per_probe", costs.probe_ns),
        ("overlay.probe.est_share_pct", probe_est),
        ("overlay.node.snapshot_us", costs.snapshot_us),
        ("overlay.node.est_share_pct", node_est),
        ("overlay.planner.plan_us", costs.plan_us),
        ("overlay.planner.est_share_pct", planner_est),
        ("trace.metrics.ns_per_pkt", costs.metrics_ns_per_pkt),
        ("trace.metrics.est_share_pct", metrics_est),
        (
            "simnet.fault.with_faults_us_per_path",
            costs.with_faults_us_per_path,
        ),
        (
            "trace.sink.overhead_pct",
            100.0 * (traced_wall_s / base_wall_s - 1.0),
        ),
        (
            "bench.decorator_overhead_pct",
            100.0 * (decorated_wall_s / base_wall_s - 1.0),
        ),
        ("bench.timer_ns", timer_ns),
        ("bench.calib_ns", calib_before.min(calib_after)),
        ("bench.unattributed_pct", unattributed),
    ]
    .into_iter()
    .collect();

    let readings = LAYERS
        .iter()
        .map(|def| Reading {
            name: def.name,
            unit: def.unit,
            // A set-up drive the workload does not have reads 0.
            summary: Summary::exact(
                values
                    .get(def.name)
                    .or_else(|| setup.get(def.name))
                    .copied()
                    .unwrap_or(0.0),
            ),
        })
        .collect();

    if let Err(e) = write_spans(&rec, spans_out) {
        gate.fail(format!("cannot write {}: {e}", spans_out.display()));
    }
    let run_span_ms = span(RUN_SPAN).map_or(0.0, |a| a.total_ms() / n_dec);
    let mut info = vec![
        ("digest", format!("{:016x}", verify.digest)),
        ("base_reps", base.len().to_string()),
        ("decorated_reps", decorated.len().to_string()),
        ("traced_reps", traced.len().to_string()),
        ("base_run_wall_ms_median", base_wall_ms.to_string()),
        ("decorated_run_span_ms", run_span_ms.to_string()),
        ("spans_kept", rec.kept().len().to_string()),
        ("spans_file", spans_out.display().to_string()),
    ];
    noise_info(&mut info, &gate, calib_before, calib_after);
    PassOut {
        readings,
        info,
        attempted: gate.attempted,
        failed: gate.failed,
        problems: gate.problems,
    }
}

fn write_spans(rec: &Recorder, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)
}
