//! The `sched_throughput` cell runner: drives the refactored PGOS hot
//! path ([`iqpaths_core::scheduler::Pgos`]) and the frozen pre-refactor
//! reference ([`crate::sched_ref::RefPgos`]) through one identical
//! synthetic workload and reports both deterministic evidence and
//! wall-clock throughput.
//!
//! **Deterministic outputs** (safe for the checked `EXPERIMENTS.md`
//! block): decision count, window count, offered/dropped packet
//! accounting, and the fast≡legacy equivalence verdict — an FNV-1a
//! hash over every decision's `(path, stream, seq, deadline)` tuple,
//! compared between the two implementations. These are pure functions
//! of the cell seed.
//!
//! **Wall-clock outputs** (JSON artifact only, never the checked
//! block): packets/sec of each side and their ratio. Because both
//! sides run the same workload in the same process on the same core,
//! the *ratio* is a machine-portable measure of the zero-alloc
//! refactor even though the absolute rates are not — which is what the
//! CI regression gate ([`crate::report::sched_throughput_gate`])
//! compares against its committed baseline.
//!
//! The workload: ¼ of streams hold probabilistic guarantees sized to 8
//! scheduled packets per 1 s window; the rest are best-effort with a
//! seeded 1–4 packet burst per window. Paths advertise stationary CDFs
//! with ~4× admission headroom, so the resource map settles after one
//! remap and the measured region is the steady-state decision loop —
//! rule 1 cursor hits, rule 2 other-path promotion (the sub-stepped
//! clock lets behind-schedule flip mid-window), and rule 3 best-effort
//! fallback.

use std::time::Instant;

use iqpaths_core::queues::StreamQueues;
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_core::stream::StreamSpec;
use iqpaths_core::traits::{MultipathScheduler, PathSnapshot};
use iqpaths_simnet::fault::splitmix64;
use iqpaths_stats::{CdfSummary, EmpiricalCdf};

use crate::cell::{CellResult, CellSpec};
use crate::sched_ref::{RefPgos, RefQueues};

/// Packet size used throughout the ladder (bytes).
const PKT_BYTES: u32 = 1250;
/// Scheduling window (1 s, the PGOS default `t_w`).
const WINDOW_NS: u64 = 1_000_000_000;
/// Decision instants per window: the drive clock advances in quarters
/// so the behind-schedule predicate can flip mid-window (exercising
/// rule 2 promotion on both sides).
const SUB_STEPS: u64 = 4;
/// Per-stream queue capacity.
const QUEUE_CAP: usize = 64;
/// Scheduled packets per window for each guaranteed stream.
const GUAR_PKTS_PER_WINDOW: u64 = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Total decision budget for one cell: scaled down with the workload
/// size so the pre-refactor O(streams × paths) reference keeps every
/// cell affordable, floored so small cells still measure something.
fn decision_cap(streams: u32, paths: u32) -> u64 {
    (8_000_000 / (u64::from(streams) * u64::from(paths))).clamp(2_000, 100_000)
}

/// One worker's share of the cell: a dense local stream table plus the
/// original global indices (the burst generator keys on globals so the
/// offered workload is partition-invariant).
struct WorkerPlan {
    specs: Vec<StreamSpec>,
    globals: Vec<usize>,
    cdfs: Vec<CdfSummary>,
    cap: u64,
    seed: u64,
}

/// What one drive of one implementation produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DriveStats {
    decisions: u64,
    windows: u64,
    offered: u64,
    dropped: u64,
    hash: u64,
}

fn guaranteed(global: usize) -> bool {
    global.is_multiple_of(4)
}

/// Arrival burst for `global` in window `w`: guaranteed streams offer
/// exactly their scheduled budget; best-effort streams offer a seeded
/// 1–4 packets.
fn burst(seed: u64, window: u64, global: usize) -> u64 {
    if guaranteed(global) {
        GUAR_PKTS_PER_WINDOW
    } else {
        1 + splitmix64(seed ^ (window << 24) ^ global as u64) % 4
    }
}

fn build_plans(streams: u32, paths: u32, workers: u32, seed: u64) -> Vec<WorkerPlan> {
    let (streams, workers) = (streams as usize, workers.max(1) as usize);
    let total_cap = decision_cap(streams as u32, paths);
    let per_worker_cap = (total_cap / workers as u64).max(1_000);
    (0..workers)
        .map(|w| {
            let globals: Vec<usize> = (0..streams).filter(|g| g % workers == w).collect();
            let specs: Vec<StreamSpec> = globals
                .iter()
                .enumerate()
                .map(|(local, &g)| {
                    if guaranteed(g) {
                        let rate = GUAR_PKTS_PER_WINDOW as f64 * f64::from(PKT_BYTES) * 8.0;
                        StreamSpec::probabilistic(local, format!("s{g}"), rate, 0.9, PKT_BYTES)
                    } else {
                        StreamSpec::best_effort(local, format!("s{g}"), 2.0e6, PKT_BYTES)
                    }
                })
                .collect();
            let total_guar: f64 = globals.iter().filter(|&&g| guaranteed(g)).count() as f64
                * GUAR_PKTS_PER_WINDOW as f64
                * f64::from(PKT_BYTES)
                * 8.0;
            // Stationary per-path CDFs with ~4x admission headroom:
            // the map settles after the first window and the measured
            // region is the steady-state decision loop, not remaps.
            let cdfs: Vec<CdfSummary> = (0..paths as usize)
                .map(|j| {
                    let jitter = 0.95 + (splitmix64(seed ^ (j as u64 + 17)) % 1000) as f64 / 1.0e4;
                    let cap = (4.0 * total_guar / f64::from(paths) + 4.0e6) * jitter;
                    CdfSummary::exact(EmpiricalCdf::from_clean_samples(
                        (0..16)
                            .map(|k| cap * (0.95 + 0.1 * k as f64 / 15.0))
                            .collect(),
                    ))
                })
                .collect();
            WorkerPlan {
                specs,
                globals,
                cdfs,
                cap: per_worker_cap,
                seed,
            }
        })
        .collect()
}

/// Drives the refactored PGOS (SoA pool queues + batched dispatch).
fn drive_fast(plan: &WorkerPlan, paths: usize) -> DriveStats {
    let n = plan.specs.len();
    if n == 0 {
        return DriveStats {
            decisions: 0,
            windows: 0,
            offered: 0,
            dropped: 0,
            hash: FNV_OFFSET,
        };
    }
    let mut pgos = Pgos::new(
        PgosConfig {
            window_secs: WINDOW_NS as f64 / 1e9,
            ..PgosConfig::default()
        },
        plan.specs.clone(),
        paths,
    );
    let mut queues = StreamQueues::with_pool_capacity(
        n,
        QUEUE_CAP,
        n.saturating_mul(GUAR_PKTS_PER_WINDOW as usize).min(65_536),
    );
    let snapshots: Vec<PathSnapshot> = plan
        .cdfs
        .iter()
        .enumerate()
        .map(|(j, c)| PathSnapshot::from_summary(j, c.clone()))
        .collect();
    let mut out = Vec::with_capacity(256);
    let (mut decisions, mut windows, mut hash) = (0u64, 0u64, FNV_OFFSET);
    'outer: while decisions < plan.cap {
        let w = windows;
        windows += 1;
        let ws = w * WINDOW_NS;
        pgos.on_window_start(ws, WINDOW_NS, &snapshots);
        let mut pushed = 0u64;
        for (local, &g) in plan.globals.iter().enumerate() {
            for _ in 0..burst(plan.seed, w, g) {
                queues.push(local, PKT_BYTES, ws);
                pushed += 1;
            }
        }
        let batch = (pushed / (SUB_STEPS * paths as u64) + 2) as usize;
        for sub in 0..SUB_STEPS {
            let now = ws + sub * (WINDOW_NS / SUB_STEPS) + 1;
            for j in 0..paths {
                out.clear();
                let served = pgos.next_batch(j, now, &mut queues, batch, &mut out);
                for pkt in &out {
                    hash = fold(hash, j as u64);
                    hash = fold(hash, pkt.stream as u64);
                    hash = fold(hash, pkt.seq);
                    hash = fold(hash, pkt.deadline_ns);
                }
                decisions += served as u64;
                if decisions >= plan.cap {
                    break 'outer;
                }
            }
        }
    }
    DriveStats {
        decisions,
        windows,
        offered: (0..n).map(|i| queues.offered(i)).sum(),
        dropped: (0..n).map(|i| queues.dropped(i)).sum(),
        hash,
    }
}

/// Drives the frozen pre-refactor reference through the *same* call
/// sequence (`next_packet` in a loop standing in for `next_batch`,
/// which is its documented expansion).
fn drive_ref(plan: &WorkerPlan, paths: usize) -> DriveStats {
    let n = plan.specs.len();
    if n == 0 {
        return DriveStats {
            decisions: 0,
            windows: 0,
            offered: 0,
            dropped: 0,
            hash: FNV_OFFSET,
        };
    }
    let mut pgos = RefPgos::new(WINDOW_NS as f64 / 1e9, plan.specs.clone(), paths);
    let mut queues = RefQueues::new(n, QUEUE_CAP);
    let (mut decisions, mut windows, mut hash) = (0u64, 0u64, FNV_OFFSET);
    'outer: while decisions < plan.cap {
        let w = windows;
        windows += 1;
        let ws = w * WINDOW_NS;
        pgos.on_window_start(ws, WINDOW_NS, &plan.cdfs);
        let mut pushed = 0u64;
        for (local, &g) in plan.globals.iter().enumerate() {
            for _ in 0..burst(plan.seed, w, g) {
                queues.push(local, PKT_BYTES, ws);
                pushed += 1;
            }
        }
        let batch = pushed / (SUB_STEPS * paths as u64) + 2;
        for sub in 0..SUB_STEPS {
            let now = ws + sub * (WINDOW_NS / SUB_STEPS) + 1;
            for j in 0..paths {
                let mut served = 0u64;
                while served < batch {
                    let Some(pkt) = pgos.next_packet(j, now, &mut queues) else {
                        break;
                    };
                    hash = fold(hash, j as u64);
                    hash = fold(hash, pkt.stream as u64);
                    hash = fold(hash, pkt.seq);
                    hash = fold(hash, pkt.deadline_ns);
                    served += 1;
                }
                decisions += served;
                if decisions >= plan.cap {
                    break 'outer;
                }
            }
        }
    }
    DriveStats {
        decisions,
        windows,
        offered: (0..n).map(|i| queues.offered(i)).sum(),
        dropped: (0..n).map(|i| queues.dropped(i)).sum(),
        hash,
    }
}

/// Runs one pass (all workers) of one implementation. Workers run on
/// their own OS threads — deliberately *not* the engine's rayon pool,
/// so a `--threads 1` engine still measures real worker parallelism.
fn pass<F: Fn(&WorkerPlan) -> DriveStats + Sync>(plans: &[WorkerPlan], f: F) -> Vec<DriveStats> {
    if plans.len() == 1 {
        return vec![f(&plans[0])];
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = plans.iter().map(|p| s.spawn(move || f(p))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sched_throughput worker panicked"))
            .collect()
    })
}

/// Executes one `sched_throughput` cell.
pub fn run_sched_throughput_cell(
    spec: &CellSpec,
    streams: u32,
    paths: u32,
    workers: u32,
    res: &mut CellResult,
) {
    let plans = build_plans(streams, paths, workers, spec.cell_seed());
    let p = paths as usize;

    let t0 = Instant::now();
    let fast = pass(&plans, |plan| drive_fast(plan, p));
    let wall_fast = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let legacy = pass(&plans, |plan| drive_ref(plan, p));
    let wall_legacy = t1.elapsed().as_secs_f64();

    let sum =
        |stats: &[DriveStats], f: fn(&DriveStats) -> u64| -> u64 { stats.iter().map(f).sum() };
    let decisions = sum(&fast, |s| s.decisions);
    let equivalent = fast == legacy;

    res.metric("streams", f64::from(streams));
    res.metric("paths", f64::from(paths));
    res.metric("workers", f64::from(workers));
    res.metric("decisions", decisions as f64);
    res.metric("windows", sum(&fast, |s| s.windows) as f64);
    res.metric("offered", sum(&fast, |s| s.offered) as f64);
    res.metric("dropped", sum(&fast, |s| s.dropped) as f64);
    res.verdict("equivalent.pass", equivalent);
    // Wall-clock measurements: JSON artifact only, never the checked
    // EXPERIMENTS.md block (and the sweep is uncacheable because of
    // them — see `SweepSpec::cacheable`).
    let pps_fast = decisions as f64 / wall_fast.max(1e-9);
    let pps_legacy = sum(&legacy, |s| s.decisions) as f64 / wall_legacy.max(1e-9);
    res.metric("pps_fast", pps_fast);
    res.metric("pps_legacy", pps_legacy);
    res.metric("speedup", pps_fast / pps_legacy.max(1e-9));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellKind, CellSpec};

    fn cell(streams: u32, paths: u32, workers: u32) -> CellSpec {
        CellSpec {
            sweep: "sched_throughput".into(),
            group: String::new(),
            label: format!("{streams}x{paths}x{workers}"),
            seed: 42,
            duration: 1.0,
            kind: CellKind::SchedThroughput {
                streams,
                paths,
                workers,
            },
        }
    }

    #[test]
    fn fast_and_reference_agree_decision_for_decision() {
        // Small scale so the debug-mode scan cross-check inside Pgos
        // stays fast; the full ladder runs in release via the harness.
        for (s, p, w) in [(8, 2, 1), (12, 3, 2), (10, 2, 4)] {
            let spec = cell(s, p, w);
            let plans = build_plans(s, p, w, spec.cell_seed());
            let fast: Vec<DriveStats> = plans
                .iter()
                .map(|plan| drive_fast(plan, p as usize))
                .collect();
            let legacy: Vec<DriveStats> = plans
                .iter()
                .map(|plan| drive_ref(plan, p as usize))
                .collect();
            assert_eq!(fast, legacy, "divergence at {s}x{p}x{w}");
            assert!(fast.iter().map(|d| d.decisions).sum::<u64>() >= 1_000);
        }
    }

    #[test]
    fn the_cell_runner_reports_equivalence_and_counts() {
        let spec = cell(8, 2, 1);
        let mut res = CellResult::for_spec(&spec);
        run_sched_throughput_cell(&spec, 8, 2, 1, &mut res);
        assert!(res.all_pass(), "equivalence verdict failed: {res:?}");
        assert!(res.get("decisions").unwrap() >= 1_000.0);
        assert!(res.get("speedup").unwrap() > 0.0);
        assert_eq!(res.get("streams"), Some(8.0));
    }

    #[test]
    fn burst_is_deterministic_and_partition_invariant() {
        // The burst generator keys on the *global* stream id, so the
        // same (seed, window, stream) triple offers the same packets
        // no matter how streams are partitioned across workers.
        for g in 0..32 {
            assert_eq!(burst(7, 3, g), burst(7, 3, g));
            if guaranteed(g) {
                assert_eq!(burst(7, 3, g), GUAR_PKTS_PER_WINDOW);
            } else {
                assert!((1..=4).contains(&burst(7, 3, g)));
            }
        }
    }
}
