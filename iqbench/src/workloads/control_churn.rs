//! Control-plane stress: short windows, dense probing, rolling CDFs,
//! active probe planning and a flapping path. The monitoring, CDF and
//! mapping layers dominate; the per-packet path is a few percent.

use super::{
    framed_25fps, jitter, mixed_streams, scaled, time_ms, RunInput, WorkloadDef, SCENARIO_SEED,
};
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_middleware::runtime::RuntimeConfig;
use iqpaths_overlay::node::CdfMode;
use iqpaths_overlay::planner::{PlannerKind, ProbeBudget};
use iqpaths_testkit::scenario::FaultScenario;
use iqpaths_testkit::topology::TopologyGen;

pub const DEF: WorkloadDef = WorkloadDef {
    name: "control_churn",
    why: "0.1 s windows, 10 ms probes on 32 paths, Rolling CDFs, Active planner, Flap faults: window-start snapshot + remap and probe writes dominate",
    params: "64 streams (same i%4 mix), 200 kbit/s each, 1250 B, 25 fps; 32 TopologyGen paths; window 0.1 s (runtime and Pgos), \
             probes 0.01 s, history 500, CdfMode::Rolling, PlannerKind::Active + ProbeBudget::Percent(25), \
             FaultScenario::Flap; warm-up 10 s, 120 s measured",
    build,
    setup_drives,
    cross_check: None,
};

const STREAMS: usize = 64;
const PATHS: usize = 32;
const WARMUP: f64 = 10.0;
const WINDOW: f64 = 0.1;

/// The Flap script needs more than 40 s of room.
fn duration(quick: bool) -> f64 {
    scaled(120.0, quick).max(41.0)
}

fn topology(duration: f64) -> TopologyGen {
    TopologyGen {
        seed: SCENARIO_SEED,
        paths: PATHS,
        horizon: WARMUP + duration + 10.0,
        ..TopologyGen::default()
    }
}

fn build(seed: u64, quick: bool) -> Vec<RunInput> {
    let duration = duration(quick);
    let paths = jitter(topology(duration).build(), seed, WARMUP);
    let specs = mixed_streams(STREAMS, 200.0e3, 1250);
    let pgos_cfg = PgosConfig {
        window_secs: WINDOW,
        ..PgosConfig::default()
    };
    vec![RunInput {
        scheduler: Box::new(Pgos::new(pgos_cfg, specs.clone(), PATHS)),
        workload: Box::new(framed_25fps(&specs, duration)),
        paths,
        specs,
        cfg: RuntimeConfig {
            window_secs: WINDOW,
            probe_interval_secs: 0.01,
            history_samples: 500,
            warmup_secs: WARMUP,
            seed: SCENARIO_SEED,
            cdf_mode: CdfMode::Rolling,
            planner: PlannerKind::Active,
            probe_budget: ProbeBudget::percent(25),
            ..RuntimeConfig::default()
        },
        duration,
        faults: FaultScenario::Flap.schedule(WARMUP, WARMUP + duration),
    }]
}

fn setup_drives(_seed: u64, quick: bool) -> Vec<(&'static str, f64)> {
    let gen = topology(duration(quick));
    vec![("traces.gen_ms", time_ms(quick, || gen.build()))]
}
