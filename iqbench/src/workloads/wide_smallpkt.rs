//! Many streams, smallest packets: per-packet cost dominates and is
//! split between the scheduler index and the runtime loop, event
//! queue, path service and metrics.

use super::{
    framed_25fps, jitter, mixed_streams, scaled, time_ms, RunInput, WorkloadDef, SCENARIO_SEED,
};
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_middleware::runtime::RuntimeConfig;
use iqpaths_simnet::fault::FaultSchedule;
use iqpaths_testkit::topology::TopologyGen;

pub const DEF: WorkloadDef = WorkloadDef {
    name: "wide_smallpkt",
    why: "1024 streams of 200 B packets over 16 paths, unsaturated: the only cell where event queue, path service and metrics cost can show",
    params: "1024 streams (i%4: 0,2 probabilistic p=0.9; 1 violation-bound 30; 3 best-effort), 400 kbit/s each, \
             200 B packets, 25 fps; 16 TopologyGen paths; warm-up 20 s (the 200-sample history is full when data starts), 10 s measured; Pgos default; no faults",
    build,
    setup_drives,
    cross_check: None,
};

const STREAMS: usize = 1024;
const PATHS: usize = 16;
const WARMUP: f64 = 20.0;

fn topology(duration: f64) -> TopologyGen {
    TopologyGen {
        seed: SCENARIO_SEED,
        paths: PATHS,
        horizon: WARMUP + duration + 10.0,
        ..TopologyGen::default()
    }
}

fn build(seed: u64, quick: bool) -> Vec<RunInput> {
    let duration = scaled(10.0, quick);
    let paths = jitter(topology(duration).build(), seed, WARMUP);
    let specs = mixed_streams(STREAMS, 400.0e3, 200);
    vec![RunInput {
        scheduler: Box::new(Pgos::new(PgosConfig::default(), specs.clone(), PATHS)),
        workload: Box::new(framed_25fps(&specs, duration)),
        paths,
        specs,
        cfg: RuntimeConfig {
            warmup_secs: WARMUP,
            history_samples: 200,
            seed: SCENARIO_SEED,
            ..RuntimeConfig::default()
        },
        duration,
        faults: FaultSchedule::new(),
    }]
}

fn setup_drives(_seed: u64, quick: bool) -> Vec<(&'static str, f64)> {
    let gen = topology(scaled(10.0, quick));
    vec![("traces.gen_ms", time_ms(quick, || gen.build()))]
}
