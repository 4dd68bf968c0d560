//! Erasure-coded Diversity mapping under rotating silent loss: the same
//! scheduler and queues used differently (lane-striped pops, parity
//! enqueue, decode-complete accounting).

use super::{framed_25fps, jitter, scaled, time_ms, RunInput, WorkloadDef, SCENARIO_SEED};
use iqpaths_core::mapping::MappingMode;
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_middleware::runtime::RuntimeConfig;
use iqpaths_testkit::scenario::{conformance_streams, FaultScenario};
use iqpaths_testkit::topology::TopologyGen;

pub const DEF: WorkloadDef = WorkloadDef {
    name: "diversity_loss",
    why: "Diversity (n,k) coding over 3 paths while one path at a time silently eats packets: lane pops, parity and decode accounting carry the run",
    params: "3 TopologyGen paths; conformance_streams() (8 Mbps p=0.9, 6 Mbps violation-bound 30, 4 Mbps best-effort, 1250 B, 25 fps); \
             PgosConfig{mapping_mode: Diversity}; FaultScenario::Uncorrelated; warm-up 20 s, history 100, 450 s measured",
    build,
    setup_drives,
    cross_check: None,
};

const WARMUP: f64 = 20.0;

fn topology(duration: f64) -> TopologyGen {
    TopologyGen {
        seed: SCENARIO_SEED,
        horizon: WARMUP + duration + 10.0,
        ..TopologyGen::default()
    }
}

fn build(seed: u64, quick: bool) -> Vec<RunInput> {
    let duration = scaled(450.0, quick);
    let paths = jitter(topology(duration).build(), seed, WARMUP);
    let specs = conformance_streams();
    let pgos_cfg = PgosConfig {
        mapping_mode: MappingMode::Diversity,
        ..PgosConfig::default()
    };
    vec![RunInput {
        scheduler: Box::new(Pgos::new(pgos_cfg, specs.clone(), paths.len())),
        workload: Box::new(framed_25fps(&specs, duration)),
        paths,
        specs,
        cfg: RuntimeConfig {
            warmup_secs: WARMUP,
            history_samples: 100,
            seed: SCENARIO_SEED,
            ..RuntimeConfig::default()
        },
        duration,
        faults: FaultScenario::Uncorrelated.schedule(WARMUP, WARMUP + duration),
    }]
}

fn setup_drives(_seed: u64, quick: bool) -> Vec<(&'static str, f64)> {
    let gen = topology(scaled(450.0, quick));
    vec![("traces.gen_ms", time_ms(quick, || gen.build()))]
}
