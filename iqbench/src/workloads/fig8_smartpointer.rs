//! The paper's headline testbed (Figure 8): two paths, three
//! SmartPointer streams, PGOS with default settings.

use super::{jitter, scaled, time_ms, RunInput, WorkloadDef, SCENARIO_SEED};
use iqpaths_apps::smartpointer::{SmartPointer, SmartPointerConfig};
use iqpaths_core::scheduler::Pgos;
use iqpaths_middleware::builder::Figure8Experiment;
use iqpaths_simnet::fault::FaultSchedule;
use iqpaths_traces::nlanr::figure8_cross_traffic;

pub const DEF: WorkloadDef = WorkloadDef {
    name: "fig8_smartpointer",
    why: "the paper's Figure 8 testbed: Bond2 saturates both paths, so Pgos::next_packet is almost the whole run",
    params: "Figure8Experiment::new(SCENARIO_SEED, 75 s) paths; SmartPointer default (Atom 3.249 + Bond1 22.148 Mbps at p=0.95, \
             Bond2 70 Mbps best-effort, 1250 B, 25 fps); Pgos default; RuntimeConfig default (warm-up 50 s, history 500, \
             window 1 s, probes 0.1 s, Exact CDF); no faults",
    build,
    setup_drives,
    cross_check: None,
};

fn experiment(quick: bool) -> Figure8Experiment {
    Figure8Experiment::new(SCENARIO_SEED, scaled(75.0, quick))
}

fn build(seed: u64, quick: bool) -> Vec<RunInput> {
    let exp = experiment(quick);
    let paths = jitter(exp.paths(), seed, exp.runtime.warmup_secs);
    let app_cfg = SmartPointerConfig {
        duration: exp.duration,
        ..SmartPointerConfig::default()
    };
    let specs = SmartPointer::specs(app_cfg);
    vec![RunInput {
        scheduler: Box::new(Pgos::new(exp.pgos, specs.clone(), paths.len())),
        workload: Box::new(SmartPointer::new(app_cfg)),
        paths,
        specs,
        cfg: exp.runtime,
        duration: exp.duration,
        faults: FaultSchedule::new(),
    }]
}

fn setup_drives(_seed: u64, quick: bool) -> Vec<(&'static str, f64)> {
    let exp = experiment(quick);
    let horizon = exp.runtime.warmup_secs + exp.duration + 10.0;
    vec![(
        "traces.gen_ms",
        time_ms(quick, || figure8_cross_traffic(0.1, horizon, SCENARIO_SEED)),
    )]
}
