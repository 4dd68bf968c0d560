//! The engine's core promise, pinned: a cell's serialized result is
//! byte-identical whether the sweep runs on one thread, on many, or the
//! cell runs alone — across all three CDF backends the conformance
//! suite sweeps.
//!
//! This is what makes the cache sound (a cached result equals a fresh
//! one) and the EXPERIMENTS.md tables machine-reproducible.

use iqpaths_harness::engine::{run_isolated, run_sweep, EngineOpts};
use iqpaths_harness::sweeps::{CellTemplate, SweepSpec};
use iqpaths_harness::{CellKind, CellSpec};

/// A small but real matrix: all three sweep CDF backends × two
/// scenarios (one quiet, one faulted), just over the fault scenarios'
/// 40 s duration floor.
fn mini_matrix() -> SweepSpec {
    let mut templates = Vec::new();
    for mode in ["exact", "rolling", "sketch33"] {
        for scenario in ["no-fault", "blackout"] {
            templates.push(CellTemplate {
                group: String::new(),
                label: format!("{mode}/{scenario}"),
                kind: CellKind::Conformance {
                    mode: mode.to_string(),
                    scenario: scenario.to_string(),
                },
                duration: None,
            });
        }
    }
    SweepSpec {
        name: "determinism_mini",
        about: "determinism-suite matrix",
        duration: 45.0,
        seeds: vec![5],
        cacheable: true,
        templates,
    }
}

fn texts(results: &[iqpaths_harness::CellResult]) -> Vec<String> {
    results.iter().map(|r| r.to_text()).collect()
}

#[test]
fn serial_parallel_and_isolated_execution_are_bit_identical() {
    let sweep = mini_matrix();
    let no_cache = |threads| EngineOpts {
        threads: Some(threads),
        use_cache: false,
        verbose: false,
    };

    let serial = run_sweep(&sweep, &no_cache(1));
    let parallel = run_sweep(&sweep, &no_cache(4));
    assert_eq!(
        texts(&serial.results),
        texts(&parallel.results),
        "parallel execution changed a cell result"
    );

    // Each cell, re-run alone (fresh engine, no sweep context), must
    // reproduce its in-sweep bytes: results depend on the spec only,
    // not on which cells ran beside it.
    for (spec, in_sweep) in sweep.expand().iter().zip(&serial.results) {
        let alone = run_isolated(spec);
        assert_eq!(
            alone.to_text(),
            in_sweep.to_text(),
            "isolated run of {} diverged from the sweep run",
            spec.id()
        );
    }
}

#[test]
fn axis_seed_is_never_used_raw_and_kinds_decorrelate() {
    // Same axis seed, different kinds → different derived seeds; and
    // no derived seed equals the raw axis seed for this matrix.
    let cells = mini_matrix().expand();
    let mut derived: Vec<u64> = cells.iter().map(CellSpec::cell_seed).collect();
    for (cell, &seed) in cells.iter().zip(&derived) {
        assert_ne!(seed, cell.seed, "{} runs with its raw axis seed", cell.id());
    }
    let n = derived.len();
    derived.sort_unstable();
    derived.dedup();
    assert_eq!(derived.len(), n, "two cells share a derived seed");
}

#[test]
fn cached_results_equal_fresh_ones() {
    // Point the cache at a private temp dir so this test cannot
    // interact with a real cache or a parallel test process.
    let dir = std::env::temp_dir().join(format!("iqp-determinism-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let sweep = {
        let mut s = mini_matrix();
        s.templates.truncate(2); // one mode, two scenarios — keep it quick
        s
    };
    let cached_opts = EngineOpts {
        threads: Some(2),
        use_cache: true,
        verbose: false,
    };
    std::env::set_var("IQP_CACHE_DIR", &dir);
    let cold = run_sweep(&sweep, &cached_opts);
    let warm = run_sweep(&sweep, &cached_opts);
    std::env::remove_var("IQP_CACHE_DIR");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(cold.executed, sweep.expand().len());
    assert_eq!(warm.cached, sweep.expand().len());
    assert_eq!(warm.executed, 0, "warm run re-executed a cached cell");
    assert_eq!(texts(&cold.results), texts(&warm.results));
}
