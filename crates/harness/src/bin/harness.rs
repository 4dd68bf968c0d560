//! The `harness` CLI: run sweeps, regenerate EXPERIMENTS.md tables,
//! measure the engine's own speedup.
//!
//! ```text
//! harness list
//! harness sweep  [--sweep NAME|all] [--threads N] [--no-cache]
//!                [--seed S] [--duration D] [--verbose]
//! harness report [--sweep NAME|all] [--check] [--seed S] [--duration D]
//! harness speedup [--threads N]
//! ```
//!
//! `sweep` executes cells (parallel, cached) and prints a summary.
//! `report` additionally renders the tables, patches the generated
//! blocks in `EXPERIMENTS.md` and writes `target/experiments/` CSVs;
//! with `--check` it verifies the committed blocks instead of writing
//! (non-zero exit on drift). `speedup` times the fault-sweep matrix
//! serially vs in parallel vs from a warm cache.

use std::path::PathBuf;
use std::process::ExitCode;

use iqpaths_harness::engine::{run_sweep, EngineOpts};
use iqpaths_harness::report::{
    blocks_for, check_blocks, csv_for, patch_blocks, sched_throughput_gate, Block,
};
use iqpaths_harness::sweeps::{all_sweeps, fault_sweep, sweep_by_name, SweepSpec};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_DURATION: f64 = 150.0;

struct Args {
    cmd: String,
    sweep: String,
    threads: Option<usize>,
    use_cache: bool,
    check: bool,
    verbose: bool,
    seed: u64,
    duration: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| "help".into());
    let mut args = Args {
        cmd,
        sweep: "all".into(),
        threads: None,
        use_cache: true,
        check: false,
        verbose: false,
        seed: DEFAULT_SEED,
        duration: DEFAULT_DURATION,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--sweep" => args.sweep = value("--sweep")?,
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--duration" => {
                args.duration = value("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?
            }
            "--no-cache" => args.use_cache = false,
            "--check" => args.check = true,
            "--verbose" => args.verbose = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn selected_sweeps(args: &Args) -> Result<Vec<SweepSpec>, String> {
    if args.sweep == "all" {
        Ok(all_sweeps(args.seed, args.duration))
    } else {
        sweep_by_name(&args.sweep, args.seed, args.duration)
            .map(|s| vec![s])
            .ok_or_else(|| format!("unknown sweep `{}` (see `harness list`)", args.sweep))
    }
}

fn experiments_md_path() -> PathBuf {
    match std::env::var("IQP_EXPERIMENTS_MD") {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"),
    }
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

fn sched_baseline_path() -> PathBuf {
    match std::env::var("IQP_SCHED_BASELINE") {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines/sched_throughput.json"),
    }
}

fn cmd_list() -> ExitCode {
    println!(
        "{:<18} {:>5} {:>8}  description",
        "sweep", "cells", "dur (s)"
    );
    for s in all_sweeps(DEFAULT_SEED, DEFAULT_DURATION) {
        println!(
            "{:<18} {:>5} {:>8}  {}",
            s.name,
            s.expand().len(),
            s.duration,
            s.about
        );
    }
    ExitCode::SUCCESS
}

fn cmd_sweep(args: &Args) -> Result<ExitCode, String> {
    let opts = EngineOpts {
        threads: args.threads,
        use_cache: args.use_cache,
        verbose: args.verbose,
    };
    let mut failures = 0usize;
    for sweep in selected_sweeps(args)? {
        let out = run_sweep(&sweep, &opts);
        let failed = out.results.iter().filter(|r| !r.all_pass()).count();
        failures += failed;
        println!(
            "{:<18} {:>3} cells  ({} run, {} cached)  {:>7.2}s wall{}",
            out.name,
            out.results.len(),
            out.executed,
            out.cached,
            out.wall_secs,
            if failed > 0 {
                format!("  {failed} cell(s) FAILED conformance")
            } else {
                String::new()
            }
        );
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_report(args: &Args) -> Result<ExitCode, String> {
    let opts = EngineOpts {
        threads: args.threads,
        use_cache: args.use_cache,
        verbose: args.verbose,
    };
    let mut blocks: Vec<Block> = Vec::new();
    let mut gate_problems: Vec<String> = Vec::new();
    for sweep in selected_sweeps(args)? {
        let out = run_sweep(&sweep, &opts);
        println!(
            "{:<18} {:>3} cells  ({} run, {} cached)  {:>7.2}s wall",
            out.name,
            out.results.len(),
            out.executed,
            out.cached,
            out.wall_secs
        );
        blocks.extend(blocks_for(sweep.name, &out.results));
        // Artifacts are written in check mode too: CI uploads the
        // wall-clock JSON produced by the very run the gate judged.
        if let Some((name, contents)) = csv_for(sweep.name, &out.results) {
            let path = out_dir().join(&name);
            std::fs::write(&path, contents).map_err(|e| format!("write {name}: {e}"))?;
            println!("  [artifact] {}", path.display());
        }
        if args.check && sweep.name == "sched_throughput" {
            let baseline_path = sched_baseline_path();
            let baseline = std::fs::read_to_string(&baseline_path)
                .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
            gate_problems.extend(sched_throughput_gate(&out.results, &baseline));
        }
    }

    let md_path = experiments_md_path();
    let doc = std::fs::read_to_string(&md_path)
        .map_err(|e| format!("read {}: {e}", md_path.display()))?;
    if args.check {
        let mut problems = check_blocks(&doc, &blocks);
        problems.extend(gate_problems);
        if problems.is_empty() {
            println!(
                "EXPERIMENTS.md: {} generated block(s) up to date",
                blocks.len()
            );
            Ok(ExitCode::SUCCESS)
        } else {
            for p in &problems {
                eprintln!("CHECK FAILED: {p}");
            }
            Ok(ExitCode::FAILURE)
        }
    } else {
        let (patched, missing) = patch_blocks(&doc, &blocks);
        for name in &missing {
            eprintln!("warning: no `<!-- BEGIN GENERATED: {name} -->` marker in EXPERIMENTS.md");
        }
        std::fs::write(&md_path, patched)
            .map_err(|e| format!("write {}: {e}", md_path.display()))?;
        println!(
            "EXPERIMENTS.md: {} block(s) regenerated",
            blocks.len() - missing.len()
        );
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_speedup(args: &Args) -> Result<ExitCode, String> {
    // The fault-sweep matrix is the representative workload: 12
    // independent ~100 s-virtual-time cells.
    let sweep = fault_sweep(args.seed, 120.0);
    let serial = run_sweep(
        &sweep,
        &EngineOpts {
            threads: Some(1),
            use_cache: false,
            verbose: false,
        },
    );
    let parallel = run_sweep(
        &sweep,
        &EngineOpts {
            threads: args.threads,
            use_cache: false,
            verbose: false,
        },
    );
    // Warm the cache, then time a fully cached pass.
    let warm = run_sweep(
        &sweep,
        &EngineOpts {
            threads: args.threads,
            use_cache: true,
            verbose: false,
        },
    );
    let cached = run_sweep(
        &sweep,
        &EngineOpts {
            threads: args.threads,
            use_cache: true,
            verbose: false,
        },
    );
    for (r, label) in [&serial, &parallel, &warm, &cached].iter().zip([
        "serial (1 thread, no cache)",
        "parallel (default threads, no cache)",
        "cache warm-up pass",
        "warm cache",
    ]) {
        println!(
            "{label:<38} {:>7.2}s wall  ({} run, {} cached)",
            r.wall_secs, r.executed, r.cached
        );
    }
    println!(
        "available threads: {}  |  parallel speedup {:.2}x  |  warm-cache speedup {:.1}x",
        rayon::current_num_threads(),
        serial.wall_secs / parallel.wall_secs,
        serial.wall_secs / cached.wall_secs,
    );
    // Bit-identity across execution shapes, checked on every speedup run.
    let a: Vec<String> = serial.results.iter().map(|r| r.to_text()).collect();
    let b: Vec<String> = parallel.results.iter().map(|r| r.to_text()).collect();
    let c: Vec<String> = cached.results.iter().map(|r| r.to_text()).collect();
    if a != b || a != c {
        eprintln!("DETERMINISM VIOLATION: serial/parallel/cached results differ");
        return Ok(ExitCode::FAILURE);
    }
    println!("results bit-identical across serial / parallel / cached execution");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harness: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.cmd.as_str() {
        "list" => Ok(cmd_list()),
        "sweep" => cmd_sweep(&args),
        "report" => cmd_report(&args),
        "speedup" => cmd_speedup(&args),
        "help" | "--help" | "-h" => {
            println!(
                "usage: harness <list|sweep|report|speedup> \
                 [--sweep NAME|all] [--threads N] [--no-cache] [--check] \
                 [--seed S] [--duration D] [--verbose]"
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}` (try `harness help`)")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::FAILURE
        }
    }
}
