//! `iqbench` — the repo's one benchmark: end-to-end metrics and a
//! per-layer ledger over five workloads. See README.md beside this
//! package for the glossary and how to read the output.
//!
//! Two ways in:
//!
//! * **One pass of one workload** (`--workload W --trace 0|1`), which is
//!   what the driver of `BENCHMARK.json` runs: measures in this process
//!   and prints, as the last line of standard output, one JSON object
//!   `{"correct", "attempted", "failed", "metrics"}`.
//! * **The ledger** (no `--trace`): runs both passes of every workload
//!   (or of `--workload W`), each pass in a child process of its own,
//!   prints every metric by name and writes `result.json`.

mod catalog;
mod decorators;
mod host;
mod ledger;
mod pass;
mod rep;
mod replay;
mod sim;
mod spans;
mod stats;
mod workloads;

use pass::{PassArgs, PassOut};
use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
pub const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage: iqbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick] [--check-repeat]
  --workload NAME   one of the five workloads (default: all)
  --seed N          seed of the input generators (default 42)
  --seconds N       how long one pass measures (default 15)
  --trace 0|1       run one pass in this process: 0 = end-to-end metrics, 1 = per-layer metrics;
                    needs --workload; the last line of output is the result as JSON
  --quick           smoke run: one repetition per phase, virtual durations / 5, numbers not comparable
  --check-repeat    run the ledger twice and fail if any metric differs by more than its bound";

pub struct Cli {
    pub workload: Option<&'static workloads::WorkloadDef>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub quick: bool,
    pub check_repeat: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        check_repeat: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(workloads::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--quick" => cli.quick = true,
            "--check-repeat" => cli.check_repeat = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.trace.is_some() && cli.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    if cli.trace.is_some() && cli.check_repeat {
        return Err("--check-repeat runs the whole ledger; drop --trace".to_string());
    }
    Ok(cli)
}

/// Where the ledger and the span files go: `<target dir>/iqbench/`,
/// next to the build that produced this binary, so it is always inside
/// the checkout and always ignored by git.
pub fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("iqbench")))
        .unwrap_or_else(|| PathBuf::from("target/iqbench"))
}

/// One pass, in this process, printed in the line format the ledger
/// parent parses and closed by the contract's JSON line.
fn run_pass(def: &workloads::WorkloadDef, args: PassArgs, trace: bool) -> ExitCode {
    println!(
        "# iqbench {} pass={} seed={} seconds={}{}",
        def.name,
        if trace { "per_layer" } else { "end_to_end" },
        args.seed,
        args.seconds,
        if args.quick { " quick" } else { "" }
    );
    let out: PassOut = if trace {
        pass::per_layer(
            def,
            args,
            &out_dir().join(format!("{}.spans.jsonl", def.name)),
        )
    } else {
        pass::end_to_end(def, args)
    };
    for r in &out.readings {
        println!("{}", ledger::metric_line(r));
    }
    for (key, value) in &out.info {
        println!("I {key} = {value}");
    }
    for problem in &out.problems {
        println!("E {problem}");
    }
    let correct = out.failed == 0;
    println!("{}", ledger::result_json(correct, &out));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(problem) => {
            if !problem.is_empty() {
                eprintln!("iqbench: {problem}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (cli.workload, cli.trace) {
        (Some(def), Some(trace)) => run_pass(
            def,
            PassArgs {
                seed: cli.seed,
                seconds: cli.seconds,
                quick: cli.quick,
            },
            trace,
        ),
        _ => ledger::run(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = cli(&[
            "--workload",
            "wide_smallpkt",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.unwrap().name, "wide_smallpkt");
        assert_eq!(
            (c.seed, c.seconds, c.trace, c.quick),
            (7, 15.0, Some(true), false)
        );
    }

    #[test]
    fn defaults_and_rejections() {
        let c = cli(&[]).unwrap();
        assert!(c.workload.is_none() && c.trace.is_none());
        assert_eq!((c.seed, c.seconds), (DEFAULT_SEED, DEFAULT_SECONDS));
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--trace", "0"]).is_err());
        assert!(cli(&["--trace", "2", "--workload", "wide_smallpkt"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
    }
}
