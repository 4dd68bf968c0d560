//! The ledger: both passes of every selected workload, each pass in a
//! child process of its own (spawned sequentially from `current_exe()`),
//! collected into one table and one `result.json`; plus `--check-repeat`,
//! which runs the ledger twice and compares the two by the benchmark's
//! own bounds.

use crate::catalog::{Kind, Source, E2E, LAYERS};
use crate::pass::{PassOut, Reading};
use crate::stats::{within_bound, Summary};
use crate::workloads::{self, WorkloadDef};
use crate::{out_dir, Cli};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// `M <name> = <median> <unit> q1 <q1> q3 <q3> n <n>` — one metric, by
/// name, with its unit and the quartiles beside the median. Numbers are
/// printed with all their digits (`f64`'s shortest round-trip form), so
/// the parent reads back exactly what the child measured.
pub fn metric_line(r: &Reading) -> String {
    let s = &r.summary;
    format!(
        "M {} = {} {} q1 {} q3 {} n {}",
        r.name, s.median, r.unit, s.q1, s.q3, s.n
    )
}

fn parse_metric_line(line: &str) -> Option<(String, String, Summary)> {
    let t: Vec<&str> = line.split_whitespace().collect();
    match t[..] {
        ["M", name, "=", median, unit, "q1", q1, "q3", q3, "n", n] => Some((
            name.to_string(),
            unit.to_string(),
            Summary {
                n: n.parse().ok()?,
                median: median.parse().ok()?,
                q1: q1.parse().ok()?,
                q3: q3.parse().ok()?,
            },
        )),
        _ => None,
    }
}

/// The contract's result object, on one line.
pub fn result_json(correct: bool, out: &PassOut) -> String {
    let metrics: Vec<String> = out
        .readings
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                json_num(r.summary.median),
                r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; a metric that is one is a bug worth
/// seeing, so it prints as null and fails any numeric reader loudly.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What one workload's two passes reported.
#[derive(Debug, Default, Clone)]
pub struct WorkloadResult {
    pub metrics: BTreeMap<String, (String, Summary)>,
    /// `I` lines, keyed `<pass>.<key>`.
    pub info: BTreeMap<String, String>,
    pub ok: bool,
}

/// Runs one pass in a child process, echoing its output.
fn child_pass(cli: &Cli, def: &WorkloadDef, trace: bool, into: &mut WorkloadResult) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("iqbench: cannot find my own executable: {e}");
            return false;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", def.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if cli.quick {
        cmd.arg("--quick");
    }
    // `output()` waits for the child and reaps it.
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("iqbench: cannot run the {} pass: {e}", def.name);
            return false;
        }
    };
    let pass = if trace { "per_layer" } else { "end_to_end" };
    let text = String::from_utf8_lossy(&output.stdout);
    for line in text.lines() {
        if let Some((name, unit, summary)) = parse_metric_line(line) {
            into.metrics.insert(name, (unit, summary));
        } else if let Some((key, value)) = line.strip_prefix("I ").and_then(|l| l.split_once(" = "))
        {
            into.info.insert(format!("{pass}.{key}"), value.to_string());
        }
        // The JSON line is for the driver; the ledger prints a table.
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    output.status.success()
}

pub type Results = BTreeMap<&'static str, WorkloadResult>;

fn run_once(cli: &Cli) -> Results {
    let selected: Vec<&WorkloadDef> = match cli.workload {
        Some(def) => vec![def],
        None => workloads::ALL.to_vec(),
    };
    let mut results = Results::new();
    for def in selected {
        let mut r = WorkloadResult::default();
        let e2e_ok = child_pass(cli, def, false, &mut r);
        let layer_ok = child_pass(cli, def, true, &mut r);
        r.ok = e2e_ok && layer_ok;
        println!();
        results.insert(def.name, r);
    }
    results
}

fn print_table(results: &Results) {
    let names: Vec<&str> = workloads::ALL
        .iter()
        .map(|w| w.name)
        .filter(|n| results.contains_key(n))
        .collect();
    let row = |name: &str, unit: &str| {
        let mut line = format!("{name:<44} {unit:<7}");
        for w in &names {
            match results[w].metrics.get(name) {
                Some((_, s)) => {
                    let _ = write!(line, " {:>18}", short(s.median));
                }
                None => {
                    let _ = write!(line, " {:>18}", "-");
                }
            }
        }
        println!("{line}");
    };
    let mut header = format!("{:<44} {:<7}", "metric (median)", "unit");
    for w in &names {
        let _ = write!(header, " {w:>18}");
    }
    println!("== end to end (untraced repetitions only) ==\n{header}");
    for m in &E2E {
        row(m.name, m.unit);
    }
    println!("\n== per layer (traced pass) ==\n{header}");
    for m in &LAYERS {
        row(m.name, m.unit);
    }
    println!();
    for w in &names {
        let r = &results[w];
        let get = |k: &str| r.info.get(k).map_or("-", String::as_str);
        println!(
            "{w}: {}  digest {}  reps {}  sim packets failed/attempted {}/{}  noisy {}/{}",
            if r.ok { "correct" } else { "FAILED" },
            get("end_to_end.digest"),
            get("end_to_end.reps"),
            get("end_to_end.sim_packets_failed"),
            get("end_to_end.sim_packets_attempted"),
            get("end_to_end.noisy"),
            get("per_layer.noisy"),
        );
    }
}

/// Four significant digits for the table (the `M` lines and
/// `result.json` keep every digit).
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1.0e6 || v.abs() < 1.0e-3 {
        format!("{v:.3e}")
    } else {
        let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 6) as usize;
        format!("{v:.digits$}")
    }
}

fn result_json_file(cli: &Cli, results: &Results) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"seed\": {}, \"seconds\": {}, \"quick\": {},",
        cli.seed, cli.seconds, cli.quick
    );
    out.push_str("  \"workloads\": [\n");
    let defs: Vec<String> = workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}, \"params\": {}}}",
                json_str(w.name),
                json_str(w.why),
                json_str(&w.params.split_whitespace().collect::<Vec<_>>().join(" "))
            )
        })
        .collect();
    out.push_str(&defs.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = E2E
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"kind\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                json_str(m.kind.name()),
                m.bound
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = LAYERS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"layer\": {}, \"source\": {}, \"moves\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                json_str(&m.layer()),
                json_str(m.source.name()),
                json_str(m.moves)
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ],\n  \"results\": {\n");
    let per_workload: Vec<String> = results
        .iter()
        .map(|(w, r)| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(name, (unit, s))| {
                    format!(
                        "        {}: {{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"unit\": {}}}",
                        json_str(name),
                        s.n,
                        json_num(s.median),
                        json_num(s.q1),
                        json_num(s.q3),
                        json_str(unit)
                    )
                })
                .collect();
            let info: Vec<String> = r
                .info
                .iter()
                .map(|(k, v)| format!("        {}: {}", json_str(k), json_str(v)))
                .collect();
            format!(
                "    {}: {{\n      \"correct\": {},\n      \"metrics\": {{\n{}\n      }},\n      \"info\": {{\n{}\n      }}\n    }}",
                json_str(w),
                r.ok,
                metrics.join(",\n"),
                info.join(",\n")
            )
        })
        .collect();
    out.push_str(&per_workload.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// One disagreement between two runs of the same code.
fn repeat_problems(a: &Results, b: &Results) -> Vec<String> {
    let mut problems = Vec::new();
    for (w, ra) in a {
        let rb = &b[w];
        let value = |r: &WorkloadResult, name: &str| r.metrics.get(name).map(|(_, s)| s.median);
        let mut differ = |name: &str, what: &str| {
            problems.push(format!(
                "{w} {name}: {:?} vs {:?} ({what})",
                value(ra, name),
                value(rb, name)
            ));
        };
        for m in &E2E {
            let (Some(x), Some(y)) = (value(ra, m.name), value(rb, m.name)) else {
                differ(m.name, "missing");
                continue;
            };
            match m.kind {
                // Simulated metrics are deterministic: any difference.
                Kind::Sim if x.to_bits() != y.to_bits() => {
                    differ(m.name, "simulated metric must repeat exactly")
                }
                // Host metrics: neither run may be worse than the other
                // by more than the metric's own bound.
                Kind::Host
                    if !(within_bound(x, y, m.better, m.bound)
                        && within_bound(y, x, m.better, m.bound)) =>
                {
                    differ(m.name, &format!("beyond the bound of {}", m.bound));
                }
                _ => {}
            }
        }
        for m in LAYERS.iter().filter(|m| m.source == Source::Count) {
            if value(ra, m.name).map(f64::to_bits) != value(rb, m.name).map(f64::to_bits) {
                differ(m.name, "count must repeat exactly");
            }
        }
        for key in ["end_to_end.digest", "per_layer.digest"] {
            if ra.info.get(key) != rb.info.get(key) {
                problems.push(format!(
                    "{w} {key}: {:?} vs {:?}",
                    ra.info.get(key),
                    rb.info.get(key)
                ));
            }
        }
    }
    problems
}

pub fn run(cli: &Cli) -> ExitCode {
    let first = run_once(cli);
    print_table(&first);
    let dir = out_dir();
    let path = dir.join("result.json");
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, result_json_file(cli, &first)))
    {
        Ok(()) => println!("\nledger written to {}", path.display()),
        Err(e) => {
            eprintln!("iqbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let mut ok = first.values().all(|r| r.ok);
    if cli.check_repeat {
        println!("\n== --check-repeat: second run ==");
        let second = run_once(cli);
        ok &= second.values().all(|r| r.ok);
        let problems = repeat_problems(&first, &second);
        for p in &problems {
            println!("REPEAT {p}");
        }
        println!(
            "check-repeat: {}",
            if problems.is_empty() {
                "the two runs agree within the benchmark's bounds"
            } else {
                "FAILED"
            }
        );
        ok &= problems.is_empty();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn metric_lines_round_trip_every_digit() {
        let r = Reading {
            name: "wall_ns_per_pkt",
            unit: "ns",
            summary: summarize(&[1880.123456789012, 1875.1, 0.1 + 0.2]),
        };
        let (name, unit, s) = parse_metric_line(&metric_line(&r)).unwrap();
        assert_eq!((name.as_str(), unit.as_str()), ("wall_ns_per_pkt", "ns"));
        assert_eq!(s, r.summary);
        assert!(parse_metric_line("I digest = 00ff").is_none());
        assert!(parse_metric_line("M broken line").is_none());
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let out = PassOut {
            readings: vec![Reading {
                name: "setup_s",
                unit: "s",
                summary: Summary::exact(0.8127),
            }],
            info: Vec::new(),
            attempted: 12,
            failed: 0,
            problems: Vec::new(),
        };
        assert_eq!(
            result_json(true, &out),
            r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_num(f64::NAN), "null");
    }

    fn results(wall: f64, lemma: f64, drops: f64, digest: &str) -> Results {
        let mut r = WorkloadResult {
            ok: true,
            ..WorkloadResult::default()
        };
        for m in &E2E {
            let v = match m.name {
                "wall_ns_per_pkt" => wall,
                "lemma1_ok_share" => lemma,
                _ => 1.0,
            };
            r.metrics
                .insert(m.name.to_string(), (m.unit.to_string(), Summary::exact(v)));
        }
        for m in LAYERS.iter().filter(|m| m.source == Source::Count) {
            let v = if m.name == "core.queues.drops" {
                drops
            } else {
                0.0
            };
            r.metrics
                .insert(m.name.to_string(), (m.unit.to_string(), Summary::exact(v)));
        }
        r.info
            .insert("end_to_end.digest".to_string(), digest.to_string());
        r.info
            .insert("per_layer.digest".to_string(), digest.to_string());
        Results::from([("fig8_smartpointer", r)])
    }

    #[test]
    fn check_repeat_compares_by_kind() {
        let base = results(1000.0, 0.95, 3.0, "aa");
        assert!(repeat_problems(&base, &base).is_empty());
        // Host time may move within its bound, in either direction …
        assert!(repeat_problems(&base, &results(1050.0, 0.95, 3.0, "aa")).is_empty());
        assert!(repeat_problems(&base, &results(960.0, 0.95, 3.0, "aa")).is_empty());
        // … but not beyond it, whichever run was the slow one.
        assert_eq!(
            repeat_problems(&base, &results(1300.0, 0.95, 3.0, "aa")).len(),
            1
        );
        assert_eq!(
            repeat_problems(&results(1300.0, 0.95, 3.0, "aa"), &base).len(),
            1
        );
        // Simulated metrics, counts and digests: any difference at all.
        assert_eq!(
            repeat_problems(&base, &results(1000.0, 0.9500001, 3.0, "aa")).len(),
            1
        );
        assert_eq!(
            repeat_problems(&base, &results(1000.0, 0.95, 4.0, "aa")).len(),
            1
        );
        assert_eq!(
            repeat_problems(&base, &results(1000.0, 0.95, 3.0, "ab")).len(),
            2
        );
    }
}
