//! # iqpaths-bench — experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation (see
//! `DESIGN.md` §4 for the index and `EXPERIMENTS.md` for recorded
//! results). Every harness prints the rows/series the paper reports and
//! writes CSVs under `target/experiments/`.
//!
//! Environment knobs (all harnesses):
//! * `IQP_DURATION` — measured seconds per run (default 150, the
//!   paper's timescale; use ~20 for quick smoke runs).
//! * `IQP_SEED` — cross-traffic / probe seed (default 42).
//!
//! A knob that is set but does not parse ends the run with an error
//! naming the variable and the value; only an unset knob defaults.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::io::Write;
use std::path::PathBuf;

/// Default experiment duration in seconds.
pub const DEFAULT_DURATION: f64 = 150.0;
/// Default seed.
pub const DEFAULT_SEED: u64 = 42;

/// Parses one environment knob: unset (`None`) yields `default`; a set
/// value must parse, else the error names the variable and the value.
fn parse_knob<T: std::str::FromStr>(
    name: &str,
    raw: Option<&str>,
    default: T,
) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?} is not a valid value")),
    }
}

/// Reads and parses one environment knob. A set but unparsable value
/// ends the process (exit status 2) with the error on stderr, instead
/// of silently running the default experiment.
fn env_knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Reads the run duration from `IQP_DURATION` (exits with an error when
/// it is set but is not a number).
pub fn duration() -> f64 {
    env_knob("IQP_DURATION", DEFAULT_DURATION)
}

/// Reads the seed from `IQP_SEED` (exits with an error when it is set
/// but is not an unsigned integer).
pub fn seed() -> u64 {
    env_knob("IQP_SEED", DEFAULT_SEED)
}

/// The experiment output directory (`target/experiments`), created on
/// first use.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Writes a CSV artifact and logs where it went.
pub fn write_artifact(name: &str, contents: &str) {
    let path = out_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create artifact");
    f.write_all(contents.as_bytes()).expect("write artifact");
    println!("  [artifact] {}", path.display());
}

/// Builds a standard Figure 8 experiment with env-provided knobs.
pub fn experiment() -> iqpaths_middleware::builder::Figure8Experiment {
    iqpaths_middleware::builder::Figure8Experiment::new(seed(), duration())
}

/// Formats bits/s as Mbps with two decimals.
pub fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1.0e6)
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_defaults() {
        // Unset knobs take the defaults; set ones parse.
        use super::{parse_knob, DEFAULT_DURATION, DEFAULT_SEED};
        assert_eq!(
            parse_knob("IQP_DURATION", None, DEFAULT_DURATION),
            Ok(DEFAULT_DURATION)
        );
        assert_eq!(parse_knob("IQP_SEED", None, DEFAULT_SEED), Ok(DEFAULT_SEED));
        assert_eq!(
            parse_knob("IQP_DURATION", Some("20"), DEFAULT_DURATION),
            Ok(20.0)
        );
        assert_eq!(parse_knob("IQP_SEED", Some("7"), DEFAULT_SEED), Ok(7));
    }

    #[test]
    fn unparsable_env_values_are_errors_naming_the_variable_and_value() {
        use super::{parse_knob, DEFAULT_DURATION, DEFAULT_SEED};
        let e = parse_knob("IQP_DURATION", Some("abc"), DEFAULT_DURATION).unwrap_err();
        assert!(e.contains("IQP_DURATION") && e.contains("abc"), "{e}");
        let e = parse_knob("IQP_SEED", Some("1e3"), DEFAULT_SEED).unwrap_err();
        assert!(e.contains("IQP_SEED") && e.contains("1e3"), "{e}");
        // Set-but-empty is set: it must not fall back to the default.
        assert!(parse_knob("IQP_SEED", Some(""), DEFAULT_SEED).is_err());
    }

    #[test]
    fn mbps_formatting() {
        assert_eq!(super::mbps(3_249_000.0), "3.25");
    }

    #[test]
    fn out_dir_is_created() {
        let d = super::out_dir();
        assert!(d.exists());
    }
}
