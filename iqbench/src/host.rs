//! Host-side measurements: peak memory, CPU time, and the two
//! calibration numbers that let results be compared across machines.

use iqpaths_simnet::fault::splitmix64;
use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size of this process so far, in MB (`VmHWM` of
/// `/proc/self/status`; 0 off Linux).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process (from
/// `/proc/self/stat`, in the kernel's 100 Hz ticks; 0 off Linux).
pub fn cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th of the whole line.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// Nanoseconds per iteration of a fixed dependent splitmix64 chain —
/// pure ALU work, so `wall_ns_per_pkt ÷ calib_ns` is a ratio that
/// travels between machines. Best of five 1M-iteration rounds.
pub fn calib_ns() -> f64 {
    const ITERS: u64 = 1 << 20;
    (0..5)
        .map(|round| {
            let t = Instant::now();
            let mut x = black_box(round);
            for _ in 0..ITERS {
                x = splitmix64(x);
            }
            black_box(x);
            t.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Cost of one back-to-back `Instant::now()` pair, i.e. what every
/// decorated call pays for being timed. Best of five rounds.
pub fn timer_ns() -> f64 {
    const ITERS: u32 = 200_000;
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ITERS {
                let a = Instant::now();
                let b = Instant::now();
                black_box(b.duration_since(a));
            }
            t.elapsed().as_nanos() as f64 / f64::from(ITERS)
        })
        .fold(f64::INFINITY, f64::min)
}
