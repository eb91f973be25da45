//! What the harness reads from the host: process CPU time and peak memory
//! from `/proc`, and the facts every output records beside its numbers.

use std::process::Command;
use std::time::Instant;

/// User + system CPU seconds this process (all threads) has used, from
/// `/proc/self/stat` fields 14 and 15 at the kernel's fixed 100 ticks/s.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from its ")".
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall-clock and CPU seconds of one timed stretch.
#[derive(Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu = process_cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu;
    (out, Timed { wall_s, cpu_s })
}

/// Engine threads of every workload: all the cores the host grants.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `"key":value` pairs describing the host, for every output file: the
/// tracked `BENCH_*.json` sweeps were recorded on a 1-core host and nothing
/// in them said so.
pub fn facts_json() -> String {
    format!(
        "\"nproc\":\"{}\",\"available_parallelism\":{},\"rustc\":\"{}\",\"git_commit\":\"{}\"",
        command_line("nproc", &[]),
        threads(),
        command_line("rustc", &["--version"]),
        command_line(
            "git",
            &[
                "-C",
                &crate::manifest_dir().to_string_lossy(),
                "rev-parse",
                "HEAD"
            ]
        ),
    )
}
