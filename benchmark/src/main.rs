//! The repo benchmark. See README.md for the workloads, the metrics and why
//! the runs are shaped the way they are.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark all   [--seed <n>] [--seconds <s>]
//! benchmark trace <workload> [--seed <n>] [--seconds <s>]
//! benchmark agree [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form measures one workload and prints, as its last line, the
//! JSON result object `BENCHMARK.json`'s contract describes. Every form
//! builds the workload's fixture in child processes, runs the queries in one
//! more, and checks every answer against the fixture's oracle.

mod fixture;
mod host;
mod run;
mod serve_mix;
mod spec;
mod stats;
mod trace;

use fixture::Error;
use spec::{unit_of, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Seconds one run measures when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const RUN_SECONDS: f64 = 14.0;

/// Fixture builds stop at three, or earlier when one more would take their
/// total past this.
const SETUP_BUDGET_SECONDS: f64 = 3.0;

/// The benchmark's own directory (`cargo run` exports it; the compile-time
/// value serves a binary started by hand).
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(error) => {
            eprintln!("benchmark: {error}");
            2
        }
    };
    std::process::exit(code);
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[&str]) -> Result<Options, Error> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut args = args.iter();
    while let Some(&flag) = args.next() {
        let value = *args.next().ok_or(format!("{flag} needs a value"))?;
        match flag {
            "--workload" => options.workload = Some(value.to_string()),
            "--seed" => options.seed = value.parse()?,
            "--seconds" => options.seconds = value.parse()?,
            "--trace" => options.trace = value == "1",
            other => return Err(format!("unknown option {other}").into()),
        }
    }
    Ok(options)
}

fn find_workload(name: &str) -> Result<&'static Workload, Error> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}").into()
    })
}

fn dispatch(args: &[&str]) -> Result<i32, Error> {
    match args {
        // Child processes of the harness itself.
        ["setup", workload, seed, dir] => {
            fixture::build(find_workload(workload)?, seed.parse()?, Path::new(dir))?;
            Ok(0)
        }
        ["run", workload, dir, seed, seconds, trace] => {
            run::run(
                find_workload(workload)?,
                Path::new(dir),
                seed.parse()?,
                seconds.parse()?,
                *trace == "1",
            )?;
            Ok(0)
        }
        // The `subgraph` binary, for the one-shot CLI probes.
        ["cli", rest @ ..] => Ok(subgraph_cli::run_main(rest)),

        ["all", rest @ ..] => {
            let options = parse_options(rest)?;
            let results = run_all(&options)?;
            Ok(i32::from(results.iter().any(|r| r.failed > 0)))
        }
        ["agree", rest @ ..] => agree(&parse_options(rest)?),
        ["trace", workload, rest @ ..] => {
            let options = parse_options(rest)?;
            let result = measure(find_workload(workload)?, &options, true)?;
            print_result(&result, true);
            print_flags(&result);
            Ok(i32::from(result.failed > 0))
        }
        [flag, ..] if flag.starts_with("--") => {
            let options = parse_options(args)?;
            let name = options
                .workload
                .as_deref()
                .ok_or("--workload is required")?;
            let result = measure(find_workload(name)?, &options, options.trace)?;
            print_result(&result, options.trace);
            println!("{}", contract_json(&result, options.trace));
            Ok(0)
        }
        _ => Err(
            "usage: benchmark all | trace <workload> | agree | --workload <name> \
                  --seed <n> --seconds <s> --trace <0|1>"
                .into(),
        ),
    }
}

/// One measured workload.
struct Measured {
    workload: &'static str,
    metrics: BTreeMap<String, Summary>,
    ops: usize,
    failed: usize,
}

impl Measured {
    fn median(&self, metric: &str) -> f64 {
        self.metrics.get(metric).map_or(0.0, |s| s.median)
    }
}

fn harness_child(args: &[&str]) -> Result<Command, Error> {
    let mut command = Command::new(std::env::current_exe()?);
    command.args(args);
    Ok(command)
}

/// Builds the fixture (several times over, for a steady `setup_s`), runs the
/// workload in a fresh process and collects its metric lines.
fn measure(workload: &'static Workload, options: &Options, trace: bool) -> Result<Measured, Error> {
    let dir = out_dir().join(format!("{}-seed{}", workload.name, options.seed));
    let dir_arg = dir.to_string_lossy().to_string();
    let seed = options.seed.to_string();

    let mut setups = Vec::new();
    let setup_started = Instant::now();
    loop {
        let started = Instant::now();
        let status = harness_child(&["setup", workload.name, &seed, &dir_arg])?.status()?;
        if !status.success() {
            return Err(format!("building the fixture of {} failed", workload.name).into());
        }
        let latest = started.elapsed().as_secs_f64();
        setups.push(latest);
        let spent = setup_started.elapsed().as_secs_f64();
        if trace || setups.len() >= 3 || spent + latest > SETUP_BUDGET_SECONDS {
            break;
        }
    }

    let seconds = options.seconds.to_string();
    let trace_arg = if trace { "1" } else { "0" };
    let output = harness_child(&["run", workload.name, &dir_arg, &seed, &seconds, trace_arg])?
        .stderr(Stdio::inherit())
        .output()?;
    std::fs::remove_dir_all(&dir)?;
    if !output.status.success() {
        return Err(format!("the run process of {} failed", workload.name).into());
    }

    let mut metrics = BTreeMap::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", name, median, q1, q3, n] = fields[..] {
            let summary = Summary {
                median: median.parse()?,
                q1: q1.parse()?,
                q3: q3.parse()?,
                n: n.parse()?,
            };
            metrics.insert(name.to_string(), summary);
        }
    }
    // Set-up is the fixture build plus, for the service, what its process
    // did before the first timed request (store open, spawn, warming).
    let mut setup = Summary::of(&setups);
    let boot = metrics.get("serve.boot_s").map_or(0.0, |s| s.median);
    (setup.median, setup.q1, setup.q3) = (setup.median + boot, setup.q1 + boot, setup.q3 + boot);
    metrics.insert("setup_s".to_string(), setup);

    let count = |name: &str| metrics.get(name).map_or(0.0, |s| s.median) as usize;
    Ok(Measured {
        workload: workload.name,
        ops: count("bench.ops"),
        failed: count("bench.failed_ops"),
        metrics,
    })
}

fn print_result(result: &Measured, trace: bool) {
    println!(
        "{:<18} {:<30} {:>9} {:>14} {:>14} {:>14} {:>5}",
        "workload", "metric", "unit", "median", "q1", "q3", "n"
    );
    let layers = PER_LAYER.iter().map(|m| m.0).filter(|_| trace);
    for name in END_TO_END.iter().map(|m| m.name).chain(layers) {
        if let Some(s) = result.metrics.get(name) {
            println!(
                "{:<18} {:<30} {:>9} {:>14.6} {:>14.6} {:>14.6} {:>5}",
                result.workload,
                name,
                unit_of(name),
                s.median,
                s.q1,
                s.q3,
                s.n
            );
        }
    }
    println!(
        "{:<18} ops {} failed_ops {}",
        result.workload, result.ops, result.failed
    );
}

/// The conditions the traced run is expected to hold, said out loud.
fn print_flags(result: &Measured) {
    let checks = [
        (
            "core.unaccounted_pct",
            5.0,
            "of core.execute_s is in no map/exchange/reduce phase",
        ),
        ("trace.overhead_pct", 3.0, "slower with spans recorded"),
    ];
    for (metric, limit, what) in checks {
        let value = result.median(metric);
        let verdict = if value > limit { "FLAG" } else { "ok" };
        println!("{verdict}: {metric} = {value:.2} % {what} (limit {limit} %)");
    }
    let error = result.median("core.prediction_error");
    let verdict = if error == 0.0 { "ok" } else { "FLAG" };
    println!("{verdict}: core.prediction_error = {error} (predicted / shipped records - 1)");
}

fn json_value(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The one-line result object of the driver contract.
fn contract_json(result: &Measured, trace: bool) -> String {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_value(result.median(name)),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.ops.max(1),
        result.failed,
        metrics.join(", ")
    )
}

/// Every workload, end to end (tracing off), with the results also written
/// to `out/results-seed<n>.json` beside the host's facts.
fn run_all(options: &Options) -> Result<Vec<Measured>, Error> {
    let mut results = Vec::new();
    for workload in &WORKLOADS {
        let result = measure(workload, options, false)?;
        print_result(&result, false);
        results.push(result);
    }
    let workloads: Vec<String> = results
        .iter()
        .map(|result| {
            let metrics: Vec<String> = END_TO_END
                .iter()
                .filter_map(|m| Some((m, result.metrics.get(m.name)?)))
                .map(|(m, s)| {
                    format!(
                        "\"{}\":{{\"unit\":\"{}\",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                        m.name,
                        m.unit,
                        json_value(s.median),
                        json_value(s.q1),
                        json_value(s.q3),
                        s.n
                    )
                })
                .collect();
            format!(
                "{{\"name\":\"{}\",\"ops\":{},\"failed_ops\":{},\"metrics\":{{{}}}}}",
                result.workload,
                result.ops,
                result.failed,
                metrics.join(",")
            )
        })
        .collect();
    let path = out_dir().join(format!("results-seed{}.json", options.seed));
    std::fs::write(
        &path,
        format!(
            "{{{},\"seed\":{},\"run_seconds\":{},\"claim\":null,\"workloads\":[\n{}\n]}}\n",
            host::facts_json(),
            options.seed,
            options.seconds,
            workloads.join(",\n")
        ),
    )?;
    println!("results written to {}", path.display());
    Ok(results)
}

/// Runs everything twice on the same code and holds the two sets of medians
/// against the bounds: a benchmark that cannot agree with itself cannot
/// judge a change.
fn agree(options: &Options) -> Result<i32, Error> {
    let first = run_all(options)?;
    let second = run_all(options)?;
    println!(
        "{:<18} {:<12} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut disagreements = 0;
    for (a, b) in first.iter().zip(&second) {
        for metric in &END_TO_END {
            let (x, y) = (a.median(metric.name), b.median(metric.name));
            let diff = (y - x).abs() / x;
            let verdict = if diff > metric.bound {
                disagreements += 1;
                "DISAGREE"
            } else {
                ""
            };
            println!(
                "{:<18} {:<12} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}% {verdict}",
                a.workload,
                metric.name,
                x,
                y,
                diff * 100.0,
                metric.bound * 100.0
            );
        }
    }
    let failed: usize = first.iter().chain(&second).map(|r| r.failed).sum();
    println!("{disagreements} disagreements, {failed} failed operations");
    Ok(i32::from(disagreements > 0 || failed > 0))
}
