//! Shuffle throughput benchmark: triangle enumeration through the multiway
//! join on a G(n, p) graph, swept over engine thread counts.
//!
//! Every one of the repo's strategies funnels through the engine's shuffle,
//! so this is the perf trajectory of the layer the whole reproduction runs
//! on. The sweep runs the same workload at `threads ∈ {1, 2, 4, 8}`, writes
//! the timings to `BENCH_shuffle.json` at the repository root (so the numbers
//! are tracked in-tree, PR over PR; the quick CI mode writes a scratch file
//! under `target/` instead so it cannot clobber the tracked trajectory),
//! validates that the file parses as JSON, and renders a `reproduce shuffle`
//! table.
//!
//! Two entry points share the implementation: the `shuffle_throughput` bench
//! target (`cargo bench -p subgraph-bench --bench shuffle_throughput`,
//! `-- --quick` for the CI smoke mode) and
//! `cargo run -p subgraph-bench --bin reproduce -- shuffle`.

use crate::report::{fmt, Table};
use std::time::Instant;
use subgraph_core::plan::{EnumerationRequest, StrategyKind};
use subgraph_graph::generators;
use subgraph_mapreduce::EngineConfig;
use subgraph_pattern::catalog;

/// Thread counts the sweep measures.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One measured thread-count configuration.
#[derive(Clone, Debug)]
pub struct ShuffleSample {
    /// Engine thread count.
    pub threads: usize,
    /// Mean wall time per run on the persistent worker pool, in seconds.
    pub mean_secs: f64,
    /// Fastest pooled run, in seconds.
    pub min_secs: f64,
    /// True when this configuration asks for more threads than the host
    /// reports as available parallelism; its timing measures contention,
    /// not scaling, and the scaling gate ignores it.
    pub oversubscribed: bool,
    /// Key-value pairs shipped through the shuffle per run.
    pub shuffle_records: usize,
    /// Triangles found (sanity anchor: identical across thread counts).
    pub outputs: usize,
}

/// The full sweep outcome.
#[derive(Clone, Debug)]
pub struct ShuffleBenchReport {
    /// `"quick"` (CI smoke) or `"full"`.
    pub mode: &'static str,
    /// Nodes of the G(n, p) graph.
    pub n: usize,
    /// Edge probability of the G(n, p) graph.
    pub p: f64,
    /// Generator seed.
    pub seed: u64,
    /// Edges of the generated graph.
    pub edges: usize,
    /// Reducer budget handed to the planner (the multiway join turns it into
    /// `b = budget^{1/3}` buckets).
    pub reducer_budget: usize,
    /// Timed runs per thread count (after one untimed warm-up).
    pub runs: usize,
    /// What `std::thread::available_parallelism` reported on the benchmarking
    /// host — the context needed to read the speedup column.
    pub available_parallelism: usize,
    /// One entry per swept thread count, in [`THREAD_COUNTS`] order.
    pub samples: Vec<ShuffleSample>,
}

impl ShuffleBenchReport {
    /// End-to-end speedup of the widest configuration over single-threaded
    /// (mean over mean).
    pub fn speedup_widest_over_single(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(single), Some(widest)) if widest.mean_secs > 0.0 => {
                single.mean_secs / widest.mean_secs
            }
            _ => 0.0,
        }
    }

    /// Renders the `reproduce shuffle` table.
    pub fn table(&self) -> String {
        let mut table = Table::new(
            "Shuffle throughput — multiway triangle join, two-phase parallel exchange",
            &[
                "threads",
                "pool mean (s)",
                "min (s)",
                "records/s (mean)",
                "speedup vs 1",
            ],
        );
        let single_mean = self.samples.first().map(|s| s.mean_secs).unwrap_or(0.0);
        for sample in &self.samples {
            let records_per_sec = if sample.mean_secs > 0.0 {
                sample.shuffle_records as f64 / sample.mean_secs
            } else {
                0.0
            };
            let speedup = if sample.mean_secs > 0.0 {
                single_mean / sample.mean_secs
            } else {
                0.0
            };
            table.row(&[
                format!(
                    "{}{}",
                    sample.threads,
                    if sample.oversubscribed { "*" } else { "" }
                ),
                format!("{:.4}", sample.mean_secs),
                format!("{:.4}", sample.min_secs),
                fmt(records_per_sec),
                format!("{speedup:.2}x"),
            ]);
        }
        if self.samples.iter().any(|s| s.oversubscribed) {
            table.note(&format!(
                "* oversubscribed: more threads than the host's available parallelism ({})",
                self.available_parallelism,
            ));
        }
        table.note(&format!(
            "{} mode: G(n = {}, p = {}) seed {} -> m = {}, reducer budget {}, {} runs per point; \
             host parallelism {}; written to {}",
            self.mode,
            self.n,
            self.p,
            self.seed,
            self.edges,
            self.reducer_budget,
            self.runs,
            self.available_parallelism,
            if self.mode == "quick" {
                "target/BENCH_shuffle.quick.json"
            } else {
                "BENCH_shuffle.json"
            },
        ));
        table.render()
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"shuffle_throughput\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str("  \"workload\": {\n");
        out.push_str("    \"graph\": \"gnp\",\n");
        out.push_str(&format!("    \"n\": {},\n", self.n));
        out.push_str(&format!("    \"p\": {},\n", self.p));
        out.push_str(&format!("    \"seed\": {},\n", self.seed));
        out.push_str(&format!("    \"edges\": {},\n", self.edges));
        out.push_str("    \"strategy\": \"multiway-triangles\",\n");
        out.push_str(&format!(
            "    \"reducer_budget\": {}\n",
            self.reducer_budget
        ));
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"host\": {{ \"available_parallelism\": {} }},\n",
            self.available_parallelism
        ));
        out.push_str(&format!("  \"runs_per_thread_count\": {},\n", self.runs));
        out.push_str("  \"results\": [\n");
        for (i, sample) in self.samples.iter().enumerate() {
            let records_per_sec = if sample.mean_secs > 0.0 {
                sample.shuffle_records as f64 / sample.mean_secs
            } else {
                0.0
            };
            out.push_str(&format!(
                "    {{ \"threads\": {}, \"mean_secs\": {:.6}, \"min_secs\": {:.6}, \
                 \"oversubscribed\": {}, \"shuffle_records\": {}, \"records_per_sec\": {:.1}, \
                 \"outputs\": {} }}{}\n",
                sample.threads,
                sample.mean_secs,
                sample.min_secs,
                sample.oversubscribed,
                sample.shuffle_records,
                records_per_sec,
                sample.outputs,
                if i + 1 == self.samples.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"speedup_8_over_1\": {:.3}\n",
            self.speedup_widest_over_single()
        ));
        out.push_str("}\n");
        out
    }
}

/// Runs the sweep. `quick` shrinks the workload and repetition count to a CI
/// smoke test; the full mode is the tracked benchmark.
pub fn run_shuffle_bench(quick: bool) -> ShuffleBenchReport {
    // Full mode is sized so one run spends hundreds of milliseconds in the
    // engine — large enough that partition/group work, not thread spawning,
    // dominates, so the thread sweep measures the shuffle itself.
    let (mode, n, p, runs, reducer_budget) = if quick {
        ("quick", 220usize, 0.04f64, 2usize, 216usize) // b = 6
    } else {
        ("full", 2_000usize, 0.01f64, 5usize, 512usize) // b = 8
    };
    let seed = 20_260_731u64;
    let graph = generators::gnp(n, p, seed);

    let available_parallelism = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let mut samples = Vec::with_capacity(THREAD_COUNTS.len());
    for threads in THREAD_COUNTS {
        let run = || {
            EnumerationRequest::new(catalog::triangle(), &graph)
                .reducers(reducer_budget)
                .strategy(StrategyKind::MultiwayTriangles)
                .engine(EngineConfig::with_threads(threads))
                .plan()
                .expect("multiway applies to the triangle pattern")
                .execute()
        };
        // untimed warm-up: page in the graph and code paths
        let warmup = run();
        let pooled: Vec<f64> = (0..runs)
            .map(|_| {
                let start = Instant::now();
                let report = run();
                let secs = start.elapsed().as_secs_f64();
                assert_eq!(report.count(), warmup.count(), "thread-count invariance");
                secs
            })
            .collect();
        let metrics = warmup.metrics.as_ref().expect("map-reduce strategy");
        samples.push(ShuffleSample {
            threads,
            mean_secs: pooled.iter().sum::<f64>() / pooled.len() as f64,
            min_secs: pooled.iter().cloned().fold(f64::INFINITY, f64::min),
            oversubscribed: threads > available_parallelism,
            shuffle_records: metrics.shuffle_records,
            outputs: warmup.count(),
        });
    }

    ShuffleBenchReport {
        mode,
        n,
        p,
        seed,
        edges: graph.num_edges(),
        reducer_budget,
        runs,
        available_parallelism,
        samples,
    }
}

/// The multi-core scaling gate behind `reproduce shuffle-gate`: runs the
/// quick sweep and *fails* (returns `Err`) when the persistent-pool engine
/// does not scale on a multi-core host — the regression this PR's tentpole
/// fixed was every multi-threaded configuration running *slower* than one
/// thread. On hosts with fewer than 4 cores the gate degrades to an
/// informational pass: there is no parallelism to measure.
pub fn shuffle_gate() -> Result<String, String> {
    let report = run_shuffle_bench(true);
    let mut out = report.table();
    if report.available_parallelism < 4 {
        out.push_str(&format!(
            "
scaling gate skipped: available parallelism {} < 4 — nothing to assert
",
            report.available_parallelism,
        ));
        return Ok(out);
    }
    // Same-speed noise allowance: a non-oversubscribed thread count may be up
    // to this factor slower than single-threaded before the gate trips.
    const TOLERANCE: f64 = 1.15;
    let speedup = report.speedup_widest_over_single();
    if speedup < 1.0 {
        return Err(format!(
            "{out}
scaling gate FAILED: speedup_8_over_1 = {speedup:.3} < 1.0              (the multi-thread slowdown is back)
"
        ));
    }
    let single_mean = report.samples.first().map(|s| s.mean_secs).unwrap_or(0.0);
    for sample in &report.samples {
        if !sample.oversubscribed && sample.mean_secs > single_mean * TOLERANCE {
            return Err(format!(
                "{out}
scaling gate FAILED: threads={} mean {:.4}s is slower than                  single-threaded {:.4}s (tolerance {:.0}%)
",
                sample.threads,
                sample.mean_secs,
                single_mean,
                (TOLERANCE - 1.0) * 100.0,
            ));
        }
    }
    out.push_str(&format!(
        "
scaling gate passed: speedup_8_over_1 = {speedup:.3}, no non-oversubscribed          thread count slower than 1 thread
"
    ));
    Ok(out)
}

/// Path of the tracked benchmark file: `BENCH_shuffle.json` at the repo root.
/// Only the full-mode sweep writes here.
pub fn bench_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_shuffle.json")
}

/// Scratch path the quick (CI smoke) sweep writes to, under the untracked
/// `target/` directory — so running the smoke command locally can never
/// overwrite the tracked full-mode trajectory.
pub fn quick_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_shuffle.quick.json")
}

/// The path [`shuffle_throughput`] writes for the given mode.
pub fn output_json_path(quick: bool) -> std::path::PathBuf {
    if quick {
        quick_json_path()
    } else {
        bench_json_path()
    }
}

/// Runs the sweep and writes its JSON — `BENCH_shuffle.json` at the
/// repository root in full mode, a scratch file under `target/` in quick
/// mode. The written file is re-read and validated, and quick mode
/// additionally validates the tracked repo-root file when present; any
/// malformed JSON panics, which is what fails the CI smoke step. Returns the
/// rendered table.
pub fn shuffle_throughput(quick: bool) -> String {
    let report = run_shuffle_bench(quick);
    let path = output_json_path(quick);
    std::fs::write(&path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    let written = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot re-read {}: {e}", path.display()));
    validate_json(&written).unwrap_or_else(|e| panic!("{} is malformed JSON: {e}", path.display()));
    if quick {
        let tracked = bench_json_path();
        if let Ok(contents) = std::fs::read_to_string(&tracked) {
            validate_json(&contents)
                .unwrap_or_else(|e| panic!("{} is malformed JSON: {e}", tracked.display()));
        }
    }
    report.table()
}

/// A minimal JSON well-formedness check (objects, arrays, strings, numbers,
/// booleans, null) — enough to fail CI when the benchmark writes a broken
/// file, with zero dependencies.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true"),
        Some(b'f') => parse_literal(bytes, pos, "false"),
        Some(b'n') => parse_literal(bytes, pos, "null"),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    while let Some(&byte) = bytes.get(*pos) {
        *pos += 1;
        match byte {
            b'"' => return Ok(()),
            b'\\' => *pos += 1, // skip the escaped byte
            _ => {}
        }
    }
    Err("unterminated string".into())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while let Some(&byte) = bytes.get(*pos) {
        if byte.is_ascii_digit() || matches!(byte, b'.' | b'e' | b'E' | b'+' | b'-') {
            digits += 1;
            *pos += 1;
        } else {
            break;
        }
    }
    if digits == 0 {
        return Err(format!("expected a number at byte {start}"));
    }
    text_is_number(&bytes[start..*pos])
}

fn text_is_number(slice: &[u8]) -> Result<(), String> {
    std::str::from_utf8(slice)
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(|_| ())
        .ok_or_else(|| format!("invalid number {:?}", String::from_utf8_lossy(slice)))
}

/// Keeps the quick workload honest: the thread counts and result shape of the
/// JSON payload are pinned by tests below without touching the tracked file.
#[cfg(test)]
mod tests {
    use super::*;

    fn micro_report() -> ShuffleBenchReport {
        ShuffleBenchReport {
            mode: "quick",
            n: 10,
            p: 0.1,
            seed: 1,
            edges: 4,
            reducer_budget: 8,
            runs: 1,
            available_parallelism: 1,
            samples: THREAD_COUNTS
                .iter()
                .map(|&threads| ShuffleSample {
                    threads,
                    mean_secs: 0.5 / threads as f64,
                    min_secs: 0.4 / threads as f64,
                    oversubscribed: threads > 1,
                    shuffle_records: 100,
                    outputs: 3,
                })
                .collect(),
        }
    }

    #[test]
    fn report_json_is_well_formed_and_speedup_is_derived() {
        let report = micro_report();
        assert!((report.speedup_widest_over_single() - 8.0).abs() < 1e-9);
        let json = report.to_json();
        validate_json(&json).expect("generated JSON must validate");
        assert!(json.contains("\"min_secs\""));
        assert!(json.contains("\"oversubscribed\": true"));
        let table = report.table();
        assert!(table.contains("threads"));
        assert!(table.contains("pool mean (s)"));
        assert!(table.contains("8*"), "oversubscribed rows are starred");
    }

    #[test]
    fn oversubscription_is_derived_from_host_parallelism() {
        let report = run_shuffle_bench(true);
        for sample in &report.samples {
            assert_eq!(
                sample.oversubscribed,
                sample.threads > report.available_parallelism,
                "threads={}",
                sample.threads,
            );
        }
    }

    #[test]
    fn scaling_gate_skips_or_passes_on_this_host() {
        // On a < 4-core host the gate must degrade to an informational pass;
        // on a >= 4-core host the pooled engine must actually scale. Either
        // way `Err` means a regression.
        let verdict = shuffle_gate();
        assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    #[test]
    fn validator_accepts_json_and_rejects_garbage() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e3",
            r#"{"a": [1, 2.0, true, "x\"y", null], "b": {"c": []}}"#,
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good:?} rejected: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} extra",
            "1.2.3",
            "nul",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn quick_sweep_runs_and_is_thread_count_invariant() {
        let report = run_shuffle_bench(true);
        assert_eq!(report.samples.len(), THREAD_COUNTS.len());
        let outputs: Vec<usize> = report.samples.iter().map(|s| s.outputs).collect();
        assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
        assert!(report.samples.iter().all(|s| s.min_secs > 0.0));
        validate_json(&report.to_json()).expect("sweep JSON must validate");
    }
}
