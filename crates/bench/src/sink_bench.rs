//! Streaming-sink benchmark: count-only triangle enumeration on a large
//! `G(n, p)` graph (≥ 1M edges), swept over engine thread counts.
//!
//! This is the workload the sink refactor exists for: the instances flow
//! through a [`subgraph_core::sink::CountSink`], so the run allocates no
//! per-instance storage anywhere — the measured peak RSS is the graph plus
//! the shuffle, independent of how many instances exist. The sweep writes
//! `BENCH_sink.json` at the repository root (full mode) or a scratch file
//! under `target/` (quick CI mode), records peak RSS and throughput, and
//! validates that the JSON parses; a malformed file panics, which is what
//! fails the CI smoke step.
//!
//! Two entry points share the implementation: the `sink_throughput` bench
//! target (`cargo bench -p subgraph-bench --bench sink_throughput`,
//! `-- --quick` for CI) and `cargo run -p subgraph-bench --bin reproduce --
//! sink` / `sink-quick`.

use crate::report::{fmt, Table};
use crate::shuffle::validate_json;
use std::time::Instant;
use subgraph_core::plan::{EnumerationRequest, StrategyKind};
use subgraph_graph::{generators, GraphSource};
use subgraph_mapreduce::EngineConfig;

/// Wall-clock comparison of loading the same graph from a text edge list and
/// from the binary `.sgr` container (the `load_secs` column of
/// `BENCH_sink.json`). Both files are written to scratch paths under
/// `target/` and loaded through [`GraphSource`] — exactly the CLI's path, so
/// the text side pays parsing + hygiene and the binary side pays a header
/// validation plus an `mmap`.
#[derive(Clone, Debug)]
pub struct LoadSample {
    /// Fastest text edge-list load, in seconds.
    pub text_secs: f64,
    /// Fastest binary `.sgr` load, in seconds.
    pub sgr_secs: f64,
}

impl LoadSample {
    /// How many times faster the binary load is.
    pub fn speedup(&self) -> f64 {
        if self.sgr_secs > 0.0 {
            self.text_secs / self.sgr_secs
        } else {
            f64::INFINITY
        }
    }
}

/// Thread counts the sweep measures.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One measured thread-count configuration (count-only mode).
#[derive(Clone, Debug)]
pub struct SinkSample {
    /// Engine thread count.
    pub threads: usize,
    /// True when this configuration asks for more threads than the host's
    /// available parallelism — its timing measures contention, not scaling.
    pub oversubscribed: bool,
    /// Shuffle memory budget in bytes (0 = unbounded, the in-memory path).
    pub memory_budget: usize,
    /// Mean wall time per count-only run, in seconds.
    pub mean_secs: f64,
    /// Fastest run, in seconds.
    pub min_secs: f64,
    /// Key-value pairs shipped through the shuffle per run.
    pub shuffle_records: usize,
    /// Arena bytes spilled to disk runs per run (0 without a budget).
    pub spilled_bytes: u64,
    /// Instances counted by the sink (identical across thread counts and
    /// budgets).
    pub count: usize,
}

/// The full sweep outcome.
#[derive(Clone, Debug)]
pub struct SinkBenchReport {
    /// `"quick"` (CI smoke) or `"full"`.
    pub mode: &'static str,
    /// Nodes of the G(n, p) graph.
    pub n: usize,
    /// Edge probability.
    pub p: f64,
    /// Generator seed.
    pub seed: u64,
    /// Edges of the generated graph (≥ 1M in both modes).
    pub edges: usize,
    /// Reducer budget (the bucket-ordered join turns it into `b` buckets).
    pub reducer_budget: usize,
    /// Timed runs per thread count (after one untimed warm-up).
    pub runs: usize,
    /// `std::thread::available_parallelism` on the benchmarking host.
    pub available_parallelism: usize,
    /// Peak RSS of the process right after graph generation, in bytes
    /// (Linux `VmHWM`; `None` when the platform does not expose it). This is
    /// the baseline the sweep starts from: the graph itself.
    pub rss_after_generate_bytes: Option<u64>,
    /// Peak RSS of the whole process after the sweep (`VmHWM` is a
    /// process-lifetime high-water mark, so this includes generation).
    /// Count-only mode keeps the delta over the baseline flat in the
    /// instance count — the shuffle dominates, never the instances.
    pub peak_rss_bytes: Option<u64>,
    /// Text-vs-binary load timing for this graph (the `load_secs` column).
    pub load: LoadSample,
    /// One entry per swept thread count, in [`THREAD_COUNTS`] order.
    pub samples: Vec<SinkSample>,
}

impl SinkBenchReport {
    /// Renders the `reproduce sink` table.
    pub fn table(&self) -> String {
        let mut table = Table::new(
            "Streaming sink — count-only triangle enumeration, zero instance storage",
            &[
                "threads",
                "budget",
                "mean (s)",
                "min (s)",
                "records/s (mean)",
                "edges/s (mean)",
                "spilled (MiB)",
            ],
        );
        for sample in &self.samples {
            let per_sec = |quantity: f64| {
                if sample.mean_secs > 0.0 {
                    quantity / sample.mean_secs
                } else {
                    0.0
                }
            };
            table.row(&[
                sample.threads.to_string(),
                if sample.memory_budget == 0 {
                    "unbounded".to_string()
                } else {
                    format!("{} MiB", sample.memory_budget >> 20)
                },
                format!("{:.4}", sample.mean_secs),
                format!("{:.4}", sample.min_secs),
                fmt(per_sec(sample.shuffle_records as f64)),
                fmt(per_sec(self.edges as f64)),
                format!("{:.1}", sample.spilled_bytes as f64 / (1024.0 * 1024.0)),
            ]);
        }
        table.note(&format!(
            "{} mode: sparse G(n = {}, p = {:.2e}) seed {} -> m = {}, budget {}, {} runs per \
             point; host parallelism {}",
            self.mode,
            self.n,
            self.p,
            self.seed,
            self.edges,
            self.reducer_budget,
            self.runs,
            self.available_parallelism,
        ));
        let mib = |bytes: Option<u64>| match bytes {
            Some(b) => format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)),
            None => "unavailable".to_string(),
        };
        table.note(&format!(
            "count-only: {} instances streamed through a CountSink (not retained); peak RSS \
             after generation {}, after sweep {}",
            self.samples.first().map_or(0, |s| s.count),
            mib(self.rss_after_generate_bytes),
            mib(self.peak_rss_bytes),
        ));
        table.note(&format!(
            "load_secs: text edge-list parse {:.4}s vs binary .sgr {:.6}s ({:.0}x faster)",
            self.load.text_secs,
            self.load.sgr_secs,
            self.load.speedup(),
        ));
        table.note(&format!(
            "written to {}",
            if self.mode == "quick" {
                "target/BENCH_sink.quick.json"
            } else {
                "BENCH_sink.json"
            },
        ));
        table.render()
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"sink_throughput\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str("  \"workload\": {\n");
        out.push_str("    \"graph\": \"gnp_sparse\",\n");
        out.push_str(&format!("    \"n\": {},\n", self.n));
        out.push_str(&format!("    \"p\": {:e},\n", self.p));
        out.push_str(&format!("    \"seed\": {},\n", self.seed));
        out.push_str(&format!("    \"edges\": {},\n", self.edges));
        out.push_str("    \"strategy\": \"bucket-ordered-triangles\",\n");
        out.push_str("    \"sink\": \"count\",\n");
        out.push_str(&format!(
            "    \"reducer_budget\": {}\n",
            self.reducer_budget
        ));
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"host\": {{ \"available_parallelism\": {} }},\n",
            self.available_parallelism
        ));
        let json_u64 = |bytes: Option<u64>| match bytes {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!("  \"runs_per_thread_count\": {},\n", self.runs));
        out.push_str(&format!(
            "  \"rss_after_generate_bytes\": {},\n",
            json_u64(self.rss_after_generate_bytes)
        ));
        out.push_str(&format!(
            "  \"peak_rss_bytes\": {},\n",
            json_u64(self.peak_rss_bytes)
        ));
        out.push_str(&format!(
            "  \"load_secs\": {{ \"text\": {:.6}, \"sgr\": {:.6}, \"speedup\": {:.1} }},\n",
            self.load.text_secs,
            self.load.sgr_secs,
            self.load.speedup(),
        ));
        out.push_str("  \"results\": [\n");
        for (i, sample) in self.samples.iter().enumerate() {
            let records_per_sec = if sample.mean_secs > 0.0 {
                sample.shuffle_records as f64 / sample.mean_secs
            } else {
                0.0
            };
            out.push_str(&format!(
                "    {{ \"threads\": {}, \"oversubscribed\": {}, \"memory_budget\": {}, \
                 \"mean_secs\": {:.6}, \"min_secs\": {:.6}, \"shuffle_records\": {}, \
                 \"records_per_sec\": {:.1}, \"spilled_bytes\": {}, \"count\": {} }}{}\n",
                sample.threads,
                sample.oversubscribed,
                sample.memory_budget,
                sample.mean_secs,
                sample.min_secs,
                sample.shuffle_records,
                records_per_sec,
                sample.spilled_bytes,
                sample.count,
                if i + 1 == self.samples.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// The process's peak resident set size in bytes (Linux `VmHWM`), or `None`
/// when the platform does not expose it *or* the `/proc/self/status` line is
/// malformed — an unparseable value must read as "unknown", not as a
/// silently reported 0 bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Extracts `VmHWM` (kB) from the text of `/proc/self/status`.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

/// Measures text vs `.sgr` load time for `graph`: writes both encodings to
/// scratch files under `target/`, loads each a few times through
/// [`GraphSource`] (content-sniffed, like the CLI), keeps the fastest, and
/// removes the scratch files. Panics on I/O failure or on a load that does
/// not round-trip the graph's shape — a benchmark must not publish a timing
/// for a load that produced the wrong graph.
fn measure_load_times(graph: &subgraph_graph::DataGraph) -> LoadSample {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create target/: {e}"));
    let text_path = dir.join("BENCH_sink.load.txt");
    let sgr_path = dir.join("BENCH_sink.load.sgr");
    subgraph_graph::io::write_edge_list_file(graph, &text_path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", text_path.display()));
    subgraph_graph::write_sgr_file(graph, &sgr_path)
        .unwrap_or_else(|e| panic!("cannot write {}", e));

    let time_load = |path: &std::path::Path| -> f64 {
        let source = GraphSource::file(path);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let (loaded, _) = source
                .load_with_stats()
                .unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()));
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(loaded.num_edges(), graph.num_edges(), "{}", path.display());
            best = best.min(elapsed);
        }
        best
    };
    let text_secs = time_load(&text_path);
    let sgr_secs = time_load(&sgr_path);
    std::fs::remove_file(&text_path).ok();
    std::fs::remove_file(&sgr_path).ok();
    LoadSample {
        text_secs,
        sgr_secs,
    }
}

/// The quick (CI smoke) workload parameters `(mode, n, target_edges, runs)`,
/// shared by [`run_sink_bench`] and [`spill_gate`].
fn quick_workload() -> (&'static str, usize, usize, usize) {
    ("quick", 1_500_000, 1_050_000, 1)
}

/// Runs the sweep. Both modes use a ≥ 1M-edge graph — the point of the sink
/// path is large-graph behaviour; `quick` only trims the repetition count.
pub fn run_sink_bench(quick: bool) -> SinkBenchReport {
    let (mode, n, target_edges, runs) = if quick {
        quick_workload()
    } else {
        ("full", 3_000_000usize, 3_000_000usize, 3usize)
    };
    let p = 2.0 * target_edges as f64 / (n as f64 * (n as f64 - 1.0));
    let seed = 20_260_731u64;
    let reducer_budget = 64usize; // b = 6 for the bucket-ordered join
    let graph = generators::gnp_sparse(n, p, seed);
    assert!(
        graph.num_edges() >= 1_000_000,
        "the sink benchmark is specified for >= 1M edges, got {}",
        graph.num_edges()
    );
    // The baseline the sweep starts from: VmHWM right after generation is
    // (graph + generator scratch), before any shuffle allocation.
    let rss_after_generate_bytes = peak_rss_bytes();
    let load = measure_load_times(&graph);
    let available_parallelism = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);

    let measure = |threads: usize, memory_budget: usize| -> SinkSample {
        let plan = EnumerationRequest::named("triangle", &graph)
            .expect("triangle is a catalog pattern")
            .reducers(reducer_budget)
            .strategy(StrategyKind::BucketOrderedTriangles)
            .engine(EngineConfig::with_threads(threads).memory_budget(memory_budget))
            .plan()
            .expect("bucket-ordered applies to the triangle pattern");
        let warmup = plan.count(); // untimed: page in the graph and code paths
        let mut times = Vec::with_capacity(runs);
        for _ in 0..runs {
            let start = Instant::now();
            let report = plan.count();
            times.push(start.elapsed().as_secs_f64());
            assert_eq!(report.count(), warmup.count(), "thread-count invariance");
        }
        let metrics = warmup.metrics.as_ref().expect("map-reduce strategy");
        SinkSample {
            threads,
            oversubscribed: threads > available_parallelism,
            memory_budget,
            mean_secs: times.iter().sum::<f64>() / times.len() as f64,
            min_secs: times.iter().cloned().fold(f64::INFINITY, f64::min),
            shuffle_records: metrics.shuffle_records,
            spilled_bytes: metrics.spilled_bytes,
            count: warmup.count(),
        }
    };

    let mut samples = Vec::with_capacity(THREAD_COUNTS.len() + 1);
    for threads in THREAD_COUNTS {
        samples.push(measure(threads, 0));
    }
    // One budgeted configuration: the arena runs out-of-core and the count
    // must not move by a single instance.
    let budgeted = measure(4, SPILL_GATE_BUDGET_BYTES);
    assert!(
        budgeted.spilled_bytes > 0,
        "a {} MiB budget must spill a {}-edge shuffle",
        SPILL_GATE_BUDGET_BYTES >> 20,
        graph.num_edges()
    );
    assert_eq!(
        budgeted.count, samples[0].count,
        "the spilled run must count exactly what the in-memory runs count"
    );
    samples.push(budgeted);

    SinkBenchReport {
        mode,
        n,
        p,
        seed,
        edges: graph.num_edges(),
        reducer_budget,
        runs,
        available_parallelism,
        rss_after_generate_bytes,
        peak_rss_bytes: peak_rss_bytes(),
        load,
        samples,
    }
}

/// Path of the tracked benchmark file: `BENCH_sink.json` at the repo root.
/// Only the full-mode sweep writes here.
pub fn bench_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sink.json")
}

/// Scratch path the quick (CI smoke) sweep writes to, under the untracked
/// `target/` directory.
pub fn quick_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_sink.quick.json")
}

/// The path [`sink_throughput`] writes for the given mode.
pub fn output_json_path(quick: bool) -> std::path::PathBuf {
    if quick {
        quick_json_path()
    } else {
        bench_json_path()
    }
}

/// Runs the sweep and writes its JSON — `BENCH_sink.json` at the repository
/// root in full mode, a scratch file under `target/` in quick mode. The
/// written file is re-read and validated, and quick mode additionally
/// validates the tracked repo-root file when present; any malformed JSON
/// panics, which is what fails the CI smoke step. Returns the rendered table.
pub fn sink_throughput(quick: bool) -> String {
    let report = run_sink_bench(quick);
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

/// CI memory gate: peak RSS per edge of the quick sink sweep must stay
/// within this budget. The arena shuffle prices a shuffled triangle record
/// at ~13 bytes and the graph itself at 28 bytes/edge (CSR + edge list on a
/// sparse G(n, p) with n ≈ 1.4 m); the measured quick-mode total sits around
/// 110–130 bytes/edge including generator scratch and the grouping tables,
/// so 256 is a regression tripwire (the pre-arena shuffle measured ~450),
/// not a tight fit.
pub const RSS_BYTES_PER_EDGE_BUDGET: f64 = 256.0;

/// The `reproduce rss-gate` CI step: reads the quick-mode JSON that
/// `reproduce sink-quick` (or the bench target in `--quick` mode) just
/// wrote, and fails when `peak_rss_bytes / edges` exceeds
/// [`RSS_BYTES_PER_EDGE_BUDGET`]. Run it *after* `sink-quick` — a missing
/// file is an error, not a skip, so the gate cannot silently pass by
/// running first. Hosts that do not expose `VmHWM` (non-Linux) degrade to
/// an informational pass: there is no measurement to gate on.
pub fn rss_gate() -> Result<String, String> {
    let path = quick_json_path();
    let json = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "rss gate cannot read {} ({e}); run `reproduce sink-quick` first",
            path.display()
        )
    })?;
    rss_gate_verdict(&json, &path.display().to_string())
}

/// The gate's decision, separated from the file read so it is unit-testable:
/// pass/fail on `peak_rss_bytes / edges` vs the budget, informational pass
/// when the RSS is `null`.
fn rss_gate_verdict(json: &str, label: &str) -> Result<String, String> {
    let edges = extract_u64_field(json, "edges")
        .ok_or_else(|| format!("{label} has no \"edges\" field"))?;
    if edges == 0 {
        return Err(format!("{label} reports 0 edges"));
    }
    let Some(peak) = extract_u64_field(json, "peak_rss_bytes") else {
        return Ok(format!(
            "rss gate skipped: {label} has peak_rss_bytes null (platform without VmHWM)\n"
        ));
    };
    let per_edge = peak as f64 / edges as f64;
    let verdict = format!(
        "rss gate: peak_rss_bytes {peak} / {edges} edges = {per_edge:.1} bytes/edge \
         (budget {RSS_BYTES_PER_EDGE_BUDGET})\n"
    );
    if per_edge > RSS_BYTES_PER_EDGE_BUDGET {
        Err(format!(
            "{verdict}rss gate FAILED: the compact memory path regressed — \
             the arena shuffle + CSR graph fit well under the budget\n"
        ))
    } else {
        Ok(verdict)
    }
}

/// Shuffle memory budget the spill gate (and the budgeted sweep entry)
/// forces: small enough that both bench workloads spill most of their arena
/// bytes, large enough that chunk targets stay sensible.
pub const SPILL_GATE_BUDGET_BYTES: usize = 32 << 20;

/// Fixed allowance on top of `budget + graph` for everything the budget does
/// not meter: the reduce-side grouping tables (the decoded values of one
/// round, ~8 bytes per shuffled record on this workload), buffer-pool banks,
/// allocator retention and code/stack. Sized so the quick workload's
/// unbudgeted arena (~80 MiB of resident chunks) does NOT fit — if spilling
/// stops relieving the map side, the gate trips. (Measured: the budgeted
/// run peaks ~105 MiB against a ~126 MiB allowance on this workload.)
pub const SPILL_GATE_SLACK_BYTES: u64 = 64 << 20;

/// The `reproduce spill-gate` CI step: proves the memory budget actually
/// bounds the resident shuffle. Generates the quick-mode graph, records the
/// post-generation RSS baseline, runs ONE budgeted count (the first and only
/// shuffle this process has run — `VmHWM` is a lifetime high-water mark, so
/// the gate must run as its own `reproduce` invocation, never after an
/// unbudgeted sweep), and fails when the process peak exceeds
/// `baseline + budget + SPILL_GATE_SLACK_BYTES`. The budgeted count is then
/// checked against an unbudgeted run (executed *after* the peak was read).
/// Hosts without `VmHWM` degrade to an informational pass on the RSS check
/// but still verify spilling and count parity.
pub fn spill_gate() -> Result<String, String> {
    let (_, n, target_edges, _) = quick_workload();
    let p = 2.0 * target_edges as f64 / (n as f64 * (n as f64 - 1.0));
    let graph = generators::gnp_sparse(n, p, 20_260_731);
    let baseline = peak_rss_bytes();

    let count_with = |budget: usize| {
        EnumerationRequest::named("triangle", &graph)
            .expect("triangle is a catalog pattern")
            .reducers(64)
            .strategy(StrategyKind::BucketOrderedTriangles)
            .engine(EngineConfig::with_threads(4).memory_budget(budget))
            .plan()
            .expect("bucket-ordered applies to the triangle pattern")
            .count()
    };
    let budgeted = count_with(SPILL_GATE_BUDGET_BYTES);
    let peak = peak_rss_bytes();
    let spilled = budgeted.metrics.as_ref().map_or(0, |m| m.spilled_bytes);
    if spilled == 0 {
        return Err(format!(
            "spill gate FAILED: a {} MiB budget spilled nothing on a {}-edge shuffle\n",
            SPILL_GATE_BUDGET_BYTES >> 20,
            graph.num_edges()
        ));
    }
    let unbudgeted = count_with(0);
    if unbudgeted.count() != budgeted.count() {
        return Err(format!(
            "spill gate FAILED: budgeted count {} != unbudgeted count {}\n",
            budgeted.count(),
            unbudgeted.count()
        ));
    }

    let verdict = spill_gate_verdict(baseline, peak, graph.num_edges());
    verdict.map(|text| {
        format!(
            "spill gate: {} MiB budget spilled {:.1} MiB over {} runs, count {} matches the \
             in-memory run\n{text}",
            SPILL_GATE_BUDGET_BYTES >> 20,
            spilled as f64 / (1024.0 * 1024.0),
            budgeted.metrics.as_ref().map_or(0, |m| m.spill_runs),
            budgeted.count(),
        )
    })
}

/// The RSS half of the gate's decision, separated for unit tests:
/// `peak <= baseline + budget + slack`, informational pass when either
/// measurement is unavailable.
fn spill_gate_verdict(
    baseline: Option<u64>,
    peak: Option<u64>,
    edges: usize,
) -> Result<String, String> {
    let (Some(baseline), Some(peak)) = (baseline, peak) else {
        return Ok(
            "spill gate RSS check skipped: VmHWM unavailable on this platform\n".to_string(),
        );
    };
    let allowed = baseline + SPILL_GATE_BUDGET_BYTES as u64 + SPILL_GATE_SLACK_BYTES;
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let arithmetic = format!(
        "peak RSS {:.1} MiB vs baseline {:.1} MiB + budget {:.1} MiB + slack {:.1} MiB = \
         {:.1} MiB allowed ({} edges)\n",
        mib(peak),
        mib(baseline),
        mib(SPILL_GATE_BUDGET_BYTES as u64),
        mib(SPILL_GATE_SLACK_BYTES),
        mib(allowed),
        edges,
    );
    if peak > allowed {
        Err(format!(
            "{arithmetic}spill gate FAILED: the resident shuffle no longer tracks the memory \
             budget\n"
        ))
    } else {
        Ok(arithmetic)
    }
}

/// Extracts the first `"key": <number>` field from JSON text. Returns `None`
/// for a missing key or a non-numeric value (e.g. `null`) — callers decide
/// whether that means "skip" or "fail".
pub(crate) fn extract_u64_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_report() -> SinkBenchReport {
        SinkBenchReport {
            mode: "quick",
            n: 100,
            p: 1e-3,
            seed: 1,
            edges: 1_000_000,
            reducer_budget: 64,
            runs: 1,
            available_parallelism: 1,
            rss_after_generate_bytes: Some(100 * 1024 * 1024),
            peak_rss_bytes: Some(123 * 1024 * 1024),
            load: LoadSample {
                text_secs: 1.5,
                sgr_secs: 0.01,
            },
            samples: THREAD_COUNTS
                .iter()
                .map(|&threads| SinkSample {
                    threads,
                    oversubscribed: threads > 1,
                    memory_budget: if threads == 8 { 32 << 20 } else { 0 },
                    mean_secs: 1.0 / threads as f64,
                    min_secs: 0.9 / threads as f64,
                    shuffle_records: 6_000_000,
                    spilled_bytes: if threads == 8 { 48 << 20 } else { 0 },
                    count: 42,
                })
                .collect(),
        }
    }

    #[test]
    fn report_json_is_well_formed_and_table_is_honest_about_streaming() {
        let report = micro_report();
        validate_json(&report.to_json()).expect("generated JSON must validate");
        let table = report.table();
        assert!(table.contains("threads"));
        // The count-only line must say the instances were streamed, never
        // imply an empty result.
        assert!(table.contains("42 instances streamed through a CountSink"));
        assert!(table.contains("peak RSS"));
        assert!(report.to_json().contains("\"peak_rss_bytes\""));
    }

    #[test]
    fn peak_rss_is_available_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss.unwrap_or(0) > 0, "VmHWM should be readable on Linux");
        }
    }

    #[test]
    fn vm_hwm_parsing_is_strict() {
        assert_eq!(parse_vm_hwm("VmHWM:\t  123 kB\n"), Some(123 * 1024));
        assert_eq!(
            parse_vm_hwm("VmPeak:\t9 kB\nVmHWM:\t8 kB\nVmRSS:\t7 kB\n"),
            Some(8 * 1024)
        );
        // Malformed lines must read as unknown, never as a silent 0.
        for bad in ["", "VmRSS:\t7 kB\n", "VmHWM: lots kB", "VmHWM: 12 MB"] {
            assert_eq!(parse_vm_hwm(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn report_carries_the_load_secs_column() {
        let report = micro_report();
        let json = report.to_json();
        assert!(json.contains("\"load_secs\""), "{json}");
        assert!(json.contains("\"text\": 1.500000"), "{json}");
        assert!(json.contains("\"sgr\": 0.010000"), "{json}");
        assert!(json.contains("\"speedup\": 150.0"), "{json}");
        assert!(report.table().contains("load_secs"), "{}", report.table());
        assert!((report.load.speedup() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn numeric_field_extraction_handles_null_and_missing() {
        let json = "{\n  \"edges\": 1050000,\n  \"peak_rss_bytes\": null\n}";
        assert_eq!(extract_u64_field(json, "edges"), Some(1_050_000));
        assert_eq!(extract_u64_field(json, "peak_rss_bytes"), None);
        assert_eq!(extract_u64_field(json, "nope"), None);
    }

    #[test]
    fn rss_gate_verdicts() {
        let json = |edges: u64, peak: &str| {
            format!("{{ \"edges\": {edges}, \"peak_rss_bytes\": {peak} }}")
        };
        // Under budget: pass, with the arithmetic in the message.
        let ok = rss_gate_verdict(&json(1_000_000, "100000000"), "t").unwrap();
        assert!(ok.contains("100.0 bytes/edge"), "{ok}");
        // Over budget: fail.
        let over = (RSS_BYTES_PER_EDGE_BUDGET as u64 + 1) * 1_000_000;
        let err = rss_gate_verdict(&json(1_000_000, &over.to_string()), "t").unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        // Null RSS: informational pass, never a silent fail.
        let skip = rss_gate_verdict(&json(1_000_000, "null"), "t").unwrap();
        assert!(skip.contains("skipped"), "{skip}");
        // Malformed: loud errors.
        assert!(rss_gate_verdict("{}", "t").is_err());
        assert!(rss_gate_verdict("{ \"edges\": 0, \"peak_rss_bytes\": 1 }", "t").is_err());
    }

    #[test]
    fn report_carries_the_budget_and_spill_columns() {
        let report = micro_report();
        let json = report.to_json();
        assert!(json.contains("\"memory_budget\": 0"), "{json}");
        assert!(
            json.contains(&format!("\"memory_budget\": {}", 32 << 20)),
            "{json}"
        );
        assert!(json.contains("\"spilled_bytes\": 0"), "{json}");
        assert!(
            json.contains(&format!("\"spilled_bytes\": {}", 48u64 << 20)),
            "{json}"
        );
        let table = report.table();
        assert!(table.contains("budget"), "{table}");
        assert!(table.contains("unbounded"), "{table}");
        assert!(table.contains("32 MiB"), "{table}");
        assert!(table.contains("spilled (MiB)"), "{table}");
        assert!(table.contains("48.0"), "{table}");
    }

    #[test]
    fn spill_gate_verdicts() {
        let base = 60u64 << 20;
        // Exactly at the allowance: pass, with the arithmetic in the message.
        let at = base + SPILL_GATE_BUDGET_BYTES as u64 + SPILL_GATE_SLACK_BYTES;
        let ok = spill_gate_verdict(Some(base), Some(at), 1_050_000).unwrap();
        assert!(ok.contains("allowed"), "{ok}");
        // One byte over: fail.
        let err = spill_gate_verdict(Some(base), Some(at + 1), 1_050_000).unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        // No VmHWM: informational pass, never a silent fail.
        let skip = spill_gate_verdict(None, None, 1_050_000).unwrap();
        assert!(skip.contains("skipped"), "{skip}");
        let skip = spill_gate_verdict(Some(base), None, 1_050_000).unwrap();
        assert!(skip.contains("skipped"), "{skip}");
    }

    #[test]
    fn missing_rss_serializes_as_null_not_zero() {
        let mut report = micro_report();
        report.peak_rss_bytes = None;
        report.rss_after_generate_bytes = None;
        let json = report.to_json();
        validate_json(&json).expect("null RSS must still validate");
        assert!(json.contains("\"peak_rss_bytes\": null"));
        assert!(json.contains("\"rss_after_generate_bytes\": null"));
        assert!(report.table().contains("unavailable"));
    }
}
