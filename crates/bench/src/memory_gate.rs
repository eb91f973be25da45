//! The memory gate: the engine's peak resident set on a ≥ 1M-edge count-only
//! triangle enumeration, with and without a shuffle memory budget.
//!
//! One process generates a sparse `G(n, p)` graph (~1.05 M edges), runs the
//! bucket-ordered triangle count under a [`SPILL_GATE_BUDGET_BYTES`] budget
//! first — `VmHWM` is a lifetime high-water mark, so the budgeted peak must be
//! read before any unbudgeted shuffle runs — and then unbudgeted at every
//! thread count of [`THREAD_COUNTS`]. The budgeted run must spill, count what
//! every unbudgeted run counts, and peak within the post-generation baseline
//! plus budget plus [`SPILL_GATE_SLACK_BYTES`]; the process's final peak per
//! edge must stay within [`RSS_BYTES_PER_EDGE_BUDGET`]. Every run executes on
//! a private pool of [`POOL_WORKERS`] workers plus the calling thread, so the
//! number of partitions reduced at once — and with it the memory the budget
//! does not meter — is the same on any runner, whatever its core count.
//! Hosts that do not expose `VmHWM` (non-Linux) still check spilling and
//! counts; the two RSS checks degrade to informational passes.
//!
//! Entry point: `cargo run --release -p subgraph-bench --bin reproduce --
//! memory-gate`.

use std::sync::Arc;
use subgraph_core::plan::{EnumerationRequest, StrategyKind};
use subgraph_graph::generators;
use subgraph_mapreduce::{EngineConfig, WorkerPool};

/// Thread counts the unbudgeted counts run at. All four run: each leaves its
/// own allocator high-water, and a single run understates the peak the gate
/// bounds.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Dedicated workers of the gate's pool: with the calling thread, two OS
/// threads — what the global pool has on the 2-core host the bounds below
/// were measured on.
pub const POOL_WORKERS: usize = 1;

/// Peak RSS per edge the whole gate process may reach. The arena shuffle
/// prices a shuffled triangle record at ~13 bytes and the graph itself at 28
/// bytes/edge (CSR + edge list on a sparse G(n, p) with n ≈ 1.4 m); with
/// generator scratch, one partition's grouping tables per worker and every
/// thread count's allocator retention the process reads 124–131
/// bytes/edge on a 2-core Linux host. An engine that decodes a worker's
/// whole input before it reduces reads 167–174 there and fails (the
/// pre-arena shuffle measured ~450).
pub const RSS_BYTES_PER_EDGE_BUDGET: f64 = 152.0;

/// Shuffle memory budget of the budgeted run: small enough that the workload
/// spills most of its arena bytes, large enough that chunk targets stay
/// sensible.
pub const SPILL_GATE_BUDGET_BYTES: usize = 32 << 20;

/// Fixed allowance on top of `budget + graph` for everything the budget does
/// not meter: per reduce worker, one partition's decoded groups and the
/// `LocalGraph` the reducer is joining, buffer-pool banks, allocator
/// retention and code/stack. An engine that decodes and groups a worker's
/// whole input before it reduces (~8 bytes per shuffled record on this
/// workload, ~50 MiB) does NOT fit. (Measured on a 2-core Linux host: the
/// budgeted run peaks at 86–92 MiB against a ~105.6 MiB allowance; the
/// whole-input engine peaks at 111–114 MiB.)
pub const SPILL_GATE_SLACK_BYTES: u64 = 43 << 20;

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

/// The `reproduce memory-gate` CI step (see the module docs). Must run as its
/// own process: any shuffle run before it raises the `VmHWM` it reads.
pub fn memory_gate() -> Result<String, String> {
    let (n, target_edges, seed) = (1_500_000usize, 1_050_000usize, 20_260_731u64);
    let p = 2.0 * target_edges as f64 / (n as f64 * (n as f64 - 1.0));
    let graph = generators::gnp_sparse(n, p, seed);
    let edges = graph.num_edges();
    // Graph plus generator scratch, before any shuffle allocation.
    let baseline = peak_rss_bytes();
    let pool = Arc::new(WorkerPool::new(POOL_WORKERS));
    let count_with = |threads: usize, budget: usize| {
        let config = EngineConfig::with_threads(threads)
            .memory_budget(budget)
            .with_pool(Arc::clone(&pool));
        EnumerationRequest::named("triangle", &graph)
            .expect("triangle is a catalog pattern")
            .reducers(64)
            .strategy(StrategyKind::BucketOrderedTriangles)
            .engine(config)
            .plan()
            .expect("bucket-ordered applies to the triangle pattern")
            .count()
    };

    let budgeted = count_with(4, SPILL_GATE_BUDGET_BYTES);
    let spill_peak = peak_rss_bytes();
    let (spilled, spill_runs) =
        (budgeted.metrics.as_ref()).map_or((0, 0), |m| (m.spilled_bytes, m.spill_runs));
    let unbudgeted: Vec<usize> = THREAD_COUNTS
        .iter()
        .map(|&threads| count_with(threads, 0).count())
        .collect();

    let mut out = format!(
        "memory gate: sparse G(n = {n}, p = {p:.2e}) seed {seed} -> {edges} edges, bucket-ordered \
         triangle count at 64 reducers; {} MiB budget at 4 threads spilled {:.1} MiB over \
         {spill_runs} runs; unbudgeted at threads {THREAD_COUNTS:?}\n",
        SPILL_GATE_BUDGET_BYTES >> 20,
        spilled as f64 / (1024.0 * 1024.0),
    );
    let spill = spill_verdict(spilled, budgeted.count(), &unbudgeted, baseline, spill_peak);
    let rss = rss_verdict(peak_rss_bytes(), edges);
    for verdict in [&spill, &rss] {
        out.push_str(verdict.as_ref().unwrap_or_else(|failure| failure));
    }
    if spill.is_ok() && rss.is_ok() {
        Ok(out)
    } else {
        Err(out)
    }
}

/// The budgeted run's half of the decision, separated for unit tests: it
/// must have spilled, must count what every unbudgeted run counts, and must
/// peak at most `baseline + budget + slack` (an informational pass on that
/// last check when either measurement is unavailable).
fn spill_verdict(
    spilled: u64,
    budgeted: usize,
    unbudgeted: &[usize],
    baseline: Option<u64>,
    peak: Option<u64>,
) -> Result<String, String> {
    if spilled == 0 {
        return Err(format!(
            "memory gate FAILED: a {} MiB budget spilled nothing\n",
            SPILL_GATE_BUDGET_BYTES >> 20,
        ));
    }
    if unbudgeted.iter().any(|&count| count != budgeted) {
        return Err(format!(
            "memory gate FAILED: the budgeted run counted {budgeted}, the unbudgeted runs \
             {unbudgeted:?}\n",
        ));
    }
    let counts = format!("count {budgeted} identical budgeted and unbudgeted; ");
    let (Some(baseline), Some(peak)) = (baseline, peak) else {
        return Ok(format!(
            "{counts}spill RSS check skipped: VmHWM unavailable on this platform\n"
        ));
    };
    let allowed = baseline + SPILL_GATE_BUDGET_BYTES as u64 + SPILL_GATE_SLACK_BYTES;
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let arithmetic = format!(
        "{counts}budgeted peak RSS {:.1} MiB vs baseline {:.1} MiB + budget {:.1} MiB + slack \
         {:.1} MiB = {:.1} MiB allowed\n",
        mib(peak),
        mib(baseline),
        mib(SPILL_GATE_BUDGET_BYTES as u64),
        mib(SPILL_GATE_SLACK_BYTES),
        mib(allowed),
    );
    if peak > allowed {
        Err(format!(
            "{arithmetic}memory gate FAILED: the resident shuffle no longer tracks the memory \
             budget\n"
        ))
    } else {
        Ok(arithmetic)
    }
}

/// The per-edge half of the decision: pass/fail on `peak / edges` vs
/// [`RSS_BYTES_PER_EDGE_BUDGET`], an informational pass when the peak is
/// unavailable.
fn rss_verdict(peak: Option<u64>, edges: usize) -> Result<String, String> {
    let Some(peak) = peak else {
        return Ok("rss check skipped: VmHWM unavailable on this platform\n".to_string());
    };
    let per_edge = peak as f64 / edges as f64;
    let verdict = format!(
        "process peak RSS {peak} bytes / {edges} edges = {per_edge:.1} bytes/edge (budget \
         {RSS_BYTES_PER_EDGE_BUDGET})\n"
    );
    if per_edge > RSS_BYTES_PER_EDGE_BUDGET {
        Err(format!(
            "{verdict}memory gate FAILED: the compact memory path regressed — the arena \
             shuffle + CSR graph fit well under the budget\n"
        ))
    } else {
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn rss_gate_verdicts() {
        // Under budget: pass, with the arithmetic in the message.
        let ok = rss_verdict(Some(100_000_000), 1_000_000).unwrap();
        assert!(ok.contains("100.0 bytes/edge"), "{ok}");
        // Over budget: fail.
        let over = (RSS_BYTES_PER_EDGE_BUDGET as u64 + 1) * 1_000_000;
        let err = rss_verdict(Some(over), 1_000_000).unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        // No VmHWM: informational pass, never a silent fail.
        let skip = rss_verdict(None, 1_000_000).unwrap();
        assert!(skip.contains("skipped"), "{skip}");
    }

    #[test]
    fn spill_gate_verdicts() {
        let base = 60u64 << 20;
        let counts = [7usize; THREAD_COUNTS.len()];
        let verdict =
            |spilled, budgeted, peak| spill_verdict(spilled, budgeted, &counts, Some(base), peak);
        // Exactly at the allowance: pass, with the arithmetic in the message.
        let at = base + SPILL_GATE_BUDGET_BYTES as u64 + SPILL_GATE_SLACK_BYTES;
        let ok = verdict(1, 7, Some(at)).unwrap();
        assert!(ok.contains("allowed"), "{ok}");
        // One byte over: fail.
        let err = verdict(1, 7, Some(at + 1)).unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        // A budgeted run that did not spill, or counted differently, fails
        // whatever its peak.
        let err = verdict(0, 7, Some(base)).unwrap_err();
        assert!(err.contains("spilled nothing"), "{err}");
        let err = verdict(1, 8, Some(base)).unwrap_err();
        assert!(err.contains("counted 8"), "{err}");
        let err = spill_verdict(1, 7, &[7, 7, 6, 7], Some(base), Some(base)).unwrap_err();
        assert!(err.contains("[7, 7, 6, 7]"), "{err}");
        // No VmHWM: informational pass, never a silent fail.
        let skip = verdict(1, 7, None).unwrap();
        assert!(skip.contains("skipped"), "{skip}");
        let skip = spill_verdict(1, 7, &counts, None, None).unwrap();
        assert!(skip.contains("skipped"), "{skip}");
    }
}
