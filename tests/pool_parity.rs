//! Pool-parity suite: every round, on any worker pool, must be
//! indistinguishable — outputs, output *order*, and every `JobMetrics`
//! counter — from the engine's single-threaded reference executor
//! (`crates/mapreduce/src/reference.rs`, compiled into this test).
//!
//! Pinned invariants:
//!
//! 1. **Byte-identical parity sweep** at `num_threads ∈ {1, 2, 8}`, on an
//!    explicit pool and on the process-global one:
//!    outputs arrive in the exact order the reference produces, and all
//!    counters match field for field (timings excluded — they are
//!    measurements, not results). A 64 KiB memory budget changes only the
//!    spill counters.
//! 2. **Edge cases**: a pool with more workers than input items, an
//!    empty-input round, and one pool reused across two rounds of
//!    different key/value types.
//! 3. **Planner-level parity**: a real strategy run through
//!    `EnumerationRequest` counts the same on the global and a private pool.

use std::sync::Arc;
use subgraph_mr::mapreduce::{
    hash_of, shard_for_hash, ArenaCodec, CollectSink, EngineConfig, JobMetrics, MapContext,
    ReduceContext, Round, WorkerPool,
};
use subgraph_mr::prelude::{generators, EnumerationRequest};

#[path = "../crates/mapreduce/src/reference.rs"]
mod reference;
use reference::{collect, Job};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn count_by_key_mod_53(x: &u64) -> Vec<(u64, u64)> {
    vec![(x % 53, *x)]
}

fn emit_sum(key: &u64, values: &[u64]) -> Vec<(u64, u64)> {
    vec![(*key, values.iter().sum())]
}

/// Word-count style job; 53 distinct keys so every reduce shard sees work at
/// 8 threads.
fn counting_job() -> Job<u64, u64, u64, (u64, u64)> {
    Job {
        map: count_by_key_mod_53,
        reduce: emit_sum,
        weigh: |_, _| 16,
    }
}

/// The round's counters, timings zeroed, spill counters optionally flattened
/// too.
fn counters(metrics: &JobMetrics, flatten_spill: bool) -> JobMetrics {
    let mut metrics = metrics.without_timings();
    if flatten_spill {
        metrics.spilled_bytes = 0;
        metrics.spill_runs = 0;
    }
    metrics
}

/// Runs `job` on `config` and asserts exact parity with the reference.
fn assert_matches_reference<I, K, V, O>(
    job: &Job<I, K, V, O>,
    inputs: &[I],
    config: &EngineConfig,
    context: &str,
) -> JobMetrics
where
    I: Clone + Send + Sync + 'static,
    K: std::hash::Hash + Ord + Send + ArenaCodec + 'static,
    V: Send + ArenaCodec + 'static,
    O: Clone + Send + PartialEq + std::fmt::Debug + 'static,
{
    let (outputs, metrics) = collect(&job.round("job"), inputs, config);
    let (expected, expected_metrics) = job.reference(inputs, config.reduce_partitions());
    // Exact order, not just the same multiset: the engine promises
    // reproducible output order.
    assert_eq!(outputs, expected, "{context}");
    assert_eq!(counters(&metrics, true), expected_metrics, "{context}");
    metrics
}

#[test]
fn pool_executions_match_the_reference() {
    let inputs: Vec<u64> = (0..2000).map(|i| i * 37 % 613).collect();
    let pool = Arc::new(WorkerPool::new(3));
    for threads in THREAD_COUNTS {
        let config = EngineConfig::with_threads(threads).with_pool(Arc::clone(&pool));
        let context = format!("threads={threads}");
        assert_matches_reference(&counting_job(), &inputs, &config, &context);
    }
}

#[test]
fn a_64k_budget_matches_the_reference() {
    // Forced 64 KiB shuffle budget: the run must actually seal, spill and
    // merge runs from disk, and still produce the reference's exact output
    // order and (spill counters aside) its exact counters. 250k records are
    // enough that even at 8 threads (64 map×reduce buckets) every bucket
    // fills several chunks, so sealed chunks exist to spill.
    let inputs: Vec<u64> = (0..250_000).map(|i| i * 41 % 733).collect();
    let pool = Arc::new(WorkerPool::new(3));
    for threads in THREAD_COUNTS {
        let context = format!("threads={threads} budget=64K");
        let config = EngineConfig::with_threads(threads)
            .memory_budget(64 << 10)
            .with_pool(Arc::clone(&pool));
        let spill = assert_matches_reference(&counting_job(), &inputs, &config, &context);
        assert!(
            spill.spilled_bytes > 0 && spill.spill_runs > 0,
            "{context}: 250k records must overflow a 64 KiB budget \
             (spilled_bytes={}, spill_runs={})",
            spill.spilled_bytes,
            spill.spill_runs
        );
    }
}

#[test]
fn global_pool_default_matches_the_reference() {
    // EngineConfig::default() routes through the process-global pool; no
    // explicit pool handle should be needed for parity.
    let inputs: Vec<u64> = (0..700).map(|i| i * 11 % 229).collect();
    for threads in THREAD_COUNTS {
        let config = EngineConfig::with_threads(threads);
        let context = format!("threads={threads}");
        assert_matches_reference(&counting_job(), &inputs, &config, &context);
    }
}

#[test]
fn more_pool_workers_than_input_items() {
    let pool = Arc::new(WorkerPool::new(8));
    let inputs: Vec<u64> = vec![5, 9, 13];
    let config = EngineConfig::with_threads(8).with_pool(Arc::clone(&pool));
    let metrics = assert_matches_reference(&counting_job(), &inputs, &config, "3 items");
    assert_eq!(metrics.input_records, 3);
}

#[test]
fn empty_input_pipeline_on_the_pool() {
    let pool = Arc::new(WorkerPool::new(2));
    let inputs: Vec<u64> = Vec::new();
    for threads in THREAD_COUNTS {
        let config = EngineConfig::with_threads(threads).with_pool(Arc::clone(&pool));
        let metrics = assert_matches_reference(&counting_job(), &inputs, &config, "empty");
        assert_eq!(metrics.shuffle_records, 0);
        assert_eq!(metrics.reducers_used, 0);
        assert_eq!(metrics.outputs, 0);
    }
}

fn word_length(word: &&'static str) -> Vec<(Vec<u32>, u64)> {
    vec![(vec![word.len() as u32], 1)]
}

#[test]
fn one_pool_serves_two_pipelines_of_different_types() {
    // Sequential reuse across rounds with different key/value types: the
    // pool's recycled buffers must never leak records between rounds.
    let pool = Arc::new(WorkerPool::new(2));
    let config = EngineConfig::with_threads(4).with_pool(Arc::clone(&pool));
    let lengths = Job {
        map: word_length,
        reduce: |key, ones| vec![(key[0], ones.iter().sum::<u64>())],
        weigh: |key, _| 4 * key.len() + 8,
    };
    let words = vec!["map", "reduce", "combine", "shuffle", "sort", "merge"];
    let numbers: Vec<u64> = (0..900).collect();
    for round in 0..3 {
        assert_matches_reference(&counting_job(), &numbers, &config, "numbers");
        // Heap-backed keys (Vec<u32>).
        let metrics = assert_matches_reference(&lengths, &words, &config, "words");
        assert_eq!(metrics.input_records, 6, "round {round}");
    }
}

#[test]
fn planner_strategies_count_the_same_on_both_executors() {
    // The process-global pool and a private inline one.
    let graph = generators::gnm(300, 1200, 7);
    let private = Arc::new(WorkerPool::new(0));
    for threads in [1usize, 4] {
        let count = |config: EngineConfig| {
            EnumerationRequest::named("triangle", &graph)
                .unwrap()
                .reducers(64)
                .engine(config)
                .count()
                .unwrap()
        };
        let global = count(EngineConfig::with_threads(threads));
        let inline = count(EngineConfig::with_threads(threads).with_pool(Arc::clone(&private)));
        assert_eq!(global, inline, "threads={threads}");
    }
}
