//! Pool-parity suite: the persistent worker-pool executor must be
//! indistinguishable — outputs, output *order*, and every `JobMetrics`
//! counter — from the scoped-thread executor it replaced.
//!
//! Pinned invariants:
//!
//! 1. **Byte-identical parity sweep** at `num_threads ∈ {1, 2, 8}`, with and
//!    without combiners: the pooled path's outputs arrive in the exact order
//!    the scoped path produces, and all counters match field for field
//!    (timings excluded — they are measurements, not results).
//! 2. **Edge cases**: a pool with more workers than input items, an
//!    empty-input round, and one pool reused across two pipelines of
//!    different key/value types (exercising the type-erased buffer
//!    recycling).
//! 3. **Planner-level parity**: a real strategy run through
//!    `EnumerationRequest` counts the same on both executors.

use std::sync::Arc;
use subgraph_mr::mapreduce::{
    EngineConfig, JobMetrics, MapContext, Pipeline, PipelineReport, ReduceContext, Round,
    WorkerPool,
};
use subgraph_mr::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Word-count style round; 53 distinct keys so every reduce shard sees work
/// at 8 threads.
fn counting_round<'a>(combine: bool) -> Round<'a, u64, u64, u64, (u64, u64)> {
    let round = Round::new(
        "count",
        |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 53, *x),
        |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.add_work(vs.len() as u64);
            ctx.emit((*k, vs.iter().sum()));
        },
    );
    if combine {
        round.combiner(|_k: &u64, vs: Vec<u64>| vec![vs.iter().sum()])
    } else {
        round
    }
}

/// Per-round counters with wall-clock timings zeroed for comparison.
fn counters_of(report: &PipelineReport) -> Vec<(String, JobMetrics)> {
    report
        .rounds
        .iter()
        .map(|round| (round.name.clone(), round.metrics.without_timings()))
        .collect()
}

#[test]
fn pooled_execution_is_byte_identical_to_scoped_threads() {
    let inputs: Vec<u64> = (0..2000).map(|i| i * 37 % 613).collect();
    let pool = Arc::new(WorkerPool::new(3));
    for threads in THREAD_COUNTS {
        for combine in [true, false] {
            let scoped = EngineConfig::with_threads(threads)
                .combiners(combine)
                .scoped_threads();
            let pooled = EngineConfig::with_threads(threads)
                .combiners(combine)
                .with_pool(Arc::clone(&pool));
            assert!(!scoped.uses_pool());
            assert!(pooled.uses_pool());

            let (scoped_out, scoped_report) = Pipeline::new()
                .round(counting_round(combine))
                .run(&inputs, &scoped);
            let (pooled_out, pooled_report) = Pipeline::new()
                .round(counting_round(combine))
                .run(&inputs, &pooled);

            // Exact order, not just the same multiset: deterministic configs
            // promise reproducible output order across executors.
            assert_eq!(
                pooled_out, scoped_out,
                "threads={threads} combine={combine}"
            );
            assert_eq!(
                counters_of(&pooled_report),
                counters_of(&scoped_report),
                "threads={threads} combine={combine}"
            );
        }
    }
}

#[test]
fn arena_shuffle_is_byte_identical_to_both_classic_executors() {
    // The arena-opted round on the pooled executor (serialized per-shard
    // byte arenas) against the classic pooled path and the scoped baseline:
    // exact output order and every counter, at every thread count.
    let inputs: Vec<u64> = (0..2500).map(|i| i * 41 % 733).collect();
    let arena_round = || {
        Round::new(
            "count",
            |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 53, *x),
            |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
                ctx.add_work(vs.len() as u64);
                ctx.emit((*k, vs.iter().sum()));
            },
        )
        .arena()
    };
    let pool = Arc::new(WorkerPool::new(3));
    for threads in THREAD_COUNTS {
        for deterministic in [true, false] {
            let mut base = EngineConfig::with_threads(threads);
            base.deterministic = deterministic;
            let arena = base.clone().with_pool(Arc::clone(&pool));
            let classic = base
                .clone()
                .arena_shuffle(false)
                .with_pool(Arc::clone(&pool));
            let scoped = base.scoped_threads();

            let (arena_out, arena_report) =
                Pipeline::new().round(arena_round()).run(&inputs, &arena);
            let (classic_out, classic_report) =
                Pipeline::new().round(arena_round()).run(&inputs, &classic);
            let (scoped_out, scoped_report) =
                Pipeline::new().round(arena_round()).run(&inputs, &scoped);

            let context = format!("threads={threads} deterministic={deterministic}");
            assert_eq!(arena_out, classic_out, "{context}");
            assert_eq!(arena_out, scoped_out, "{context}");
            assert_eq!(
                counters_of(&arena_report),
                counters_of(&classic_report),
                "{context}"
            );
            assert_eq!(
                counters_of(&arena_report),
                counters_of(&scoped_report),
                "{context}"
            );
        }
    }
}

/// [`counters_of`] with the spill counters also flattened — a budgeted arena
/// run is compared against executors that never spill, and the spill
/// counters are the one permitted difference.
fn counters_sans_spill(report: &PipelineReport) -> Vec<(String, JobMetrics)> {
    counters_of(report)
        .into_iter()
        .map(|(name, mut metrics)| {
            metrics.spilled_bytes = 0;
            metrics.spill_runs = 0;
            (name, metrics)
        })
        .collect()
}

#[test]
fn a_64k_budget_on_the_arena_path_matches_both_classic_executors() {
    // Forced 64 KiB shuffle budget on the pooled arena path: the run must
    // actually seal, spill and merge runs from disk, and still produce the
    // exact output order and (spill counters aside) the exact counters of
    // the classic pooled path and the scoped baseline. 250k records are
    // enough that even at 8 threads (64 map×reduce buckets) every bucket
    // fills several chunks, so sealed chunks exist to spill.
    let inputs: Vec<u64> = (0..250_000).map(|i| i * 41 % 733).collect();
    let arena_round = || {
        Round::new(
            "count",
            |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 53, *x),
            |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
                ctx.add_work(vs.len() as u64);
                ctx.emit((*k, vs.iter().sum()));
            },
        )
        .arena()
    };
    let pool = Arc::new(WorkerPool::new(3));
    for threads in THREAD_COUNTS {
        let context = format!("threads={threads} budget=64K");
        let base = EngineConfig::with_threads(threads);
        let budgeted = base
            .clone()
            .memory_budget(64 << 10)
            .with_pool(Arc::clone(&pool));
        let classic = base
            .clone()
            .arena_shuffle(false)
            .with_pool(Arc::clone(&pool));
        let scoped = base.scoped_threads();

        let (budgeted_out, budgeted_report) =
            Pipeline::new().round(arena_round()).run(&inputs, &budgeted);
        let (classic_out, classic_report) =
            Pipeline::new().round(arena_round()).run(&inputs, &classic);
        let (scoped_out, scoped_report) =
            Pipeline::new().round(arena_round()).run(&inputs, &scoped);

        assert_eq!(budgeted_out, classic_out, "{context}");
        assert_eq!(budgeted_out, scoped_out, "{context}");
        assert_eq!(
            counters_sans_spill(&budgeted_report),
            counters_sans_spill(&classic_report),
            "{context}"
        );
        assert_eq!(
            counters_sans_spill(&budgeted_report),
            counters_sans_spill(&scoped_report),
            "{context}"
        );
        let spill = &budgeted_report.rounds[0].metrics;
        assert!(
            spill.spilled_bytes > 0 && spill.spill_runs > 0,
            "{context}: 30k records must overflow a 64 KiB budget \
             (spilled_bytes={}, spill_runs={})",
            spill.spilled_bytes,
            spill.spill_runs
        );
        // The executors that never had a budget never touched disk.
        assert_eq!(classic_report.rounds[0].metrics.spilled_bytes, 0);
        assert_eq!(scoped_report.rounds[0].metrics.spilled_bytes, 0);
    }
}

#[test]
fn global_pool_default_matches_scoped_threads_too() {
    // EngineConfig::default() routes through the process-global pool; no
    // explicit pool handle should be needed for parity.
    let inputs: Vec<u64> = (0..700).map(|i| i * 11 % 229).collect();
    for threads in THREAD_COUNTS {
        let (scoped_out, scoped_report) = Pipeline::new().round(counting_round(true)).run(
            &inputs,
            &EngineConfig::with_threads(threads).scoped_threads(),
        );
        let (pooled_out, pooled_report) = Pipeline::new()
            .round(counting_round(true))
            .run(&inputs, &EngineConfig::with_threads(threads));
        assert_eq!(pooled_out, scoped_out, "threads={threads}");
        assert_eq!(
            counters_of(&pooled_report),
            counters_of(&scoped_report),
            "threads={threads}"
        );
    }
}

#[test]
fn more_pool_workers_than_input_items() {
    let pool = Arc::new(WorkerPool::new(8));
    let inputs: Vec<u64> = vec![5, 9, 13];
    let config = EngineConfig::with_threads(8).with_pool(Arc::clone(&pool));
    let (outputs, report) = Pipeline::new()
        .round(counting_round(false))
        .run(&inputs, &config);
    let (scoped_outputs, scoped_report) = Pipeline::new()
        .round(counting_round(false))
        .run(&inputs, &EngineConfig::with_threads(8).scoped_threads());
    assert_eq!(outputs, scoped_outputs);
    assert_eq!(counters_of(&report), counters_of(&scoped_report));
    assert_eq!(report.rounds[0].metrics.input_records, 3);
}

#[test]
fn empty_input_pipeline_on_the_pool() {
    let pool = Arc::new(WorkerPool::new(2));
    let inputs: Vec<u64> = Vec::new();
    for threads in THREAD_COUNTS {
        let config = EngineConfig::with_threads(threads).with_pool(Arc::clone(&pool));
        let (outputs, report) = Pipeline::new()
            .round(counting_round(true))
            .run(&inputs, &config);
        assert!(outputs.is_empty());
        let metrics = &report.rounds[0].metrics;
        assert_eq!(metrics.key_value_pairs, 0);
        assert_eq!(metrics.shuffle_records, 0);
        assert_eq!(metrics.reducers_used, 0);
        assert_eq!(metrics.outputs, 0);
    }
}

#[test]
fn one_pool_serves_two_pipelines_of_different_types() {
    // Sequential reuse across rounds with *different* key/value layouts:
    // the buffer pool must recycle what it can and never corrupt a Vec.
    let pool = Arc::new(WorkerPool::new(2));
    let config = EngineConfig::with_threads(4).with_pool(Arc::clone(&pool));

    for _ in 0..3 {
        let numbers: Vec<u64> = (0..900).collect();
        let (mut counts, _) = Pipeline::new()
            .round(counting_round(true))
            .run(&numbers, &config);
        counts.sort_unstable();
        assert_eq!(counts.len(), 53);

        // Heap-backed keys (Vec<u32>) — a different element layout than the
        // u64 round above.
        let words = vec!["map", "reduce", "combine", "shuffle", "sort", "merge"];
        let (mut lengths, report) = Pipeline::new()
            .round(Round::new(
                "lengths",
                |w: &&str, ctx: &mut MapContext<Vec<u32>, u64>| ctx.emit(vec![w.len() as u32], 1),
                |k: &Vec<u32>, ones: &[u64], ctx: &mut ReduceContext<(u32, u64)>| {
                    ctx.emit((k[0], ones.iter().sum()))
                },
            ))
            .run(&words, &config);
        lengths.sort_unstable();
        assert_eq!(report.rounds[0].metrics.input_records, 6);
        assert_eq!(
            lengths.iter().map(|&(_, c)| c).sum::<u64>(),
            words.len() as u64
        );
    }
}

#[test]
fn planner_strategies_count_the_same_on_both_executors() {
    let graph = generators::gnm(300, 1200, 7);
    for threads in [1usize, 4] {
        let pooled = EnumerationRequest::named("triangle", &graph)
            .unwrap()
            .reducers(64)
            .engine(EngineConfig::with_threads(threads))
            .count()
            .unwrap();
        let scoped = EnumerationRequest::named("triangle", &graph)
            .unwrap()
            .reducers(64)
            .engine(EngineConfig::with_threads(threads).scoped_threads())
            .count()
            .unwrap();
        assert_eq!(pooled, scoped, "threads={threads}");
    }
}
