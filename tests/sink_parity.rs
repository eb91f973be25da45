//! Sink-parity suite: the streaming result path must be indistinguishable
//! from the legacy `Vec` path for every strategy.
//!
//! Pinned invariants, for every planner-selectable strategy at
//! `num_threads ∈ {1, 2, 8}` (deterministic seeded sweeps):
//!
//! 1. **CountSink** — the streamed count equals the collect path's
//!    `count()`, and every `JobMetrics` counter (records, bytes, reducers,
//!    work, skew) is byte-identical: the output destination must never
//!    change what the engine measures.
//! 2. **CollectSink** — streaming into a collector yields the same instance
//!    multiset as `execute()`.
//! 3. **Callback order** — under a deterministic engine config, an `FnSink`
//!    sees the exact instance order `execute()` returns.
//!
//! 4. **Text sinks** — ndjson, csv and edge-list written through their
//!    per-worker byte shards are byte for byte what buffering the instances
//!    and replaying them through `accept` writes.
//!
//! Plus the large-graph acceptance check: a count-only triangle run on a
//! graph with ≥ 1M edges goes through an *instrumented* sink that proves the
//! final round streamed through per-worker shards (no instance ever hit a
//! buffering `Vec` path) while matching the collect path's metrics.

use std::any::Any;
use std::cell::Cell;
use subgraph_mr::core::sink::{Csv, EdgeList, Ndjson, TextFormat, TextSink};
use subgraph_mr::mapreduce::sink::SinkShard;
use subgraph_mr::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Every strategy that applies to the pattern, with a budget exercising a
/// non-trivial bucket/share split (serial kinds carry budget 1).
fn strategies(sample: &SampleGraph) -> Vec<(StrategyKind, usize)> {
    let mut kinds = vec![
        (StrategyKind::BucketOriented, 64),
        (StrategyKind::VariableOriented, 64),
        (StrategyKind::CqOriented, 32),
        (StrategyKind::SerialDecomposition, 1),
        (StrategyKind::SerialGeneric, 1),
    ];
    if sample.is_connected() && sample.num_nodes() >= 2 {
        kinds.push((StrategyKind::SerialBoundedDegree, 1));
    }
    if sample.num_nodes() == 3 && sample.num_edges() == 3 {
        kinds.extend([
            (StrategyKind::BucketOrderedTriangles, 220),
            (StrategyKind::PartitionTriangles, 220),
            (StrategyKind::MultiwayTriangles, 216),
            (StrategyKind::CascadeTriangles, 220),
        ]);
    }
    kinds
}

fn patterns() -> Vec<(&'static str, SampleGraph)> {
    vec![
        ("triangle", catalog::triangle()),
        ("square", catalog::square()),
        ("lollipop", catalog::lollipop()),
    ]
}

fn plan_for<'g>(
    sample: &SampleGraph,
    graph: &'g DataGraph,
    kind: StrategyKind,
    k: usize,
    threads: usize,
) -> ExecutionPlan<'g> {
    EnumerationRequest::new(sample.clone(), graph)
        .reducers(k)
        .strategy(kind)
        .engine(EngineConfig::with_threads(threads))
        .plan()
        .unwrap_or_else(|e| panic!("{kind} should apply: {e}"))
}

fn assert_same_metrics(streamed: &RunReport, collected: &RunReport, context: &str) {
    assert_eq!(
        streamed.metrics.as_ref().map(JobMetrics::without_timings),
        collected.metrics.as_ref().map(JobMetrics::without_timings),
        "{context}: combined metrics diverge between sink and collect paths"
    );
    assert_eq!(
        streamed.round_metrics.len(),
        collected.round_metrics.len(),
        "{context}"
    );
    for (s, c) in streamed.round_metrics.iter().zip(&collected.round_metrics) {
        assert_eq!(s.name, c.name, "{context}");
        assert_eq!(
            s.metrics.without_timings(),
            c.metrics.without_timings(),
            "{context}: round {}",
            s.name
        );
    }
    assert_eq!(streamed.work, collected.work, "{context}");
    assert_eq!(streamed.rounds, collected.rounds, "{context}");
    assert_eq!(
        streamed.shuffle_bytes(),
        collected.shuffle_bytes(),
        "{context}"
    );
}

/// The counters with the spill counters also flattened — for comparing a
/// budgeted run against an unbudgeted baseline, where the spill counters are
/// the one permitted difference.
fn counters_without_spill(metrics: &JobMetrics) -> JobMetrics {
    let mut flat = metrics.without_timings();
    flat.spilled_bytes = 0;
    flat.spill_runs = 0;
    flat
}

#[test]
fn count_sink_matches_the_collect_path_for_every_strategy() {
    for (name, sample) in patterns() {
        let graph = generators::gnp(48, 0.10, 5_100);
        for (kind, k) in strategies(&sample) {
            for threads in THREAD_COUNTS {
                let context = format!("{name} {kind} threads={threads}");
                let plan = plan_for(&sample, &graph, kind, k, threads);
                let collected = plan.execute();
                let counted = plan.count();
                assert!(counted.is_streamed(), "{context}");
                assert_eq!(counted.count(), collected.count(), "{context}");
                assert!(counted.instances().is_empty(), "{context}");
                assert_eq!(counted.verified_duplicates(), None, "{context}");
                assert_same_metrics(&counted, &collected, &context);
            }
        }
    }
}

#[test]
fn collect_sink_matches_the_collect_path_multiset() {
    for (name, sample) in patterns() {
        let graph = generators::power_law(70, 280, 2.3, 6_100);
        for (kind, k) in strategies(&sample) {
            for threads in THREAD_COUNTS {
                let context = format!("{name} {kind} threads={threads}");
                let plan = plan_for(&sample, &graph, kind, k, threads);
                let mut legacy = plan.execute().into_instances();
                let mut sink = CollectSink::new();
                let report = plan.run_with_sink(&mut sink);
                let mut streamed = sink.into_items();
                assert_eq!(report.count(), streamed.len(), "{context}");
                legacy.sort_unstable();
                streamed.sort_unstable();
                assert_eq!(streamed, legacy, "{context}");
            }
        }
    }
}

#[test]
fn fn_sink_sees_the_exact_deterministic_order() {
    // EngineConfig::with_threads defaults to deterministic = true: the
    // callback stream must equal the collect path's order, not just its set.
    for (name, sample) in patterns() {
        let graph = generators::gnp(44, 0.11, 7_100);
        for (kind, k) in strategies(&sample) {
            for threads in THREAD_COUNTS {
                let context = format!("{name} {kind} threads={threads}");
                let plan = plan_for(&sample, &graph, kind, k, threads);
                let legacy = plan.execute().into_instances();
                let mut seen = Vec::new();
                {
                    let mut sink = FnSink::new(|instance: Instance| seen.push(instance));
                    plan.run_with_sink(&mut sink);
                }
                assert_eq!(seen, legacy, "{context}");
            }
        }
    }
}

/// The bytes `plan` writes into format `F` through the engine, and the bytes
/// of the buffer-and-replay path the text sinks used to take: collect the
/// same plan's instances, then `accept` them one by one.
fn assert_shards_match_replay<F: TextFormat>(plan: &ExecutionPlan<'_>, context: &str) {
    let mut streamed = Vec::new();
    let mut sink = TextSink::<F, _>::new(&mut streamed);
    let report = plan.run_with_sink(&mut sink);
    assert_eq!(sink.finish().unwrap(), report.count(), "{context}");

    let mut collected = CollectSink::new();
    plan.run_with_sink(&mut collected);
    let mut replayed = Vec::new();
    let mut sink = TextSink::<F, _>::new(&mut replayed);
    for instance in collected.into_items() {
        sink.accept(instance);
    }
    assert_eq!(sink.finish().unwrap(), report.count(), "{context}");
    assert!(
        streamed == replayed,
        "{context}: {} streamed bytes differ from {} replayed",
        streamed.len(),
        replayed.len()
    );
}

#[test]
fn text_sinks_write_the_bytes_of_buffer_and_replay() {
    let graph = generators::power_law(150, 700, 2.2, 21_100);
    for (name, sample) in patterns() {
        for threads in [1, 2, 4] {
            let plan = plan_for(&sample, &graph, StrategyKind::BucketOriented, 64, threads);
            assert!(
                plan.count().count() > 100,
                "{name}: a result worth sharding"
            );
            assert_shards_match_replay::<Ndjson>(&plan, &format!("{name} ndjson x{threads}"));
            assert_shards_match_replay::<Csv>(&plan, &format!("{name} csv x{threads}"));
            assert_shards_match_replay::<EdgeList>(&plan, &format!("{name} edges x{threads}"));
        }
    }
}

#[test]
fn a_forced_64k_budget_matches_the_unbudgeted_run_for_every_strategy() {
    // Every planner-selectable strategy under a 64 KiB shuffle memory budget:
    // identical instances, identical order, and every non-spill counter
    // byte-identical to the unbudgeted run. On this small graph most
    // combinations stay resident — which pins the other side of the contract:
    // a budget that is never exceeded must not change anything.
    for (name, sample) in patterns() {
        let graph = generators::gnp(46, 0.10, 9_100);
        for (kind, k) in strategies(&sample) {
            for threads in THREAD_COUNTS {
                let context = format!("{name} {kind} threads={threads} budget=64K");
                let run = |budget: usize| {
                    EnumerationRequest::new(sample.clone(), &graph)
                        .reducers(k)
                        .strategy(kind)
                        .engine(EngineConfig::with_threads(threads).memory_budget(budget))
                        .plan()
                        .unwrap_or_else(|e| panic!("{kind} should apply: {e}"))
                        .execute()
                };
                let base = run(0);
                let budgeted = run(64 << 10);
                assert_eq!(budgeted.count(), base.count(), "{context}");
                assert_eq!(budgeted.instances(), base.instances(), "{context}");
                assert_eq!(
                    budgeted.metrics.as_ref().map(counters_without_spill),
                    base.metrics.as_ref().map(counters_without_spill),
                    "{context}"
                );
                assert_eq!(
                    base.metrics.as_ref().map_or(0, |m| m.spilled_bytes),
                    0,
                    "{context}: the unbudgeted run must never touch disk"
                );
            }
        }
    }
}

#[test]
fn a_64k_budget_really_spills_on_a_shuffle_heavy_run_and_stays_identical() {
    // Triangle workloads whose arena bytes dwarf the budget: every CI run
    // exercises seal → spill → merge, and the merged answer is byte-identical
    // to the in-memory one. (At ~4 wire bytes per record, 90 000 records fill
    // more than one 4 KiB chunk per bucket even across 8 × 8 buckets.) The
    // multiway round ships 16 combined records per edge (3b − 2 at b = 6):
    // combining rounds spill too.
    let graph = generators::gnm(240, 9_000, 9_300);
    for (kind, k, shipped) in [
        (StrategyKind::BucketOrderedTriangles, 220, 90_000),
        (StrategyKind::MultiwayTriangles, 216, 144_000),
    ] {
        for threads in [2usize, 8] {
            let context = format!("{kind} threads={threads} budget=64K");
            let run = |budget: usize| {
                EnumerationRequest::named("triangle", &graph)
                    .unwrap()
                    .reducers(k)
                    .strategy(kind)
                    .engine(EngineConfig::with_threads(threads).memory_budget(budget))
                    .plan()
                    .unwrap()
                    .execute()
            };
            let base = run(0);
            assert_eq!(base.communication(), shipped, "{context}");
            let budgeted = run(64 << 10);
            assert_eq!(budgeted.count(), base.count(), "{context}");
            assert_eq!(budgeted.instances(), base.instances(), "{context}");
            assert_eq!(
                budgeted.metrics.as_ref().map(counters_without_spill),
                base.metrics.as_ref().map(counters_without_spill),
                "{context}"
            );
            let spill = budgeted.metrics.as_ref().unwrap();
            assert!(
                spill.spilled_bytes > 0 && spill.spill_runs > 0,
                "{context}: a 64 KiB budget must spill this workload \
                 (spilled_bytes={}, spill_runs={})",
                spill.spilled_bytes,
                spill.spill_runs
            );
            assert_eq!(base.metrics.as_ref().unwrap().spilled_bytes, 0, "{context}");
        }
    }
}

// ---- the large-graph acceptance check --------------------------------------

/// A counting sink that records how its records arrived: per-worker shards
/// (`shards_created` / `folds`) versus direct `accept` calls (which would
/// mean something buffered and replayed — the default `BufferShard` path).
#[derive(Default)]
struct InstrumentedCountSink {
    count: usize,
    shards_created: Cell<usize>,
    folds: usize,
    direct_accepts: usize,
}

struct InstrumentedShard(usize);

impl SinkShard<Instance> for InstrumentedShard {
    fn accept(&mut self, _instance: Instance) {
        self.0 += 1;
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl OutputSink<Instance> for InstrumentedCountSink {
    fn accept(&mut self, _instance: Instance) {
        self.direct_accepts += 1;
        self.count += 1;
    }
    fn new_shard(&self) -> Box<dyn SinkShard<Instance>> {
        self.shards_created.set(self.shards_created.get() + 1);
        Box::new(InstrumentedShard(0))
    }
    fn fold(&mut self, shard: Box<dyn SinkShard<Instance>>) {
        let shard = shard
            .into_any()
            .downcast::<InstrumentedShard>()
            .expect("the engine folds back the shards this sink created");
        self.folds += 1;
        self.count += shard.0;
    }
}

/// The ISSUE's acceptance criterion: a count-only triangle run on a graph
/// with ≥ 1M edges performs zero `Vec<Instance>` materialization on the
/// final round — every instance reaches the sink through a per-worker
/// constant-memory shard, never through a buffering `accept` replay — while
/// every `JobMetrics` counter and byte total is identical to the collect
/// path.
#[test]
fn count_mode_streams_a_million_edge_graph_without_materializing() {
    let graph = generators::gnm(1_200_000, 1_000_000, 20_260_731);
    assert!(graph.num_edges() >= 1_000_000);
    let threads = 2usize;
    let plan = EnumerationRequest::named("triangle", &graph)
        .unwrap()
        .reducers(64)
        .engine(EngineConfig::with_threads(threads))
        .plan()
        .unwrap();

    let mut sink = InstrumentedCountSink::default();
    let streamed = plan.run_with_sink(&mut sink);
    assert!(streamed.is_streamed());
    assert_eq!(streamed.count(), sink.count);
    // Every instance arrived through a worker shard; nothing was buffered
    // and replayed through accept().
    assert_eq!(sink.direct_accepts, 0, "an instance took a buffering path");
    assert_eq!(sink.shards_created.get(), threads);
    assert_eq!(sink.folds, sink.shards_created.get());

    // The collect path agrees on the count and on every measured counter.
    let collected = plan.execute();
    assert_eq!(collected.count(), streamed.count());
    assert_eq!(collected.verified_duplicates(), Some(0));
    assert_same_metrics(&streamed, &collected, "1M-edge count mode");
    // The shuffle really ran at scale. On a near-forest graph the planner is
    // free to pick the cascade (3m + wedges beats the bucket schemes' 6m);
    // every triangle strategy ships at least 3 copies of each of the ≥ 1M
    // edges.
    assert!(streamed.communication() >= 3 * graph.num_edges());
}
