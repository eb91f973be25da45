//! Sink-parity suite: the streaming result path must be indistinguishable
//! from the legacy `Vec` path for every strategy.
//!
//! Pinned invariants, for every planner-selectable strategy and every paper
//! algorithm the planner does not register (`common::PaperAlgorithm`) at
//! `num_threads ∈ {1, 2, 8}` (deterministic seeded sweeps):
//!
//! 1. **CountSink** — the streamed count equals the collect path's
//!    `count()`, and every `JobMetrics` counter (records, bytes, reducers,
//!    work, skew) is byte-identical: the output destination must never
//!    change what the engine measures.
//! 2. **CollectSink** — streaming into a collector yields the same instance
//!    multiset as `execute()`.
//! 3. **Callback order** — an `FnSink` sees the exact instance order `execute()` returns.
//!
//! 4. **Text sinks** — ndjson, csv and edge-list written through their
//!    per-bucket byte shards are byte for byte what buffering the instances
//!    and replaying them through `accept` writes.
//!
//! Plus the large-graph acceptance check: a count-only triangle run on a
//! graph with ≥ 1M edges goes through an *instrumented* sink that proves the
//! final round streamed through per-bucket shards (no instance ever hit a
//! buffering `Vec` path) while matching the collect path's metrics.

mod common;

use common::PaperAlgorithm;
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
        (StrategyKind::SerialJoin, 1),
    ];
    if sample.num_nodes() == 3 && sample.num_edges() == 3 {
        kinds.extend([
            (StrategyKind::SerialTriangles, 1),
            (StrategyKind::BucketOriented, 220),
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
    assert_same_rounds(&streamed.round_metrics, &collected.round_metrics, context);
    assert_eq!(streamed.work, collected.work, "{context}");
    assert_eq!(streamed.rounds, collected.rounds, "{context}");
    assert_eq!(
        streamed.shuffle_bytes(),
        collected.shuffle_bytes(),
        "{context}"
    );
}

/// Per-round names and counters, timings aside, agree round for round.
fn assert_same_rounds(streamed: &[RoundMetrics], collected: &[RoundMetrics], context: &str) {
    assert_eq!(streamed.len(), collected.len(), "{context}");
    for (s, c) in streamed.iter().zip(collected) {
        assert_eq!(s.name, c.name, "{context}");
        assert_eq!(
            s.metrics.without_timings(),
            c.metrics.without_timings(),
            "{context}: round {}",
            s.name
        );
    }
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
        for algorithm in PaperAlgorithm::applicable(&sample) {
            for threads in THREAD_COUNTS {
                let context = format!("{name} {algorithm:?} threads={threads}");
                let config = EngineConfig::with_threads(threads);
                let collected = algorithm.run(&sample, &graph, &config);
                let mut counter = CountSink::new();
                let counted = algorithm.run_into(&sample, &graph, &config, &mut counter);
                assert_eq!(counter.count(), collected.count(), "{context}");
                assert_eq!(counted.outputs, collected.count(), "{context}");
                assert_eq!(
                    counted.metrics.without_timings(),
                    collected.metrics.without_timings(),
                    "{context}"
                );
                assert_same_rounds(&counted.round_metrics, &collected.round_metrics, &context);
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
        for algorithm in PaperAlgorithm::applicable(&sample) {
            for threads in THREAD_COUNTS {
                let context = format!("{name} {algorithm:?} threads={threads}");
                let config = EngineConfig::with_threads(threads);
                let mut legacy = algorithm.run(&sample, &graph, &config).into_instances();
                let mut sink = CollectSink::new();
                let stats = algorithm.run_into(&sample, &graph, &config, &mut sink);
                let mut streamed = sink.into_items();
                assert_eq!(stats.outputs, streamed.len(), "{context}");
                legacy.sort_unstable();
                streamed.sort_unstable();
                assert_eq!(streamed, legacy, "{context}");
            }
        }
    }
}

#[test]
fn fn_sink_sees_the_exact_deterministic_order() {
    // The callback stream must equal the collect path's order, not just its set.
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
        for algorithm in PaperAlgorithm::applicable(&sample) {
            for threads in THREAD_COUNTS {
                let context = format!("{name} {algorithm:?} threads={threads}");
                let config = EngineConfig::with_threads(threads);
                let legacy = algorithm.run(&sample, &graph, &config).into_instances();
                let mut seen = Vec::new();
                {
                    let mut sink = FnSink::new(|instance: Instance| seen.push(instance));
                    algorithm.run_into(&sample, &graph, &config, &mut sink);
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
        for algorithm in PaperAlgorithm::applicable(&sample) {
            for threads in THREAD_COUNTS {
                let context = format!("{name} {algorithm:?} threads={threads} budget=64K");
                let run = |budget: usize| {
                    let config = EngineConfig::with_threads(threads).memory_budget(budget);
                    algorithm.run(&sample, &graph, &config)
                };
                let base = run(0);
                let budgeted = run(64 << 10);
                assert_eq!(budgeted.instances(), base.instances(), "{context}");
                assert_eq!(
                    counters_without_spill(&budgeted.metrics),
                    counters_without_spill(&base.metrics),
                    "{context}"
                );
                assert_eq!(
                    base.metrics.spilled_bytes, 0,
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
    let triangle = catalog::triangle();
    for (multiway, shipped) in [(false, 90_000), (true, 144_000)] {
        for threads in [2usize, 8] {
            let label = if multiway {
                "multiway"
            } else {
                "bucket-oriented"
            };
            let context = format!("{label} threads={threads} budget=64K");
            let run = |budget: usize| {
                let config = EngineConfig::with_threads(threads).memory_budget(budget);
                if multiway {
                    let run = PaperAlgorithm::Multiway.run(&triangle, &graph, &config);
                    (run.metrics.clone(), run.into_instances())
                } else {
                    let report = EnumerationRequest::new(triangle.clone(), &graph)
                        .reducers(220)
                        .strategy(StrategyKind::BucketOriented)
                        .engine(config)
                        .plan()
                        .unwrap()
                        .execute();
                    (report.metrics.clone().unwrap(), report.into_instances())
                }
            };
            let (base, base_instances) = run(0);
            assert_eq!(base.shuffle_records, shipped, "{context}");
            let (spill, instances) = run(64 << 10);
            assert_eq!(instances, base_instances, "{context}");
            assert_eq!(
                counters_without_spill(&spill),
                counters_without_spill(&base),
                "{context}"
            );
            assert!(
                spill.spilled_bytes > 0 && spill.spill_runs > 0,
                "{context}: a 64 KiB budget must spill this workload \
                 (spilled_bytes={}, spill_runs={})",
                spill.spilled_bytes,
                spill.spill_runs
            );
            assert_eq!(base.spilled_bytes, 0, "{context}");
        }
    }
}

#[test]
fn a_hot_group_larger_than_the_budget_is_reduced_whole() {
    // A hub joined to every node of a 12 000-cycle: 12 000 triangles. At 4
    // reducers (b = 2) each of the 4 bucket keys gets ~12 000 edges, so the
    // hottest group alone decodes to more than the 64 KiB budget. The budget
    // meters arena chunks, not decoded groups, and a group is never split:
    // the run spills its arena and still reduces every group whole.
    let cycle = 12_000u32;
    let mut builder = GraphBuilder::new(cycle as usize + 1);
    for v in 1..=cycle {
        builder.add_edge(0, v).add_edge(v, v % cycle + 1);
    }
    let graph = builder.build();
    let request = |kind: StrategyKind, reducers: usize, config: EngineConfig| {
        EnumerationRequest::named("triangle", &graph)
            .unwrap()
            .reducers(reducers)
            .strategy(kind)
            .engine(config)
            .plan()
            .unwrap()
            .count()
    };
    let serial = request(StrategyKind::SerialTriangles, 1, EngineConfig::serial()).count();
    assert_eq!(serial, cycle as usize);
    for threads in [1usize, 2, 8] {
        let context = format!("threads={threads}");
        let run = |budget: usize| {
            let config = EngineConfig::with_threads(threads).memory_budget(budget);
            request(StrategyKind::BucketOriented, 4, config)
        };
        let (base, budgeted) = (run(0), run(64 << 10));
        let metrics = budgeted.metrics.as_ref().unwrap();
        assert!(metrics.spilled_bytes > 0, "{context}: the arena must spill");
        let hottest = metrics.max_reducer_input * std::mem::size_of::<subgraph_mr::graph::Edge>();
        assert!(hottest > 64 << 10, "{context}: hottest group {hottest} B");
        assert_eq!(budgeted.count(), base.count(), "{context}");
        assert_eq!(budgeted.count(), serial, "{context}");
    }
}

// ---- the large-graph acceptance check --------------------------------------

/// A counting sink that records how its records arrived: per-bucket shards
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
/// final round — every instance reaches the sink through a per-bucket
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
    // Every instance arrived through a bucket shard; nothing was buffered
    // and replayed through accept().
    assert_eq!(sink.direct_accepts, 0, "an instance took a buffering path");
    let config = EngineConfig::with_threads(threads);
    assert_eq!(
        sink.shards_created.get(),
        threads * config.reduce_passes(),
        "one shard per reduce bucket of the final round"
    );
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
