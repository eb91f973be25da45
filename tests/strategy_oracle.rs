//! Differential test suite: every planner-selectable strategy against the
//! serial oracle (`enumerate_generic`) on seeded random graphs — G(n, p) and
//! power-law — across thread counts.
//!
//! The invariants pinned here are stronger than instance counts:
//!
//! 1. **Multiset equality** — the sorted instance list of every strategy
//!    equals the oracle's, for every `num_threads ∈ {1, 2, 8}`.
//! 2. **Determinism** — with `deterministic = true`, two runs of the same
//!    strategy at the same thread count return byte-identical instance
//!    streams (same order, not just the same set).
//! 3. **Combiner transparency** — the only strategy with a map-side combiner
//!    (the multiway join) returns an identical instance stream with combiners
//!    disabled, while shipping strictly more shuffle records.

use subgraph_mr::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Every map-reduce strategy that applies to the pattern, with a reducer
/// budget that exercises a non-trivial bucket/share split.
fn mr_strategies(sample: &SampleGraph) -> Vec<(StrategyKind, usize)> {
    let mut kinds = vec![
        (StrategyKind::BucketOriented, 64),
        (StrategyKind::VariableOriented, 64),
        (StrategyKind::CqOriented, 32),
    ];
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

/// The serial strategies (run via the planner at budget `k`, ignored here in
/// favour of forcing each kind).
fn serial_strategies(sample: &SampleGraph) -> Vec<StrategyKind> {
    let mut kinds = vec![
        StrategyKind::SerialDecomposition,
        StrategyKind::SerialGeneric,
    ];
    if sample.is_connected() && sample.num_nodes() >= 2 {
        kinds.push(StrategyKind::SerialBoundedDegree);
    }
    kinds
}

fn test_graphs(seed: u64) -> Vec<(&'static str, DataGraph)> {
    vec![
        ("gnp", generators::gnp(48, 0.10, 5_000 + seed)),
        (
            "power-law",
            generators::power_law(70, 280, 2.3, 6_000 + seed),
        ),
    ]
}

fn sorted_instances(mut instances: Vec<Instance>) -> Vec<Instance> {
    instances.sort_unstable();
    instances
}

fn run(
    sample: &SampleGraph,
    graph: &DataGraph,
    kind: StrategyKind,
    k: usize,
    threads: usize,
) -> RunReport {
    EnumerationRequest::new(sample.clone(), graph)
        .reducers(k)
        .strategy(kind)
        .engine(EngineConfig::with_threads(threads))
        .plan()
        .unwrap_or_else(|e| panic!("{kind} should apply: {e}"))
        .execute()
}

#[test]
fn every_mr_strategy_matches_the_oracle_multiset_across_thread_counts() {
    for (case, sample) in [
        ("triangle", catalog::triangle()),
        ("square", catalog::square()),
        ("lollipop", catalog::lollipop()),
    ] {
        for seed in 0..2u64 {
            for (family, graph) in test_graphs(seed) {
                let oracle = sorted_instances(enumerate_generic(&sample, &graph).into_instances());
                for (kind, k) in mr_strategies(&sample) {
                    for threads in THREAD_COUNTS {
                        let report = run(&sample, &graph, kind, k, threads);
                        assert_eq!(
                            sorted_instances(report.into_instances()),
                            oracle,
                            "{case} {family} seed={seed} {kind} threads={threads}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn serial_strategies_match_the_oracle_multiset() {
    for (case, sample) in [
        ("triangle", catalog::triangle()),
        ("square", catalog::square()),
        ("lollipop", catalog::lollipop()),
    ] {
        for (family, graph) in test_graphs(3) {
            let oracle = sorted_instances(enumerate_generic(&sample, &graph).into_instances());
            for kind in serial_strategies(&sample) {
                let report = run(&sample, &graph, kind, 1, 1);
                assert_eq!(
                    sorted_instances(report.into_instances()),
                    oracle,
                    "{case} {family} {kind}"
                );
            }
        }
    }
}

#[test]
fn deterministic_mode_repeats_the_exact_instance_order() {
    let sample = catalog::triangle();
    for (family, graph) in test_graphs(7) {
        for (kind, k) in mr_strategies(&sample) {
            for threads in [2usize, 8] {
                let first = run(&sample, &graph, kind, k, threads);
                let second = run(&sample, &graph, kind, k, threads);
                // EngineConfig::with_threads defaults to deterministic = true:
                // the streams must agree in order, not merely as multisets.
                assert_eq!(
                    first.instances(),
                    second.instances(),
                    "{family} {kind} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn multiway_combiner_is_transparent_to_the_result_stream() {
    let sample = catalog::triangle();
    for (family, graph) in test_graphs(11) {
        for threads in THREAD_COUNTS {
            let base = EnumerationRequest::new(sample.clone(), &graph)
                .reducers(216)
                .strategy(StrategyKind::MultiwayTriangles);
            let with = base
                .clone()
                .engine(EngineConfig::with_threads(threads))
                .plan()
                .unwrap()
                .execute();
            let without = base
                .engine(EngineConfig::with_threads(threads).combiners(false))
                .plan()
                .unwrap()
                .execute();
            assert_eq!(
                with.instances(),
                without.instances(),
                "{family} threads={threads}"
            );
            let with_metrics = with.metrics.as_ref().unwrap();
            let without_metrics = without.metrics.as_ref().unwrap();
            assert!(
                with_metrics.shuffle_records < without_metrics.shuffle_records,
                "{family} threads={threads}: combiner did not reduce the shuffle"
            );
            assert!(with_metrics.shuffle_bytes < without_metrics.shuffle_bytes);
            assert_eq!(
                with_metrics.key_value_pairs, without_metrics.key_value_pairs,
                "the combiner must not change what the mappers emit"
            );
        }
    }
}

#[test]
fn planner_choice_matches_the_oracle_on_both_graph_families() {
    // Let the planner pick freely (no override) and check the winner, too.
    for (case, sample) in [
        ("triangle", catalog::triangle()),
        ("square", catalog::square()),
    ] {
        for (family, graph) in test_graphs(13) {
            let oracle = sorted_instances(enumerate_generic(&sample, &graph).into_instances());
            for threads in THREAD_COUNTS {
                for k in [1usize, 96] {
                    let report = EnumerationRequest::new(sample.clone(), &graph)
                        .reducers(k)
                        .engine(EngineConfig::with_threads(threads))
                        .plan()
                        .unwrap()
                        .execute();
                    assert_eq!(
                        sorted_instances(report.into_instances()),
                        oracle,
                        "{case} {family} k={k} threads={threads}"
                    );
                }
            }
        }
    }
}

/// Forced bucket-oriented counts at 64 reducers — one symmetry-broken join
/// per reducer — equal the serial planner's count (`reducers = 1`) for all
/// ten catalog patterns on a G(n, m) graph, and for all but `hypercube3` on a
/// power-law one. The serial oracle, not the round, bounds the sizes: a
/// release build takes the larger pair.
#[test]
fn forced_bucket_oriented_counts_equal_the_serial_count_for_the_catalog() {
    let (gnm, power_law) = if cfg!(debug_assertions) {
        ("gnm:400,1600,3", "power-law:60,150,2.2,3")
    } else {
        ("gnm:3000,12000,3", "power-law:150,400,2.2,3")
    };
    for spec in [gnm, power_law] {
        let graph = subgraph_mr::graph::GraphSource::parse_generator(spec)
            .and_then(|source| source.load())
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        for entry in catalog::entries() {
            if spec == power_law && entry.name == "hypercube3" {
                continue;
            }
            let count = |request: EnumerationRequest<'_>| {
                request
                    .engine(EngineConfig::with_threads(2))
                    .count()
                    .unwrap_or_else(|e| panic!("{} on {spec}: {e}", entry.name))
            };
            let request = || EnumerationRequest::new(entry.sample.clone(), &graph);
            let forced = count(
                request()
                    .reducers(64)
                    .strategy(StrategyKind::BucketOriented),
            );
            assert_eq!(
                forced,
                count(request().reducers(1)),
                "{} on {spec}",
                entry.name
            );
        }
    }
}
