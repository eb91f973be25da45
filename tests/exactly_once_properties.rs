//! Property-style integration tests of the paper's central invariant: every
//! algorithm produces each instance of the sample graph exactly once, for any
//! sample graph, data graph, bucket count and node order.
//!
//! The cases are generated deterministically (seeded sweeps over patterns,
//! graph sizes, bucket counts and reducer budgets) so the suite runs without
//! an external property-testing dependency while covering the same space.

use subgraph_mr::prelude::*;

fn patterns() -> Vec<(&'static str, SampleGraph)> {
    vec![
        ("triangle", catalog::triangle()),
        ("square", catalog::square()),
        ("lollipop", catalog::lollipop()),
        ("c5", catalog::cycle(5)),
        ("star4", catalog::star(4)),
        ("path4", catalog::path(4)),
        ("k4", catalog::k4()),
    ]
}

#[test]
fn bucket_oriented_map_reduce_is_exactly_once() {
    for (case, (name, sample)) in patterns().into_iter().enumerate() {
        let n = 12 + 3 * case;
        let m = (n * 3).min(n * (n - 1) / 2);
        let graph = generators::gnm(n, m, 40 + case as u64);
        let oracle = enumerate_generic(&sample, &graph);
        for buckets in [1usize, 2, 4] {
            let run = EnumerationRequest::new(sample.clone(), &graph)
                .strategy(StrategyKind::BucketOriented)
                .reducers(reducer_budget_for_buckets(sample.num_nodes(), buckets))
                .engine(EngineConfig::serial())
                .plan()
                .expect("plannable")
                .execute();
            assert_eq!(run.count(), oracle.count(), "{name} b={buckets}");
            assert_eq!(run.duplicates(), 0, "{name} b={buckets}");
        }
    }
}

/// The reducer budget that makes the planner pick exactly `b` buckets for a
/// `p`-node pattern under bucket-oriented processing (`C(b+p-1, p)` useful
/// reducers).
fn reducer_budget_for_buckets(p: usize, b: usize) -> usize {
    subgraph_mr::shares::counting::useful_reducers(b as u64, p as u64) as usize
}

#[test]
fn variable_oriented_map_reduce_is_exactly_once() {
    let mut cases: Vec<(&str, SampleGraph, DataGraph)> = (patterns().into_iter().enumerate())
        .map(|(case, (name, sample))| {
            let n = 12 + 2 * case;
            let m = (n * (n - 1) / 2) / 2;
            (name, sample, generators::gnm(n, m, 140 + case as u64))
        })
        .collect();
    // The pentagon with a chord ships one role fewer than its CQ collection
    // uses; the hypercube has 840 order classes and one plan.
    cases.push((
        "pentagon-with-chord",
        catalog::pentagon_with_chord(),
        generators::gnm(18, 70, 150),
    ));
    cases.push((
        "hypercube3",
        catalog::hypercube(3),
        generators::gnm(14, 40, 151),
    ));
    for (name, sample, graph) in cases {
        let oracle = enumerate_generic(&sample, &graph);
        let mut expected = oracle.instances().to_vec();
        expected.sort_unstable();
        for k in [1usize, 9, 64] {
            let run = EnumerationRequest::new(sample.clone(), &graph)
                .strategy(StrategyKind::VariableOriented)
                .reducers(k)
                .engine(EngineConfig::serial())
                .plan()
                .expect("plannable")
                .execute();
            assert_eq!(run.count(), oracle.count(), "{name} k={k}");
            assert_eq!(run.duplicates(), 0, "{name} k={k}");
            let mut found = run.instances().to_vec();
            found.sort_unstable();
            assert_eq!(found, expected, "{name} k={k}");
        }
    }
}

#[test]
fn serial_algorithms_are_exactly_once() {
    for (case, (name, sample)) in patterns().into_iter().enumerate() {
        let n = 12 + 2 * case;
        let m = (n * (n - 1) / 2) / 3;
        let graph = generators::gnm(n, m, 240 + case as u64);
        let oracle = enumerate_generic(&sample, &graph);
        let decomposition = enumerate_by_decomposition(&sample, &graph);
        assert_eq!(decomposition.count(), oracle.count(), "{name}");
        assert_eq!(decomposition.duplicates(), 0, "{name}");
        if sample.is_connected() {
            let bounded = enumerate_bounded_degree(&sample, &graph);
            assert_eq!(bounded.count(), oracle.count(), "{name}");
            assert_eq!(bounded.duplicates(), 0, "{name}");
        }
    }
}

#[test]
fn triangle_map_reduce_is_exactly_once_on_skewed_graphs() {
    // Power-law graphs exercise reducer skew ("the curse of the last reducer").
    for (case, &(n, buckets)) in [(40usize, 2usize), (60, 3), (80, 5), (110, 7)]
        .iter()
        .enumerate()
    {
        let graph = generators::power_law(n, n * 4, 2.4, 340 + case as u64);
        let serial = enumerate_triangles_serial(&graph);
        let run = EnumerationRequest::new(catalog::triangle(), &graph)
            .strategy(StrategyKind::BucketOriented)
            .reducers(reducer_budget_for_buckets(3, buckets))
            .engine(EngineConfig::serial())
            .plan()
            .expect("plannable")
            .execute();
        assert_eq!(run.count(), serial.count(), "n={n} b={buckets}");
        assert_eq!(run.duplicates(), 0, "n={n} b={buckets}");
        assert_eq!(
            run.metrics.as_ref().map(|m| m.shuffle_records),
            Some(buckets * graph.num_edges()),
            "n={n} b={buckets}"
        );
    }
}
