//! Property-style tests of the planner (deterministic seeded sweeps):
//!
//! 1. `ExecutionPlan::execute()` matches the serial oracle
//!    (`enumerate_generic`) on random G(n, m) graphs for every catalog
//!    pattern, whatever strategy the planner picks.
//! 2. The planner's predicted replication stays within a constant factor of
//!    the measured `JobMetrics::shuffle_records` — and so do the paper's
//!    formulas for the algorithms the planner does not register.

use subgraph_mr::cq::cq_for_ordering;
use subgraph_mr::pattern::automorphism_group;
use subgraph_mr::prelude::*;
use subgraph_mr::shares::counting::multiway_triangle_replication;
use subgraph_mr::shares::dominance::single_cq_expression_with_dominance;

fn catalog_patterns() -> Vec<(&'static str, SampleGraph)> {
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
fn planned_execution_matches_the_serial_oracle_on_random_graphs() {
    for (case, (name, sample)) in catalog_patterns().into_iter().enumerate() {
        for (round, &k) in [1usize, 24, 96].iter().enumerate() {
            let n = 14 + 2 * case + round;
            let m = (n * 3).min(n * (n - 1) / 2);
            let graph = generators::gnm(n, m, 7_000 + (case * 10 + round) as u64);
            let plan = EnumerationRequest::new(sample.clone(), &graph)
                .reducers(k)
                .engine(EngineConfig::serial())
                .plan()
                .unwrap_or_else(|e| panic!("{name} k={k}: {e}"));
            let report = plan.execute();
            let oracle = enumerate_generic(&sample, &graph);
            assert_eq!(
                report.count(),
                oracle.count(),
                "{name} k={k} strategy={}",
                plan.strategy()
            );
            assert_eq!(report.duplicates(), 0, "{name} k={k}");
            // Budget 1 plans serial, larger budgets plan map-reduce.
            assert_eq!(plan.strategy().is_serial(), k <= 1, "{name} k={k}");
        }
    }
}

#[test]
fn predicted_replication_is_within_a_constant_factor_of_measured() {
    // The bucket-oriented prediction is exact; the share-based ones are exact
    // up to integer rounding of the shares. A factor-3 band catches any
    // regression in either direction without flaking on rounding.
    for (case, (name, sample)) in catalog_patterns().into_iter().enumerate() {
        let n = 40 + 4 * case;
        let m = n * 5;
        let graph = generators::gnm(n, m, 9_000 + case as u64);
        for (kind, k) in [
            (StrategyKind::BucketOriented, 70),
            (StrategyKind::VariableOriented, 64),
        ] {
            let plan = EnumerationRequest::new(sample.clone(), &graph)
                .reducers(k)
                .engine(EngineConfig::serial())
                .strategy(kind)
                .plan()
                .unwrap();
            let report = plan.execute();
            let predicted = plan.predicted_communication();
            let measured = report.communication() as f64;
            assert!(
                measured <= predicted * 3.0 && measured >= predicted / 3.0,
                "{name} {kind}: measured {measured} vs predicted {predicted}"
            );
        }
        // CQ-oriented processing at 32 reducers per job: one job per order
        // class, each priced by the identity ordering's real-valued share
        // solve (every class has the same Shares expression).
        let identity: Vec<_> = sample.nodes().collect();
        let expression = single_cq_expression_with_dominance(&cq_for_ordering(&sample, &identity));
        let classes = automorphism_group(&sample).order_classes() as f64;
        let predicted =
            classes * optimize_shares(&expression, 32.0).cost_per_edge * graph.num_edges() as f64;
        let run = run_cq_oriented(
            &sample,
            &graph,
            32,
            &EngineConfig::serial(),
            &mut CountSink::new(),
        );
        let measured = run.metrics.shuffle_records as f64;
        assert!(
            measured <= predicted * 3.0 && measured >= predicted / 3.0,
            "{name} cq-oriented: measured {measured} vs predicted {predicted}"
        );
    }
}

#[test]
fn bucket_oriented_prediction_is_exact() {
    // Section 4.5: every edge goes to exactly C(b + p - 3, p - 2) reducers,
    // so the planner's communication prediction must match to the pair.
    for (name, sample) in catalog_patterns() {
        let graph = generators::gnm(50, 250, 11_000);
        let plan = EnumerationRequest::new(sample, &graph)
            .reducers(50)
            .engine(EngineConfig::serial())
            .strategy(StrategyKind::BucketOriented)
            .plan()
            .unwrap();
        let report = plan.execute();
        assert_eq!(
            report.communication() as f64,
            plan.predicted_communication(),
            "{name}"
        );
    }
}

#[test]
fn predicted_shuffle_bytes_match_measured_for_exact_strategies() {
    // The byte accounting must be consistent end to end: the planner predicts
    // shuffled records x per-record bytes with the same weigher the engine
    // charges, so for strategies whose record-count prediction is exact the
    // byte prediction must match the measured `shuffle_bytes` to the byte.
    for (name, sample) in catalog_patterns() {
        let graph = generators::gnm(50, 250, 13_000);
        for (kind, k) in [
            (StrategyKind::BucketOriented, 70),
            (StrategyKind::VariableOriented, 128),
        ] {
            let plan = EnumerationRequest::new(sample.clone(), &graph)
                .reducers(k)
                .engine(EngineConfig::serial())
                .strategy(kind)
                .plan()
                .unwrap();
            let report = plan.execute();
            assert_eq!(
                report.shuffle_bytes() as f64,
                plan.chosen().predicted_shuffle_bytes(),
                "{name} {kind}"
            );
            assert_eq!(
                report.communication() as f64,
                plan.predicted_communication(),
                "{name} {kind}"
            );
        }
    }
    // The Section 2 triangle rounds with exact predictions: Section 2.3's
    // (bucket-oriented at p = 3) and the multiway join, whose mapper sends
    // each edge to the paper's 3b - 2 distinct reducers.
    let graph = generators::gnm(80, 500, 14_000);
    let plan = EnumerationRequest::new(catalog::triangle(), &graph)
        .reducers(220)
        .engine(EngineConfig::serial())
        .strategy(StrategyKind::BucketOriented)
        .plan()
        .unwrap();
    let report = plan.execute();
    assert_eq!(
        report.shuffle_bytes() as f64,
        plan.chosen().predicted_shuffle_bytes()
    );
    assert_eq!(
        report.communication() as f64,
        plan.predicted_communication()
    );
    // A multiway record is its three key coordinates and the edge.
    let record_bytes = 3 * 4 + std::mem::size_of::<subgraph_mr::graph::Edge>();
    let shipped = multiway_triangle_replication(6) * graph.num_edges() as f64;
    let multiway =
        run_multiway_triangles_into(&graph, 6, &EngineConfig::serial(), &mut CountSink::new());
    assert_eq!(multiway.metrics.shuffle_records as f64, shipped);
    assert_eq!(
        multiway.metrics.shuffle_bytes as f64,
        shipped * record_bytes as f64
    );
}

#[test]
fn multiway_emission_and_shipment_bracket_the_paper_formulas() {
    // The mapper emits each edge's 3b - 2 distinct reducer keys once, so
    // the shipped pairs are the paper's formula exactly, below footnote 1's
    // naive 3b, at every bucket count and thread count.
    let graph = generators::gnm(80, 500, 15_000);
    let m = graph.num_edges();
    for b in [1usize, 2, 4, 6, 8] {
        for threads in [1usize, 2, 8] {
            let config = EngineConfig::with_threads(threads);
            let shipped = run_multiway_triangles_into(&graph, b, &config, &mut CountSink::new())
                .metrics
                .shuffle_records;
            let label = format!("b={b} threads={threads}");
            assert_eq!(shipped, (3 * b - 2) * m, "{label}");
            assert_eq!(
                shipped as f64,
                multiway_triangle_replication(b as u64) * m as f64,
                "{label}"
            );
            assert!(shipped < 3 * b * m, "{label}");
        }
    }
}

#[test]
fn variable_oriented_prediction_is_exact() {
    // Section 4.3: the engine counts exactly what the cost expression models
    // (at the integer shares), so prediction and measurement agree exactly —
    // also where the plan's roles are fewer than the CQ collection's
    // subgoals (the pentagon with a chord).
    let mut cases: Vec<(&str, SampleGraph, DataGraph)> = (catalog_patterns().into_iter())
        .map(|(name, sample)| (name, sample, generators::gnm(60, 360, 12_000)))
        .collect();
    cases.push((
        "pentagon-with-chord",
        catalog::pentagon_with_chord(),
        generators::gnm(60, 360, 12_000),
    ));
    cases.push((
        "hypercube3",
        catalog::hypercube(3),
        generators::gnm(24, 80, 12_001),
    ));
    for (name, sample, graph) in cases {
        let plan = EnumerationRequest::new(sample, &graph)
            .reducers(128)
            .engine(EngineConfig::serial())
            .strategy(StrategyKind::VariableOriented)
            .plan()
            .unwrap();
        let report = plan.execute();
        assert_eq!(
            report.communication() as f64,
            plan.predicted_communication(),
            "{name}"
        );
    }
}
