//! Property-style tests of the planner (deterministic seeded sweeps):
//!
//! 1. `ExecutionPlan::execute()` matches the serial oracle
//!    (`enumerate_generic`) on random G(n, m) graphs for every catalog
//!    pattern, whatever strategy the planner picks.
//! 2. The planner's predicted replication stays within a constant factor of
//!    the measured `JobMetrics::key_value_pairs`.

use subgraph_mr::prelude::*;

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
            (StrategyKind::CqOriented, 32),
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
    // The triangle specializations with exact predictions, including the
    // multiway join whose combiner discount (3b - 2 of 3b) is part of the
    // prediction.
    let graph = generators::gnm(80, 500, 14_000);
    for (kind, k) in [
        (StrategyKind::BucketOrderedTriangles, 220),
        (StrategyKind::MultiwayTriangles, 216),
    ] {
        let plan = EnumerationRequest::new(catalog::triangle(), &graph)
            .reducers(k)
            .engine(EngineConfig::serial())
            .strategy(kind)
            .plan()
            .unwrap();
        let report = plan.execute();
        assert_eq!(
            report.shuffle_bytes() as f64,
            plan.chosen().predicted_shuffle_bytes(),
            "{kind}"
        );
        assert_eq!(
            report.communication() as f64,
            plan.predicted_communication(),
            "{kind}"
        );
    }
}

#[test]
fn multiway_emission_and_shipment_bracket_the_paper_formulas() {
    // Emitted pairs follow footnote 1's naive 3b per edge; shipped pairs
    // follow the paper's 3b - 2 once the combiner merges coinciding roles.
    let graph = generators::gnm(80, 500, 15_000);
    let plan = EnumerationRequest::new(catalog::triangle(), &graph)
        .reducers(216)
        .engine(EngineConfig::serial())
        .strategy(StrategyKind::MultiwayTriangles)
        .plan()
        .unwrap();
    let b = plan.chosen().buckets.expect("bucketed strategy");
    let report = plan.execute();
    let m = graph.num_edges();
    assert_eq!(report.emitted_communication(), 3 * b * m);
    assert_eq!(report.communication(), (3 * b - 2) * m);
    assert_eq!(plan.chosen().emitted_communication(), (3 * b * m) as f64);
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
