//! End-to-end integration tests across the whole workspace: every map-reduce
//! strategy, every serial algorithm and every CQ family must agree with the
//! generic oracle and produce each instance exactly once — driven through the
//! unified `EnumerationRequest` / `Planner` entry point, or, for the paper's
//! algorithms the planner does not register, through their functions.

use subgraph_mr::prelude::*;

fn oracle_count(sample: &SampleGraph, graph: &DataGraph) -> usize {
    let run = enumerate_generic(sample, graph);
    assert_eq!(run.duplicates(), 0);
    run.count()
}

/// Runs the request with a forced strategy and returns the unified report.
fn run_forced(sample: &SampleGraph, graph: &DataGraph, kind: StrategyKind, k: usize) -> RunReport {
    EnumerationRequest::new(sample.clone(), graph)
        .reducers(k)
        .strategy(kind)
        .plan()
        .expect("strategy applies")
        .execute()
}

#[test]
fn all_strategies_agree_on_the_square() {
    let graph = generators::gnm(45, 260, 1001);
    let sample = catalog::square();
    let expected = oracle_count(&sample, &graph);

    for kind in [
        StrategyKind::VariableOriented,
        StrategyKind::BucketOriented,
        StrategyKind::SerialJoin,
    ] {
        let report = run_forced(&sample, &graph, kind, 64);
        assert_eq!(report.count(), expected, "{kind}");
        assert_eq!(report.duplicates(), 0, "{kind}");
    }
    // Section 4.1's one job per CQ, 64 reducers each.
    let config = EngineConfig::default();
    let cq = RunStats::collect(|sink| run_cq_oriented(&sample, &graph, 64, &config, sink));
    assert_eq!(cq.count(), expected);
    assert_eq!(cq.duplicates(), 0);
    // The serial algorithms of Theorems 7.2 and 7.3, outside the planner.
    assert_eq!(
        enumerate_by_decomposition(&sample, &graph).count(),
        expected
    );
    assert_eq!(enumerate_bounded_degree(&sample, &graph).count(), expected);
}

#[test]
fn all_strategies_agree_on_the_lollipop() {
    let graph = generators::gnm(40, 210, 1002);
    let sample = catalog::lollipop();
    let expected = oracle_count(&sample, &graph);

    for (kind, k) in [
        (StrategyKind::VariableOriented, 100),
        (StrategyKind::BucketOriented, 15),
        (StrategyKind::SerialJoin, 1),
    ] {
        let report = run_forced(&sample, &graph, kind, k);
        assert_eq!(report.count(), expected, "{kind}");
        assert_eq!(report.duplicates(), 0, "{kind}");
    }
    assert_eq!(
        enumerate_by_decomposition(&sample, &graph).count(),
        expected
    );
    assert_eq!(enumerate_bounded_degree(&sample, &graph).count(), expected);
}

#[test]
fn triangle_algorithms_agree_with_each_other_and_the_serial_baseline() {
    let graph = generators::gnm(120, 900, 1003);
    let serial = enumerate_triangles_serial(&graph);
    let expected = serial.count();
    let sample = catalog::triangle();

    for kind in [StrategyKind::BucketOriented, StrategyKind::CascadeTriangles] {
        for k in [27usize, 220] {
            let report = run_forced(&sample, &graph, kind, k);
            assert_eq!(report.count(), expected, "{kind} k={k}");
            assert_eq!(report.duplicates(), 0, "{kind} k={k}");
        }
    }
    // Partition and the multiway join at the group and bucket counts that
    // fit 27 and 220 reducers: C(6, 3) = 20 and C(12, 3) = 220; 3³ and 6³.
    let config = EngineConfig::default();
    for (partition_b, multiway_b) in [(6usize, 3usize), (12, 6)] {
        let partition = RunStats::collect(|sink| {
            run_partition_triangles_into(&graph, partition_b, &config, sink)
        });
        let multiway = RunStats::collect(|sink| {
            run_multiway_triangles_into(&graph, multiway_b, &config, sink)
        });
        for (name, run) in [("partition", partition), ("multiway", multiway)] {
            assert_eq!(run.count(), expected, "{name}");
            assert_eq!(run.duplicates(), 0, "{name}");
        }
    }
    assert_eq!(oracle_count(&sample, &graph), expected);
    assert_eq!(enumerate_odd_cycles(&graph, 1).count(), expected);
}

#[test]
fn pentagons_by_four_different_routes() {
    let graph = generators::gnm(22, 80, 1004);
    let sample = catalog::cycle(5);
    let expected = oracle_count(&sample, &graph);

    // Route 1: general CQs evaluated serially.
    let general = evaluate_cqs(
        &cqs_for_sample(&sample),
        &graph,
        &subgraph_mr::graph::IdOrder,
    );
    assert_eq!(general.assignments, expected);
    assert_eq!(general.duplicates(), 0);

    // Route 2: Section 5 run-sequence CQs.
    let runs: Vec<_> = cycle_cqs(5).into_iter().map(|c| c.query).collect();
    let via_runs = evaluate_cqs(&runs, &graph, &subgraph_mr::graph::IdOrder);
    assert_eq!(via_runs.assignments, expected);
    assert_eq!(via_runs.duplicates(), 0);

    // Route 3: the OddCycle serial algorithm.
    assert_eq!(enumerate_odd_cycles(&graph, 2).count(), expected);

    // Route 4: one round of map-reduce, strategy chosen by the planner.
    let plan = EnumerationRequest::new(sample, &graph)
        .reducers(35)
        .plan()
        .unwrap();
    let mr = plan.execute();
    assert_eq!(mr.count(), expected);
    assert_eq!(mr.duplicates(), 0);
    assert_eq!(mr.rounds, 1);
}

#[test]
fn communication_costs_follow_the_paper_ordering() {
    // At comparable reducer counts: bucket-ordered < Partition < multiway,
    // which is the ordering of Figure 2 — both measured and as predicted by
    // the planner's estimate and the paper's formulas.
    use subgraph_mr::shares::counting::{
        multiway_triangle_replication, partition_triangle_replication,
    };
    let graph = generators::gnm(250, 2_200, 1005);
    let sample = catalog::triangle();
    let plan = EnumerationRequest::new(sample.clone(), &graph)
        .reducers(220)
        .plan()
        .unwrap();
    assert_eq!(plan.strategy(), StrategyKind::BucketOriented);
    let m = graph.num_edges() as f64;
    assert!(plan.predicted_communication() < partition_triangle_replication(12) * m);
    assert!(partition_triangle_replication(12) < multiway_triangle_replication(6));

    let config = EngineConfig::default();
    let ordered = run_forced(&sample, &graph, StrategyKind::BucketOriented, 220);
    let partition = run_partition_triangles_into(&graph, 12, &config, &mut CountSink::new());
    let multiway = run_multiway_triangles_into(&graph, 6, &config, &mut CountSink::new());
    assert!(ordered.communication() < partition.metrics.shuffle_records);
    assert!(partition.metrics.shuffle_records < multiway.metrics.shuffle_records);
}

#[test]
fn share_planning_matches_measured_communication() {
    let graph = generators::gnm(90, 600, 1006);
    let plan = EnumerationRequest::new(catalog::square(), &graph)
        .reducers(81)
        .strategy(StrategyKind::VariableOriented)
        .plan()
        .unwrap();
    let run = plan.execute();
    assert_eq!(run.communication() as f64, plan.predicted_communication());
}

#[test]
fn power_law_graphs_are_handled_end_to_end() {
    let graph = generators::power_law(400, 1_500, 2.5, 1007);
    let sample = catalog::triangle();
    let expected = oracle_count(&sample, &graph);
    let run = run_forced(&sample, &graph, StrategyKind::BucketOriented, 56);
    assert_eq!(run.count(), expected);
    assert_eq!(run.duplicates(), 0);
}

#[test]
fn explain_describes_the_plan_end_to_end() {
    let graph = generators::gnm(60, 300, 1008);
    let plan = EnumerationRequest::named("square", &graph)
        .unwrap()
        .reducers(128)
        .plan()
        .unwrap();
    let text = plan.explain();
    assert!(text.contains("\"square\""));
    assert!(text.contains("reducer budget k = 128"));
    assert!(text.contains("predicted replication"));
    assert!(text.contains("predicted reducer work"));
    // Every general-pattern strategy shows up in the candidate table;
    // CQ-oriented processing, which never wins (Theorem 4.4), is no
    // candidate.
    assert!(text.contains("bucket-oriented"));
    assert!(text.contains("variable-oriented"));
    assert!(!text.contains("cq-oriented"));
}
