//! Figures 1 and 2: the three single-round triangle algorithms. Section
//! 2.3's algorithm is bucket-oriented processing on the triangle, run through
//! the planner's strategy override; Partition and the plain multiway join,
//! which the planner does not register, are called as functions.

use crate::report::{fmt, Table};
use subgraph_core::plan::{EnumerationRequest, RunReport, StrategyKind};
use subgraph_core::sink::CountSink;
use subgraph_core::triangles::multiway::run_multiway_triangles_into;
use subgraph_core::triangles::partition::run_partition_triangles_into;
use subgraph_core::{MapReduceRun, RunStats};
use subgraph_graph::{generators, DataGraph};
use subgraph_mapreduce::{EngineConfig, JobMetrics};
use subgraph_pattern::catalog;
use subgraph_shares::counting::{
    multiway_triangle_replication, ordered_triangle_replication, partition_triangle_replication,
    useful_reducers,
};

/// The synthetic data graph used for the measured columns of Figures 1 and 2.
pub fn figure_graph() -> DataGraph {
    generators::gnm(1_200, 12_000, 20_130_415)
}

/// Runs one triangle strategy at the reducer budget that makes the planner
/// pick exactly the wanted bucket count.
fn run_triangles(graph: &DataGraph, kind: StrategyKind, budget: usize) -> RunReport {
    EnumerationRequest::new(catalog::triangle(), graph)
        .reducers(budget)
        .strategy(kind)
        .plan()
        .expect("triangle strategies apply to the triangle pattern")
        .execute()
}

/// Partition with `b` node groups (`C(b, 3)` reducers), counted.
fn run_partition(graph: &DataGraph, b: usize) -> RunStats {
    run_partition_triangles_into(graph, b, &EngineConfig::default(), &mut CountSink::new())
}

/// The plain multiway join with `b` buckets per variable (`b³` reducers),
/// collected.
fn run_multiway(graph: &DataGraph, b: usize) -> MapReduceRun {
    RunStats::collect(|sink| run_multiway_triangles_into(graph, b, &EngineConfig::default(), sink))
}

/// The note on footnote 1: a naive multiway mapper sends all `3b` role
/// copies of an edge, where the measured run sends `3b − 2`; the pairs and
/// bytes it would ship, each pair priced like the measured run's.
fn naive_multiway_note(graph: &DataGraph, b: usize, measured: &JobMetrics) -> String {
    let pairs = 3 * b * graph.num_edges();
    let bytes = measured.shuffle_bytes / measured.shuffle_records as u64 * pairs as u64;
    format!(
        "the multiway mapper sends each edge to its 3b−2 = {} distinct reducers, so the \
         measured column is the paper's 3b−2 exactly; footnote 1's naive mapper sends all \
         3b = {} role copies: {pairs} pairs ({bytes} bytes) at b = {b}",
        3 * b - 2,
        3 * b
    )
}

/// Figure 1 — asymptotic comparison of the three algorithms at (approximately)
/// equal reducer counts `k`, plus measured replication on a synthetic graph.
pub fn figure1() -> String {
    let graph = figure_graph();
    let k = 220.0f64; // reducer budget used to derive b per algorithm
    let b_partition = (6.0 * k).cbrt().round() as usize; // b = (6k)^{1/3}
    let b_multiway = k.cbrt().round() as usize; // b = k^{1/3}
    let b_ordered = (6.0 * k).cbrt().round() as usize; // b = (6k)^{1/3}

    let mut table = Table::new(
        "Figure 1 — asymptotic communication cost of triangle algorithms (k reducers)",
        &[
            "algorithm",
            "buckets b",
            "formula (per edge)",
            "formula value",
            "measured (per edge)",
        ],
    );
    // The bucket-oriented budget is chosen so the planner's bucket selection
    // lands exactly on b.
    let partition_run = run_partition(&graph, b_partition);
    let partition_metrics = &partition_run.metrics;
    table.row(&[
        "Partition [19]".into(),
        format!("(6k)^1/3 = {b_partition}"),
        "3·(6k)^1/3 / 2  (≈ 3b/2)".into(),
        fmt(partition_triangle_replication(b_partition as u64)),
        fmt(partition_metrics.replication_per_input()),
    ]);
    let multiway_run = run_multiway(&graph, b_multiway);
    let multiway_metrics = &multiway_run.metrics;
    table.row(&[
        "Section 2.2 multiway join".into(),
        format!("k^1/3 = {b_multiway}"),
        "3·k^1/3 − 2  (= 3b−2)".into(),
        fmt(multiway_triangle_replication(b_multiway as u64)),
        fmt(multiway_metrics.replication_per_input()),
    ]);
    let ordered_run = run_triangles(
        &graph,
        StrategyKind::BucketOriented,
        useful_reducers(b_ordered as u64, 3) as usize,
    );
    let ordered_metrics = ordered_run.metrics.as_ref().unwrap();
    table.row(&[
        "Section 2.3 bucket-ordered".into(),
        format!("(6k)^1/3 = {b_ordered}"),
        "(6k)^1/3  (= b)".into(),
        fmt(ordered_triangle_replication(b_ordered as u64)),
        fmt(ordered_metrics.replication_per_input()),
    ]);
    table.note(&format!(
        "data graph: n = {}, m = {}; all three algorithms found {} triangles",
        graph.num_nodes(),
        graph.num_edges(),
        ordered_run.count()
    ));
    table.note(&naive_multiway_note(&graph, b_multiway, multiway_metrics));
    assert_eq!(partition_run.outputs, ordered_run.count());
    assert_eq!(multiway_run.count(), ordered_run.count());
    table.render()
}

/// Figure 2 — the same comparison at the paper's specific bucket counts
/// (Partition b = 12, Section 2.2 b = 6, Section 2.3 b = 10).
pub fn figure2() -> String {
    let graph = figure_graph();
    let mut table = Table::new(
        "Figure 2 — comparison at specific reducer counts",
        &[
            "algorithm",
            "buckets b",
            "reducers (max)",
            "reducers used",
            "paper cost/edge",
            "measured cost/edge",
        ],
    );
    let partition_run = run_partition(&graph, 12);
    let partition_metrics = &partition_run.metrics;
    table.row(&[
        "Partition [19]".into(),
        "12".into(),
        "C(12,3) = 220".into(),
        partition_metrics.reducers_used.to_string(),
        "13.75".into(),
        fmt(partition_metrics.replication_per_input()),
    ]);
    let multiway_run = run_multiway(&graph, 6);
    let multiway_metrics = &multiway_run.metrics;
    table.row(&[
        "Section 2.2 multiway join".into(),
        "6".into(),
        "6³ = 216".into(),
        multiway_metrics.reducers_used.to_string(),
        "16".into(),
        fmt(multiway_metrics.replication_per_input()),
    ]);
    let ordered_run = run_triangles(&graph, StrategyKind::BucketOriented, 220);
    let ordered_metrics = ordered_run.metrics.as_ref().unwrap();
    table.row(&[
        "Section 2.3 bucket-ordered".into(),
        "10".into(),
        "C(12,3) = 220".into(),
        ordered_metrics.reducers_used.to_string(),
        "10".into(),
        fmt(ordered_metrics.replication_per_input()),
    ]);
    table.note(&format!(
        "triangles found by all three algorithms: {}",
        ordered_run.count()
    ));
    table.note(&naive_multiway_note(&graph, 6, multiway_metrics));
    // Every reducer runs the triangle's one join; the same join by one
    // reducer over every edge is the serial baseline.
    let serial_run = run_triangles(&graph, StrategyKind::BucketOriented, 1);
    table.note(&format!(
        "total reducer work (edges read + join candidates tried): Partition {}, multiway {}, \
         ordered {}; serial baseline (one reducer, b = 1) {}",
        partition_metrics.reducer_work,
        multiway_metrics.reducer_work,
        ordered_run.work,
        serial_run.work
    ));
    table.render()
}

/// Section 2 motivation — one round of multiway join versus the conventional
/// two-round cascade of two-way joins, on a skewed (power-law) graph where the
/// intermediate wedge count explodes.
pub fn cascade_comparison() -> String {
    let graph = generators::power_law(2_000, 12_000, 2.2, 20_130_416);
    let cascade = run_triangles(&graph, StrategyKind::CascadeTriangles, 220);
    let ordered = run_triangles(
        &graph,
        StrategyKind::BucketOriented,
        useful_reducers(8, 3) as usize,
    );
    assert_eq!(cascade.count(), ordered.count());
    let mut table = Table::new(
        "Section 2 motivation — single-round multiway join vs two-round cascade",
        &[
            "algorithm",
            "rounds",
            "kv pairs shipped",
            "per edge",
            "triangles",
        ],
    );
    table.row(&[
        "cascade of 2-way joins".into(),
        cascade.rounds.to_string(),
        cascade.communication().to_string(),
        fmt(cascade.communication() as f64 / graph.num_edges() as f64),
        cascade.count().to_string(),
    ]);
    table.row(&[
        "bucket-ordered multiway (b=8)".into(),
        ordered.rounds.to_string(),
        ordered.communication().to_string(),
        fmt(ordered.metrics.as_ref().unwrap().replication_per_input()),
        ordered.count().to_string(),
    ]);
    table.note(&format!(
        "power-law data graph: n = {}, m = {}, max degree {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_degree()
    ));
    // The cascade runs two rounds: show where the pairs go.
    for round in &cascade.round_metrics {
        table.note(&format!(
            "cascade round {:?}: {} inputs, {} kv pairs shipped ({} bytes), {} outputs",
            round.name,
            round.metrics.input_records,
            round.metrics.shuffle_records,
            round.metrics.shuffle_bytes,
            round.metrics.outputs,
        ));
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_reports_the_ordered_algorithm_as_cheapest() {
        let text = figure1();
        assert!(text.contains("Partition"));
        assert!(text.contains("bucket-ordered"));
    }

    #[test]
    fn figure2_contains_the_paper_constants() {
        let text = figure2();
        assert!(text.contains("13.75"));
        assert!(text.contains("16"));
        assert!(text.contains("C(12,3) = 220"));
    }

    /// The sink-refactor acceptance check for the reproductions: running the
    /// Figure 1/2 algorithms in count-only mode (CountSink, no instance
    /// storage) yields byte-identical counts, shuffle records and shuffle
    /// bytes to the collect path the figures measure.
    #[test]
    fn count_mode_matches_the_figure_counts_and_counters() {
        let graph = figure_graph();
        // Partition and the multiway join are functions: their count-only
        // run must measure exactly what their collecting run measures.
        let config = EngineConfig::default();
        for (name, b) in [("partition", 12), ("multiway", 6)] {
            let run = |sink: &mut dyn subgraph_core::sink::InstanceSink| match name {
                "partition" => run_partition_triangles_into(&graph, b, &config, sink),
                _ => run_multiway_triangles_into(&graph, b, &config, sink),
            };
            let collected = RunStats::collect(run);
            let counted = run(&mut CountSink::new());
            assert_eq!(counted.outputs, collected.count(), "{name}");
            assert_eq!(
                counted.metrics.without_timings(),
                collected.metrics.without_timings(),
                "{name}"
            );
        }
        let plan = EnumerationRequest::new(catalog::triangle(), &graph)
            .reducers(220)
            .strategy(StrategyKind::BucketOriented)
            .plan()
            .expect("bucket-oriented applies to the triangle");
        let collected = plan.execute();
        let counted = plan.count();
        assert!(counted.is_streamed());
        assert_eq!(counted.count(), collected.count());
        assert_eq!(
            counted.metrics.as_ref().map(JobMetrics::without_timings),
            collected.metrics.as_ref().map(JobMetrics::without_timings)
        );
        // Honest rendering: a count-only run never reads as "0 instances".
        assert!(counted
            .describe_output()
            .contains(&format!("{} instances streamed", collected.count())));
    }
}
