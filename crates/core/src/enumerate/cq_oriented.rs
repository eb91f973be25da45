//! CQ-oriented processing (Section 4.1): each conjunctive query is evaluated
//! by its own map-reduce job with its own optimized shares.
//!
//! Theorem 4.4 shows this is never better than evaluating the whole CQ group
//! at once, so it is not a planner strategy: it is the baseline the paper's
//! tables and the test suites compare variable-oriented processing against,
//! called directly.

use super::{integer_shares, run_share_vector_round};
use crate::plan::MAX_ORDER_CLASSES;
use crate::result::{MapReduceRun, RunStats};
use crate::sink::InstanceSink;
use subgraph_cq::{cqs_for_sample, ConjunctiveQuery, JoinPlan};
use subgraph_graph::DataGraph;
use subgraph_mapreduce::EngineConfig;
use subgraph_pattern::{automorphism_group, SampleGraph};
use subgraph_shares::dominance::single_cq_expression_with_dominance;
use subgraph_shares::{optimize_shares, SharesSolution};

/// Runs one map-reduce job per CQ, each with a budget of `k_per_query`
/// reducers, and combines the results. The returned metrics are the sums over
/// all jobs (communication cost adds up, exactly as in Theorem 4.4's
/// comparison); the per-job breakdown lands in `round_metrics` (the jobs are
/// independent, not chained rounds, but share the same reporting shape).
///
/// Every job streams into the same `sink`, so the combined instance stream is
/// the job-order concatenation (deterministic under a deterministic engine
/// config).
///
/// There is one job per order class (`p!/|Aut|`, Theorem 3.1), so a pattern
/// past [`MAX_ORDER_CLASSES`] classes panics, as does a sample node without
/// an edge (no edge-relation CQ binds it) and a budget whose share grid
/// builds no key space.
pub fn run_cq_oriented(
    sample: &SampleGraph,
    graph: &DataGraph,
    k_per_query: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    let classes = automorphism_group(sample).order_classes();
    assert!(
        classes <= MAX_ORDER_CLASSES,
        "cq-oriented processing runs one job per order class: {classes} classes \
         exceed the limit of {MAX_ORDER_CLASSES}"
    );
    assert!(
        sample.nodes().all(|v| sample.degree(v) > 0),
        "cq-oriented processing needs an edge at every sample node"
    );
    let cqs = cqs_for_sample(sample);
    let mut combined = RunStats::default();
    for (job, cq) in cqs.iter().enumerate() {
        let mut stats = single_cq_job_into(cq, graph, k_per_query, config, sink);
        for round in &mut stats.round_metrics {
            round.name = format!("cq-job-{job}");
        }
        combined.absorb(stats);
    }
    combined
}

/// Evaluates a single CQ in one map-reduce job with optimized shares,
/// collecting the instances.
pub fn single_cq_job(
    cq: &ConjunctiveQuery,
    graph: &DataGraph,
    k: usize,
    config: &EngineConfig,
) -> MapReduceRun {
    RunStats::collect(|sink| single_cq_job_into(cq, graph, k, config, sink))
}

/// Streaming variant of [`single_cq_job`].
pub fn single_cq_job_into(
    cq: &ConjunctiveQuery,
    graph: &DataGraph,
    k: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    run_share_vector_round(
        "cq-job",
        &[JoinPlan::compile(cq)],
        &integer_shares(&job_solution(cq, k).shares, k),
        graph,
        config,
        sink,
    )
}

/// The optimized shares of the job of `cq` at a budget of `k` reducers.
fn job_solution(cq: &ConjunctiveQuery, k: usize) -> SharesSolution {
    optimize_shares(&single_cq_expression_with_dominance(cq), k.max(1) as f64)
}

/// The optimized shares of *every* job of CQ-oriented processing on `sample`
/// at a budget of `k` reducers, from one solve.
///
/// A single CQ's Shares expression has exactly one coefficient-1 term per
/// undirected sample edge, and the dominance rule never looks at orientation,
/// so every order class's query has the same expression, hence bitwise the
/// same solution. The identity ordering's query stands for all `p!/|Aut|`.
#[cfg(test)]
pub(crate) fn class_job_solution(sample: &SampleGraph, k: usize) -> SharesSolution {
    let identity: Vec<_> = sample.nodes().collect();
    job_solution(&subgraph_cq::cq_for_ordering(sample, &identity), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::variable_oriented;
    use crate::serial::generic::enumerate_generic;
    use subgraph_graph::generators;
    use subgraph_pattern::catalog;

    fn config() -> EngineConfig {
        EngineConfig::with_threads(4)
    }

    /// Collect-mode driver over the streaming runner.
    fn collect_run(sample: &SampleGraph, graph: &DataGraph, k: usize) -> MapReduceRun {
        RunStats::collect(|sink| run_cq_oriented(sample, graph, k, &config(), sink))
    }

    #[test]
    fn squares_match_the_oracle() {
        let g = generators::gnm(30, 140, 8);
        let run = collect_run(&catalog::square(), &g, 64);
        let oracle = enumerate_generic(&catalog::square(), &g);
        assert_eq!(run.count(), oracle.count());
        assert_eq!(run.duplicates(), 0);
    }

    #[test]
    fn lollipops_match_the_oracle() {
        let g = generators::gnm(28, 130, 9);
        let run = collect_run(&catalog::lollipop(), &g, 60);
        let oracle = enumerate_generic(&catalog::lollipop(), &g);
        assert_eq!(run.count(), oracle.count());
        assert_eq!(run.duplicates(), 0);
    }

    #[test]
    fn single_cq_job_respects_its_own_optimum() {
        // Example 4.1: the lollipop's identity-order CQ at k = 750 ships about
        // 65 copies of each edge (the integer rounding keeps it close).
        let cq = cqs_for_sample(&catalog::lollipop())
            .into_iter()
            .find(|q| q.subgoals() == [(0, 1), (1, 2), (1, 3), (2, 3)])
            .unwrap();
        let g = generators::gnm(60, 350, 10);
        let run = single_cq_job(&cq, &g, 750, &config());
        let per_edge = run.metrics.replication_per_input();
        assert!(
            (per_edge - 65.0).abs() < 8.0,
            "replication per edge {per_edge} far from the predicted 65"
        );
    }

    #[test]
    fn separate_jobs_never_beat_the_combined_job_on_communication() {
        // Theorem 4.4 at equal total reducer budget.
        let g = generators::gnm(60, 320, 11);
        let sample = catalog::square();
        let combined =
            variable_oriented::run_with_plan(&g, &variable_oriented::plan(&sample, 128), &config());
        let separate = collect_run(&sample, &g, 128);
        assert!(
            separate.metrics.key_value_pairs >= combined.metrics.key_value_pairs,
            "separate {} vs combined {}",
            separate.metrics.key_value_pairs,
            combined.metrics.key_value_pairs
        );
        assert_eq!(separate.count(), combined.count());
    }

    #[test]
    fn every_job_ships_the_class_solve_at_its_integer_shares() {
        // One job per order class, each shipping every edge once per subgoal
        // to the product of the other variables' shares — the Shares
        // expression at the integer shares of the one class solve, times the
        // number of classes.
        let g = generators::gnm(40, 200, 12);
        for (sample, k) in [
            (catalog::square(), 32),
            (catalog::lollipop(), 750),
            (catalog::cycle(5), 64),
        ] {
            let shares = integer_shares(&class_job_solution(&sample, k).shares, k);
            let per_edge: u64 = (sample.edges().iter())
                .map(|&(a, b)| {
                    (sample.nodes().filter(|&v| v != a && v != b))
                        .map(|v| u64::from(shares[v as usize]))
                        .product::<u64>()
                })
                .sum();
            let classes = automorphism_group(&sample).order_classes() as usize;
            let run = collect_run(&sample, &g, k);
            assert_eq!(run.round_metrics.len(), classes);
            assert_eq!(
                run.metrics.shuffle_records as u64,
                classes as u64 * per_edge * g.num_edges() as u64,
                "k={k} shares={shares:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceed the limit")]
    fn patterns_past_the_order_class_limit_are_refused() {
        let g = generators::gnm(30, 60, 3);
        collect_run(&catalog::cycle(16), &g, 64);
    }

    #[test]
    #[should_panic(expected = "needs an edge at every sample node")]
    fn a_sample_node_without_an_edge_is_refused() {
        let g = generators::gnm(30, 60, 3);
        collect_run(&SampleGraph::from_edges(3, &[(0, 1)]), &g, 64);
    }

    #[test]
    #[should_panic(expected = "the key space exceeds")]
    fn a_budget_past_the_key_space_is_refused() {
        let g = generators::gnm(100, 200, 1);
        collect_run(&catalog::hypercube(3), &g, 4_000_000_000);
    }
}
