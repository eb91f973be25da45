//! CQ-oriented processing (Section 4.1): each conjunctive query is evaluated
//! by its own map-reduce job with its own optimized shares.
//!
//! Theorem 4.4 shows this is never better than evaluating the whole CQ group
//! at once; it is provided as the baseline the benchmark harness compares
//! variable-oriented processing against.

use super::{integer_shares, run_share_vector_round};
use crate::result::{MapReduceRun, RunStats};
use crate::sink::{CollectSink, InstanceSink};
use subgraph_cq::{cqs_for_sample, ConjunctiveQuery};
use subgraph_graph::DataGraph;
use subgraph_mapreduce::EngineConfig;
use subgraph_pattern::SampleGraph;
use subgraph_shares::dominance::single_cq_expression_with_dominance;
use subgraph_shares::optimize_shares;

/// Runs one map-reduce job per CQ, each with a budget of `k_per_query`
/// reducers, and combines the results. The returned metrics are the sums over
/// all jobs (communication cost adds up, exactly as in Theorem 4.4's
/// comparison); the per-job breakdown lands in `round_metrics` (the jobs are
/// independent, not chained rounds, but share the same reporting shape).
///
/// Internal runner behind [`crate::plan::StrategyKind::CqOriented`]: every
/// job streams into the same `sink`, so the combined instance stream is the
/// job-order concatenation (deterministic under a deterministic engine
/// config).
pub(crate) fn run_cq_oriented(
    sample: &SampleGraph,
    graph: &DataGraph,
    k_per_query: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
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
    let mut collected = CollectSink::new();
    let stats = single_cq_job_into(cq, graph, k, config, &mut collected);
    stats.into_run(collected.into_items())
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
        std::slice::from_ref(cq),
        &job_shares(cq, k),
        graph,
        config,
        sink,
    )
}

/// The integer shares the job of `cq` runs with at a budget of `k` reducers.
pub(crate) fn job_shares(cq: &ConjunctiveQuery, k: usize) -> Vec<u32> {
    let expr = single_cq_expression_with_dominance(cq);
    integer_shares(&optimize_shares(&expr, k.max(1) as f64).shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::variable_oriented::run_variable_oriented;
    use crate::serial::generic::enumerate_generic;
    use subgraph_graph::generators;
    use subgraph_pattern::catalog;

    fn config() -> EngineConfig {
        EngineConfig::with_threads(4)
    }

    /// Collect-mode driver over the streaming runner.
    fn collect_run(sample: &SampleGraph, graph: &DataGraph, k: usize) -> MapReduceRun {
        let mut collected = CollectSink::new();
        let stats = run_cq_oriented(sample, graph, k, &config(), &mut collected);
        stats.into_run(collected.into_items())
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
        let combined = {
            let mut collected = CollectSink::new();
            let stats = run_variable_oriented(&sample, &g, 128, &config(), &mut collected);
            stats.into_run(collected.into_items())
        };
        let separate = collect_run(&sample, &g, 128);
        assert!(
            separate.metrics.key_value_pairs >= combined.metrics.key_value_pairs,
            "separate {} vs combined {}",
            separate.metrics.key_value_pairs,
            combined.metrics.key_value_pairs
        );
        assert_eq!(separate.count(), combined.count());
    }
}
