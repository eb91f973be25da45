//! Variable-oriented processing (Section 4.3): all CQs for the sample graph
//! are evaluated by a single map-reduce job whose reducers are identified by
//! one bucket number per variable.

use super::{integer_shares, run_share_vector_round};
use crate::result::{MapReduceRun, RunStats};
use crate::sink::{CollectSink, InstanceSink};
use subgraph_cq::{cqs_for_sample, representative_subgoals, ConjunctiveQuery};
use subgraph_graph::DataGraph;
use subgraph_mapreduce::EngineConfig;
use subgraph_pattern::SampleGraph;
use subgraph_shares::{optimize_shares, CostExpression};

/// Plan for a variable-oriented run: the CQ collection, the optimized shares
/// (real-valued and rounded), and the distinct subgoal orientations that
/// determine how edges are replicated.
#[derive(Clone, Debug)]
pub struct VariableOrientedPlan {
    /// The CQ collection of Theorem 3.1.
    pub cqs: Vec<ConjunctiveQuery>,
    /// The optimal real-valued shares for the requested reducer budget.
    pub optimal_shares: Vec<f64>,
    /// The integer shares actually used by the engine.
    pub shares: Vec<u32>,
    /// The per-edge communication cost predicted by the cost expression at the
    /// integer shares.
    pub predicted_replication: f64,
}

/// The combined cost expression of the CQ collection with the dominance rule
/// applied (dominated variables keep share 1, which also keeps the optimum
/// finite for patterns like the lollipop whose pendant variable appears in a
/// single term). It is built from the collection's distinct subgoals
/// ([`representative_subgoals`]), so no CQ is materialised, and it is term
/// for term the expression `CostExpression::from_cq_collection` builds from
/// [`cqs_for_sample`].
pub(crate) fn cost_expression(sample: &SampleGraph) -> CostExpression {
    let subgoals = representative_subgoals(sample);
    let mut expr = CostExpression::from_subgoal_collections(sample.num_nodes(), &[subgoals]);
    expr.fix_dominated_to_one();
    expr
}

/// Optimizes [`cost_expression`] for `k` reducers and rounds the shares:
/// `(optimal shares, integer shares, predicted replication per edge)`.
pub(crate) fn optimize(sample: &SampleGraph, k: usize) -> (Vec<f64>, Vec<u32>, f64) {
    let expr = cost_expression(sample);
    let solution = optimize_shares(&expr, (k.max(1)) as f64);
    let shares = integer_shares(&solution.shares);
    let predicted = expr.evaluate(&shares.iter().map(|&s| s as f64).collect::<Vec<_>>());
    (solution.shares, shares, predicted)
}

/// Builds the plan: optimizes the shares for `k` reducers over the combined
/// cost expression (which estimating needs alone) and generates the CQs the
/// reducers evaluate.
pub fn plan(sample: &SampleGraph, k: usize) -> VariableOrientedPlan {
    let (optimal_shares, shares, predicted_replication) = optimize(sample, k);
    VariableOrientedPlan {
        cqs: cqs_for_sample(sample),
        optimal_shares,
        shares,
        predicted_replication,
    }
}

/// Runs variable-oriented enumeration of `sample` over `graph` with a budget
/// of (approximately) `k` reducers, streaming instances into `sink`.
///
/// Internal runner behind [`crate::plan::StrategyKind::VariableOriented`].
pub(crate) fn run_variable_oriented(
    sample: &SampleGraph,
    graph: &DataGraph,
    k: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    let plan = plan(sample, k);
    run_with_plan_into(graph, &plan, config, sink)
}

/// Runs the job for an explicit plan (exposed for benches that sweep shares),
/// collecting the instances.
pub fn run_with_plan(
    graph: &DataGraph,
    plan: &VariableOrientedPlan,
    config: &EngineConfig,
) -> MapReduceRun {
    let mut collected = CollectSink::new();
    let stats = run_with_plan_into(graph, plan, config, &mut collected);
    stats.into_run(collected.into_items())
}

/// Streaming variant of [`run_with_plan`]: the distinct subgoal orientations
/// across the CQ collection are the roles each edge is shipped in.
pub fn run_with_plan_into(
    graph: &DataGraph,
    plan: &VariableOrientedPlan,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    run_share_vector_round(
        "variable-oriented",
        &plan.cqs,
        &plan.shares,
        graph,
        config,
        sink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::generic::enumerate_generic;
    use subgraph_graph::generators;
    use subgraph_pattern::catalog;

    fn config() -> EngineConfig {
        EngineConfig::with_threads(4)
    }

    /// Collect-mode driver over the streaming runner.
    fn collect_run(sample: &SampleGraph, graph: &DataGraph, k: usize) -> MapReduceRun {
        let mut collected = CollectSink::new();
        let stats = run_variable_oriented(sample, graph, k, &config(), &mut collected);
        stats.into_run(collected.into_items())
    }

    fn agree(sample: &SampleGraph, graph: &DataGraph, k: usize) {
        let run = collect_run(sample, graph, k);
        let oracle = enumerate_generic(sample, graph);
        assert_eq!(run.count(), oracle.count(), "pattern {sample:?} k={k}");
        assert_eq!(run.duplicates(), 0);
        let mut a = run.instances().to_vec();
        let mut b = oracle.instances().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn squares_match_the_oracle() {
        let g = generators::gnm(40, 220, 1);
        agree(&catalog::square(), &g, 64);
        agree(&catalog::square(), &g, 1);
    }

    #[test]
    fn lollipops_match_the_oracle() {
        let g = generators::gnm(35, 180, 2);
        agree(&catalog::lollipop(), &g, 100);
    }

    #[test]
    fn triangles_match_the_oracle() {
        let g = generators::gnm(50, 300, 3);
        agree(&catalog::triangle(), &g, 27);
    }

    #[test]
    fn pentagons_match_the_oracle() {
        let g = generators::gnm(22, 80, 4);
        agree(&catalog::cycle(5), &g, 32);
    }

    #[test]
    fn communication_matches_the_cost_expression_prediction() {
        let g = generators::gnm(120, 900, 5);
        let plan = plan(&catalog::square(), 256);
        let run = run_with_plan(&g, &plan, &config());
        let predicted_total = plan.predicted_replication * g.num_edges() as f64;
        let measured = run.metrics.key_value_pairs as f64;
        assert!(
            (measured - predicted_total).abs() / predicted_total < 1e-9,
            "measured {measured} vs predicted {predicted_total}"
        );
    }

    #[test]
    fn the_cost_expression_is_the_collections_without_building_it() {
        let mut samples: Vec<SampleGraph> = (catalog::entries().into_iter())
            .map(|entry| entry.sample)
            .collect();
        samples.extend(["c7", "path7", "star8", "k7"].map(|n| catalog::by_name(n).unwrap()));
        for sample in &samples {
            let mut collection = CostExpression::from_cq_collection(&cqs_for_sample(sample));
            collection.fix_dominated_to_one();
            assert_eq!(cost_expression(sample), collection, "{sample:?}");
        }
    }

    #[test]
    fn plan_reports_share_structure_for_the_square() {
        // Example 4.2: the optimum satisfies x = z and y = 2w; integer rounding
        // keeps the shares within one of each other.
        let plan = plan(&catalog::square(), 512);
        let product: u32 = plan.shares.iter().product();
        assert!(product >= 1);
        assert_eq!(plan.shares.len(), 4);
        assert!((plan.optimal_shares[1] - plan.optimal_shares[3]).abs() < 0.1);
    }
}
