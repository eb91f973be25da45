//! Variable-oriented processing (Section 4.3): all CQs for the sample graph
//! are evaluated by a single map-reduce job whose reducers are identified by
//! one bucket number per variable.
//!
//! The reducers run one join, not `p!/|Aut|`: [`sample_plan`], the sample
//! graph's edges unoriented under its group's symmetry-breaking comparisons.
//! Each edge is shipped in that plan's roles ([`JoinPlan::roles`]), and the
//! cost expression is built from the same roles, so the communication the
//! planner predicts is what the job ships. Each instance has exactly one
//! assignment that satisfies the comparisons under the identifier order;
//! that assignment's per-variable hashes name one reducer, and every edge it
//! uses is shipped there in the role its orientation takes.

use super::bucket_oriented::sample_plan;
use super::{integer_shares, run_share_vector_round};
use crate::result::{MapReduceRun, RunStats};
use crate::sink::InstanceSink;
use subgraph_cq::JoinPlan;
use subgraph_graph::DataGraph;
use subgraph_mapreduce::EngineConfig;
use subgraph_pattern::SampleGraph;
use subgraph_shares::{optimize_shares, CostExpression};

/// Plan for a variable-oriented run: what its reducers join and the shares
/// its keys are built from.
#[derive(Clone, Debug)]
pub struct VariableOrientedPlan {
    /// The join every reducer runs ([`sample_plan`]); its roles are the
    /// orientations each edge is shipped in.
    pub join: JoinPlan,
    /// The integer share of each variable.
    pub shares: Vec<u32>,
}

/// The cost expression of shipping each edge in `join`'s roles, with the
/// dominance rule applied (dominated variables keep share 1, which also
/// keeps the optimum finite for patterns like the lollipop whose pendant
/// variable appears in a single term).
pub(crate) fn cost_expression(join: &JoinPlan) -> CostExpression {
    let num_vars = join.positions().len();
    let mut expr = CostExpression::from_subgoal_collections(num_vars, &[join.roles().to_vec()]);
    expr.fix_dominated_to_one();
    expr
}

/// Optimizes [`cost_expression`] for `k` reducers and rounds the shares:
/// `(integer shares, predicted replication per edge)`.
pub(crate) fn optimize(join: &JoinPlan, k: usize) -> (Vec<u32>, f64) {
    let expr = cost_expression(join);
    let shares = integer_shares(&optimize_shares(&expr, k.max(1) as f64).shares, k);
    let predicted = expr.evaluate(&shares.iter().map(|&s| s as f64).collect::<Vec<_>>());
    (shares, predicted)
}

/// Builds the plan: [`sample_plan`] and its shares for `k` reducers.
pub fn plan(sample: &SampleGraph, k: usize) -> VariableOrientedPlan {
    let join = sample_plan(sample);
    let (shares, _) = optimize(&join, k);
    VariableOrientedPlan { join, shares }
}

/// Runs the job for an explicit plan (exposed for benches that sweep shares),
/// collecting the instances.
pub fn run_with_plan(
    graph: &DataGraph,
    plan: &VariableOrientedPlan,
    config: &EngineConfig,
) -> MapReduceRun {
    RunStats::collect(|sink| run_with_plan_into(graph, plan, config, sink))
}

/// Streaming variant of [`run_with_plan`].
pub fn run_with_plan_into(
    graph: &DataGraph,
    plan: &VariableOrientedPlan,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    run_share_vector_round(
        "variable-oriented",
        std::slice::from_ref(&plan.join),
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
    use subgraph_cq::cqs_for_sample;
    use subgraph_graph::generators;
    use subgraph_pattern::catalog;

    fn config() -> EngineConfig {
        EngineConfig::with_threads(4)
    }

    fn agree(sample: &SampleGraph, graph: &DataGraph, k: usize) {
        let run = run_with_plan(graph, &plan(sample, k), &config());
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
        let (shares, replication) = optimize(&plan.join, 256);
        assert_eq!(shares, plan.shares);
        let run = run_with_plan(&g, &plan, &config());
        let predicted_total = replication * g.num_edges() as f64;
        let measured = run.metrics.shuffle_records as f64;
        assert!(
            (measured - predicted_total).abs() / predicted_total < 1e-9,
            "measured {measured} vs predicted {predicted_total}"
        );
    }

    #[test]
    fn the_cost_expression_is_the_collections_without_building_it() {
        let mut samples: Vec<(String, SampleGraph)> = (catalog::entries().into_iter())
            .map(|entry| (entry.name.to_string(), entry.sample))
            .collect();
        samples.extend(
            ["c7", "path7", "star8", "k7"].map(|n| (n.to_string(), catalog::by_name(n).unwrap())),
        );
        for (name, sample) in &samples {
            let mut collection = CostExpression::from_cq_collection(&cqs_for_sample(sample));
            collection.fix_dominated_to_one();
            let shipped = cost_expression(&sample_plan(sample));
            // The pentagon with a chord ships one edge in a single orientation
            // where the collection has both: its plan's roles are 11 of the
            // collection's 12 distinct subgoals.
            if name == "pentagon-with-chord" {
                assert_ne!(shipped, collection);
            } else {
                assert_eq!(shipped, collection, "{name}");
            }
        }
    }

    #[test]
    fn plan_reports_share_structure_for_the_square() {
        // Example 4.2: the optimum satisfies x = z and y = 2w; integer rounding
        // keeps the shares within one of each other.
        let join = sample_plan(&catalog::square());
        let optimum = optimize_shares(&cost_expression(&join), 512.0).shares;
        assert!((optimum[1] - optimum[3]).abs() < 0.1);
        let plan = plan(&catalog::square(), 512);
        assert_eq!(plan.shares.len(), 4);
        assert!(plan.shares.iter().all(|&s| s >= 1));
    }
}
