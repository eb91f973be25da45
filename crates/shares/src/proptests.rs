//! Property-style tests for the share optimizer, exercised over deterministic
//! sweeps of catalog patterns, seeded random samples and reducer budgets.

use crate::counting::{
    bucket_oriented_replication, generalized_partition_replication, useful_reducers,
};
use crate::dominance::single_cq_expression_with_dominance;
use crate::expr::CostExpression;
use crate::solver::{optimize_shares, solve, MAX_ITERATIONS};
use subgraph_cq::{cq_for_ordering, cqs_for_sample};
use subgraph_pattern::catalog;
use subgraph_pattern::{PatternNode, SampleGraph};

fn patterns() -> Vec<SampleGraph> {
    vec![
        catalog::triangle(),
        catalog::square(),
        catalog::lollipop(),
        catalog::cycle(5),
        catalog::k4(),
        catalog::path(4),
    ]
}

/// Deterministic LCG step (the constants of the other crates' proptests).
pub(crate) fn lcg(state: &mut u64, bound: usize) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) as usize) % bound.max(1)
}

/// A random connected sample on `p` nodes: a random spanning tree plus up to
/// `p` random extra edges.
pub(crate) fn random_connected_sample(state: &mut u64, p: usize) -> SampleGraph {
    let mut edges: Vec<(PatternNode, PatternNode)> = (1..p)
        .map(|v| (lcg(state, v) as PatternNode, v as PatternNode))
        .collect();
    for _ in 0..lcg(state, p + 1) {
        let (a, b) = (lcg(state, p), lcg(state, p));
        let edge = (a.min(b) as PatternNode, a.max(b) as PatternNode);
        if a != b && !edges.contains(&edge) {
            edges.push(edge);
        }
    }
    edges.sort_unstable();
    SampleGraph::from_edges(p, &edges)
}

/// The projected-gradient solver the Newton solver replaced, kept as the
/// oracle: fixed-step descent in log space, projected onto `Σ u = ln k`,
/// with a step-shrink test every 100 iterations and no convergence exit.
/// Returns the cost it ends at.
fn projected_gradient(expr: &CostExpression, k: f64) -> f64 {
    let free = expr.free_vars();
    let mut shares = vec![1.0f64; expr.num_vars()];
    if free.is_empty() || expr.terms().is_empty() {
        return expr.evaluate(&shares);
    }
    let log_k = k.ln();
    let mut log_shares = vec![log_k / free.len() as f64; free.len()];
    let write = |shares: &mut [f64], log_shares: &[f64]| {
        for (i, &v) in free.iter().enumerate() {
            shares[v as usize] = log_shares[i].exp();
        }
    };
    let mut step = 0.5;
    let mut previous_cost = f64::INFINITY;
    for iteration in 0..20_000 {
        write(&mut shares, &log_shares);
        let cost = expr.evaluate(&shares);
        let sums: Vec<f64> = (expr.per_variable_sums(&shares).into_iter())
            .map(|(_, sum)| sum)
            .collect();
        let mean = sums.iter().sum::<f64>() / sums.len() as f64;
        let scale = if mean > 0.0 { 1.0 / mean } else { 1.0 };
        for (u, sum) in log_shares.iter_mut().zip(&sums) {
            *u -= step * scale * (sum - mean);
        }
        let correction = (log_k - log_shares.iter().sum::<f64>()) / log_shares.len() as f64;
        log_shares.iter_mut().for_each(|u| *u += correction);
        if iteration % 100 == 99 {
            if cost > previous_cost * (1.0 - 1e-12) {
                step *= 0.7;
                if step < 1e-6 {
                    break;
                }
            }
            previous_cost = cost;
        }
    }
    write(&mut shares, &log_shares);
    expr.evaluate(&shares)
}

/// The two expressions the planner solves for `sample`: one CQ's with the
/// dominance rule (cq-oriented) and the whole collection's with it
/// (variable-oriented).
fn planner_expressions(sample: &SampleGraph) -> [CostExpression; 2] {
    let cqs = cqs_for_sample(sample);
    let mut collection = CostExpression::from_cq_collection(&cqs);
    collection.fix_dominated_to_one();
    [single_cq_expression_with_dominance(&cqs[0]), collection]
}

/// Newton against the projected-gradient oracle on the catalog and seeded
/// random samples: never costlier, on the constraint, and converged.
#[test]
fn newton_matches_or_beats_the_projected_gradient_oracle() {
    let mut state = 0x2545_f491_4f6c_dd1d;
    let mut samples = patterns();
    samples.extend((0..16).map(|_| {
        let p = 4 + lcg(&mut state, 4);
        random_connected_sample(&mut state, p)
    }));
    for sample in &samples {
        for expr in planner_expressions(sample) {
            for k in [16.0, 750.0, 20_000.0] {
                let (newton, iterations) = solve(&expr, k);
                let oracle_cost = projected_gradient(&expr, k);
                assert!(
                    newton.cost_per_edge <= oracle_cost * (1.0 + 1e-9),
                    "{sample:?} k={k}: newton {} vs oracle {oracle_cost}",
                    newton.cost_per_edge
                );
                let product: f64 = newton.shares.iter().product();
                assert!(
                    (product - k).abs() <= 1e-12 * k,
                    "{sample:?} k={k}: {product}"
                );
                assert!(newton.optimality_gap <= 1e-9, "{sample:?} k={k}");
                assert!(iterations <= MAX_ITERATIONS);
            }
        }
    }
}

/// Every expression the planner solves on the catalog, the families the
/// repo benchmark sweeps and the share-solver-bound cliques converges within
/// a dozen Newton steps at every budget; a single free variable (every star
/// after dominance) is closed-form.
#[test]
fn newton_converges_on_every_planner_expression() {
    let mut names: Vec<String> = (catalog::entries().iter())
        .map(|entry| entry.name.to_string())
        .collect();
    let sweep = [
        "star9", "star10", "k8", "k9", "c9", "path8", "k12", "c6", "path6",
    ];
    names.extend(sweep.map(String::from));
    for name in &names {
        let sample = catalog::by_name(name).expect("catalog name");
        let expressions = if sample.num_nodes() > 9 {
            // One class (k12) or closed-form (star10): the single CQ is the
            // collection.
            let cq = cq_for_ordering(&sample, &sample.nodes().collect());
            vec![single_cq_expression_with_dominance(&cq)]
        } else {
            planner_expressions(&sample).to_vec()
        };
        for expr in &expressions {
            for k in [1.0, 8.0, 64.0, 750.0, 4096.0, 100_000.0] {
                let (solution, iterations) = solve(expr, k);
                assert!(iterations <= 12, "{name} k={k}: {iterations} iterations");
                assert!(solution.optimality_gap <= 1e-9, "{name} k={k}");
                if expr.free_vars().len() <= 1 {
                    assert_eq!(iterations, 0, "{name} k={k}");
                }
            }
        }
    }
}

/// The numeric optimum satisfies the constraint and beats (or matches) the
/// naive equal-share assignment.
#[test]
fn solver_respects_constraint_and_beats_equal_shares() {
    for sample in patterns() {
        for k_exp in [4i32, 8, 13] {
            let k = 2f64.powi(k_exp);
            let cqs = cqs_for_sample(&sample);
            let expr = single_cq_expression_with_dominance(&cqs[0]);
            let solution = optimize_shares(&expr, k);
            // Product of free shares = k (dominated shares are 1).
            let product: f64 = solution.shares.iter().product();
            assert!(
                (product - k).abs() / k < 1e-12,
                "{sample:?} k={k}: product {product}"
            );
            // Compare against equal shares over the free variables.
            let free = expr.free_vars();
            let equal = k.powf(1.0 / free.len() as f64);
            let mut equal_shares = vec![1.0; expr.num_vars()];
            for &v in &free {
                equal_shares[v as usize] = equal;
            }
            let equal_cost = expr.evaluate(&equal_shares);
            assert!(
                solution.cost_per_edge <= equal_cost * (1.0 + 1e-12),
                "{sample:?} k={k}: optimized {} worse than equal {equal_cost}",
                solution.cost_per_edge
            );
            assert!(solution.optimality_gap <= 1e-9, "{sample:?} k={k}");
        }
    }
}

/// Variable-oriented processing of the whole CQ collection never costs more
/// than twice the single-CQ optimum (the key inequality in Theorem 4.4:
/// OPT_all <= 2 * OPT_single).
#[test]
fn combined_evaluation_at_most_twice_single_query_cost() {
    for sample in patterns() {
        for k_exp in [4i32, 7, 11] {
            let k = 2f64.powi(k_exp);
            let cqs = cqs_for_sample(&sample);
            let single = CostExpression::from_single_cq(&cqs[0]);
            let combined = CostExpression::from_cq_collection(&cqs);
            let single_cost = optimize_shares(&single, k).cost_per_edge;
            let combined_cost = optimize_shares(&combined, k).cost_per_edge;
            assert!(
                combined_cost <= 2.0 * single_cost * (1.0 + 1e-9),
                "{sample:?} k={k}: combined {combined_cost} vs single {single_cost}"
            );
            // And evaluating them together is of course at least as expensive
            // as one copy alone.
            assert!(
                combined_cost >= single_cost * (1.0 - 1e-9),
                "{sample:?} k={k}: combined {combined_cost} vs single {single_cost}"
            );
        }
    }
}

/// Counting identities: useful reducers C(b+p-1, p) equals the number of
/// non-decreasing bucket lists (Theorem 4.2), and for large b the generalized
/// Partition replication exceeds the bucket-oriented one (Section 4.5) — the
/// advantage is asymptotic, so it is checked at b >> p.
#[test]
fn reducer_counting_identities() {
    // Count non-decreasing sequences of length p over 1..=b directly.
    fn count(b: u64, p: u64, min: u64) -> u128 {
        if p == 0 {
            return 1;
        }
        (min..=b).map(|next| count(b, p - 1, next)).sum()
    }
    for b in 1u64..25 {
        for p in 2u64..7 {
            assert_eq!(useful_reducers(b, p), count(b, p, 1), "b={b} p={p}");
            let large_b = 1000 + b;
            let bucket = bucket_oriented_replication(large_b, p) as f64;
            let partition = generalized_partition_replication(large_b, p);
            assert!(
                partition > bucket,
                "partition {partition} should exceed bucket-oriented {bucket} at b = {large_b}"
            );
        }
    }
}
