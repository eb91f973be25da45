//! Closed-form share assignments for regular sample graphs
//! (Theorem 4.1 and Theorem 4.3).

use crate::expr::CostExpression;
use subgraph_cq::Var;
use subgraph_pattern::SampleGraph;

/// Theorem 4.1: for a regular sample graph with `p` nodes evaluated by a
/// single CQ with `k` reducers, every node gets share `k^(1/p)`.
pub fn regular_equal_shares(sample: &SampleGraph, k: f64) -> Option<Vec<f64>> {
    if !sample.is_regular() || sample.num_nodes() == 0 {
        return None;
    }
    let p = sample.num_nodes();
    Some(vec![k.powf(1.0 / p as f64); p])
}

/// Theorem 4.3: when the nodes split into `S1`/`S2` with the stated pattern of
/// bidirectional and unidirectional edges, the `S1` shares are all equal and
/// twice the `S2` shares. Given the split, returns the concrete shares for a
/// reducer budget `k` (so that the product of all shares equals `k`).
pub fn two_level_shares(num_vars: usize, s1: &[Var], s2: &[Var], k: f64) -> Vec<f64> {
    let mut seen = vec![false; num_vars];
    for &v in s1.iter().chain(s2.iter()) {
        assert!(
            (v as usize) < num_vars && !seen[v as usize],
            "S1 and S2 must partition the variables"
        );
        seen[v as usize] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "S1 and S2 must partition the variables"
    );
    // shares: S1 nodes get 2t, S2 nodes get t, with (2t)^{|S1|} · t^{|S2|} = k.
    let exponent = (s1.len() + s2.len()) as f64;
    let t = (k / 2f64.powi(s1.len() as i32)).powf(1.0 / exponent);
    let mut shares = vec![0.0; num_vars];
    for &v in s1 {
        shares[v as usize] = 2.0 * t;
    }
    for &v in s2 {
        shares[v as usize] = t;
    }
    shares
}

/// The per-edge communication cost of Theorem 4.1's assignment for a regular
/// sample graph with `p` nodes, degree `d`, and `k` reducers:
/// `(p·d/2) · k^{(p−2)/p}` (each of the `p·d/2` edges contributes the product
/// of the `p − 2` missing shares).
pub fn regular_cost_per_edge(p: usize, degree: usize, k: f64) -> f64 {
    (p as f64 * degree as f64 / 2.0) * k.powf((p as f64 - 2.0) / p as f64)
}

/// How far a share vector is from satisfying the Lagrangian optimality
/// conditions of `expr`: the relative spread `(max − min) / max` of the free
/// variables' term sums (0 = optimal). It is the solver's stopping rule and
/// the gap its solution reports, and validates closed forms against it.
pub fn optimality_gap(expr: &CostExpression, shares: &[f64]) -> f64 {
    let sums: Vec<f64> = expr
        .per_variable_sums(shares)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let min = sums.iter().copied().fold(f64::INFINITY, f64::min);
    let max = sums.iter().copied().fold(0.0f64, f64::max);
    if !min.is_finite() || max == 0.0 {
        0.0
    } else {
        (max - min) / max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CostExpression;
    use subgraph_cq::cqs_for_sample;
    use subgraph_pattern::catalog;

    #[test]
    fn theorem_4_1_equal_shares_for_regular_graphs() {
        let shares = regular_equal_shares(&catalog::triangle(), 216.0).unwrap();
        for s in &shares {
            assert!((s - 6.0).abs() < 1e-9);
        }
        let shares = regular_equal_shares(&catalog::cycle(5), 32.0).unwrap();
        for s in shares {
            assert!((s - 2.0).abs() < 1e-12);
        }
        assert!(regular_equal_shares(&catalog::lollipop(), 100.0).is_none());
    }

    #[test]
    fn theorem_4_1_shares_satisfy_the_optimality_conditions() {
        for sample in [
            catalog::triangle(),
            catalog::square(),
            catalog::k4(),
            catalog::cycle(5),
        ] {
            let cq = &cqs_for_sample(&sample)[0];
            let expr = CostExpression::from_single_cq(cq);
            let shares = regular_equal_shares(&sample, 4096.0).unwrap();
            assert!(
                optimality_gap(&expr, &shares) < 1e-9,
                "equal shares not optimal for {sample:?}"
            );
        }
    }

    #[test]
    fn theorem_4_1_closed_form_equals_the_solver() {
        for name in ["triangle", "square", "c5", "k4", "hypercube3", "k8"] {
            let sample = catalog::by_name(name).unwrap();
            let cq = &cqs_for_sample(&sample)[0];
            let expr = CostExpression::from_single_cq(cq);
            for k in [64.0, 750.0, 100_000.0] {
                let closed = regular_equal_shares(&sample, k).unwrap();
                let solved = crate::solver::optimize_shares(&expr, k);
                for (a, b) in solved.shares.iter().zip(&closed) {
                    assert!((a - b).abs() <= 1e-9 * b, "{name} k={k}: {a} vs {b}");
                }
                let cost = expr.evaluate(&closed);
                assert!((solved.cost_per_edge - cost).abs() <= 1e-9 * cost, "{name}");
            }
        }
    }

    #[test]
    fn regular_cost_formula_matches_direct_evaluation() {
        let triangle = catalog::triangle();
        let cq = &cqs_for_sample(&triangle)[0];
        let expr = CostExpression::from_single_cq(cq);
        let k = 1000.0;
        let shares = regular_equal_shares(&triangle, k).unwrap();
        let direct = expr.evaluate(&shares);
        let formula = regular_cost_per_edge(3, 2, k);
        assert!((direct - formula).abs() / formula < 1e-9);
    }

    #[test]
    fn theorem_4_3_two_level_shares_for_the_hexagon() {
        // Example 4.3: S2 = {X1}, S1 = the rest, k = 500 000 ⇒ X1 = 5, rest = 10.
        let s1: Vec<Var> = vec![1, 2, 3, 4, 5];
        let s2: Vec<Var> = vec![0];
        let shares = two_level_shares(6, &s1, &s2, 500_000.0);
        assert!((shares[0] - 5.0).abs() < 1e-9);
        for share in &shares[1..6] {
            assert!((share - 10.0).abs() < 1e-9);
        }
        let product: f64 = shares.iter().product();
        assert!((product - 500_000.0).abs() / 500_000.0 < 1e-9);
    }

    #[test]
    fn theorem_4_3_shares_are_optimal_for_the_hexagon_expression() {
        let cqs = cqs_for_sample(&catalog::cycle(6));
        let expr = CostExpression::from_cq_collection(&cqs);
        let shares = two_level_shares(6, &[1, 2, 3, 4, 5], &[0], 500_000.0);
        assert!(optimality_gap(&expr, &shares) < 1e-9);
        assert!((expr.evaluate(&shares) - 60_000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn two_level_shares_requires_a_partition() {
        let _ = two_level_shares(4, &[0, 1], &[1, 2], 100.0);
    }
}
