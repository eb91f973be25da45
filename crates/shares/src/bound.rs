//! Shares lower bounds for *partial* node orderings (the pruning rule of the
//! planner's branch-and-bound search).
//!
//! Section 4.1's communication cost for one CQ is `Σ_edges coeff · Π
//! shares(missing)`, and for a single CQ every coefficient is 1 — each sample
//! edge contributes exactly one subgoal whatever the node ordering, and a
//! term's `missing` set depends only on the (undirected) edge. Consequently:
//!
//! * the cost expression of any completion of a partial ordering has one
//!   term per sample edge with coefficient exactly 1 — the orientation a
//!   deeper prefix fixes can never raise (or lower) a coefficient, and
//! * the dominated-variable rule of Example 4.1 looks only at which subgoals
//!   a variable occurs in, never at the orientation, so the pinned set is the
//!   same for every completion too.
//!
//! [`partial_cost_expression`] therefore *is* the exact cost expression of
//! every completion: an admissible (never exceeds any completion's true
//! cost), monotone (non-decreasing with depth) and in fact *tight* lower
//! bound. Branch-and-bound over single-CQ costs degenerates into its best
//! case — the first leaf's cost equals every other leaf's bound, so the
//! search scores one class and prunes the rest — and the proptests in this
//! crate pin the admissibility and tightness that make that sound. For
//! expressions where coefficients *can* differ (the variable-oriented
//! coefficient-2 bidirectional edges of Section 4.3), taking 1 for every
//! undecided edge is still a valid floor: coefficients only grow as
//! orientations are fixed.

use crate::expr::CostExpression;
use subgraph_cq::Var;

/// A hashable fingerprint of a [`CostExpression`]: the term list (edge +
/// coefficient bits) plus the dominance-pinned variables. Two expressions
/// with equal signatures are interchangeable inputs to the share solver
/// (which is deterministic), so the signature is the memo key the planner
/// uses to solve each automorphism orbit's expression once.
pub type ExpressionSignature = (Vec<(Var, Var, u64)>, Vec<Var>);

/// The fingerprint of `expr` for orbit memoization (see
/// [`ExpressionSignature`]).
pub fn expression_signature(expr: &CostExpression) -> ExpressionSignature {
    let terms = expr
        .terms()
        .iter()
        .map(|t| (t.edge.0, t.edge.1, t.coefficient.to_bits()))
        .collect();
    let pinned = expr.fixed_to_one().iter().copied().collect();
    (terms, pinned)
}

/// The cost expression lower-bounding every completion of a partial ordering.
///
/// `edges` is the sample graph's edge list and `oriented` the matching
/// per-edge view of a partial CQ (`Some((a, b))` once the prefix fixes the
/// subgoal `E(a, b)`, `None` while undecided — exactly
/// `subgraph_cq::PartialCq::oriented_edges`). Decided edges keep their fixed
/// orientation; undecided edges take their minimum possible contribution
/// (coefficient 1, which for a single CQ is also their only possible
/// contribution). Dominated variables are pinned to share 1, mirroring the
/// preprocessing the estimator applies to complete CQs.
///
/// # Panics
/// Panics if `oriented` and `edges` disagree in length.
pub fn partial_cost_expression(
    num_vars: usize,
    edges: &[(Var, Var)],
    oriented: &[Option<(Var, Var)>],
) -> CostExpression {
    assert_eq!(
        edges.len(),
        oriented.len(),
        "oriented-edge view must cover every sample edge"
    );
    let subgoals: Vec<(Var, Var)> = edges
        .iter()
        .zip(oriented)
        .map(|(&(a, b), slot)| slot.unwrap_or(if a < b { (a, b) } else { (b, a) }))
        .collect();
    let mut expr = CostExpression::from_subgoal_collections(num_vars, &[subgoals]);
    expr.fix_dominated_to_one();
    expr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{dominated_variables, single_cq_expression_with_dominance};
    use crate::proptests::{lcg, random_connected_sample};
    use crate::solver::optimize_shares;
    use subgraph_cq::{cq_for_ordering, ConjunctiveQuery, PartialCq};
    use subgraph_pattern::automorphism::{automorphism_group, order_representatives};
    use subgraph_pattern::{catalog, SampleGraph};

    #[test]
    fn empty_prefix_bound_equals_every_completion_expression() {
        for sample in [catalog::triangle(), catalog::square(), catalog::lollipop()] {
            let partial = PartialCq::new(&sample);
            let bound = partial_cost_expression(
                sample.num_nodes(),
                sample.edges(),
                partial.oriented_edges(),
            );
            for ordering in order_representatives(&sample) {
                let cq = cq_for_ordering(&sample, &ordering);
                let full = single_cq_expression_with_dominance(&cq);
                assert_eq!(
                    expression_signature(&bound),
                    expression_signature(&full),
                    "{sample:?} ordering {ordering:?}"
                );
            }
        }
    }

    /// The Afrati–Ullman rule as first written, by subgoal index: `x` is
    /// dominated when some other variable occurs in every subgoal `x` occurs
    /// in (mutually dominating pairs keep the smaller index free; a variable in
    /// no subgoal is pinned too).
    fn dominated_by_subgoal_index(cq: &ConjunctiveQuery) -> Vec<Var> {
        let occurrence: Vec<Vec<usize>> = (0..cq.num_vars() as Var)
            .map(|v| {
                (cq.subgoals().iter().enumerate())
                    .filter(|(_, &(a, b))| a == v || b == v)
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let within = |x: usize, y: usize| occurrence[x].iter().all(|i| occurrence[y].contains(i));
        (0..cq.num_vars())
            .filter(|&x| {
                occurrence[x].is_empty()
                    || (0..cq.num_vars())
                        .any(|y| y != x && within(x, y) && (!within(y, x) || y < x))
            })
            .map(|x| x as Var)
            .collect()
    }

    #[test]
    fn expression_dominance_agrees_with_cq_dominance() {
        // The expression-level rule (term-edge incidence) that the estimator,
        // the prefix bound and `dominated_variables` all use must pin the same
        // variables as the CQ-level rule (subgoal occurrence sets), on the
        // catalog (every class), the star/cycle/path families and seeded
        // random samples.
        let mut samples: Vec<(String, SampleGraph)> = (catalog::entries().into_iter())
            .map(|entry| (entry.name.to_string(), entry.sample))
            .collect();
        for (family, sizes) in [("star", 3..=9), ("c", 3..=9), ("path", 2..=8)] {
            for p in sizes {
                let name = format!("{family}{p}");
                samples.push((name.clone(), catalog::by_name(&name).unwrap()));
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15;
        for trial in 0..200 {
            let p = 4 + lcg(&mut state, 5);
            let sample = random_connected_sample(&mut state, p);
            samples.push((format!("random-{trial}"), sample));
        }
        for (name, sample) in &samples {
            let identity: Vec<_> = sample.nodes().collect();
            let reversed: Vec<_> = identity.iter().rev().copied().collect();
            let mut orderings = vec![identity, reversed];
            if automorphism_group(sample).order_classes() <= 840 {
                orderings.extend(order_representatives(sample));
            }
            for ordering in orderings {
                let cq = cq_for_ordering(sample, &ordering);
                let via_expr = single_cq_expression_with_dominance(&cq);
                let pinned: Vec<Var> = via_expr.fixed_to_one().iter().copied().collect();
                assert_eq!(
                    pinned,
                    dominated_by_subgoal_index(&cq),
                    "{name} ordering {ordering:?}"
                );
                assert_eq!(dominated_variables(&cq), pinned, "{name}");
                // At a leaf the prefix bound is that same expression.
                let mut partial = PartialCq::new(sample);
                ordering.iter().for_each(|&v| partial.push(v));
                let leaf = partial_cost_expression(
                    sample.num_nodes(),
                    sample.edges(),
                    partial.oriented_edges(),
                );
                assert_eq!(leaf, via_expr, "{name}");
            }
        }
    }

    #[test]
    fn bound_cost_is_bitwise_the_completion_cost() {
        // The solver is deterministic, so identical expressions give
        // bit-identical costs — the property that lets branch-and-bound
        // reproduce the exhaustive path's numbers exactly.
        let sample = catalog::lollipop();
        let mut partial = PartialCq::new(&sample);
        partial.push(1);
        partial.push(3);
        let bound =
            partial_cost_expression(sample.num_nodes(), sample.edges(), partial.oriented_edges());
        partial.push(0);
        partial.push(2);
        let full = single_cq_expression_with_dominance(&partial.complete());
        for k in [16.0, 750.0] {
            let b = optimize_shares(&bound, k).cost_per_edge;
            let t = optimize_shares(&full, k).cost_per_edge;
            assert_eq!(b.to_bits(), t.to_bits(), "k={k}");
        }
    }

    #[test]
    fn signatures_distinguish_different_patterns() {
        let tri = {
            let s = catalog::triangle();
            partial_cost_expression(3, s.edges(), &[None, None, None])
        };
        let path = {
            let s = catalog::path(3);
            partial_cost_expression(3, s.edges(), &[None, None])
        };
        assert_ne!(expression_signature(&tri), expression_signature(&path));
    }
}
