//! The dominated-variable rule of Afrati–Ullman (used in Example 4.1).
//!
//! A variable `X` is *dominated* by a variable `Y` if every relational subgoal
//! containing `X` also contains `Y`. A dominated variable may be given share 1
//! without increasing the optimal communication cost, so it can be removed
//! from the optimization.

use crate::expr::CostExpression;
use subgraph_cq::{ConjunctiveQuery, Var};

/// Returns the set of variables that can be fixed to share 1 because they are
/// dominated by some other variable of the query.
///
/// A single CQ has one subgoal per sample edge, so "every subgoal containing
/// `X` also contains `Y`" is [`CostExpression::fix_dominated_to_one`]'s rule
/// on the query's term edges; this reads the pinned set off that rule. When
/// two variables dominate each other (they appear in exactly the same
/// subgoals), only one of them — the one with the larger index — is reported
/// as dominated, so at least one of the pair keeps a free share.
pub fn dominated_variables(cq: &ConjunctiveQuery) -> Vec<Var> {
    (single_cq_expression_with_dominance(cq)
        .fixed_to_one()
        .iter())
    .copied()
    .collect()
}

/// Builds the cost expression for a single CQ with every dominated variable's
/// share pinned to 1 (the standard preprocessing before solving).
pub fn single_cq_expression_with_dominance(cq: &ConjunctiveQuery) -> CostExpression {
    let mut expr = CostExpression::from_single_cq(cq);
    expr.fix_dominated_to_one();
    expr
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_cq::cqs_for_sample;
    use subgraph_pattern::catalog;

    fn lollipop_identity_cq() -> ConjunctiveQuery {
        cqs_for_sample(&catalog::lollipop())
            .into_iter()
            .find(|q| q.subgoals() == [(0, 1), (1, 2), (1, 3), (2, 3)])
            .expect("identity-order CQ")
    }

    #[test]
    fn w_is_dominated_by_x_in_the_lollipop_cq() {
        // Example 4.1: W appears only in E(W,X), so W is dominated by X.
        let cq = lollipop_identity_cq();
        assert_eq!(dominated_variables(&cq), vec![0]);
    }

    #[test]
    fn regular_patterns_have_no_dominated_variables() {
        for sample in [catalog::triangle(), catalog::square(), catalog::cycle(5)] {
            for cq in cqs_for_sample(&sample) {
                assert!(
                    dominated_variables(&cq).is_empty(),
                    "unexpected domination in {}",
                    cq.render()
                );
            }
        }
    }

    #[test]
    fn star_leaves_are_dominated_by_the_centre() {
        // In a star every leaf appears only in its edge to the centre, so every
        // leaf is dominated (the centre stays free).
        let star = catalog::star(4);
        for cq in cqs_for_sample(&star) {
            let dominated = dominated_variables(&cq);
            assert_eq!(dominated.len(), 3);
            assert!(!dominated.contains(&0));
        }
    }

    #[test]
    fn mutual_domination_keeps_one_variable_free() {
        // A single-edge pattern: both endpoints appear in exactly the same
        // (only) subgoal; only the higher-indexed one is dominated.
        let edge = subgraph_pattern::SampleGraph::from_edges(2, &[(0, 1)]);
        let cq = cqs_for_sample(&edge).remove(0);
        assert_eq!(dominated_variables(&cq), vec![1]);
    }

    #[test]
    fn expression_with_dominance_applies_the_rule() {
        let cq = lollipop_identity_cq();
        let expr = single_cq_expression_with_dominance(&cq);
        assert_eq!(expr.free_vars(), vec![1, 2, 3]);
    }
}
