//! Generating CQs from node orderings (Sections 3.1 and 3.2, Theorem 3.1).

use crate::query::{ConjunctiveQuery, Constraint, Var};
use subgraph_pattern::automorphism::{order_representatives, NodeOrdering};
use subgraph_pattern::SampleGraph;

/// Builds the CQ for one total order of the sample-graph nodes (Section 3.1).
///
/// `ordering[rank] = node`: the node at rank 0 is the smallest. The query has
/// * a relational subgoal `E(a, b)` for every sample-graph edge `{a, b}` with
///   the lower-ranked endpoint written first, and
/// * the chain of arithmetic subgoals `ordering[0] < ordering[1] < …`.
pub fn cq_for_ordering(sample: &SampleGraph, ordering: &NodeOrdering) -> ConjunctiveQuery {
    assert_eq!(
        ordering.len(),
        sample.num_nodes(),
        "ordering must mention every pattern node exactly once"
    );
    let mut rank = vec![usize::MAX; sample.num_nodes()];
    for (r, &v) in ordering.iter().enumerate() {
        assert!(rank[v as usize] == usize::MAX, "ordering repeats node {v}");
        rank[v as usize] = r;
    }
    let subgoals: Vec<(Var, Var)> = sample
        .edges()
        .iter()
        .map(|&(u, v)| {
            if rank[u as usize] < rank[v as usize] {
                (u, v)
            } else {
                (v, u)
            }
        })
        .collect();
    let constraints: Vec<Constraint> = ordering
        .windows(2)
        .map(|w| Constraint::Lt(w[0], w[1]))
        .collect();
    ConjunctiveQuery::new(sample.num_nodes(), subgoals, constraints)
}

/// The full CQ collection for a sample graph by the general method of
/// Section 3.2: one CQ per representative of `S_p / Aut(S)` (Theorem 3.1).
/// Together these CQs produce each instance of the sample graph exactly once.
pub fn cqs_for_sample(sample: &SampleGraph) -> Vec<ConjunctiveQuery> {
    order_representatives(sample)
        .iter()
        .map(|ordering| cq_for_ordering(sample, ordering))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_pattern::catalog;

    #[test]
    fn triangle_has_one_cq_with_total_order() {
        let cqs = cqs_for_sample(&catalog::triangle());
        assert_eq!(cqs.len(), 1);
        let q = &cqs[0];
        assert_eq!(q.subgoals(), &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(
            q.constraints(),
            &[Constraint::Lt(0, 1), Constraint::Lt(1, 2)]
        );
    }

    #[test]
    fn square_has_three_cqs_as_in_example_3_2() {
        let cqs = cqs_for_sample(&catalog::square());
        assert_eq!(cqs.len(), 3);
        // Each CQ must contain E(W,X) and E(W,Z): W=0 is first in every
        // lexicographically-smallest representative, exactly as the paper notes
        // ("all three have the subgoals E(W,X) and E(W,Z)").
        for q in &cqs {
            assert!(q.subgoals().contains(&(0, 1)));
            assert!(q.subgoals().contains(&(0, 3)));
        }
        // The identity ordering gives the CQ of Example 3.1.
        let identity = cq_for_ordering(&catalog::square(), &vec![0, 1, 2, 3]);
        // Same subgoals as Example 3.1 (listed in the sample graph's canonical
        // edge order rather than the paper's order).
        assert_eq!(
            identity.render(),
            "E(W,X) & E(W,Z) & E(X,Y) & E(Y,Z) & W<X & X<Y & Y<Z"
        );
        assert!(cqs.contains(&identity));
    }

    #[test]
    fn lollipop_has_twelve_cqs_as_in_figure_5() {
        let cqs = cqs_for_sample(&catalog::lollipop());
        assert_eq!(cqs.len(), 12);
        // Every CQ contains the subgoal E(Y,Z) (node 2 before node 3) or
        // E(Z,Y); the automorphism swapping Y and Z means representatives can
        // be taken with Y < Z, and then all twelve contain E(Y,Z), as the
        // paper observes about Figure 5.
        for q in &cqs {
            assert!(
                q.subgoals().contains(&(2, 3)),
                "expected E(Y,Z) in {}",
                q.render()
            );
        }
    }

    #[test]
    fn pentagon_has_twelve_cqs() {
        // 5! / |Aut(C5)| = 120 / 10 = 12 (Example 5.3 discussion).
        assert_eq!(cqs_for_sample(&catalog::cycle(5)).len(), 12);
    }

    #[test]
    fn ordering_controls_edge_orientation() {
        let lollipop = catalog::lollipop();
        // Order Y < Z < W < X (ranks: W=2, X=3, Y=0, Z=1) is order 9 in Fig. 5:
        // subgoals E(W,X), E(Y,X), E(Z,X), E(Y,Z).
        let q = cq_for_ordering(&lollipop, &vec![2, 3, 0, 1]);
        let mut subgoals = q.subgoals().to_vec();
        subgoals.sort_unstable();
        assert_eq!(subgoals, vec![(0, 1), (2, 1), (2, 3), (3, 1)]);
    }

    #[test]
    #[should_panic]
    fn ordering_with_repeats_is_rejected() {
        let _ = cq_for_ordering(&catalog::triangle(), &vec![0, 0, 1]);
    }

    #[test]
    fn representative_subgoals_are_the_collections_distinct_subgoals() {
        use crate::eval::JoinPlan;
        use std::collections::BTreeSet;
        use subgraph_pattern::automorphism::automorphism_group;

        // The subgoals one unoriented plan of the whole sample graph ships,
        // without building a CQ.
        let roles = |sample: &SampleGraph| -> BTreeSet<(Var, Var)> {
            let lts = automorphism_group(sample).symmetry_breaking();
            let plan = JoinPlan::compile_unoriented(sample.num_nodes(), sample.edges(), &lts);
            plan.roles().iter().copied().collect()
        };
        let distinct = |sample: &SampleGraph| -> BTreeSet<(Var, Var)> {
            (cqs_for_sample(sample).iter())
                .flat_map(|q| q.subgoals().iter().copied())
                .collect()
        };
        let named = "c6 c7 c8 c9 path5 path6 path7 path8 star6 star7 star9 k5 k6 k8 hypercube3";
        let samples: Vec<(String, SampleGraph)> = (catalog::entries().into_iter())
            .map(|entry| (entry.name.to_string(), entry.sample))
            .chain((named.split(' ')).map(|n| (n.to_string(), catalog::by_name(n).unwrap())))
            .collect();
        // The pentagon with a chord is the one sample graph whose orbit
        // transversal ships an edge in fewer orientations than the lex-least
        // one of Theorem 3.1: 11 roles against 12.
        for (name, sample) in &samples {
            let (walked, collection) = (roles(sample), distinct(sample));
            assert!(walked.is_subset(&collection), "{name}");
            if name == "pentagon-with-chord" {
                assert_eq!((walked.len(), collection.len()), (11, 12));
            } else {
                assert_eq!(walked, collection, "{name}");
            }
        }
        // Seeded random connected samples on 4–7 nodes.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = |bound: u64| {
            state = (state.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as u8
        };
        let mut checked = 0;
        while checked < 200 {
            let p = 4 + below(4);
            let mut edges: Vec<(u8, u8)> = (0..p)
                .flat_map(|a| (a + 1..p).map(move |b| (a, b)))
                .collect();
            edges.retain(|_| below(2) == 0);
            let sample = SampleGraph::from_edges(p as usize, &edges);
            if sample.is_connected() {
                assert!(distinct(&sample).is_superset(&roles(&sample)), "{sample:?}");
                checked += 1;
            }
        }
        // Both hexagon edges at X1 stay one-way (Example 4.3).
        let hexagon = roles(&catalog::cycle(6));
        assert!(!hexagon.contains(&(1, 0)) && !hexagon.contains(&(5, 0)));
        assert_eq!(hexagon.len(), 10);
    }

    #[test]
    fn constraint_chain_length_is_p_minus_one() {
        for sample in [catalog::square(), catalog::cycle(6), catalog::clique(4)] {
            for q in cqs_for_sample(&sample) {
                assert_eq!(q.constraints().len(), sample.num_nodes() - 1);
                assert_eq!(q.subgoals().len(), sample.num_edges());
            }
        }
    }
}
