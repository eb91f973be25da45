//! Generating CQs from node orderings (Sections 3.1 and 3.2, Theorem 3.1).

use crate::partial::PartialCq;
use crate::query::{ConjunctiveQuery, Constraint, Var};
use std::collections::BTreeSet;
use subgraph_pattern::automorphism::{
    automorphism_group, order_representatives, AutomorphismGroup, NodeOrdering,
};
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

/// The distinct subgoals `E(a, b)` among the CQs [`cqs_for_sample`] builds —
/// at most two per sample edge, ascending — without building a CQ.
///
/// One walk of the canonical prefix tree (the lex-least orderings
/// [`order_representatives`] lists, grown a node at a time) records each
/// orientation as soon as a prefix decides it: every canonical prefix extends
/// to a representative. It skips every subtree whose undecided edges can only
/// add orientations already seen — an edge with one end placed can only point
/// away from it, one with neither end placed either way — so it ends once
/// every edge has been seen both ways, and on a cycle, whose least node
/// leads every representative, after a few branches rather than `p!/|Aut|`
/// leaves.
pub fn representative_subgoals(sample: &SampleGraph) -> Vec<(Var, Var)> {
    let mut seen = BTreeSet::new();
    let mut partial = PartialCq::new(sample);
    if record(sample, &partial, &mut seen) {
        walk(sample, &automorphism_group(sample), &mut partial, &mut seen);
    }
    seen.into_iter().collect()
}

/// Adds the orientations `partial` decides to `seen`; true while some
/// completion of `partial` could still add one.
fn record(sample: &SampleGraph, partial: &PartialCq<'_>, seen: &mut BTreeSet<(Var, Var)>) -> bool {
    seen.extend(partial.oriented_edges().iter().flatten());
    let placed = |v: Var| partial.prefix().contains(&v);
    let unseen = |edge: &(Var, Var)| !seen.contains(edge);
    (sample.edges().iter().zip(partial.oriented_edges()))
        .filter(|(_, decided)| decided.is_none())
        .any(|(&(a, b), _)| match (placed(a), placed(b)) {
            (true, _) => unseen(&(a, b)),
            (_, true) => unseen(&(b, a)),
            _ => unseen(&(a, b)) || unseen(&(b, a)),
        })
}

/// `stabilizer` is the pointwise stabilizer of `partial`'s prefix; a child's
/// stabilizer is only computed when its subtree can add an orientation.
fn walk(
    sample: &SampleGraph,
    stabilizer: &AutomorphismGroup<'_>,
    partial: &mut PartialCq<'_>,
    seen: &mut BTreeSet<(Var, Var)>,
) {
    for v in sample.nodes() {
        if partial.prefix().contains(&v) || !stabilizer.is_orbit_minimum(v) {
            continue;
        }
        partial.push(v);
        if record(sample, partial, seen) {
            walk(sample, &stabilizer.stabilizer(v), partial, seen);
        }
        partial.pop();
    }
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
        let mut samples: Vec<SampleGraph> = (catalog::entries().into_iter())
            .map(|entry| entry.sample)
            .collect();
        for name in ["star7", "c7", "c8", "path7", "k6", "hypercube3"] {
            samples.push(catalog::by_name(name).unwrap());
        }
        // Seeded random samples on 4–7 nodes, isolated nodes allowed.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = |bound: u64| {
            state = (state.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as u8
        };
        for _ in 0..60 {
            let p = 4 + below(4);
            let mut edges: Vec<(u8, u8)> = (0..p)
                .flat_map(|a| (a + 1..p).map(move |b| (a, b)))
                .collect();
            edges.retain(|_| below(3) == 0);
            if !edges.is_empty() {
                samples.push(SampleGraph::from_edges(p as usize, &edges));
            }
        }
        // Both hexagon edges at X1 stay one-way (Example 4.3); the lollipop's
        // E(Y,Z) too (Figure 5).
        for sample in &samples {
            let distinct: BTreeSet<(Var, Var)> = (cqs_for_sample(sample).iter())
                .flat_map(|q| q.subgoals().iter().copied())
                .collect();
            let walked = representative_subgoals(sample);
            assert_eq!(
                walked,
                distinct.into_iter().collect::<Vec<_>>(),
                "{sample:?}"
            );
        }
        let hexagon = representative_subgoals(&catalog::cycle(6));
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
