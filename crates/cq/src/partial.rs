//! Incremental CQ construction for a *partial* node ordering.
//!
//! [`crate::generate::representative_subgoals`] grows a node ordering one
//! node at a time and needs, at every depth, the part of the eventual CQ that
//! the prefix already determines: a sample edge's subgoal orientation is
//! fixed as soon as **both** endpoints are ranked, and stays unknown until
//! then. [`PartialCq`] maintains exactly that state under `push`/`pop`; on a
//! full ordering its subgoals are those of [`crate::generate::cq_for_ordering`]
//! — the invariant the proptests in this crate pin.

use crate::query::Var;
use subgraph_pattern::automorphism::NodeOrdering;
use subgraph_pattern::{PatternNode, SampleGraph};

const UNRANKED: usize = usize::MAX;

/// A conjunctive query under construction: a prefix of a node ordering plus
/// the subgoal orientations that prefix already decides.
///
/// Edges are tracked in the sample graph's edge order — the same order
/// [`crate::generate::cq_for_ordering`] emits subgoals in — so a full
/// ordering decides that query's subgoals exactly, in the same order.
#[derive(Clone, Debug)]
pub struct PartialCq<'a> {
    sample: &'a SampleGraph,
    prefix: NodeOrdering,
    rank: Vec<usize>,
    /// Per sample edge (in `sample.edges()` order): the oriented subgoal once
    /// both endpoints are in the prefix, `None` while undecided.
    oriented: Vec<Option<(Var, Var)>>,
    decided: usize,
}

impl<'a> PartialCq<'a> {
    /// An empty prefix over `sample`: nothing ranked, every edge undecided.
    pub fn new(sample: &'a SampleGraph) -> Self {
        PartialCq {
            sample,
            prefix: Vec::with_capacity(sample.num_nodes()),
            rank: vec![UNRANKED; sample.num_nodes()],
            oriented: vec![None; sample.num_edges()],
            decided: 0,
        }
    }

    /// Appends `v` as the next-largest node of the ordering. Any sample edge
    /// whose other endpoint is already ranked becomes a decided subgoal with
    /// that endpoint first (it has the smaller rank).
    ///
    /// # Panics
    /// Panics if `v` is out of range or already in the prefix.
    pub fn push(&mut self, v: PatternNode) {
        assert!(
            (v as usize) < self.sample.num_nodes(),
            "node {v} out of range"
        );
        assert!(
            self.rank[v as usize] == UNRANKED,
            "node {v} already in the prefix"
        );
        self.rank[v as usize] = self.prefix.len();
        self.prefix.push(v);
        for (i, &(a, b)) in self.sample.edges().iter().enumerate() {
            let other = if a == v {
                b
            } else if b == v {
                a
            } else {
                continue;
            };
            if self.rank[other as usize] != UNRANKED {
                // `other` was ranked before `v`, so it is the smaller end.
                self.oriented[i] = Some((other, v));
                self.decided += 1;
            }
        }
    }

    /// Removes the most recently pushed node, un-deciding every edge its push
    /// decided (an edge incident to the last node is decided iff it was
    /// decided by that very push).
    ///
    /// # Panics
    /// Panics if the prefix is empty.
    pub fn pop(&mut self) -> PatternNode {
        let v = self.prefix.pop().expect("pop on empty prefix");
        self.rank[v as usize] = UNRANKED;
        for (i, &(a, b)) in self.sample.edges().iter().enumerate() {
            if (a == v || b == v) && self.oriented[i].is_some() {
                self.oriented[i] = None;
                self.decided -= 1;
            }
        }
        v
    }

    /// The sample graph the query is being built for.
    pub fn sample(&self) -> &SampleGraph {
        self.sample
    }

    /// The current prefix of the node ordering, smallest node first.
    pub fn prefix(&self) -> &[PatternNode] {
        &self.prefix
    }

    /// Number of nodes placed so far.
    pub fn depth(&self) -> usize {
        self.prefix.len()
    }

    /// Per sample edge (in `sample.edges()` order): `Some((a, b))` once the
    /// prefix orients the edge as the subgoal `E(a, b)`, `None` while either
    /// endpoint is still unplaced.
    pub fn oriented_edges(&self) -> &[Option<(Var, Var)>] {
        &self.oriented
    }

    /// Number of decided subgoals (edges with both endpoints in the prefix).
    pub fn decided_edges(&self) -> usize {
        self.decided
    }

    /// The finished query. Subgoals come out in sample edge order and the
    /// comparison chain follows the ordering, so the result equals
    /// [`crate::generate::cq_for_ordering`] on the same ordering exactly.
    ///
    /// # Panics
    /// Panics unless the ordering is complete.
    #[cfg(test)]
    pub(crate) fn complete(&self) -> crate::query::ConjunctiveQuery {
        use crate::query::{ConjunctiveQuery, Constraint};
        assert!(
            self.prefix.len() == self.sample.num_nodes(),
            "complete() on a prefix of depth {} (pattern has {} nodes)",
            self.prefix.len(),
            self.sample.num_nodes()
        );
        let subgoals: Vec<(Var, Var)> = self
            .oriented
            .iter()
            .map(|slot| slot.expect("complete ordering left an edge undecided"))
            .collect();
        let constraints: Vec<Constraint> = self
            .prefix
            .windows(2)
            .map(|w| Constraint::Lt(w[0], w[1]))
            .collect();
        ConjunctiveQuery::new(self.sample.num_nodes(), subgoals, constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::cq_for_ordering;
    use subgraph_pattern::catalog;

    /// Building a [`PartialCq`] by pushing the whole ordering agrees with
    /// [`cq_for_ordering`].
    fn partial_agrees_with_direct(sample: &SampleGraph, ordering: &NodeOrdering) -> bool {
        let mut partial = PartialCq::new(sample);
        for &v in ordering {
            partial.push(v);
        }
        partial.complete() == cq_for_ordering(sample, ordering)
    }

    #[test]
    fn empty_prefix_decides_nothing() {
        let square = catalog::square();
        let partial = PartialCq::new(&square);
        assert_eq!(partial.depth(), 0);
        assert_eq!(partial.decided_edges(), 0);
        assert!(partial.oriented_edges().iter().all(Option::is_none));
    }

    #[test]
    fn push_decides_edges_into_the_prefix() {
        // Square edges in sample order: (0,1), (0,3), (1,2), (2,3).
        let square = catalog::square();
        assert_eq!(square.edges(), &[(0, 1), (0, 3), (1, 2), (2, 3)]);
        let mut partial = PartialCq::new(&square);
        partial.push(1);
        assert_eq!(partial.decided_edges(), 0);
        partial.push(2);
        // Edge (1,2) now has both ends ranked; 1 came first.
        assert_eq!(partial.decided_edges(), 1);
        assert_eq!(partial.oriented_edges()[2], Some((1, 2)));
        partial.push(0);
        // Edge (0,1) decided with 1 first (rank of 1 < rank of 0).
        assert_eq!(partial.decided_edges(), 2);
        assert_eq!(partial.oriented_edges()[0], Some((1, 0)));
        partial.push(3);
        assert_eq!(partial.depth(), 4);
        assert_eq!(partial.decided_edges(), 4);
    }

    #[test]
    fn pop_restores_previous_state() {
        let lollipop = catalog::lollipop();
        let mut partial = PartialCq::new(&lollipop);
        partial.push(2);
        partial.push(3);
        let snapshot: Vec<_> = partial.oriented_edges().to_vec();
        let decided = partial.decided_edges();
        partial.push(0);
        partial.push(1);
        assert_eq!(partial.pop(), 1);
        assert_eq!(partial.pop(), 0);
        assert_eq!(partial.oriented_edges(), &snapshot[..]);
        assert_eq!(partial.decided_edges(), decided);
        assert_eq!(partial.prefix(), &[2, 3]);
    }

    #[test]
    fn completion_matches_cq_for_ordering() {
        let square = catalog::square();
        assert!(partial_agrees_with_direct(&square, &vec![0, 1, 2, 3]));
        assert!(partial_agrees_with_direct(&square, &vec![3, 1, 0, 2]));
        let q = {
            let mut partial = PartialCq::new(&square);
            for v in [0, 1, 2, 3] {
                partial.push(v);
            }
            partial.complete()
        };
        assert_eq!(
            q.render(),
            "E(W,X) & E(W,Z) & E(X,Y) & E(Y,Z) & W<X & X<Y & Y<Z"
        );
    }

    #[test]
    #[should_panic]
    fn double_push_is_rejected() {
        let triangle = catalog::triangle();
        let mut partial = PartialCq::new(&triangle);
        partial.push(0);
        partial.push(0);
    }

    #[test]
    #[should_panic]
    fn complete_on_partial_prefix_is_rejected() {
        let triangle = catalog::triangle();
        let mut partial = PartialCq::new(&triangle);
        partial.push(0);
        let _ = partial.complete();
    }
}
