//! Canonical representation of one instance of the sample graph in the data graph.
//!
//! The paper counts *instances*: subgraphs of the data graph `G` isomorphic to
//! the sample graph `S`. Two different assignments of pattern nodes to data
//! nodes that are related by an automorphism of `S` describe the same
//! instance; the canonical representation therefore forgets the assignment and
//! keeps only the set of data-graph edges making up the copy of `S`. This is
//! exactly the object the "discovered exactly once" invariant is about.

use crate::sample::{PatternNode, SampleGraph};
use subgraph_graph::NodeId;

/// One instance of a sample graph in a data graph, in canonical form.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Instance {
    /// Sorted, de-duplicated data-graph nodes in the image.
    nodes: Vec<NodeId>,
    /// Sorted canonical edges `(lo, hi)` of the image subgraph.
    edges: Vec<(NodeId, NodeId)>,
}

impl Instance {
    /// Builds the canonical instance from an assignment `assignment[pattern node] = data node`.
    ///
    /// # Panics
    /// Panics if the assignment maps two pattern nodes to the same data node
    /// (instances are injective) or its length differs from the pattern size.
    pub fn from_assignment(sample: &SampleGraph, assignment: &[NodeId]) -> Self {
        assert_eq!(
            assignment.len(),
            sample.num_nodes(),
            "assignment length must equal the pattern size"
        );
        Self::from_bound_edges(assignment.to_vec(), sample.edges())
    }

    /// Builds the canonical instance from an owned assignment
    /// (`assignment[pattern node] = data node`) and the pattern's edges as
    /// pairs of pattern nodes, in either orientation — what a conjunctive
    /// query's subgoals are. One sort of the `p` nodes and one of the edges;
    /// the assignment's buffer becomes the node list.
    ///
    /// # Panics
    /// Panics if the assignment maps two pattern nodes to the same data node.
    pub fn from_bound_edges(
        mut assignment: Vec<NodeId>,
        pattern_edges: &[(PatternNode, PatternNode)],
    ) -> Self {
        let mut edges: Vec<(NodeId, NodeId)> = pattern_edges
            .iter()
            .map(|&(u, v)| {
                let a = assignment[u as usize];
                let b = assignment[v as usize];
                if a < b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        assignment.sort_unstable();
        assert!(
            assignment.windows(2).all(|w| w[0] < w[1]),
            "instances must map pattern nodes injectively"
        );
        Instance {
            nodes: assignment,
            edges,
        }
    }

    /// Builds an instance directly from an edge set (used by algorithms that
    /// assemble instances from pieces rather than from a full assignment).
    pub fn from_edge_set(edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut edges: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut nodes: Vec<NodeId> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        Instance { nodes, edges }
    }

    /// The sorted data-graph nodes of the instance.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The sorted canonical edges of the instance.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn automorphic_assignments_collapse_to_one_instance() {
        let triangle = catalog::triangle();
        let a = Instance::from_assignment(&triangle, &[10, 20, 30]);
        let b = Instance::from_assignment(&triangle, &[30, 10, 20]);
        let c = Instance::from_assignment(&triangle, &[20, 30, 10]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.nodes(), &[10, 20, 30]);
        assert_eq!(a.edges(), &[(10, 20), (10, 30), (20, 30)]);
    }

    #[test]
    fn different_node_sets_are_different_instances() {
        let triangle = catalog::triangle();
        let a = Instance::from_assignment(&triangle, &[1, 2, 3]);
        let b = Instance::from_assignment(&triangle, &[1, 2, 4]);
        assert_ne!(a, b);
    }

    #[test]
    fn same_nodes_different_edges_are_different_instances() {
        // In K4 the node set {0,1,2,3} carries three distinct squares.
        let square = catalog::square();
        let a = Instance::from_assignment(&square, &[0, 1, 2, 3]);
        let b = Instance::from_assignment(&square, &[0, 2, 1, 3]);
        assert_eq!(a.nodes(), b.nodes());
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn non_injective_assignment_rejected() {
        let triangle = catalog::triangle();
        let _ = Instance::from_assignment(&triangle, &[1, 1, 2]);
    }

    #[test]
    fn from_edge_set_canonicalizes() {
        let a = Instance::from_edge_set([(5, 2), (2, 5), (7, 2)]);
        assert_eq!(a.edges(), &[(2, 5), (2, 7)]);
        assert_eq!(a.nodes(), &[2, 5, 7]);
    }
}
