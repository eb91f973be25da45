//! The sample graph `S`: a small simple graph analysed exhaustively.

use std::fmt;

/// Index of a node of the sample graph (a "variable" once we move to
/// conjunctive queries). Pattern nodes are `0..p`.
pub type PatternNode = u8;

/// Maximum number of nodes a sample graph may have.
///
/// Adjacency rows are `u16` bitmasks, and several analyses in this workspace
/// (isomorphism, cycle run-sequences, decompositions) are exhaustive over
/// permutations or subsets of the pattern nodes, which is exactly what the
/// paper does: sample graphs are "typically very small" (Section 3, Remark).
/// Sixteen keeps `p!` far from overflow while being well beyond any pattern
/// in the paper.
pub const MAX_PATTERN_NODES: usize = 16;

/// A simple undirected sample graph on `p ≤ MAX_PATTERN_NODES` nodes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SampleGraph {
    num_nodes: usize,
    /// Adjacency bitmask per node: bit `j` of `adj[i]` is set iff `{i, j}` is an edge.
    adj: Vec<u16>,
    /// Canonical edge list, each edge once with the smaller index first.
    edges: Vec<(PatternNode, PatternNode)>,
}

impl SampleGraph {
    /// Creates a sample graph with `num_nodes` isolated nodes.
    pub fn empty(num_nodes: usize) -> Self {
        assert!(
            num_nodes <= MAX_PATTERN_NODES,
            "sample graphs are limited to {MAX_PATTERN_NODES} nodes"
        );
        SampleGraph {
            num_nodes,
            adj: vec![0; num_nodes],
            edges: Vec::new(),
        }
    }

    /// Creates a sample graph from an explicit edge list.
    pub fn from_edges(num_nodes: usize, edges: &[(PatternNode, PatternNode)]) -> Self {
        let mut s = SampleGraph::empty(num_nodes);
        for &(u, v) in edges {
            s.add_edge(u, v);
        }
        s
    }

    /// Adds the undirected edge `{u, v}`. Adding an existing edge is a no-op.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range nodes.
    pub fn add_edge(&mut self, u: PatternNode, v: PatternNode) {
        assert_ne!(u, v, "sample graphs are simple: no self loops");
        assert!((u as usize) < self.num_nodes && (v as usize) < self.num_nodes);
        if self.has_edge(u, v) {
            return;
        }
        self.adj[u as usize] |= 1 << v;
        self.adj[v as usize] |= 1 << u;
        let e = if u < v { (u, v) } else { (v, u) };
        self.edges.push(e);
        self.edges.sort_unstable();
    }

    /// Number of nodes `p`.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges of the sample graph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over the nodes `0..p`.
    pub fn nodes(&self) -> impl Iterator<Item = PatternNode> {
        0..self.num_nodes as PatternNode
    }

    /// Canonical edge list (smaller node index first, lexicographically sorted).
    pub fn edges(&self) -> &[(PatternNode, PatternNode)] {
        &self.edges
    }

    /// True iff `{u, v}` is an edge.
    pub fn has_edge(&self, u: PatternNode, v: PatternNode) -> bool {
        u != v
            && (u as usize) < self.num_nodes
            && (v as usize) < self.num_nodes
            && (self.adj[u as usize] >> v) & 1 == 1
    }

    /// Adjacency bitmask of node `v`: bit `u` is set iff `{u, v}` is an edge.
    pub(crate) fn adjacency(&self, v: PatternNode) -> u16 {
        self.adj[v as usize]
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: PatternNode) -> usize {
        self.adj[v as usize].count_ones() as usize
    }

    /// Neighbours of node `v`, in increasing index order.
    pub fn neighbors(&self, v: PatternNode) -> Vec<PatternNode> {
        (0..self.num_nodes as PatternNode)
            .filter(|&u| self.has_edge(v, u))
            .collect()
    }

    /// True if every node has the same degree `d` (Theorem 4.1 applies).
    pub fn is_regular(&self) -> bool {
        if self.num_nodes == 0 {
            return true;
        }
        let d = self.degree(0);
        self.nodes().all(|v| self.degree(v) == d)
    }

    /// True iff the graph is connected (isolated single node counts as connected;
    /// the empty graph is vacuously connected).
    pub fn is_connected(&self) -> bool {
        if self.num_nodes <= 1 {
            return true;
        }
        let mut seen = vec![false; self.num_nodes];
        let mut stack = vec![0 as PatternNode];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for u in self.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.num_nodes
    }

    /// The subgraph induced by `nodes`, with nodes relabelled `0..nodes.len()`
    /// in the order given. Returns the relabelled graph and the mapping from
    /// new index to old index.
    pub fn induced_subgraph(&self, nodes: &[PatternNode]) -> (SampleGraph, Vec<PatternNode>) {
        let mut sub = SampleGraph::empty(nodes.len());
        for (i, &u) in nodes.iter().enumerate() {
            for (j, &v) in nodes.iter().enumerate().skip(i + 1) {
                if self.has_edge(u, v) {
                    sub.add_edge(i as PatternNode, j as PatternNode);
                }
            }
        }
        (sub, nodes.to_vec())
    }

    /// Checks whether `perm` (a bijection `old → new` given as `perm[old] = new`)
    /// is an automorphism of this sample graph.
    pub fn is_automorphism(&self, perm: &[PatternNode]) -> bool {
        if perm.len() != self.num_nodes {
            return false;
        }
        self.edges
            .iter()
            .all(|&(u, v)| self.has_edge(perm[u as usize], perm[v as usize]))
    }

    /// True if the nodes listed (in order) form a Hamilton cycle of this graph,
    /// i.e. consecutive nodes and the wrap-around pair are all edges.
    pub fn is_hamilton_cycle(&self, order: &[PatternNode]) -> bool {
        if order.len() != self.num_nodes || self.num_nodes < 3 {
            return false;
        }
        (0..order.len()).all(|i| self.has_edge(order[i], order[(i + 1) % order.len()]))
    }

    /// Searches exhaustively for a Hamilton cycle; returns one if it exists.
    /// Exponential in `p`, which is fine for sample graphs.
    pub fn find_hamilton_cycle(&self) -> Option<Vec<PatternNode>> {
        if self.num_nodes < 3 {
            return None;
        }
        let mut order: Vec<PatternNode> = self.nodes().collect();
        // Fix the first node to avoid rotations; permute the rest.
        fn permute(
            s: &SampleGraph,
            order: &mut Vec<PatternNode>,
            k: usize,
        ) -> Option<Vec<PatternNode>> {
            if k == order.len() {
                if s.is_hamilton_cycle(order) {
                    return Some(order.clone());
                }
                return None;
            }
            for i in k..order.len() {
                order.swap(k, i);
                if s.has_edge(order[k - 1], order[k]) {
                    if let Some(found) = permute(s, order, k + 1) {
                        return Some(found);
                    }
                }
                order.swap(k, i);
            }
            None
        }
        permute(self, &mut order, 1)
    }
}

impl fmt::Debug for SampleGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SampleGraph(p={}, edges={:?})",
            self.num_nodes, self.edges
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> SampleGraph {
        SampleGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn basic_accessors() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 3);
        assert!(t.has_edge(0, 2));
        assert!(t.has_edge(2, 0));
        assert!(!t.has_edge(0, 0));
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.neighbors(1), vec![0, 2]);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut s = SampleGraph::empty(3);
        s.add_edge(0, 1);
        s.add_edge(1, 0);
        assert_eq!(s.num_edges(), 1);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut s = SampleGraph::empty(2);
        s.add_edge(1, 1);
    }

    #[test]
    fn regularity_and_connectivity() {
        assert!(triangle().is_regular());
        assert!(triangle().is_connected());
        let path = SampleGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!path.is_regular());
        assert!(path.is_connected());
        let disconnected = SampleGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!disconnected.is_connected());
        assert!(disconnected.is_regular());
    }

    #[test]
    fn induced_subgraph_keeps_edges() {
        let square = SampleGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let (sub, map) = square.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(map, vec![1, 2, 3]);
    }

    #[test]
    fn automorphism_check() {
        let t = triangle();
        assert!(t.is_automorphism(&[1, 2, 0]));
        let path = SampleGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(path.is_automorphism(&[2, 1, 0]));
        assert!(!path.is_automorphism(&[1, 0, 2]));
    }

    #[test]
    fn hamilton_cycle_detection() {
        let square = SampleGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert!(square.is_hamilton_cycle(&[0, 1, 2, 3]));
        assert!(!square.is_hamilton_cycle(&[0, 2, 1, 3]));
        assert!(square.find_hamilton_cycle().is_some());
        let star = SampleGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert!(star.find_hamilton_cycle().is_none());
    }

    #[test]
    #[should_panic]
    fn too_many_nodes_rejected() {
        let _ = SampleGraph::empty(MAX_PATTERN_NODES + 1);
    }
}
