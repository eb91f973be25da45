//! Pluggable total orders on data-graph nodes.
//!
//! The paper uses three different total orders `<` on the nodes of the data
//! graph, for three different purposes:
//!
//! * **Identifier order** (Section 2.2): any fixed order works for storing the
//!   edge relation `E(a, b)` with `a < b` so that each instance of the sample
//!   graph is produced exactly once.
//! * **Bucket-then-identifier order** (Section 2.3 and Theorem 4.2): nodes are
//!   ordered first by their hash bucket `h(v)` and ties are broken by the
//!   identifier. With this order, only reducers whose bucket list is
//!   non-decreasing can receive instances, shrinking the reducer count from
//!   `b^p` to `C(b + p - 1, p)` and the replication per edge to `b^{p-2}/(p-2)!`.
//! * **Degree order** (Section 7): nodes in non-decreasing order of degree,
//!   ties broken by identifier, which is what makes "properly ordered 2-paths"
//!   (Lemma 7.1) countable in `O(m^{3/2})`.

use crate::graph::{DataGraph, NodeId};

/// A total order on the nodes of a specific data graph.
pub trait NodeOrder {
    /// A sort key such that `key(u) < key(v)` iff `u` precedes `v`.
    ///
    /// The second component must be `v` itself: an order is a primary key
    /// with ties broken by identifier. Consumers rely on it — ranking nodes
    /// whose ids already ascend, `LocalGraph::build` in `subgraph-cq` sorts
    /// by the primary alone — and an order that breaks ties otherwise would
    /// be ranked wrongly without notice (debug builds assert it).
    fn key(&self, v: NodeId) -> (u64, NodeId);

    /// True iff `u` strictly precedes `v` in this order.
    fn precedes(&self, u: NodeId, v: NodeId) -> bool {
        self.key(u) < self.key(v)
    }

    /// Orients the undirected edge `{u, v}` so that the first component
    /// precedes the second.
    fn orient(&self, u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if self.precedes(u, v) {
            (u, v)
        } else {
            (v, u)
        }
    }
}

/// The trivial order by node identifier.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdOrder;

impl NodeOrder for IdOrder {
    fn key(&self, v: NodeId) -> (u64, NodeId) {
        (0, v)
    }
}

/// Order by `(hash bucket, identifier)` as in Section 2.3.
///
/// The hash function is a multiplicative hash reduced modulo the number of
/// buckets `b`; the exact function is irrelevant to correctness, only that it
/// is a fixed map from nodes to `1..=b`.
#[derive(Clone, Copy, Debug)]
pub struct BucketThenIdOrder {
    buckets: u64,
    seed: u64,
}

impl BucketThenIdOrder {
    /// Creates the order with `b` buckets. `b` must be at least 1.
    pub fn new(buckets: usize) -> Self {
        Self::with_seed(buckets, 0x9e37_79b9_7f4a_7c15)
    }

    /// Creates the order with an explicit hash seed (useful in tests that
    /// need to exercise collisions deterministically).
    pub fn with_seed(buckets: usize, seed: u64) -> Self {
        assert!(buckets >= 1, "at least one bucket is required");
        BucketThenIdOrder {
            buckets: buckets as u64,
            seed,
        }
    }

    /// Number of buckets `b`.
    pub fn num_buckets(&self) -> usize {
        self.buckets as usize
    }

    /// The bucket of node `v`, in `0..b`.
    pub fn bucket(&self, v: NodeId) -> usize {
        // SplitMix64-style finalizer: cheap, deterministic and well mixed.
        let mut x = (v as u64).wrapping_add(self.seed);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x % self.buckets) as usize
    }
}

impl NodeOrder for BucketThenIdOrder {
    fn key(&self, v: NodeId) -> (u64, NodeId) {
        (self.bucket(v) as u64, v)
    }
}

/// Order by non-decreasing degree, ties broken by identifier (Section 7).
#[derive(Clone, Debug)]
pub struct DegreeOrder {
    // u32 keeps the table half the size of a u64 one; the inner loops of the
    // Section 7 algorithms hit it with random accesses, so cache residency of
    // this table is what their constant factor is made of. (A degree never
    // exceeds the node count, which itself fits `NodeId = u32`.)
    degrees: Vec<u32>,
}

impl DegreeOrder {
    /// Builds the degree order for `graph`.
    pub fn new(graph: &DataGraph) -> Self {
        let degrees = graph.nodes().map(|v| graph.degree(v) as u32).collect();
        DegreeOrder { degrees }
    }
}

impl NodeOrder for DegreeOrder {
    fn key(&self, v: NodeId) -> (u64, NodeId) {
        (u64::from(self.degrees[v as usize]), v)
    }
}

/// Degeneracy (core-peeling) order: repeatedly remove a minimum-degree node;
/// nodes are ordered by removal time.
///
/// This is the Matula–Beck smallest-last order, computed in `O(n + m)` with a
/// bucket queue. Every node has at most `degeneracy()` neighbours that follow
/// it, which makes the order a drop-in strengthening of [`DegreeOrder`] for
/// the Section 7 "properly ordered" arguments: the later-neighbour sets
/// `Γ_<(v)` are bounded by the degeneracy rather than by `√m`. The peeling is
/// deterministic — the same graph always yields the same order.
#[derive(Clone, Debug)]
pub struct DegeneracyOrder {
    /// `position[v]` is the removal time of `v` (0-based).
    position: Vec<u64>,
    degeneracy: usize,
}

impl DegeneracyOrder {
    /// Builds the degeneracy order for `graph`.
    pub fn new(graph: &DataGraph) -> Self {
        let n = graph.num_nodes();
        let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(v as NodeId)).collect();
        let max_degree = degree.iter().copied().max().unwrap_or(0);
        // Bucket queue: buckets[d] holds candidates of current degree d. A
        // node is re-pushed each time its degree drops, so stale entries are
        // skipped on pop; each node is pushed at most degree + 1 times,
        // keeping the total work linear in n + m.
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); max_degree + 1];
        for (v, &d) in degree.iter().enumerate() {
            buckets[d].push(v as NodeId);
        }
        let mut removed = vec![false; n];
        let mut position = vec![0u64; n];
        let mut degeneracy = 0usize;
        let mut cursor = 0usize; // lowest possibly non-empty bucket
        for time in 0..n as u64 {
            let v = loop {
                while buckets[cursor].is_empty() {
                    cursor += 1;
                }
                let v = buckets[cursor].pop().expect("bucket checked non-empty");
                if !removed[v as usize] && degree[v as usize] == cursor {
                    break v;
                }
            };
            degeneracy = degeneracy.max(cursor);
            removed[v as usize] = true;
            position[v as usize] = time;
            for &u in graph.neighbors(v) {
                if !removed[u as usize] {
                    degree[u as usize] -= 1;
                    buckets[degree[u as usize]].push(u);
                    cursor = cursor.min(degree[u as usize]);
                }
            }
        }
        DegeneracyOrder {
            position,
            degeneracy,
        }
    }

    /// The degeneracy of the graph: the largest minimum degree over the
    /// peeling, an upper bound on every node's later-neighbour count.
    pub fn degeneracy(&self) -> usize {
        self.degeneracy
    }
}

impl NodeOrder for DegeneracyOrder {
    fn key(&self, v: NodeId) -> (u64, NodeId) {
        (self.position[v as usize], v)
    }
}

/// The degree-ordered orientation of a data graph, in the degree order's
/// rank space: ranks follow `(degree, id)` (Lemma 7.1), and the run of rank
/// `r` holds the ranks of its node's later neighbours `Γ_<(v)`, ascending.
///
/// Each edge is stored once, at its earlier endpoint, and every run has
/// length `O(√m)`. A pair `run[i], run[j]` with `i < j` is a properly ordered
/// 2-path's endpoints `u ≺ w`, so Section 2's closing `u–w` test is a binary
/// search of `w` in the run of `u`; ids are needed only for a found triangle
/// ([`Self::node`]). This is Latapy's compact-forward layout (Theoretical
/// Computer Science 407, 2008).
///
/// Building costs one counting sort over degrees, which ranks the nodes, and
/// one sort of each short run: `O(n + m log Δ)`. The index is immutable,
/// which lets [`crate::DataGraph::forward`] cache it for the graph's lifetime.
#[derive(Clone, Debug)]
pub struct ForwardIndex {
    /// Run of rank `r` is `targets[offsets[r]..offsets[r+1]]`. `u32` keeps
    /// the table compact; an in-memory graph has fewer than `2^32` edges.
    offsets: Vec<u32>,
    /// Later neighbours, as ranks.
    targets: Vec<u32>,
    /// `nodes[r]` is the node of rank `r`.
    nodes: Vec<NodeId>,
}

impl ForwardIndex {
    /// Builds the forward index of `graph` under its degree order.
    pub fn new(graph: &DataGraph) -> Self {
        // Counting sort by degree; visiting nodes in id order keeps equal
        // degrees in id order, so ranks follow `(degree, id)`.
        let mut next = vec![0u32; graph.max_degree() + 2];
        for v in graph.nodes() {
            next[graph.degree(v) + 1] += 1;
        }
        for d in 1..next.len() {
            next[d] += next[d - 1];
        }
        let mut rank = vec![0u32; graph.num_nodes()];
        let mut nodes = vec![0; graph.num_nodes()];
        for v in graph.nodes() {
            let slot = &mut next[graph.degree(v)];
            rank[v as usize] = *slot;
            nodes[*slot as usize] = v;
            *slot += 1;
        }
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0u32);
        let mut targets = Vec::with_capacity(graph.num_edges());
        for (r, &v) in nodes.iter().enumerate() {
            let start = targets.len();
            let ranked = graph.neighbors(v).iter().map(|&u| rank[u as usize]);
            targets.extend(ranked.filter(|&s| s > r as u32));
            targets[start..].sort_unstable();
            offsets.push(targets.len() as u32);
        }
        ForwardIndex {
            offsets,
            targets,
            nodes,
        }
    }

    /// The ranks of the later neighbours `Γ_<(v)` of the node `v` of rank
    /// `r`, ascending.
    pub fn later(&self, r: u32) -> &[u32] {
        let r = r as usize;
        &self.targets[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// The node of rank `r`.
    pub fn node(&self, r: u32) -> NodeId {
        self.nodes[r as usize]
    }

    /// Number of nodes the index covers (ranks are `0..num_nodes()`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Returns the neighbours of `v` that strictly follow `v` in `order`
/// (the set `Γ_<(v)` of Lemma 7.1).
pub fn later_neighbors<O: NodeOrder>(graph: &DataGraph, order: &O, v: NodeId) -> Vec<NodeId> {
    let neighbors = graph.neighbors(v).iter().copied();
    neighbors.filter(|&u| order.precedes(v, u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn id_order_is_numeric() {
        let o = IdOrder;
        assert!(o.precedes(1, 2));
        assert!(!o.precedes(2, 2));
        assert_eq!(o.orient(5, 3), (3, 5));
    }

    #[test]
    fn bucket_order_groups_by_bucket_first() {
        let o = BucketThenIdOrder::new(4);
        for v in 0..100u32 {
            assert!(o.bucket(v) < 4);
        }
        // Nodes in the same bucket fall back to id order.
        let mut same_bucket: Vec<u32> = (0..1000).filter(|&v| o.bucket(v) == 0).collect();
        same_bucket.sort_unstable();
        for w in same_bucket.windows(2) {
            assert!(o.precedes(w[0], w[1]));
        }
    }

    #[test]
    fn bucket_order_single_bucket_degenerates_to_id() {
        let o = BucketThenIdOrder::new(1);
        for v in 0..50u32 {
            assert_eq!(o.bucket(v), 0);
        }
        assert!(o.precedes(3, 4));
    }

    #[test]
    #[should_panic]
    fn zero_buckets_rejected() {
        let _ = BucketThenIdOrder::new(0);
    }

    #[test]
    fn degree_order_sorts_by_degree() {
        // Star with centre 0: centre has max degree, must come last.
        let g = generators::star(5);
        let o = DegreeOrder::new(&g);
        for leaf in 1..5u32 {
            assert!(o.precedes(leaf, 0));
        }
        assert!(o.precedes(1, 2)); // equal degree → id breaks the tie
    }

    #[test]
    fn orient_respects_order() {
        let g = generators::star(4);
        let o = DegreeOrder::new(&g);
        assert_eq!(o.orient(0, 3), (3, 0));
        assert_eq!(o.orient(3, 0), (3, 0));
    }

    #[test]
    fn degeneracy_of_known_graphs() {
        // A tree has degeneracy 1, a cycle 2, a clique k-1.
        assert_eq!(DegeneracyOrder::new(&generators::star(6)).degeneracy(), 1);
        assert_eq!(DegeneracyOrder::new(&generators::cycle(8)).degeneracy(), 2);
        assert_eq!(
            DegeneracyOrder::new(&generators::complete(5)).degeneracy(),
            4
        );
    }

    #[test]
    fn degeneracy_bounds_later_neighbors() {
        for seed in 0..3 {
            let g = generators::gnm(80, 240, seed);
            let o = DegeneracyOrder::new(&g);
            let d = o.degeneracy();
            for v in g.nodes() {
                assert!(
                    later_neighbors(&g, &o, v).len() <= d,
                    "node {v} has more than {d} later neighbours"
                );
            }
        }
    }

    #[test]
    fn degeneracy_order_is_total_and_deterministic() {
        let g = generators::gnm(40, 100, 7);
        let a = DegeneracyOrder::new(&g);
        let b = DegeneracyOrder::new(&g);
        let mut seen = std::collections::HashSet::new();
        for v in g.nodes() {
            assert_eq!(a.key(v), b.key(v));
            assert!(seen.insert(a.key(v).0), "removal times must be distinct");
        }
    }

    #[test]
    fn degeneracy_of_empty_graph_is_zero() {
        let g = crate::graph::DataGraph::from_edges(0, []);
        assert_eq!(DegeneracyOrder::new(&g).degeneracy(), 0);
    }

    #[test]
    fn forward_index_orients_every_edge_once() {
        // Isolated nodes (the sparse gnm, the padded star) and degree ties
        // (all of them; the cycle and the clique are all ties).
        let mut graphs: Vec<_> = (0..3).map(|seed| generators::gnm(50, 180, seed)).collect();
        graphs.push(generators::gnm(60, 40, 1));
        graphs.push(crate::graph::DataGraph::from_edges(
            9,
            [(4, 0), (4, 1), (4, 2), (7, 8)],
        ));
        graphs.push(generators::cycle(8));
        graphs.push(generators::complete(6));
        for g in &graphs {
            let f = ForwardIndex::new(g);
            let order = DegreeOrder::new(g);
            assert_eq!(f.num_nodes(), g.num_nodes());
            let ranks = 0..g.num_nodes() as u32;
            // Rank order is (degree, id), and `node` is a bijection onto the nodes.
            for r in 1..g.num_nodes() as u32 {
                assert!(order.precedes(f.node(r - 1), f.node(r)));
            }
            let mut nodes: Vec<NodeId> = ranks.clone().map(|r| f.node(r)).collect();
            nodes.sort_unstable();
            assert!(nodes.iter().copied().eq(g.nodes()));
            let mut edges = Vec::new();
            for r in ranks {
                let run = f.later(r);
                assert!(
                    run.windows(2).all(|w| w[0] < w[1]),
                    "run of rank {r} ascends"
                );
                assert!(
                    run.iter().all(|&s| s > r),
                    "run of rank {r} holds later ranks"
                );
                edges.extend(run.iter().map(|&s| {
                    let (u, v) = (f.node(r), f.node(s));
                    (u.min(v), u.max(v))
                }));
            }
            edges.sort_unstable();
            let canonical: Vec<_> = g.edges().iter().map(|e| (e.lo(), e.hi())).collect();
            assert_eq!(edges, canonical, "every edge once");
        }
    }

    #[test]
    fn forward_index_is_cached_on_the_graph() {
        let g = generators::complete(6);
        let a = g.forward() as *const ForwardIndex;
        let b = g.forward() as *const ForwardIndex;
        assert_eq!(a, b);
        assert_eq!(g.forward().later(0).len(), 5);
        assert!(g.forward().later(5).is_empty());
    }

    #[test]
    fn forward_index_of_empty_graph() {
        let g = crate::graph::DataGraph::from_edges(0, []);
        assert_eq!(ForwardIndex::new(&g).num_nodes(), 0);
    }
}
