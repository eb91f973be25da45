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

/// The degree-ordered orientation of a data graph: a CSR over the
/// later-neighbour sets `Γ_<(v)` of Lemma 7.1, with each run sorted by the
/// degree order itself.
///
/// Orienting every edge from its earlier to its later endpoint stores each
/// edge exactly once (`Σ_v |Γ_<(v)| = m`) and every run has length `O(√m)`.
/// Because runs are sorted by the same order that oriented them, any pair
/// `(u, w)` drawn as `run[i], run[j]` with `i < j` satisfies `u ≺ w`, so the
/// `u–w` adjacency test of the Section 2 triangle algorithm becomes a
/// membership test of `w` in the (short) run of `u` — sequential reads over a
/// structure a fraction of the adjacency's size, instead of binary searches
/// over the full CSR.
///
/// Building the index costs one `O(n + m log Δ)` sweep; it is immutable
/// afterwards, which is what lets [`crate::DataGraph::forward`] cache it for
/// the graph's lifetime.
#[derive(Clone, Debug)]
pub struct ForwardIndex {
    /// Run of `v` is `targets[offsets[v]..offsets[v+1]]`. `u32` keeps the
    /// table compact; an in-memory graph has fewer than `2^32` edges.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl ForwardIndex {
    /// Builds the forward index of `graph` under its degree order.
    pub fn new(graph: &DataGraph) -> Self {
        let order = DegreeOrder::new(graph);
        let mut offsets = Vec::with_capacity(graph.num_nodes() + 1);
        offsets.push(0u32);
        let mut targets: Vec<NodeId> = Vec::with_capacity(graph.num_edges());
        for v in graph.nodes() {
            let start = targets.len();
            targets.extend(
                graph
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| order.precedes(v, u)),
            );
            targets[start..].sort_unstable_by_key(|&u| order.key(u));
            offsets.push(targets.len() as u32);
        }
        ForwardIndex { offsets, targets }
    }

    /// The later neighbours `Γ_<(v)`, sorted by the degree order.
    pub fn later(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Number of nodes the index covers.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Returns the neighbours of `v` that strictly follow `v` in `order`
/// (the set `Γ_<(v)` of Lemma 7.1).
pub fn later_neighbors<O: NodeOrder>(graph: &DataGraph, order: &O, v: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    later_neighbors_into(graph, order, v, &mut out);
    out
}

/// Allocation-free variant of [`later_neighbors`]: clears `out` and refills it
/// with `Γ_<(v)`, so tight per-node loops can reuse one buffer.
pub fn later_neighbors_into<O: NodeOrder>(
    graph: &DataGraph,
    order: &O,
    v: NodeId,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    out.extend(
        graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&u| order.precedes(v, u)),
    );
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
        for seed in 0..3 {
            let g = generators::gnm(50, 180, seed);
            let f = ForwardIndex::new(&g);
            let order = DegreeOrder::new(&g);
            assert_eq!(f.num_nodes(), g.num_nodes());
            let mut total = 0;
            for v in g.nodes() {
                let run = f.later(v);
                total += run.len();
                // Run contents are exactly Γ_<(v), sorted by the order.
                for &u in run {
                    assert!(g.has_edge(v, u));
                    assert!(order.precedes(v, u));
                }
                for w in run.windows(2) {
                    assert!(order.precedes(w[0], w[1]));
                }
            }
            assert_eq!(total, g.num_edges());
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
