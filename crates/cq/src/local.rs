//! The graph a reducer joins over: its input edges, relabelled to dense local
//! node ids *in the evaluation order*.
//!
//! A reducer receives a bag of edges, not a graph. [`LocalGraph::build`]
//! turns that bag into the structure the join kernel of [`crate::eval`] walks:
//!
//! * every endpoint gets a **local id** equal to its rank, among the nodes
//!   this reducer saw, under the [`NodeOrder`] the conjunctive queries refer
//!   to. `u` precedes `v` in the order iff `local(u) < local(v)`, so the
//!   orientation of `E(X, Y)` and every arithmetic comparison `X < Y` is one
//!   integer compare — the order's hash or degree table is consulted once per
//!   node, at build time;
//! * every node keeps two sorted runs, its **successors** (neighbours that
//!   follow it) and its **predecessors**. The subgoal `E(X, Y)` with `X`
//!   bound reads `successors(X)`, with `Y` bound `predecessors(Y)`: a
//!   candidate drawn from a run already has the right orientation.
//!
//! Size and build time are linear in the reducer's input (plus two sorts);
//! nothing depends on the node count of the whole data graph, and global ids
//! may be arbitrarily sparse.

use subgraph_graph::{Edge, NodeId, NodeOrder};
use subgraph_pattern::{Instance, PatternNode};

/// Local ids and edge offsets are `u32`, like the ids of the data graph.
type LocalId = u32;

/// One direction of the adjacency: the run of node `v` is
/// `targets[offsets[v]..offsets[v + 1]]`, sorted ascending.
#[derive(Clone, Debug, Default)]
struct Runs {
    offsets: Vec<u32>,
    targets: Vec<LocalId>,
}

impl Runs {
    #[inline]
    fn of(&self, v: LocalId) -> &[LocalId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.targets.capacity()) * std::mem::size_of::<u32>()
    }
}

/// A reducer's input edges as an order-relabelled graph (see the module
/// docs). Duplicate input edges collapse into one.
#[derive(Clone, Debug, Default)]
pub struct LocalGraph {
    /// `nodes[local id]` is the data-graph node, ascending in the order.
    nodes: Vec<NodeId>,
    successors: Runs,
    predecessors: Runs,
}

impl LocalGraph {
    /// Builds the local graph of `edges` under `order`.
    ///
    /// # Panics
    /// Panics if `edges` holds `2^31` edges or more (offsets are `u32`).
    pub fn build<O: NodeOrder>(edges: &[Edge], order: &O) -> Self {
        assert!(
            edges.len() < (1 << 31),
            "a local graph holds fewer than 2^31 edges"
        );
        // Intern the endpoints in first-seen order; each edge becomes a pair
        // of interned ids packed into one word.
        let mut interner = Interner::for_edges(edges.len());
        let mut pairs: Vec<u64> = edges
            .iter()
            .map(|e| pack(interner.intern(e.lo()), interner.intern(e.hi())))
            .collect();
        let seen = interner.into_nodes();

        // Rank the distinct nodes by the order's key: the rank is the local
        // id. One sortable word per node — the key `(primary, id)` above the
        // interned id the sort carries along.
        let mut by_key: Vec<u128> = seen
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let (primary, id) = order.key(v);
                (primary as u128) << 64 | (id as u128) << 32 | i as u128
            })
            .collect();
        by_key.sort_unstable();
        let mut rank = vec![0 as LocalId; seen.len()];
        let mut nodes = Vec::with_capacity(seen.len());
        for (r, &k) in by_key.iter().enumerate() {
            rank[k as u32 as usize] = r as LocalId;
            nodes.push((k >> 32) as NodeId);
        }
        drop(by_key);

        // Orient every edge from its earlier to its later endpoint; sorting
        // the packed pairs groups them by source with targets ascending, which
        // is the successor CSR laid out flat.
        for pair in &mut pairs {
            let (a, b) = unpack(*pair);
            let (a, b) = (rank[a as usize], rank[b as usize]);
            *pair = if a < b { pack(a, b) } else { pack(b, a) };
        }
        pairs.sort_unstable();
        pairs.dedup();

        let n = nodes.len();
        let mut successors = Runs {
            offsets: vec![0; n + 1],
            targets: Vec::with_capacity(pairs.len()),
        };
        let mut predecessors = Runs {
            offsets: vec![0; n + 1],
            targets: vec![0; pairs.len()],
        };
        for &pair in &pairs {
            let (a, b) = unpack(pair);
            successors.offsets[a as usize + 1] += 1;
            predecessors.offsets[b as usize + 1] += 1;
            successors.targets.push(b);
        }
        for v in 0..n {
            successors.offsets[v + 1] += successors.offsets[v];
            predecessors.offsets[v + 1] += predecessors.offsets[v];
        }
        // Counting sort by target. The scan is source-ascending, so every
        // predecessor run comes out sorted; `cursor` is the write head of
        // each run.
        let mut cursor = predecessors.offsets.clone();
        for &pair in &pairs {
            let (a, b) = unpack(pair);
            predecessors.targets[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        LocalGraph {
            nodes,
            successors,
            predecessors,
        }
    }

    /// Number of distinct nodes among the input edges.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct input edges.
    pub fn num_edges(&self) -> usize {
        self.successors.targets.len()
    }

    /// The data-graph nodes by local id — ascending in the order the graph
    /// was built under.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The data-graph node behind a local id.
    #[inline]
    pub fn global(&self, v: LocalId) -> NodeId {
        self.nodes[v as usize]
    }

    /// The canonical instance whose pattern node `i` sits on the local node
    /// `assignment[i]`, `pattern_edges` being the sample graph's edges (a
    /// query's subgoals) in either orientation.
    pub fn instance(
        &self,
        assignment: &[LocalId],
        pattern_edges: &[(PatternNode, PatternNode)],
    ) -> Instance {
        let nodes = assignment.iter().map(|&v| self.global(v)).collect();
        Instance::from_bound_edges(nodes, pattern_edges)
    }

    /// Neighbours of `v` that follow it in the order, ascending.
    #[inline]
    pub fn successors(&self, v: LocalId) -> &[LocalId] {
        self.successors.of(v)
    }

    /// Neighbours of `v` that precede it in the order, ascending.
    #[inline]
    pub fn predecessors(&self, v: LocalId) -> &[LocalId] {
        self.predecessors.of(v)
    }

    /// Heap bytes the graph holds — proportional to the input edge count,
    /// whatever the range of the global ids.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeId>()
            + self.successors.heap_bytes()
            + self.predecessors.heap_bytes()
    }
}

#[inline]
fn pack(a: u32, b: u32) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

#[inline]
fn unpack(pair: u64) -> (u32, u32) {
    ((pair >> 32) as u32, pair as u32)
}

/// Open-addressing table assigning dense ids to global node ids in first-seen
/// order. It starts sized for a sparse input (about one distinct node per
/// edge) and doubles while more than half full, so its footprint stays linear
/// in the reducer's input.
struct Interner {
    /// `0` for an empty slot, otherwise `interned id + 1`.
    slots: Vec<u32>,
    shift: u32,
    nodes: Vec<NodeId>,
}

impl Interner {
    fn for_edges(edges: usize) -> Self {
        let capacity = (2 * edges).next_power_of_two().max(2);
        Interner {
            slots: vec![0; capacity],
            shift: 64 - capacity.trailing_zeros(),
            nodes: Vec::new(),
        }
    }

    /// Fibonacci hashing: the top bits of the product are well mixed even for
    /// the consecutive ids a data graph has.
    #[inline]
    fn home(&self, v: NodeId) -> usize {
        (u64::from(v).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    #[inline]
    fn intern(&mut self, v: NodeId) -> u32 {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(v);
        loop {
            match self.slots[slot] {
                0 => break,
                id if self.nodes[id as usize - 1] == v => return id - 1,
                _ => slot = (slot + 1) & mask,
            }
        }
        self.nodes.push(v);
        self.slots[slot] = self.nodes.len() as u32;
        if 2 * self.nodes.len() > self.slots.len() {
            self.grow();
        }
        self.nodes.len() as u32 - 1
    }

    fn grow(&mut self) {
        let capacity = 2 * self.slots.len();
        self.slots = vec![0; capacity];
        self.shift -= 1;
        for (i, &v) in self.nodes.iter().enumerate() {
            let mut slot = self.home(v);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (capacity - 1);
            }
            self.slots[slot] = i as u32 + 1;
        }
    }

    fn into_nodes(self) -> Vec<NodeId> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_graph::{generators, BucketThenIdOrder, DegreeOrder, IdOrder};

    fn edges(pairs: &[(NodeId, NodeId)]) -> Vec<Edge> {
        pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect()
    }

    #[test]
    fn local_ids_are_ranks_under_the_order() {
        let g = generators::gnm(60, 240, 4);
        let check = |local: &LocalGraph, precedes: &dyn Fn(NodeId, NodeId) -> bool| {
            assert_eq!(local.num_edges(), g.num_edges());
            for w in local.nodes().windows(2) {
                assert!(precedes(w[0], w[1]));
            }
            let mut seen = 0;
            for v in 0..local.num_nodes() as u32 {
                for run in [local.successors(v), local.predecessors(v)] {
                    assert!(run.windows(2).all(|w| w[0] < w[1]));
                }
                for &w in local.successors(v) {
                    assert!(v < w);
                    assert!(g.has_edge(local.global(v), local.global(w)));
                    assert!(local.predecessors(w).contains(&v));
                    seen += 1;
                }
            }
            assert_eq!(seen, g.num_edges());
        };
        let by_bucket = BucketThenIdOrder::new(4);
        let by_degree = DegreeOrder::new(&g);
        check(&LocalGraph::build(g.edges(), &IdOrder), &|u, v| u < v);
        check(&LocalGraph::build(g.edges(), &by_bucket), &|u, v| {
            by_bucket.precedes(u, v)
        });
        check(&LocalGraph::build(g.edges(), &by_degree), &|u, v| {
            by_degree.precedes(u, v)
        });
    }

    #[test]
    fn duplicate_edges_collapse_and_isolated_nodes_do_not_exist() {
        let local = LocalGraph::build(&edges(&[(7, 3), (3, 7), (3, 9), (7, 3)]), &IdOrder);
        assert_eq!(local.nodes(), &[3, 7, 9]);
        assert_eq!(local.num_edges(), 2);
        assert_eq!(local.successors(0), &[1, 2]);
        assert_eq!(local.predecessors(1), &[0]);
        assert!(local.successors(2).is_empty());
    }

    #[test]
    fn empty_input_builds_an_empty_graph() {
        let local = LocalGraph::build(&[], &IdOrder);
        assert_eq!(local.num_nodes(), 0);
        assert_eq!(local.num_edges(), 0);
    }

    #[test]
    fn a_matching_outgrows_the_initial_table() {
        // Two distinct nodes per edge: twice what the interner starts sized
        // for, so it has to grow (twice) without losing an id.
        let matching: Vec<Edge> = (0..3_000u32)
            .map(|i| Edge::new(i * 1_000_003 % 4_000_037, 4_000_037 + i))
            .collect();
        let local = LocalGraph::build(&matching, &BucketThenIdOrder::new(7));
        assert_eq!(local.num_nodes(), 6_000);
        assert_eq!(local.num_edges(), 3_000);
        for e in &matching {
            let lo = local.nodes().iter().position(|&v| v == e.lo()).unwrap() as u32;
            let hi = local.nodes().iter().position(|&v| v == e.hi()).unwrap() as u32;
            let (first, second) = (lo.min(hi), lo.max(hi));
            assert_eq!(local.successors(first), &[second]);
            assert_eq!(local.predecessors(second), &[first]);
        }
    }
}
