//! The immutable data graph: edge list + sorted CSR adjacency.

use crate::mmap::Bytes;
use crate::ordering::ForwardIndex;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Identifier of a node in the data graph. Nodes are dense integers `0..n`.
pub type NodeId = u32;

/// An undirected edge of the data graph, stored canonically with `lo() <= hi()`
/// under the *identifier* order. Algorithms that need a different node order
/// (bucket order, degree order) re-orient edges through a
/// [`crate::ordering::NodeOrder`].
///
/// The layout is fixed (`repr(C)`: two little-endian `u32`s on disk) because
/// the binary graph format stores the edge section as a flat array of these
/// and the loader borrows it straight out of the file mapping.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C)]
pub struct Edge {
    u: NodeId,
    v: NodeId,
}

impl Edge {
    /// Creates the canonical representation of the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if `u == v`; the paper's graphs are simple (no self loops).
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self loops are not allowed in a simple data graph");
        if u < v {
            Edge { u, v }
        } else {
            Edge { u: v, v: u }
        }
    }

    /// The smaller endpoint under the identifier order.
    pub fn lo(&self) -> NodeId {
        self.u
    }

    /// The larger endpoint under the identifier order.
    pub fn hi(&self) -> NodeId {
        self.v
    }

    /// Both endpoints as a `(lo, hi)` pair.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.u, self.v)
    }

    /// Returns the endpoint opposite to `x`, or `None` if `x` is not incident.
    pub fn other(&self, x: NodeId) -> Option<NodeId> {
        if x == self.u {
            Some(self.v)
        } else if x == self.v {
            Some(self.u)
        } else {
            None
        }
    }

    /// True if `x` is one of the endpoints.
    pub fn is_incident(&self, x: NodeId) -> bool {
        x == self.u || x == self.v
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}-{})", self.u, self.v)
    }
}

/// The edge list varint-encodes as `(lo, hi)`, which the arena shuffle uses
/// to ship edges in a handful of bytes instead of a fixed 8.
impl subgraph_codec::ArenaCodec for Edge {
    /// Two `u32` varints.
    const MAX_ENCODED_LEN: Option<usize> = Some(2 * subgraph_codec::max_varint_len(u32::BITS));

    fn encode(&self, out: &mut Vec<u8>) {
        subgraph_codec::write_varint(out, u64::from(self.u));
        subgraph_codec::write_varint(out, u64::from(self.v));
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Self {
        let u = subgraph_codec::read_varint(buf, pos) as NodeId;
        let v = subgraph_codec::read_varint(buf, pos) as NodeId;
        // Encoded from a canonical edge, so u < v already holds.
        Edge { u, v }
    }
}

/// Where a graph's three arrays live: owned vectors (built in memory by the
/// generators and the text reader) or sections borrowed from a loaded binary
/// file (see [`crate::sgr`]), where the `Arc<Bytes>` keeps the mapping alive
/// for as long as any clone of the graph.
#[derive(Clone)]
enum GraphBacking {
    Owned {
        edges: Vec<Edge>,
        /// CSR offsets: neighbours of `v` are `adjacency[offsets[v]..offsets[v+1]]`.
        /// `u64` (not `usize`) so the owned and mapped views share one type.
        offsets: Vec<u64>,
        adjacency: Vec<NodeId>,
    },
    /// Byte ranges into `bytes`, each 8-byte aligned and sized to its
    /// element type. Little-endian targets only: the cast *is* the decode.
    #[cfg(target_endian = "little")]
    Mapped {
        bytes: Arc<Bytes>,
        offsets: Range<usize>,
        adjacency: Range<usize>,
        edges: Range<usize>,
    },
}

/// Reinterprets an aligned little-endian byte section as a typed slice.
/// Only instantiated at `u64`, `NodeId` and `Edge` (`repr(C)`, all bit
/// patterns valid); callers guarantee size multiple and alignment, which the
/// debug asserts re-check.
#[cfg(target_endian = "little")]
fn cast_section<T: Copy>(bytes: &[u8]) -> &[T] {
    let size = std::mem::size_of::<T>();
    debug_assert_eq!(bytes.len() % size, 0);
    debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
    // SAFETY: the callers pass a section whose length is a multiple of
    // `size_of::<T>()` and whose start is `T`-aligned (the buffer is 8-byte
    // aligned and the `.sgr` loader rejects a section start that is not),
    // every bit pattern is a valid `T`, and the result borrows `bytes`, which
    // nothing mutates.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) }
}

/// An immutable simple undirected graph.
///
/// The structure keeps two synchronized views of the same edge set: a flat
/// edge list (what the mappers stream over) and a CSR adjacency array whose
/// per-node runs are sorted, giving degree-proportional neighbourhood scans
/// and `O(log Δ)` `has_edge` checks (the constant-time edge-index assumption
/// of Sections 6–7 of the paper; a binary search over the smaller endpoint's
/// run beats a hashed index in both memory and measured lookup cost).
///
/// Both views may be owned vectors or zero-copy sections of a mapped binary
/// file (the internal `GraphBacking` enum); every accessor goes through the
/// backing, so algorithms never see the difference.
#[derive(Clone)]
pub struct DataGraph {
    num_nodes: usize,
    backing: GraphBacking,
    /// Degree-ordered orientation, built on first use (see [`Self::forward`]).
    forward: OnceLock<ForwardIndex>,
}

impl DataGraph {
    /// Builds a graph from a node count and a de-duplicated canonical edge list.
    /// Prefer [`crate::builder::GraphBuilder`] which performs the cleaning.
    pub(crate) fn from_parts(num_nodes: usize, mut edges: Vec<Edge>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        // The builder's push pattern can leave a large dead tail (dedup never
        // shrinks); release it before the adjacency doubles the footprint.
        edges.shrink_to_fit();
        // Counting sort straight into the CSR, with no separate degree or
        // cursor table: count degrees into offsets[v + 1], prefix-sum so
        // offsets[v] is the start of run v, fill using offsets[v] itself as
        // the write cursor (which leaves offsets[v] at the *end* of run v),
        // then shift right once to restore the start positions.
        let mut offsets = vec![0u64; num_nodes + 1];
        for e in &edges {
            offsets[e.lo() as usize + 1] += 1;
            offsets[e.hi() as usize + 1] += 1;
        }
        for v in 0..num_nodes {
            offsets[v + 1] += offsets[v];
        }
        let mut adjacency = vec![0 as NodeId; offsets[num_nodes] as usize];
        for e in &edges {
            let (a, b) = e.endpoints();
            adjacency[offsets[a as usize] as usize] = b;
            offsets[a as usize] += 1;
            adjacency[offsets[b as usize] as usize] = a;
            offsets[b as usize] += 1;
        }
        for v in (1..=num_nodes).rev() {
            offsets[v] = offsets[v - 1];
        }
        offsets[0] = 0;
        // No per-run sort needed: the edge list is sorted, so run v receives
        // its lower-endpoint neighbours (edges (a, v), a ascending) before
        // its higher-endpoint neighbours (edges (v, b), b ascending), and
        // every a < v < every b.
        debug_assert!((0..num_nodes).all(|v| {
            adjacency[offsets[v] as usize..offsets[v + 1] as usize]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        DataGraph {
            num_nodes,
            backing: GraphBacking::Owned {
                edges,
                offsets,
                adjacency,
            },
            forward: OnceLock::new(),
        }
    }

    /// Builds a graph whose arrays are sections of `bytes` (a loaded binary
    /// graph file). The caller — the [`crate::sgr`] loader — has validated
    /// that the ranges are in bounds, aligned, and mutually consistent.
    #[cfg(target_endian = "little")]
    pub(crate) fn from_mapped(
        num_nodes: usize,
        bytes: Arc<Bytes>,
        offsets: Range<usize>,
        adjacency: Range<usize>,
        edges: Range<usize>,
    ) -> Self {
        DataGraph {
            num_nodes,
            backing: GraphBacking::Mapped {
                bytes,
                offsets,
                adjacency,
                edges,
            },
            forward: OnceLock::new(),
        }
    }

    /// The CSR offsets (`u64`, one entry per node plus the closing `2m`).
    #[inline]
    pub(crate) fn offsets(&self) -> &[u64] {
        match &self.backing {
            GraphBacking::Owned { offsets, .. } => offsets,
            #[cfg(target_endian = "little")]
            GraphBacking::Mapped { bytes, offsets, .. } => {
                cast_section(&bytes.as_slice()[offsets.clone()])
            }
        }
    }

    /// The flat CSR adjacency array.
    #[inline]
    pub(crate) fn adjacency(&self) -> &[NodeId] {
        match &self.backing {
            GraphBacking::Owned { adjacency, .. } => adjacency,
            #[cfg(target_endian = "little")]
            GraphBacking::Mapped {
                bytes, adjacency, ..
            } => cast_section(&bytes.as_slice()[adjacency.clone()]),
        }
    }

    /// True when the graph borrows its arrays from a mapped binary file
    /// rather than owning them (diagnostics; algorithms never care).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            GraphBacking::Owned { .. } => false,
            #[cfg(target_endian = "little")]
            GraphBacking::Mapped { bytes, .. } => bytes.is_mapped(),
        }
    }

    /// Number of nodes `n`.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> usize {
        self.edges().len()
    }

    /// Iterator over all node identifiers `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes as NodeId
    }

    /// The canonical edge list (each undirected edge once, `lo < hi`).
    pub fn edges(&self) -> &[Edge] {
        match &self.backing {
            GraphBacking::Owned { edges, .. } => edges,
            #[cfg(target_endian = "little")]
            GraphBacking::Mapped { bytes, edges, .. } => {
                cast_section(&bytes.as_slice()[edges.clone()])
            }
        }
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        let offsets = self.offsets();
        (offsets[v + 1] - offsets[v]) as usize
    }

    /// Maximum degree Δ over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets()
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Neighbours of `v`, sorted by identifier.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        let offsets = self.offsets();
        &self.adjacency()[offsets[v] as usize..offsets[v + 1] as usize]
    }

    /// Tests whether the undirected edge `{u, v}` exists, by binary search
    /// over the smaller endpoint's sorted adjacency run (`O(log Δ)`).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v || u as usize >= self.num_nodes || v as usize >= self.num_nodes {
            return false;
        }
        let (probe, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(probe).binary_search(&target).is_ok()
    }

    /// The degree-ordered forward orientation of the graph (Section 7),
    /// built on first use and cached for the graph's lifetime.
    ///
    /// The graph is immutable, so the index never invalidates; a long-lived
    /// query service amortizes its construction across queries exactly as it
    /// amortizes parsing and planning, while a one-shot run pays it at most
    /// once.
    pub fn forward(&self) -> &ForwardIndex {
        self.forward.get_or_init(|| ForwardIndex::new(self))
    }

    /// True if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges().is_empty()
    }

    /// Returns the subgraph induced by keeping only edges for which `keep`
    /// returns true. Node identifiers are preserved (no compaction), which is
    /// what a reducer working on "its" fragment of the data graph needs.
    pub fn filter_edges<F: Fn(&Edge) -> bool>(&self, keep: F) -> DataGraph {
        let edges = self.edges().iter().copied().filter(|e| keep(e)).collect();
        DataGraph::from_parts(self.num_nodes, edges)
    }

    /// Builds a graph over the same node-id space from an arbitrary edge list.
    /// Duplicates are removed; endpoints must be `< num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut builder = crate::builder::GraphBuilder::new(num_nodes);
        for (u, v) in edges {
            builder.add_edge(u, v);
        }
        builder.build()
    }
}

impl fmt::Debug for DataGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DataGraph {{ n: {}, m: {} }}",
            self.num_nodes,
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_codec::ArenaCodec;

    fn path_graph() -> DataGraph {
        DataGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn edge_is_canonicalized() {
        let e = Edge::new(7, 3);
        assert_eq!(e.lo(), 3);
        assert_eq!(e.hi(), 7);
        assert_eq!(Edge::new(3, 7), e);
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        let _ = Edge::new(5, 5);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(2, 9);
        assert_eq!(e.other(2), Some(9));
        assert_eq!(e.other(9), Some(2));
        assert_eq!(e.other(4), None);
        assert!(e.is_incident(2));
        assert!(!e.is_incident(3));
    }

    #[test]
    fn edge_round_trips_through_the_arena_codec() {
        let mut buf = Vec::new();
        let edges = [Edge::new(0, 1), Edge::new(5, 1_000_000), Edge::new(2, 3)];
        for e in &edges {
            e.encode(&mut buf);
        }
        let mut pos = 0;
        for e in &edges {
            assert_eq!(Edge::decode(&buf, &mut pos), *e);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn an_edge_record_stays_within_its_bound() {
        let len = |record: &dyn Fn(&mut Vec<u8>)| {
            let mut buf = Vec::new();
            record(&mut buf);
            buf.len()
        };
        let widest = Edge::new(u32::MAX - 1, u32::MAX);
        assert_eq!(Edge::MAX_ENCODED_LEN, Some(10));
        assert_eq!(len(&|buf| widest.encode(buf)), 10);
        for bits in 0..32 {
            let (lo, hi) = ((1u32 << bits) - 1, 1u32 << bits);
            assert!(len(&|buf| Edge::new(lo, hi).encode(buf)) <= 10);
        }
        // The records the Section 4 rounds (a reducer index) and the
        // partition round (a bucket triple) ship.
        assert_eq!(<(u32, Edge)>::MAX_ENCODED_LEN, Some(15));
        assert_eq!(len(&|buf| (u32::MAX, widest).encode(buf)), 15);
        assert_eq!(<([u32; 3], Edge)>::MAX_ENCODED_LEN, Some(25));
        assert_eq!(len(&|buf| ([u32::MAX; 3], widest).encode(buf)), 25);
    }

    #[test]
    fn counts_and_degrees() {
        let g = path_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = DataGraph::from_edges(5, [(4, 0), (0, 2), (2, 4), (1, 2)]);
        assert_eq!(g.neighbors(2), &[0, 1, 4]);
        assert_eq!(g.neighbors(0), &[2, 4]);
        for v in g.nodes() {
            for &w in g.neighbors(v) {
                assert!(g.neighbors(w).contains(&v));
            }
        }
    }

    #[test]
    fn has_edge_checks_both_orientations() {
        let g = path_graph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(3, 3));
    }

    #[test]
    fn duplicate_edges_are_removed() {
        let g = DataGraph::from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn filter_edges_keeps_node_space() {
        let g = path_graph();
        let sub = g.filter_edges(|e| e.lo() != 0);
        assert_eq!(sub.num_nodes(), 4);
        assert_eq!(sub.num_edges(), 2);
        assert!(!sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
    }

    #[test]
    fn empty_graph() {
        let g = DataGraph::from_edges(0, []);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert!(!g.is_mapped());
    }

    #[test]
    fn isolated_high_degree_hub_offsets_are_consistent() {
        // Exercises the in-place counting sort with skewed degrees and an
        // isolated node (degree 0) in the middle of the id space.
        let g = DataGraph::from_edges(6, [(0, 5), (1, 5), (3, 5), (4, 5), (0, 1)]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(2), &[] as &[NodeId]);
        assert_eq!(g.neighbors(5), &[0, 1, 3, 4]);
        assert_eq!(g.degree(5), 4);
        assert_eq!(g.max_degree(), 4);
    }
}
