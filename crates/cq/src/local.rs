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
//! * every node keeps one sorted run of neighbours, its **predecessors**
//!   (neighbours that precede it) first and its **successors** after them —
//!   ids are ranks, so the two halves are already in order. The subgoal
//!   `E(X, Y)` with `X` bound reads `successors(X)`, with `Y` bound
//!   `predecessors(Y)`: a candidate drawn from a half already has the right
//!   orientation. An edge whose orientation the query leaves open reads the
//!   whole run, `neighbors`, and no third copy of the adjacency exists for
//!   it.
//!
//! The build keeps only what a match can use: given the least degree a
//! query's variable has, it drops every input edge with an endpoint of lower
//! degree before ranking anything, so such nodes are neither ranked nor laid
//! out nor scanned by the join. The survivors keep their relative ranks.
//!
//! Size and build time are linear in the reducer's input, and global ids may
//! be arbitrarily sparse. Nodes are ranked through a bitmap over the input's
//! id range (from its least id to its greatest) when that range spans at
//! most two 64-bit words per input edge plus 64, so the build never costs
//! more than a constant per edge for it; a wider range is interned by hash
//! instead, and then nothing depends on the range at all.

use subgraph_graph::{Edge, NodeId, NodeOrder};
use subgraph_pattern::{Instance, PatternNode};

/// Local ids and edge offsets are `u32`, like the ids of the data graph.
type LocalId = u32;

/// The `offsets` and `targets` of a [`LocalGraph`] over `n` nodes from its
/// edges, packed `(earlier, later)`. One counting sort puts every edge among
/// the predecessors of its later endpoint. Then, node by node in ascending
/// order, those are sorted where they lie — a run is a handful of ids, and a
/// sequential pass costs less than one more scattered over an array this size
/// — and the node is appended to the successors of each of them, which
/// therefore come out sorted. Repeated edges collapse.
fn adjacency(n: usize, pairs: &[u64]) -> (Vec<u32>, Vec<LocalId>) {
    // Per node, first its degrees and then its write heads: small enough to
    // stay cached under the scattered writes, which the interleaved offsets
    // would not be.
    let (mut before, mut after) = (vec![0u32; n], vec![0u32; n]);
    for &pair in pairs {
        let (a, b) = unpack(pair);
        after[a as usize] += 1;
        before[b as usize] += 1;
    }
    // Slot 2v holds the start of v's predecessors, slot 2v + 1 the start of
    // its successors.
    let mut offsets = vec![0u32; 2 * n + 1];
    let mut start = 0;
    for v in 0..n {
        offsets[2 * v] = start;
        start += std::mem::replace(&mut before[v], start);
        offsets[2 * v + 1] = start;
        start += std::mem::replace(&mut after[v], start);
    }
    offsets[2 * n] = start;

    let mut targets = vec![0; 2 * pairs.len()];
    for &pair in pairs {
        let (a, b) = unpack(pair);
        push_to_run(&mut before, &mut targets, b, a);
    }
    let mut repeated = false;
    for w in 0..n {
        let run = offsets[2 * w] as usize..offsets[2 * w + 1] as usize;
        let sorted = &mut targets[run.clone()];
        sorted.sort_unstable();
        repeated |= sorted.windows(2).any(|pair| pair[0] == pair[1]);
        for at in run {
            let v = targets[at];
            push_to_run(&mut after, &mut targets, v, w as LocalId);
        }
    }
    // Usually no edge is repeated — a bucket-multiset reducer receives each
    // once; otherwise start over from the distinct edges.
    if repeated {
        let mut distinct: Vec<u64> = Vec::with_capacity(pairs.len());
        for w in 0..n {
            let run = &targets[offsets[2 * w] as usize..offsets[2 * w + 1] as usize];
            distinct.extend(run.iter().map(|&v| pack(v, w as LocalId)));
        }
        distinct.dedup();
        return adjacency(n, &distinct);
    }
    (offsets, targets)
}

/// Appends `target` to the run of `node`, at its write head `heads[node]`.
#[inline]
fn push_to_run(heads: &mut [u32], targets: &mut [LocalId], node: LocalId, target: LocalId) {
    let head = &mut heads[node as usize];
    targets[*head as usize] = target;
    *head += 1;
}

/// A reducer's input edges as an order-relabelled graph (see the module
/// docs). Duplicate input edges collapse into one.
#[derive(Clone, Debug, Default)]
pub struct LocalGraph {
    /// `nodes[local id]` is the data-graph node, ascending in the order.
    nodes: Vec<NodeId>,
    /// Node `v`'s neighbours are `targets[offsets[2v]..offsets[2v + 2]]`,
    /// ascending: its predecessors up to `offsets[2v + 1]`, its successors
    /// from there on.
    offsets: Vec<u32>,
    targets: Vec<LocalId>,
}

impl LocalGraph {
    /// Builds the local graph of `edges` under `order`, keeping only the
    /// edges whose two endpoints each touch at least `min_degree` input edges
    /// (counted once, before anything is dropped, repeats included) — the
    /// least degree of a variable in the queries joined over it, so no
    /// instance loses a node. `min_degree ≤ 1` keeps every edge. Surviving
    /// nodes rank as they would in the unfiltered graph, so a join finds the
    /// same assignments in the same order over either.
    ///
    /// No comparison sort runs over the input: every endpoint gets a dense
    /// index — its position in a bitmap over the id range when that range
    /// spans at most two 64-bit words per edge plus 64, its first-seen index
    /// in a hash interner otherwise — nodes are ranked by a radix sort of their order
    /// keys, edges are put in runs by counting sorts, and only a node's own
    /// few predecessors are ever compared with each other. Each transient
    /// (bitmap or interner, degrees, sort buffers, rank table, edge pairs) is
    /// dropped before the next structure is allocated.
    ///
    /// # Panics
    /// Panics if `edges` holds `2^31` edges or more (offsets are `u32`).
    pub fn build<O: NodeOrder>(edges: &[Edge], order: &O, min_degree: usize) -> Self {
        assert!(
            edges.len() < (1 << 31),
            "a local graph holds fewer than 2^31 edges"
        );
        let Dense {
            nodes: seen,
            mut pairs,
            by_id,
        } = Dense::index(edges);
        let kept = drop_low_degree(&mut pairs, seen.len(), min_degree);
        let (nodes, rank) = rank_nodes(&seen, &kept, by_id, order);
        drop((seen, kept));
        let n = nodes.len();

        // Orient every edge from its earlier to its later endpoint.
        for pair in &mut pairs {
            let (a, b) = unpack(*pair);
            let (a, b) = (rank[a as usize], rank[b as usize]);
            *pair = if a < b { pack(a, b) } else { pack(b, a) };
        }
        drop(rank);
        let (offsets, targets) = adjacency(n, &pairs);
        LocalGraph {
            nodes,
            offsets,
            targets,
        }
    }

    /// Whether [`LocalGraph::build`] ranks the endpoints of `edges` by a
    /// bitmap over their id range — it does when the range spans at most
    /// two 64-bit words per edge plus 64 — rather than by interning them.
    pub fn ranks_by_bitmap(edges: &[Edge]) -> bool {
        Dense::span(edges).is_some()
    }

    /// Number of distinct nodes among the input edges.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct input edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
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

    /// `targets[offsets[2v + from]..offsets[2v + to]]`.
    #[inline]
    fn run(&self, v: LocalId, from: usize, to: usize) -> &[LocalId] {
        let at = 2 * v as usize;
        &self.targets[self.offsets[at + from] as usize..self.offsets[at + to] as usize]
    }

    /// Neighbours of `v` that precede it in the order, ascending.
    #[inline]
    pub fn predecessors(&self, v: LocalId) -> &[LocalId] {
        self.run(v, 0, 1)
    }

    /// Neighbours of `v` that follow it in the order, ascending.
    #[inline]
    pub fn successors(&self, v: LocalId) -> &[LocalId] {
        self.run(v, 1, 2)
    }

    /// Every neighbour of `v`, ascending: its predecessors, then its
    /// successors.
    #[inline]
    pub fn neighbors(&self, v: LocalId) -> &[LocalId] {
        self.run(v, 0, 2)
    }

    /// Heap bytes the graph holds — proportional to the input edge count,
    /// whatever the range of the global ids.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeId>()
            + (self.offsets.capacity() + self.targets.capacity()) * std::mem::size_of::<u32>()
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

/// Inputs below this many words are sorted by comparison: clearing and
/// summing 256 counters per pass costs more than sorting so few.
const RADIX_MIN: usize = 256;

/// A ranking bitmap may span this many words per input edge, plus
/// [`BITMAP_SLACK_WORDS`]: at most 16 bytes of bitmap per edge, about what
/// the interner's table costs, and the bitmap needs no probing.
const BITMAP_WORDS_PER_EDGE: usize = 2;

/// Words a ranking bitmap may span whatever the edge count, so that a small
/// input over a narrow range still takes it.
const BITMAP_SLACK_WORDS: usize = 64;

/// Most 64-bit words a bitmap over the endpoint ids of `edges` input edges
/// may span; a wider id range is interned instead.
fn bitmap_words(edges: usize) -> usize {
    BITMAP_WORDS_PER_EDGE * edges + BITMAP_SLACK_WORDS
}

/// Every distinct endpoint of a reducer's input under a dense index, and the
/// input edges as packed pairs of those indices.
struct Dense {
    /// The node behind each dense index.
    nodes: Vec<NodeId>,
    /// One `(index of lo, index of hi)` per input edge.
    pairs: Vec<u64>,
    /// The dense indices ascend with the node ids (the bitmap path), so an
    /// order's ties need no id to break them.
    by_id: bool,
}

impl Dense {
    /// Indexes by bitmap when the id range is dense enough, by hash interner
    /// otherwise.
    fn index(edges: &[Edge]) -> Self {
        match Self::span(edges) {
            Some((low, words)) => Self::by_bitmap(edges, low, words),
            None => Self::by_interner(edges),
        }
    }

    /// The least endpoint id of `edges` and the words a bitmap from it to
    /// the greatest spans, if it may (see [`bitmap_words`]).
    fn span(edges: &[Edge]) -> Option<(NodeId, usize)> {
        // Both endpoints each way: a decoded edge need not be canonical.
        let (low, high) = edges.iter().fold((NodeId::MAX, 0), |(low, high), e| {
            let (u, v) = e.endpoints();
            (low.min(u.min(v)), high.max(u.max(v)))
        });
        let words = ((high.checked_sub(low)? >> 6) as usize) + 1;
        (words <= bitmap_words(edges.len())).then_some((low, words))
    }

    /// One bit per id from `low` on, set for every endpoint; a node's index
    /// is the number of set bits below its own, so indices ascend with ids.
    fn by_bitmap(edges: &[Edge], low: NodeId, words: usize) -> Self {
        let mut bits = vec![0u64; words];
        for e in edges {
            for v in [e.lo(), e.hi()] {
                let at = v - low;
                bits[(at >> 6) as usize] |= 1 << (at & 63);
            }
        }
        // Set bits in the words before each word.
        let mut before = Vec::with_capacity(words);
        let mut count = 0u32;
        for &word in &bits {
            before.push(count);
            count += word.count_ones();
        }
        let mut nodes = Vec::with_capacity(count as usize);
        for (i, &word) in bits.iter().enumerate() {
            let base = low + 64 * i as u32;
            let mut rest = word;
            while rest != 0 {
                nodes.push(base + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        let index = |v: NodeId| {
            let at = v - low;
            let word = (at >> 6) as usize;
            before[word] + (bits[word] & ((1 << (at & 63)) - 1)).count_ones()
        };
        let pairs = edges
            .iter()
            .map(|e| pack(index(e.lo()), index(e.hi())))
            .collect();
        Dense {
            nodes,
            pairs,
            by_id: true,
        }
    }

    /// Interned ids in first-seen order: sized by the input, not the range.
    fn by_interner(edges: &[Edge]) -> Self {
        let mut interner = Interner::for_edges(edges.len());
        let pairs = edges
            .iter()
            .map(|e| pack(interner.intern(e.lo()), interner.intern(e.hi())))
            .collect();
        Dense {
            nodes: interner.into_nodes(),
            pairs,
            by_id: false,
        }
    }
}

/// Drops every pair of dense indices with an endpoint of degree below
/// `min_degree`, degrees counted once over all `pairs` (one pass, not a
/// peel to the full core: a node may lose the edges that made its degree).
/// Returns the indices, out of `0..n`, still an endpoint, ascending.
fn drop_low_degree(pairs: &mut Vec<u64>, n: usize, min_degree: usize) -> Vec<u32> {
    let all = 0..n as u32;
    if min_degree <= 1 {
        return all.collect();
    }
    let mut degree = vec![0u32; n];
    for &pair in pairs.iter() {
        let (a, b) = unpack(pair);
        degree[a as usize] += 1;
        degree[b as usize] += 1;
    }
    let short = |v: u32| (degree[v as usize] as usize) < min_degree;
    pairs.retain(|&pair| {
        let (a, b) = unpack(pair);
        !short(a) && !short(b)
    });
    drop(degree);
    let mut kept = vec![false; n];
    for &pair in pairs.iter() {
        let (a, b) = unpack(pair);
        kept[a as usize] = true;
        kept[b as usize] = true;
    }
    all.filter(|&i| kept[i as usize]).collect()
}

/// Ranks the nodes behind the dense `indices` (ascending) by the order's
/// key, `seen` being the node behind each dense index: returns those nodes
/// in rank order and the rank of each dense index (unspecified for one not
/// in `indices`). `by_id`: the dense indices ascend with the ids, so a
/// stable sort by the primary alone ranks by `(primary, id)`.
fn rank_nodes<O: NodeOrder>(
    seen: &[NodeId],
    indices: &[u32],
    by_id: bool,
    order: &O,
) -> (Vec<NodeId>, Vec<LocalId>) {
    // One sortable word per node: the key `(primary, id)` above the position
    // in `indices` the sort carries along, each field as wide as its largest
    // value — the id field empty when positions already ascend with ids. A
    // bucket number or a degree over the ids of one graph leaves the word
    // well inside 64 bits; an order whose primaries do not fit gets 128.
    let bits = |max: u64| 64 - max.leading_zeros();
    let index_bits = bits(indices.len() as u64);
    let id_bits = if by_id {
        0
    } else {
        bits(seen.iter().copied().max().unwrap_or(0).into())
    };
    let key_shift = index_bits + id_bits;
    let key = |i: u32| {
        let v = seen[i as usize];
        let (primary, id) = order.key(v);
        debug_assert_eq!(id, v, "NodeOrder::key must break ties by the node itself");
        (primary, if by_id { 0 } else { u64::from(id) })
    };
    let mut fits = true;
    let narrow: Vec<u64> = (indices.iter().zip(0u64..))
        .map(|(&i, at)| {
            let (primary, id) = key(i);
            fits &= primary.leading_zeros() >= key_shift;
            primary.wrapping_shl(key_shift) | id << index_bits | at
        })
        .collect();
    if fits {
        let sorted = sort_from_bit(narrow, index_bits, |w, shift| (w >> shift) as u8);
        let index_mask = (1 << index_bits) - 1;
        ranked(
            seen,
            indices,
            sorted.iter().map(|w| (w & index_mask) as usize),
        )
    } else {
        drop(narrow);
        let wide: Vec<u128> = (indices.iter().zip(0u128..))
            .map(|(&i, at)| {
                let (primary, id) = key(i);
                u128::from(primary) << 64 | u128::from(id) << 32 | at
            })
            .collect();
        let sorted = sort_from_bit(wide, 32, |w, shift| (w >> shift) as u8);
        ranked(seen, indices, sorted.iter().map(|&w| w as u32 as usize))
    }
}

/// The kept nodes in rank order and the rank of each dense index, from the
/// positions in `indices` in rank order.
fn ranked(
    seen: &[NodeId],
    indices: &[u32],
    by_rank: impl Iterator<Item = usize>,
) -> (Vec<NodeId>, Vec<LocalId>) {
    let mut rank = vec![0 as LocalId; seen.len()];
    let mut nodes = Vec::with_capacity(indices.len());
    for (r, at) in by_rank.enumerate() {
        let i = indices[at] as usize;
        rank[i] = r as LocalId;
        nodes.push(seen[i]);
    }
    (nodes, rank)
}

/// Sorts `words` by their bits from `from_bit` up (ties keep their order): a
/// stable least-significant-digit radix sort over bytes, `byte(word, shift)`
/// being bits `shift..shift + 8`. Bytes on which all words agree — with
/// fields as narrow as their values all but three or four — cost no pass.
fn sort_from_bit<W>(mut words: Vec<W>, from_bit: u32, byte: impl Fn(W, u32) -> u8) -> Vec<W>
where
    W: Copy + Default + Ord + std::ops::BitXor<Output = W> + std::ops::BitOr<Output = W>,
{
    if words.len() < RADIX_MIN {
        // Whole-word order: the low bits are the words' original positions.
        words.sort_unstable();
        return words;
    }
    let varying = words
        .iter()
        .fold(W::default(), |acc, &w| acc | (w ^ words[0]));
    let mut scratch = vec![W::default(); words.len()];
    for shift in (from_bit..8 * std::mem::size_of::<W>() as u32).step_by(8) {
        if byte(varying, shift) == 0 {
            continue;
        }
        let mut heads = [0usize; 256];
        for &w in &words {
            heads[usize::from(byte(w, shift))] += 1;
        }
        let mut start = 0;
        for head in &mut heads {
            start += std::mem::replace(head, start);
        }
        for &w in &words {
            let head = &mut heads[usize::from(byte(w, shift))];
            scratch[*head] = w;
            *head += 1;
        }
        std::mem::swap(&mut words, &mut scratch);
    }
    words
}

/// Open-addressing table assigning dense ids to global node ids in first-seen
/// order, for inputs whose id range is too wide for a bitmap. It starts with
/// a slot per edge, rounded up to a power of two, and doubles when more than
/// three quarters full — a sparse graph's triangle reducers hold about 0.87
/// distinct nodes per edge, so it may well grow once — which keeps its
/// footprint linear in the reducer's input.
struct Interner {
    /// `0` for an empty slot, otherwise the node in the high half and its
    /// `interned id + 1` in the low half: a probe reads one word, not a slot
    /// and then the node it points to.
    slots: Vec<u64>,
    shift: u32,
    nodes: Vec<NodeId>,
}

impl Interner {
    fn for_edges(edges: usize) -> Self {
        let capacity = edges.next_power_of_two().max(2);
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
            let (node, id) = unpack(self.slots[slot]);
            if id == 0 {
                break;
            }
            if node == v {
                return id - 1;
            }
            slot = (slot + 1) & mask;
        }
        self.nodes.push(v);
        self.slots[slot] = pack(v, self.nodes.len() as u32);
        if 4 * self.nodes.len() > 3 * self.slots.len() {
            self.grow();
        }
        self.nodes.len() as u32 - 1
    }

    fn grow(&mut self) {
        let capacity = 2 * self.slots.len();
        // The nodes refill the table, so the old one can go first.
        self.slots = Vec::new();
        self.slots = vec![0; capacity];
        self.shift -= 1;
        for (i, &v) in self.nodes.iter().enumerate() {
            let mut slot = self.home(v);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (capacity - 1);
            }
            self.slots[slot] = pack(v, i as u32 + 1);
        }
    }

    fn into_nodes(self) -> Vec<NodeId> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use subgraph_codec::ArenaCodec;
    use subgraph_graph::{generators, BucketThenIdOrder, DataGraph, DegreeOrder, IdOrder};

    fn edges(pairs: &[(NodeId, NodeId)]) -> Vec<Edge> {
        pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect()
    }

    /// The build as it first shipped — rank by one comparison sort of the
    /// keyed nodes, successor CSR by one comparison sort of the packed pairs
    /// — kept as the reference [`LocalGraph::build`] is tested against, after
    /// the same one-pass degree rule drops edges from its input.
    fn build_by_sorting<O: NodeOrder>(edges: &[Edge], order: &O, min_degree: usize) -> LocalGraph {
        let mut degree: HashMap<NodeId, usize> = HashMap::new();
        for e in edges {
            *degree.entry(e.lo()).or_default() += 1;
            *degree.entry(e.hi()).or_default() += 1;
        }
        let edges: Vec<Edge> = edges
            .iter()
            .copied()
            .filter(|e| degree[&e.lo()] >= min_degree && degree[&e.hi()] >= min_degree)
            .collect();
        let mut ids: HashMap<NodeId, u32> = HashMap::new();
        let mut seen: Vec<NodeId> = Vec::new();
        let mut intern = |v: NodeId| {
            *ids.entry(v).or_insert_with(|| {
                seen.push(v);
                seen.len() as u32 - 1
            })
        };
        let mut pairs: Vec<u64> = edges
            .iter()
            .map(|e| pack(intern(e.lo()), intern(e.hi())))
            .collect();

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

        for pair in &mut pairs {
            let (a, b) = unpack(*pair);
            let (a, b) = (rank[a as usize], rank[b as usize]);
            *pair = if a < b { pack(a, b) } else { pack(b, a) };
        }
        pairs.sort_unstable();
        pairs.dedup();

        // Each edge once from either end, sorted: a node's neighbours in
        // ascending order, those below it first.
        let mut directed: Vec<u64> = pairs
            .iter()
            .flat_map(|&pair| {
                let (a, b) = unpack(pair);
                [pair, pack(b, a)]
            })
            .collect();
        directed.sort_unstable();
        let mut offsets = vec![0u32; 2 * nodes.len() + 1];
        for &pair in &pairs {
            let (a, b) = unpack(pair);
            offsets[2 * a as usize + 1] += 1;
            offsets[2 * b as usize] += 1;
        }
        let mut start = 0;
        for offset in &mut offsets {
            start += std::mem::replace(offset, start);
        }
        LocalGraph {
            nodes,
            offsets,
            targets: directed.iter().map(|&arc| arc as u32).collect(),
        }
    }

    /// An order whose primaries use all eight key bytes.
    struct Scrambled;

    impl NodeOrder for Scrambled {
        fn key(&self, v: NodeId) -> (u64, NodeId) {
            (u64::from(v ^ 0x5bd1).wrapping_mul(0x9e37_79b9_7f4a_7c15), v)
        }
    }

    fn assert_matches_reference<O: NodeOrder>(
        what: &str,
        edges: &[Edge],
        order: &O,
        min_degree: usize,
    ) {
        let what = format!("{what}, min degree {min_degree}");
        let (built, reference) = (
            LocalGraph::build(edges, order, min_degree),
            build_by_sorting(edges, order, min_degree),
        );
        assert_eq!(built.nodes(), reference.nodes(), "{what}: nodes");
        assert_eq!(built.num_edges(), reference.num_edges(), "{what}: edges");
        for v in 0..reference.num_nodes() as LocalId {
            assert_eq!(built.successors(v), reference.successors(v), "{what}: {v}");
            assert_eq!(
                built.predecessors(v),
                reference.predecessors(v),
                "{what}: {v}"
            );
            assert_eq!(built.neighbors(v), reference.neighbors(v), "{what}: {v}");
        }
        assert_eq!(built.heap_bytes(), reference.heap_bytes(), "{what}: bytes");
    }

    #[test]
    fn the_build_matches_the_sort_based_reference() {
        let from_graph = |g: &DataGraph| g.edges().to_vec();
        let self_loop = |v: u8| Edge::decode(&[v, v], &mut 0);
        let near_max = u32::MAX - 40;
        let mut inputs: Vec<(String, Vec<Edge>)> = vec![
            ("gnm".into(), from_graph(&generators::gnm(400, 1_500, 7))),
            (
                "power-law".into(),
                from_graph(&generators::power_law(500, 1_600, 2.2, 8)),
            ),
            ("star".into(), from_graph(&generators::star(300))),
            ("complete".into(), from_graph(&generators::complete(30))),
            ("empty".into(), Vec::new()),
            ("single edge".into(), edges(&[(9, 4)])),
            ("all duplicates".into(), vec![Edge::new(3, 8); 700]),
            (
                "self loops".into(),
                [edges(&[(5, 6), (6, 7), (5, 7)]), vec![self_loop(6); 2]].concat(),
            ),
            (
                "ids near u32::MAX".into(),
                (0..40)
                    .map(|i| (i, (i * 7 + 1) % 41))
                    .filter(|(i, j)| i != j)
                    .map(|(i, j)| Edge::new(near_max + i, near_max + j))
                    .collect(),
            ),
        ];
        // Either side of the comparison-sort fallback: a path on k + 1 nodes,
        // its ids scattered so the key bytes differ.
        for k in [RADIX_MIN - 2, RADIX_MIN - 1, RADIX_MIN, RADIX_MIN + 1] {
            let id = |i: usize| (i as u32).wrapping_mul(2_654_435_761) >> 3;
            let path = (0..k).map(|i| Edge::new(id(i), id(i + 1))).collect();
            inputs.push((format!("path with {k} edges"), path));
        }
        // Either side of the bitmap bound: a gnm graph's ids spread
        // monotonically so that they span exactly the most words the bitmap
        // may, or one more, ending at `u32::MAX`.
        let g = generators::gnm(200, 600, 11);
        let words = bitmap_words(g.num_edges()) as u64;
        for (span, bitmap) in [(64 * words - 1, true), (64 * words, false)] {
            let low = u32::MAX - span as u32;
            let id = |v: NodeId| low + (u64::from(v) * span / 199) as u32;
            let spread: Vec<Edge> = g
                .edges()
                .iter()
                .map(|e| Edge::new(id(e.lo()), id(e.hi())))
                .collect();
            assert_eq!(
                LocalGraph::ranks_by_bitmap(&spread),
                bitmap,
                "{span} ids over {words} words"
            );
            inputs.push((format!("gnm over {span} ids"), spread));
        }
        for min_degree in 0..=3 {
            for (name, input) in &inputs {
                assert_matches_reference(name, input, &IdOrder, min_degree);
                assert_matches_reference(name, input, &Scrambled, min_degree);
                for b in [1, 3, 7] {
                    assert_matches_reference(name, input, &BucketThenIdOrder::new(b), min_degree);
                }
            }
            for g in [
                generators::gnm(400, 1_500, 9),
                generators::power_law(500, 1_600, 2.2, 10),
                generators::star(300),
                generators::complete(30),
            ] {
                let order = DegreeOrder::new(&g);
                assert_matches_reference("degree order", g.edges(), &order, min_degree);
            }
        }
    }

    #[test]
    fn the_degree_filter_keeps_exactly_the_edges_between_qualifying_nodes() {
        // A triangle 1-2-3 with a pendant 3-4 and a path 5-6-7: at degree 2
        // only the triangle survives, and node 6 (degree 2) goes with its
        // edges, since both its neighbours have degree 1. One pass: 3 keeps
        // its degree of 3 although its pendant edge is dropped.
        let input = edges(&[(1, 2), (2, 3), (1, 3), (3, 4), (5, 6), (6, 7)]);
        let local = LocalGraph::build(&input, &IdOrder, 2);
        assert_eq!(local.nodes(), &[1, 2, 3]);
        assert_eq!(local.num_edges(), 3);
        assert_eq!(LocalGraph::build(&input, &IdOrder, 3).num_nodes(), 0);
        let unfiltered = LocalGraph::build(&input, &IdOrder, 0);
        assert_eq!(
            unfiltered.nodes(),
            LocalGraph::build(&input, &IdOrder, 1).nodes()
        );
        assert_eq!(unfiltered.num_nodes(), 7);
    }

    /// An order that breaks ties by anything but the node itself would be
    /// ranked wrongly on the bitmap path; debug builds refuse it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "break ties by the node itself")]
    fn an_order_breaking_ties_otherwise_is_refused() {
        struct Reversed;
        impl NodeOrder for Reversed {
            fn key(&self, v: NodeId) -> (u64, NodeId) {
                (0, NodeId::MAX - v)
            }
        }
        LocalGraph::build(&edges(&[(1, 2), (2, 3)]), &Reversed, 0);
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
        check(&LocalGraph::build(g.edges(), &IdOrder, 0), &|u, v| u < v);
        check(&LocalGraph::build(g.edges(), &by_bucket, 0), &|u, v| {
            by_bucket.precedes(u, v)
        });
        check(&LocalGraph::build(g.edges(), &by_degree, 0), &|u, v| {
            by_degree.precedes(u, v)
        });
    }

    #[test]
    fn duplicate_edges_collapse_and_isolated_nodes_do_not_exist() {
        let local = LocalGraph::build(&edges(&[(7, 3), (3, 7), (3, 9), (7, 3)]), &IdOrder, 0);
        assert_eq!(local.nodes(), &[3, 7, 9]);
        assert_eq!(local.num_edges(), 2);
        assert_eq!(local.successors(0), &[1, 2]);
        assert_eq!(local.predecessors(1), &[0]);
        assert!(local.successors(2).is_empty());
    }

    #[test]
    fn empty_input_builds_an_empty_graph() {
        let local = LocalGraph::build(&[], &IdOrder, 0);
        assert_eq!(local.num_nodes(), 0);
        assert_eq!(local.num_edges(), 0);
    }

    #[test]
    fn a_matching_outgrows_the_initial_table() {
        // Two distinct nodes per edge: more than the interner starts sized
        // for, so it has to grow without losing an id.
        let matching: Vec<Edge> = (0..3_000u32)
            .map(|i| Edge::new(i * 1_000_003 % 4_000_037, 4_000_037 + i))
            .collect();
        let local = LocalGraph::build(&matching, &BucketThenIdOrder::new(7), 0);
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
