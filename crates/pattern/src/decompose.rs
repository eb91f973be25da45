//! Decomposition of sample graphs into the pieces required by Theorem 7.2.
//!
//! Theorem 7.2: if the sample graph `S` can be partitioned (node-disjointly)
//! into `q` isolated nodes, pairs of nodes connected by an edge, and subgraphs
//! containing an odd-length Hamilton cycle, then `S` has a
//! `(q, (p − q)/2)`-algorithm — a serial algorithm running in `O(n^q m^{(p−q)/2})`
//! that is always convertible. The fewer isolated nodes, the better (trading
//! `n²` for `m` always pays), so the search below minimizes `q`.

use crate::sample::{PatternNode, SampleGraph};

/// One piece of a decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Piece {
    /// A single node not covered by any edge or cycle piece.
    IsolatedNode(PatternNode),
    /// Two nodes joined by an edge of `S`.
    Edge(PatternNode, PatternNode),
    /// A set of nodes (odd size ≥ 3) whose induced subgraph contains a
    /// Hamilton cycle; the nodes are listed in Hamilton-cycle order.
    OddCycle(Vec<PatternNode>),
}

impl Piece {
    /// The nodes covered by the piece.
    pub fn nodes(&self) -> Vec<PatternNode> {
        match self {
            Piece::IsolatedNode(v) => vec![*v],
            Piece::Edge(u, v) => vec![*u, *v],
            Piece::OddCycle(nodes) => nodes.clone(),
        }
    }
}

/// A full decomposition of a sample graph, together with the running-time
/// exponents of the serial algorithm it yields (Theorem 7.2): the algorithm
/// runs in `O(n^alpha · m^beta)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Decomposition {
    /// The node-disjoint pieces covering all of `S`.
    pub pieces: Vec<Piece>,
    /// Exponent of `n`: the number of isolated nodes `q`.
    pub alpha: usize,
    /// Twice this is `p − q`; exponent of `m` is `(p − q)/2`.
    pub beta_times_two: usize,
}

impl Decomposition {
    /// The exponent of `m` as a floating-point value `(p − q)/2`.
    pub fn beta(&self) -> f64 {
        self.beta_times_two as f64 / 2.0
    }

    /// True iff the decomposition yields a convertible algorithm for a
    /// `p`-node pattern, i.e. `alpha + 2·beta ≥ p` (Theorem 6.1). By
    /// construction this always holds with equality.
    pub fn is_convertible(&self, p: usize) -> bool {
        self.alpha + self.beta_times_two >= p
    }
}

/// Finds a decomposition of `sample` into isolated nodes, edges and
/// odd-Hamilton-cycle subgraphs that minimizes the number of isolated nodes.
///
/// The search is exhaustive over partitions of the (small) node set: it always
/// succeeds because in the worst case every node can be isolated.
pub fn decompose(sample: &SampleGraph) -> Decomposition {
    let p = sample.num_nodes();
    let all: Vec<PatternNode> = sample.nodes().collect();
    let adjacency: Vec<u32> = (all.iter())
        .map(|&v| (sample.neighbors(v).iter()).fold(0, |mask, &u| mask | 1 << u))
        .collect();
    let mut best: Option<Vec<Piece>> = None;
    let mut best_isolated = usize::MAX;
    let mut pieces: Vec<Piece> = Vec::new();
    search(
        sample,
        &all,
        &adjacency,
        0u32,
        &mut pieces,
        0,
        &mut best,
        &mut best_isolated,
    );
    let pieces = best.expect("the all-isolated decomposition always exists");
    let q = pieces
        .iter()
        .filter(|piece| matches!(piece, Piece::IsolatedNode(_)))
        .count();
    Decomposition {
        pieces,
        alpha: q,
        beta_times_two: p - q,
    }
}

/// Recursive exact search: `used` is a bitmask of already-covered nodes, and
/// `adjacency[v]` the bitmask of `v`'s neighbours.
#[allow(clippy::too_many_arguments)]
fn search(
    sample: &SampleGraph,
    all: &[PatternNode],
    adjacency: &[u32],
    used: u32,
    pieces: &mut Vec<Piece>,
    isolated_so_far: usize,
    best: &mut Option<Vec<Piece>>,
    best_isolated: &mut usize,
) {
    if isolated_so_far >= *best_isolated {
        return; // cannot improve
    }
    // First uncovered node drives the branching; this avoids revisiting the
    // same partition in different piece orders.
    let next = all.iter().copied().find(|&v| used & (1 << v) == 0);
    let v = match next {
        None => {
            if isolated_so_far < *best_isolated {
                *best_isolated = isolated_so_far;
                *best = Some(pieces.clone());
            }
            return;
        }
        Some(v) => v,
    };

    // Option 1: cover v by an odd-cycle piece. Enumerate odd-size subsets
    // containing v whose induced subgraph has a Hamilton cycle. Such a cycle
    // gives each of its nodes two neighbours among the uncovered nodes, so
    // only those nodes are candidates (dropping the rest keeps the order in
    // which the surviving subsets are tried).
    let remaining: Vec<PatternNode> = all
        .iter()
        .copied()
        .filter(|&u| used & (1 << u) == 0 && u != v)
        .collect();
    let uncovered = remaining.iter().fold(1u32 << v, |bits, &u| bits | 1 << u);
    let cyclable = |u: PatternNode| (adjacency[u as usize] & uncovered).count_ones() >= 2;
    let candidates: Vec<PatternNode> = if cyclable(v) {
        remaining.iter().copied().filter(|&u| cyclable(u)).collect()
    } else {
        Vec::new()
    };
    let r = candidates.len();
    for mask in 0u32..(1 << r) {
        let subset_size = mask.count_ones() as usize + 1;
        if subset_size < 3 || subset_size.is_multiple_of(2) {
            continue;
        }
        if isolated_so_far >= *best_isolated {
            return; // a deeper call found a decomposition this one cannot beat
        }
        let mut subset = vec![v];
        for (i, &u) in candidates.iter().enumerate() {
            if mask & (1 << i) != 0 {
                subset.push(u);
            }
        }
        // And two neighbours inside the subset itself.
        let bits = subset.iter().fold(0u32, |bits, &u| bits | 1 << u);
        if (subset.iter()).any(|&u| (adjacency[u as usize] & bits).count_ones() < 2) {
            continue;
        }
        let (induced, map) = sample.induced_subgraph(&subset);
        if let Some(cycle) = induced.find_hamilton_cycle() {
            let cycle_nodes: Vec<PatternNode> = cycle.iter().map(|&i| map[i as usize]).collect();
            let mut new_used = used;
            for &u in &subset {
                new_used |= 1 << u;
            }
            pieces.push(Piece::OddCycle(cycle_nodes));
            search(
                sample,
                all,
                adjacency,
                new_used,
                pieces,
                isolated_so_far,
                best,
                best_isolated,
            );
            pieces.pop();
        }
    }

    // Option 2: cover v by an edge to a later uncovered neighbour.
    for &u in &remaining {
        if sample.has_edge(v, u) {
            pieces.push(Piece::Edge(v, u));
            search(
                sample,
                all,
                adjacency,
                used | (1 << v) | (1 << u),
                pieces,
                isolated_so_far,
                best,
                best_isolated,
            );
            pieces.pop();
        }
    }

    // Option 3: leave v isolated.
    pieces.push(Piece::IsolatedNode(v));
    search(
        sample,
        all,
        adjacency,
        used | (1 << v),
        pieces,
        isolated_so_far + 1,
        best,
        best_isolated,
    );
    pieces.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn isolated_count(d: &Decomposition) -> usize {
        d.alpha
    }

    #[test]
    fn triangle_is_a_single_odd_cycle() {
        let d = decompose(&catalog::triangle());
        assert_eq!(isolated_count(&d), 0);
        assert_eq!(d.beta(), 1.5);
        assert!(d.is_convertible(3));
        assert!(matches!(d.pieces.as_slice(), [Piece::OddCycle(c)] if c.len() == 3));
    }

    #[test]
    fn square_decomposes_into_two_edges() {
        let d = decompose(&catalog::square());
        assert_eq!(isolated_count(&d), 0);
        assert_eq!(d.beta(), 2.0);
        assert_eq!(
            d.pieces
                .iter()
                .filter(|piece| matches!(piece, Piece::Edge(_, _)))
                .count(),
            2
        );
    }

    #[test]
    fn lollipop_decomposes_without_isolated_nodes() {
        // Lollipop = triangle {X,Y,Z} + pendant W attached to X. W pairs with X
        // via the edge (W,X) and {Y,Z} is an edge, or the triangle is kept and
        // W is isolated; the optimum has q = 0 using two edges.
        let d = decompose(&catalog::lollipop());
        assert_eq!(isolated_count(&d), 0);
        assert_eq!(d.beta(), 2.0);
    }

    #[test]
    fn pentagon_is_one_odd_cycle() {
        let d = decompose(&catalog::cycle(5));
        assert_eq!(isolated_count(&d), 0);
        assert_eq!(d.beta(), 2.5);
        assert!(matches!(d.pieces.as_slice(), [Piece::OddCycle(c)] if c.len() == 5));
    }

    #[test]
    fn even_cycle_uses_edges() {
        let d = decompose(&catalog::cycle(6));
        assert_eq!(isolated_count(&d), 0);
        assert_eq!(d.beta(), 3.0);
    }

    #[test]
    fn star_forces_isolated_nodes() {
        // A 4-node star (centre + 3 leaves) can cover the centre with one leaf
        // by an edge, but the other two leaves are non-adjacent, so q = 2.
        let d = decompose(&catalog::star(4));
        assert_eq!(isolated_count(&d), 2);
        assert!(d.is_convertible(4));
    }

    #[test]
    fn k4_decomposes_into_triangle_plus_isolated_or_two_edges() {
        let d = decompose(&catalog::k4());
        assert_eq!(isolated_count(&d), 0);
        assert_eq!(d.beta(), 2.0);
    }

    #[test]
    fn single_edge_pattern() {
        let edge = SampleGraph::from_edges(2, &[(0, 1)]);
        let d = decompose(&edge);
        assert_eq!(d.alpha, 0);
        assert_eq!(d.beta(), 1.0);
        assert_eq!(d.pieces, vec![Piece::Edge(0, 1)]);
    }

    #[test]
    fn pieces_cover_every_node_exactly_once() {
        for sample in [
            catalog::triangle(),
            catalog::square(),
            catalog::lollipop(),
            catalog::cycle(7),
            catalog::star(5),
            catalog::bowtie_bridge(),
            catalog::pentagon_with_chord(),
        ] {
            let d = decompose(&sample);
            let mut covered: Vec<PatternNode> =
                d.pieces.iter().flat_map(|piece| piece.nodes()).collect();
            covered.sort_unstable();
            let expected: Vec<PatternNode> = sample.nodes().collect();
            assert_eq!(covered, expected, "pattern {sample:?}");
            assert!(d.is_convertible(sample.num_nodes()));
        }
    }

    #[test]
    fn bowtie_bridge_has_no_isolated_nodes() {
        // Two triangles joined by a bridge: decompose into the two triangles.
        let d = decompose(&catalog::bowtie_bridge());
        assert_eq!(d.alpha, 0);
        assert_eq!(d.beta(), 3.0);
        assert_eq!(
            d.pieces
                .iter()
                .filter(|piece| matches!(piece, Piece::OddCycle(_)))
                .count(),
            2
        );
    }

    use crate::sample::SampleGraph;
}
