//! Synthetic data-graph generators for the graph families the paper analyses.
//!
//! The paper's cost analysis assumes random edge placement (Sections 2 and 6),
//! social-network-like skew (Section 1.1), degree caps of `√m` (Section 7.3),
//! and specific worst-case families such as Δ-regular trees (end of Section
//! 7.3). These generators produce all of them deterministically from a seed so
//! every table `reproduce` prints (`docs/REPRODUCTION.txt`) is reproducible.

use crate::builder::GraphBuilder;
use crate::graph::{DataGraph, NodeId};
use crate::rng::Rng;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Uniformly random graph with exactly `m` distinct edges over `n` nodes
/// (the Erdős–Rényi `G(n, m)` model).
///
/// # Panics
/// Panics if `m` exceeds the number of node pairs `n(n-1)/2`.
pub fn gnm(n: usize, m: usize, seed: u64) -> DataGraph {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_edges,
        "requested {m} edges but only {max_edges} pairs exist"
    );
    let mut rng = Rng::seed_from_u64(seed);
    // Which pairs are chosen depends only on the RNG stream and the builder
    // sorts them, so the set's hash function does not move the graph.
    let mut chosen =
        HashSet::with_capacity_and_hasher(m, BuildHasherDefault::<PairHasher>::default());
    while chosen.len() < m {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u == v {
            continue;
        }
        chosen.insert(u64::from(u.min(v)) << 32 | u64::from(u.max(v)));
    }
    let mut b = GraphBuilder::new(n);
    b.add_edges(
        chosen
            .into_iter()
            .map(|key| ((key >> 32) as NodeId, key as NodeId)),
    );
    b.build()
}

/// A multiplicative hash of one `u64` node pair for [`gnm`]'s dedup set:
/// the product's high half is folded into the low half, which the table
/// indexes by.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("PairHasher hashes u64 keys only")
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Random graph where each of the `n(n-1)/2` edges is present independently
/// with probability `p` (the `G(n, p)` model).
pub fn gnp(n: usize, p: f64, seed: u64) -> DataGraph {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(u as NodeId, v as NodeId);
            }
        }
    }
    b.build()
}

/// Sparse-friendly `G(n, p)`: the same edge distribution as [`gnp`] — every
/// pair present independently with probability `p` — but sampled with the
/// geometric gap-skipping of Batagelj–Brandes in expected `O(n + m)` time
/// instead of `O(n²)` trials, so million-edge random graphs generate in
/// well under a second. (Not bitwise-identical to [`gnp`] at the same seed:
/// the RNG is consumed once per *edge*, not once per pair.)
pub fn gnp_sparse(n: usize, p: f64, seed: u64) -> DataGraph {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut b = GraphBuilder::new(n);
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u as NodeId, v as NodeId);
            }
        }
        return b.build();
    }
    if p > 0.0 && n >= 2 {
        let mut rng = Rng::seed_from_u64(seed);
        let ln_q = (1.0 - p).ln();
        // Walk the pairs (w, v) with w < v row by row, jumping a
        // Geometric(p)-distributed gap between successive edges.
        let (mut v, mut w) = (1usize, usize::MAX); // w = -1 before the first draw
        while v < n {
            // gap ∈ {0, 1, ...}: how many non-edges precede the next edge.
            let r = rng.gen_f64();
            let gap = if ln_q == 0.0 {
                usize::MAX
            } else {
                let g = ((1.0 - r).ln() / ln_q).floor();
                if g >= usize::MAX as f64 {
                    usize::MAX
                } else {
                    g as usize
                }
            };
            w = w.wrapping_add(1).saturating_add(gap);
            while w >= v && v < n {
                w -= v;
                v += 1;
            }
            if v < n {
                b.add_edge(w as NodeId, v as NodeId);
            }
        }
    }
    b.build()
}

/// Chung–Lu power-law graph: node `v` has expected degree proportional to
/// `(v + 1)^{-1/(gamma - 1)}` scaled so the expected edge count is about `m`.
/// This is the stand-in for the skewed social networks motivating Section 1.1.
///
/// Every pair `(u, v)`, `u < v`, is an edge independently with probability
/// `q(u, v) = min(w_u·w_v / s, 1)`. The weights fall with the node id, so
/// `q` falls along row `u`, and the row is sampled by the skipping of Miller
/// and Hagberg (*Efficient generation of networks with given expected
/// degrees*, WAW 2011): with `p` the `q` of the last pair looked at, jump a
/// Geometric(`p`) gap as [`gnp_sparse`] does, accept the pair landed on with
/// probability `q / p`, and carry its `q` on as the next `p`. The row stops
/// when `p` reaches 0 or the jump runs past the last node. That takes
/// expected `O(n + m)` draws instead of one per pair. (Not bitwise-identical
/// to the per-pair trials of earlier versions at the same seed: the
/// distribution is the same, the realization is not.)
pub fn power_law(n: usize, m: usize, gamma: f64, seed: u64) -> DataGraph {
    let (w, s) = chung_lu_weights(n, m, gamma);
    debug_assert!(
        w.windows(2).all(|pair| pair[0] >= pair[1]),
        "skip sampling needs weights that do not grow with the node id"
    );
    let mut b = GraphBuilder::new(n);
    if s <= 0.0 {
        // m = 0: no edge is expected, and every w_u·w_v / s would be 0 / 0.
        return b.build();
    }
    let q = |u: usize, v: usize| (w[u] * w[v] / s).min(1.0);
    let mut rng = Rng::seed_from_u64(seed);
    for u in 0..n.saturating_sub(1) {
        let mut v = u + 1;
        let mut p = q(u, v);
        while v < n && p > 0.0 {
            if p < 1.0 {
                // Geometric(p) pairs skipped: every pair ahead has q <= p.
                let gap = ((-rng.gen_f64()).ln_1p() / (-p).ln_1p()).floor();
                if gap >= (n - v) as f64 {
                    break;
                }
                v += gap as usize;
            }
            let here = q(u, v);
            if rng.gen_f64() < here / p {
                b.add_edge(u as NodeId, v as NodeId);
            }
            p = here;
            v += 1;
        }
    }
    b.build()
}

/// The Chung–Lu weights of [`power_law`] and their sum `s`.
fn chung_lu_weights(n: usize, m: usize, gamma: f64) -> (Vec<f64>, f64) {
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    let exponent = -1.0 / (gamma - 1.0);
    let weights: Vec<f64> = (0..n).map(|v| ((v + 1) as f64).powf(exponent)).collect();
    let total: f64 = weights.iter().sum();
    // Under Chung–Lu the expected degree of v is w_v and the expected edge
    // count is (Σw)/2, so rescale the weights to make Σw = 2m.
    let scale = 2.0 * m as f64 / total;
    let w: Vec<f64> = weights.iter().map(|x| x * scale).collect();
    let s = w.iter().sum();
    (w, s)
}

/// The cycle `C_n` over nodes `0..n` (`n >= 3`).
pub fn cycle(n: usize) -> DataGraph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v as NodeId, ((v + 1) % n) as NodeId);
    }
    b.build()
}

/// The path `P_n` with `n` nodes and `n - 1` edges.
pub fn path(n: usize) -> DataGraph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge((v - 1) as NodeId, v as NodeId);
    }
    b.build()
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> DataGraph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    b.build()
}

/// A star with centre node `0` and `n - 1` leaves.
pub fn star(n: usize) -> DataGraph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(0, v as NodeId);
    }
    b.build()
}

/// A `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> DataGraph {
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    b.build()
}

/// A complete Δ-regular tree with `levels` levels below the root: the root has
/// Δ children, every internal node has Δ−1 children, and every non-leaf node
/// therefore has degree Δ. This is the worst case for `p`-star counting used
/// at the end of Section 7.3 (Θ(mΔ^{p-2}) instances of a `p`-node star).
pub fn regular_tree(delta: usize, levels: usize) -> DataGraph {
    assert!(delta >= 2, "a regular tree needs Δ ≥ 2");
    let mut b = GraphBuilder::new(1);
    let mut frontier = vec![0 as NodeId];
    let mut next_id: NodeId = 1;
    for level in 0..levels {
        let children_per_node = if level == 0 { delta } else { delta - 1 };
        let mut next_frontier = Vec::new();
        for &parent in &frontier {
            for _ in 0..children_per_node {
                b.add_edge(parent, next_id);
                next_frontier.push(next_id);
                next_id += 1;
            }
        }
        frontier = next_frontier;
    }
    b.build()
}

/// Random graph over `n` nodes where every node's degree is capped at
/// `max_degree`; about `m` edges are attempted. Used for the bounded-degree
/// regime of Theorem 7.3 (e.g. `max_degree = ⌊√m⌋`).
pub fn bounded_degree(n: usize, m: usize, max_degree: usize, seed: u64) -> DataGraph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut degree = vec![0usize; n];
    let mut chosen = std::collections::HashSet::new();
    let mut attempts = 0usize;
    let max_attempts = m.saturating_mul(20).max(1000);
    while chosen.len() < m && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || degree[u] >= max_degree || degree[v] >= max_degree {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            degree[u] += 1;
            degree[v] += 1;
        }
    }
    let mut b = GraphBuilder::new(n);
    b.add_edges(chosen.into_iter().map(|(u, v)| (u as NodeId, v as NodeId)));
    b.build()
}

/// A disjoint union of `count` triangles — handy in tests because the exact
/// number of triangles, squares, etc. is known by construction.
pub fn disjoint_triangles(count: usize) -> DataGraph {
    let mut b = GraphBuilder::new(3 * count);
    for t in 0..count {
        let base = (3 * t) as NodeId;
        b.add_edge(base, base + 1);
        b.add_edge(base + 1, base + 2);
        b.add_edge(base, base + 2);
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}` (nodes `0..a` on one side and
/// `a..a+b` on the other). `K_{2,2}` is a 4-cycle; `K_{a,b}` contains exactly
/// `C(a,2)·C(b,2)` squares, a useful closed form for tests.
pub fn complete_bipartite(a: usize, b: usize) -> DataGraph {
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in 0..b {
            builder.add_edge(u as NodeId, (a + v) as NodeId);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_has_exact_edge_count() {
        let g = gnm(50, 200, 7);
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn gnm_is_deterministic_per_seed() {
        let a = gnm(30, 60, 42);
        let b = gnm(30, 60, 42);
        assert_eq!(a.edges(), b.edges());
        let c = gnm(30, 60, 43);
        assert_ne!(a.edges(), c.edges());
    }

    /// An order-sensitive FNV-style fold of a graph's sorted edge list.
    fn edge_fingerprint(g: &DataGraph) -> u64 {
        g.edges().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, e| {
            let (u, v) = e.endpoints();
            (h ^ (u64::from(u) << 32 | u64::from(v))).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn gnm_edges_are_pinned_per_seed() {
        // The edge sets depend only on the RNG stream: the dedup set's hash
        // function must not move them.
        for (n, m, seed, fingerprint) in [
            (50, 200, 7, 810_019_767_293_179_827),
            (1_000, 5_000, 3, 1_869_517_844_508_089_063),
            (20_000, 80_000, 5, 1_485_914_412_666_153_683),
        ] {
            let g = gnm(n, m, seed);
            assert_eq!(g.num_edges(), m);
            assert_eq!(edge_fingerprint(&g), fingerprint, "gnm:{n},{m},{seed}");
        }
    }

    #[test]
    #[should_panic]
    fn gnm_rejects_too_many_edges() {
        let _ = gnm(4, 10, 0);
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp(10, 1.0, 1).num_edges(), 45);
    }

    #[test]
    fn cycle_path_complete_counts() {
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(complete(6).num_edges(), 15);
        assert_eq!(star(7).num_edges(), 6);
    }

    #[test]
    fn grid_edge_count() {
        // rows*(cols-1) + cols*(rows-1)
        let g = grid(3, 4);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 4 * 2);
    }

    #[test]
    fn regular_tree_degrees() {
        let g = regular_tree(4, 3);
        // Every non-leaf has degree 4; leaves degree 1.
        let internal = g.nodes().filter(|&v| g.degree(v) > 1).count();
        assert!(internal > 0);
        for v in g.nodes() {
            let d = g.degree(v);
            assert!(d == 1 || d == 4, "node {v} has degree {d}");
        }
    }

    #[test]
    fn bounded_degree_respects_cap() {
        let g = bounded_degree(200, 500, 6, 11);
        assert!(g.max_degree() <= 6);
    }

    /// Every pair's edge probability `min(1, w_u·w_v / s)` under [`power_law`].
    fn pair_probabilities(n: usize, m: usize, gamma: f64) -> Vec<(usize, usize, f64)> {
        let (w, s) = chung_lu_weights(n, m, gamma);
        (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .map(|(u, v)| (u, v, (w[u] * w[v] / s).min(1.0)))
            .collect()
    }

    #[test]
    fn power_law_draws_every_pair_with_its_chung_lu_probability() {
        const SEEDS: u64 = 10_000;
        let (mut pairs_at_one, mut pairs_at_zero) = (0, 0);
        for (n, m, gamma) in [(50, 100, 1.01), (10, 20, 1.2), (12, 30, 2.2), (12, 30, 2.5)] {
            let probabilities = pair_probabilities(n, m, gamma);
            pairs_at_one += probabilities.iter().filter(|&&(.., p)| p >= 1.0).count();
            pairs_at_zero += probabilities.iter().filter(|&&(.., p)| p == 0.0).count();
            let mut seen = vec![vec![0u64; n]; n];
            for seed in 0..SEEDS {
                for e in power_law(n, m, gamma, seed).edges() {
                    let (u, v) = e.endpoints();
                    seen[u as usize][v as usize] += 1;
                }
            }
            for (u, v, p) in probabilities {
                let count = seen[u][v];
                if p >= 1.0 {
                    assert_eq!(
                        count, SEEDS,
                        "gamma {gamma}: hub pair ({u}, {v}) is always drawn"
                    );
                    continue;
                }
                // 5σ of the binomial count, plus one count of slack so the
                // rarest pairs (T·p far below 1) may be drawn once.
                let expected = SEEDS as f64 * p;
                let sigma = (expected * (1.0 - p)).sqrt();
                assert!(
                    (count as f64 - expected).abs() <= 5.0 * sigma + 1.0,
                    "gamma {gamma}: pair ({u}, {v}) drawn {count} times in {SEEDS}, expected {expected:.1}"
                );
            }
        }
        assert!(pairs_at_one > 0, "the sweep reaches hub pairs with p >= 1");
        assert!(pairs_at_zero > 0, "the sweep reaches pairs with p == 0");
    }

    #[test]
    fn power_law_edge_count_has_the_chung_lu_mean_and_variance() {
        const SEEDS: u64 = 200;
        for (n, m, gamma) in [(300, 900, 1.2), (2_000, 6_000, 2.2), (1_000, 3_000, 2.5)] {
            let probabilities = pair_probabilities(n, m, gamma);
            let mean: f64 = probabilities.iter().map(|&(.., p)| p).sum();
            let variance: f64 = probabilities.iter().map(|&(.., p)| p * (1.0 - p)).sum();
            let counts: Vec<f64> = (0..SEEDS)
                .map(|seed| power_law(n, m, gamma, seed).num_edges() as f64)
                .collect();
            let sample_mean = counts.iter().sum::<f64>() / SEEDS as f64;
            let sample_variance = counts
                .iter()
                .map(|c| (c - sample_mean).powi(2))
                .sum::<f64>()
                / (SEEDS - 1) as f64;
            // The sample mean lies within 5σ of Σp; the sample variance of
            // independent pairs within a factor 1.5 of Σp(1 − p).
            assert!(
                (sample_mean - mean).abs() <= 5.0 * (variance / SEEDS as f64).sqrt(),
                "gamma {gamma}: mean {sample_mean} edges, expected {mean}"
            );
            assert!(
                (sample_variance / variance - 1.0).abs() < 0.5,
                "gamma {gamma}: variance {sample_variance}, expected {variance}"
            );
        }
    }

    #[test]
    fn power_law_is_deterministic_per_seed() {
        for (n, m, gamma) in [
            (1, 0, 2.5),
            (2, 1, 2.5),
            (1_500, 3_000, 1.01),
            (2_000, 6_000, 2.2),
        ] {
            let a = power_law(n, m, gamma, 7);
            assert_eq!(a.num_nodes(), n);
            assert_eq!(a.edges(), power_law(n, m, gamma, 7).edges());
        }
        assert_ne!(
            power_law(500, 1_500, 2.5, 1).edges(),
            power_law(500, 1_500, 2.5, 2).edges()
        );
        // No expected edges, none drawn.
        assert_eq!(power_law(10, 0, 2.5, 3).num_edges(), 0);
    }

    #[test]
    fn power_law_is_skewed() {
        let g = power_law(300, 900, 2.5, 3);
        assert!(g.num_edges() > 100);
        // The max degree should be well above the average degree.
        let avg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(g.max_degree() as f64 > 2.0 * avg);
    }

    #[test]
    fn gnp_sparse_matches_the_gnp_distribution() {
        // Degenerate probabilities.
        assert_eq!(gnp_sparse(50, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp_sparse(8, 1.0, 1).num_edges(), 28);
        // The expected edge count is C(n, 2) p; check a 5-sigma band.
        let (n, p) = (400usize, 0.05);
        let pairs = (n * (n - 1) / 2) as f64;
        let expected = pairs * p;
        let sigma = (pairs * p * (1.0 - p)).sqrt();
        for seed in 0..3u64 {
            let g = gnp_sparse(n, p, seed);
            let m = g.num_edges() as f64;
            assert!(
                (m - expected).abs() < 5.0 * sigma,
                "seed {seed}: {m} edges vs expected {expected}"
            );
        }
        // Large sparse graphs generate quickly and land near the mean.
        let big = gnp_sparse(200_000, 0.0001, 7);
        let big_pairs = 200_000f64 * 199_999.0 / 2.0;
        let big_expected = big_pairs * 0.0001;
        assert!((big.num_edges() as f64 - big_expected).abs() < big_expected * 0.02);
    }

    #[test]
    fn disjoint_triangles_structure() {
        let g = disjoint_triangles(4);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 12);
        assert!(g.has_edge(3, 5));
        assert!(!g.has_edge(2, 3));
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 12);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
    }
}
