//! Property-style tests for sample graphs and their group theory, exercised
//! over deterministic seeded sweeps of random sample graphs.

use crate::automorphism::{
    all_permutations, apply_to_ordering, automorphism_group, order_representatives,
};
use crate::decompose::decompose;
use crate::sample::{PatternNode, SampleGraph};
use std::collections::HashSet;
use subgraph_graph::rng::Rng;

/// Random sample graph with `3..=6` nodes: every node pair flips a coin.
fn arbitrary_sample(seed: u64) -> SampleGraph {
    let mut rng = Rng::seed_from_u64(seed);
    let p = rng.gen_range(3..7);
    let mut sample = SampleGraph::empty(p);
    for u in 0..p as PatternNode {
        for v in (u + 1)..p as PatternNode {
            if rng.gen_bool(0.5) {
                sample.add_edge(u, v);
            }
        }
    }
    sample
}

#[test]
fn automorphism_group_divides_factorial() {
    for seed in 0..64 {
        let sample = arbitrary_sample(seed);
        let p = sample.num_nodes();
        let factorial: usize = (1..=p).product();
        let autos = automorphism_group(&sample);
        // Lagrange: the group order divides |S_p|.
        assert_eq!(factorial % autos.len(), 0, "seed {seed} {sample:?}");
    }
}

#[test]
fn representatives_partition_all_orderings() {
    for seed in 64..128 {
        let sample = arbitrary_sample(seed);
        let p = sample.num_nodes();
        let factorial: usize = (1..=p).product();
        let autos = automorphism_group(&sample);
        let reps = order_representatives(&sample);
        assert_eq!(reps.len() * autos.len(), factorial, "seed {seed}");
        let mut covered = HashSet::new();
        for rep in &reps {
            for mu in autos.elements() {
                assert!(
                    covered.insert(apply_to_ordering(&mu, rep)),
                    "seed {seed}: ordering covered twice"
                );
            }
        }
        assert_eq!(covered.len(), factorial, "seed {seed}");
    }
}

#[test]
fn decomposition_covers_nodes_and_is_convertible() {
    for seed in 128..192 {
        let sample = arbitrary_sample(seed);
        let d = decompose(&sample);
        let mut covered: Vec<PatternNode> =
            d.pieces.iter().flat_map(|piece| piece.nodes()).collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered.len(), sample.num_nodes(), "seed {seed}");
        assert_eq!(
            d.alpha + d.beta_times_two,
            sample.num_nodes(),
            "seed {seed}"
        );
        assert!(d.is_convertible(sample.num_nodes()), "seed {seed}");
    }
}

#[test]
fn all_permutations_are_bijections() {
    for p in 1usize..6 {
        for perm in all_permutations(p) {
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            let expected: Vec<PatternNode> = (0..p as PatternNode).collect();
            assert_eq!(sorted, expected);
        }
    }
}
