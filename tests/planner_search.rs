//! Differential suite for the planner's branch-and-bound order-class search
//! (`subgraph_core::plan::search`): on every catalog pattern and on seeded
//! random connected samples, branch-and-bound must pick the same ordering
//! class as the exhaustive score-everything oracle with bitwise-identical
//! cost numbers, and its counters must tile the Theorem 3.1 quotient:
//! `classes_scored + classes_pruned == p!/|Aut(S)|`.

use subgraph_mr::core::plan::{search_order_classes, SearchMode};
use subgraph_mr::cq::cq_for_ordering;
use subgraph_mr::pattern::automorphism::{automorphism_group, NodeOrdering};
use subgraph_mr::pattern::PatternNode;
use subgraph_mr::prelude::*;
use subgraph_mr::shares::dominance::single_cq_expression_with_dominance;
use subgraph_mr::shares::optimize_shares;

/// Deterministic xorshift-free LCG (same constants as the crate proptests).
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// `p!/|Aut(S)|` — the number of order classes both modes must account for.
fn quotient(sample: &SampleGraph) -> usize {
    let p = sample.num_nodes();
    (1..=p).product::<usize>() / automorphism_group(sample).len()
}

/// The true optimized cost of one ordering, solved directly — the bitwise
/// oracle for a single class.
fn direct_cost(sample: &SampleGraph, ordering: &NodeOrdering, k: f64) -> f64 {
    let expr = single_cq_expression_with_dominance(&cq_for_ordering(sample, ordering));
    optimize_shares(&expr, k).cost_per_edge
}

/// Full differential check: run both modes and pin the branch-and-bound
/// result to the exhaustive oracle bitwise.
fn assert_modes_agree(name: &str, sample: &SampleGraph, k: f64) {
    let bb = search_order_classes(sample, k, SearchMode::BranchAndBound);
    let ex = search_order_classes(sample, k, SearchMode::Exhaustive);
    assert_eq!(bb.winner, ex.winner, "{name} k={k}: winner ordering");
    assert_eq!(
        bb.winner_cost.to_bits(),
        ex.winner_cost.to_bits(),
        "{name} k={k}: winner cost"
    );
    // Every class costs the winner's, bitwise: the oracle's costliest class
    // is the branch-and-bound winner.
    assert_eq!(
        bb.max_class_cost.to_bits(),
        ex.max_class_cost.to_bits(),
        "{name} k={k}: costliest class"
    );
    assert_eq!(
        ex.max_class_cost.to_bits(),
        ex.winner_cost.to_bits(),
        "{name} k={k}: every class costs the same"
    );
    let total = quotient(sample);
    assert_eq!(bb.total_classes, total, "{name}: quotient size");
    assert_eq!(
        bb.classes_scored + bb.classes_pruned,
        total,
        "{name}: counters must tile the quotient"
    );
    assert_eq!(ex.classes_scored, total, "{name}: oracle scores everything");
    assert_eq!(ex.classes_pruned, 0, "{name}: oracle never prunes");
}

/// Structural checks plus a sampled bitwise oracle, for samples whose class
/// count makes the full exhaustive oracle too slow: solve a handful of random
/// orderings directly and pin them against the search's per-class costs.
fn assert_sampled_oracle(name: &str, sample: &SampleGraph, k: f64, rng: &mut Lcg) {
    let bb = search_order_classes(sample, k, SearchMode::BranchAndBound);
    let total = quotient(sample);
    assert_eq!(bb.total_classes, total, "{name}");
    assert_eq!(bb.classes_scored + bb.classes_pruned, total, "{name}");
    // The winner's cost must be reproducible by solving its CQ directly.
    assert_eq!(
        bb.winner_cost.to_bits(),
        direct_cost(sample, &bb.winner, k).to_bits(),
        "{name}: winner cost must match a direct solve"
    );
    // Single-CQ cost expressions are orientation-independent, so every class
    // — and any random ordering at all — costs bitwise the same as the
    // winner. Check a few random orderings against that claim.
    let p = sample.num_nodes();
    for trial in 0..4 {
        let mut ordering: NodeOrdering = (0..p as PatternNode).collect();
        for i in (1..p).rev() {
            ordering.swap(i, rng.below(i + 1));
        }
        assert_eq!(
            direct_cost(sample, &ordering, k).to_bits(),
            bb.winner_cost.to_bits(),
            "{name}: random ordering {trial} must cost the same as the winner"
        );
    }
    assert_eq!(
        bb.max_class_cost.to_bits(),
        bb.winner_cost.to_bits(),
        "{name}: costliest class"
    );
}

/// Class-count cap for running the full exhaustive oracle: the debug solver
/// is ~15x slower, so big quotients are exercised there through the sampled
/// oracle instead (release runs still cover them exhaustively).
fn exhaustive_cap() -> usize {
    if cfg!(debug_assertions) {
        120
    } else {
        840
    }
}

/// A random connected sample: a random spanning tree (each node attaches to
/// an earlier one) plus random extra edges.
fn random_connected_sample(rng: &mut Lcg, p: usize) -> SampleGraph {
    let mut edges: Vec<(PatternNode, PatternNode)> = Vec::new();
    for v in 1..p {
        let u = rng.below(v);
        edges.push((u as PatternNode, v as PatternNode));
    }
    let extra = rng.below(p);
    for _ in 0..extra {
        let a = rng.below(p);
        let b = rng.below(p);
        if a == b {
            continue;
        }
        let edge = (a.min(b) as PatternNode, a.max(b) as PatternNode);
        if !edges.contains(&edge) {
            edges.push(edge);
        }
    }
    edges.sort_unstable();
    let sample = SampleGraph::from_edges(p, &edges);
    assert!(sample.is_connected());
    sample
}

#[test]
fn catalog_patterns_agree_between_modes() {
    for entry in catalog::entries() {
        for k in [16.0, 750.0] {
            if entry.order_classes() <= exhaustive_cap() {
                assert_modes_agree(entry.name, &entry.sample, k);
            } else {
                let mut rng = Lcg(0x9e3779b97f4a7c15);
                assert_sampled_oracle(entry.name, &entry.sample, k, &mut rng);
            }
        }
    }
}

#[test]
fn random_connected_samples_agree_between_modes() {
    let mut rng = Lcg(0x2545f4914f6cdd1d);
    // Full differential on sizes where the quotient stays affordable; bigger
    // samples (up to 8 nodes, possibly trivial automorphism groups — 40320
    // classes) go through the sampled bitwise oracle.
    for trial in 0..12 {
        let p = 4 + rng.below(5); // 4..=8 nodes
        let sample = random_connected_sample(&mut rng, p);
        let name = format!("random-{trial}-p{p}");
        let k = if trial % 2 == 0 { 64.0 } else { 750.0 };
        if quotient(&sample) <= exhaustive_cap() {
            assert_modes_agree(&name, &sample, k);
        } else {
            assert_sampled_oracle(&name, &sample, k, &mut rng);
        }
    }
}

#[test]
fn planner_estimates_are_identical_across_search_modes() {
    // Through the full planner: both modes must produce the same chosen
    // strategy and the same estimate numbers for every candidate — the only
    // legitimate difference is how many classes were scored vs pruned.
    let graph = generators::gnm(500, 2500, 11);
    for entry in catalog::entries() {
        if cfg!(debug_assertions) && entry.order_classes() > exhaustive_cap() {
            continue;
        }
        let plan_with = |mode: SearchMode| {
            EnumerationRequest::new(entry.sample.clone(), &graph)
                .reducers(64)
                .search_mode(mode)
                .plan()
                .expect("plannable")
        };
        let bb = plan_with(SearchMode::BranchAndBound);
        let ex = plan_with(SearchMode::Exhaustive);
        assert_eq!(
            bb.chosen().strategy,
            ex.chosen().strategy,
            "{}: chosen strategy",
            entry.name
        );
        let pairs = bb.candidates().iter().zip(ex.candidates());
        for (a, b) in pairs {
            assert_eq!(a.strategy, b.strategy, "{}", entry.name);
            assert_eq!(a.paper_section, b.paper_section, "{}", entry.name);
            assert_eq!(a.rounds, b.rounds, "{}", entry.name);
            assert_eq!(a.buckets, b.buckets, "{}", entry.name);
            assert_eq!(a.shares, b.shares, "{}: shares", entry.name);
            assert_eq!(
                a.replication_per_edge.to_bits(),
                b.replication_per_edge.to_bits(),
                "{}: replication",
                entry.name
            );
            assert_eq!(
                a.communication.to_bits(),
                b.communication.to_bits(),
                "{}: communication",
                entry.name
            );
            assert_eq!(a.reducers.to_bits(), b.reducers.to_bits(), "{}", entry.name);
            assert_eq!(
                a.reducer_work.to_bits(),
                b.reducer_work.to_bits(),
                "{}: work",
                entry.name
            );
            assert_eq!(a.round_costs.len(), b.round_costs.len(), "{}", entry.name);
            for (ra, rb) in a.round_costs.iter().zip(&b.round_costs) {
                assert_eq!(ra.name, rb.name, "{}", entry.name);
                assert_eq!(ra.jobs, rb.jobs, "{}", entry.name);
                assert_eq!(ra.emitted.to_bits(), rb.emitted.to_bits(), "{}", entry.name);
                assert_eq!(
                    ra.shuffled.to_bits(),
                    rb.shuffled.to_bits(),
                    "{}",
                    entry.name
                );
                assert_eq!(
                    ra.shuffle_bytes.to_bits(),
                    rb.shuffle_bytes.to_bits(),
                    "{}",
                    entry.name
                );
            }
            // The counters are the one field allowed to differ; they must
            // still tile the same quotient when the strategy searched.
            assert_eq!(
                a.classes_scored + a.classes_pruned,
                b.classes_scored + b.classes_pruned,
                "{}: counter totals",
                entry.name
            );
        }
    }
}

#[test]
fn branch_and_bound_counters_tile_the_quotient_on_the_catalog() {
    for entry in catalog::entries() {
        let search = search_order_classes(&entry.sample, 64.0, SearchMode::BranchAndBound);
        assert_eq!(
            search.classes_scored + search.classes_pruned,
            entry.order_classes(),
            "{}",
            entry.name
        );
        // The tight single-CQ bound collapses the search to one solve.
        assert_eq!(search.classes_scored, 1, "{}", entry.name);
    }
}
