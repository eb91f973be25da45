//! Property-style tests for CQ generation and evaluation, exercised over
//! deterministic seeded sweeps of catalog patterns and random data graphs.

use crate::cycles::{cycle_cqs, orientation_representatives, valid_orientations};
use crate::eval::{evaluate_cq_group, evaluate_cqs, EvalOutcome};
use crate::generate::cqs_for_sample;
use crate::orientation::merge_by_orientation;
use subgraph_graph::{generators, BucketThenIdOrder, IdOrder};
use subgraph_pattern::catalog;
use subgraph_pattern::SampleGraph;

fn small_patterns() -> Vec<SampleGraph> {
    vec![
        catalog::triangle(),
        catalog::square(),
        catalog::lollipop(),
        catalog::cycle(5),
        catalog::star(4),
        catalog::path(4),
        catalog::k4(),
    ]
}

/// The central invariant of the paper: for any sample graph the CQ collection
/// of Theorem 3.1 finds each instance exactly once, under any total order of
/// the data-graph nodes.
#[test]
fn general_method_never_duplicates() {
    for (case, sample) in small_patterns().into_iter().enumerate() {
        for round in 0..2usize {
            let n = 10 + 2 * case + 5 * round;
            let m = (n * (n - 1) / 2) / 2;
            let g = generators::gnm(n, m, 500 + (case * 2 + round) as u64);
            let buckets = 1 + (case + round) % 5;
            let cqs = cqs_for_sample(&sample);
            let by_id = evaluate_cqs(&cqs, &g, &IdOrder);
            assert_eq!(by_id.duplicates(), 0, "case {case} round {round}");
            let by_bucket = evaluate_cqs(&cqs, &g, &BucketThenIdOrder::new(buckets));
            assert_eq!(by_bucket.duplicates(), 0, "case {case} round {round}");
            // The node order never changes which instances exist.
            assert_eq!(
                by_id.assignments, by_bucket.assignments,
                "case {case} round {round}"
            );
        }
    }
}

/// Orientation-merged groups find exactly the same instances as the unmerged
/// CQ collection.
#[test]
fn orientation_merge_preserves_results() {
    for (case, sample) in small_patterns().into_iter().enumerate() {
        let n = 10 + 2 * case;
        let m = (n * (n - 1) / 2) / 3;
        let g = generators::gnm(n, m, 600 + case as u64);
        let cqs = cqs_for_sample(&sample);
        let plain = evaluate_cqs(&cqs, &g, &IdOrder);
        let mut merged = EvalOutcome::default();
        for group in merge_by_orientation(&cqs) {
            merged.absorb(evaluate_cq_group(&group, &g, &IdOrder));
        }
        assert_eq!(plain.assignments, merged.assignments, "case {case}");
        assert_eq!(merged.duplicates(), 0, "case {case}");
    }
}

/// The run-sequence CQs for cycles agree with the general method and never
/// duplicate (Theorem 5.1).
#[test]
fn cycle_method_agrees_with_general_method() {
    for p in 3usize..7 {
        for round in 0..2usize {
            let n = 10 + 2 * p + 3 * round;
            let m = (n * (n - 1) / 2) / 2;
            let g = generators::gnm(n, m, 700 + (p * 2 + round) as u64);
            let via_runs: Vec<_> = cycle_cqs(p).into_iter().map(|c| c.query).collect();
            let runs_outcome = evaluate_cqs(&via_runs, &g, &IdOrder);
            let general_outcome = evaluate_cqs(&cqs_for_sample(&catalog::cycle(p)), &g, &IdOrder);
            assert_eq!(runs_outcome.duplicates(), 0, "p={p} round={round}");
            assert_eq!(general_outcome.duplicates(), 0, "p={p} round={round}");
            assert_eq!(
                runs_outcome.assignments, general_outcome.assignments,
                "p={p} round={round}"
            );
        }
    }
}

/// Every valid orientation string is equivalent to exactly one representative.
#[test]
fn orientation_classes_cover_all_valid_strings() {
    for p in 3usize..9 {
        let reps = orientation_representatives(p);
        let all = valid_orientations(p);
        // Each representative is itself a valid string, and representatives
        // are distinct.
        let mut sorted = reps.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), reps.len(), "p={p}");
        for r in &reps {
            assert!(all.contains(r), "p={p}");
        }
        // No valid string is missed: the count of classes is at most the
        // count of strings and at least strings / (2p).
        assert!(reps.len() * 2 * p >= all.len(), "p={p}");
        assert!(reps.len() <= all.len(), "p={p}");
    }
}
