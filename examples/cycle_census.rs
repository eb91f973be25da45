//! Cycle census — counts cycles C3..C7 of a random graph, comparing the
//! general CQ method (Theorem 3.1), the run-sequence CQs of Section 5, the
//! OddCycle algorithm (Algorithm 1) for the odd lengths, and the strategy the
//! planner picks for a one-round map-reduce run on 64 reducers.
//!
//! ```text
//! cargo run --release --example cycle_census
//! ```

use subgraph_mr::cq::{cqs_for_sample, cycle_cqs, evaluate_cqs};
use subgraph_mr::graph::IdOrder;
use subgraph_mr::prelude::*;

fn main() {
    // Cycle counts explode with the average degree (the C7 census alone is
    // |C7| ≈ (2m/n)^7 / 14), so the graph is kept small enough that every
    // route below finishes in seconds.
    let graph = generators::gnm(40, 170, 2024);
    println!(
        "data graph: {} nodes, {} edges\n",
        graph.num_nodes(),
        graph.num_edges()
    );

    println!(
        "{:>3} {:>12} {:>12} {:>14} {:>14} {:>12} {:>14}",
        "p", "general CQs", "cycle CQs", "count(general)", "count(runs)", "OddCycle", "planned"
    );
    for p in 3..=7usize {
        let pattern = catalog::cycle(p);
        let general = cqs_for_sample(&pattern);
        let runs: Vec<_> = cycle_cqs(p).into_iter().map(|c| c.query).collect();

        let via_general = evaluate_cqs(&general, &graph, &IdOrder);
        let via_runs = evaluate_cqs(&runs, &graph, &IdOrder);
        assert_eq!(via_general.assignments, via_runs.assignments);
        assert_eq!(via_general.duplicates(), 0);
        assert_eq!(via_runs.duplicates(), 0);

        let odd = if p % 2 == 1 {
            enumerate_odd_cycles(&graph, (p - 1) / 2)
                .count()
                .to_string()
        } else {
            "-".to_string()
        };
        // Through the planner: one round of map-reduce on 64 reducers.
        let planned = EnumerationRequest::new(pattern.clone(), &graph)
            .reducers(64)
            .plan()
            .unwrap();
        let planned_run = planned.execute();
        assert_eq!(planned_run.count(), via_general.assignments);
        assert_eq!(planned_run.duplicates(), 0);
        println!(
            "{:>3} {:>12} {:>12} {:>14} {:>14} {:>12} {:>14}",
            p,
            general.len(),
            runs.len(),
            via_general.assignments,
            via_runs.assignments,
            odd,
            format!("{} ({})", planned_run.count(), planned.strategy()),
        );
    }

    println!(
        "\nThe run-sequence method of Section 5 needs far fewer conjunctive queries than the \
         general quotient-group method, while producing exactly the same cycles exactly once; \
         Algorithm 1 (OddCycle) confirms the odd-length counts by a completely different route."
    );

    // Show the pentagon's three queries (Example 5.3).
    println!("\nExample 5.3 — the three CQs for C5:");
    for cq in cycle_cqs(5) {
        println!(
            "  {:<8} runs {:?}: {}",
            cq.orientation,
            cq.run_lengths,
            cq.query.render()
        );
    }
}
