//! Social-network motif census — the application driving Section 1.1: the
//! frequency of small sample graphs (triangles, squares, lollipops, stars)
//! says something about the stage of evolution of a community.
//!
//! A skewed Chung–Lu graph stands in for the social network; each motif goes
//! through the cost-driven planner, which picks the cheapest single-round
//! strategy for the reducer budget, and the report shows the communication
//! the planner predicted next to what the engine actually shipped.
//!
//! ```text
//! cargo run --release --example social_motifs
//! ```

use subgraph_mr::prelude::*;

fn main() {
    // A 2 000-node power-law "community" with about 10 000 relationships.
    // (The exponent keeps the biggest hub near degree 200: star counting is
    // Θ(m·Δ^{p−2}), so a heavier tail makes the census itself astronomical.)
    let network = generators::power_law(2_000, 10_000, 3.0, 99);
    println!(
        "community graph: {} members, {} relationships, max degree {}",
        network.num_nodes(),
        network.num_edges(),
        network.max_degree()
    );

    let reducer_budget = 256;
    let motifs: Vec<(&str, &str)> = vec![
        ("triangle (closed triad)", "triangle"),
        ("square (4-cycle)", "square"),
        ("lollipop (triad + follower)", "lollipop"),
        ("star-4 (broadcast hub)", "star4"),
        ("path-4 (chain)", "path4"),
    ];

    println!(
        "\n{:<28} {:<24} {:>10} {:>14} {:>14} {:>10} {:>9}",
        "motif", "strategy", "instances", "kv predicted", "kv shipped", "reducers", "max load"
    );
    for (label, pattern) in motifs {
        let plan = EnumerationRequest::named(pattern, &network)
            .unwrap()
            .reducers(reducer_budget)
            .plan()
            .unwrap();
        // A census only needs counts: run in count-only mode, so the
        // instances stream through a CountSink and no per-instance storage
        // exists — this is how the same code counts motifs on graphs whose
        // instance sets exceed memory.
        let run = plan.count();
        assert!(run.is_streamed());
        let metrics = run.metrics.as_ref().expect("map-reduce strategy");
        println!(
            "{:<28} {:<24} {:>10} {:>14} {:>14} {:>10} {:>9}",
            label,
            plan.strategy().to_string(),
            run.count(),
            format!("{:.0}", plan.predicted_communication()),
            metrics.key_value_pairs,
            metrics.reducers_used,
            metrics.max_reducer_input
        );
    }

    println!(
        "\nEach motif was planned for a budget of {reducer_budget} reducers: the planner \
         compared variable-oriented and bucket-oriented processing (Section 4) on predicted \
         communication and ran the winner in one round — in count-only mode, \
         streaming every instance through a CountSink instead of materializing a Vec."
    );
}
