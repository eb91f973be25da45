//! Quickstart: plan and run triangle and "lollipop" enumeration over a random
//! data graph with the cost-driven planner, and check the results against the
//! serial oracle.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use subgraph_mr::prelude::*;

fn main() {
    // 1. A data graph: 2 000 nodes, 20 000 random edges.
    let data_graph = generators::gnm(2_000, 20_000, 7);
    println!(
        "data graph: {} nodes, {} edges, max degree {}",
        data_graph.num_nodes(),
        data_graph.num_edges(),
        data_graph.max_degree()
    );

    // 2. Triangles: the planner compares bucket-oriented processing (on the
    //    triangle, Section 2.3's bucket-ordered join), variable-oriented
    //    processing and the two-round cascade, then runs the cheapest.
    //    Partition and the plain multiway join ship more at every budget
    //    (Section 2), so they are functions, not candidates.
    let plan = EnumerationRequest::named("triangle", &data_graph)
        .unwrap()
        .reducers(220)
        .plan()
        .unwrap();
    println!("\n{}", plan.explain());
    let triangles = plan.execute();
    println!(
        "[triangles]   strategy {}   found {:6}   kv pairs shipped {:8}   reducers used {}",
        triangles.strategy,
        triangles.count(),
        triangles.communication(),
        triangles.metrics.as_ref().map_or(0, |m| m.reducers_used),
    );
    let serial = enumerate_triangles_serial(&data_graph);
    assert_eq!(triangles.count(), serial.count());
    assert_eq!(triangles.duplicates(), 0);
    // Work in one unit, edges read + join candidates tried: the same
    // strategy at one reducer (b = 1) is the join over every edge.
    let request = EnumerationRequest::named("triangle", &data_graph).unwrap();
    let one_reducer = request.reducers(1).strategy(triangles.strategy).plan();
    let one_reducer = one_reducer.unwrap().execute();
    assert_eq!(one_reducer.count(), serial.count());
    println!(
        "              serial O(m^1.5) baseline agrees: {} triangles; reducer work {} vs {} \
         at one reducer (edges read + join candidates tried)",
        serial.count(),
        triangles.work,
        one_reducer.work
    );

    // 3. An arbitrary sample graph: the lollipop of Figure 4. The planner
    //    weighs variable-oriented (Section 4.3) and bucket-oriented
    //    (Section 4.5) processing by predicted communication; CQ-oriented
    //    processing (Section 4.1) never wins (Theorem 4.4), so it is no
    //    candidate.
    let plan = EnumerationRequest::named("lollipop", &data_graph)
        .unwrap()
        .reducers(750)
        .plan()
        .unwrap();
    println!("\n{}", plan.explain());
    let run = plan.execute();
    println!(
        "[lollipops]   strategy {}   found {:6}   kv pairs shipped {:8} (predicted {})",
        run.strategy,
        run.count(),
        run.communication(),
        plan.predicted_communication(),
    );
    let oracle = enumerate_generic(plan.request().sample(), &data_graph);
    assert_eq!(run.count(), oracle.count());
    assert_eq!(run.duplicates(), 0);
    println!("              oracle agrees; every instance was produced exactly once");

    // 4. The conjunctive queries behind the scenes (Theorem 3.1 + Section 3.3).
    let sample = catalog::lollipop();
    let cqs = cqs_for_sample(&sample);
    let groups = merge_by_orientation(&cqs);
    println!(
        "\n[planning]    {} node orders -> {} CQs -> {} orientation groups:",
        24,
        cqs.len(),
        groups.len()
    );
    for group in &groups {
        println!(
            "              {}  ({} member order(s))",
            group.orientation_signature(),
            group.members.len()
        );
    }
}
