//! Computation-cost reproductions: convertibility (Theorem 6.1), OddCycle
//! (Theorem 7.1), decompositions (Theorem 7.2), bounded degree (Theorem 7.3)
//! and unequal relation sizes (Section 7.4).

use crate::report::{fmt, Table};
use subgraph_core::plan::{EnumerationRequest, StrategyKind};
use subgraph_core::relation_join::{case_b_worst_instance, evaluate_case_b, CycleJoinSizes};
use subgraph_core::serial::{
    enumerate_bounded_degree, enumerate_by_decomposition, enumerate_generic, enumerate_odd_cycles,
    enumerate_triangles_serial,
};
use subgraph_core::{is_convertible, predicted_parallel_work};
use subgraph_graph::generators;
use subgraph_pattern::catalog;
use subgraph_pattern::decompose::decompose;
use subgraph_shares::counting::useful_reducers;

/// Theorem 6.1 / Example 6.1 — total reducer work of Section 2.3's triangle
/// algorithm (bucket-oriented processing at p = 3) stays within a constant
/// factor of the serial work as the number of reducers grows. The serial
/// algorithm is the reducers' own join run by one reducer over every edge, so
/// both works count the same unit.
pub fn convertibility_table() -> String {
    let graph = generators::gnm(1_500, 18_000, 61);
    let run_at = |b: u64| {
        EnumerationRequest::new(catalog::triangle(), &graph)
            .reducers(useful_reducers(b, 3) as usize)
            .strategy(StrategyKind::BucketOriented)
            .plan()
            .expect("bucket-oriented applies to the triangle")
            .execute()
    };
    let serial = run_at(1);
    let serial_work = serial.metrics.as_ref().unwrap().reducer_work;
    assert_eq!(serial.count(), enumerate_triangles_serial(&graph).count());
    let report = is_convertible(3, 0.0, 1.5);
    let mut table = Table::new(
        "Theorem 6.1 — convertibility of the O(m^3/2) triangle algorithm",
        &[
            "buckets b",
            "reducers used",
            "total reducer work",
            "work / serial work",
            "predicted b^(p−α−2β)",
        ],
    );
    for b in [2usize, 4, 8, 16] {
        let run = run_at(b as u64);
        assert_eq!(run.count(), serial.count());
        let metrics = run.metrics.as_ref().unwrap();
        table.row(&[
            b.to_string(),
            metrics.reducers_used.to_string(),
            metrics.reducer_work.to_string(),
            fmt(metrics.reducer_work as f64 / serial_work.max(1) as f64),
            fmt(
                predicted_parallel_work(b, 3, 0.0, 1.5, graph.num_nodes(), graph.num_edges())
                    / (graph.num_edges() as f64).powf(1.5),
            ),
        ]);
    }
    table.note(&format!(
        "work counts edges read plus join candidates tried; serial work (the same join by one \
         reducer over every edge, b = 1): {serial_work}; α + 2β = {} ≥ p = 3 ⇒ convertible = {}",
        report.alpha + 2.0 * report.beta,
        report.convertible()
    ));
    table.render()
}

/// Theorem 7.1 / Algorithm 1 — OddCycle versus the generic matcher.
pub fn odd_cycle_table() -> String {
    let mut table = Table::new(
        "Algorithm 1 (OddCycle) — cycles of length 2k+1",
        &[
            "graph",
            "cycle",
            "OddCycle count",
            "oracle count",
            "OddCycle work",
            "m^(p/2) bound",
        ],
    );
    let configs = [
        ("G(30,120)", generators::gnm(30, 120, 71), 2usize),
        ("G(18,60)", generators::gnm(18, 60, 72), 3usize),
        ("K7", generators::complete(7), 2usize),
    ];
    for (name, graph, k) in configs {
        let p = 2 * k + 1;
        let fast = enumerate_odd_cycles(&graph, k);
        let oracle = enumerate_generic(&catalog::cycle(p), &graph);
        assert_eq!(fast.count(), oracle.count());
        table.row(&[
            name.to_string(),
            format!("C{p}"),
            fast.count().to_string(),
            oracle.count().to_string(),
            fast.work.to_string(),
            fmt((graph.num_edges() as f64).powf(p as f64 / 2.0)),
        ]);
    }
    table.render()
}

/// Theorem 7.2 — decomposition-based algorithms and their exponents.
pub fn decomposition_table() -> String {
    let graph = generators::gnm(40, 220, 73);
    let mut table = Table::new(
        "Theorem 7.2 — decomposition-based (q, (p−q)/2)-algorithms",
        &[
            "pattern",
            "q (isolated)",
            "β = (p−q)/2",
            "instances",
            "matches oracle",
            "work",
        ],
    );
    for (name, pattern) in [
        ("triangle", catalog::triangle()),
        ("square", catalog::square()),
        ("lollipop", catalog::lollipop()),
        ("C5", catalog::cycle(5)),
        ("star4", catalog::star(4)),
        ("K4", catalog::k4()),
    ] {
        let d = decompose(&pattern);
        let run = enumerate_by_decomposition(&pattern, &graph);
        let oracle = enumerate_generic(&pattern, &graph);
        table.row(&[
            name.to_string(),
            d.alpha.to_string(),
            fmt(d.beta()),
            run.count().to_string(),
            (run.count() == oracle.count() && run.duplicates() == 0).to_string(),
            run.work.to_string(),
        ]);
    }
    table.render()
}

/// Theorem 7.3 — the bounded-degree algorithm on Δ-regular trees (the
/// Θ(mΔ^{p−2}) worst case) and on degree-capped random graphs.
pub fn bounded_degree_table() -> String {
    let mut table = Table::new(
        "Theorem 7.3 — bounded-degree enumeration, work vs m·Δ^(p−2)",
        &[
            "graph",
            "Δ",
            "pattern",
            "instances",
            "work",
            "m·Δ^(p−2)",
            "work / bound",
        ],
    );
    let cases: Vec<(String, subgraph_graph::DataGraph)> = vec![
        (
            "Δ-regular tree (Δ=5)".into(),
            generators::regular_tree(5, 4),
        ),
        (
            "Δ-regular tree (Δ=8)".into(),
            generators::regular_tree(8, 3),
        ),
        (
            "degree-capped G(n,m)".into(),
            generators::bounded_degree(800, 2_400, 12, 74),
        ),
    ];
    for (name, graph) in cases {
        let delta = graph.max_degree();
        for (pname, pattern) in [("star4", catalog::star(4)), ("path4", catalog::path(4))] {
            let run = enumerate_bounded_degree(&pattern, &graph);
            let bound = graph.num_edges() as f64 * (delta as f64).powi(2);
            table.row(&[
                name.clone(),
                delta.to_string(),
                pname.to_string(),
                run.count().to_string(),
                run.work.to_string(),
                fmt(bound),
                fmt(run.work as f64 / bound),
            ]);
        }
    }
    table.note("a Δ-regular tree contains Θ(m·Δ^{p−2}) p-node stars (end of Section 7.3)");
    table.render()
}

/// Section 7.4 — cycle joins over relations of different sizes.
pub fn relation_size_table() -> String {
    let mut table = Table::new(
        "Section 7.4 — 5-cycle joins over relations of unequal sizes",
        &[
            "sizes n1..n5",
            "case",
            "bound",
            "√(Πn)",
            "measured output",
            "measured work",
        ],
    );
    let size_sets: [[f64; 5]; 4] = [
        [100.0, 100.0, 100.0, 100.0, 100.0],
        [20.0, 400.0, 25.0, 400.0, 20.0],
        [1.0, 1000.0, 1.0, 1000.0, 1.0],
        [10.0, 200.0, 10.0, 200.0, 10.0],
    ];
    for sizes in size_sets {
        let analysis = CycleJoinSizes::new(sizes);
        let (output, work) = {
            let relations =
                case_b_worst_instance(sizes[0] as usize, sizes[2] as usize, sizes[4] as usize);
            evaluate_case_b(&relations)
        };
        table.row(&[
            format!("{:?}", sizes.map(|s| s as u64)),
            format!("{:?}", analysis.case()),
            fmt(analysis.bound()),
            fmt(sizes.iter().product::<f64>().sqrt()),
            output.to_string(),
            work.to_string(),
        ]);
    }
    table.note(
        "the measured columns run the case-B strategy (join R1⋈R5, extend with R3, verify \
         R2/R4 by lookup) on the worst-case instances from the paper's lower-bound construction",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_cycle_and_decomposition_tables_render() {
        assert!(odd_cycle_table().contains("OddCycle"));
        assert!(decomposition_table().contains("matches oracle"));
    }

    #[test]
    fn bounded_degree_table_renders() {
        assert!(bounded_degree_table().contains("regular tree"));
    }

    #[test]
    fn relation_size_table_has_both_cases() {
        let text = relation_size_table();
        assert!(text.contains("CaseA"));
        assert!(text.contains("CaseB"));
    }
}
