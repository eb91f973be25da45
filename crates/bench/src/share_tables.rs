//! Share-optimization tables: Examples 4.1–4.3, Theorem 4.2, Section 4.5 and
//! Theorem 4.4.

use crate::report::{fmt, Table};
use subgraph_core::plan::{EnumerationRequest, StrategyKind};
use subgraph_cq::cqs_for_sample;
use subgraph_graph::generators;
use subgraph_pattern::catalog;
use subgraph_shares::counting::{
    bucket_oriented_replication, generalized_partition_replication,
    partition_to_bucket_ratio_limit, useful_reducers,
};
use subgraph_shares::dominance::single_cq_expression_with_dominance;
use subgraph_shares::{optimize_shares, CostExpression};

/// Example 4.1 — optimal shares for the lollipop's identity-order CQ.
pub fn lollipop_shares() -> String {
    let cq = cqs_for_sample(&catalog::lollipop())
        .into_iter()
        .find(|q| q.subgoals() == [(0, 1), (1, 2), (1, 3), (2, 3)])
        .expect("identity-order lollipop CQ");
    let expr = single_cq_expression_with_dominance(&cq);
    let mut table = Table::new(
        "Example 4.1 — shares for the lollipop CQ E(W,X)&E(X,Y)&E(X,Z)&E(Y,Z)",
        &["reducers k", "w", "x", "y", "z", "cost/edge", "paper"],
    );
    for (k, paper) in [
        (750.0, "w=1, x=30, y=z=5, cost 65"),
        (7_500.0, "x=y²+y, z=y"),
    ] {
        let s = optimize_shares(&expr, k);
        table.row(&[
            fmt(k),
            fmt(s.shares[0]),
            fmt(s.shares[1]),
            fmt(s.shares[2]),
            fmt(s.shares[3]),
            fmt(s.cost_per_edge),
            paper.to_string(),
        ]);
    }
    table.note("W is dominated by X, so its share is fixed to 1 (the paper's dominance rule)");
    table.render()
}

/// Example 4.2 — variable-oriented shares for the square; cost 4√(2k) per edge.
pub fn square_shares() -> String {
    let cqs = cqs_for_sample(&catalog::square());
    let expr = CostExpression::from_cq_collection(&cqs);
    let mut table = Table::new(
        "Example 4.2 — variable-oriented shares for the square",
        &[
            "reducers k",
            "w",
            "x",
            "y",
            "z",
            "cost/edge",
            "paper 4√(2k)",
        ],
    );
    for k in [128.0, 512.0, 8192.0] {
        let s = optimize_shares(&expr, k);
        table.row(&[
            fmt(k),
            fmt(s.shares[0]),
            fmt(s.shares[1]),
            fmt(s.shares[2]),
            fmt(s.shares[3]),
            fmt(s.cost_per_edge),
            fmt(4.0 * (2.0 * k).sqrt()),
        ]);
    }
    table.note("the optimum is a family (x = z, y = 2w); any member attains the same cost");
    table.render()
}

/// Example 4.3 / Theorem 4.3 — the hexagon with one half-share variable.
pub fn hexagon_shares() -> String {
    let cqs = cqs_for_sample(&catalog::cycle(6));
    let expr = CostExpression::from_cq_collection(&cqs);
    let k = 500_000.0;
    let s = optimize_shares(&expr, k);
    let symmetric = subgraph_shares::two_level_shares(6, &[1, 2, 3, 4, 5], &[0], k);
    let mut table = Table::new(
        "Example 4.3 — variable-oriented shares for the hexagon C6, k = 500 000",
        &[
            "assignment",
            "X1",
            "X2",
            "X3",
            "X4",
            "X5",
            "X6",
            "cost/edge",
        ],
    );
    table.row(&[
        "solver".into(),
        fmt(s.shares[0]),
        fmt(s.shares[1]),
        fmt(s.shares[2]),
        fmt(s.shares[3]),
        fmt(s.shares[4]),
        fmt(s.shares[5]),
        fmt(s.cost_per_edge),
    ]);
    table.row(&[
        "paper (Thm 4.3)".into(),
        fmt(symmetric[0]),
        fmt(symmetric[1]),
        fmt(symmetric[2]),
        fmt(symmetric[3]),
        fmt(symmetric[4]),
        fmt(symmetric[5]),
        fmt(expr.evaluate(&symmetric)),
    ]);
    table.note(
        "paper reports total communication 5·10^13 for m = 10^9 (5·10^4 per edge); evaluating \
         its own optimum gives 6·10^4 per edge — the gap is unexplained",
    );
    table.note("for m = 10^9 edges the measured-per-edge cost scales to cost/edge × 10^9 total");
    table.render()
}

/// Theorem 4.2 — useful reducers under hash-ordered processing.
pub fn useful_reducer_table() -> String {
    let mut table = Table::new(
        "Theorem 4.2 — reducers that can receive instances (hash-ordered nodes)",
        &[
            "pattern size p",
            "buckets b",
            "all lists b^p",
            "useful C(b+p−1,p)",
            "saving factor",
        ],
    );
    for (p, b) in [(3u64, 10u64), (3, 64), (4, 10), (4, 32), (5, 10), (6, 8)] {
        let all = (b as f64).powi(p as i32);
        let useful = useful_reducers(b, p) as f64;
        table.row(&[
            p.to_string(),
            b.to_string(),
            fmt(all),
            fmt(useful),
            fmt(all / useful),
        ]);
    }
    table.note("the saving factor approaches p! for large b");
    table.render()
}

/// Section 4.5 — replication ratio of generalized Partition over the
/// bucket-oriented scheme, approaching 1 + 1/(p−1).
pub fn partition_ratio_table() -> String {
    let mut table = Table::new(
        "Section 4.5 — generalized Partition vs bucket-oriented replication per edge",
        &[
            "p",
            "b",
            "Partition",
            "bucket-oriented",
            "ratio",
            "limit 1+1/(p−1)",
        ],
    );
    for p in 3u64..=7 {
        for b in [20u64, 200, 5_000] {
            if b < p {
                continue;
            }
            let partition = generalized_partition_replication(b, p);
            let bucket = bucket_oriented_replication(b, p) as f64;
            table.row(&[
                p.to_string(),
                b.to_string(),
                fmt(partition),
                fmt(bucket),
                fmt(partition / bucket),
                fmt(partition_to_bucket_ratio_limit(p)),
            ]);
        }
    }
    table.render()
}

/// Theorem 4.4 — evaluating all CQs in one job never costs more communication
/// than separate jobs, measured on the engine.
pub fn combined_vs_separate() -> String {
    let graph = generators::gnm(300, 2_500, 44);
    let mut table = Table::new(
        "Theorem 4.4 — combined (variable-oriented) vs separate (CQ-oriented) evaluation",
        &[
            "pattern",
            "k",
            "combined kv pairs",
            "separate kv pairs",
            "ratio",
            "instances",
        ],
    );
    for (name, pattern) in [
        ("square", catalog::square()),
        ("lollipop", catalog::lollipop()),
        ("triangle", catalog::triangle()),
    ] {
        let k = 128;
        let run = |kind: StrategyKind| {
            EnumerationRequest::new(pattern.clone(), &graph)
                .reducers(k)
                .strategy(kind)
                .plan()
                .expect("strategy applies")
                .execute()
        };
        let combined = run(StrategyKind::VariableOriented);
        let separate = run(StrategyKind::CqOriented);
        assert_eq!(combined.count(), separate.count());
        table.row(&[
            name.to_string(),
            k.to_string(),
            combined.communication().to_string(),
            separate.communication().to_string(),
            fmt(separate.communication() as f64 / combined.communication() as f64),
            combined.count().to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lollipop_table_contains_the_example_values() {
        let text = lollipop_shares();
        assert!(text.contains("750"));
        assert!(text.contains("65"));
    }

    #[test]
    fn square_table_matches_the_formula_column() {
        let text = square_shares();
        assert!(text.contains("4√(2k)") || text.contains("paper"));
    }

    #[test]
    fn hexagon_table_has_both_assignments() {
        let text = hexagon_shares();
        assert!(text.contains("solver"));
        assert!(text.contains("Thm 4.3"));
    }

    #[test]
    fn counting_tables_render() {
        assert!(useful_reducer_table().contains("saving factor"));
        assert!(partition_ratio_table().contains("limit"));
    }
}
