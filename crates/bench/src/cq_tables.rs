//! The conjunctive-query tables: Example 3.1–3.2 (square), Figures 5–7
//! (lollipop) and the Section 5 cycle families.

use crate::report::{fmt, Table};
use subgraph_cq::{
    cqs_for_sample, cycle_cqs, cycles::conditional_upper_bound, merge_by_orientation,
    simplified_constraints, ConjunctiveQuery,
};
use subgraph_pattern::{automorphism_group, catalog};

/// Example 3.1 / 3.2 — the three CQs for the square.
pub fn square_cqs() -> String {
    let square = catalog::square();
    let autos = automorphism_group(&square);
    let cqs = cqs_for_sample(&square);
    let mut table = Table::new(
        "Example 3.2 — conjunctive queries for the square (Fig. 3)",
        &["#", "conjunctive query"],
    );
    for (i, q) in cqs.iter().enumerate() {
        table.row(&[(i + 1).to_string(), q.render()]);
    }
    table.note(&format!(
        "|Aut(square)| = {} (paper: 8); 4!/{} = {} CQs (paper: 3)",
        autos.len(),
        autos.len(),
        cqs.len()
    ));
    table.render()
}

/// Figures 5–7 — the lollipop: 12 CQs, grouped into 6 edge orientations, each
/// with the OR of its arithmetic conditions.
pub fn lollipop_cqs() -> String {
    let lollipop = catalog::lollipop();
    let cqs = cqs_for_sample(&lollipop);
    let groups = merge_by_orientation(&cqs);
    let mut table = Table::new(
        "Figures 5–7 — lollipop CQs grouped by edge orientation",
        &["orientation", "member orders", "merged constraints"],
    );
    for group in &groups {
        let constraints: Vec<String> = simplified_constraints(group)
            .iter()
            .map(|c| format!("{c:?}"))
            .collect();
        table.row(&[
            group.orientation_signature(),
            group.members.len().to_string(),
            constraints.join(" & "),
        ]);
    }
    table.note(&format!(
        "{} CQs (paper Fig. 5: 12) merge into {} orientation groups (paper Fig. 6/7: 6)",
        cqs.len(),
        groups.len()
    ));
    table.render()
}

/// Section 5 — number of CQs needed for cycles, by the general method, the
/// orientation merge, and the run-sequence method, with the conditional upper
/// bound `(2^p − 2)/(2p)`.
pub fn cycle_cq_table() -> String {
    let mut table = Table::new(
        "Section 5 — CQ counts for cycles C_p",
        &[
            "p",
            "general method (Thm 3.1)",
            "orientation merge",
            "run-sequence method (§5)",
            "conditional bound (2^p−2)/2p",
            "paper",
        ],
    );
    let paper_counts = [
        (3usize, "1"),
        (4, "3"),
        (5, "3"),
        (6, "7 (8 needed, see note)"),
        (7, "9"),
        (8, "-"),
    ];
    for &(p, paper) in &paper_counts {
        let general = cqs_for_sample(&catalog::cycle(p));
        let merged = merge_by_orientation(&general);
        let runs = cycle_cqs(p);
        table.row(&[
            p.to_string(),
            general.len().to_string(),
            merged.len().to_string(),
            runs.len().to_string(),
            fmt(conditional_upper_bound(p)),
            paper.to_string(),
        ]);
    }
    table.note(
        "for p = 6 the paper's Example 5.5 reports 7; the orbit analysis (and the exactness \
         tests) show 8 classes are required — the 1221/2112 run sequences are not reachable \
         from 1122 by restarting or reversing the walk",
    );

    // Also show the pentagon's three queries explicitly (Example 5.3).
    let mut pentagon = Table::new(
        "Example 5.3 — the three run-sequence CQs for the pentagon",
        &["orientation", "runs", "conjunctive query"],
    );
    for cq in cycle_cqs(5) {
        pentagon.row(&[
            cq.orientation.clone(),
            format!("{:?}", cq.run_lengths),
            cq.query.render(),
        ]);
    }
    format!("{}{}", table.render(), pentagon.render())
}

/// Convenience: CQ collections for a named pattern (used by the reproduce binary).
pub fn pattern_cqs(name: &str) -> Option<Vec<ConjunctiveQuery>> {
    let pattern = match name {
        "triangle" => catalog::triangle(),
        "square" => catalog::square(),
        "lollipop" => catalog::lollipop(),
        "k4" => catalog::k4(),
        _ => return None,
    };
    Some(cqs_for_sample(&pattern))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_table_mentions_three_queries() {
        let text = square_cqs();
        assert!(text.contains("= 3 CQs"));
        assert!(text.contains("E(W,X)"));
    }

    #[test]
    fn lollipop_table_has_six_groups() {
        let text = lollipop_cqs();
        assert!(text.contains("merge into 6 orientation groups"));
    }

    #[test]
    fn cycle_table_has_all_rows() {
        let text = cycle_cq_table();
        for p in 3..=8 {
            assert!(text.contains(&format!("\n  {p} ")), "missing row for p={p}");
        }
        assert!(text.contains("udddd") || text.contains("uddd"));
    }

    #[test]
    fn pattern_lookup() {
        assert!(pattern_cqs("square").is_some());
        assert!(pattern_cqs("nonexistent").is_none());
    }
}
