//! The planner's golden decision matrix: one line per unforced plan over a
//! fixed set of patterns, reducer budgets and graphs. Every cell is a
//! function of the inputs alone, so the output is committed as
//! `docs/EXPLAIN.txt` and CI diffs the two: a change to a cost formula that
//! moves a pick, a share, a predicted pair count or a refusal shows up as a
//! diff line.

use std::collections::BTreeMap;
use subgraph_core::plan::{CostEstimate, EnumerationRequest, StrategyKind};
use subgraph_graph::{DataGraph, GraphSource};
use subgraph_pattern::catalog;

/// Beyond the catalog: the larger family members the planner sweeps cover.
const EXTRA_PATTERNS: [&str; 4] = ["star9", "k8", "c9", "path8"];

/// Reducer budgets: the serial budget, the small budgets where the triangle's
/// pick changes, and the sweep's large budgets.
const BUDGETS: [usize; 10] = [1, 2, 4, 5, 6, 7, 8, 64, 750, 4096];

/// The two data graphs, as `subgraph --generate` specs.
const GRAPHS: [&str; 2] = ["gnm:1000,5000,7", "power-law:2000,10000,2.2,3"];

/// Exact rendering of a predicted quantity (shortest round-trip form), so a
/// change in the last bit of a prediction is a diff. Adding `0.0` turns the
/// `-0` of an empty sum into `0`.
fn exact(value: f64) -> String {
    format!("{}", value + 0.0)
}

/// One candidate's cell: its predicted pairs and work.
fn candidate_cell(estimate: &CostEstimate) -> String {
    format!(
        "{} pairs {} work {}",
        estimate.strategy,
        exact(estimate.communication),
        exact(estimate.reducer_work)
    )
}

/// One matrix line for `pattern` at budget `k` on `graph`.
fn plan_line(spec: &str, graph: &DataGraph, pattern: &str, k: usize) -> (String, String) {
    let request = EnumerationRequest::named(pattern, graph)
        .expect("matrix patterns resolve")
        .reducers(k);
    let head = format!("{spec} {pattern} k={k}:");
    let plan = match request.clone().plan() {
        Ok(plan) => plan,
        Err(error) => return (format!("{head} refused: {error}"), "refused".to_string()),
    };
    let chosen = plan.chosen();
    let shares: Vec<String> = chosen.shares.iter().map(|&s| exact(s)).collect();
    let mut cells = Vec::new();
    // Every strategy of the family the budget selects, in registration order:
    // its estimate when it is a candidate, its named refusal otherwise.
    let serial = k <= 1;
    for kind in StrategyKind::all()
        .into_iter()
        .filter(|kind| kind.is_serial() == serial)
    {
        match plan.candidates().iter().find(|c| c.strategy == kind) {
            Some(estimate) => cells.push(candidate_cell(estimate)),
            None => {
                let reason = match request.clone().strategy(kind).plan() {
                    Err(error) => error.to_string(),
                    Ok(_) => "applicable when forced but not ranked".to_string(),
                };
                cells.push(format!("{kind} refused ({reason})"));
            }
        }
    }
    let line = format!(
        "{head} pick {} shares [{}] reducers {} pairs {} bytes {} work {} | {}",
        chosen.strategy,
        shares.join(","),
        exact(chosen.reducers),
        exact(chosen.communication),
        exact(chosen.predicted_shuffle_bytes()),
        exact(chosen.reducer_work),
        cells.join("; "),
    );
    (line, chosen.strategy.to_string())
}

/// The whole matrix: one line per (graph, pattern, budget), then a footer
/// that tallies the picks.
pub fn explain_matrix() -> String {
    let mut patterns: Vec<&str> = catalog::entries().iter().map(|entry| entry.name).collect();
    patterns.extend(EXTRA_PATTERNS);
    let mut out = String::from(
        "# Planner decisions, unforced: pick, shares, reducers, predicted pairs, bytes and \
         work; then every candidate of the budget's family (serial at k = 1)\n",
    );
    let mut picks: BTreeMap<String, usize> = BTreeMap::new();
    for spec in GRAPHS {
        let graph = GraphSource::parse_generator(spec)
            .and_then(|source| source.load())
            .expect("matrix graphs generate");
        for pattern in &patterns {
            for k in BUDGETS {
                let (line, pick) = plan_line(spec, &graph, pattern, k);
                out.push_str(&line);
                out.push('\n');
                *picks.entry(pick).or_default() += 1;
            }
        }
    }
    let total: usize = picks.values().sum();
    let tally: Vec<String> = picks
        .iter()
        .map(|(pick, n)| format!("{pick} {n}"))
        .collect();
    out.push_str(&format!(
        "# picks over {total} plans: {}\n",
        tally.join(", ")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_equals_the_committed_golden() {
        let golden = include_str!("../../../docs/EXPLAIN.txt");
        assert!(
            explain_matrix() == golden,
            "regenerate docs/EXPLAIN.txt on purpose"
        );
    }
}
