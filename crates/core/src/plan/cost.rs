//! [`CostEstimate`]: what the planner predicts for one strategy before
//! anything runs.

use crate::plan::strategy::StrategyKind;

/// The planner's per-round communication prediction: the pairs the round
/// ships and their payload in bytes.
#[derive(Clone, Debug)]
pub struct RoundCost {
    /// Round name.
    pub name: String,
    /// Predicted key-value pairs shipped through the shuffle.
    pub shuffled: f64,
    /// Predicted shuffled payload bytes (`shuffled` × per-record bytes, with
    /// the same record weigher the engine uses).
    pub shuffle_bytes: f64,
}

impl RoundCost {
    /// A round that ships `records` pairs of `bytes_per_record` bytes each.
    pub fn new(name: impl Into<String>, records: f64, bytes_per_record: usize) -> Self {
        RoundCost {
            name: name.into(),
            shuffled: records,
            shuffle_bytes: records * bytes_per_record as f64,
        }
    }
}

/// The planner's prediction for running one strategy on one request. All
/// quantities are in the paper's cost model (Section 1.2): communication is
/// key-value pairs shipped from mappers to reducers, computation is total
/// reducer work in the serial algorithm's natural unit.
#[derive(Clone, Debug)]
pub struct CostEstimate {
    /// The strategy this estimate is for.
    pub strategy: StrategyKind,
    /// Paper section the strategy implements (for `explain()` output).
    pub paper_section: &'static str,
    /// Map-reduce rounds the strategy needs (0 = serial).
    pub rounds: usize,
    /// Per-variable shares the strategy would use. For bucket schemes every
    /// variable has the same share `b`; serial strategies have no shares.
    pub shares: Vec<f64>,
    /// The single bucket count `b` for hash-ordered schemes, if applicable.
    pub buckets: Option<usize>,
    /// Per-round communication predictions (one entry per round; empty for
    /// serial strategies).
    pub round_costs: Vec<RoundCost>,
    /// Predicted copies of each data edge shipped to reducers (the paper's
    /// per-edge replication formulas: `b`, `3b − 2`, `C(b+p-3, p-2)`, ...).
    pub replication_per_edge: f64,
    /// Predicted total communication cost: the sum of the per-round shipped
    /// pairs (`replication_per_edge x m`).
    pub communication: f64,
    /// Predicted number of reducers that receive data.
    pub reducers: f64,
    /// Predicted total reducer work (Theorem 6.1 accounting via
    /// [`crate::convertible::predicted_parallel_work`]); for serial strategies
    /// this is the predicted serial running-time bound.
    pub reducer_work: f64,
    /// Harness-only: always 0, since no registered strategy searches CQ
    /// order classes. Kept, with [`CostEstimate::classes_pruned`], because the
    /// repo benchmark's harness reads both (and counts a failed operation
    /// unless their sum is 0 or `p!/|Aut(S)|`), until ROADMAP item 1(c)
    /// drops them.
    pub classes_scored: usize,
    /// Harness-only: always 0 (see [`CostEstimate::classes_scored`]).
    pub classes_pruned: usize,
}

impl CostEstimate {
    /// Predicted shuffled payload bytes across all rounds.
    pub fn predicted_shuffle_bytes(&self) -> f64 {
        (self.round_costs.iter()).map(|r| r.shuffle_bytes).sum()
    }

    /// The planner's ranking key: communication first (the paper's primary
    /// cost), predicted computation as the tie-breaker, strategy order as the
    /// final deterministic tie-breaker.
    pub fn score(&self) -> (f64, f64) {
        (self.communication, self.reducer_work)
    }

    /// `strategy (paper section)`: the first column of an explain row.
    pub(crate) fn label(&self) -> String {
        format!("{} ({})", self.strategy, self.paper_section)
    }

    /// The shares column of an explain row: `b=…` for a bucket count, the
    /// share vector, or `-` when no single vector describes the strategy.
    pub(crate) fn shares_cell(&self) -> String {
        if self.shares.is_empty() {
            "-".to_string()
        } else if let Some(b) = self.buckets {
            format!("b={b}")
        } else {
            let rendered: Vec<String> = self.shares.iter().map(|&s| format_value(s)).collect();
            format!("[{}]", rendered.join(", "))
        }
    }

    /// One aligned row for [`crate::plan::ExecutionPlan::explain`], its label
    /// padded to `width` characters and its shares to `shares_width`.
    pub(crate) fn explain_row(&self, marker: char, width: usize, shares_width: usize) -> String {
        format!(
            "{marker} {:<width$} {:<shares_width$} {:>12} {:>14} {:>10} {:>14}",
            self.label(),
            self.shares_cell(),
            format_value(self.replication_per_edge),
            format_value(self.communication),
            format_value(self.reducers),
            format_value(self.reducer_work),
        )
    }
}

/// Compact numeric rendering for explain tables. A value within `1e-8` of an
/// integer prints as that integer, from either side.
pub(crate) fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e7 {
        format!("{v:.2e}")
    } else if (v - v.round()).abs() < 1e-8 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_orders_by_communication_then_work() {
        let mk = |comm: f64, work: f64| CostEstimate {
            strategy: StrategyKind::BucketOriented,
            paper_section: "4.5",
            rounds: 1,
            shares: vec![],
            buckets: None,
            round_costs: vec![],
            replication_per_edge: 0.0,
            communication: comm,
            reducers: 0.0,
            reducer_work: work,
            classes_scored: 0,
            classes_pruned: 0,
        };
        assert!(mk(10.0, 99.0).score() < mk(11.0, 1.0).score());
        assert!(mk(10.0, 1.0).score() < mk(10.0, 2.0).score());
    }

    #[test]
    fn round_costs_price_their_records_and_sum_to_the_byte_total() {
        let estimate = CostEstimate {
            strategy: StrategyKind::CascadeTriangles,
            paper_section: "2",
            rounds: 2,
            shares: vec![],
            buckets: None,
            round_costs: vec![
                RoundCost::new("wedge", 1600.0, 24),
                RoundCost::new("closing", 100.0, 16),
            ],
            replication_per_edge: 17.0,
            communication: 1700.0,
            reducers: 216.0,
            reducer_work: 0.0,
            classes_scored: 0,
            classes_pruned: 0,
        };
        assert_eq!(estimate.round_costs[1].shuffled, 100.0);
        assert_eq!(estimate.round_costs[1].shuffle_bytes, 1600.0);
        assert_eq!(estimate.predicted_shuffle_bytes(), 1600.0 * 24.0 + 1600.0);
    }

    #[test]
    fn values_format_compactly() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(55.0), "55");
        assert_eq!(format_value(13.75), "13.75");
        assert_eq!(format_value(3.2e9), "3.20e9");
        assert_eq!(format_value(4.9999999999), "5");
        assert_eq!(format_value(5.0000000001), "5");
        assert_eq!(format_value(59_999.999999999), "60000");
        assert_eq!(format_value(-3.0000000001), "-3");
        assert_eq!(format_value(4.99), "4.99");
    }
}
