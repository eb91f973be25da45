//! Regenerates every table and figure of the paper, and runs CI's planner,
//! kernel, sink and memory gates.
//!
//! Each module returns plain-text tables (and the underlying numbers) so that
//! the `reproduce` binary can print them.
//! Analytic columns come from the formulas implemented in `subgraph-shares`
//! and `subgraph-cq`; measured columns come from actually running the
//! algorithms of `subgraph-core` on the instrumented map-reduce engine over
//! synthetic data graphs.
//!
//! | paper artifact | function |
//! |---|---|
//! | Figure 1 (asymptotic triangle comparison) | [`figures::figure1`] |
//! | Figure 2 (specific reducer counts) | [`figures::figure2`] |
//! | Section 2.2 / footnote 1 (map-side combiner effect) | [`figures::combiner_table`] |
//! | Example 3.1–3.2 / Figure 3 (square CQs) | [`cq_tables::square_cqs`] |
//! | Figures 5–7 (lollipop CQs) | [`cq_tables::lollipop_cqs`] |
//! | Section 5 / Examples 5.3–5.5 (cycle CQs) | [`cq_tables::cycle_cq_table`] |
//! | Example 4.1 (lollipop shares) | [`share_tables::lollipop_shares`] |
//! | Example 4.2 (square, variable-oriented) | [`share_tables::square_shares`] |
//! | Example 4.3 / Theorem 4.3 (hexagon) | [`share_tables::hexagon_shares`] |
//! | Theorem 4.2 (useful reducers) | [`share_tables::useful_reducer_table`] |
//! | Section 4.5 (Partition vs bucket-oriented ratio) | [`share_tables::partition_ratio_table`] |
//! | Theorem 4.4 (combined vs separate CQ jobs) | [`share_tables::combined_vs_separate`] |
//! | Theorem 6.1 / Example 6.1 (convertibility) | [`computation::convertibility_table`] |
//! | Algorithm 1 / Theorem 7.1 (OddCycle) | [`computation::odd_cycle_table`] |
//! | Theorem 7.2 (decomposition algorithms) | [`computation::decomposition_table`] |
//! | Theorem 7.3 (bounded degree) | [`computation::bounded_degree_table`] |
//! | Section 7.4 (relation sizes) | [`computation::relation_size_table`] |
//! | strategy choice (Sections 2, 4, 6-7) | [`planner_table::planner_choices`] |
//! | reduce kernel (local-graph build + compiled join vs the generic oracle) | [`kernel_bench::kernel_timing`] |
//! | text-sink gate (ndjson enumerate vs count of one plan, a ratio) | [`sink_gate::sink_gate`] |
//! | peak RSS per edge and under a spilling memory budget (≥ 1M edges) | [`memory_gate::memory_gate`] |
//! | CLI parity (`enumerate \| wc -l` vs `count`) | [`cli_table::cli_parity`] |
//!
//! The measured columns drive every algorithm through the
//! `EnumerationRequest`/`Planner` API of `subgraph-core`. [`run_all`] is a
//! function of its inputs alone: its output is committed as
//! `docs/REPRODUCTION.txt`, and CI diffs the two. Engine throughput, serve
//! latency and load times are measured by the repository's `benchmark/`
//! package, not here.

pub mod cli_table;
pub mod computation;
pub mod cq_tables;
pub mod figures;
pub mod kernel_bench;
pub mod memory_gate;
pub mod planner_table;
pub mod report;
pub mod share_tables;
pub mod sink_gate;

/// Runs every reproduction and concatenates the reports (the `all` subcommand).
pub fn run_all() -> String {
    let mut out = String::new();
    out.push_str(&planner_table::planner_choices());
    out.push_str(&figures::figure1());
    out.push_str(&figures::figure2());
    out.push_str(&figures::cascade_comparison());
    out.push_str(&figures::combiner_table());
    out.push_str(&cq_tables::square_cqs());
    out.push_str(&cq_tables::lollipop_cqs());
    out.push_str(&cq_tables::cycle_cq_table());
    out.push_str(&share_tables::lollipop_shares());
    out.push_str(&share_tables::square_shares());
    out.push_str(&share_tables::hexagon_shares());
    out.push_str(&share_tables::useful_reducer_table());
    out.push_str(&share_tables::partition_ratio_table());
    out.push_str(&share_tables::combined_vs_separate());
    out.push_str(&computation::convertibility_table());
    out.push_str(&computation::odd_cycle_table());
    out.push_str(&computation::decomposition_table());
    out.push_str(&computation::bounded_degree_table());
    out.push_str(&computation::relation_size_table());
    out
}
