//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p subgraph-bench --bin reproduce -- all
//! cargo run --release -p subgraph-bench --bin reproduce -- fig2 shares-hexagon
//! ```
//!
//! Run with no arguments to list the available reproductions.

use subgraph_bench::{cli_table, computation, cq_tables, figures, planner_table, share_tables};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "help") {
        print_usage();
        return;
    }
    for arg in &args {
        match arg.as_str() {
            "all" => print!("{}", subgraph_bench::run_all()),
            "planner" => print!("{}", planner_table::planner_choices()),
            "plan-times" => {
                let report = planner_table::plan_timing();
                subgraph_bench::report::write_tracked_json(
                    &planner_table::bench_json_path(),
                    &report.to_json(),
                );
                print!("{}", report.table());
            }
            "plan-gate" => gate(planner_table::plan_gate()),
            "kernel" => print!("{}", subgraph_bench::kernel_bench::run_and_record().table()),
            "kernel-gate" => gate(subgraph_bench::kernel_bench::kernel_gate()),
            "sink-gate" => gate(subgraph_bench::sink_gate::sink_gate()),
            "memory-gate" => gate(subgraph_bench::memory_gate::memory_gate()),
            "cli" => print!("{}", cli_table::cli_parity()),
            "fig1" => print!("{}", figures::figure1()),
            "fig2" => print!("{}", figures::figure2()),
            "cascade" => print!("{}", figures::cascade_comparison()),
            "combiner" => print!("{}", figures::combiner_table()),
            "square-cqs" => print!("{}", cq_tables::square_cqs()),
            "lollipop-cqs" => print!("{}", cq_tables::lollipop_cqs()),
            "cycle-cqs" => print!("{}", cq_tables::cycle_cq_table()),
            "shares-lollipop" => print!("{}", share_tables::lollipop_shares()),
            "shares-square" => print!("{}", share_tables::square_shares()),
            "shares-hexagon" => print!("{}", share_tables::hexagon_shares()),
            "useful-reducers" => print!("{}", share_tables::useful_reducer_table()),
            "partition-ratio" => print!("{}", share_tables::partition_ratio_table()),
            "combined-vs-separate" => print!("{}", share_tables::combined_vs_separate()),
            "convertibility" => print!("{}", computation::convertibility_table()),
            "odd-cycle" => print!("{}", computation::odd_cycle_table()),
            "decompose" => print!("{}", computation::decomposition_table()),
            "bounded-degree" => print!("{}", computation::bounded_degree_table()),
            "relation-sizes" => print!("{}", computation::relation_size_table()),
            other => {
                eprintln!("unknown reproduction {other:?}\n");
                print_usage();
                std::process::exit(1);
            }
        }
    }
}

/// Prints a gate's table; on failure prints its report to stderr and exits 1.
fn gate(outcome: Result<String, String>) {
    match outcome {
        Ok(table) => print!("{table}"),
        Err(report) => {
            eprint!("{report}");
            std::process::exit(1);
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: reproduce <target> [<target> ...]\n\
         targets:\n  \
         all                   every table and figure\n  \
         planner               strategy chosen per pattern and reducer budget\n  \
         plan-times            plan-time sweep: one plan() per catalog pattern, star9/10, \
         k8/9, c9, path8, k12, path10 and the hypercube4 refusal, median of 5 samples of >= 10 ms \
         (writes BENCH_planner.json)\n  \
         plan-gate             the same sweep as a CI gate: hypercube4 refused by name; \
         (release) hypercube3 within 50 ms, hypercube3/k8 and c9/k9 at most 3x, the hypercube4 \
         refusal faster than hypercube3, star9->star10 and k8->k9 at most 3x (exits 1 on \
         regression)\n  \
         kernel                reduce kernel: one reducer's local-graph build and its join, by the \
         one symmetry-broken plan and by the per-CQ plans, with and without windows, vs the \
         generic oracle (writes BENCH_kernel.json)\n  \
         kernel-gate           the same as a CI gate: identical counts, one plan <= per-CQ plans in \
         candidates and (release) time, windowed candidates <= unwindowed, kernel >= 3x the \
         generic oracle on the square input, bitmap-ranked triangle build <= the interned one \
         (exits 1 on regression)\n  \
         sink-gate             text-sink CI gate: the triangle plan enumerated to ndjson takes at \
         most 2x the same plan counted (median of 5 alternating runs) and writes one line per \
         oracle instance (exits 1 on regression)\n  \
         memory-gate           peak RSS per edge of a >=1M-edge count at threads 1-8, and a \
         32 MiB-budget count that must spill, match and stay within budget + graph + slack \
         (exits 1 on regression)\n  \
         cli                  CLI parity: enumerate line count vs count per catalog pattern\n  \
         fig1                  Figure 1  (asymptotic triangle comparison)\n  \
         fig2                  Figure 2  (specific reducer counts)\n  \
         cascade               Section 2 motivation (1-round vs 2-round cascade)\n  \
         combiner              Section 2.2 multiway join: combiner on vs off\n  \
         square-cqs            Example 3.2 / Figure 3\n  \
         lollipop-cqs          Figures 5-7\n  \
         cycle-cqs             Section 5 / Examples 5.3-5.5\n  \
         shares-lollipop       Example 4.1\n  \
         shares-square         Example 4.2\n  \
         shares-hexagon        Example 4.3 / Theorem 4.3\n  \
         useful-reducers       Theorem 4.2\n  \
         partition-ratio       Section 4.5\n  \
         combined-vs-separate  Theorem 4.4 (measured)\n  \
         convertibility        Theorem 6.1 / Example 6.1 (measured)\n  \
         odd-cycle             Algorithm 1 / Theorem 7.1\n  \
         decompose             Theorem 7.2\n  \
         bounded-degree        Theorem 7.3\n  \
         relation-sizes        Section 7.4"
    );
}
