//! The reducer join kernel in isolation: one reducer's input, the local-graph
//! build and the compiled join timed separately, against the generic
//! backtracking oracle on the same edges.
//!
//! The first two inputs are what the heaviest reducers of the repo
//! benchmark's bucket-oriented rounds receive: a triangle reducer with three
//! distinct buckets out of six (a quarter of a 1.2M-edge graph) and a square
//! reducer with four distinct buckets out of four (the whole 110k-edge
//! graph); a pentagon and a cube reducer (12 and 840 order classes) follow.
//! Every input is joined twice: by the reducer's single symmetry-broken plan
//! and by the `p!/|Aut|` per-CQ plans it replaced, kept as the oracle.
//! `reproduce kernel` prints the table and writes `BENCH_kernel.json`;
//! `reproduce kernel-gate` is the CI form, and is *relative* — the compiled
//! kernel must beat `enumerate_generic` on the square input by
//! [`MIN_SPEEDUP_OVER_ORACLE`], and the one plan must not take longer than
//! the per-CQ plans on any input, so a busy runner slows both sides and
//! cannot flake it — and *exact*: both joins find the same owned and total
//! counts as the oracle, the one plan tries no more candidates than the
//! per-CQ plans (the same number on the triangle, whose single CQ it is), and
//! no input's local graph may hold more heap bytes than the tracked
//! `BENCH_kernel.json` records.

use crate::report::Table;
use std::time::Instant;
use subgraph_core::enumerate::bucket_oriented::{sample_plan, BucketQuota};
use subgraph_core::serial::generic::enumerate_generic_into;
use subgraph_core::sink::CountSink;
use subgraph_cq::{cqs_for_sample, JoinPlan, LocalGraph};
use subgraph_graph::{generators, BucketThenIdOrder, DataGraph, Edge};
use subgraph_pattern::{catalog, SampleGraph};

/// How much faster than the generic oracle the kernel (build + join) must be
/// on the square input.
pub const MIN_SPEEDUP_OVER_ORACLE: f64 = 3.0;

/// One reducer input, measured.
#[derive(Clone, Debug)]
pub struct KernelTiming {
    /// Row label.
    pub input: &'static str,
    /// Pattern joined.
    pub pattern: &'static str,
    /// Edges the reducer received.
    pub edges: usize,
    /// Distinct nodes among them (the local graph's size).
    pub local_nodes: usize,
    /// Heap bytes of the built local graph.
    pub local_bytes: usize,
    /// `LocalGraph::build`, best of three.
    pub build_millis: f64,
    /// The reducer's one plan, ownership test pushed in.
    pub one_plan: Join,
    /// How many per-CQ plans the pattern has (`p!/|Aut|`).
    pub per_cq_plans: usize,
    /// Those plans one after the other, the same test pushed in.
    pub per_cq: Join,
    /// Assignments of the unrestricted one-plan join — every instance in the
    /// input.
    pub assignments: usize,
    /// The unrestricted one-plan join, best of three.
    pub full_join_millis: f64,
    /// Assignments of the unrestricted per-CQ joins.
    pub per_cq_assignments: usize,
    /// The generic oracle over the same edges, one run.
    pub oracle_millis: f64,
    /// Instances the oracle found.
    pub oracle_count: usize,
}

/// One way of joining a reducer's local graph under its ownership test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Join {
    /// Best of three.
    pub millis: f64,
    /// Candidate bindings tried (the kernel's share of `reducer_work`).
    pub candidates: u64,
    /// Instances the reducer owns.
    pub owned: usize,
}

impl KernelTiming {
    /// Oracle time over kernel time (build + unrestricted join).
    pub fn speedup_over_oracle(&self) -> f64 {
        self.oracle_millis / (self.build_millis + self.full_join_millis)
    }

    /// Build time per input edge, in nanoseconds.
    pub fn build_nanos_per_edge(&self) -> f64 {
        self.build_millis * 1e6 / self.edges.max(1) as f64
    }
}

/// The sweep's results plus the host facts needed to read them.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// `std::thread::available_parallelism` on the benchmarking host (the
    /// kernel itself is single-threaded; recorded like every tracked sweep).
    pub available_parallelism: usize,
    /// `git rev-parse HEAD` of the measured checkout (`unknown` outside one;
    /// uncommitted changes are not visible in it).
    pub commit: String,
    /// One entry per input.
    pub inputs: Vec<KernelTiming>,
}

fn best_of_three<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let started = Instant::now();
        let out = f();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("three runs happened"))
}

/// Measures one reducer: the edges of `graph` whose endpoint buckets both
/// occur in `key`, joined for `sample` under `BucketThenIdOrder::new(b)`.
fn measure(
    input: &'static str,
    pattern: &'static str,
    sample: &SampleGraph,
    graph: &DataGraph,
    b: usize,
    key: &[u32],
) -> KernelTiming {
    let order = BucketThenIdOrder::new(b);
    let in_key = |v| key.contains(&(order.bucket(v) as u32));
    let edges: Vec<Edge> = graph
        .edges()
        .iter()
        .copied()
        .filter(|e| in_key(e.lo()) && in_key(e.hi()))
        .collect();
    let one_plan = [sample_plan(sample)];
    let per_cq: Vec<JoinPlan> = cqs_for_sample(sample)
        .iter()
        .map(JoinPlan::compile)
        .collect();

    let (build_millis, local) = best_of_three(|| LocalGraph::build(&edges, &order));
    let quota = BucketQuota::new(&local, &order, key.iter().copied());
    let owned_join = |plans: &[JoinPlan]| {
        let (millis, (candidates, owned)) = best_of_three(|| {
            let (mut candidates, mut owned) = (0u64, 0usize);
            for plan in plans {
                candidates += plan.run(
                    &local,
                    |_, node, bound| quota.admits(node, bound),
                    |_| owned += 1,
                );
            }
            (candidates, owned)
        });
        Join {
            millis,
            candidates,
            owned,
        }
    };
    let full_join = |plans: &[JoinPlan]| {
        let mut assignments = 0usize;
        for plan in plans {
            plan.run(&local, |_, _, _| true, |_| assignments += 1);
        }
        assignments
    };
    let (full_join_millis, assignments) = best_of_three(|| full_join(&one_plan));
    let reducer_graph =
        DataGraph::from_edges(graph.num_nodes(), edges.iter().map(|e| e.endpoints()));
    let started = Instant::now();
    let oracle_count =
        enumerate_generic_into(sample, &reducer_graph, &mut CountSink::new()).outputs;
    let oracle_millis = started.elapsed().as_secs_f64() * 1e3;
    KernelTiming {
        input,
        pattern,
        edges: edges.len(),
        local_nodes: local.num_nodes(),
        local_bytes: local.heap_bytes(),
        build_millis,
        one_plan: owned_join(&one_plan),
        per_cq_plans: per_cq.len(),
        per_cq: owned_join(&per_cq),
        assignments,
        full_join_millis,
        per_cq_assignments: full_join(&per_cq),
        oracle_millis,
        oracle_count,
    }
}

/// Runs the sweep on its fixed-seed inputs.
pub fn kernel_timing() -> KernelReport {
    let triangle_graph = generators::gnm(360_000, 1_200_000, 11);
    let square_graph = generators::gnm(22_000, 110_000, 11);
    // Small enough that the 12 and the 840 per-CQ plans take seconds at most.
    let pentagon_graph = generators::gnm(12_000, 48_000, 11);
    let cube_graph = generators::gnm(2_500, 10_000, 11);
    KernelReport {
        available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        commit: crate::report::workspace_commit(),
        inputs: vec![
            measure(
                "gnm 360k/1.2M, b=6, key {0,1,2}",
                "triangle",
                &catalog::triangle(),
                &triangle_graph,
                6,
                &[0, 1, 2],
            ),
            measure(
                "gnm 22k/110k, b=4, key {0,1,2,3}",
                "square",
                &catalog::square(),
                &square_graph,
                4,
                &[0, 1, 2, 3],
            ),
            measure(
                "gnm 12k/48k, b=3, key {0,0,1,1,2}",
                "c5",
                &catalog::cycle(5),
                &pentagon_graph,
                3,
                &[0, 0, 1, 1, 2],
            ),
            measure(
                "gnm 2.5k/10k, b=2, key {0,0,0,0,1,1,1,1}",
                "hypercube3",
                &catalog::hypercube(3),
                &cube_graph,
                2,
                &[0, 0, 0, 0, 1, 1, 1, 1],
            ),
        ],
    }
}

impl KernelReport {
    /// Renders the sweep as a table.
    pub fn table(&self) -> String {
        let mut table = Table::new(
            "Reduce kernel — one reducer's local-graph build and compiled join",
            &[
                "input",
                "pattern",
                "edges",
                "local nodes",
                "build ms",
                "ns/edge",
                "join ms",
                "candidates",
                "CQs",
                "per-CQ ms",
                "per-CQ cand.",
                "owned",
                "all",
                "full join ms",
                "oracle ms",
                "vs oracle",
            ],
        );
        for t in &self.inputs {
            table.row(&[
                t.input.to_string(),
                t.pattern.to_string(),
                t.edges.to_string(),
                t.local_nodes.to_string(),
                format!("{:.2}", t.build_millis),
                format!("{:.0}", t.build_nanos_per_edge()),
                format!("{:.2}", t.one_plan.millis),
                t.one_plan.candidates.to_string(),
                t.per_cq_plans.to_string(),
                format!("{:.2}", t.per_cq.millis),
                t.per_cq.candidates.to_string(),
                t.one_plan.owned.to_string(),
                t.assignments.to_string(),
                format!("{:.2}", t.full_join_millis),
                format!("{:.1}", t.oracle_millis),
                format!("{:.1}x", t.speedup_over_oracle()),
            ]);
        }
        table.note(
            "join: the pattern's one symmetry-broken plan with the bucket-multiset ownership \
             test pushed into it (what the bucket-oriented reducer runs); per-CQ: the p!/|Aut| \
             plans of Theorem 3.1 under the same test, which find the same instances; owned = \
             instances this reducer emits; full join: the one plan unrestricted, all = its \
             assignments",
        );
        table.note(&format!(
            "oracle: serial::generic::enumerate_generic over the same edges; vs oracle = oracle / \
             (build + full join); single-threaded, best of three, host available_parallelism = \
             {}; written to BENCH_kernel.json",
            self.available_parallelism,
        ));
        table.render()
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"reduce_kernel\",\n");
        out.push_str(&format!(
            "  \"host\": {{ \"available_parallelism\": {}, \"commit\": \"{}\" }},\n",
            self.available_parallelism, self.commit
        ));
        out.push_str("  \"results\": [\n");
        for (i, t) in self.inputs.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"input\": \"{}\", \"pattern\": \"{}\", \"edges\": {}, \"local_nodes\": {}, \
                 \"local_bytes\": {}, \"build_ms\": {:.3}, \"build_ns_per_edge\": {:.1}, \
                 \"join_ms\": {:.3}, \"candidates\": {}, \"per_cq_plans\": {}, \
                 \"per_cq_join_ms\": {:.3}, \"per_cq_candidates\": {}, \
                 \"owned\": {}, \"assignments\": {}, \"full_join_ms\": {:.3}, \"oracle_ms\": {:.3}, \
                 \"speedup_over_oracle\": {:.2} }}{}\n",
                t.input,
                t.pattern,
                t.edges,
                t.local_nodes,
                t.local_bytes,
                t.build_millis,
                t.build_nanos_per_edge(),
                t.one_plan.millis,
                t.one_plan.candidates,
                t.per_cq_plans,
                t.per_cq.millis,
                t.per_cq.candidates,
                t.one_plan.owned,
                t.assignments,
                t.full_join_millis,
                t.oracle_millis,
                t.speedup_over_oracle(),
                if i + 1 == self.inputs.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Path of the tracked benchmark file: `BENCH_kernel.json` at the repo root.
pub fn bench_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernel.json")
}

/// Runs the sweep and writes `BENCH_kernel.json` (validated after writing).
pub fn run_and_record() -> KernelReport {
    let report = kernel_timing();
    let path = bench_json_path();
    std::fs::write(&path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    let written = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot re-read {}: {e}", path.display()));
    crate::shuffle::validate_json(&written)
        .unwrap_or_else(|e| panic!("{} is malformed JSON: {e}", path.display()));
    report
}

/// `local_bytes` of the input labelled `input` in a recorded report.
fn recorded_local_bytes(json: &str, input: &str) -> Option<u64> {
    let row = &json[json.find(&format!("\"input\": \"{input}\""))?..];
    crate::sink_bench::extract_u64_field(row, "local_bytes")
}

/// Why `t` fails the exact half of the gate, if it does: the one plan, the
/// per-CQ plans and the oracle must agree on every count, and the one plan
/// may try no more candidates than the per-CQ plans — as many on the
/// triangle, whose single CQ it compiles to.
fn count_failure(t: &KernelTiming) -> Option<String> {
    if (t.assignments, t.per_cq_assignments) != (t.oracle_count, t.oracle_count) {
        return Some(format!(
            "the one plan found {} {}s, the {} per-CQ plans {}, the oracle {}",
            t.assignments, t.pattern, t.per_cq_plans, t.per_cq_assignments, t.oracle_count,
        ));
    }
    if t.one_plan.owned != t.per_cq.owned {
        return Some(format!(
            "the reducer owns {} instances by the one plan, {} by the per-CQ plans",
            t.one_plan.owned, t.per_cq.owned,
        ));
    }
    let (one, per_cq) = (t.one_plan.candidates, t.per_cq.candidates);
    if one > per_cq || (t.pattern == "triangle" && one != per_cq) {
        return Some(format!(
            "the one plan tried {one} candidates, the {} per-CQ plans {per_cq}",
            t.per_cq_plans,
        ));
    }
    None
}

/// The CI kernel gate. Exact: the counts of [`count_failure`], and no input's
/// local graph larger than the tracked `BENCH_kernel.json` says it was.
/// Relative (release builds): the one plan no slower than the per-CQ plans on
/// any input, and on the square input the kernel at least
/// [`MIN_SPEEDUP_OVER_ORACLE`] times faster than the oracle.
pub fn kernel_gate() -> Result<String, String> {
    let tracked = std::fs::read_to_string(bench_json_path()).unwrap_or_default();
    let report = run_and_record();
    let mut out = report.table();
    for t in &report.inputs {
        let grew = recorded_local_bytes(&tracked, t.input)
            .filter(|&before| t.local_bytes as u64 > before)
            .map(|before| {
                format!(
                    "the local graph grew from {before} to {} heap bytes",
                    t.local_bytes
                )
            });
        // A single CQ's plan is the one plan: nothing to compare but noise.
        let compared = !cfg!(debug_assertions) && t.per_cq_plans > 1;
        let slower = (compared && t.one_plan.millis > t.per_cq.millis).then(|| {
            format!(
                "the one plan took {:.2} ms, the {} per-CQ plans {:.2} ms",
                t.one_plan.millis, t.per_cq_plans, t.per_cq.millis,
            )
        });
        if let Some(why) = grew.or_else(|| count_failure(t)).or(slower) {
            return Err(format!("{out}\nkernel gate FAILED: {} — {why}\n", t.input));
        }
    }
    let ratios: Vec<String> = report
        .inputs
        .iter()
        .map(|t| format!("{} {:.1}x", t.pattern, t.per_cq.millis / t.one_plan.millis))
        .collect();
    let ratios = ratios.join(", ");
    let square = report
        .inputs
        .iter()
        .find(|t| t.pattern == "square")
        .expect("the sweep has a square input");
    let speedup = square.speedup_over_oracle();
    if cfg!(debug_assertions) {
        out.push_str(&format!(
            "\nkernel gate: time bounds skipped in debug builds ({speedup:.1}x the oracle; per-CQ \
             over one plan: {ratios}); counts and candidates checked on all {} inputs\n",
            report.inputs.len(),
        ));
        return Ok(out);
    }
    if speedup < MIN_SPEEDUP_OVER_ORACLE {
        return Err(format!(
            "{out}\nkernel gate FAILED: the compiled kernel is {speedup:.2}x the generic oracle \
             on the square input, below the {MIN_SPEEDUP_OVER_ORACLE}x bound\n",
        ));
    }
    out.push_str(&format!(
        "\nkernel gate passed: {speedup:.1}x the generic oracle on the square input (bound \
         {MIN_SPEEDUP_OVER_ORACLE}x); per-CQ plans over the one plan: {ratios}; counts identical \
         on all {} inputs\n",
        report.inputs.len(),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_reducer_input_matches_the_oracle() {
        let graph = generators::gnm(300, 1_500, 5);
        let t = measure(
            "small",
            "square",
            &catalog::square(),
            &graph,
            3,
            &[0, 1, 1, 2],
        );
        assert_eq!(count_failure(&t), None);
        assert_eq!(t.per_cq_plans, 3);
        assert!(t.one_plan.owned <= t.assignments);
        assert!(t.one_plan.candidates > 0);
        let disagreeing = KernelTiming {
            per_cq_assignments: t.assignments + 1,
            ..t.clone()
        };
        assert!(count_failure(&disagreeing).is_some());
        let bytes = t.local_bytes;
        let report = KernelReport {
            available_parallelism: 1,
            commit: "unknown".to_string(),
            inputs: vec![t],
        };
        let json = report.to_json();
        crate::shuffle::validate_json(&json).expect("valid JSON");
        assert_eq!(recorded_local_bytes(&json, "small"), Some(bytes as u64));
        assert_eq!(recorded_local_bytes(&json, "absent"), None);
        assert!(report.table().contains("vs oracle"));
    }
}
