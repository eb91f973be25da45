//! The reducer join kernel in isolation: one reducer's input, the local-graph
//! build and the compiled join timed separately, against the generic
//! backtracking oracle on the same edges.
//!
//! Each input is exactly what one reducer of a bucket-oriented round
//! receives: the edges the mapper ships to its key (an edge whose endpoints
//! share a bucket only reaches keys holding that bucket twice). The first two
//! are the heaviest reducers of the repo benchmark's rounds: a triangle
//! reducer with three distinct buckets out of six (the sixth of a 1.2M-edge
//! graph whose endpoints hash to two of them) and a square reducer with four
//! distinct buckets out of four (the three quarters of a 110k-edge graph
//! whose endpoints hash apart); a pentagon and a cube reducer (12 and 840
//! order classes) follow. The local graph is built as the reducer builds it,
//! without the edges of nodes below the pattern's minimum degree, and once
//! more with every id multiplied by a stride that puts the range past the
//! ranking bitmap's bound, which forces the hash-interning path. Every input
//! is joined by the reducer's single symmetry-broken plan and by the
//! `p!/|Aut|` per-CQ plans it replaced, kept as the oracle — each under the
//! ownership test alone, and each again with every variable inside its
//! window of local ids ([`BucketQuota::windows`]): the windowed one plan is
//! what the reducer runs, the windowed per-CQ plans are information.
//! `reproduce kernel` prints the table and writes `BENCH_kernel.json`;
//! `reproduce kernel-gate` is the CI form, and is *relative* — the compiled
//! kernel must beat `enumerate_generic` on the square input by
//! [`MIN_SPEEDUP_OVER_ORACLE`], the one plan must not take longer than the
//! per-CQ plans on any input (both under the ownership test alone), and the
//! triangle input's bitmap-ranked build must not take longer than its
//! interned one, so a busy runner slows both sides and cannot flake it — and
//! *exact*: both joins find the same owned and total counts as the oracle
//! over the unfiltered edges, the one plan tries no more candidates than the
//! per-CQ plans under the ownership test alone (the same number on the
//! triangle, whose single CQ it is), each windowed join owns exactly the
//! oracle's instances with this key's bucket multiset and tries no more
//! candidates than its unwindowed twin, and no input's local graph may hold
//! more heap bytes than the tracked `BENCH_kernel.json` records.
//!
//! The serial rows are the same join at b = 1: a k = 1 query over a whole
//! graph, planned and counted, next to the one plan over a local graph of
//! every edge in id order and in Lemma 7.1's degree order, and next to
//! Theorem 7.3's algorithm (the k = 1 pick before `serial-join`), on queries
//! where that algorithm takes under 15 s. The gate holds the triangle on `serial-triangles` and
//! every other row on `serial-join`, every count of a row equal, and (release)
//! the square pick on [`SERIAL_GATE_GRAPH`] at least [`MIN_SERIAL_SPEEDUP`]
//! times faster than Theorem 7.3's algorithm.

use crate::report::Table;
use std::time::Instant;
use subgraph_core::enumerate::bucket_oriented::{sample_plan, BucketQuota};
use subgraph_core::enumerate::KeySpace;
use subgraph_core::plan::{EnumerationRequest, Planner, StrategyKind};
use subgraph_core::serial::enumerate_bounded_degree_into;
use subgraph_core::serial::generic::{enumerate_generic, enumerate_generic_into};
use subgraph_core::sink::CountSink;
use subgraph_cq::{cqs_for_sample, JoinPlan, LocalGraph};
use subgraph_graph::{
    generators, BucketThenIdOrder, DataGraph, DegreeOrder, Edge, GraphSource, IdOrder, NodeOrder,
};
use subgraph_mapreduce::EngineConfig;
use subgraph_pattern::{catalog, Instance, SampleGraph};

/// How much faster than the generic oracle the kernel (build + join) must be
/// on the square input.
pub const MIN_SPEEDUP_OVER_ORACLE: f64 = 3.0;

/// How much faster than Theorem 7.3's algorithm the planner's k = 1 pick must
/// count the squares of [`SERIAL_GATE_GRAPH`].
pub const MIN_SERIAL_SPEEDUP: f64 = 3.0;

/// The graph of the serial gate's square row (the repo benchmark's
/// `square_gnm_kernel` graph at seed 5).
pub const SERIAL_GATE_GRAPH: &str = "gnm:22000,110000,5";

/// The k = 1 queries of the serial rows, graph and pattern: the rows where
/// Theorem 7.3's algorithm takes under 15 s on a 2-core host (`c5` comes
/// closest, at ~14 s).
const SERIAL_ROWS: [(&str, &str); 6] = [
    (SERIAL_GATE_GRAPH, "square"),
    (SERIAL_GATE_GRAPH, "lollipop"),
    ("gnm:40000,200000,7", "c5"),
    ("gnm:40000,200000,7", "pentagon-with-chord"),
    ("gnm:40000,200000,7", "triangle"),
    ("power-law:32000,160000,2.2,5", "triangle"),
];

/// One reducer input, measured.
#[derive(Clone, Debug)]
pub struct KernelTiming {
    /// Row label.
    pub input: &'static str,
    /// Pattern joined.
    pub pattern: &'static str,
    /// Edges the reducer received.
    pub edges: usize,
    /// The pattern's minimum degree, below which the build drops a node.
    pub min_degree: usize,
    /// Distinct nodes among the edges.
    pub unfiltered_nodes: usize,
    /// Nodes the built local graph keeps.
    pub local_nodes: usize,
    /// Heap bytes of the built local graph.
    pub local_bytes: usize,
    /// `LocalGraph::build`, best of up to three (see `best_time`).
    pub build_millis: f64,
    /// The same build over the ids times a stride that forces the interning
    /// path, timed alike.
    pub interned_build_millis: f64,
    /// The reducer's one plan, ownership test pushed in.
    pub one_plan: Join,
    /// The same, every variable inside its window: what the reducer runs.
    pub one_plan_windowed: Join,
    /// How many per-CQ plans the pattern has (`p!/|Aut|`).
    pub per_cq_plans: usize,
    /// Those plans one after the other, the same test pushed in.
    pub per_cq: Join,
    /// The per-CQ plans inside their windows.
    pub per_cq_windowed: Join,
    /// Instances of the oracle whose bucket multiset is the key: what the
    /// reducer must own.
    pub owned_oracle: usize,
    /// Assignments of the unrestricted one-plan join — every instance in the
    /// input.
    pub assignments: usize,
    /// The unrestricted one-plan join, timed alike.
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
    /// Best of up to three runs (see `best_time`).
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

/// One count, timed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Counted {
    /// Best of up to three runs (a run over a second is not repeated).
    pub millis: f64,
    /// Instances found.
    pub count: usize,
    /// The algorithm's own work counter: candidates tried.
    pub work: u64,
}

/// One k = 1 query over a whole graph: the planner's pick against the one
/// symmetry-broken join over a local graph of every edge under each node
/// order, and against Theorem 7.3's algorithm.
#[derive(Clone, Debug)]
pub struct SerialTiming {
    /// Generator spec of the graph.
    pub graph: &'static str,
    /// Catalog pattern.
    pub pattern: &'static str,
    /// What the planner picks at k = 1.
    pub pick: StrategyKind,
    /// The pick, counting on a graph whose index is not yet built (planning
    /// not timed).
    pub pick_run: Counted,
    /// `sample_plan` over the whole graph, nodes in id order (build + join).
    pub id_order: Counted,
    /// The same, nodes in the degree order of Lemma 7.1 (its table included).
    pub degree_order: Counted,
    /// `enumerate_bounded_degree`, the k = 1 pick before `serial-join`.
    pub bounded_degree: Counted,
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
    /// One entry per k = 1 query.
    pub serial: Vec<SerialTiming>,
}

/// Runs `f` up to three times, stopping after a run over one second, and
/// keeps the best time in milliseconds.
fn best_time<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    best_time_after(|| (), |()| f())
}

/// [`best_time`] where every run first prepares its own input with `setup`,
/// outside the timing.
fn best_time_after<S, T>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let input = setup();
        let started = Instant::now();
        last = Some(f(input));
        let millis = started.elapsed().as_secs_f64() * 1e3;
        best = best.min(millis);
        if millis > 1e3 {
            break;
        }
    }
    (best, last.expect("one run happened"))
}

/// [`best_time`] of a count that returns its instances and its work.
fn counted(count: impl FnMut() -> (usize, u64)) -> Counted {
    let (millis, (count, work)) = best_time(count);
    Counted {
        millis,
        count,
        work,
    }
}

/// The one plan of `sample` over a local graph of every edge of `graph`
/// under `order`: instances and candidates tried.
fn whole_graph_join<O: NodeOrder>(
    sample: &SampleGraph,
    graph: &DataGraph,
    order: &O,
) -> (usize, u64) {
    let plan = sample_plan(sample);
    let local = LocalGraph::build(graph.edges(), order, plan.min_degree());
    let mut count = 0;
    let work = plan.run(&local, |_, _, _| true, |_| count += 1);
    (count, work)
}

/// Measures the k = 1 query of `pattern` over the graph `spec` describes.
///
/// # Panics
/// Panics if the spec or the pattern does not resolve, or the planner
/// refuses the query.
fn measure_serial(spec: &'static str, pattern: &'static str) -> SerialTiming {
    let graph = GraphSource::parse_generator(spec)
        .and_then(|source| source.load())
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    let sample = catalog::by_name(pattern).unwrap_or_else(|| panic!("{pattern} is in the catalog"));
    fn request<'g>(sample: &SampleGraph, graph: &'g DataGraph) -> EnumerationRequest<'g> {
        EnumerationRequest::new(sample.clone(), graph)
            .reducers(1)
            .engine(EngineConfig::serial())
    }
    // Planning `serial-triangles` builds the graph's cached degree-ordered
    // index, which its run then reuses; every other column builds its local
    // graph inside the timing. So each timed run of the pick gets a copy of
    // the graph taken before any plan indexed it, and resumes the plan on it.
    let unindexed = graph.clone();
    let chosen = (request(&sample, &graph).plan())
        .unwrap_or_else(|e| panic!("{pattern} on {spec}: {e}"))
        .chosen()
        .clone();
    let (millis, (count, work)) = best_time_after(
        || unindexed.clone(),
        |cold| {
            let report = Planner::new()
                .resume(request(&sample, &cold), chosen.clone(), Vec::new())
                .count();
            (report.count(), report.work)
        },
    );
    SerialTiming {
        graph: spec,
        pattern,
        pick: chosen.strategy,
        pick_run: Counted {
            millis,
            count,
            work,
        },
        id_order: counted(|| whole_graph_join(&sample, &graph, &IdOrder)),
        degree_order: counted(|| whole_graph_join(&sample, &graph, &DegreeOrder::new(&graph))),
        bounded_degree: counted(|| {
            let stats = enumerate_bounded_degree_into(&sample, &graph, &mut CountSink::new());
            (stats.outputs, stats.work)
        }),
    }
}

/// `edges` with every id multiplied by the least power-of-two stride that
/// makes [`LocalGraph::build`] intern them instead of ranking by bitmap.
///
/// # Panics
/// Panics if no stride keeps the ids within `u32`.
fn strided_past_bitmap(edges: &[Edge]) -> Vec<Edge> {
    let mut stride = 2u32;
    loop {
        let strided: Vec<Edge> = edges
            .iter()
            .map(|e| {
                let spread = |v: u32| v.checked_mul(stride).expect("strided ids fit a u32");
                Edge::new(spread(e.lo()), spread(e.hi()))
            })
            .collect();
        if !LocalGraph::ranks_by_bitmap(&strided) {
            return strided;
        }
        stride *= 2;
    }
}

/// Measures one reducer of the bucket-oriented round for `sample` over
/// `graph` with `b` buckets: the one whose key holds the buckets `key`
/// (non-decreasing), fed the edges the mapper ships to it.
fn measure(
    input: &'static str,
    pattern: &'static str,
    sample: &SampleGraph,
    graph: &DataGraph,
    b: usize,
    key: &[u32],
) -> KernelTiming {
    let order = BucketThenIdOrder::new(b);
    let space = KeySpace::multisets(b, key.len()).expect("a measured key space exists");
    let rank = space.rank(key);
    let ships_here = |e: &Edge| {
        let bucket = |v| order.bucket(v) as u32;
        (space.destinations(bucket(e.lo()), bucket(e.hi())))
            .binary_search(&rank)
            .is_ok()
    };
    let edges: Vec<Edge> = graph.edges().iter().copied().filter(ships_here).collect();
    let one_plan = [sample_plan(sample)];
    let per_cq: Vec<JoinPlan> = cqs_for_sample(sample)
        .iter()
        .map(JoinPlan::compile)
        .collect();
    let min_degree = one_plan[0].min_degree();

    let (build_millis, local) = best_time(|| LocalGraph::build(&edges, &order, min_degree));
    let strided = strided_past_bitmap(&edges);
    let (interned_build_millis, _) = best_time(|| LocalGraph::build(&strided, &order, min_degree));
    let quota = BucketQuota::new(&local, &order, key.iter().copied());
    let owned_join = |plans: &[JoinPlan], windowed: bool| {
        let (millis, (candidates, owned)) = best_time(|| {
            let (mut candidates, mut owned) = (0u64, 0usize);
            for plan in plans {
                let admit = |_, node, bound: &[u32]| quota.admits(node, bound);
                candidates += if windowed {
                    plan.run_within(&local, &quota.windows(plan), admit, |_| owned += 1)
                } else {
                    plan.run(&local, admit, |_| owned += 1)
                };
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
    let (full_join_millis, assignments) = best_time(|| full_join(&one_plan));
    let reducer_graph =
        DataGraph::from_edges(graph.num_nodes(), edges.iter().map(|e| e.endpoints()));
    let started = Instant::now();
    let oracle_count =
        enumerate_generic_into(sample, &reducer_graph, &mut CountSink::new()).outputs;
    let oracle_millis = started.elapsed().as_secs_f64() * 1e3;
    let key_multiset = |instance: &Instance| {
        let mut buckets: Vec<u32> = (instance.nodes().iter())
            .map(|&v| order.bucket(v) as u32)
            .collect();
        buckets.sort_unstable();
        buckets == key
    };
    let owned_oracle = (enumerate_generic(sample, &reducer_graph).into_instances())
        .iter()
        .filter(|instance| key_multiset(instance))
        .count();
    KernelTiming {
        input,
        pattern,
        edges: edges.len(),
        min_degree,
        unfiltered_nodes: LocalGraph::build(&edges, &order, 0).num_nodes(),
        local_nodes: local.num_nodes(),
        local_bytes: local.heap_bytes(),
        build_millis,
        interned_build_millis,
        one_plan: owned_join(&one_plan, false),
        one_plan_windowed: owned_join(&one_plan, true),
        per_cq_plans: per_cq.len(),
        per_cq: owned_join(&per_cq, false),
        per_cq_windowed: owned_join(&per_cq, true),
        owned_oracle,
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
        serial: (SERIAL_ROWS.iter())
            .map(|&(spec, pattern)| measure_serial(spec, pattern))
            .collect(),
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
                "nodes",
                "min deg",
                "kept",
                "build ms",
                "ns/edge",
                "interned ms",
                "join ms",
                "candidates",
                "win. ms",
                "win. cand.",
                "CQs",
                "per-CQ ms",
                "per-CQ cand.",
                "per-CQ win. ms",
                "per-CQ win. cand.",
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
                t.unfiltered_nodes.to_string(),
                t.min_degree.to_string(),
                t.local_nodes.to_string(),
                format!("{:.2}", t.build_millis),
                format!("{:.0}", t.build_nanos_per_edge()),
                format!("{:.2}", t.interned_build_millis),
                format!("{:.2}", t.one_plan.millis),
                t.one_plan.candidates.to_string(),
                format!("{:.2}", t.one_plan_windowed.millis),
                t.one_plan_windowed.candidates.to_string(),
                t.per_cq_plans.to_string(),
                format!("{:.2}", t.per_cq.millis),
                t.per_cq.candidates.to_string(),
                format!("{:.2}", t.per_cq_windowed.millis),
                t.per_cq_windowed.candidates.to_string(),
                t.one_plan.owned.to_string(),
                t.assignments.to_string(),
                format!("{:.2}", t.full_join_millis),
                format!("{:.1}", t.oracle_millis),
                format!("{:.1}x", t.speedup_over_oracle()),
            ]);
        }
        table.note(
            "edges: what the mapper ships to the key; kept: the nodes left after dropping every \
             edge with an endpoint of degree below the pattern's minimum (the build the reducer \
             runs, bitmap-ranked); interned ms: the same build over ids times a stride past the \
             bitmap's bound, which interns them",
        );
        table.note(
            "join: the pattern's one symmetry-broken plan with the bucket-multiset ownership \
             test pushed into it; per-CQ: the p!/|Aut| plans of Theorem 3.1 under the same \
             test, which find the same instances; win.: the same joins with each variable bound \
             only inside the local ids its key allows (the windowed one plan is what the \
             bucket-oriented reducer runs); owned = instances this reducer emits; full join: \
             the one plan unrestricted, all = its assignments",
        );
        table.note(&format!(
            "oracle: serial::generic::enumerate_generic over the same edges; vs oracle = oracle / \
             (build + full join); single-threaded, best of three (a run over 1 s not repeated), host available_parallelism = \
             {}; written to BENCH_kernel.json",
            self.available_parallelism,
        ));
        let mut out = table.render();
        out.push('\n');
        out.push_str(&self.serial_table());
        out
    }

    /// Renders the k = 1 rows as a table.
    fn serial_table(&self) -> String {
        let mut table = Table::new(
            "Serial kernel — k = 1: the planner's pick, the one plan over the whole graph, \
             Theorem 7.3",
            &[
                "graph",
                "pattern",
                "k = 1 pick",
                "pick ms",
                "id-order ms",
                "id-order cand.",
                "pick / id-order",
                "degree-order ms",
                "degree-order cand.",
                "Thm 7.3 ms",
                "Thm 7.3 work",
                "instances",
            ],
        );
        for s in &self.serial {
            table.row(&[
                s.graph.to_string(),
                s.pattern.to_string(),
                s.pick.to_string(),
                format!("{:.1}", s.pick_run.millis),
                format!("{:.1}", s.id_order.millis),
                s.id_order.work.to_string(),
                format!("{:.2}", s.pick_run.millis / s.id_order.millis),
                format!("{:.1}", s.degree_order.millis),
                s.degree_order.work.to_string(),
                format!("{:.1}", s.bounded_degree.millis),
                s.bounded_degree.work.to_string(),
                s.pick_run.count.to_string(),
            ]);
        }
        table.note(
            "every column includes its build: pick: the planned k = 1 query counting on a \
             graph whose degree-ordered index is not yet built (planning not timed); id-order / \
             degree-order: the pattern's one symmetry-broken plan over a local graph of every \
             edge, nodes ranked by id or by Lemma 7.1's degree order (build + join; cand. = \
             candidates tried; pick / id-order < 1: the pick is the faster); Thm 7.3: \
             serial::enumerate_bounded_degree, the k = 1 pick \
             before serial-join; one thread, best of three, a run over 1 s not repeated; every \
             count must agree (the b = 1 data point of the convertibility argument)",
        );
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
                "    {{ \"input\": \"{}\", \"pattern\": \"{}\", \"edges\": {}, \"min_degree\": {}, \
                 \"unfiltered_nodes\": {}, \"local_nodes\": {}, \"local_bytes\": {}, \
                 \"build_ms\": {:.3}, \"build_ns_per_edge\": {:.1}, \"interned_build_ms\": {:.3}, \
                 \"join_ms\": {:.3}, \"candidates\": {}, \"windowed_join_ms\": {:.3}, \
                 \"windowed_candidates\": {}, \"per_cq_plans\": {}, \
                 \"per_cq_join_ms\": {:.3}, \"per_cq_candidates\": {}, \
                 \"per_cq_windowed_join_ms\": {:.3}, \"per_cq_windowed_candidates\": {}, \
                 \"owned\": {}, \"owned_oracle\": {}, \"assignments\": {}, \"full_join_ms\": {:.3}, \
                 \"oracle_ms\": {:.3}, \"speedup_over_oracle\": {:.2} }}{}\n",
                t.input,
                t.pattern,
                t.edges,
                t.min_degree,
                t.unfiltered_nodes,
                t.local_nodes,
                t.local_bytes,
                t.build_millis,
                t.build_nanos_per_edge(),
                t.interned_build_millis,
                t.one_plan.millis,
                t.one_plan.candidates,
                t.one_plan_windowed.millis,
                t.one_plan_windowed.candidates,
                t.per_cq_plans,
                t.per_cq.millis,
                t.per_cq.candidates,
                t.per_cq_windowed.millis,
                t.per_cq_windowed.candidates,
                t.one_plan.owned,
                t.owned_oracle,
                t.assignments,
                t.full_join_millis,
                t.oracle_millis,
                t.speedup_over_oracle(),
                if i + 1 == self.inputs.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"serial\": [\n");
        let counted = |name: &str, c: Counted| {
            format!(
                "\"{name}_ms\": {:.3}, \"{name}_count\": {}, \"{name}_work\": {}",
                c.millis, c.count, c.work
            )
        };
        for (i, t) in self.serial.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"graph\": \"{}\", \"pattern\": \"{}\", \"pick\": \"{}\", {}, {}, {}, {} }}{}\n",
                t.graph,
                t.pattern,
                t.pick,
                counted("pick", t.pick_run),
                counted("id_order", t.id_order),
                counted("degree_order", t.degree_order),
                counted("bounded_degree", t.bounded_degree),
                if i + 1 == self.serial.len() { "" } else { "," },
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
    crate::report::write_tracked_json(&bench_json_path(), &report.to_json());
    report
}

/// `local_bytes` of the input labelled `input` in a recorded report.
fn recorded_local_bytes(json: &str, input: &str) -> Option<u64> {
    let row = &json[json.find(&format!("\"input\": \"{input}\""))?..];
    crate::report::extract_u64_field(row, "local_bytes")
}

/// The tracked-size half of the gate for one input: `Err` when its local
/// graph holds more heap bytes than the recorded report `tracked` says it
/// did, a skip line when `tracked` has no row for it, nothing when it fits.
fn local_bytes_check(tracked: &str, t: &KernelTiming) -> Result<Option<String>, String> {
    match recorded_local_bytes(tracked, t.input) {
        None => Ok(Some(format!(
            "local_bytes check skipped for {}: no recorded row\n",
            t.input
        ))),
        Some(before) if t.local_bytes as u64 > before => Err(format!(
            "the local graph grew from {before} to {} heap bytes",
            t.local_bytes
        )),
        Some(_) => Ok(None),
    }
}

/// Why `t` fails the exact half of the gate, if it does: the one plan, the
/// per-CQ plans and the oracle must agree on every count, and the one plan
/// may try no more candidates than the per-CQ plans — as many on the
/// triangle, whose single CQ it compiles to — with the ownership test alone;
/// then [`window_failure`].
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
    window_failure(t)
}

/// Why the windowed joins of `t` fail the exact half of the gate, if they
/// do: each must own exactly what the ownership test alone owns — the
/// oracle's instances with the key's bucket multiset — and try no more
/// candidates than without its windows.
fn window_failure(t: &KernelTiming) -> Option<String> {
    for (what, windowed, alone) in [
        ("the one plan", t.one_plan_windowed, t.one_plan),
        ("the per-CQ plans", t.per_cq_windowed, t.per_cq),
    ] {
        if (windowed.owned, alone.owned) != (t.owned_oracle, t.owned_oracle) {
            return Some(format!(
                "{what} own {} instances windowed, {} without windows; the oracle has {} with \
                 the key's buckets",
                windowed.owned, alone.owned, t.owned_oracle,
            ));
        }
        if windowed.candidates > alone.candidates {
            return Some(format!(
                "{what} tried {} candidates windowed, {} without windows",
                windowed.candidates, alone.candidates,
            ));
        }
    }
    None
}

/// Why a k = 1 row fails the exact half of the gate, if it does: the
/// triangle must still pick `serial-triangles`, every other pattern
/// `serial-join`, and every count of the row must agree.
fn serial_failure(s: &SerialTiming) -> Option<String> {
    let expected = match s.pattern {
        "triangle" => StrategyKind::SerialTriangles,
        _ => StrategyKind::SerialJoin,
    };
    if s.pick != expected {
        return Some(format!("the k = 1 pick is {}, not {expected}", s.pick));
    }
    let counts = [s.id_order, s.degree_order, s.bounded_degree];
    if counts.iter().any(|c| c.count != s.pick_run.count) {
        return Some(format!(
            "the pick counted {}, the one plan {} by id and {} by degree, Theorem 7.3 {}",
            s.pick_run.count, s.id_order.count, s.degree_order.count, s.bounded_degree.count,
        ));
    }
    None
}

/// The serial gate's square row and its pick's speedup over Theorem 7.3's
/// algorithm.
fn serial_speedup(report: &KernelReport) -> Result<f64, String> {
    let square = (report.serial.iter())
        .find(|s| (s.graph, s.pattern) == (SERIAL_GATE_GRAPH, "square"))
        .ok_or("the sweep has no square row on the serial gate's graph")?;
    Ok(square.bounded_degree.millis / square.pick_run.millis)
}

/// The CI kernel gate. Exact: the counts of `count_failure`, and no input's
/// local graph larger than the tracked `BENCH_kernel.json` says it was
/// (`local_bytes_check`; a missing or unreadable file fails the gate).
/// Exact on the k = 1 rows: the picks and counts of `serial_failure`.
/// Relative (release builds): the one plan no slower than the per-CQ plans on
/// any input, on the square input the kernel at least
/// [`MIN_SPEEDUP_OVER_ORACLE`] times faster than the oracle, the triangle
/// input's bitmap-ranked build no slower than its interned one, and the k = 1
/// pick at least [`MIN_SERIAL_SPEEDUP`] times faster than Theorem 7.3's
/// algorithm on the squares of [`SERIAL_GATE_GRAPH`].
pub fn kernel_gate() -> Result<String, String> {
    let path = bench_json_path();
    let tracked = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "kernel gate FAILED: cannot read the tracked {} ({e}); its local_bytes are what \
             the gate compares against\n",
            path.display()
        )
    })?;
    let report = run_and_record();
    let mut out = report.table();
    for t in &report.inputs {
        let grew = match local_bytes_check(&tracked, t) {
            Ok(skipped) => {
                out.push_str(skipped.as_deref().unwrap_or(""));
                None
            }
            Err(why) => Some(why),
        };
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
    for s in &report.serial {
        if let Some(why) = serial_failure(s) {
            return Err(format!(
                "{out}\nkernel gate FAILED: {} on {} at k = 1 — {why}\n",
                s.pattern, s.graph
            ));
        }
    }
    let serial_speedup =
        serial_speedup(&report).map_err(|why| format!("{out}\nkernel gate FAILED: {why}\n"))?;
    let ratios: Vec<String> = report
        .inputs
        .iter()
        .map(|t| format!("{} {:.1}x", t.pattern, t.per_cq.millis / t.one_plan.millis))
        .collect();
    let ratios = ratios.join(", ");
    let cuts: Vec<String> = report
        .inputs
        .iter()
        .map(|t| {
            let cut =
                1.0 - t.one_plan_windowed.candidates as f64 / t.one_plan.candidates.max(1) as f64;
            format!("{} {:.0}%", t.pattern, 100.0 * cut)
        })
        .collect();
    let cuts = cuts.join(", ");
    let square = report
        .inputs
        .iter()
        .find(|t| t.pattern == "square")
        .expect("the sweep has a square input");
    let speedup = square.speedup_over_oracle();
    let triangle = report
        .inputs
        .iter()
        .find(|t| t.pattern == "triangle")
        .expect("the sweep has a triangle input");
    let (bitmap, interned) = (triangle.build_millis, triangle.interned_build_millis);
    if cfg!(debug_assertions) {
        out.push_str(&format!(
            "\nkernel gate: time bounds skipped in debug builds ({speedup:.1}x the oracle; per-CQ \
             over one plan: {ratios}; triangle build {bitmap:.2} ms bitmap-ranked, {interned:.2} ms \
             interned; windows cut the one plan's candidates by {cuts}; the k = 1 square pick \
             {serial_speedup:.1}x Theorem 7.3); counts and candidates checked on all {} inputs \
             and {} k = 1 rows\n",
            report.inputs.len(),
            report.serial.len(),
        ));
        return Ok(out);
    }
    if speedup < MIN_SPEEDUP_OVER_ORACLE {
        return Err(format!(
            "{out}\nkernel gate FAILED: the compiled kernel is {speedup:.2}x the generic oracle \
             on the square input, below the {MIN_SPEEDUP_OVER_ORACLE}x bound\n",
        ));
    }
    if bitmap > interned {
        return Err(format!(
            "{out}\nkernel gate FAILED: the triangle input's bitmap-ranked build took {bitmap:.2} \
             ms, the same edges interned {interned:.2} ms\n",
        ));
    }
    if serial_speedup < MIN_SERIAL_SPEEDUP {
        return Err(format!(
            "{out}\nkernel gate FAILED: the k = 1 pick counts the squares of {SERIAL_GATE_GRAPH} \
             {serial_speedup:.2}x faster than Theorem 7.3's algorithm, below the \
             {MIN_SERIAL_SPEEDUP}x bound\n",
        ));
    }
    out.push_str(&format!(
        "\nkernel gate passed: {speedup:.1}x the generic oracle on the square input (bound \
         {MIN_SPEEDUP_OVER_ORACLE}x); per-CQ plans over the one plan: {ratios}; triangle build \
         {:.2}x the interned one; windows cut the one plan's candidates by {cuts}; the k = 1 \
         square pick {serial_speedup:.1}x Theorem 7.3 (bound {MIN_SERIAL_SPEEDUP}x); counts \
         identical on all {} inputs and {} k = 1 rows, the triangle still serial-triangles\n",
        bitmap / interned,
        report.inputs.len(),
        report.serial.len(),
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
        assert_eq!(t.min_degree, 2);
        assert!(t.local_nodes <= t.unfiltered_nodes);
        assert!(t.one_plan.owned <= t.assignments);
        assert!(t.one_plan.candidates > 0);
        assert_eq!(t.owned_oracle, t.one_plan.owned);
        assert!(t.one_plan_windowed.candidates <= t.one_plan.candidates);
        let disagreeing = KernelTiming {
            per_cq_assignments: t.assignments + 1,
            ..t.clone()
        };
        assert!(count_failure(&disagreeing).is_some());
        let mut lost_one = t.clone();
        lost_one.per_cq_windowed.owned -= 1;
        assert!(count_failure(&lost_one).is_some());
        let mut tried_more = t.clone();
        tried_more.one_plan_windowed.candidates = t.one_plan.candidates + 1;
        assert!(count_failure(&tried_more).is_some());
        let bytes = t.local_bytes;
        let report = KernelReport {
            available_parallelism: 1,
            commit: "unknown".to_string(),
            inputs: vec![t],
            serial: Vec::new(),
        };
        let json = report.to_json();
        crate::report::validate_json(&json).expect("valid JSON");
        assert_eq!(recorded_local_bytes(&json, "small"), Some(bytes as u64));
        assert_eq!(recorded_local_bytes(&json, "absent"), None);
        let t = &report.inputs[0];
        assert_eq!(local_bytes_check(&json, t), Ok(None));
        let grown = KernelTiming {
            local_bytes: bytes + 1,
            ..t.clone()
        };
        let err = local_bytes_check(&json, &grown).unwrap_err();
        assert!(
            err.contains(&format!("grew from {bytes} to {}", bytes + 1)),
            "{err}"
        );
        let elsewhere = KernelTiming {
            input: "absent",
            ..t.clone()
        };
        assert_eq!(
            local_bytes_check(&json, &elsewhere),
            Ok(Some(
                "local_bytes check skipped for absent: no recorded row\n".to_string()
            ))
        );
        assert!(report.table().contains("vs oracle"));
    }

    #[test]
    fn a_small_serial_row_agrees_with_theorem_7_3() {
        let square = measure_serial("gnm:300,1500,5", "square");
        assert_eq!(square.pick, StrategyKind::SerialJoin);
        assert!(square.pick_run.count > 0);
        assert_eq!(serial_failure(&square), None);
        let miscounted = SerialTiming {
            bounded_degree: Counted {
                count: square.bounded_degree.count + 1,
                ..square.bounded_degree
            },
            ..square.clone()
        };
        assert!(serial_failure(&miscounted).is_some());
        let triangle = measure_serial("gnm:300,1500,5", "triangle");
        assert_eq!(triangle.pick, StrategyKind::SerialTriangles);
        assert_eq!(serial_failure(&triangle), None);
        let demoted = SerialTiming {
            pick: StrategyKind::SerialJoin,
            ..triangle.clone()
        };
        assert!(serial_failure(&demoted).is_some());
        let report = KernelReport {
            available_parallelism: 1,
            commit: "unknown".to_string(),
            inputs: Vec::new(),
            serial: vec![square, triangle],
        };
        crate::report::validate_json(&report.to_json()).expect("valid JSON");
        assert!(report.table().contains("serial-triangles"));
        // The gate's square row is on another graph.
        assert!(serial_speedup(&report).is_err());
    }

    #[test]
    fn a_reducer_gets_what_the_mapper_ships_it() {
        // Key {0, 1, 2} holds each bucket once: the mapper ships it no edge
        // whose endpoints share a bucket, though both buckets are in the key.
        let graph = generators::gnm(300, 1_500, 6);
        let order = BucketThenIdOrder::new(3);
        let t = measure(
            "small",
            "triangle",
            &catalog::triangle(),
            &graph,
            3,
            &[0, 1, 2],
        );
        let apart = (graph.edges().iter())
            .filter(|e| order.bucket(e.lo()) != order.bucket(e.hi()))
            .count();
        assert_eq!(t.edges, apart);
        assert_eq!(count_failure(&t), None);
    }

    #[test]
    fn a_stride_forces_the_interning_path() {
        let edges = generators::gnm(300, 1_500, 7).edges().to_vec();
        assert!(LocalGraph::ranks_by_bitmap(&edges));
        let strided = strided_past_bitmap(&edges);
        assert!(!LocalGraph::ranks_by_bitmap(&strided));
        let order = BucketThenIdOrder::new(4);
        let (local, spread) = (
            LocalGraph::build(&edges, &order, 2),
            LocalGraph::build(&strided, &order, 2),
        );
        assert_eq!(local.num_nodes(), spread.num_nodes());
        assert_eq!(local.num_edges(), spread.num_edges());
    }
}
