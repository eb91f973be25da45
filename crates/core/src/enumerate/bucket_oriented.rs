//! Bucket-oriented processing (Section 4.5): the hash-ordered scheme of
//! Section 2.3 generalized to arbitrary sample graphs.
//!
//! Every variable uses the *same* number of buckets `b` and the *same* hash
//! function; nodes are ordered by (bucket, identifier). A reducer exists for
//! every non-decreasing sequence of `p` bucket numbers. The mapper sends edge
//! `(u, v)` to every reducer whose multiset contains the buckets of both
//! endpoints — `C(b + p − 3, p − 2)` reducers per edge. Each reducer evaluates
//! all CQs on its local subgraph and emits a solution only if the multiset of
//! its nodes' buckets equals the reducer's key, which makes every instance
//! come out of exactly one reducer. That ownership test is pushed into the
//! join: a variable may bind to a node only while the buckets bound so far
//! stay a sub-multiset of the key, so partial matches another reducer owns
//! are cut at the first node that gives them away.
//!
//! "All CQs" is one join, not `p!/|Aut|`: a reducer holds every edge among
//! its nodes in whatever orientation, so the union of the Theorem 3.1 order
//! classes — every injective assignment, once per automorphism orbit — is one
//! match over unoriented edges under the group's symmetry-breaking
//! comparisons ([`sample_plan`]). Variable- and CQ-oriented reducers cannot
//! do the same: their mappers ship an edge only in the orientations their
//! queries use (Section 4.3), so another transversal of the orbits could
//! need a record that was never sent.

use super::KeySpace;
use crate::result::{MapReduceRun, RunStats};
use crate::sink::{CollectSink, InstanceSink};
use subgraph_cq::{ConjunctiveQuery, JoinPlan, LocalGraph};
use subgraph_graph::{BucketThenIdOrder, DataGraph, Edge};
use subgraph_mapreduce::{EngineConfig, MapContext, Pipeline, ReduceContext, Round};
use subgraph_pattern::{automorphism_group, Instance, PatternNode, SampleGraph};

/// Bytes one shuffled record occupies for a `p`-variable bucket-multiset key
/// plus an edge value — shared by the engine weigher and the planner's byte
/// prediction, so predicted and measured `shuffle_bytes` agree exactly. The
/// key is *priced* as its `p` logical `u32` coordinates, not as the reducer
/// index the shuffle really carries ([`KeySpace`]), so the planner's predicted
/// byte costs do not depend on the encoding.
pub(crate) fn vec_key_record_bytes(p: usize) -> usize {
    p * std::mem::size_of::<u32>() + std::mem::size_of::<Edge>()
}

/// The mapper of the bucket-multiset rounds: `edge` goes to every reducer
/// whose multiset holds the buckets of both endpoints.
pub(crate) fn ship_by_endpoint_buckets(
    space: &KeySpace,
    order: &BucketThenIdOrder,
    edge: &Edge,
    ctx: &mut MapContext<u32, Edge>,
) {
    let bu = order.bucket(edge.lo()) as u32;
    let bv = order.bucket(edge.hi()) as u32;
    for &key in space.destinations(bu, bv) {
        ctx.emit(key, *edge);
    }
}

/// The ownership test of one bucket-oriented reducer, in the form the join
/// kernel's `admit` hook takes: a node may be bound only while the buckets of
/// the nodes bound so far, plus its own, stay a sub-multiset of the reducer's
/// key. A full assignment that passes uses the key up exactly — the paper's
/// "emit only if the bucket multiset equals the key" — and a partial one that
/// another reducer owns is cut at the first node that gives it away.
pub struct BucketQuota {
    /// Bucket of each local node.
    bucket_of: Vec<u32>,
    /// How often each bucket occurs in the key.
    quota: Vec<usize>,
}

impl BucketQuota {
    /// The test for the reducer whose key holds the buckets `key`, over the
    /// local graph it built under `order`.
    pub fn new(
        local: &LocalGraph,
        order: &BucketThenIdOrder,
        key: impl IntoIterator<Item = u32>,
    ) -> Self {
        let mut quota = vec![0; order.num_buckets()];
        for bucket in key {
            quota[bucket as usize] += 1;
        }
        // Local ids ascend in (bucket, id) order, so each bucket is one run of
        // `nodes()`: hash the run's first node, find its end by bisection.
        let nodes = local.nodes();
        let mut bucket_of = Vec::with_capacity(nodes.len());
        while bucket_of.len() < nodes.len() {
            let rest = &nodes[bucket_of.len()..];
            let bucket = order.bucket(rest[0]);
            let run = rest.partition_point(|&v| order.bucket(v) == bucket);
            bucket_of.resize(bucket_of.len() + run, bucket as u32);
        }
        BucketQuota { bucket_of, quota }
    }

    /// May `node` join the local nodes in `bound`?
    #[inline]
    pub fn admits(&self, node: u32, bound: &[u32]) -> bool {
        let bucket = self.bucket_of[node as usize];
        let used = bound
            .iter()
            .filter(|&&v| self.bucket_of[v as usize] == bucket)
            .count();
        used < self.quota[bucket as usize]
    }
}

/// The one join a bucket-oriented reducer runs for `sample`: its edges,
/// unoriented, under the symmetry-breaking comparisons of its group.
pub fn sample_plan(sample: &SampleGraph) -> JoinPlan {
    let lts = automorphism_group(sample).symmetry_breaking();
    JoinPlan::compile_unoriented(sample.num_nodes(), sample.edges(), &lts)
}

/// Runs bucket-oriented enumeration of `sample` over `graph` with `b`
/// buckets, streaming every instance into `sink`.
///
/// This is the internal runner behind
/// [`crate::plan::StrategyKind::BucketOriented`]; external callers go through
/// the planner, which also derives `b` from a reducer budget.
pub(crate) fn run_bucket_oriented(
    sample: &SampleGraph,
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    let space = KeySpace::multisets(b, sample.num_nodes())
        .expect("the planner offers bucket-oriented processing only where its key space exists");
    // `sample_plan`, keeping what the run report says about it.
    let group = automorphism_group(sample);
    let lts = group.symmetry_breaking();
    let plan = JoinPlan::compile_unoriented(sample.num_nodes(), sample.edges(), &lts);
    let mut stats = run_plans(space, b, std::slice::from_ref(&plan), graph, config, sink);
    stats.reducer_join = Some(describe_join(&plan, &lts, group.order_classes()));
    stats
}

/// `1 plan for 3 order classes, bind X0 X1 X3 X2, X0<X1 X0<X2 X0<X3 X1<X3`.
fn describe_join(plan: &JoinPlan, lts: &[(PatternNode, PatternNode)], classes: u128) -> String {
    let spaced = |words: Vec<String>| words.join(" ");
    let mut line = format!(
        "1 plan for {classes} order class{}, bind {}",
        if classes == 1 { "" } else { "es" },
        spaced(
            plan.binding_order()
                .iter()
                .map(|v| format!("X{v}"))
                .collect()
        ),
    );
    if !lts.is_empty() {
        line.push_str(", ");
        line.push_str(&spaced(
            lts.iter().map(|(a, b)| format!("X{a}<X{b}")).collect(),
        ));
    }
    line
}

/// The same round with an explicit CQ collection, each query its own join
/// (the cycle CQs of Section 5 plug in here directly; an empty collection is
/// the shuffle and the local-graph builds with nothing joined), collecting
/// the instances.
///
/// # Panics
/// Panics with the [`super::KeySpaceError`] text when no key space exists for
/// `b` buckets and `p` variables.
pub fn bucket_oriented_with_cqs(
    p: usize,
    cqs: &[ConjunctiveQuery],
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
) -> MapReduceRun {
    let mut collected = CollectSink::new();
    let stats = bucket_oriented_with_cqs_into(p, cqs, graph, b, config, &mut collected);
    stats.into_run(collected.into_items())
}

/// Streaming variant of [`bucket_oriented_with_cqs`]: the final reducers feed
/// `sink` directly through the engine's sharded delivery.
pub fn bucket_oriented_with_cqs_into(
    p: usize,
    cqs: &[ConjunctiveQuery],
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    let space = KeySpace::multisets(b, p).unwrap_or_else(|e| panic!("bucket-oriented round: {e}"));
    let plans: Vec<JoinPlan> = cqs.iter().map(JoinPlan::compile).collect();
    run_plans(space, b, &plans, graph, config, sink)
}

/// The round itself: every reducer of `space`, the multisets over `b`
/// buckets, builds its local graph and runs each of `plans` over it under its
/// ownership test.
fn run_plans(
    space: KeySpace,
    b: usize,
    plans: &[JoinPlan],
    graph: &DataGraph,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    let order = BucketThenIdOrder::new(b);

    let mapper = |edge: &Edge, ctx: &mut MapContext<u32, Edge>| {
        ship_by_endpoint_buckets(&space, &order, edge, ctx)
    };

    let reducer = |key: &u32, edges: &[Edge], ctx: &mut ReduceContext<Instance>| {
        let local = LocalGraph::build(edges, &order);
        let mut work = edges.len() as u64;
        let owned = BucketQuota::new(&local, &order, space.coords(*key));
        for plan in plans {
            work += plan.run(
                &local,
                |_, node, bound| owned.admits(node, bound),
                |assignment| ctx.emit(plan.instance(&local, assignment)),
            );
        }
        ctx.add_work(work);
    };

    let record_bytes = vec_key_record_bytes(space.width());
    let report = Pipeline::new()
        .round(
            Round::new("bucket-oriented", mapper, reducer)
                .record_bytes(move |_: &u32, _: &Edge| record_bytes),
        )
        .run_with_sink(graph.edges(), config, sink);
    RunStats::from_pipeline(report).with_key_space(&space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::generic::enumerate_generic;
    use subgraph_cq::{cqs_for_sample, cycle_cqs};
    use subgraph_graph::generators;
    use subgraph_pattern::catalog;
    use subgraph_shares::counting::{bucket_oriented_replication, useful_reducers};

    fn config() -> EngineConfig {
        EngineConfig::with_threads(4)
    }

    /// Collect-mode driver over the streaming runner.
    fn collect_run(sample: &SampleGraph, graph: &DataGraph, b: usize) -> MapReduceRun {
        let mut collected = CollectSink::new();
        let stats = run_bucket_oriented(sample, graph, b, &config(), &mut collected);
        stats.into_run(collected.into_items())
    }

    fn agree(sample: &SampleGraph, graph: &DataGraph, b: usize) {
        let run = collect_run(sample, graph, b);
        let oracle = enumerate_generic(sample, graph);
        assert_eq!(run.count(), oracle.count(), "pattern {sample:?} b={b}");
        assert_eq!(run.duplicates(), 0, "pattern {sample:?} b={b}");
    }

    #[test]
    fn triangles_squares_lollipops_match_the_oracle() {
        let g = generators::gnm(40, 220, 21);
        for b in [1usize, 3, 5] {
            agree(&catalog::triangle(), &g, b);
            agree(&catalog::square(), &g, b);
            agree(&catalog::lollipop(), &g, b);
        }
    }

    #[test]
    fn pentagons_match_the_oracle() {
        let g = generators::gnm(20, 70, 22);
        agree(&catalog::cycle(5), &g, 4);
    }

    #[test]
    fn replication_matches_the_formula() {
        // Each edge goes to exactly C(b + p − 3, p − 2) reducers.
        let g = generators::gnm(60, 400, 23);
        for (sample, p) in [
            (catalog::triangle(), 3usize),
            (catalog::square(), 4),
            (catalog::cycle(5), 5),
        ] {
            for b in [2usize, 4] {
                let run = collect_run(&sample, &g, b);
                let expected =
                    bucket_oriented_replication(b as u64, p as u64) as usize * g.num_edges();
                assert_eq!(run.metrics.key_value_pairs, expected, "p={p} b={b}");
                let max = useful_reducers(b as u64, p as u64);
                assert!((run.metrics.reducers_used as u128) <= max);
            }
        }
    }

    #[test]
    fn section_5_cycle_cqs_plug_into_the_same_scheme() {
        let g = generators::gnm(18, 60, 24);
        let queries: Vec<ConjunctiveQuery> = cycle_cqs(5).into_iter().map(|c| c.query).collect();
        let run = bucket_oriented_with_cqs(5, &queries, &g, 3, &config());
        let oracle = enumerate_generic(&catalog::cycle(5), &g);
        assert_eq!(run.count(), oracle.count());
        assert_eq!(run.duplicates(), 0);
    }

    #[test]
    fn one_plan_finds_what_the_per_cq_plans_find_and_tries_no_more() {
        let g = generators::gnm(40, 220, 26);
        for sample in [
            catalog::triangle(),
            catalog::square(),
            catalog::lollipop(),
            catalog::cycle(5),
        ] {
            let p = sample.num_nodes();
            let one = collect_run(&sample, &g, 3);
            let per_cq = bucket_oriented_with_cqs(p, &cqs_for_sample(&sample), &g, 3, &config());
            // The map side is the same round; only the reducers' join differs.
            let shipped = |m: &subgraph_mapreduce::JobMetrics| {
                (m.key_value_pairs, m.shuffle_bytes, m.reducers_used)
            };
            assert_eq!(shipped(&one.metrics), shipped(&per_cq.metrics));
            let (work, per_cq_work) = (one.metrics.reducer_work, per_cq.metrics.reducer_work);
            assert!(work <= per_cq_work, "{sample:?}: {work} > {per_cq_work}");
            if p == 3 {
                assert_eq!(work, per_cq_work, "the triangle's plan is its single CQ");
            }
            let sorted = |run: MapReduceRun| {
                let mut instances = run.into_instances();
                instances.sort_unstable();
                instances
            };
            assert_eq!(sorted(one), sorted(per_cq), "{sample:?}");
        }
    }

    #[test]
    fn the_run_says_what_its_reducers_joined() {
        let g = generators::gnm(20, 60, 27);
        let joined = |sample: &SampleGraph| {
            let mut counted = crate::sink::CountSink::new();
            run_bucket_oriented(sample, &g, 2, &config(), &mut counted).reducer_join
        };
        assert_eq!(
            joined(&catalog::square()).as_deref(),
            Some("1 plan for 3 order classes, bind X0 X1 X3 X2, X0<X1 X0<X2 X0<X3 X1<X3")
        );
        assert_eq!(
            joined(&catalog::triangle()).as_deref(),
            Some("1 plan for 1 order class, bind X2 X1 X0, X0<X1 X0<X2 X1<X2")
        );
        // No symmetry, no comparison.
        let path_with_a_tail = SampleGraph::from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 3)]);
        let asymmetric =
            SampleGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]);
        assert!(joined(&path_with_a_tail).unwrap().ends_with("X2<X3"));
        assert!(joined(&asymmetric)
            .unwrap()
            .starts_with("1 plan for 5040 order classes, bind "));
        assert!(!joined(&asymmetric).unwrap().contains('<'));
    }

    #[test]
    fn one_bucket_equals_a_single_reducer() {
        let g = generators::gnm(25, 100, 25);
        let run = collect_run(&catalog::square(), &g, 1);
        assert_eq!(run.metrics.reducers_used, 1);
        assert_eq!(run.metrics.key_value_pairs, g.num_edges());
        assert_eq!(
            run.count(),
            enumerate_generic(&catalog::square(), &g).count()
        );
    }
}
