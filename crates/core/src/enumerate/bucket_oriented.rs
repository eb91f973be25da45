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

use super::KeySpace;
use crate::result::{MapReduceRun, RunStats};
use crate::sink::{CollectSink, InstanceSink};
use subgraph_cq::{cqs_for_sample, ConjunctiveQuery, JoinPlan, LocalGraph};
use subgraph_graph::{BucketThenIdOrder, DataGraph, Edge};
use subgraph_mapreduce::{EngineConfig, MapContext, Pipeline, ReduceContext, Round};
use subgraph_pattern::{Instance, SampleGraph};

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
    let cqs = cqs_for_sample(sample);
    bucket_oriented_with_cqs_into(sample.num_nodes(), &cqs, graph, b, config, sink)
}

/// Same, with an explicit CQ collection (the cycle CQs of Section 5 plug in
/// here directly), collecting the instances.
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
    let order = BucketThenIdOrder::new(b);

    let mapper = |edge: &Edge, ctx: &mut MapContext<u32, Edge>| {
        ship_by_endpoint_buckets(&space, &order, edge, ctx)
    };

    let plans: Vec<JoinPlan> = cqs.iter().map(JoinPlan::compile).collect();
    let reducer = |key: &u32, edges: &[Edge], ctx: &mut ReduceContext<Instance>| {
        let local = LocalGraph::build(edges, &order);
        let mut work = edges.len() as u64;
        let owned = BucketQuota::new(&local, &order, space.coords(*key));
        for plan in &plans {
            work += plan.run(
                &local,
                |_, node, bound| owned.admits(node, bound),
                |assignment| ctx.emit(plan.instance(&local, assignment)),
            );
        }
        ctx.add_work(work);
    };

    let record_bytes = vec_key_record_bytes(p);
    let report = crate::stream::run_streamed_with_sink(
        Pipeline::new().round(
            Round::new("bucket-oriented", mapper, reducer)
                .record_bytes(move |_: &u32, _: &Edge| record_bytes)
                .arena(),
        ),
        graph.edges(),
        config,
        sink,
    );
    RunStats::from_pipeline(report).with_key_space(&space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::generic::enumerate_generic;
    use subgraph_cq::cycle_cqs;
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
