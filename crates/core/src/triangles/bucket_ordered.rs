//! The bucket-ordered multiway-join triangle algorithm (Section 2.3) — the
//! paper's best one-round triangle algorithm.
//!
//! Nodes are ordered by `(hash bucket, identifier)`. Because the edge relation
//! now respects the bucket order, only reducers whose bucket triple is
//! non-decreasing can contain triangles: there are `C(b+2, 3) ≈ b³/6` of them
//! and each edge is shipped to exactly `b` reducers (the sorted triple formed
//! by its two endpoint buckets plus any third bucket), so the communication
//! cost is `b` per edge — a factor 3/2 better than Partition and 1.65 better
//! than the plain multiway join at equal reducer counts (Figure 1).

use super::{local_triangles, TRIANGLE_EDGES};
use crate::enumerate::bucket_oriented::ship_by_endpoint_buckets;
use crate::enumerate::KeySpace;
use crate::result::RunStats;
use crate::sink::InstanceSink;
use subgraph_cq::LocalGraph;
use subgraph_graph::{BucketThenIdOrder, DataGraph, Edge};
use subgraph_mapreduce::{EngineConfig, MapContext, Pipeline, ReduceContext, Round};
use subgraph_pattern::Instance;

/// Bytes one shuffled record of this round occupies (bucket-triple key plus
/// an edge value) — used by both the engine weigher and the planner's byte
/// prediction, so predicted and measured `shuffle_bytes` agree exactly.
pub(crate) fn triple_key_record_bytes() -> usize {
    std::mem::size_of::<[u32; 3]>() + std::mem::size_of::<Edge>()
}

/// Runs the Section 2.3 algorithm with `b` buckets as a declarative
/// single-round [`Pipeline`], streaming each triangle into `sink`.
///
/// Internal runner behind [`crate::plan::StrategyKind::BucketOrderedTriangles`].
pub(crate) fn run_bucket_ordered_triangles_into(
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    let space = KeySpace::multisets(b, 3)
        .expect("the planner offers the bucket-ordered round only where its key space exists");
    let order = BucketThenIdOrder::new(b);

    // The sorted triple of the endpoint buckets plus any third bucket: `b`
    // keys per edge.
    let mapper = |edge: &Edge, ctx: &mut MapContext<u32, Edge>| {
        ship_by_endpoint_buckets(&space, &order, edge, ctx)
    };

    let reducer = |key: &u32, edges: &[Edge], ctx: &mut ReduceContext<Instance>| {
        let triple = space.coords(*key);
        let local = LocalGraph::build(edges, &order);
        let bucket_of = |v: u32| order.bucket(local.global(v)) as u32;
        // The local enumeration streams straight through to the round's
        // output: no per-reducer triangle buffer exists.
        let work = local_triangles(&local, |triangle| {
            // A triangle is emitted only by the reducer whose key is the
            // sorted bucket triple of its nodes (local ids ascend in
            // (bucket, id) order, so the triple arrives sorted). For
            // triangles spanning two or three distinct buckets that reducer
            // is the only one holding all three edges anyway; for triangles
            // whose nodes share a single bucket `a` every reducer [a, a, *]
            // holds the edges, and this check keeps the paper's "discovered
            // by only one reducer" guarantee.
            if triangle.map(bucket_of)[..] == triple[..] {
                ctx.emit(local.instance(&triangle, &TRIANGLE_EDGES));
            }
        });
        ctx.add_work(work);
    };

    let report = Pipeline::new()
        .round(
            Round::new("bucket-ordered", mapper, reducer)
                .record_bytes(|_: &u32, _: &Edge| triple_key_record_bytes()),
        )
        .run_with_sink(graph.edges(), config, sink);
    RunStats::from_pipeline(report).with_key_space(&space)
}

/// Collect-mode wrapper over [`run_bucket_ordered_triangles_into`] (tests and
/// in-crate comparisons).
#[cfg(test)]
pub(crate) fn run_bucket_ordered_triangles(
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
) -> crate::result::MapReduceRun {
    let mut collected = crate::sink::CollectSink::new();
    let stats = run_bucket_ordered_triangles_into(graph, b, config, &mut collected);
    stats.into_run(collected.into_items())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::triangles::enumerate_triangles_serial;
    use subgraph_graph::generators;
    use subgraph_shares::counting::useful_reducers;

    fn config() -> EngineConfig {
        EngineConfig::with_threads(4)
    }

    #[test]
    fn finds_every_triangle_exactly_once() {
        for seed in 0..3 {
            let g = generators::gnm(80, 520, seed);
            let serial = enumerate_triangles_serial(&g);
            for b in [1usize, 3, 6, 10] {
                let run = run_bucket_ordered_triangles(&g, b, &config());
                assert_eq!(run.count(), serial.count(), "b={b} seed={seed}");
                assert_eq!(run.duplicates(), 0, "b={b} seed={seed}");
            }
        }
    }

    #[test]
    fn communication_is_exactly_b_per_edge() {
        let g = generators::gnm(150, 1500, 9);
        for b in [2usize, 5, 10, 16] {
            let run = run_bucket_ordered_triangles(&g, b, &config());
            assert_eq!(run.metrics.key_value_pairs, b * g.num_edges(), "b={b}");
            // Only non-decreasing triples are ever materialized.
            let max = useful_reducers(b as u64, 3);
            assert!((run.metrics.reducers_used as u128) <= max, "b={b}");
        }
    }

    #[test]
    fn beats_the_other_algorithms_on_communication_at_equal_reducers() {
        // Figure 2: at ≈220 reducers, Partition (b=12) ships 13.75m, the plain
        // multiway join (b=6, 216 reducers) ships ≈16m, and this algorithm
        // (b=10) ships 10m.
        let g = generators::gnm(200, 2400, 4);
        let ordered = run_bucket_ordered_triangles(&g, 10, &config());
        let partition = crate::triangles::partition::run_partition_triangles(&g, 12, &config());
        let multiway = crate::triangles::multiway::run_multiway_triangles(&g, 6, &config());
        assert!(
            ordered.metrics.key_value_pairs < partition.metrics.key_value_pairs,
            "ordered {} vs partition {}",
            ordered.metrics.key_value_pairs,
            partition.metrics.key_value_pairs
        );
        assert!(ordered.metrics.key_value_pairs < multiway.metrics.key_value_pairs);
        // All three agree on the answer.
        assert_eq!(ordered.count(), partition.count());
        assert_eq!(ordered.count(), multiway.count());
    }

    #[test]
    fn total_reducer_work_stays_near_the_serial_work() {
        // Theorem 6.1 / Section 2.3: the total computation at the reducers is
        // O(m^{3/2}), the same order as the serial algorithm.
        let g = generators::gnm(300, 2700, 11);
        let serial = enumerate_triangles_serial(&g);
        for b in [2usize, 4, 8] {
            let run = run_bucket_ordered_triangles(&g, b, &config());
            let ratio = run.metrics.reducer_work as f64 / serial.work.max(1) as f64;
            assert!(
                ratio < 12.0,
                "b={b}: parallel work {} vs serial {} (ratio {ratio})",
                run.metrics.reducer_work,
                serial.work
            );
        }
    }

    #[test]
    fn single_bucket_equals_serial() {
        let g = generators::gnm(40, 200, 3);
        let run = run_bucket_ordered_triangles(&g, 1, &config());
        assert_eq!(run.metrics.reducers_used, 1);
        assert_eq!(run.count(), enumerate_triangles_serial(&g).count());
        assert_eq!(run.metrics.key_value_pairs, g.num_edges());
    }
}
