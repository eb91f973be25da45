//! The plain multiway-join triangle algorithm (Section 2.2).
//!
//! Enumerating triangles is the join `E(X,Y) ⋈ E(Y,Z) ⋈ E(X,Z)` over the edge
//! relation that stores each edge once with its endpoints in increasing node
//! order. Each variable is hashed into `b` buckets, a reducer is an ordered
//! triple `[x, y, z]` of buckets (so there are `b³` reducers), and each edge
//! is sent in three roles: as an `(X,Y)` tuple to the `b` reducers
//! `[h(u), h(v), *]`, as `(Y,Z)` to `[*, h(u), h(v)]`, and as `(X,Z)` to
//! `[h(u), *, h(v)]` — `3b` key-value pairs per edge.
//!
//! The paper's `3b − 2` counts the two coinciding reducers once; its
//! footnote 1 notes that naive mappers ship all `3b`. Here the map-side
//! combiner realizes the `3b − 2` bound: it keeps one copy of an edge per
//! reducer (the coinciding pairs are always emitted by the same map shard, so
//! the combiner sees them together). With combiners enabled the measured
//! `shuffle_records` per edge is exactly `3b − 2`; disabling them
//! ([`EngineConfig::combiners`]) restores the naive `3b`.
//!
//! A reducer does not need to know which role an edge came in: it runs the
//! triangle's one join ([`sample_plan`]) over its edges, binding `X`, `Y` and
//! `Z` only to nodes that hash to its key's coordinates. The plan orders its
//! variables `X0 < X1 < X2` by node id, as the join orders `X < Y < Z`, so
//! every edge a match needs reached the reducer in the right role.

use crate::enumerate::bucket_oriented::sample_plan;
use crate::result::RunStats;
use crate::sink::InstanceSink;
use subgraph_cq::LocalGraph;
use subgraph_graph::{DataGraph, Edge, IdOrder, NodeId};
use subgraph_mapreduce::{EngineConfig, MapContext, ReduceContext, Round};
use subgraph_pattern::{catalog, Instance};

/// Runs the Section 2.2 multiway-join triangle algorithm with `b` buckets per
/// variable (`b³` potential reducers) as one [`Round`] whose combiner merges
/// coinciding role emissions, streaming each triangle into `sink`.
///
/// Not a planner strategy: Section 2 shows it ships more than Section 2.3's
/// algorithm (bucket-oriented processing at `p = 3`) at every reducer count,
/// so the paper's tables and the test suites call it directly.
pub fn run_multiway_triangles_into(
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    assert!(b >= 1, "at least one bucket per variable is required");
    let hash = move |v: NodeId| -> u32 { bucket_hash(v, b) };
    let plan = sample_plan(&catalog::triangle());
    debug_assert_eq!(plan.positions(), [(0, 0), (1, 1), (2, 2)]);

    let mapper = move |edge: &Edge, ctx: &mut MapContext<[u32; 3], Edge>| {
        // The edge relation holds (lo, hi): lo < hi in the identifier order.
        let (hu, hv) = (hash(edge.lo()), hash(edge.hi()));
        for other in 0..b as u32 {
            ctx.emit([hu, hv, other], *edge); // E(X, Y)
            ctx.emit([other, hu, hv], *edge); // E(Y, Z)
            ctx.emit([hu, other, hv], *edge); // E(X, Z)
        }
    };

    // One copy of an edge per reducer: the reducer's local graph collapses
    // repeated edges anyway.
    let combiner = |_key: &[u32; 3], mut edges: Vec<Edge>| {
        edges.sort_unstable();
        edges.dedup();
        edges
    };

    let reducer = |key: &[u32; 3], edges: &[Edge], ctx: &mut ReduceContext<Instance>| {
        // No degree filter: with combiners off an edge arrives once per role
        // it plays here, and the filter counts every copy toward a node's
        // degree, so a filtered build would keep nodes the combined run
        // drops and the two runs would join different graphs.
        let local = LocalGraph::build(edges, &IdOrder, 0);
        let bucket_of: Vec<u32> = local.nodes().iter().map(|&v| hash(v)).collect();
        let work = plan.run(
            &local,
            |var, node, _| bucket_of[node as usize] == key[var as usize],
            |assignment| ctx.emit(plan.instance(&local, assignment)),
        );
        // Distinct edges, not copies received: the same either way.
        ctx.add_work(local.num_edges() as u64 + work);
    };

    let metrics = Round::new("multiway", mapper, reducer)
        .combiner(combiner)
        .run(graph.edges(), config, sink);
    RunStats::single_round("multiway", metrics)
}

/// Collect-mode wrapper over [`run_multiway_triangles_into`].
#[cfg(test)]
pub(crate) fn run_multiway_triangles(
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
) -> crate::result::MapReduceRun {
    RunStats::collect(|sink| run_multiway_triangles_into(graph, b, config, sink))
}

fn bucket_hash(v: NodeId, b: usize) -> u32 {
    let mut x = (v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % b as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::bucket_oriented::vec_key_record_bytes;
    use crate::serial::triangles::enumerate_triangles_serial;
    use subgraph_graph::generators;

    fn config() -> EngineConfig {
        EngineConfig::with_threads(4)
    }

    #[test]
    fn finds_every_triangle_exactly_once() {
        for seed in 0..3 {
            let g = generators::gnm(70, 420, seed);
            let serial = enumerate_triangles_serial(&g);
            for b in [1usize, 2, 4, 6] {
                let run = run_multiway_triangles(&g, b, &config());
                assert_eq!(run.count(), serial.count(), "b={b} seed={seed}");
                assert_eq!(run.duplicates(), 0, "b={b} seed={seed}");
            }
        }
    }

    #[test]
    fn emission_is_3b_and_the_combiner_ships_3b_minus_2_per_edge() {
        let g = generators::gnm(100, 800, 5);
        for b in [2usize, 5, 8] {
            let run = run_multiway_triangles(&g, b, &config());
            // Mappers emit the naive 3b pairs per edge (footnote 1)...
            assert_eq!(run.metrics.key_value_pairs, 3 * b * g.num_edges());
            // ...and the combiner merges the two coinciding pairs per edge,
            // shipping exactly the paper's 3b − 2.
            assert_eq!(
                run.metrics.shuffle_records,
                (3 * b - 2) * g.num_edges(),
                "b={b}"
            );
            assert_eq!(
                run.metrics.shuffle_bytes,
                (run.metrics.shuffle_records * vec_key_record_bytes(3)) as u64,
                "b={b}"
            );
            assert!(run.metrics.reducers_used <= b * b * b);
        }
    }

    #[test]
    fn disabling_the_combiner_ships_the_naive_3b_with_identical_output() {
        let g = generators::gnm(80, 500, 7);
        let b = 4;
        let with = run_multiway_triangles(&g, b, &config());
        let without = run_multiway_triangles(&g, b, &config().combiners(false));
        assert_eq!(without.metrics.shuffle_records, 3 * b * g.num_edges());
        assert_eq!(
            with.metrics.key_value_pairs,
            without.metrics.key_value_pairs
        );
        assert!(with.metrics.shuffle_records < without.metrics.shuffle_records);
        assert!(with.metrics.shuffle_bytes < without.metrics.shuffle_bytes);
        // Deterministic configs: byte-identical instance streams.
        assert_eq!(with.instances(), without.instances());
        assert_eq!(with.metrics.reducer_work, without.metrics.reducer_work);
    }

    #[test]
    fn single_bucket_degenerates_to_one_reducer() {
        let g = generators::gnm(30, 120, 2);
        let run = run_multiway_triangles(&g, 1, &config());
        assert_eq!(run.metrics.reducers_used, 1);
        assert_eq!(run.count(), enumerate_triangles_serial(&g).count());
        // 3b − 2 = 1 at b = 1: the combiner collapses all three role copies.
        assert_eq!(run.metrics.shuffle_records, g.num_edges());
    }

    #[test]
    fn one_reducer_works_once_per_matched_pair() {
        // At b = 1 the one reducer holds every edge and runs the triangle's
        // plan over all of them: its work is the graph's edges plus the
        // candidates the plan tries over the whole graph in id order.
        let g = generators::gnm(200, 1_500, 4);
        let plan = sample_plan(&catalog::triangle());
        let whole = LocalGraph::build(g.edges(), &IdOrder, 0);
        let tried = plan.run(&whole, |_, _, _| true, |_| {});
        let run = run_multiway_triangles(&g, 1, &config());
        assert_eq!(run.metrics.reducer_work, g.num_edges() as u64 + tried);
    }

    #[test]
    fn complete_graph_counts() {
        let g = generators::complete(10);
        let run = run_multiway_triangles(&g, 3, &config());
        assert_eq!(run.count(), 120);
        assert_eq!(run.duplicates(), 0);
    }
}
