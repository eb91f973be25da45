//! The plain multiway-join triangle algorithm (Section 2.2).
//!
//! Enumerating triangles is the join `E(X,Y) ⋈ E(Y,Z) ⋈ E(X,Z)` over the edge
//! relation that stores each edge once with its endpoints in increasing node
//! order. Each variable is hashed into `b` buckets, a reducer is an ordered
//! triple `[x, y, z]` of buckets (so there are `b³` reducers), and each edge
//! is sent in three roles: as an `(X,Y)` tuple to the `b` reducers
//! `[h(u), h(v), *]`, as `(Y,Z)` to `[*, h(u), h(v)]`, and as `(X,Z)` to
//! `[h(u), *, h(v)]`.
//!
//! Two of those `3b` keys always coincide with others, so an edge reaches
//! the paper's `3b − 2` distinct reducers; footnote 1 notes that naive
//! mappers ship all `3b`. The mapper here emits each distinct key once
//! (`destinations`), so the measured `shuffle_records` per edge is exactly
//! `3b − 2` and every reducer receives each of its edges once.
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
/// variable (`b³` potential reducers) as one [`Round`] that sends each edge
/// to its `3b − 2` distinct reducers, streaming each triangle into `sink`.
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
        destinations(hash(edge.lo()), hash(edge.hi()), b as u32, |key| {
            ctx.emit(key, *edge)
        });
    };

    let reducer = |key: &[u32; 3], edges: &[Edge], ctx: &mut ReduceContext<Instance>| {
        // No degree filter: dropping the edges at this reducer's degree-1
        // nodes would lower the work it reports (its edges plus the plan's
        // candidates), and with it Figure 2's work column for the multiway
        // join.
        let local = LocalGraph::build(edges, &IdOrder, 0);
        let bucket_of: Vec<u32> = local.nodes().iter().map(|&v| hash(v)).collect();
        let work = plan.run(
            &local,
            |var, node, _| bucket_of[node as usize] == key[var as usize],
            |assignment| ctx.emit(plan.instance(&local, assignment)),
        );
        ctx.add_work(local.num_edges() as u64 + work);
    };

    let metrics = Round::new("multiway", mapper, reducer).run(graph.edges(), config, sink);
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

/// Calls `emit` once for each of the `3b − 2` distinct reducer keys of an
/// edge whose endpoints hash to `hu = h(lo)` and `hv = h(hi)`: for every
/// bucket `o`, `[hu, hv, o]` (role `E(X,Y)`); `[o, hu, hv]` (role `E(Y,Z)`)
/// unless it is `[hu, hu, hu]`, which the first role already sent; and
/// `[hu, o, hv]` (role `E(X,Z)`) unless `o` is `hu` or `hv`, whose keys the
/// second and first roles already sent.
fn destinations(hu: u32, hv: u32, b: u32, mut emit: impl FnMut([u32; 3])) {
    for o in 0..b {
        emit([hu, hv, o]);
        if !(o == hu && hu == hv) {
            emit([o, hu, hv]);
        }
        if o != hu && o != hv {
            emit([hu, o, hv]);
        }
    }
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
    use std::collections::BTreeSet;
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
    fn destinations_are_the_distinct_keys_of_the_three_roles() {
        for b in [1u32, 2, 3, 6] {
            // Every (h(u), h(v)) pair: equal and unequal hashes alike.
            for hu in 0..b {
                for hv in 0..b {
                    let mut sent = Vec::new();
                    destinations(hu, hv, b, |key| sent.push(key));
                    let roles: BTreeSet<[u32; 3]> = (0..b)
                        .flat_map(|o| [[hu, hv, o], [o, hu, hv], [hu, o, hv]])
                        .collect();
                    let distinct: BTreeSet<[u32; 3]> = sent.iter().copied().collect();
                    let label = format!("b={b} hu={hu} hv={hv}");
                    assert_eq!(sent.len(), distinct.len(), "repeated key: {label}");
                    assert_eq!(distinct, roles, "{label}");
                    assert_eq!(sent.len() as u32, 3 * b - 2, "{label}");
                }
            }
        }
    }

    #[test]
    fn ships_3b_minus_2_records_per_edge() {
        let g = generators::gnm(100, 800, 5);
        for b in [1usize, 2, 4, 6, 8] {
            let run = run_multiway_triangles(&g, b, &config());
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
    fn single_bucket_degenerates_to_one_reducer() {
        let g = generators::gnm(30, 120, 2);
        let run = run_multiway_triangles(&g, 1, &config());
        assert_eq!(run.metrics.reducers_used, 1);
        assert_eq!(run.count(), enumerate_triangles_serial(&g).count());
        // 3b − 2 = 1 at b = 1: the three roles share the one key.
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
