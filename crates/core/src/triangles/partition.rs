//! The Partition algorithm of Suri and Vassilvitskii (Section 2.1).
//!
//! Nodes are hashed into `b` disjoint groups; there is one reducer per
//! unordered triple of distinct groups `{i, j, k}` and each edge is sent to
//! every reducer whose triple contains the groups of both endpoints. Each
//! reducer runs the serial triangle algorithm on its subgraph.
//!
//! Triangles whose nodes span fewer than three distinct groups would be found
//! by several reducers; as in \[19\], extra care de-duplicates them — here a
//! reducer emits such a triangle only if its triple is the *canonical* triple
//! for that triangle (the group multiset completed with the smallest unused
//! group numbers), which costs the same extra bookkeeping the paper mentions.

use super::{local_triangles, TRIANGLE_EDGES};
use crate::result::RunStats;
use crate::sink::InstanceSink;
use subgraph_cq::LocalGraph;
use subgraph_graph::{DataGraph, Edge, IdOrder, NodeId};
use subgraph_mapreduce::{EngineConfig, MapContext, Pipeline, ReduceContext, Round};
use subgraph_pattern::Instance;

/// Runs the Partition algorithm with `b` node groups as a declarative
/// single-round [`Pipeline`], streaming each triangle into `sink`.
pub(crate) fn run_partition_triangles_into(
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    assert!(b >= 3, "Partition needs at least 3 groups");
    let group = move |v: NodeId| -> u32 { hash_group(v, b) };

    let mapper = move |edge: &Edge, ctx: &mut MapContext<[u32; 3], Edge>| {
        let gu = group(edge.lo());
        let gv = group(edge.hi());
        for i in 0..b as u32 {
            for j in (i + 1)..b as u32 {
                for k in (j + 1)..b as u32 {
                    let triple = [i, j, k];
                    if triple.contains(&gu) && triple.contains(&gv) {
                        ctx.emit(triple, *edge);
                    }
                }
            }
        }
    };

    let reducer = move |key: &[u32; 3], edges: &[Edge], ctx: &mut ReduceContext<Instance>| {
        let local = LocalGraph::build(edges, &IdOrder);
        // The local enumeration streams straight through to the round's
        // output: no per-reducer triangle buffer exists.
        let work = local_triangles(&local, |triangle| {
            // De-duplicate triangles that span fewer than three groups:
            // emit only from the canonical reducer for the group set.
            let groups = triangle.map(|v| group(local.global(v)));
            if canonical_triple(&groups, b) == *key {
                ctx.emit(local.instance(&triangle, &TRIANGLE_EDGES));
            }
        });
        ctx.add_work(work);
    };

    let report = Pipeline::new()
        .round(Round::new("partition", mapper, reducer))
        .run_with_sink(graph.edges(), config, sink);
    RunStats::from_pipeline(report)
}

/// Collect-mode wrapper over [`run_partition_triangles_into`] (tests and
/// in-crate comparisons).
#[cfg(test)]
pub(crate) fn run_partition_triangles(
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
) -> crate::result::MapReduceRun {
    let mut collected = crate::sink::CollectSink::new();
    let stats = run_partition_triangles_into(graph, b, config, &mut collected);
    stats.into_run(collected.into_items())
}

/// The canonical reducer triple for a triangle whose nodes fall into `groups`:
/// the distinct groups, padded with the smallest group numbers not already
/// present, sorted ascending.
fn canonical_triple(groups: &[u32], b: usize) -> [u32; 3] {
    let mut distinct: Vec<u32> = groups.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut filler = 0u32;
    while distinct.len() < 3 {
        if !distinct.contains(&filler) {
            distinct.push(filler);
        }
        filler += 1;
        if filler as usize > b {
            break;
        }
    }
    distinct.sort_unstable();
    [distinct[0], distinct[1], distinct[2]]
}

fn hash_group(v: NodeId, b: usize) -> u32 {
    let mut x = (v as u64).wrapping_add(0x51ab_de3a_77c0_ffee);
    x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    (x % b as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::triangles::enumerate_triangles_serial;
    use subgraph_graph::generators;
    use subgraph_shares::counting::partition_triangle_replication;

    fn config() -> EngineConfig {
        EngineConfig::with_threads(4)
    }

    #[test]
    fn finds_every_triangle_exactly_once() {
        for seed in 0..3 {
            let g = generators::gnm(80, 500, seed);
            let serial = enumerate_triangles_serial(&g);
            for b in [3usize, 5, 8] {
                let run = run_partition_triangles(&g, b, &config());
                assert_eq!(run.count(), serial.count(), "b={b} seed={seed}");
                assert_eq!(run.duplicates(), 0, "b={b} seed={seed}");
            }
        }
    }

    #[test]
    fn communication_cost_matches_the_formula() {
        // Expected replication per edge: (3/2)(b−1)(b−2)/b, up to the random
        // split of edges into same-group / cross-group.
        let g = generators::gnm(300, 3000, 7);
        for b in [4usize, 6, 10] {
            let run = run_partition_triangles(&g, b, &config());
            let measured = run.metrics.replication_per_input();
            let expected = partition_triangle_replication(b as u64);
            let tolerance = expected * 0.15 + 0.5;
            assert!(
                (measured - expected).abs() < tolerance,
                "b={b}: measured {measured}, formula {expected}"
            );
            // Reducer count is at most C(b,3).
            let max_reducers = b * (b - 1) * (b - 2) / 6;
            assert!(run.metrics.reducers_used <= max_reducers);
        }
    }

    #[test]
    fn triangle_free_graph_yields_nothing_but_still_ships_edges() {
        let g = generators::complete_bipartite(12, 12);
        let run = run_partition_triangles(&g, 4, &config());
        assert_eq!(run.count(), 0);
        assert!(run.metrics.key_value_pairs > 0);
    }

    #[test]
    #[should_panic]
    fn fewer_than_three_groups_rejected() {
        let _ = run_partition_triangles(&generators::complete(4), 2, &config());
    }
}
