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

use crate::enumerate::bucket_oriented::sample_plan;
use crate::result::RunStats;
use crate::sink::InstanceSink;
use subgraph_cq::LocalGraph;
use subgraph_graph::{DataGraph, Edge, IdOrder, NodeId};
use subgraph_mapreduce::{EngineConfig, MapContext, ReduceContext, Round};
use subgraph_pattern::{catalog, Instance};

/// Runs the Partition algorithm with `b` node groups (`C(b, 3)` reducer
/// triples) as one [`Round`], streaming each triangle into `sink`.
///
/// Not a planner strategy: Section 2 shows it ships more than Section 2.3's
/// algorithm (bucket-oriented processing at `p = 3`) at every reducer count,
/// so the paper's tables and the test suites call it directly. Panics when
/// `b < 3`.
pub fn run_partition_triangles_into(
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    assert!(b >= 3, "Partition needs at least 3 groups");
    let group = move |v: NodeId| -> u32 { hash_group(v, b) };
    let plan = sample_plan(&catalog::triangle());

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

    let reducer = |key: &[u32; 3], edges: &[Edge], ctx: &mut ReduceContext<Instance>| {
        let local = LocalGraph::build(edges, &IdOrder, plan.min_degree());
        let work = plan.run(
            &local,
            |_, _, _| true,
            |assignment| {
                // De-duplicate triangles that span fewer than three groups:
                // emit only from the canonical reducer for the group set.
                let groups = [0, 1, 2].map(|var| group(local.global(assignment[var])));
                if canonical_triple(groups) == *key {
                    ctx.emit(plan.instance(&local, assignment));
                }
            },
        );
        ctx.add_work(edges.len() as u64 + work);
    };

    let metrics = Round::new("partition", mapper, reducer).run(graph.edges(), config, sink);
    RunStats::single_round("partition", metrics)
}

/// Collect-mode wrapper over [`run_partition_triangles_into`].
#[cfg(test)]
pub(crate) fn run_partition_triangles(
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
) -> crate::result::MapReduceRun {
    RunStats::collect(|sink| run_partition_triangles_into(graph, b, config, sink))
}

/// The canonical reducer triple for a triangle whose nodes fall into `groups`:
/// the distinct groups, padded with the smallest group numbers not already
/// present, sorted ascending.
fn canonical_triple(groups: [u32; 3]) -> [u32; 3] {
    let mut triple = groups.to_vec();
    triple.sort_unstable();
    triple.dedup();
    let mut fillers = (0..).filter(|g| !groups.contains(g));
    while triple.len() < 3 {
        triple.extend(fillers.next());
    }
    triple.sort_unstable();
    [triple[0], triple[1], triple[2]]
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
    fn shipped_records_follow_the_group_split_and_the_paper_average() {
        // An edge inside one group goes to the C(b − 1, 2) triples holding
        // that group, an edge across two groups to the b − 2 triples holding
        // both: the shipped count is exact, and its mean per edge is Section
        // 2.1's (3/2)(b − 1)(b − 2)/b — 13.75 at b = 12.
        let g = generators::gnm(2_000, 20_000, 12);
        let b = 12;
        let expected: usize = (g.edges().iter())
            .map(|e| {
                if hash_group(e.lo(), b) == hash_group(e.hi(), b) {
                    (b - 1) * (b - 2) / 2
                } else {
                    b - 2
                }
            })
            .sum();
        let run = run_partition_triangles(&g, b, &config());
        assert_eq!(run.metrics.shuffle_records, expected);
        assert_eq!(partition_triangle_replication(b as u64), 13.75);
        let per_edge = expected as f64 / g.num_edges() as f64;
        assert!((per_edge - 13.75).abs() < 0.5, "{per_edge}");
    }

    #[test]
    fn triangle_free_graph_yields_nothing_but_still_ships_edges() {
        let g = generators::complete_bipartite(12, 12);
        let run = run_partition_triangles(&g, 4, &config());
        assert_eq!(run.count(), 0);
        assert!(run.metrics.shuffle_records > 0);
    }

    #[test]
    #[should_panic]
    fn fewer_than_three_groups_rejected() {
        let _ = run_partition_triangles(&generators::complete(4), 2, &config());
    }
}
