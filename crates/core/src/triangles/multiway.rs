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
//! combiner realizes the `3b − 2` bound: an edge's role markers are bitmask
//! values, and the combiner ORs together the markers an edge sends to the
//! same reducer (the coinciding pairs are always emitted by the same map
//! shard, so the combiner sees them together). With combiners enabled the
//! measured `shuffle_records` per edge is exactly `3b − 2`; disabling them
//! ([`EngineConfig::combiners`]) restores the naive `3b`.

use crate::result::RunStats;
use crate::sink::InstanceSink;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use subgraph_graph::{DataGraph, Edge, NodeId};
use subgraph_mapreduce::{EngineConfig, MapContext, Pipeline, ReduceContext, Round};
use subgraph_pattern::Instance;

/// Bitmask of the roles an edge plays at one reducer. Mappers emit single-bit
/// masks; the combiner ORs the masks of coinciding emissions together.
type Roles = u8;

/// The edge serves the `E(X,Y)` subgoal.
const ROLE_XY: Roles = 1;
/// The edge serves the `E(Y,Z)` subgoal.
const ROLE_YZ: Roles = 1 << 1;
/// The edge serves the `E(X,Z)` subgoal.
const ROLE_XZ: Roles = 1 << 2;

/// Bytes one shuffled record of this round occupies (ordered bucket-triple
/// key plus a role-tagged edge value) — shared by the engine weigher and the
/// planner's byte prediction.
pub(crate) fn multiway_record_bytes() -> usize {
    std::mem::size_of::<[u32; 3]>() + std::mem::size_of::<(Roles, NodeId, NodeId)>()
}

/// Runs the Section 2.2 multiway-join triangle algorithm with `b` buckets per
/// variable (`b³` potential reducers) as a declarative single-round
/// [`Pipeline`] whose combiner merges coinciding role emissions, streaming
/// each triangle into `sink`.
pub(crate) fn run_multiway_triangles_into(
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    assert!(b >= 1, "at least one bucket per variable is required");
    let hash = move |v: NodeId| -> u32 { bucket_hash(v, b) };

    let mapper = move |edge: &Edge, ctx: &mut MapContext<[u32; 3], (Roles, NodeId, NodeId)>| {
        // The edge relation holds (lo, hi): lo < hi in the identifier order.
        let (u, v) = edge.endpoints();
        let (hu, hv) = (hash(u), hash(v));
        for other in 0..b as u32 {
            ctx.emit([hu, hv, other], (ROLE_XY, u, v));
            ctx.emit([other, hu, hv], (ROLE_YZ, u, v));
            ctx.emit([hu, other, hv], (ROLE_XZ, u, v));
        }
    };

    // Merge the role masks an edge ships to the same reducer; first-seen
    // order is preserved so deterministic runs stay deterministic.
    let combiner = |_key: &[u32; 3], values: Vec<(Roles, NodeId, NodeId)>| {
        let mut merged: Vec<(Roles, NodeId, NodeId)> = Vec::new();
        let mut index: HashMap<(NodeId, NodeId), usize> = HashMap::new();
        for (roles, u, v) in values {
            match index.entry((u, v)) {
                Entry::Occupied(slot) => merged[*slot.get()].0 |= roles,
                Entry::Vacant(slot) => {
                    slot.insert(merged.len());
                    merged.push((roles, u, v));
                }
            }
        }
        merged
    };

    let reducer =
        |_key: &[u32; 3], tuples: &[(Roles, NodeId, NodeId)], ctx: &mut ReduceContext<Instance>| {
            let mut xy: Vec<(NodeId, NodeId)> = Vec::new();
            let mut xz: Vec<(NodeId, NodeId)> = Vec::new();
            let mut yz: HashSet<(NodeId, NodeId)> = HashSet::new();
            for &(roles, u, v) in tuples {
                if roles & ROLE_XY != 0 {
                    xy.push((u, v));
                }
                if roles & ROLE_XZ != 0 {
                    xz.push((u, v));
                }
                if roles & ROLE_YZ != 0 {
                    yz.insert((u, v));
                }
            }
            // Canonical join order, so the output is identical whether or not
            // the combiner reordered the merged tuples.
            xy.sort_unstable();
            xz.sort_unstable();
            // Join on X between the XY and XZ tuples, then probe YZ.
            join_on_x(&xy, &xz, |x, y, z| {
                ctx.add_work(1);
                if y < z && yz.contains(&(y, z)) {
                    ctx.emit(Instance::from_edge_set([(x, y), (y, z), (x, z)]));
                }
            });
        };

    let report = Pipeline::new()
        .round(Round::new("multiway", mapper, reducer).combiner(combiner))
        .run_with_sink(graph.edges(), config, sink);
    RunStats::from_pipeline(report)
}

/// Collect-mode wrapper over [`run_multiway_triangles_into`] (tests and
/// in-crate comparisons).
#[cfg(test)]
pub(crate) fn run_multiway_triangles(
    graph: &DataGraph,
    b: usize,
    config: &EngineConfig,
) -> crate::result::MapReduceRun {
    let mut collected = crate::sink::CollectSink::new();
    let stats = run_multiway_triangles_into(graph, b, config, &mut collected);
    stats.into_run(collected.into_items())
}

/// Merge join of two `(X, _)` tuple lists sorted by `X`: calls `matched(x, y,
/// z)` for every `(x, y)` of `xy` and `(x, z)` of `xz`, ordered by the `xy`
/// tuple and then the `xz` tuple — the pairs a nested loop over both lists
/// keeps, in the same order, without visiting the pairs whose `X` differ.
fn join_on_x(
    xy: &[(NodeId, NodeId)],
    xz: &[(NodeId, NodeId)],
    mut matched: impl FnMut(NodeId, NodeId, NodeId),
) {
    let mut rest = xz;
    for run in xy.chunk_by(|a, b| a.0 == b.0) {
        let x = run[0].0;
        rest = &rest[rest.partition_point(|&(x2, _)| x2 < x)..];
        let same_x = &rest[..rest.partition_point(|&(x2, _)| x2 == x)];
        for &(_, y) in run {
            for &(_, z) in same_x {
                matched(x, y, z);
            }
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
                (run.metrics.shuffle_records * multiway_record_bytes()) as u64,
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
    fn the_join_visits_exactly_the_pairs_with_equal_x_in_nested_loop_order() {
        let mut xy: Vec<(NodeId, NodeId)> = vec![(0, 1), (0, 2), (2, 3), (5, 6), (5, 7), (9, 9)];
        let mut xz: Vec<(NodeId, NodeId)> = vec![(0, 4), (1, 2), (2, 5), (2, 8), (5, 1), (7, 3)];
        for _ in 0..2 {
            let mut nested = Vec::new();
            for &(x1, y) in &xy {
                for &(x2, z) in &xz {
                    if x1 == x2 {
                        nested.push((x1, y, z));
                    }
                }
            }
            let mut merged = Vec::new();
            join_on_x(&xy, &xz, |x, y, z| merged.push((x, y, z)));
            assert_eq!(merged, nested);
            // Every pair visited is a matched pair: 2·1 at X = 0, 1·2 at
            // X = 2, 2·1 at X = 5.
            assert_eq!(merged.len(), 6);
            std::mem::swap(&mut xy, &mut xz);
        }
        join_on_x(&[], &xz, |_, _, _| panic!("nothing to match"));
    }

    #[test]
    fn one_reducer_works_once_per_matched_pair() {
        // At b = 1 both role lists hold every edge (lo, hi), so the matched
        // pairs are Σ_x d⁺(x)², d⁺(x) being x's neighbours above it.
        let g = generators::gnm(200, 1_500, 4);
        let mut above = vec![0u64; g.num_nodes()];
        for e in g.edges() {
            above[e.endpoints().0 as usize] += 1;
        }
        let run = run_multiway_triangles(&g, 1, &config());
        assert_eq!(
            run.metrics.reducer_work,
            above.iter().map(|d| d * d).sum::<u64>()
        );
    }

    #[test]
    fn complete_graph_counts() {
        let g = generators::complete(10);
        let run = run_multiway_triangles(&g, 3, &config());
        assert_eq!(run.count(), 120);
        assert_eq!(run.duplicates(), 0);
    }
}
