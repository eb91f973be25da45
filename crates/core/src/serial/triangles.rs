//! The serial triangle enumeration used as the baseline in Section 2 (it is
//! the algorithm of Schank's thesis \[18\] that both Partition and the
//! multiway-join algorithms compare against).
//!
//! The algorithm orders nodes by non-decreasing degree and, for every node
//! `v`, examines every pair of neighbours of `v` that follow `v` in the order
//! — i.e. every *properly ordered 2-path* with midpoint `v` (Lemma 7.1) — and
//! reports a triangle whenever the two endpoints are adjacent. Each triangle
//! is reported exactly once: at its unique node that precedes the other two.
//!
//! It runs in the degree order's rank space ([`subgraph_graph::ForwardIndex`]):
//! the 2-paths are pairs drawn from one ascending run of ranks, and the
//! closing edge is a binary search of the later endpoint in the earlier
//! one's run. There are `O(m^{3/2})` such 2-paths and each test costs
//! `O(log Δ)`, so the whole is `O(m^{3/2} log Δ)`; the work counted is the
//! 2-paths examined.

use crate::result::{SerialRun, SerialStats};
use crate::sink::{CollectSink, InstanceSink};
use subgraph_graph::DataGraph;
use subgraph_pattern::Instance;

/// Enumerates every triangle of `graph` exactly once, collecting them (thin
/// wrapper over [`enumerate_triangles_into`]).
pub fn enumerate_triangles_serial(graph: &DataGraph) -> SerialRun {
    let mut collected = CollectSink::new();
    let stats = enumerate_triangles_into(graph, &mut collected);
    SerialRun::new(collected.into_items(), stats.work)
}

/// Streaming form: each triangle goes to `sink` the moment it is found — the
/// algorithm is exactly-once by construction, so no instance is ever stored
/// anywhere.
///
/// Runs over the graph's cached [`subgraph_graph::ForwardIndex`] (see
/// [`DataGraph::forward`]). Ranks map back to node ids only for a found
/// triangle, so the order of the output is the ranks' order: by the 2-path's
/// midpoint, then its endpoints, in `(degree, id)` order.
pub fn enumerate_triangles_into(graph: &DataGraph, sink: &mut dyn InstanceSink) -> SerialStats {
    let forward = graph.forward();
    let mut stats = SerialStats::default();
    for v in 0..forward.num_nodes() as u32 {
        let later = forward.later(v);
        for (i, &u) in later.iter().enumerate() {
            let run = forward.later(u);
            let rest = &later[i + 1..];
            stats.work += rest.len() as u64;
            for &w in rest {
                if run.binary_search(&w).is_ok() {
                    stats.outputs += 1;
                    let ids = [forward.node(v), forward.node(u), forward.node(w)];
                    sink.accept(Instance::triangle(ids));
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::bucket_oriented::sample_plan;
    use crate::plan::strategy::SerialTriangles;
    use crate::plan::{EnumerationRequest, Strategy};
    use crate::serial::generic::enumerate_generic;
    use subgraph_cq::LocalGraph;
    use subgraph_graph::{generators, BucketThenIdOrder, DegreeOrder, IdOrder, NodeOrder};
    use subgraph_pattern::catalog;

    fn choose(n: usize, k: usize) -> usize {
        (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
    }

    #[test]
    fn complete_graph_triangle_count() {
        let run = enumerate_triangles_serial(&generators::complete(9));
        assert_eq!(run.count(), choose(9, 3));
        assert_eq!(run.duplicates(), 0);
    }

    #[test]
    fn triangle_free_graphs() {
        assert_eq!(
            enumerate_triangles_serial(&generators::complete_bipartite(5, 5)).count(),
            0
        );
        assert_eq!(
            enumerate_triangles_serial(&generators::cycle(10)).count(),
            0
        );
        assert_eq!(enumerate_triangles_serial(&generators::path(6)).count(), 0);
    }

    #[test]
    fn matches_the_generic_oracle_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::gnm(60, 400, seed);
            let fast = enumerate_triangles_serial(&g);
            let oracle = enumerate_generic(&catalog::triangle(), &g);
            assert_eq!(fast.count(), oracle.count(), "seed {seed}");
            assert_eq!(fast.duplicates(), 0);
            let mut a = fast.instances().to_vec();
            let mut b = oracle.instances().to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    /// The triangles of `graph` by the one plan over a local graph ranked by
    /// `order`, sorted.
    fn one_plan_triangles<O: NodeOrder>(graph: &DataGraph, order: &O) -> Vec<Instance> {
        let plan = sample_plan(&catalog::triangle());
        let local = LocalGraph::build(graph.edges(), order, plan.min_degree());
        let mut found = Vec::new();
        plan.run(
            &local,
            |_, _, _| true,
            |a| found.push(plan.instance(&local, a)),
        );
        found.sort_unstable();
        found
    }

    fn sorted(run: SerialRun) -> Vec<Instance> {
        let mut instances = run.instances().to_vec();
        instances.sort_unstable();
        instances
    }

    #[test]
    fn any_total_order_gives_the_same_triangles() {
        // Correctness of the 2-path argument holds for any total order (the
        // bound needs the degree order): the one plan, ranked by id, by
        // bucket and by degree, finds exactly the kernel's triangles.
        let g = generators::gnm(40, 200, 7);
        let by_degree = sorted(enumerate_triangles_serial(&g));
        assert!(!by_degree.is_empty());
        assert_eq!(by_degree, one_plan_triangles(&g, &IdOrder));
        assert_eq!(
            by_degree,
            one_plan_triangles(&g, &BucketThenIdOrder::new(5))
        );
        assert_eq!(by_degree, one_plan_triangles(&g, &DegreeOrder::new(&g)));
    }

    #[test]
    fn the_kernel_matches_the_oracle_and_its_estimate_on_every_shape() {
        // gnm, power-law hubs, a star (no triangles, one hub), cliques, an
        // empty graph, and graphs where every degree ties (the circulant
        // `i ~ i±1, i±2, i±3` and disjoint triangles) or most do (a sparse
        // gnm with isolated nodes).
        let circulant = DataGraph::from_edges(
            30,
            (0..30u32).flat_map(|i| (1..=3).map(move |d| (i, (i + d) % 30))),
        );
        let graphs = [
            generators::gnm(200, 1500, 3),
            generators::gnm(120, 60, 4),
            generators::power_law(400, 2000, 2.2, 5),
            generators::star(12),
            generators::complete(8),
            DataGraph::from_edges(5, []),
            circulant,
            generators::disjoint_triangles(6),
            generators::complete_bipartite(4, 6),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let run = enumerate_triangles_serial(g);
            let oracle = enumerate_generic(&catalog::triangle(), g);
            assert_eq!(run.duplicates(), 0, "graph {i}");
            let work = run.work;
            assert_eq!(sorted(run), sorted(oracle), "graph {i}");
            let request = EnumerationRequest::new(catalog::triangle(), g);
            let two_paths = SerialTriangles.estimate(&request).reducer_work;
            assert_eq!(
                work as f64, two_paths,
                "graph {i}: work is the 2-path count"
            );
        }
    }

    #[test]
    fn work_respects_the_m_to_three_halves_bound() {
        // The number of properly ordered 2-paths examined is O(m^{3/2}); check
        // it with a generous constant on random graphs of growing size.
        for &(n, m) in &[(50usize, 200usize), (100, 800), (200, 3000)] {
            let g = generators::gnm(n, m, 3);
            let run = enumerate_triangles_serial(&g);
            let bound = 4.0 * (m as f64).powf(1.5) + m as f64;
            assert!(
                (run.work as f64) <= bound,
                "n={n} m={m}: work {} exceeds {bound}",
                run.work
            );
        }
    }

    #[test]
    fn disjoint_triangles_found_exactly() {
        let run = enumerate_triangles_serial(&generators::disjoint_triangles(25));
        assert_eq!(run.count(), 25);
        assert_eq!(run.duplicates(), 0);
    }
}
