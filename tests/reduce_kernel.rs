//! Differential suite for the reducers' compiled join kernel
//! (`subgraph_cq::{LocalGraph, JoinPlan}` and the `evaluate_cq*` wrappers over
//! it) against the independent backtracking oracle `enumerate_generic`.

use subgraph_mr::core::enumerate::bucket_oriented::{
    bucket_oriented_with_cqs, sample_plan, BucketQuota,
};
use subgraph_mr::core::enumerate::variable_oriented;
use subgraph_mr::cq::{
    cqs_for_sample, cycle_cqs, evaluate_cq, evaluate_cq_filtered, evaluate_cq_group, evaluate_cqs,
    merge_by_orientation, ConjunctiveQuery, JoinPlan, LocalGraph,
};
use subgraph_mr::graph::{BucketThenIdOrder, DegreeOrder, Edge, IdOrder, NodeId, NodeOrder};
use subgraph_mr::prelude::*;

/// Every catalog pattern with at most six nodes under the general CQ
/// collection of Theorem 3.1, plus the pentagon and hexagon under the
/// run-sequence CQs of Section 5.
fn query_sets() -> Vec<(String, SampleGraph, Vec<ConjunctiveQuery>)> {
    let mut sets: Vec<_> = catalog::entries()
        .into_iter()
        .filter(|entry| entry.sample.num_nodes() <= 6)
        .map(|entry| {
            let cqs = cqs_for_sample(&entry.sample);
            (entry.name.to_string(), entry.sample, cqs)
        })
        .collect();
    for p in [5, 6] {
        let cqs = cycle_cqs(p).into_iter().map(|c| c.query).collect();
        sets.push((format!("cycle_cqs({p})"), catalog::cycle(p), cqs));
    }
    sets
}

fn graphs() -> Vec<(&'static str, DataGraph)> {
    vec![
        ("gnm", generators::gnm(18, 50, 41)),
        ("power-law", generators::power_law(22, 48, 2.2, 42)),
        ("complete", generators::complete(7)),
        ("star", generators::star(8)),
        ("empty", DataGraph::from_edges(5, [])),
        ("single edge", DataGraph::from_edges(4, [(1, 3)])),
    ]
}

fn sorted(mut instances: Vec<Instance>) -> Vec<Instance> {
    instances.sort_unstable();
    instances
}

fn oracle(sample: &SampleGraph, graph: &DataGraph) -> Vec<Instance> {
    sorted(enumerate_generic(sample, graph).into_instances())
}

/// Every instance `plan` finds over `local`, unrestricted.
fn run_plan(plan: &JoinPlan, local: &LocalGraph) -> Vec<Instance> {
    let mut found = Vec::new();
    plan.run(
        local,
        |_, _, _| true,
        |assignment| found.push(plan.instance(local, assignment)),
    );
    found
}

/// The query collection, plan by plan, and the bucket-oriented reducers'
/// single symmetry-broken plan for the same sample each find exactly the
/// oracle's instances — so the one plan equals the union of the per-CQ plans.
fn check_against_oracle<O: NodeOrder>(
    what: &str,
    sample: &SampleGraph,
    cqs: &[ConjunctiveQuery],
    graph: &DataGraph,
    order: &O,
    expected: &[Instance],
) {
    let outcome = evaluate_cqs(cqs, graph, order);
    assert_eq!(outcome.assignments, expected.len(), "{what}");
    assert_eq!(outcome.duplicates(), 0, "{what}");
    assert_eq!(sorted(outcome.instances), expected, "{what}");
    let local = LocalGraph::build(graph.edges(), order);
    let one_plan = run_plan(&sample_plan(sample), &local);
    assert_eq!(sorted(one_plan), expected, "{what}: one plan");
}

#[test]
fn the_kernel_matches_the_generic_oracle_under_every_order() {
    for (graph_name, graph) in graphs() {
        let by_degree = DegreeOrder::new(&graph);
        for (name, sample, cqs) in query_sets() {
            let expected = oracle(&sample, &graph);
            let what = |order: &str| format!("{name} on {graph_name} under {order}");
            check_against_oracle(&what("id"), &sample, &cqs, &graph, &IdOrder, &expected);
            check_against_oracle(
                &what("degree"),
                &sample,
                &cqs,
                &graph,
                &by_degree,
                &expected,
            );
            for b in [1, 3, 5] {
                let order = BucketThenIdOrder::new(b);
                check_against_oracle(
                    &what(&format!("bucket {b}")),
                    &sample,
                    &cqs,
                    &graph,
                    &order,
                    &expected,
                );
            }
        }
    }
}

/// A node's neighbours are one sorted run: its predecessors, then its
/// successors.
#[test]
fn neighbors_are_the_predecessors_then_the_successors() {
    for (name, graph) in graphs() {
        let by_degree = DegreeOrder::new(&graph);
        for local in [
            LocalGraph::build(graph.edges(), &IdOrder),
            LocalGraph::build(graph.edges(), &by_degree),
            LocalGraph::build(graph.edges(), &BucketThenIdOrder::new(3)),
        ] {
            let mut arcs = 0;
            for v in 0..local.num_nodes() as u32 {
                let (before, after) = (local.predecessors(v), local.successors(v));
                assert_eq!(local.neighbors(v), [before, after].concat(), "{name}");
                assert!(local.neighbors(v).windows(2).all(|w| w[0] < w[1]), "{name}");
                assert!(before.iter().all(|&w| w < v) && after.iter().all(|&w| w > v));
                arcs += local.neighbors(v).len();
            }
            assert_eq!(arcs, 2 * graph.num_edges(), "{name}");
        }
    }
}

/// Calls `visit` with every sequence of `len` values, the `i`-th drawn from
/// `0..limits[i]`, non-decreasing when `nondecreasing` is set.
fn for_each_key(limits: &[u32], nondecreasing: bool, visit: &mut dyn FnMut(&[u32])) {
    fn recurse(
        limits: &[u32],
        nondecreasing: bool,
        prefix: &mut Vec<u32>,
        visit: &mut dyn FnMut(&[u32]),
    ) {
        let Some(&limit) = limits.get(prefix.len()) else {
            return visit(prefix);
        };
        let start = if nondecreasing {
            prefix.last().copied().unwrap_or(0)
        } else {
            0
        };
        for next in start..limit {
            prefix.push(next);
            recurse(limits, nondecreasing, prefix, visit);
            prefix.pop();
        }
    }
    recurse(limits, nondecreasing, &mut Vec::new(), visit);
}

/// Bucket-oriented reducers (Section 4.5): one reducer per non-decreasing
/// bucket multiset, fed the edges whose endpoint buckets both occur in its
/// key, admitting a node only while the bound buckets stay a sub-multiset of
/// the key. Run over the whole key space, the reducers find every instance
/// exactly once — by the query collection's plans under that test spelled
/// out here, and by the sample's single plan under the reducers' own
/// `BucketQuota`.
#[test]
fn bucket_multiset_keys_partition_the_instances() {
    let graph = generators::gnm(18, 50, 43);
    for (name, sample, cqs) in query_sets() {
        let p = sample.num_nodes();
        let plans: Vec<JoinPlan> = cqs.iter().map(JoinPlan::compile).collect();
        let one_plan = sample_plan(&sample);
        let expected = oracle(&sample, &graph);
        for b in [1usize, 3] {
            let order = BucketThenIdOrder::new(b);
            let (mut found, mut found_by_one) = (Vec::new(), Vec::new());
            for_each_key(&vec![b as u32; p], true, &mut |key| {
                let in_key = |v: NodeId| key.contains(&(order.bucket(v) as u32));
                let edges: Vec<Edge> = graph
                    .edges()
                    .iter()
                    .copied()
                    .filter(|e| in_key(e.lo()) && in_key(e.hi()))
                    .collect();
                let local = LocalGraph::build(&edges, &order);
                let bucket = |v: u32| order.bucket(local.global(v)) as u32;
                for plan in &plans {
                    plan.run(
                        &local,
                        |_, node, bound| {
                            let used = bound.iter().filter(|&&v| bucket(v) == bucket(node)).count();
                            used < key.iter().filter(|&&k| k == bucket(node)).count()
                        },
                        |assignment| found.push(plan.instance(&local, assignment)),
                    );
                }
                let owned = BucketQuota::new(&local, &order, key.iter().copied());
                one_plan.run(
                    &local,
                    |_, node, bound| owned.admits(node, bound),
                    |assignment| found_by_one.push(one_plan.instance(&local, assignment)),
                );
            });
            assert_eq!(sorted(found), expected, "{name} with {b} buckets");
            assert_eq!(
                sorted(found_by_one),
                expected,
                "{name}: one plan, {b} buckets"
            );
        }
    }
}

/// Variable-oriented reducers (Section 4.3): one reducer per vector of
/// per-variable buckets, variable `X` binding only to nodes whose `X`-hash is
/// the key's bucket for `X`.
#[test]
fn variable_share_vectors_partition_the_instances() {
    let graph = generators::gnm(16, 44, 44);
    let hash = |var: u8, node: NodeId, share: u32| {
        (node.wrapping_mul(2_654_435_761) >> 7).wrapping_add(u32::from(var)) % share
    };
    for (name, sample, cqs) in query_sets() {
        let shares: Vec<u32> = (0..sample.num_nodes())
            .map(|v| 1 + (v as u32 % 3))
            .collect();
        let mut found = Vec::new();
        for_each_key(&shares, false, &mut |key| {
            for cq in &cqs {
                let filter = |var: u8, node: NodeId| {
                    hash(var, node, shares[var as usize]) == key[var as usize]
                };
                found.extend(evaluate_cq_filtered(cq, &graph, &IdOrder, &filter).instances);
            }
        });
        assert_eq!(sorted(found), oracle(&sample, &graph), "{name}");
    }
}

#[test]
fn an_orientation_group_equals_the_union_of_its_members() {
    let graph = generators::gnm(18, 50, 45);
    for (name, _, cqs) in query_sets() {
        for order in [BucketThenIdOrder::new(1), BucketThenIdOrder::new(4)] {
            for group in merge_by_orientation(&cqs) {
                let merged = evaluate_cq_group(&group, &graph, &order);
                let members: Vec<Instance> = group
                    .members
                    .iter()
                    .flat_map(|cq| evaluate_cq(cq, &graph, &order).instances)
                    .collect();
                assert_eq!(merged.assignments, members.len(), "{name}");
                assert_eq!(sorted(merged.instances), sorted(members), "{name}");
            }
        }
    }
}

/// A local graph costs memory in proportion to the edges it was built from,
/// however sparse the global ids are: nothing is sized by the id range.
#[test]
fn a_local_graph_is_sized_by_its_input_not_by_the_id_range() {
    let k = 1_000u32;
    // A path over ids 0, 4_000_000, 8_000_000, … up to 4_000_000_000.
    let edges: Vec<Edge> = (0..k)
        .map(|i| Edge::new(i * 4_000_000, (i + 1) * 4_000_000))
        .collect();
    for local in [
        LocalGraph::build(&edges, &IdOrder),
        LocalGraph::build(&edges, &BucketThenIdOrder::new(5)),
    ] {
        assert_eq!(local.num_nodes(), k as usize + 1);
        assert_eq!(local.num_edges(), k as usize);
        assert!(local.nodes().contains(&4_000_000_000));
        assert!(
            local.heap_bytes() <= 64 * k as usize,
            "{} heap bytes for {k} edges",
            local.heap_bytes()
        );
    }
}

/// Five- and six-variable rounds through the whole engine — reducer-index
/// keys routed by destination table (bucket multisets) and by stride (share
/// vectors), shuffled through the arena, decoded, grouped and joined — find
/// what the oracle finds. These are the key widths that no longer fit an
/// inline word, so a key space wider than the common patterns' is exercised
/// end to end.
#[test]
fn wide_key_rounds_match_the_oracle_through_the_engine() {
    let graph = generators::gnm(16, 52, 46);
    let config = EngineConfig::with_threads(3);
    let pentagon: Vec<ConjunctiveQuery> = cycle_cqs(5).into_iter().map(|c| c.query).collect();
    for (name, sample, cqs) in [
        ("c5", catalog::cycle(5), pentagon),
        ("c6", catalog::cycle(6), cqs_for_sample(&catalog::cycle(6))),
    ] {
        let p = sample.num_nodes();
        let expected = oracle(&sample, &graph);
        for b in [2, 3] {
            let run = bucket_oriented_with_cqs(p, &cqs, &graph, b, &config);
            let possible = subgraph_mr::shares::counting::useful_reducers(b as u64, p as u64);
            assert!(
                run.metrics.reducers_used as u128 <= possible,
                "{name} b={b}"
            );
            assert_eq!(sorted(run.into_instances()), expected, "{name} b={b}");
        }
        let plan = variable_oriented::plan(&sample, 24);
        let run = variable_oriented::run_with_plan(&graph, &plan, &config);
        assert_eq!(
            sorted(run.into_instances()),
            expected,
            "{name} by share vector"
        );
    }
}

/// What a record costs on the wire, as opposed to the 20 bytes the cost model
/// prices it at: one byte of reducer index (56 keys) plus the varint edge.
#[test]
fn a_triangle_record_with_six_buckets_ships_in_at_most_eight_bytes() {
    let graph = generators::gnm(3_000, 12_000, 47);
    let run = bucket_oriented_with_cqs(
        3,
        &cqs_for_sample(&catalog::triangle()),
        &graph,
        6,
        &EngineConfig::with_threads(2),
    );
    let m = &run.metrics;
    assert_eq!(m.shuffle_records, 6 * graph.num_edges());
    assert_eq!(m.shuffle_bytes, 20 * m.shuffle_records as u64);
    assert!(m.wire_bytes > 0);
    assert!(
        m.wire_bytes <= 8 * m.shuffle_records as u64,
        "{} wire bytes for {} records",
        m.wire_bytes,
        m.shuffle_records
    );
}

/// A bucket count or key width no key space exists for is refused by name
/// before anything is mapped.
#[test]
#[should_panic(expected = "at least one bucket")]
fn zero_buckets_are_refused_by_name() {
    let graph = generators::gnm(10, 20, 48);
    bucket_oriented_with_cqs(3, &[], &graph, 0, &EngineConfig::serial());
}
