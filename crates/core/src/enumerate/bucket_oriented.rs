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
//! are cut at the first node that gives them away. Because nodes are ordered
//! by bucket first, the key also bounds where each variable can lie before
//! anything is bound: a variable the plan's ordering conditions put after
//! `a` others and before `d` others has a bucket between the key's `a`-th
//! smallest and its `d`-th largest, so it binds only inside that stretch of
//! local ids ([`BucketQuota::windows`]).
//!
//! "All CQs" is one join, not `p!/|Aut|`: a reducer holds every edge among
//! its nodes in whatever orientation, so the union of the Theorem 3.1 order
//! classes — every injective assignment, once per automorphism orbit — is one
//! match over unoriented edges under the group's symmetry-breaking
//! comparisons ([`sample_plan`]). Variable-oriented reducers run the same
//! plan; their mappers ship each edge in the orientations it can read it in
//! ([`JoinPlan::roles`]), so the plan finds every edge it needs there too.

use super::{least_min_degree, KeySpace};
use crate::result::{MapReduceRun, RunStats};
use crate::sink::InstanceSink;
use std::ops::Range;
use subgraph_cq::{ConjunctiveQuery, JoinPlan, LocalGraph};
use subgraph_graph::{BucketThenIdOrder, DataGraph, Edge};
use subgraph_mapreduce::{EngineConfig, MapContext, ReduceContext, Round};
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

/// The ownership test of one bucket-oriented reducer, in the form the join
/// kernel's `admit` hook takes: a node may be bound only while the buckets of
/// the nodes bound so far, plus its own, stay a sub-multiset of the reducer's
/// key. A full assignment that passes uses the key up exactly — the paper's
/// "emit only if the bucket multiset equals the key" — and a partial one that
/// another reducer owns is cut at the first node that gives it away.
///
/// Local ids ascend in (bucket, id) order, so each bucket is one run of them,
/// and the key also confines where each variable can bind at all
/// ([`BucketQuota::windows`]).
pub struct BucketQuota {
    /// Bucket of each local node.
    bucket_of: Vec<u32>,
    /// How often each bucket occurs in the key.
    quota: Vec<usize>,
    /// The key's buckets, non-decreasing.
    key: Vec<u32>,
    /// `starts[k]`: the first local id whose bucket is `k` or more; bucket
    /// `k`'s run is `starts[k]..starts[k + 1]`.
    starts: Vec<u32>,
}

impl BucketQuota {
    /// The test for the reducer whose key holds the buckets `key`, over the
    /// local graph it built under `order`.
    pub fn new(
        local: &LocalGraph,
        order: &BucketThenIdOrder,
        key: impl IntoIterator<Item = u32>,
    ) -> Self {
        let mut key: Vec<u32> = key.into_iter().collect();
        key.sort_unstable();
        let mut quota = vec![0; order.num_buckets()];
        for &bucket in &key {
            quota[bucket as usize] += 1;
        }
        // Hash each run's first node, find its end by bisection.
        let nodes = local.nodes();
        let mut bucket_of = Vec::with_capacity(nodes.len());
        let mut starts = Vec::with_capacity(order.num_buckets() + 1);
        while bucket_of.len() < nodes.len() {
            let rest = &nodes[bucket_of.len()..];
            let bucket = order.bucket(rest[0]);
            let run = rest.partition_point(|&v| order.bucket(v) == bucket);
            starts.resize(bucket + 1, bucket_of.len() as u32);
            bucket_of.resize(bucket_of.len() + run, bucket as u32);
        }
        starts.resize(order.num_buckets() + 1, nodes.len() as u32);
        BucketQuota {
            bucket_of,
            quota,
            key,
            starts,
        }
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

    /// Where each variable of `plan` can bind in an assignment this reducer
    /// owns, indexed by variable, for [`JoinPlan::run_within`]. A variable
    /// whose node takes position `a..=z` in the node order
    /// ([`JoinPlan::positions`]) has a bucket between the key's `a`-th and
    /// `z`-th smallest, because the nodes before it have no larger bucket
    /// and the nodes after it no smaller: its window is the local ids from
    /// the first of bucket `key[a]` to the last of bucket `key[z]`. The
    /// windows cannot count how often a bucket is used; [`Self::admits`]
    /// still does.
    ///
    /// # Panics
    /// Panics unless `plan` has one variable per bucket of the key.
    pub fn windows(&self, plan: &JoinPlan) -> Vec<Range<u32>> {
        assert_eq!(
            plan.positions().len(),
            self.key.len(),
            "a plan's variables fill the key"
        );
        (plan.positions().iter())
            .map(|&(first, last)| {
                let (low, high) = (self.key[first] as usize, self.key[last] as usize);
                self.starts[low]..self.starts[high + 1]
            })
            .collect()
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
    RunStats::collect(|sink| bucket_oriented_with_cqs_into(p, cqs, graph, b, config, sink))
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
/// buckets, builds its local graph — without the edges of nodes too sparse
/// for any of `plans` — and runs each of `plans` over it under its ownership
/// test, each variable inside its window. An oriented subgoal orders its two
/// variables as a comparison does, so the windows hold for per-CQ plans too.
fn run_plans(
    space: KeySpace,
    b: usize,
    plans: &[JoinPlan],
    graph: &DataGraph,
    config: &EngineConfig,
    sink: &mut dyn InstanceSink,
) -> RunStats {
    let order = BucketThenIdOrder::new(b);
    let min_degree = least_min_degree(plans);

    // `edge` goes to every reducer whose multiset holds the buckets of both
    // endpoints.
    let mapper = |edge: &Edge, ctx: &mut MapContext<u32, Edge>| {
        let bu = order.bucket(edge.lo()) as u32;
        let bv = order.bucket(edge.hi()) as u32;
        for &key in space.destinations(bu, bv) {
            ctx.emit(key, *edge);
        }
    };

    let reducer = |key: &u32, edges: &[Edge], ctx: &mut ReduceContext<Instance>| {
        let local = LocalGraph::build(edges, &order, min_degree);
        let mut work = edges.len() as u64;
        let owned = BucketQuota::new(&local, &order, space.coords(*key));
        for plan in plans {
            work += plan.run_within(
                &local,
                &owned.windows(plan),
                |_, node, bound| owned.admits(node, bound),
                |assignment| ctx.emit(plan.instance(&local, assignment)),
            );
        }
        ctx.add_work(work);
    };

    let record_bytes = vec_key_record_bytes(space.width());
    let metrics = Round::new("bucket-oriented", mapper, reducer)
        .record_bytes(move |_: &u32, _: &Edge| record_bytes)
        .run(graph.edges(), config, sink);
    RunStats::single_round("bucket-oriented", metrics).with_key_space(&space)
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
        RunStats::collect(|sink| run_bucket_oriented(sample, graph, b, &config(), sink))
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
                assert_eq!(run.metrics.shuffle_records, expected, "p={p} b={b}");
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

    /// The reducers' two ways of joining a sample graph ship the same round
    /// and find the same instances. Both run inside their windows, and there
    /// the per-CQ plans, each ordering all its variables, can try fewer
    /// candidates than the one plan (c5); that the one plan tries no more
    /// under the ownership test alone is a property of the join, checked per
    /// reducer in the kernel suite. Here the work must tie on the triangle,
    /// whose single CQ the one plan is.
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
                (m.shuffle_records, m.shuffle_bytes, m.reducers_used)
            };
            assert_eq!(shipped(&one.metrics), shipped(&per_cq.metrics));
            let (work, per_cq_work) = (one.metrics.reducer_work, per_cq.metrics.reducer_work);
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
    fn a_window_runs_from_the_first_to_the_last_bucket_a_variable_can_take() {
        let g = generators::gnm(60, 300, 28);
        let order = BucketThenIdOrder::new(4);
        let local = LocalGraph::build(g.edges(), &order, 0);
        // Bucket `k`'s run of local ids, found without the quota.
        let run_of = |k: u32| {
            let ids: Vec<u32> = (0..local.num_nodes() as u32)
                .filter(|&v| order.bucket(local.global(v)) as u32 == k)
                .collect();
            ids[0]..ids[ids.len() - 1] + 1
        };
        let key = [0u32, 1, 1, 3];
        let owned = BucketQuota::new(&local, &order, key);
        // A Theorem 3.1 query orders all four variables: each is pinned to
        // the run of its own position's bucket.
        for cq in cqs_for_sample(&catalog::square()) {
            let plan = JoinPlan::compile(&cq);
            let windows = owned.windows(&plan);
            for (v, &(first, last)) in plan.positions().iter().enumerate() {
                assert_eq!(first, last, "{cq:?}");
                assert_eq!(windows[v], run_of(key[first]), "{cq:?}, X{v}");
            }
        }
        // The one plan (X0<X1 X0<X2 X0<X3 X1<X3) orders X0 below the rest
        // and leaves X2 free of X1 and X3.
        let one = sample_plan(&catalog::square());
        assert_eq!(one.positions(), [(0, 0), (1, 2), (1, 3), (2, 3)]);
        let span = |a: u32, z: u32| run_of(a).start..run_of(z).end;
        assert_eq!(
            owned.windows(&one),
            [span(0, 0), span(1, 1), span(1, 3), span(1, 3)]
        );
        // A bucket the local graph lacks is an empty run where it would be.
        let gap = BucketQuota::new(&local, &order, [0u32, 2, 2, 2]);
        let absent = LocalGraph::build(
            &(g.edges().iter().copied())
                .filter(|e| order.bucket(e.lo()) != 2 && order.bucket(e.hi()) != 2)
                .collect::<Vec<_>>(),
            &order,
            0,
        );
        let gone = BucketQuota::new(&absent, &order, [0u32, 2, 2, 2]);
        assert!(!gap.windows(&one)[3].is_empty());
        assert!(gone.windows(&one)[3].is_empty());
    }

    #[test]
    fn one_bucket_equals_a_single_reducer() {
        let g = generators::gnm(25, 100, 25);
        let run = collect_run(&catalog::square(), &g, 1);
        assert_eq!(run.metrics.reducers_used, 1);
        assert_eq!(run.metrics.shuffle_records, g.num_edges());
        assert_eq!(
            run.count(),
            enumerate_generic(&catalog::square(), &g).count()
        );
    }
}
