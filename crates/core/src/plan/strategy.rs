//! The [`Strategy`] trait and the built-in strategy catalog.
//!
//! Every enumeration algorithm of the paper is wrapped as a `Strategy`: it can
//! say whether it applies to a request, predict its communication and
//! computation cost (the two measures of Section 1.2), and execute. The
//! [`crate::plan::Planner`] ranks the predictions and the winning strategy
//! runs.

use crate::convertible::predicted_parallel_work;
use crate::enumerate::bucket_oriented::{run_bucket_oriented, vec_key_record_bytes};
use crate::enumerate::cq_oriented::{job_shares, run_cq_oriented};
use crate::enumerate::{variable_oriented, KeySpace};
use crate::plan::cost::{CostEstimate, RoundCost};
use crate::plan::report::RunReport;
use crate::plan::request::EnumerationRequest;
use crate::plan::search::search_order_classes;
use crate::serial::{
    enumerate_bounded_degree_into, enumerate_by_decomposition_into, enumerate_generic_into,
    enumerate_triangles_into,
};
use crate::sink::{CollectSink, InstanceSink};
use crate::triangles::bucket_ordered::{
    run_bucket_ordered_triangles_into, triple_key_record_bytes,
};
use crate::triangles::cascade::{cascade_record_bytes, run_cascade_triangles_into};
use crate::triangles::multiway::{multiway_record_bytes, run_multiway_triangles_into};
use crate::triangles::partition::run_partition_triangles_into;
use std::fmt;
use subgraph_cq::{cq_for_ordering, cqs_for_sample};
use subgraph_pattern::decompose::decompose;
use subgraph_pattern::SampleGraph;
use subgraph_shares::counting::{
    binomial, bucket_oriented_replication, multiway_triangle_replication,
    partition_triangle_replication, useful_reducers,
};

/// Identifier of one enumeration strategy.
///
/// The variants are listed in the planner's tie-breaking order: when two
/// strategies predict identical communication and computation, the earlier
/// variant wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StrategyKind {
    /// Section 2.3 generalized: hash-ordered nodes, one reducer per
    /// non-decreasing bucket multiset (Section 4.5).
    BucketOriented,
    /// Section 4.3: all CQs in one job, one optimized share per variable.
    VariableOriented,
    /// Section 4.1: one job per conjunctive query (Theorem 4.4 baseline).
    CqOriented,
    /// Section 2.3: the hash-ordered triangle special case.
    BucketOrderedTriangles,
    /// Section 2.1: the Partition algorithm of Suri-Vassilvitskii.
    PartitionTriangles,
    /// Section 2.2: the plain multiway-join triangle algorithm.
    MultiwayTriangles,
    /// Section 2 motivation: the conventional two-round cascade of 2-way joins.
    CascadeTriangles,
    /// Section 2 baseline: Schank's degree-ordered serial triangle enumeration.
    SerialTriangles,
    /// Theorem 7.2: the serial decomposition join.
    SerialDecomposition,
    /// Theorem 7.3: the serial bounded-degree algorithm.
    SerialBoundedDegree,
    /// The serial backtracking matcher (correctness oracle, no cost bound).
    SerialGeneric,
}

impl StrategyKind {
    /// All strategy kinds in tie-breaking order.
    pub fn all() -> [StrategyKind; 11] {
        [
            StrategyKind::BucketOriented,
            StrategyKind::VariableOriented,
            StrategyKind::CqOriented,
            StrategyKind::BucketOrderedTriangles,
            StrategyKind::PartitionTriangles,
            StrategyKind::MultiwayTriangles,
            StrategyKind::CascadeTriangles,
            StrategyKind::SerialTriangles,
            StrategyKind::SerialDecomposition,
            StrategyKind::SerialBoundedDegree,
            StrategyKind::SerialGeneric,
        ]
    }

    /// True for the strategies that run on a single machine without a
    /// map-reduce round.
    pub fn is_serial(self) -> bool {
        matches!(
            self,
            StrategyKind::SerialTriangles
                | StrategyKind::SerialDecomposition
                | StrategyKind::SerialBoundedDegree
                | StrategyKind::SerialGeneric
        )
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StrategyKind::BucketOriented => "bucket-oriented",
            StrategyKind::VariableOriented => "variable-oriented",
            StrategyKind::CqOriented => "cq-oriented",
            StrategyKind::BucketOrderedTriangles => "bucket-ordered-triangles",
            StrategyKind::PartitionTriangles => "partition-triangles",
            StrategyKind::MultiwayTriangles => "multiway-triangles",
            StrategyKind::CascadeTriangles => "cascade-triangles",
            StrategyKind::SerialTriangles => "serial-triangles",
            StrategyKind::SerialDecomposition => "serial-decomposition",
            StrategyKind::SerialBoundedDegree => "serial-bounded-degree",
            StrategyKind::SerialGeneric => "serial-generic",
        };
        f.write_str(name)
    }
}

/// One enumeration strategy behind the planner.
///
/// Strategies are `Send + Sync`: a [`crate::plan::Planner`] (and every
/// [`crate::plan::ExecutionPlan`] it produces) can be shared across threads,
/// which is what lets a long-lived service plan and execute queries
/// concurrently over one strategy catalog. Implementations hold no per-query
/// state — everything a run needs travels through the request and the chosen
/// estimate — so the bound costs nothing.
pub trait Strategy: Send + Sync {
    /// Which strategy this is.
    fn kind(&self) -> StrategyKind;

    /// `Ok(())` when the strategy can run the request, `Err(reason)` when it
    /// cannot (wrong pattern shape, disconnected pattern, ...). The reducer
    /// budget is *not* part of applicability — every strategy degrades
    /// gracefully to small budgets — the planner decides between the serial
    /// and map-reduce families based on the budget instead.
    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String>;

    /// Predicts communication and computation cost for the request. Only
    /// meaningful when [`Strategy::applicability`] returned `Ok`.
    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate;

    /// Runs the strategy, streaming every instance into `sink` as it is
    /// found — the report carries metrics and the streamed count, never the
    /// instances. `chosen` is this strategy's own estimate for the same
    /// request (as returned by [`Strategy::estimate`]); implementations reuse
    /// its derived parameters — shares, bucket counts — instead of re-deriving
    /// them, so planning work (e.g. the share solver) is not paid twice.
    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport;

    /// Runs the strategy and collects every instance into the report — a
    /// thin [`CollectSink`] wrapper over [`Strategy::execute_into`].
    fn execute(&self, request: &EnumerationRequest<'_>, chosen: &CostEstimate) -> RunReport {
        let mut collected = CollectSink::new();
        let report = self.execute_into(request, chosen, &mut collected);
        report.with_collected(collected.into_items())
    }
}

/// The full built-in strategy catalog, in tie-breaking order.
pub(crate) fn builtin_strategies() -> Vec<std::sync::Arc<dyn Strategy>> {
    vec![
        std::sync::Arc::new(BucketOriented),
        std::sync::Arc::new(VariableOriented),
        std::sync::Arc::new(CqOriented),
        std::sync::Arc::new(BucketOrderedTriangles),
        std::sync::Arc::new(PartitionTriangles),
        std::sync::Arc::new(MultiwayTriangles),
        std::sync::Arc::new(CascadeTriangles),
        std::sync::Arc::new(SerialTriangles),
        std::sync::Arc::new(SerialDecomposition),
        std::sync::Arc::new(SerialBoundedDegree),
        std::sync::Arc::new(SerialGeneric),
    ]
}

// ---- shared helpers --------------------------------------------------------

/// True when the sample graph is exactly the triangle, enabling the Section 2
/// special-case algorithms.
fn is_triangle(sample: &SampleGraph) -> bool {
    sample.num_nodes() == 3 && sample.num_edges() == 3
}

/// Applicability of the strategies that evaluate the Theorem 3.1 CQ
/// collection (bucket-, variable- and CQ-oriented processing): the pattern
/// needs an edge, and few enough order classes for executing to build one CQ
/// — or run one job — per class.
fn one_cq_per_order_class(request: &EnumerationRequest<'_>) -> Result<(), String> {
    if request.sample().num_edges() == 0 {
        return Err("the sample graph has no edges".into());
    }
    request.check_order_classes().map_err(|e| e.to_string())
}

/// The bucket-multiset rounds run `p`-coordinate keys over
/// [`buckets_for_budget`] buckets: a budget whose key space cannot be built
/// is turned down here, in the key space's own words, not at execute time.
fn multiset_key_space(p: usize, request: &EnumerationRequest<'_>) -> Result<(), String> {
    let b = buckets_for_budget(p, request.reducer_budget());
    KeySpace::check_multisets(b, p).map_err(|e| e.to_string())
}

/// The share-vector rounds index their reducers by a `u32` and route by one
/// offset table per pair of variables, none larger than the key space: integer
/// shares that cannot build that key space are turned down here, in the key
/// space's own words, not at execute time. No budget bounds them — a share
/// rounds up to at least 1, so where a cost expression's optimum is not
/// attained (shares running off towards 0 and ∞) their product has no limit.
fn share_grid_key_space(shares: &[u32]) -> Result<(), String> {
    KeySpace::grid(shares).map(drop).map_err(|e| e.to_string())
}

/// Largest `b >= 1` such that the hash-ordered scheme's useful-reducer count
/// `C(b + p - 1, p)` (Theorem 4.2) stays within the budget `k`.
pub(crate) fn buckets_for_budget(p: usize, k: usize) -> usize {
    let k = k.max(1) as u128;
    let mut b = 1u64;
    while useful_reducers(b + 1, p as u64) <= k {
        b += 1;
    }
    b as usize
}

/// Largest `b >= 3` such that Partition's `C(b, 3)` reducer triples stay
/// within the budget `k`.
fn partition_groups_for_budget(k: usize) -> usize {
    let k = k.max(1) as u128;
    let mut b = 3u64;
    while binomial(b + 1, 3) <= k {
        b += 1;
    }
    b as usize
}

/// Largest `b >= 1` with `b^3 <= k` (the plain multiway join's reducer cube).
fn cube_root_budget(k: usize) -> usize {
    let mut b = 1usize;
    while (b + 1).pow(3) <= k.max(1) {
        b += 1;
    }
    b
}

/// Theorem 6.1's total-reducer-work prediction for a strategy whose effective
/// per-variable share is `buckets`, using the exponents of the sample graph's
/// best decomposition (Theorem 7.2) as the serial baseline.
fn decomposition_work(sample: &SampleGraph, graph_n: usize, graph_m: usize, buckets: f64) -> f64 {
    let d = decompose(sample);
    predicted_parallel_work(
        buckets.round().max(1.0) as usize,
        sample.num_nodes(),
        d.alpha as f64,
        d.beta(),
        graph_n,
        graph_m,
    )
}

/// Upper bound on the wedge (2-path) count from the degree sequence:
/// `sum_v C(d_v, 2)`.
fn wedge_bound(request: &EnumerationRequest<'_>) -> f64 {
    let graph = request.graph();
    graph
        .nodes()
        .map(|v| {
            let d = graph.degree(v) as f64;
            d * (d - 1.0) / 2.0
        })
        .sum()
}

/// The common part of every map-reduce estimate: total communication and the
/// per-edge replication are derived from the per-round shipped-pair
/// predictions, so combiner discounts automatically propagate into the
/// planner's ranking.
#[allow(clippy::too_many_arguments)]
fn mr_estimate(
    kind: StrategyKind,
    paper_section: &'static str,
    rounds: usize,
    shares: Vec<f64>,
    buckets: Option<usize>,
    round_costs: Vec<RoundCost>,
    reducers: f64,
    reducer_work: f64,
    m: usize,
) -> CostEstimate {
    let communication: f64 = (round_costs.iter())
        .map(|r| r.jobs as f64 * r.shuffled)
        .sum();
    CostEstimate {
        strategy: kind,
        paper_section,
        rounds,
        shares,
        buckets,
        round_costs,
        replication_per_edge: if m == 0 {
            0.0
        } else {
            communication / m as f64
        },
        communication,
        reducers,
        reducer_work,
        classes_scored: 0,
        classes_pruned: 0,
    }
}

// ---- map-reduce strategies -------------------------------------------------

/// Section 4.5 bucket-oriented processing for arbitrary sample graphs.
pub struct BucketOriented;

impl Strategy for BucketOriented {
    fn kind(&self) -> StrategyKind {
        StrategyKind::BucketOriented
    }

    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String> {
        one_cq_per_order_class(request)?;
        multiset_key_space(request.sample().num_nodes(), request)
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        let p = request.sample().num_nodes();
        let b = buckets_for_budget(p, request.reducer_budget());
        let m = request.graph().num_edges();
        let records = bucket_oriented_replication(b as u64, p as u64) as f64 * m as f64;
        mr_estimate(
            self.kind(),
            "§4.5",
            1,
            vec![b as f64; p],
            Some(b),
            vec![RoundCost::without_combiner(
                "bucket-oriented",
                records,
                vec_key_record_bytes(p),
            )],
            useful_reducers(b as u64, p as u64) as f64,
            decomposition_work(request.sample(), request.graph().num_nodes(), m, b as f64),
            m,
        )
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        let b = chosen.buckets.unwrap_or_else(|| {
            buckets_for_budget(request.sample().num_nodes(), request.reducer_budget())
        });
        let stats =
            run_bucket_oriented(request.sample(), request.graph(), b, request.config(), sink);
        RunReport::streamed_map_reduce(self.kind(), 1, stats)
    }
}

/// Section 4.3 variable-oriented processing (one job, optimized shares).
pub struct VariableOriented;

impl Strategy for VariableOriented {
    fn kind(&self) -> StrategyKind {
        StrategyKind::VariableOriented
    }

    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String> {
        one_cq_per_order_class(request)?;
        share_grid_key_space(
            &variable_oriented::optimize(request.sample(), request.reducer_budget()).1,
        )
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        // Estimating needs the collection's cost expression, not its CQs:
        // executing builds those.
        let (_, shares, replication) =
            variable_oriented::optimize(request.sample(), request.reducer_budget());
        let p = request.sample().num_nodes();
        let m = request.graph().num_edges();
        let reducers: f64 = shares.iter().map(|&s| s as f64).product();
        let effective_share = reducers.powf(1.0 / p as f64);
        mr_estimate(
            self.kind(),
            "§4.3",
            1,
            shares.iter().map(|&s| s as f64).collect(),
            None,
            vec![RoundCost::without_combiner(
                "variable-oriented",
                replication * m as f64,
                vec_key_record_bytes(p),
            )],
            reducers,
            decomposition_work(
                request.sample(),
                request.graph().num_nodes(),
                m,
                effective_share,
            ),
            m,
        )
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        // The estimate already paid for the share optimization; rebuild the
        // job plan from its integer shares instead of solving again.
        let stats = if chosen.shares.len() == request.sample().num_nodes() {
            let plan = variable_oriented::VariableOrientedPlan {
                cqs: cqs_for_sample(request.sample()),
                optimal_shares: chosen.shares.clone(),
                shares: chosen
                    .shares
                    .iter()
                    .map(|&s| s.round().max(1.0) as u32)
                    .collect(),
                predicted_replication: chosen.replication_per_edge,
            };
            variable_oriented::run_with_plan_into(request.graph(), &plan, request.config(), sink)
        } else {
            variable_oriented::run_variable_oriented(
                request.sample(),
                request.graph(),
                request.reducer_budget(),
                request.config(),
                sink,
            )
        };
        RunReport::streamed_map_reduce(self.kind(), 1, stats)
    }
}

/// Section 4.1 CQ-oriented processing (one job per conjunctive query).
///
/// The request's reducer budget `k` is a *per-query* budget here — each of
/// the |CQs| jobs gets its own k reducers, exactly the comparison of
/// Theorem 4.4 (which shows separate jobs are never cheaper even with that
/// advantage). The estimate's `reducers` field reports the |CQs| x k total so
/// `explain()` makes the unequal provisioning visible.
pub struct CqOriented;

impl Strategy for CqOriented {
    fn kind(&self) -> StrategyKind {
        StrategyKind::CqOriented
    }

    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String> {
        one_cq_per_order_class(request)?;
        // A single query's cost expression does not depend on its order
        // class, so every job runs with the shares of the first.
        let sample = request.sample();
        let identity: Vec<_> = sample.nodes().collect();
        share_grid_key_space(&job_shares(
            &cq_for_ordering(sample, &identity),
            request.reducer_budget(),
        ))
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        let k = request.reducer_budget().max(1) as f64;
        let p = request.sample().num_nodes();
        let m = request.graph().num_edges();
        // One job per order class, each optimizing its own shares. The
        // search (branch-and-bound by default, exhaustive as the oracle)
        // establishes the classes' cost without solving each one: single-CQ
        // expressions are orientation-independent, so every class costs the
        // winner's, and one RoundCost describes all the jobs.
        let search = search_order_classes(request.sample(), k, request.order_class_search());
        let round_cost = RoundCost {
            jobs: search.total_classes,
            ..RoundCost::without_combiner(
                "cq-job",
                search.max_class_cost * m as f64,
                vec_key_record_bytes(p),
            )
        };
        let jobs = search.total_classes as f64;
        let per_job_share = k.powf(1.0 / p as f64);
        let mut estimate = mr_estimate(
            self.kind(),
            "§4.1",
            1,
            // Every job optimizes its own shares, so no single share vector
            // describes the strategy; explain() renders this as "-".
            Vec::new(),
            None,
            vec![round_cost],
            jobs * k,
            jobs * decomposition_work(
                request.sample(),
                request.graph().num_nodes(),
                m,
                per_job_share,
            ),
            m,
        );
        estimate.classes_scored = search.classes_scored;
        estimate.classes_pruned = search.classes_pruned;
        estimate
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        _chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        // Per-job shares are not carried in the estimate (each CQ has its
        // own), so the runner re-optimizes per query.
        let stats = run_cq_oriented(
            request.sample(),
            request.graph(),
            request.reducer_budget(),
            request.config(),
            sink,
        );
        RunReport::streamed_map_reduce(self.kind(), 1, stats)
    }
}

/// Section 2.3 hash-ordered triangle algorithm.
pub struct BucketOrderedTriangles;

impl Strategy for BucketOrderedTriangles {
    fn kind(&self) -> StrategyKind {
        StrategyKind::BucketOrderedTriangles
    }

    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String> {
        if !is_triangle(request.sample()) {
            return Err("specialized to the triangle sample graph".into());
        }
        multiset_key_space(3, request)
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        let b = buckets_for_budget(3, request.reducer_budget());
        let (n, m) = (request.graph().num_nodes(), request.graph().num_edges());
        mr_estimate(
            self.kind(),
            "§2.3",
            1,
            vec![b as f64; 3],
            Some(b),
            vec![RoundCost::without_combiner(
                "bucket-ordered",
                b as f64 * m as f64,
                triple_key_record_bytes(),
            )],
            useful_reducers(b as u64, 3) as f64,
            predicted_parallel_work(b, 3, 0.0, 1.5, n, m),
            m,
        )
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        let b = chosen
            .buckets
            .unwrap_or_else(|| buckets_for_budget(3, request.reducer_budget()));
        let stats = run_bucket_ordered_triangles_into(request.graph(), b, request.config(), sink);
        RunReport::streamed_map_reduce(self.kind(), 1, stats)
    }
}

/// Section 2.1 Partition algorithm.
pub struct PartitionTriangles;

impl Strategy for PartitionTriangles {
    fn kind(&self) -> StrategyKind {
        StrategyKind::PartitionTriangles
    }

    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String> {
        if is_triangle(request.sample()) {
            Ok(())
        } else {
            Err("specialized to the triangle sample graph".into())
        }
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        let b = partition_groups_for_budget(request.reducer_budget());
        let (n, m) = (request.graph().num_nodes(), request.graph().num_edges());
        mr_estimate(
            self.kind(),
            "§2.1",
            1,
            vec![b as f64; 3],
            Some(b),
            vec![RoundCost::without_combiner(
                "partition",
                partition_triangle_replication(b as u64) * m as f64,
                triple_key_record_bytes(),
            )],
            binomial(b as u64, 3) as f64,
            predicted_parallel_work(b, 3, 0.0, 1.5, n, m),
            m,
        )
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        let b = chosen
            .buckets
            .unwrap_or_else(|| partition_groups_for_budget(request.reducer_budget()));
        let stats = run_partition_triangles_into(request.graph(), b, request.config(), sink);
        RunReport::streamed_map_reduce(self.kind(), 1, stats)
    }
}

/// Section 2.2 plain multiway-join triangle algorithm.
pub struct MultiwayTriangles;

impl Strategy for MultiwayTriangles {
    fn kind(&self) -> StrategyKind {
        StrategyKind::MultiwayTriangles
    }

    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String> {
        if is_triangle(request.sample()) {
            Ok(())
        } else {
            Err("specialized to the triangle sample graph".into())
        }
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        let b = cube_root_budget(request.reducer_budget());
        let m = request.graph().num_edges();
        // The reducer-side join examines |XY| x |XZ| candidate pairs per
        // reducer: about (m/b^2)^2 over b^3 reducers, i.e. m^2 / b.
        let join_work = (m as f64).powi(2) / b as f64;
        // Mappers emit all 3b copies per edge (footnote 1); the map-side
        // combiner merges an edge's coinciding role emissions, shipping the
        // paper's 3b − 2 — unless combiners are disabled in the engine config.
        let emitted = 3.0 * b as f64 * m as f64;
        let shuffled = if request.config().use_combiners {
            multiway_triangle_replication(b as u64) * m as f64
        } else {
            emitted
        };
        mr_estimate(
            self.kind(),
            "§2.2",
            1,
            vec![b as f64; 3],
            Some(b),
            vec![RoundCost::with_combiner(
                "multiway",
                emitted,
                shuffled,
                multiway_record_bytes(),
            )],
            (b as f64).powi(3),
            join_work,
            m,
        )
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        let b = chosen
            .buckets
            .unwrap_or_else(|| cube_root_budget(request.reducer_budget()));
        let stats = run_multiway_triangles_into(request.graph(), b, request.config(), sink);
        RunReport::streamed_map_reduce(self.kind(), 1, stats)
    }
}

/// The conventional two-round cascade of two-way joins (Section 2 motivation).
pub struct CascadeTriangles;

impl Strategy for CascadeTriangles {
    fn kind(&self) -> StrategyKind {
        StrategyKind::CascadeTriangles
    }

    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String> {
        if is_triangle(request.sample()) {
            Ok(())
        } else {
            Err("specialized to the triangle sample graph".into())
        }
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        let m = request.graph().num_edges();
        let wedges = wedge_bound(request);
        let (wedge_bytes, closing_bytes) = cascade_record_bytes();
        // Round 1 ships 2m; round 2 ships every wedge plus every edge.
        mr_estimate(
            self.kind(),
            "§2 (2-round)",
            2,
            Vec::new(),
            None,
            vec![
                RoundCost::without_combiner("wedge", 2.0 * m as f64, wedge_bytes),
                RoundCost::without_combiner("closing", m as f64 + wedges, closing_bytes),
            ],
            request.graph().num_nodes() as f64 + wedges.min(m as f64 * m as f64),
            2.0 * m as f64 + 2.0 * wedges,
            m,
        )
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        _chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        let stats = run_cascade_triangles_into(request.graph(), request.config(), sink);
        RunReport::streamed_map_reduce(self.kind(), 2, stats)
    }
}

// ---- serial strategies -----------------------------------------------------

/// The common part of every serial estimate (no communication, no reducers).
fn serial_estimate(
    kind: StrategyKind,
    paper_section: &'static str,
    predicted_work: f64,
) -> CostEstimate {
    CostEstimate {
        strategy: kind,
        paper_section,
        rounds: 0,
        shares: Vec::new(),
        buckets: None,
        round_costs: Vec::new(),
        replication_per_edge: 0.0,
        communication: 0.0,
        reducers: 0.0,
        reducer_work: predicted_work,
        classes_scored: 0,
        classes_pruned: 0,
    }
}

/// Section 2 baseline: Schank's degree-ordered triangle enumeration
/// (`O(m^{3/2})` worst case, far less on sparse graphs).
pub struct SerialTriangles;

impl Strategy for SerialTriangles {
    fn kind(&self) -> StrategyKind {
        StrategyKind::SerialTriangles
    }

    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String> {
        if !is_triangle(request.sample()) {
            return Err("the Section 2 baseline enumerates triangles only".into());
        }
        Ok(())
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        // The algorithm examines exactly the properly ordered 2-paths of the
        // degree order (Lemma 7.1), so count them instead of quoting the
        // `O(m^{3/2})` worst case: against Theorem 7.3's `m · Δ^{p-2}` bound
        // the adversarial estimate would lose on every graph whose maximum
        // degree is below `√m`, even though this algorithm does far less work
        // there. Reading the counts off the graph's cached orientation also
        // means planning builds the index execution runs on, so a plan-cache
        // hit skips both.
        let forward = request.graph().forward();
        let mut two_paths = 0.0;
        for v in request.graph().nodes() {
            let later = forward.later(v).len() as f64;
            two_paths += later * (later - 1.0) / 2.0;
        }
        serial_estimate(self.kind(), "§2 / Lemma 7.1", two_paths)
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        _chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        let stats = enumerate_triangles_into(request.graph(), sink);
        RunReport::streamed_serial(self.kind(), stats)
    }
}

/// Theorem 7.2 decomposition join.
pub struct SerialDecomposition;

impl Strategy for SerialDecomposition {
    fn kind(&self) -> StrategyKind {
        StrategyKind::SerialDecomposition
    }

    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String> {
        if request.sample().num_nodes() == 0 {
            return Err("the sample graph is empty".into());
        }
        Ok(())
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        let d = decompose(request.sample());
        let (n, m) = (request.graph().num_nodes(), request.graph().num_edges());
        serial_estimate(
            self.kind(),
            "Thm 7.2",
            (n as f64).powf(d.alpha as f64) * (m as f64).powf(d.beta()),
        )
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        _chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        let stats = enumerate_by_decomposition_into(request.sample(), request.graph(), sink);
        RunReport::streamed_serial(self.kind(), stats)
    }
}

/// Theorem 7.3 bounded-degree algorithm.
pub struct SerialBoundedDegree;

impl Strategy for SerialBoundedDegree {
    fn kind(&self) -> StrategyKind {
        StrategyKind::SerialBoundedDegree
    }

    fn applicability(&self, request: &EnumerationRequest<'_>) -> Result<(), String> {
        if request.sample().num_nodes() < 2 {
            return Err("Theorem 7.3 needs at least two pattern nodes".into());
        }
        if !request.sample().is_connected() {
            return Err("Theorem 7.3 needs a connected pattern".into());
        }
        Ok(())
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        let p = request.sample().num_nodes();
        let m = request.graph().num_edges() as f64;
        let delta = request.graph().max_degree().max(1) as f64;
        serial_estimate(self.kind(), "Thm 7.3", m * delta.powf(p as f64 - 2.0))
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        _chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        let stats = enumerate_bounded_degree_into(request.sample(), request.graph(), sink);
        RunReport::streamed_serial(self.kind(), stats)
    }
}

/// The generic backtracking matcher (fallback / oracle; no worst-case bound).
pub struct SerialGeneric;

impl Strategy for SerialGeneric {
    fn kind(&self) -> StrategyKind {
        StrategyKind::SerialGeneric
    }

    fn applicability(&self, _request: &EnumerationRequest<'_>) -> Result<(), String> {
        Ok(())
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        // Same anchored-candidate structure as Theorem 7.3 but without the
        // guarantee; the planner therefore prefers the strategies with bounds
        // on ties (they register earlier).
        let p = request.sample().num_nodes().max(2);
        let m = request.graph().num_edges() as f64;
        let delta = request.graph().max_degree().max(1) as f64;
        serial_estimate(self.kind(), "§6 oracle", m * delta.powf(p as f64 - 2.0))
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        _chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        let stats = enumerate_generic_into(request.sample(), request.graph(), sink);
        RunReport::streamed_serial(self.kind(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::enumerate_generic;
    use subgraph_graph::generators;
    use subgraph_pattern::catalog;

    #[test]
    fn bucket_counts_respect_their_budgets() {
        // Theorem 4.2: C(b + p - 1, p) useful reducers.
        assert_eq!(buckets_for_budget(3, 220), 10); // C(12, 3) = 220
        assert_eq!(buckets_for_budget(3, 219), 9);
        assert_eq!(buckets_for_budget(4, 750), 10); // C(13, 4) = 715 <= 750 < C(14, 4)
        assert_eq!(buckets_for_budget(3, 1), 1);
        assert_eq!(partition_groups_for_budget(220), 12); // C(12, 3) = 220
        assert_eq!(partition_groups_for_budget(1), 3);
        assert_eq!(cube_root_budget(216), 6);
        assert_eq!(cube_root_budget(215), 5);
        assert_eq!(cube_root_budget(1), 1);
    }

    #[test]
    fn triangle_specializations_reject_other_patterns() {
        let g = generators::complete(5);
        let request = EnumerationRequest::new(catalog::square(), &g);
        for strategy in [
            Box::new(BucketOrderedTriangles) as Box<dyn Strategy>,
            Box::new(PartitionTriangles),
            Box::new(MultiwayTriangles),
            Box::new(CascadeTriangles),
        ] {
            assert!(strategy.applicability(&request).is_err());
        }
        let triangle_request = EnumerationRequest::new(catalog::triangle(), &g);
        assert!(BucketOrderedTriangles
            .applicability(&triangle_request)
            .is_ok());
    }

    #[test]
    fn bounded_degree_needs_connected_patterns() {
        let g = generators::complete(5);
        let disconnected = SampleGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let request = EnumerationRequest::new(disconnected, &g);
        assert!(SerialBoundedDegree.applicability(&request).is_err());
        assert!(SerialDecomposition.applicability(&request).is_ok());
        assert!(SerialGeneric.applicability(&request).is_ok());
    }

    #[test]
    fn estimates_carry_the_paper_formulas() {
        let g = generators::gnm(100, 600, 5);
        let request = EnumerationRequest::new(catalog::triangle(), &g).reducers(220);
        let ordered = BucketOrderedTriangles.estimate(&request);
        assert_eq!(ordered.buckets, Some(10));
        assert!((ordered.replication_per_edge - 10.0).abs() < 1e-12);
        assert!((ordered.communication - 6000.0).abs() < 1e-9);
        let partition = PartitionTriangles.estimate(&request);
        assert_eq!(partition.buckets, Some(12));
        assert!((partition.replication_per_edge - 13.75).abs() < 1e-12);
        // With combiners on (the default), multiway ships the paper's 3b − 2
        // per edge even though its mappers emit 3b (footnote 1).
        let multiway = MultiwayTriangles.estimate(&request);
        assert_eq!(multiway.buckets, Some(6));
        assert!((multiway.replication_per_edge - 16.0).abs() < 1e-12);
        assert!((multiway.emitted_communication() - 18.0 * 600.0).abs() < 1e-9);
        assert!(multiway.has_combiner_discount());
        // Figure 2's ordering at ~220 reducers.
        assert!(ordered.communication < partition.communication);
        assert!(partition.communication < multiway.communication);
    }

    #[test]
    fn combiner_discount_respects_the_engine_config() {
        let g = generators::gnm(100, 600, 5);
        let naive = EnumerationRequest::new(catalog::triangle(), &g)
            .reducers(220)
            .engine(subgraph_mapreduce::EngineConfig::default().combiners(false));
        let multiway = MultiwayTriangles.estimate(&naive);
        assert!((multiway.replication_per_edge - 18.0).abs() < 1e-12);
        assert!(!multiway.has_combiner_discount());
    }

    #[test]
    fn cascade_estimate_predicts_both_rounds() {
        let g = generators::gnm(100, 600, 5);
        let request = EnumerationRequest::new(catalog::triangle(), &g).reducers(220);
        let cascade = CascadeTriangles.estimate(&request);
        assert_eq!(cascade.rounds, 2);
        assert_eq!(cascade.round_costs.len(), 2);
        assert_eq!(cascade.round_costs[0].name, "wedge");
        assert_eq!(cascade.round_costs[1].name, "closing");
        assert!((cascade.round_costs[0].shuffled - 2.0 * 600.0).abs() < 1e-9);
        assert!(
            (cascade.communication
                - (cascade.round_costs[0].shuffled + cascade.round_costs[1].shuffled))
                .abs()
                < 1e-9
        );
        assert!(cascade.predicted_shuffle_bytes() > 0.0);
    }

    #[test]
    fn share_grids_without_an_attained_optimum_are_refused_by_name() {
        // Nodes 3 and 4 share their two neighbours 0 and 2, and neither is
        // dominated: along a ray where s0 = s2 grows and s3 = s4 shrinks every
        // term falls or stays, so the rounded shares overflow any key space.
        let twins = SampleGraph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 5),
                (2, 3),
                (2, 4),
            ],
        );
        let g = generators::gnm(40, 120, 3);
        let request = EnumerationRequest::new(twins, &g).reducers(750);
        for strategy in [&VariableOriented as &dyn Strategy, &CqOriented] {
            let reason = strategy.applicability(&request).unwrap_err();
            assert!(reason.contains("key space exceeds"), "{reason}");
        }
        assert!(BucketOriented.applicability(&request).is_ok());
    }

    #[test]
    fn execution_matches_the_oracle_for_each_strategy_kind() {
        let g = generators::gnm(40, 220, 77);
        let expected = enumerate_generic(&catalog::triangle(), &g).count();
        for kind in StrategyKind::all() {
            let request = EnumerationRequest::new(catalog::triangle(), &g)
                .reducers(64)
                .engine(subgraph_mapreduce::EngineConfig::serial());
            let strategy = builtin_strategies()
                .into_iter()
                .find(|s| s.kind() == kind)
                .expect("every kind has a builtin");
            assert!(strategy.applicability(&request).is_ok(), "{kind}");
            let estimate = strategy.estimate(&request);
            let report = strategy.execute(&request, &estimate);
            assert_eq!(report.count(), expected, "{kind}");
            assert_eq!(report.duplicates(), 0, "{kind}");
            assert_eq!(report.strategy, kind);
            assert_eq!(kind.is_serial(), report.metrics.is_none(), "{kind}");
        }
    }
}
