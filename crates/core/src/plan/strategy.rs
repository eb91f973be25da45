//! The [`Strategy`] trait and the built-in strategy catalog.
//!
//! A `Strategy` can say whether it applies to a request, predict its
//! communication and computation cost (the two measures of Section 1.2), and
//! execute. The [`crate::plan::Planner`] ranks the predictions and the
//! winning strategy runs.
//!
//! Only algorithms that can win a ranking are registered. Partition and the
//! plain multiway join ship more than Section 2.3's algorithm at every
//! reducer count, and CQ-oriented processing is never cheaper than the
//! combined schemes (Theorem 4.4), so they are plain functions
//! ([`crate::triangles::partition`], [`crate::triangles::multiway`],
//! [`crate::enumerate::cq_oriented`]).

use crate::convertible::predicted_parallel_work;
use crate::enumerate::bucket_oriented::{run_bucket_oriented, sample_plan, vec_key_record_bytes};
use crate::enumerate::{variable_oriented, KeySpace};
use crate::plan::cost::{CostEstimate, RoundCost};
use crate::plan::report::RunReport;
use crate::plan::request::EnumerationRequest;
use crate::result::SerialStats;
use crate::serial::{enumerate_by_decomposition_into, enumerate_triangles_into};
use crate::sink::{CollectSink, InstanceSink};
use crate::triangles::cascade::{cascade_record_bytes, run_cascade_triangles_into};
use std::fmt;
use subgraph_cq::LocalGraph;
use subgraph_graph::DegreeOrder;
use subgraph_pattern::decompose::decompose;
use subgraph_pattern::SampleGraph;
use subgraph_shares::counting::{bucket_oriented_replication, useful_reducers};

/// Identifier of one enumeration strategy.
///
/// The variants are listed in the planner's tie-breaking order: when two
/// strategies predict identical communication and computation, the earlier
/// variant wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StrategyKind {
    /// Section 4.5: hash-ordered nodes, one reducer per non-decreasing
    /// bucket multiset — on the triangle, Section 2.3's algorithm.
    BucketOriented,
    /// Section 4.3: all CQs in one job, one optimized share per variable.
    VariableOriented,
    /// Section 2 motivation: the conventional two-round cascade of 2-way joins.
    CascadeTriangles,
    /// Section 2 baseline: Schank's degree-ordered serial triangle enumeration.
    SerialTriangles,
    /// Sections 6–7: the reducers' one symmetry-broken join, run once over
    /// the whole graph.
    SerialJoin,
}

impl StrategyKind {
    /// All strategy kinds in tie-breaking order.
    pub fn all() -> [StrategyKind; 5] {
        [
            StrategyKind::BucketOriented,
            StrategyKind::VariableOriented,
            StrategyKind::CascadeTriangles,
            StrategyKind::SerialTriangles,
            StrategyKind::SerialJoin,
        ]
    }

    /// The built-in strategy this kind names.
    pub(crate) fn strategy(self) -> &'static dyn Strategy {
        match self {
            StrategyKind::BucketOriented => &BucketOriented,
            StrategyKind::VariableOriented => &VariableOriented,
            StrategyKind::CascadeTriangles => &CascadeTriangles,
            StrategyKind::SerialTriangles => &SerialTriangles,
            StrategyKind::SerialJoin => &SerialJoin,
        }
    }

    /// True for the strategies that run on a single machine without a
    /// map-reduce round.
    pub fn is_serial(self) -> bool {
        matches!(
            self,
            StrategyKind::SerialTriangles | StrategyKind::SerialJoin
        )
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StrategyKind::BucketOriented => "bucket-oriented",
            StrategyKind::VariableOriented => "variable-oriented",
            StrategyKind::CascadeTriangles => "cascade-triangles",
            StrategyKind::SerialTriangles => "serial-triangles",
            StrategyKind::SerialJoin => "serial-join",
        };
        f.write_str(name)
    }
}

/// One enumeration strategy behind the planner.
///
/// The built-in strategies are the unit structs below, one per
/// [`StrategyKind`]. They are `Send + Sync` and hold no per-query
/// state — everything a run needs travels through the request and the chosen
/// estimate — so a long-lived service plans and executes queries
/// concurrently over them.
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

// ---- shared helpers --------------------------------------------------------

/// Applicability of the Section 2 algorithms: the sample graph is exactly
/// the triangle.
fn triangle_only(request: &EnumerationRequest<'_>) -> Result<(), String> {
    let sample = request.sample();
    if sample.num_nodes() == 3 && sample.num_edges() == 3 {
        Ok(())
    } else {
        Err("specialized to the triangle sample graph".into())
    }
}

/// Applicability of the strategies that evaluate the Theorem 3.1 CQ
/// collection (bucket- and variable-oriented processing): every pattern node
/// needs an edge, since a CQ over the edge relation binds only the nodes of
/// its subgoals, and the pattern needs at most [`crate::plan::MAX_ORDER_CLASSES`]
/// order classes.
fn one_cq_per_order_class(request: &EnumerationRequest<'_>) -> Result<(), String> {
    let sample = request.sample();
    if sample.num_edges() == 0 {
        return Err("the sample graph has no edges".into());
    }
    if let Some(v) = sample.nodes().find(|&v| sample.degree(v) == 0) {
        return Err(format!(
            "sample node {v} has no edge, and the edge-relation CQs cannot bind it"
        ));
    }
    request.check_order_classes().map_err(|e| e.to_string())
}

/// The share-vector rounds index their reducers by a `u32` and route by one
/// offset table per pair of variables, none larger than the key space: integer
/// shares that cannot build that key space are turned down here, in the key
/// space's own words, not at execute time. Their product is at most the
/// reducer budget, but a budget in the billions still builds no key space.
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
    let communication: f64 = (round_costs.iter()).map(|r| r.shuffled).sum();
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
        // A budget whose key space cannot be built is turned down here, in
        // the key space's own words, not at execute time.
        let p = request.sample().num_nodes();
        let b = buckets_for_budget(p, request.reducer_budget());
        KeySpace::check_multisets(b, p).map_err(|e| e.to_string())
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
        let join = sample_plan(request.sample());
        share_grid_key_space(&variable_oriented::optimize(&join, request.reducer_budget()).0)
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        let join = sample_plan(request.sample());
        let (shares, replication) = variable_oriented::optimize(&join, request.reducer_budget());
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
        // The estimate already paid for the share optimization: its shares
        // are the integer ones.
        let plan = variable_oriented::VariableOrientedPlan {
            join: sample_plan(request.sample()),
            shares: chosen.shares.iter().map(|&s| s as u32).collect(),
        };
        let stats =
            variable_oriented::run_with_plan_into(request.graph(), &plan, request.config(), sink);
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
        triangle_only(request)
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
        triangle_only(request)
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
        for r in 0..forward.num_nodes() as u32 {
            let later = forward.later(r).len() as f64;
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

/// The one symmetry-broken join of the sample graph (`sample_plan`) — the
/// algorithm every bucket- and variable-oriented reducer runs — run once over
/// a local graph of every edge: the serial algorithm one round of reducers
/// converts (Sections 6–7), with no map, no shuffle and no bucket test.
pub struct SerialJoin;

impl Strategy for SerialJoin {
    fn kind(&self) -> StrategyKind {
        StrategyKind::SerialJoin
    }

    fn applicability(&self, _request: &EnumerationRequest<'_>) -> Result<(), String> {
        Ok(())
    }

    fn estimate(&self, request: &EnumerationRequest<'_>) -> CostEstimate {
        // Builds nothing: the smaller of the two serial bounds the join meets
        // — Theorem 7.2's `n^α · m^β` and, for a connected sample, Theorem
        // 7.3's `m · Δ^{p−2}`.
        let sample = request.sample();
        let d = decompose(sample);
        let (n, m) = (request.graph().num_nodes(), request.graph().num_edges());
        let mut work = (n as f64).powf(d.alpha as f64) * (m as f64).powf(d.beta());
        if sample.is_connected() {
            let delta = request.graph().max_degree().max(1) as f64;
            work = work.min(m as f64 * delta.powf(sample.num_nodes() as f64 - 2.0));
        }
        serial_estimate(self.kind(), "§6–7 one plan", work)
    }

    fn execute_into(
        &self,
        request: &EnumerationRequest<'_>,
        _chosen: &CostEstimate,
        sink: &mut dyn InstanceSink,
    ) -> RunReport {
        // A pattern node without an edge binds to any data node, and a local
        // graph holds only the endpoints of edges: Theorem 7.2's join places
        // such nodes itself.
        let sample = request.sample();
        if sample.nodes().any(|v| sample.degree(v) == 0) {
            let stats = enumerate_by_decomposition_into(sample, request.graph(), sink);
            return RunReport::streamed_serial(self.kind(), stats);
        }
        // Nodes ranked by Lemma 7.1's degree order: over `reproduce kernel`'s
        // k = 1 rows the join tries fewer candidates than in id order, and
        // takes less time in total.
        let plan = sample_plan(sample);
        let order = DegreeOrder::new(request.graph());
        let graph = LocalGraph::build(request.graph().edges(), &order, plan.min_degree());
        let mut outputs = 0;
        let work = plan.run(
            &graph,
            |_, _, _| true,
            |assignment| {
                outputs += 1;
                sink.accept(plan.instance(&graph, assignment));
            },
        );
        RunReport::streamed_serial(self.kind(), SerialStats { outputs, work })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::enumerate_generic;
    use subgraph_graph::{generators, DataGraph};
    use subgraph_pattern::catalog;

    #[test]
    fn bucket_counts_respect_their_budgets() {
        // Theorem 4.2: C(b + p - 1, p) useful reducers.
        assert_eq!(buckets_for_budget(3, 220), 10); // C(12, 3) = 220
        assert_eq!(buckets_for_budget(3, 219), 9);
        assert_eq!(buckets_for_budget(4, 750), 10); // C(13, 4) = 715 <= 750 < C(14, 4)
        assert_eq!(buckets_for_budget(3, 1), 1);
        // k = 4–7 fit b = 2: four keys, C(5, 3) = 10 is past 7.
        for k in 4..=7 {
            assert_eq!(buckets_for_budget(3, k), 2, "k={k}");
        }
    }

    #[test]
    fn triangle_specializations_reject_other_patterns() {
        let g = generators::complete(5);
        let request = EnumerationRequest::new(catalog::square(), &g);
        for strategy in [
            Box::new(CascadeTriangles) as Box<dyn Strategy>,
            Box::new(SerialTriangles),
        ] {
            assert!(strategy.applicability(&request).is_err());
        }
        let triangle_request = EnumerationRequest::new(catalog::triangle(), &g);
        assert!(CascadeTriangles.applicability(&triangle_request).is_ok());
        assert!(SerialTriangles.applicability(&triangle_request).is_ok());
    }

    #[test]
    fn the_cq_strategies_refuse_a_sample_node_without_edges() {
        // Node 2 of the sample has no edge: the serial oracle counts 24 (each
        // of the 6 edges in both directions, times the 4 nodes left), which
        // no edge-relation CQ can reach.
        let sample = SampleGraph::from_edges(3, &[(0, 1)]);
        let g = DataGraph::from_edges(8, [(0, 1), (1, 2), (2, 0), (3, 4)]);
        assert_eq!(enumerate_generic(&sample, &g).count(), 24);
        let request = EnumerationRequest::new(sample.clone(), &g).reducers(64);
        for strategy in [
            Box::new(BucketOriented) as Box<dyn Strategy>,
            Box::new(VariableOriented),
        ] {
            let refusal = strategy.applicability(&request).unwrap_err();
            assert!(refusal.contains("sample node 2 has no edge"), "{refusal}");
        }
        let Err(err) = EnumerationRequest::new(sample.clone(), &g)
            .reducers(64)
            .plan()
        else {
            panic!("no map-reduce strategy applies");
        };
        let err = err.to_string();
        assert!(err.contains("sample node 2 has no edge"), "{err}");
        // The serial fallback at k <= 1 is unchanged.
        let serial = EnumerationRequest::new(sample, &g)
            .reducers(1)
            .plan()
            .unwrap();
        assert_eq!(serial.strategy(), StrategyKind::SerialJoin);
    }

    #[test]
    fn bounded_degree_needs_connected_patterns() {
        // Theorem 7.3's `m · Δ^{p−2}` bounds connected patterns only: the
        // join prices two disjoint edges at Theorem 7.2's `m^2` even where
        // `m · Δ^2` is smaller, and the square at the smaller of the two.
        let g = generators::gnm(100, 300, 4);
        let (m, delta) = (300.0, g.max_degree() as f64);
        assert!(m * delta * delta < m * m);
        let disconnected = SampleGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let request = EnumerationRequest::new(disconnected, &g);
        assert_eq!(SerialJoin.applicability(&request), Ok(()));
        assert_eq!(SerialJoin.estimate(&request).reducer_work, m * m);
        let square = EnumerationRequest::new(catalog::square(), &g);
        assert_eq!(SerialJoin.estimate(&square).reducer_work, m * delta * delta);
        // A node without an edge binds to isolated data nodes too.
        let lonely = SampleGraph::from_edges(3, &[(0, 1)]);
        let g = DataGraph::from_edges(8, [(0, 1), (1, 2), (2, 0), (3, 4)]);
        let request = EnumerationRequest::new(lonely.clone(), &g);
        let report = SerialJoin.execute(&request, &SerialJoin.estimate(&request));
        assert_eq!(report.count(), enumerate_generic(&lonely, &g).count());
    }

    #[test]
    fn estimates_carry_the_paper_formulas() {
        use subgraph_shares::counting::{
            multiway_triangle_replication, partition_triangle_replication,
        };
        let g = generators::gnm(100, 600, 5);
        let request = EnumerationRequest::new(catalog::triangle(), &g).reducers(220);
        // Bucket-oriented on the triangle is Section 2.3's algorithm.
        let ordered = BucketOriented.estimate(&request);
        assert_eq!(ordered.buckets, Some(10));
        assert!((ordered.replication_per_edge - 10.0).abs() < 1e-12);
        assert!((ordered.communication - 6000.0).abs() < 1e-9);
        assert!(!ordered.has_combiner_discount());
        // Figure 2's ordering at ~220 reducers: Partition at b = 12
        // (C(12, 3) = 220) and the multiway join at b = 6 (6³ = 216) ship
        // more per edge, which is why neither is registered.
        assert_eq!(partition_triangle_replication(12), 13.75);
        assert_eq!(multiway_triangle_replication(6), 16.0);
        assert!(ordered.replication_per_edge < partition_triangle_replication(12));
        assert!(partition_triangle_replication(12) < multiway_triangle_replication(6));
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
    fn share_grids_without_an_attained_optimum_stay_within_the_budget() {
        // Nodes 3 and 4 share their two neighbours 0 and 2, and neither is
        // dominated: along a ray where s0 = s2 grows and s3 = s4 shrinks every
        // term falls or stays. Rounding each share on its own overflowed any
        // key space; rounding within the budget gives a grid of at most k.
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
        let request = EnumerationRequest::new(twins.clone(), &g).reducers(750);
        for strategy in [&VariableOriented as &dyn Strategy, &BucketOriented] {
            assert_eq!(strategy.applicability(&request), Ok(()));
        }
        let (shares, _) = variable_oriented::optimize(&sample_plan(&twins), 750);
        let grid: u32 = shares.iter().product();
        assert!(grid <= 750 && shares.iter().all(|&s| s >= 1), "{shares:?}");
    }

    #[test]
    fn execution_matches_the_oracle_for_each_strategy_kind() {
        let g = generators::gnm(40, 220, 77);
        let expected = enumerate_generic(&catalog::triangle(), &g).count();
        for kind in StrategyKind::all() {
            let request = EnumerationRequest::new(catalog::triangle(), &g)
                .reducers(64)
                .engine(subgraph_mapreduce::EngineConfig::serial());
            let strategy = kind.strategy();
            assert_eq!(strategy.kind(), kind);
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
