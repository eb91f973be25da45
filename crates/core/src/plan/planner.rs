//! The [`Planner`]: scores every applicable strategy and returns an
//! inspectable [`ExecutionPlan`].

use crate::plan::cost::{format_value, CostEstimate};
use crate::plan::report::RunReport;
use crate::plan::request::{EnumerationRequest, PlanError};
use crate::plan::strategy::{builtin_strategies, Strategy, StrategyKind};
use crate::sink::{CountSink, InstanceSink};
use std::sync::Arc;

/// Chooses the cheapest strategy for an [`EnumerationRequest`].
///
/// The planner asks every registered strategy for a [`CostEstimate`] and ranks
/// them the way the paper compares algorithms: predicted communication cost
/// first (Sections 2 and 4), predicted computation cost as the tie-breaker
/// (Sections 6-7). A reducer budget of at most 1 plans among the serial
/// algorithms; a larger budget plans among the map-reduce strategies. A
/// strategy override in the request skips the ranking entirely (only the
/// applicability check runs).
pub struct Planner {
    strategies: Vec<Arc<dyn Strategy>>,
}

impl Planner {
    /// A planner over every built-in strategy.
    pub fn new() -> Self {
        Planner {
            strategies: builtin_strategies(),
        }
    }

    /// A planner restricted to an explicit strategy list (mainly for tests
    /// and ablation experiments). The plan executes exactly the instances
    /// registered here, so custom [`Strategy`] implementations run as given.
    pub fn with_strategies(strategies: Vec<Arc<dyn Strategy>>) -> Self {
        Planner { strategies }
    }

    /// Plans a request: estimates every applicable strategy, ranks, and
    /// returns the inspectable plan.
    pub fn plan<'g>(
        &self,
        request: EnumerationRequest<'g>,
    ) -> Result<ExecutionPlan<'g>, PlanError> {
        if request.sample().num_edges() == 0 {
            return Err(PlanError::EmptyPattern);
        }

        if let Some(kind) = request.strategy_override() {
            let strategy = self
                .strategies
                .iter()
                .find(|s| s.kind() == kind)
                .ok_or(PlanError::NoApplicableStrategy)?;
            strategy
                .applicability(&request)
                .map_err(|reason| PlanError::NotApplicable {
                    strategy: kind,
                    reason,
                })?;
            let chosen = strategy.estimate(&request);
            return Ok(ExecutionPlan {
                candidates: vec![chosen.clone()],
                chosen,
                chosen_impl: Arc::clone(strategy),
                request,
            });
        }

        // Budget <= 1 means "no cluster": plan among the serial algorithms.
        let want_serial = request.reducer_budget() <= 1;
        let mut scored: Vec<(CostEstimate, Arc<dyn Strategy>)> = Vec::new();
        let mut first_refusal = None;
        for s in self
            .strategies
            .iter()
            .filter(|s| s.kind().is_serial() == want_serial)
        {
            match s.applicability(&request) {
                Ok(()) => scored.push((s.estimate(&request), Arc::clone(s))),
                Err(reason) => {
                    first_refusal.get_or_insert(PlanError::NotApplicable {
                        strategy: s.kind(),
                        reason,
                    });
                }
            }
        }
        if scored.is_empty() {
            // Past the order-class limit every general map-reduce strategy
            // refuses; name that first. Otherwise name the first candidate's
            // refusal, and report a bare "no strategy" only when there was no
            // candidate at all.
            if !want_serial {
                request.check_order_classes()?;
            }
            return Err(first_refusal.unwrap_or(PlanError::NoApplicableStrategy));
        }
        // Stable sort: registration order breaks exact ties.
        scored.sort_by(|a, b| {
            a.0.score()
                .partial_cmp(&b.0.score())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let chosen_impl = Arc::clone(&scored[0].1);
        let candidates: Vec<CostEstimate> = scored.into_iter().map(|(c, _)| c).collect();
        Ok(ExecutionPlan {
            chosen: candidates[0].clone(),
            candidates,
            chosen_impl,
            request,
        })
    }

    /// Rebuilds an [`ExecutionPlan`] from a previously computed decision
    /// without re-estimating anything: `chosen` (and the optional ranked
    /// `candidates` list for `explain()`) come from an earlier
    /// [`Planner::plan`] whose estimates the caller kept — a plan cache does
    /// exactly this. The strategy implementation is looked up by kind; every
    /// derived parameter (shares, bucket counts) is reused from `chosen`, so
    /// resuming performs zero planning work.
    ///
    /// The caller is responsible for keying cached estimates so `chosen` is
    /// valid for `request` — same pattern, same reducer budget, and a data
    /// graph the cost model cannot distinguish from the one the estimate was
    /// computed for (e.g. equal [`subgraph_graph::GraphStats::fingerprint`]).
    pub fn resume<'g>(
        &self,
        request: EnumerationRequest<'g>,
        chosen: CostEstimate,
        candidates: Vec<CostEstimate>,
    ) -> Result<ExecutionPlan<'g>, PlanError> {
        let strategy = self
            .strategies
            .iter()
            .find(|s| s.kind() == chosen.strategy)
            .ok_or(PlanError::NoApplicableStrategy)?;
        let candidates = if candidates.is_empty() {
            vec![chosen.clone()]
        } else {
            candidates
        };
        Ok(ExecutionPlan {
            chosen,
            chosen_impl: Arc::clone(strategy),
            candidates,
            request,
        })
    }
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

/// The outcome of planning: the chosen strategy, every candidate's predicted
/// costs, and the request itself — inspect it with
/// [`ExecutionPlan::explain`], run it with [`ExecutionPlan::execute`].
pub struct ExecutionPlan<'g> {
    request: EnumerationRequest<'g>,
    chosen: CostEstimate,
    /// The strategy instance that produced `chosen` — execution runs exactly
    /// this object, so custom strategies registered through
    /// [`Planner::with_strategies`] are honoured.
    chosen_impl: Arc<dyn Strategy>,
    candidates: Vec<CostEstimate>,
}

impl std::fmt::Debug for ExecutionPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionPlan")
            .field("request", &self.request)
            .field("chosen", &self.chosen)
            .field("candidates", &self.candidates)
            .finish_non_exhaustive()
    }
}

impl<'g> ExecutionPlan<'g> {
    /// The strategy the planner chose.
    pub fn strategy(&self) -> StrategyKind {
        self.chosen.strategy
    }

    /// The chosen strategy's predicted costs.
    pub fn chosen(&self) -> &CostEstimate {
        &self.chosen
    }

    /// Every candidate's predicted costs, cheapest first.
    pub fn candidates(&self) -> &[CostEstimate] {
        &self.candidates
    }

    /// The request this plan was built for.
    pub fn request(&self) -> &EnumerationRequest<'g> {
        &self.request
    }

    /// Predicted communication cost of the chosen strategy (key-value pairs).
    pub fn predicted_communication(&self) -> f64 {
        self.chosen.communication
    }

    /// Predicted per-edge replication of the chosen strategy.
    pub fn predicted_replication(&self) -> f64 {
        self.chosen.replication_per_edge
    }

    /// Predicted total reducer work of the chosen strategy.
    pub fn predicted_reducer_work(&self) -> f64 {
        self.chosen.reducer_work
    }

    /// A human-readable rendering of the whole plan: the request, the chosen
    /// strategy with its shares, predicted replication and predicted reducer
    /// work, and the ranked candidate table.
    pub fn explain(&self) -> String {
        let sample = self.request.sample();
        let graph = self.request.graph();
        let mut out = String::new();
        let pattern = match self.request.pattern_name() {
            Some(name) => format!("{name:?}"),
            None => "<custom>".to_string(),
        };
        out.push_str(&format!(
            "enumeration plan for pattern {pattern} (p = {}, {} edges) over data graph (n = {}, m = {})\n",
            sample.num_nodes(),
            sample.num_edges(),
            graph.num_nodes(),
            graph.num_edges(),
        ));
        out.push_str(&format!(
            "reducer budget k = {}{}\n",
            self.request.reducer_budget(),
            if self.request.strategy_override().is_some() {
                " (strategy forced by the caller)"
            } else {
                ""
            },
        ));
        out.push_str(&format!(
            "chosen strategy: {} ({})\n",
            self.chosen.strategy, self.chosen.paper_section
        ));
        let shares: Vec<String> = self
            .chosen
            .shares
            .iter()
            .map(|s| format_value(*s))
            .collect();
        out.push_str(&format!(
            "  shares: [{}]{}\n",
            shares.join(", "),
            match self.chosen.buckets {
                Some(b) => format!(" (uniform b = {b})"),
                None => String::new(),
            },
        ));
        out.push_str(&format!(
            "  predicted replication: {} per edge ({} key-value pairs)\n",
            format_value(self.chosen.replication_per_edge),
            format_value(self.chosen.communication),
        ));
        out.push_str(&format!(
            "  predicted reducers: {}\n",
            format_value(self.chosen.reducers)
        ));
        out.push_str(&format!(
            "  predicted reducer work: {}\n",
            format_value(self.chosen.reducer_work)
        ));
        // Order-class search counters (only strategies that search CQ order
        // classes set them — cq-oriented processing): how much of `p!/|Aut|`
        // the branch-and-bound lower bound pruned away. Reported even when
        // another strategy wins, because the search ran while estimating.
        for candidate in &self.candidates {
            let classes = candidate.classes_scored + candidate.classes_pruned;
            if classes > 0 {
                out.push_str(&format!(
                    "  order classes ({}): {classes} ({} scored, {} pruned by the Shares lower bound)\n",
                    candidate.strategy, candidate.classes_scored, candidate.classes_pruned,
                ));
            }
        }
        // The per-round breakdown earns its lines when there is something a
        // single total cannot show: several rounds or jobs, or a combiner
        // discount.
        let costs = &self.chosen.round_costs;
        if costs.len() > 1
            || costs.iter().any(|r| r.jobs > 1)
            || self.chosen.has_combiner_discount()
        {
            out.push_str("  per-round communication:\n");
            for round in costs {
                let jobs = match round.jobs {
                    1 => String::new(),
                    n => format!("{n} jobs × "),
                };
                if round.shuffled < round.emitted {
                    out.push_str(&format!(
                        "    {}: {jobs}{} pairs emitted, {} shipped after map-side combining ({} bytes)\n",
                        round.name,
                        format_value(round.emitted),
                        format_value(round.shuffled),
                        format_value(round.shuffle_bytes),
                    ));
                } else {
                    out.push_str(&format!(
                        "    {}: {jobs}{} pairs shipped ({} bytes)\n",
                        round.name,
                        format_value(round.shuffled),
                        format_value(round.shuffle_bytes),
                    ));
                }
            }
        }
        out.push_str("candidates (cheapest first):\n");
        out.push_str(&format!(
            "  {:<30} {:<10} {:>12} {:>14} {:>10} {:>14}\n",
            "strategy", "shares", "repl/edge", "communication", "reducers", "work"
        ));
        for candidate in &self.candidates {
            let marker = if candidate.strategy == self.chosen.strategy {
                '*'
            } else {
                ' '
            };
            out.push_str("  ");
            out.push_str(&candidate.explain_row(marker));
            out.push('\n');
        }
        out
    }

    /// Executes the chosen strategy, collecting every instance into the
    /// returned [`RunReport`]. The chosen [`CostEstimate`] is handed back to
    /// the strategy so planning work (share optimization, bucket selection)
    /// is reused, not repeated.
    pub fn execute(&self) -> RunReport {
        self.chosen_impl.execute(&self.request, &self.chosen)
    }

    /// Executes the chosen strategy, streaming every instance into `sink`
    /// instead of collecting it: the engine's final-round reduce workers feed
    /// the sink's shards directly, so a constant-memory sink (e.g.
    /// [`crate::sink::CountSink`]) enumerates outputs far larger than memory.
    /// The returned report carries the metrics and the streamed count
    /// ([`RunReport::is_streamed`] is true, [`RunReport::count`] is
    /// accurate).
    pub fn run_with_sink(&self, sink: &mut dyn InstanceSink) -> RunReport {
        self.chosen_impl
            .execute_into(&self.request, &self.chosen, sink)
    }

    /// Executes the chosen strategy in count-only mode: instances flow
    /// through a [`CountSink`], so no per-instance storage is allocated
    /// anywhere — not in the engine, not in the report. Returns the streamed
    /// report; its [`RunReport::count`] is the instance count and all
    /// [`subgraph_mapreduce::JobMetrics`] counters are identical to what the
    /// collect path would have measured.
    pub fn count(&self) -> RunReport {
        let mut counter = CountSink::new();
        let report = self.run_with_sink(&mut counter);
        debug_assert_eq!(report.count(), counter.count());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::generic::enumerate_generic;
    use subgraph_graph::generators;
    use subgraph_mapreduce::EngineConfig;
    use subgraph_pattern::{catalog, SampleGraph};

    fn serial() -> EngineConfig {
        EngineConfig::serial()
    }

    #[test]
    fn lollipop_prefers_bucket_oriented_over_cq_oriented() {
        // Theorem 4.4 / Section 4.5: evaluating all CQs in one hash-ordered
        // job beats one job per CQ. At k = 750 the bucket-oriented scheme uses
        // b = 10 buckets and ships C(11, 2) = 55 copies per edge, while the 12
        // lollipop CQs at ~65 copies each ship ~780.
        let g = generators::gnm(60, 300, 9);
        let plan = EnumerationRequest::named("lollipop", &g)
            .unwrap()
            .reducers(750)
            .plan()
            .unwrap();
        assert_eq!(plan.strategy(), StrategyKind::BucketOriented);
        let cq = plan
            .candidates()
            .iter()
            .find(|c| c.strategy == StrategyKind::CqOriented)
            .expect("cq-oriented was considered");
        assert!(plan.predicted_communication() < cq.communication);
        assert!((plan.predicted_replication() - 55.0).abs() < 1e-9);
        assert!(cq.replication_per_edge > 700.0);
    }

    #[test]
    fn explain_reports_shares_replication_and_work() {
        let g = generators::gnm(60, 300, 9);
        let plan = EnumerationRequest::named("lollipop", &g)
            .unwrap()
            .reducers(750)
            .plan()
            .unwrap();
        let text = plan.explain();
        assert!(text.contains("chosen strategy: bucket-oriented"));
        assert!(text.contains("shares: [10, 10, 10, 10]"));
        assert!(text.contains("predicted replication: 55 per edge"));
        assert!(text.contains("predicted reducer work:"));
        assert!(text.contains("cq-oriented"));
        assert!(text.contains("variable-oriented"));
    }

    #[test]
    fn budget_of_one_plans_a_serial_strategy() {
        let g = generators::gnm(30, 120, 3);
        let plan = EnumerationRequest::new(catalog::square(), &g)
            .reducers(1)
            .plan()
            .unwrap();
        assert!(plan.strategy().is_serial());
        assert_eq!(plan.predicted_communication(), 0.0);
        let report = plan.execute();
        assert_eq!(report.rounds, 0);
        assert_eq!(
            report.count(),
            enumerate_generic(&catalog::square(), &g).count()
        );
    }

    #[test]
    fn override_forces_the_strategy() {
        let g = generators::gnm(40, 200, 5);
        let plan = EnumerationRequest::new(catalog::triangle(), &g)
            .reducers(64)
            .strategy(StrategyKind::MultiwayTriangles)
            .engine(serial())
            .plan()
            .unwrap();
        assert_eq!(plan.strategy(), StrategyKind::MultiwayTriangles);
        let report = plan.execute();
        assert_eq!(
            report.count(),
            enumerate_generic(&catalog::triangle(), &g).count()
        );
    }

    #[test]
    fn override_of_inapplicable_strategy_errors() {
        let g = generators::complete(6);
        let err = EnumerationRequest::new(catalog::square(), &g)
            .strategy(StrategyKind::PartitionTriangles)
            .plan()
            .unwrap_err();
        match err {
            PlanError::NotApplicable { strategy, .. } => {
                assert_eq!(strategy, StrategyKind::PartitionTriangles)
            }
            other => panic!("expected NotApplicable, got {other:?}"),
        }
    }

    #[test]
    fn patterns_past_the_order_class_limit_are_refused_by_name() {
        use crate::plan::MAX_ORDER_CLASSES;
        let g = generators::gnm(40, 50, 3);
        // 16!/384 classes: known from the stabilizer chain before a single
        // ordering is built, so the refusal is immediate.
        let err = EnumerationRequest::named("hypercube4", &g)
            .unwrap()
            .plan()
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::TooManyOrderClasses {
                pattern: "hypercube4".to_string(),
                nodes: 16,
                automorphisms: 384,
                classes: 54_486_432_000,
            }
        );
        let text = err.to_string();
        for fact in ["hypercube4", "p = 16", "|Aut| = 384", "54486432000"] {
            assert!(text.contains(fact), "{text}");
        }
        // Forcing one of the three per-class strategies names the same
        // reason; the serial family builds no CQ collection and still plans.
        for kind in [
            StrategyKind::BucketOriented,
            StrategyKind::VariableOriented,
            StrategyKind::CqOriented,
        ] {
            let request = EnumerationRequest::named("c16", &g).unwrap();
            match request.strategy(kind).plan().unwrap_err() {
                PlanError::NotApplicable { strategy, reason } => {
                    assert_eq!(strategy, kind);
                    assert!(reason.contains("653837184000"), "{reason}");
                }
                other => panic!("expected NotApplicable, got {other:?}"),
            }
        }
        let serial = EnumerationRequest::named("hypercube4", &g)
            .unwrap()
            .reducers(1)
            .plan()
            .unwrap();
        assert!(serial.strategy().is_serial());
        // The limit is 10!: ten nodes always fit, symmetric patterns of any
        // size do, and both plan without enumerating a permutation.
        assert_eq!(MAX_ORDER_CLASSES, (1..=10).product::<u128>());
        for (pattern, classes) in [("star12", 12), ("k12", 1)] {
            let plan = EnumerationRequest::named(pattern, &g)
                .unwrap()
                .plan()
                .unwrap();
            let searched = (plan.candidates().iter())
                .map(|c| c.classes_scored + c.classes_pruned)
                .find(|&n| n > 0);
            assert_eq!(searched, Some(classes), "{pattern}");
        }
    }

    #[test]
    fn empty_patterns_are_rejected() {
        let g = generators::complete(4);
        let err = EnumerationRequest::new(SampleGraph::empty(3), &g)
            .plan()
            .unwrap_err();
        assert_eq!(err, PlanError::EmptyPattern);
    }

    #[test]
    fn triangle_requests_consider_the_specialized_algorithms() {
        let g = generators::gnm(80, 500, 6);
        let plan = EnumerationRequest::named("triangle", &g)
            .unwrap()
            .reducers(220)
            .plan()
            .unwrap();
        let kinds: Vec<StrategyKind> = plan.candidates().iter().map(|c| c.strategy).collect();
        assert!(kinds.contains(&StrategyKind::BucketOrderedTriangles));
        assert!(kinds.contains(&StrategyKind::PartitionTriangles));
        assert!(kinds.contains(&StrategyKind::MultiwayTriangles));
        assert!(kinds.contains(&StrategyKind::CascadeTriangles));
        // The paper's best one-round algorithm wins: b per edge beats every
        // alternative at equal reducer counts (Figure 2), and the generic
        // bucket-oriented scheme at p = 3 predicts the same replication, so
        // the tie-break keeps the generic strategy ahead only if it is not
        // worse. Either way the winner ships b = 10 copies per edge.
        assert!((plan.predicted_replication() - 10.0).abs() < 1e-9);
        let report = plan.execute();
        assert_eq!(report.duplicates(), 0);
    }

    #[test]
    fn resumed_plans_execute_without_replanning() {
        let g = generators::gnm(50, 250, 4);
        let planner = Planner::new();
        let first = planner
            .plan(
                EnumerationRequest::named("triangle", &g)
                    .unwrap()
                    .reducers(220)
                    .engine(serial()),
            )
            .unwrap();
        let expected = first.count().count();
        // Cache what a plan cache would keep: the chosen estimate and the
        // ranked candidates (both owned, no graph borrow).
        let chosen = first.chosen().clone();
        let candidates = first.candidates().to_vec();
        drop(first);
        let resumed = planner
            .resume(
                EnumerationRequest::named("triangle", &g)
                    .unwrap()
                    .reducers(220)
                    .engine(serial()),
                chosen,
                candidates,
            )
            .unwrap();
        assert_eq!(resumed.strategy(), resumed.chosen().strategy);
        assert_eq!(resumed.count().count(), expected);
        assert!(resumed.explain().contains("chosen strategy:"));
    }

    #[test]
    fn resume_with_empty_candidates_still_explains() {
        let g = generators::gnm(30, 120, 3);
        let planner = Planner::new();
        let plan = planner
            .plan(
                EnumerationRequest::named("triangle", &g)
                    .unwrap()
                    .reducers(64),
            )
            .unwrap();
        let chosen = plan.chosen().clone();
        let resumed = planner
            .resume(
                EnumerationRequest::named("triangle", &g)
                    .unwrap()
                    .reducers(64),
                chosen,
                Vec::new(),
            )
            .unwrap();
        assert_eq!(resumed.candidates().len(), 1);
    }

    #[test]
    fn restricted_planner_reports_no_applicable_strategy() {
        let g = generators::complete(5);
        // No candidate at all: nothing to name.
        let err = Planner::with_strategies(Vec::new())
            .plan(EnumerationRequest::new(catalog::square(), &g))
            .unwrap_err();
        assert_eq!(err, PlanError::NoApplicableStrategy);
        // A candidate that refuses: its refusal is the answer.
        let planner = Planner::with_strategies(vec![std::sync::Arc::new(
            crate::plan::strategy::PartitionTriangles,
        )]);
        let err = planner
            .plan(EnumerationRequest::new(catalog::square(), &g))
            .unwrap_err();
        assert!(
            matches!(
                err,
                PlanError::NotApplicable {
                    strategy: StrategyKind::PartitionTriangles,
                    ..
                }
            ),
            "{err}"
        );
    }
}
