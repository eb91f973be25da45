//! The [`Planner`]: scores every applicable strategy and returns an
//! inspectable [`ExecutionPlan`].

use crate::plan::cost::{format_value, CostEstimate};
use crate::plan::report::RunReport;
use crate::plan::request::{EnumerationRequest, PlanError};
use crate::plan::strategy::StrategyKind;
use crate::sink::{CountSink, InstanceSink};

/// Chooses the cheapest strategy for an [`EnumerationRequest`].
///
/// The planner asks every built-in strategy ([`StrategyKind::all`]) for a
/// [`CostEstimate`] and ranks them the way the paper compares algorithms:
/// predicted communication cost first (Sections 2 and 4), predicted
/// computation cost as the tie-breaker (Sections 6-7). A reducer budget of at
/// most 1 plans among the serial algorithms; a larger budget plans among the
/// map-reduce strategies. A strategy override in the request skips the
/// ranking entirely (only the applicability check runs).
#[derive(Default)]
pub struct Planner;

impl Planner {
    /// A planner over every built-in strategy.
    pub fn new() -> Self {
        Planner
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
            let strategy = kind.strategy();
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
                request,
            });
        }

        // Budget <= 1 means "no cluster": plan among the serial algorithms.
        let want_serial = request.reducer_budget() <= 1;
        let mut candidates: Vec<CostEstimate> = Vec::new();
        let mut first_refusal = None;
        for kind in StrategyKind::all()
            .into_iter()
            .filter(|k| k.is_serial() == want_serial)
        {
            match kind.strategy().applicability(&request) {
                Ok(()) => candidates.push(kind.strategy().estimate(&request)),
                Err(reason) => {
                    first_refusal.get_or_insert(PlanError::NotApplicable {
                        strategy: kind,
                        reason,
                    });
                }
            }
        }
        if candidates.is_empty() {
            // Past the order-class limit every general map-reduce strategy
            // refuses; name that first. Otherwise name the first candidate's
            // refusal: both families have registered strategies, so one
            // refused.
            if !want_serial {
                request.check_order_classes()?;
            }
            return Err(first_refusal.expect("both strategy families are registered"));
        }
        // Stable sort: registration order breaks exact ties.
        candidates.sort_by(|a, b| {
            a.score()
                .partial_cmp(&b.score())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(ExecutionPlan {
            chosen: candidates[0].clone(),
            candidates,
            request,
        })
    }

    /// Rebuilds an [`ExecutionPlan`] from a previously computed decision
    /// without re-estimating anything: `chosen` (and the optional ranked
    /// `candidates` list for `explain()`) come from an earlier
    /// [`Planner::plan`] whose estimates the caller kept — a plan cache does
    /// exactly this. Every derived parameter (shares, bucket counts) is
    /// reused from `chosen`, so resuming performs zero planning work.
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
    ) -> ExecutionPlan<'g> {
        let candidates = if candidates.is_empty() {
            vec![chosen.clone()]
        } else {
            candidates
        };
        ExecutionPlan {
            chosen,
            candidates,
            request,
        }
    }
}

/// The outcome of planning: the chosen strategy, every candidate's predicted
/// costs, and the request itself — inspect it with
/// [`ExecutionPlan::explain`], run it with [`ExecutionPlan::execute`].
#[derive(Debug)]
pub struct ExecutionPlan<'g> {
    request: EnumerationRequest<'g>,
    chosen: CostEstimate,
    candidates: Vec<CostEstimate>,
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
        let shares = match self.chosen.shares.as_slice() {
            [] => "-".to_string(),
            shares => {
                let shares: Vec<String> = shares.iter().map(|&s| format_value(s)).collect();
                format!("[{}]", shares.join(", "))
            }
        };
        out.push_str(&format!(
            "  shares: {shares}{}\n",
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
        // The per-round breakdown earns its lines when there is something a
        // single total cannot show: several rounds (the cascade).
        let costs = &self.chosen.round_costs;
        if costs.len() > 1 {
            out.push_str("  per-round communication:\n");
            for round in costs {
                out.push_str(&format!(
                    "    {}: {} pairs shipped ({} bytes)\n",
                    round.name,
                    format_value(round.shuffled),
                    format_value(round.shuffle_bytes),
                ));
            }
        }
        out.push_str("candidates (cheapest first):\n");
        // The strategy and shares columns fit their longest cells, and never
        // narrow below 28 and 10 characters.
        let width = (self.candidates.iter())
            .map(|c| c.label().chars().count())
            .fold(28, usize::max);
        let shares_width = (self.candidates.iter())
            .map(|c| c.shares_cell().chars().count())
            .fold(10, usize::max);
        out.push_str(&format!(
            "  {:<label$} {:<shares_width$} {:>12} {:>14} {:>10} {:>14}\n",
            "strategy",
            "shares",
            "repl/edge",
            "communication",
            "reducers",
            "work",
            label = width + 2,
        ));
        for candidate in &self.candidates {
            let marker = if candidate.strategy == self.chosen.strategy {
                '*'
            } else {
                ' '
            };
            out.push_str("  ");
            out.push_str(&candidate.explain_row(marker, width, shares_width));
            out.push('\n');
        }
        out
    }

    /// Executes the chosen strategy, collecting every instance into the
    /// returned [`RunReport`]. The chosen [`CostEstimate`] is handed back to
    /// the strategy so planning work (share optimization, bucket selection)
    /// is reused, not repeated.
    pub fn execute(&self) -> RunReport {
        self.chosen
            .strategy
            .strategy()
            .execute(&self.request, &self.chosen)
    }

    /// Executes the chosen strategy, streaming every instance into `sink`
    /// instead of collecting it: the engine's final-round reduce workers feed
    /// the sink's shards directly, so a constant-memory sink (e.g.
    /// [`crate::sink::CountSink`]) enumerates outputs far larger than memory.
    /// The returned report carries the metrics and the streamed count
    /// ([`RunReport::is_streamed`] is true, [`RunReport::count`] is
    /// accurate).
    pub fn run_with_sink(&self, sink: &mut dyn InstanceSink) -> RunReport {
        self.chosen
            .strategy
            .strategy()
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
    use crate::enumerate::cq_oriented::run_cq_oriented;
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
        // lollipop CQs at ~65 copies each ship ~780 — which is why
        // CQ-oriented processing is a function, not a candidate.
        let g = generators::gnm(60, 300, 9);
        let plan = EnumerationRequest::named("lollipop", &g)
            .unwrap()
            .reducers(750)
            .engine(serial())
            .plan()
            .unwrap();
        assert_eq!(plan.strategy(), StrategyKind::BucketOriented);
        assert!((plan.predicted_replication() - 55.0).abs() < 1e-9);
        let cq = run_cq_oriented(
            &catalog::lollipop(),
            &g,
            750,
            &serial(),
            &mut CountSink::new(),
        );
        assert_eq!(cq.outputs, plan.count().count());
        // Each of the 12 jobs reads every edge, so count copies per data edge.
        let shipped = cq.metrics.shuffle_records as f64;
        assert!(shipped / g.num_edges() as f64 > 700.0, "{shipped}");
        assert!(plan.predicted_communication() < shipped);
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
        assert!(!text.contains("order classes"), "{text}");
        let variable = (text.lines())
            .find(|l| l.contains("variable-oriented (§4.3)"))
            .expect("variable-oriented is a candidate");
        assert!(
            variable.contains('[') && !variable.contains(".0"),
            "{variable}"
        );
        // A share vector wider than the shares heading: four shares, one of
        // them two digits long.
        let vector = &variable[variable.find('[').unwrap() + 1..variable.find(']').unwrap()];
        let shares: Vec<&str> = vector.split(", ").collect();
        assert!(
            shares.len() == 4 && shares.iter().any(|s| s.len() == 2),
            "{variable}"
        );
        // Every row's cells line up under the header's, however long a label
        // or a share vector: the shares start at their heading, the numbers
        // end at theirs.
        let aligned = |text: &str| {
            let mut rows = text.lines().skip_while(|l| !l.starts_with("candidates"));
            let header = rows.nth(1).expect("a header row");
            let shares = header.find("shares").expect("a shares column");
            let ends: Vec<usize> = ["repl/edge", "communication", "reducers", "work"]
                .iter()
                .map(|heading| header.find(heading).expect("a heading") + heading.len())
                .collect();
            for row in rows {
                let cell: Vec<char> = row.chars().collect();
                let at = |i: usize| cell.get(i).copied().unwrap_or(' ');
                assert!(at(shares - 1) == ' ' && at(shares) != ' ', "{row}");
                for &end in &ends {
                    assert!(at(end - 1) != ' ' && at(end) == ' ', "{row}");
                }
            }
        };
        aligned(&text);
        aligned(
            &EnumerationRequest::named("triangle", &g)
                .unwrap()
                .reducers(2)
                .plan()
                .unwrap()
                .explain(),
        );
    }

    #[test]
    fn budget_of_one_plans_a_serial_strategy() {
        // Schank's algorithm examines at most m·Δ/2 and fewer than m^1.5/√2
        // 2-paths, under both bounds the join is priced at; every other
        // pattern runs the join.
        for g in [
            generators::gnm(400, 2_000, 11),
            generators::power_law(400, 2_000, 2.2, 11),
        ] {
            for entry in subgraph_pattern::catalog::entries() {
                let request = EnumerationRequest::new(entry.sample, &g).reducers(1);
                let expected = match entry.name {
                    "triangle" => StrategyKind::SerialTriangles,
                    _ => StrategyKind::SerialJoin,
                };
                assert_eq!(
                    request.plan().unwrap().strategy(),
                    expected,
                    "{}",
                    entry.name
                );
            }
        }
        // The same instances as the oracle, with no Theorem 7.3 bound for two
        // disjoint edges.
        let g = generators::gnm(30, 120, 3);
        for sample in [
            catalog::square(),
            SampleGraph::from_edges(4, &[(0, 1), (2, 3)]),
        ] {
            let plan = EnumerationRequest::new(sample.clone(), &g)
                .reducers(1)
                .plan()
                .unwrap();
            assert_eq!(plan.strategy(), StrategyKind::SerialJoin);
            assert_eq!(plan.predicted_communication(), 0.0);
            assert!(plan.explain().contains("  shares: -\n"));
            let report = plan.execute();
            assert_eq!(report.rounds, 0);
            let mut found = report.into_instances();
            let mut oracle = enumerate_generic(&sample, &g).into_instances();
            found.sort_unstable();
            oracle.sort_unstable();
            assert!(!oracle.is_empty());
            assert_eq!(found, oracle);
        }
    }

    #[test]
    fn override_forces_the_strategy() {
        let g = generators::gnm(40, 200, 5);
        let plan = EnumerationRequest::new(catalog::triangle(), &g)
            .reducers(64)
            .strategy(StrategyKind::CascadeTriangles)
            .engine(serial())
            .plan()
            .unwrap();
        assert_eq!(plan.strategy(), StrategyKind::CascadeTriangles);
        assert_eq!(plan.candidates().len(), 1);
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
            .strategy(StrategyKind::CascadeTriangles)
            .plan()
            .unwrap_err();
        match err {
            PlanError::NotApplicable { strategy, .. } => {
                assert_eq!(strategy, StrategyKind::CascadeTriangles)
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
        // Forcing either general map-reduce strategy names the same reason;
        // the serial family builds no CQ collection and still plans.
        for kind in [StrategyKind::BucketOriented, StrategyKind::VariableOriented] {
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
        assert_eq!(serial.strategy(), StrategyKind::SerialJoin);
        // The limit is 10!: ten nodes always fit, symmetric patterns of any
        // size do, and both plan without enumerating a permutation.
        assert_eq!(MAX_ORDER_CLASSES, (1..=10).product::<u128>());
        for pattern in ["star12", "k12"] {
            let plan = EnumerationRequest::named(pattern, &g)
                .unwrap()
                .plan()
                .unwrap();
            // No registered estimate searches order classes: the harness's
            // class counters read 0.
            for candidate in plan.candidates() {
                assert_eq!(
                    (candidate.classes_scored, candidate.classes_pruned),
                    (0, 0),
                    "{pattern}"
                );
            }
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
        assert_eq!(kinds.len(), 3, "{kinds:?}");
        assert!(kinds.contains(&StrategyKind::VariableOriented));
        assert!(kinds.contains(&StrategyKind::CascadeTriangles));
        // The paper's best one-round algorithm wins: b per edge beats every
        // alternative at equal reducer counts (Figure 2), and at p = 3 the
        // bucket-oriented scheme is that algorithm (Section 2.3), shipping
        // b = 10 copies per edge.
        assert_eq!(plan.strategy(), StrategyKind::BucketOriented);
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
        let resumed = planner.resume(
            EnumerationRequest::named("triangle", &g)
                .unwrap()
                .reducers(220)
                .engine(serial()),
            chosen,
            candidates,
        );
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
        let resumed = planner.resume(
            EnumerationRequest::named("triangle", &g)
                .unwrap()
                .reducers(64),
            chosen,
            Vec::new(),
        );
        assert_eq!(resumed.candidates().len(), 1);
    }

    #[test]
    fn small_triangle_budgets_plan_four_bucket_oriented_keys() {
        // At k = 4–7 the triangle plans b = 2 (C(4, 3) = 4 keys, 2 records
        // per edge), not one reducer that a single thread joins alone.
        for g in [
            generators::gnm(1_000, 5_000, 7),
            generators::power_law(2_000, 10_000, 2.2, 3),
        ] {
            for k in 4..=7 {
                let plan = EnumerationRequest::named("triangle", &g)
                    .unwrap()
                    .reducers(k)
                    .plan()
                    .unwrap();
                assert_eq!(plan.strategy(), StrategyKind::BucketOriented, "k={k}");
                assert_eq!(plan.chosen().buckets, Some(2), "k={k}");
                assert_eq!(plan.chosen().reducers, 4.0, "k={k}");
            }
        }
    }
}
