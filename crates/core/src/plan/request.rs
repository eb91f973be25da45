//! [`EnumerationRequest`]: the single entry point every enumeration goes
//! through.

use crate::plan::planner::{ExecutionPlan, Planner};
use crate::plan::strategy::StrategyKind;
use std::fmt;
use subgraph_graph::DataGraph;
use subgraph_mapreduce::EngineConfig;
use subgraph_pattern::{automorphism_group, catalog, SampleGraph};

/// Default reducer budget when the caller does not specify one.
pub const DEFAULT_REDUCERS: usize = 64;

/// The most CQ order classes (`p!/|Aut(S)|`, Theorem 3.1) the general
/// map-reduce strategies take on, and the most jobs
/// [`crate::enumerate::cq_oriented::run_cq_oriented`] runs (one per class);
/// bucket- and variable-oriented processing, which build none, are held to
/// the same limit for now. 10!: every pattern on at
/// most ten nodes is under it whatever its symmetry, as are the symmetric
/// larger ones (`star16`, `k16`: 16 and 1 classes), while `hypercube4` and
/// `c16` (5·10¹⁰ and 7·10¹¹ classes, terabytes of CQs) are refused by name
/// instead of exhausting memory. The class count comes from the automorphism
/// group's stabilizer chain, so the refusal costs microseconds.
pub const MAX_ORDER_CLASSES: u128 = 3_628_800;

/// Everything the planner needs to choose and run a strategy: the sample
/// graph, the data graph, the reducer budget, an optional strategy override
/// and the engine configuration.
///
/// Build one with [`EnumerationRequest::new`] (explicit sample graph) or
/// [`EnumerationRequest::named`] (catalog pattern by name), refine it with the
/// builder methods, then call [`EnumerationRequest::plan`].
///
/// A reducer budget of 1 (or 0) means "no cluster": the planner then chooses
/// among the serial algorithms of Sections 6-7 instead of the map-reduce
/// strategies.
#[derive(Clone, Debug)]
pub struct EnumerationRequest<'g> {
    sample: SampleGraph,
    pattern_name: Option<String>,
    graph: &'g DataGraph,
    reducers: usize,
    strategy_override: Option<StrategyKind>,
    config: EngineConfig,
}

impl<'g> EnumerationRequest<'g> {
    /// A request for an explicit sample graph with the default reducer budget.
    pub fn new(sample: SampleGraph, graph: &'g DataGraph) -> Self {
        EnumerationRequest {
            sample,
            pattern_name: None,
            graph,
            reducers: DEFAULT_REDUCERS,
            strategy_override: None,
            config: EngineConfig::default(),
        }
    }

    /// A request for a named catalog pattern (`"triangle"`, `"lollipop"`,
    /// `"c5"`, `"k4"`, `"star5"`, ... — see [`catalog::by_name`]).
    pub fn named(name: &str, graph: &'g DataGraph) -> Result<Self, PlanError> {
        let sample =
            catalog::by_name(name).ok_or_else(|| PlanError::UnknownPattern(name.to_string()))?;
        let mut request = EnumerationRequest::new(sample, graph);
        request.pattern_name = Some(name.to_string());
        Ok(request)
    }

    /// A request for a pattern given as either a catalog name or an inline
    /// edge-list spec such as `a-b,b-c,c-a` ([`subgraph_pattern::parse_spec`]).
    ///
    /// Catalog names win: `pentagon-with-chord` is a catalog entry even
    /// though it would also parse as a (single-edge) spec. A string that is
    /// neither a known name nor spec-shaped reports [`PlanError::UnknownPattern`];
    /// a spec-shaped string that fails to parse reports the spec error.
    pub fn resolve(pattern: &str, graph: &'g DataGraph) -> Result<Self, PlanError> {
        if let Some(sample) = catalog::by_name(pattern) {
            let mut request = EnumerationRequest::new(sample, graph);
            request.pattern_name = Some(pattern.to_string());
            return Ok(request);
        }
        if !subgraph_pattern::spec::looks_like_spec(pattern) {
            return Err(PlanError::UnknownPattern(pattern.to_string()));
        }
        let sample =
            subgraph_pattern::parse_spec(pattern).map_err(|source| PlanError::InvalidSpec {
                spec: pattern.to_string(),
                reason: source.to_string(),
            })?;
        let mut request = EnumerationRequest::new(sample, graph);
        // Keep the spec as the display name so explain() and cache keys show
        // what the caller typed instead of "<custom>".
        request.pattern_name = Some(pattern.to_string());
        Ok(request)
    }

    /// Sets the reducer budget `k` (the paper's fixed number of reducers the
    /// communication cost is optimized against).
    pub fn reducers(mut self, k: usize) -> Self {
        self.reducers = k;
        self
    }

    /// Forces a specific strategy instead of letting the planner choose.
    pub fn strategy(mut self, kind: StrategyKind) -> Self {
        self.strategy_override = Some(kind);
        self
    }

    /// Sets the engine configuration (thread count, determinism).
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Plans the request with the default [`Planner`] (every built-in
    /// strategy).
    pub fn plan(self) -> Result<ExecutionPlan<'g>, PlanError> {
        Planner::new().plan(self)
    }

    /// Plans and executes the request in count-only mode: the instances flow
    /// through a [`crate::sink::CountSink`], so no per-instance storage is
    /// allocated anywhere. Returns the number of instances.
    pub fn count(self) -> Result<usize, PlanError> {
        Ok(self.plan()?.count().count())
    }

    /// Plans the request and streams every instance into `sink`; the returned
    /// [`crate::plan::RunReport`] carries metrics and the streamed count.
    pub fn run_with_sink(
        self,
        sink: &mut dyn crate::sink::InstanceSink,
    ) -> Result<crate::plan::RunReport, PlanError> {
        Ok(self.plan()?.run_with_sink(sink))
    }

    /// The sample graph being enumerated.
    pub fn sample(&self) -> &SampleGraph {
        &self.sample
    }

    /// The catalog name of the pattern, if the request was built from one.
    pub fn pattern_name(&self) -> Option<&str> {
        self.pattern_name.as_deref()
    }

    /// The data graph handle.
    pub fn graph(&self) -> &'g DataGraph {
        self.graph
    }

    /// The reducer budget `k`.
    pub fn reducer_budget(&self) -> usize {
        self.reducers
    }

    /// The forced strategy, if any.
    pub fn strategy_override(&self) -> Option<StrategyKind> {
        self.strategy_override
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// `Ok` when the pattern has at most [`MAX_ORDER_CLASSES`] order classes,
    /// [`PlanError::TooManyOrderClasses`] otherwise — decided from `|Aut(S)|`
    /// alone, before any class is enumerated.
    pub(crate) fn check_order_classes(&self) -> Result<(), PlanError> {
        let group = automorphism_group(&self.sample);
        let classes = group.order_classes();
        if classes <= MAX_ORDER_CLASSES {
            return Ok(());
        }
        Err(PlanError::TooManyOrderClasses {
            pattern: self.pattern_name().unwrap_or("<custom>").to_string(),
            nodes: self.sample.num_nodes(),
            automorphisms: group.order(),
            classes,
        })
    }
}

/// Why a request could not be planned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// [`EnumerationRequest::named`] got a name [`catalog::by_name`] does not
    /// know.
    UnknownPattern(String),
    /// [`EnumerationRequest::resolve`] got a spec-shaped pattern that does
    /// not parse as an inline edge list.
    InvalidSpec {
        /// The spec as given.
        spec: String,
        /// The parse failure, rendered.
        reason: String,
    },
    /// The sample graph has no edges, so no edge-relation CQ can produce it.
    EmptyPattern,
    /// A strategy cannot run this request (wrong pattern shape, disconnected
    /// pattern, a budget past its key space, ...): the forced strategy, or
    /// the first candidate of an unforced plan that every candidate refused.
    NotApplicable {
        /// The strategy that refused.
        strategy: StrategyKind,
        /// Human-readable reason.
        reason: String,
    },
    /// The pattern has more than [`MAX_ORDER_CLASSES`] CQ order classes, so
    /// every strategy that runs one CQ or one job per class refuses it.
    TooManyOrderClasses {
        /// The pattern as the caller named it.
        pattern: String,
        /// Its node count `p`.
        nodes: usize,
        /// `|Aut(S)|`.
        automorphisms: u128,
        /// `p!/|Aut(S)|`.
        classes: u128,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownPattern(name) => {
                write!(f, "unknown catalog pattern {name:?}; see catalog::by_name")
            }
            PlanError::InvalidSpec { spec, reason } => {
                write!(f, "invalid pattern spec {spec:?}: {reason}")
            }
            PlanError::EmptyPattern => write!(f, "the sample graph has no edges"),
            PlanError::NotApplicable { strategy, reason } => {
                write!(f, "strategy {strategy} cannot run this request: {reason}")
            }
            PlanError::TooManyOrderClasses {
                pattern,
                nodes,
                automorphisms,
                classes,
            } => write!(
                f,
                "pattern {pattern:?} (p = {nodes}, |Aut| = {automorphisms}) has {classes} CQ \
                 order classes (p!/|Aut|); one conjunctive query is built per class, and the \
                 limit is {MAX_ORDER_CLASSES}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;
    use subgraph_graph::generators;

    #[test]
    fn builder_round_trips_every_field() {
        let g = generators::complete(5);
        let request = EnumerationRequest::named("lollipop", &g)
            .unwrap()
            .reducers(750)
            .strategy(StrategyKind::BucketOriented)
            .engine(EngineConfig::serial());
        assert_eq!(request.pattern_name(), Some("lollipop"));
        assert_eq!(request.sample().num_nodes(), 4);
        assert_eq!(request.reducer_budget(), 750);
        assert_eq!(
            request.strategy_override(),
            Some(StrategyKind::BucketOriented)
        );
        assert_eq!(request.config().num_threads, 1);
        assert_eq!(request.graph().num_edges(), 10);
    }

    #[test]
    fn unknown_names_are_reported() {
        let g = generators::complete(4);
        match EnumerationRequest::named("dodecahedron", &g) {
            Err(PlanError::UnknownPattern(name)) => assert_eq!(name, "dodecahedron"),
            other => panic!("expected UnknownPattern, got {other:?}"),
        }
    }

    #[test]
    fn resolve_accepts_catalog_names_and_inline_specs() {
        let g = generators::complete(4);
        let named = EnumerationRequest::resolve("triangle", &g).unwrap();
        assert_eq!(named.pattern_name(), Some("triangle"));
        let spec = EnumerationRequest::resolve("a-b,b-c,c-a", &g).unwrap();
        assert_eq!(spec.pattern_name(), Some("a-b,b-c,c-a"));
        assert_eq!(spec.sample(), named.sample());
    }

    #[test]
    fn resolve_prefers_the_catalog_over_spec_parsing() {
        // "pentagon-with-chord" would parse as a one-edge spec between labels
        // "pentagon" / "with" / ... if the catalog did not win.
        let g = generators::complete(6);
        let request = EnumerationRequest::resolve("pentagon-with-chord", &g).unwrap();
        assert_eq!(request.sample().num_nodes(), 5);
        assert_eq!(request.sample().num_edges(), 6);
    }

    #[test]
    fn resolve_reports_spec_errors_and_unknown_patterns_distinctly() {
        let g = generators::complete(4);
        match EnumerationRequest::resolve("a-a", &g) {
            Err(PlanError::InvalidSpec { spec, reason }) => {
                assert_eq!(spec, "a-a");
                assert!(reason.contains("self-loop"), "{reason}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        assert!(matches!(
            EnumerationRequest::resolve("dodecahedron", &g),
            Err(PlanError::UnknownPattern(_))
        ));
    }

    #[test]
    fn resolved_specs_plan_and_count() {
        let g = generators::complete(5);
        // The triangle as a spec: C(5, 3) = 10 instances in K5.
        let count = EnumerationRequest::resolve("x-y,y-z,z-x", &g)
            .unwrap()
            .engine(EngineConfig::serial())
            .count()
            .unwrap();
        assert_eq!(count, 10);
    }

    #[test]
    fn requests_and_plans_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EnumerationRequest<'static>>();
        assert_send_sync::<crate::plan::ExecutionPlan<'static>>();
        assert_send_sync::<crate::plan::Planner>();
        assert_send_sync::<crate::plan::CostEstimate>();
    }
}
