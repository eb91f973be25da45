//! The paper's core algorithms: single-round map-reduce subgraph enumeration
//! with optimized communication cost, and convertible serial algorithms with
//! worst-case-optimal computation cost.
//!
//! The crate is organised along the paper's two halves:
//!
//! * **Communication cost (Sections 2–5).** [`triangles`] holds the three
//!   single-round triangle algorithms compared in Figures 1–2 (Partition,
//!   plain multiway join, bucket-ordered multiway join); [`enumerate`] holds
//!   the three processing strategies for arbitrary sample graphs (CQ-oriented,
//!   variable-oriented, bucket-oriented) built on the conjunctive-query
//!   machinery of `subgraph-cq`, the share optimizer of `subgraph-shares` and
//!   the instrumented engine of `subgraph-mapreduce`.
//! * **Computation cost (Sections 6–7).** [`serial`] holds the serial
//!   algorithms the reducers run: the `O(m^{3/2})` triangle/2-path algorithms,
//!   Algorithm 1 (`OddCycle`), the decomposition join of Lemma 6.1 /
//!   Theorem 7.2, the bounded-degree algorithm of Theorem 7.3, and a generic
//!   backtracking matcher used as the correctness oracle. [`convertible`]
//!   captures the convertibility criterion of Theorem 6.1, and
//!   [`relation_join`] the unequal-relation-size analysis of Section 7.4.
//!
//! The public entry point is the cost-driven planning layer in [`plan`]:
//! an [`EnumerationRequest`] feeds the [`Planner`], which scores every
//! applicable strategy on predicted communication and computation cost and
//! returns an inspectable, executable [`ExecutionPlan`]. Results leave every
//! algorithm through a streaming [`sink::InstanceSink`]
//! ([`ExecutionPlan::run_with_sink`], [`ExecutionPlan::count`]); the
//! `Vec`-returning entry points are thin [`sink::CollectSink`] wrappers. The
//! pre-planner per-algorithm free functions have been removed.

pub mod convertible;
pub mod enumerate;
pub mod plan;
pub mod relation_join;
pub mod result;
pub mod serial;
pub mod sink;
pub mod triangles;

pub use convertible::{is_convertible, predicted_parallel_work, ConvertibilityReport};
pub use plan::{
    CostEstimate, EnumerationRequest, ExecutionPlan, PlanError, Planner, RunReport, Strategy,
    StrategyKind,
};
pub use result::{MapReduceRun, RunStats, SerialRun, SerialStats};
pub use sink::{
    CollectSink, CountSink, CsvSink, EdgeListSink, FnSink, InstanceSink, NdjsonSink, OutputSink,
    SampleSink, SerializeSink,
};
