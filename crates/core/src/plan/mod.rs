//! The cost-driven planning layer: one entry point for every registered
//! enumeration strategy in the workspace.
//!
//! The paper's central contribution is *choosing* among single-round
//! strategies by comparing predicted communication and computation cost —
//! Partition vs. multiway vs. bucket-ordered for triangles (Section 2), CQ-,
//! variable- and bucket-oriented processing for general sample graphs
//! (Section 4), and the convertible serial algorithms (Sections 6-7). The
//! paper settles part of that choice itself: Partition, the plain multiway
//! join and CQ-oriented processing never win, so they are plain functions,
//! not strategies (see [`strategy`]). This module packages the rest of the
//! choice the way a query optimizer would:
//!
//! 1. Build an [`EnumerationRequest`] — the sample graph (or a named catalog
//!    pattern), the data-graph handle, the reducer budget `k`, an optional
//!    strategy override and the engine configuration.
//! 2. The [`Planner`] scores every applicable [`Strategy`] using the
//!    `subgraph-shares` cost expressions and the Theorem 6.1 work accounting
//!    ([`crate::convertible::predicted_parallel_work`]).
//! 3. The returned [`ExecutionPlan`] can be inspected
//!    ([`ExecutionPlan::explain`] prints the chosen strategy, per-variable
//!    shares, predicted replication and predicted reducer work for every
//!    candidate) and executed ([`ExecutionPlan::execute`] returns a unified
//!    [`RunReport`]).
//!
//! ```
//! use subgraph_core::plan::{EnumerationRequest, StrategyKind};
//! use subgraph_graph::generators;
//!
//! let graph = generators::gnm(200, 1_000, 42);
//! let plan = EnumerationRequest::named("lollipop", &graph)
//!     .unwrap()
//!     .reducers(750)
//!     .plan()
//!     .unwrap();
//! assert_eq!(plan.strategy(), StrategyKind::BucketOriented);
//! let report = plan.execute();
//! assert_eq!(report.duplicates(), 0); // every instance exactly once
//! ```

pub mod cost;
pub mod planner;
pub mod report;
pub mod request;
pub mod strategy;

pub use cost::CostEstimate;
pub use planner::{ExecutionPlan, Planner};
pub use report::RunReport;
pub use request::{EnumerationRequest, PlanError, DEFAULT_REDUCERS, MAX_ORDER_CLASSES};
pub use strategy::{Strategy, StrategyKind};
