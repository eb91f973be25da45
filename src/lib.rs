//! # subgraph-mr
//!
//! A Rust reproduction of **“Enumerating Subgraph Instances Using Map-Reduce”**
//! (Afrati, Fotakis, Ullman — ICDE 2013, arXiv:1208.0615): find *all* instances
//! of a small sample graph inside a large data graph in a **single round of
//! map-reduce**, minimizing both the communication cost (edge replication to
//! reducers) and the computation cost (total reducer work).
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `subgraph-graph` | data graph (CSR + edge index), node orders, generators, I/O |
//! | [`pattern`] | `subgraph-pattern` | sample graphs, automorphism groups, decompositions, instances |
//! | [`cq`] | `subgraph-cq` | conjunctive queries with comparisons: generation, merging, cycles, evaluation |
//! | [`shares`] | `subgraph-shares` | Afrati–Ullman share optimization and reducer-count combinatorics |
//! | [`mapreduce`] | `subgraph-mapreduce` | instrumented in-process map-reduce engine: multi-round pipelines, map-side combiners |
//! | [`core`] | `subgraph-core` | the paper's algorithms behind the cost-driven `Planner`/`ExecutionPlan` API |
//!
//! Two more workspace crates sit outside the facade: `subgraph-cli` builds
//! the `subgraph` binary (`enumerate`/`count`/`explain`/`catalog`/`generate`
//! over edge-list files and generator specs — see `docs/CLI.md`), and
//! `subgraph-bench` regenerates the paper's tables and figures (pinned by
//! `docs/REPRODUCTION.txt`) and runs CI's planner, kernel, sink and memory
//! gates. End-to-end performance is measured by the separate `benchmark/`
//! package.
//!
//! ## Quick start
//!
//! Everything goes through one entry point: build an
//! [`EnumerationRequest`](prelude::EnumerationRequest), let the
//! [`Planner`](prelude::Planner) pick the cheapest strategy (it scores every
//! applicable algorithm on the paper's two cost measures), inspect the
//! [`ExecutionPlan`](prelude::ExecutionPlan), and execute it:
//!
//! ```
//! use subgraph_mr::prelude::*;
//!
//! // A random data graph and the "lollipop" sample graph from Figure 4.
//! let data_graph = generators::gnm(200, 1_000, 42);
//!
//! // Plan for a budget of 750 reducers. The planner compares CQ-oriented,
//! // variable-oriented and bucket-oriented processing (Section 4) and picks
//! // the cheapest — here the bucket-oriented scheme (Theorem 4.4 ordering).
//! let plan = EnumerationRequest::named("lollipop", &data_graph)
//!     .unwrap()
//!     .reducers(750)
//!     .plan()
//!     .unwrap();
//! assert_eq!(plan.strategy(), StrategyKind::BucketOriented);
//! println!("{}", plan.explain()); // shares, predicted replication & work
//!
//! // One round of map-reduce; the report unifies serial and parallel runs.
//! let report = plan.execute();
//! println!(
//!     "{} lollipops, {} key-value pairs shipped ({} predicted)",
//!     report.count(),
//!     report.communication(),
//!     plan.predicted_communication(),
//! );
//! assert_eq!(report.duplicates(), 0); // every instance exactly once
//! ```
//!
//! Need a specific strategy (for comparisons or tests)? Force it. The
//! planner registers only strategies that can win; the paper's dominated
//! algorithms are plain functions with their own parameters: Partition
//! (`run_partition_triangles_into`, `b` node groups) and the plain multiway
//! join (`run_multiway_triangles_into`, `b` buckets per variable) of
//! Section 2, and CQ-oriented processing (`run_cq_oriented`, `k` reducers
//! per job) of Section 4.1. Section 2.3's bucket-ordered join is
//! bucket-oriented processing on the triangle (`BucketOriented`); every
//! Section 2 reducer runs the same join.
//!
//! ```
//! use subgraph_mr::prelude::*;
//!
//! let data_graph = generators::gnm(100, 400, 7);
//! let forced = EnumerationRequest::named("triangle", &data_graph)
//!     .unwrap()
//!     .reducers(220)
//!     .strategy(StrategyKind::BucketOriented)
//!     .plan()
//!     .unwrap();
//! let report = forced.execute();
//! assert_eq!(report.duplicates(), 0);
//! // Partition at b = 12 groups: C(12, 3) = 220 reducer triples.
//! let config = EngineConfig::default();
//! let partition =
//!     run_partition_triangles_into(&data_graph, 12, &config, &mut CountSink::new());
//! assert_eq!(partition.outputs, report.count());
//! assert!(partition.metrics.shuffle_records > report.communication());
//! ```
//!
//! A reducer budget of 1 means "no cluster": the planner then chooses among
//! the convertible serial algorithms of Sections 6–7 instead.
//!
//! ## Streaming results (graphs whose output exceeds memory)
//!
//! Collecting a `Vec<Instance>` bounds a run by its *output* size. Every
//! strategy also streams: hand the plan an
//! [`InstanceSink`](prelude::InstanceSink) and no per-instance storage is
//! allocated anywhere — counting is O(1) memory whatever the instance count:
//!
//! ```
//! use subgraph_mr::prelude::*;
//!
//! let data_graph = generators::gnm(300, 2_000, 11);
//! let plan = EnumerationRequest::named("triangle", &data_graph)
//!     .unwrap()
//!     .reducers(64)
//!     .plan()
//!     .unwrap();
//! // Count-only: a CountSink flows through the engine's sharded delivery.
//! let counted = plan.count();
//! assert!(counted.is_streamed());
//! // Same counters and count as the collect path, without the storage.
//! let collected = plan.execute();
//! assert_eq!(counted.count(), collected.count());
//! assert_eq!(counted.communication(), collected.communication());
//!
//! // Or keep just the k smallest instances, or run a callback per instance:
//! let mut sample = SampleSink::new(10);
//! plan.run_with_sink(&mut sample);
//! assert!(sample.len() <= 10);
//! ```
//!
//! See `docs/PLANNER.md` for the strategy-to-paper-section map and
//! `docs/ENGINE.md` for the Round/Combiner execution model, the
//! "Output sinks" section, and the metrics glossary.

pub use subgraph_core as core;
pub use subgraph_cq as cq;
pub use subgraph_graph as graph;
pub use subgraph_mapreduce as mapreduce;
pub use subgraph_pattern as pattern;
pub use subgraph_shares as shares;

/// A convenient prelude for examples and downstream users.
pub mod prelude {
    /// The paper's algorithms the planner does not register (they never win
    /// a ranking), as plain functions.
    pub use subgraph_core::enumerate::cq_oriented::run_cq_oriented;
    /// The planner API — the primary entry point.
    pub use subgraph_core::plan::{
        CostEstimate, EnumerationRequest, ExecutionPlan, PlanError, Planner, RunReport, Strategy,
        StrategyKind,
    };
    pub use subgraph_core::serial::{
        enumerate_bounded_degree, enumerate_bounded_degree_into, enumerate_by_decomposition,
        enumerate_by_decomposition_into, enumerate_generic, enumerate_generic_into,
        enumerate_odd_cycles, enumerate_odd_cycles_into, enumerate_triangles_into,
        enumerate_triangles_serial,
    };
    /// Streaming result sinks: count, collect, sample, callback, and the
    /// file-backed serializers the CLI writes through.
    pub use subgraph_core::sink::{
        CollectSink, CountSink, CsvSink, EdgeListSink, FnSink, InstanceSink, NdjsonSink,
        OutputSink, SampleSink, SerializeSink,
    };
    pub use subgraph_core::triangles::{
        multiway::run_multiway_triangles_into, partition::run_partition_triangles_into,
    };
    pub use subgraph_core::{MapReduceRun, RunStats, SerialRun, SerialStats};
    pub use subgraph_cq::{cqs_for_sample, cycle_cqs, evaluate_cqs, merge_by_orientation};
    pub use subgraph_graph::{generators, DataGraph, GraphBuilder, GraphSource, NodeId};
    pub use subgraph_mapreduce::{Combiner, EngineConfig, JobMetrics, Round, RoundMetrics};
    pub use subgraph_pattern::{catalog, Instance, SampleGraph};
    pub use subgraph_shares::{optimize_shares, CostExpression};
}
