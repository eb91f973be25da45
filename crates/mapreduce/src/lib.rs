//! An in-process map-reduce engine with multi-round pipelines, map-side
//! combiners, and cost instrumentation.
//!
//! The paper analyses its algorithms on two cost measures (Section 1.2):
//!
//! 1. **Communication cost** — the number of key-value pairs shipped from the
//!    mappers to the reducers (edges of the data graph are replicated to many
//!    reducer keys).
//! 2. **Computation cost** — the total work performed by all reducers.
//!
//! This engine executes exactly the dataflow those costs describe — map every
//! input record to a multiset of `(key, value)` pairs, group by key, run one
//! reducer invocation per distinct key — and *measures* both quantities, so
//! the reproduction experiments compare the paper's formulas against observed
//! counts rather than against estimates. Reducer keys in the paper are lists
//! of bucket numbers; the engine is generic over any hashable key type.
//!
//! Multi-round algorithms (the paper's Section 2 cascade baseline and any
//! future iterative workloads) are expressed as a [`Pipeline`] of [`Round`]s:
//! the reducer outputs of round *k* feed the mappers of round *k + 1*, and a
//! [`PipelineReport`] collects every round's [`JobMetrics`]. A round may
//! attach a map-side [`Combiner`] that pre-aggregates pairs per map shard
//! before the shuffle; the metrics then separate what the mappers *emitted*
//! (`key_value_pairs`) from what was actually *shipped* (`shuffle_records`,
//! `shuffle_bytes`).
//!
//! Every round runs on one executor, a persistent [`WorkerPool`]
//! (work-stealing indexed tasks on long-lived threads), as a two-phase
//! parallel exchange: map tasks serialize their emissions into one byte arena
//! per reduce shard (routing each key with the in-repo [`hash_of`] FxHash and
//! encoding each record with its [`ArenaCodec`]), the coordinator only moves
//! arena ownership, and reduce tasks decode, group and sort their shard in
//! parallel. A round with a combiner groups and combines each map shard's
//! pairs before they enter the arena. The engine intentionally does not model
//! network transfer or fault tolerance — neither affects the two cost
//! measures above. It does, however, bound its own memory: past an
//! [`EngineConfig::memory_budget`] the arenas spill sealed chunk runs to disk
//! and stream them back during the reduce, so peak RSS tracks the budget
//! rather than the workload while outputs stay byte-identical.
//!
//! Results leave the engine through streaming [`OutputSink`]s
//! ([`Pipeline::run_with_sink`]): the final round's reduce workers feed one
//! sink shard each, so a counting sink enumerates outputs far larger than
//! memory without the engine ever materializing them. [`Pipeline::run`] is
//! the collecting wrapper ([`CollectSink`]) over the same path.

pub(crate) mod arena;
pub mod engine;
pub mod hash;
pub mod metrics;
pub mod pipeline;
pub mod pool;
pub mod sink;
pub(crate) mod spill;
pub mod task;

pub use engine::{shard_for_hash, EngineConfig};
pub use hash::{hash_of, FxBuildHasher, FxHasher};
pub use metrics::JobMetrics;
pub use pipeline::{Pipeline, PipelineReport, Round, RoundMetrics};
pub use pool::WorkerPool;
pub use sink::{BufferShard, CollectSink, CountSink, FnSink, OutputSink, SampleSink, SinkShard};
pub use subgraph_codec::ArenaCodec;
pub use task::{Combiner, MapContext, Mapper, ReduceContext, Reducer};

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;
