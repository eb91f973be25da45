//! Multi-round map-reduce pipelines with map-side combiners.
//!
//! A [`Round`] couples a [`Mapper`] and a [`Reducer`] with an optional
//! associative [`Combiner`] that pre-aggregates map output *per map shard*
//! before the shuffle, plus a record weigher that prices each shuffled pair in
//! bytes. A [`Pipeline`] chains rounds: the reducer outputs of round *k*
//! become the mapper inputs of round *k + 1* (optionally via a
//! [`Pipeline::prepare`] stage that reshapes them), and every round's measured
//! [`JobMetrics`] accumulates into a [`PipelineReport`].
//!
//! The dataflow of one round is exactly the paper's (Section 1.2): map every
//! input record to a multiset of `(key, value)` pairs, optionally combine the
//! pairs each map shard produced, group by key, run one reducer invocation per
//! distinct key. The combiner never changes what is computed — only how many
//! records (and bytes) cross the shuffle — and can be disabled globally with
//! [`EngineConfig::combiners`] to measure its effect.
//!
//! The shuffle itself is a two-phase parallel exchange (see `docs/ENGINE.md`,
//! "Shuffle internals"): map workers partition their own emissions into one
//! bucket per reduce worker, the coordinator only moves bucket ownership, and
//! reduce workers group their buckets in parallel. Every key is hashed exactly
//! once, on the map side, with the engine's [`crate::hash_of`] FxHash.
//!
//! ```
//! use subgraph_mapreduce::{EngineConfig, MapContext, Pipeline, ReduceContext, Round};
//!
//! // Two rounds: count word lengths, then histogram the counts.
//! let words = vec!["map", "reduce", "combine", "shuffle", "sort"];
//! let count_round = Round::new(
//!     "count",
//!     |w: &&str, ctx: &mut MapContext<usize, u64>| ctx.emit(w.len(), 1),
//!     |len: &usize, ones: &[u64], ctx: &mut ReduceContext<(usize, u64)>| {
//!         ctx.emit((*len, ones.iter().sum()))
//!     },
//! )
//! .combiner(|_len: &usize, ones: Vec<u64>| vec![ones.iter().sum()]);
//! let histogram_round = Round::new(
//!     "histogram",
//!     |&(_, count): &(usize, u64), ctx: &mut MapContext<u64, u64>| ctx.emit(count, 1),
//!     |count: &u64, ones: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
//!         ctx.emit((*count, ones.iter().sum()))
//!     },
//! );
//! let (histogram, report) = Pipeline::new()
//!     .round(count_round)
//!     .round(histogram_round)
//!     .run(&words, &EngineConfig::serial());
//! assert_eq!(report.num_rounds(), 2);
//! assert!(!histogram.is_empty());
//! ```

use crate::engine::{shard_for_hash, EngineConfig};
use crate::hash::{hash_for_shuffle, prehashed_map_with_capacity, Prehashed, PrehashedMap};
use crate::metrics::JobMetrics;
use crate::pool::WorkerPool;
use crate::sink::{CollectSink, OutputSink, SinkShard};
use crate::task::{Combiner, MapContext, Mapper, ReduceContext, Reducer};
use std::hash::Hash;
use std::mem::size_of;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use subgraph_codec::ArenaCodec;

/// A boxed per-record byte weigher (key + value → shuffled payload bytes).
type RecordWeigher<'a, K, V> = Box<dyn Fn(&K, &V) -> usize + Sync + 'a>;

/// The monomorphized arena executor a [`Round::arena`] call captures. A plain
/// function pointer: the executor needs `ArenaCodec` bounds on `K`/`V` that
/// the `Round` type itself must not carry (most rounds never opt in), so the
/// bounded builder method bakes the right instantiation in here and the
/// unbounded dispatch in [`execute_round_into`] just calls it.
pub(crate) type ArenaExec<I, K, V, O> = for<'a, 'b, 'c> fn(
    &'b [I],
    &'b Round<'a, I, K, V, O>,
    &'b EngineConfig,
    &'c mut dyn OutputSink<O>,
    &'b WorkerPool,
) -> JobMetrics;

/// The streaming sibling of [`ArenaExec`]: the monomorphized chunked arena
/// executor captured by the same [`Round::arena`] call, used when the round's
/// inputs arrive as an [`InputChunk`] iterator
/// ([`Pipeline::run_chunked_with_sink`]) instead of one resident slice.
pub(crate) type ArenaChunkExec<I, K, V, O> = for<'s, 'a, 'b, 'c> fn(
    &'b mut dyn Iterator<Item = InputChunk<'s, I>>,
    &'b Round<'a, I, K, V, O>,
    &'b EngineConfig,
    &'c mut dyn OutputSink<O>,
    &'b WorkerPool,
) -> JobMetrics;

/// One batch of map input records for the streaming input path
/// ([`Pipeline::run_chunked_with_sink`]). Each yielded chunk becomes one
/// logical map shard, so a source can hand the engine zero-copy slices (an
/// mmap-loaded `.sgr` graph) or owned batches (a text reader's parse buffer)
/// without the engine ever materializing the full record set. Owned batches
/// are dropped as soon as their map wave completes.
///
/// Parity note: outputs are byte-identical to the slice path when the chunk
/// boundaries match the slice path's shards (`len.div_ceil(threads)` records
/// per chunk); other boundaries still produce correct results, but combiner
/// scope and bucket concatenation order follow the chunks.
pub enum InputChunk<'s, I> {
    /// A borrowed slice of already-resident records (zero-copy).
    Slice(&'s [I]),
    /// An owned batch read from a streaming source.
    Batch(Vec<I>),
}

impl<I> InputChunk<'_, I> {
    /// The chunk's records.
    pub fn as_slice(&self) -> &[I] {
        match self {
            InputChunk::Slice(slice) => slice,
            InputChunk::Batch(batch) => batch,
        }
    }
}

/// One map-reduce round of a [`Pipeline`]: mapper, reducer, optional map-side
/// combiner, and the weigher that prices one shuffled record in bytes.
pub struct Round<'a, I, K, V, O> {
    name: String,
    pub(crate) mapper: Box<dyn Mapper<I, K, V> + 'a>,
    pub(crate) reducer: Box<dyn Reducer<K, V, O> + 'a>,
    pub(crate) combiner: Option<Box<dyn Combiner<K, V> + 'a>>,
    pub(crate) record_bytes: RecordWeigher<'a, K, V>,
    pub(crate) arena: Option<ArenaExec<I, K, V, O>>,
    pub(crate) arena_chunked: Option<ArenaChunkExec<I, K, V, O>>,
}

impl<'a, I, K, V, O> Round<'a, I, K, V, O>
where
    I: Sync,
    K: Hash + Eq + Ord + Send,
    V: Send,
    O: Send,
{
    /// A round with no combiner and the default record weigher
    /// (`size_of::<K>() + size_of::<V>()` — exact for fixed-size keys and
    /// values; override with [`Round::record_bytes`] for heap-backed keys).
    pub fn new(
        name: impl Into<String>,
        mapper: impl Mapper<I, K, V> + 'a,
        reducer: impl Reducer<K, V, O> + 'a,
    ) -> Self {
        Round {
            name: name.into(),
            mapper: Box::new(mapper),
            reducer: Box::new(reducer),
            combiner: None,
            record_bytes: Box::new(|_k, _v| size_of::<K>() + size_of::<V>()),
            arena: None,
            arena_chunked: None,
        }
    }

    /// Attaches a map-side combiner (see [`Combiner`] for the contract).
    pub fn combiner(mut self, combiner: impl Combiner<K, V> + 'a) -> Self {
        self.combiner = Some(Box::new(combiner));
        self
    }

    /// Opts the round into the arena shuffle (the `arena` module): map
    /// emissions are serialized into per-reduce-shard byte arenas with the
    /// key/value [`ArenaCodec`] encodings instead of accumulating as
    /// `Vec<(K, V)>` pairs, cutting the shuffle's resident memory severalfold
    /// while producing byte-identical outputs and [`JobMetrics`]. The arena
    /// path runs when the round executes on a worker pool without an active
    /// combiner; otherwise the classic representation is used. Disable
    /// globally with [`EngineConfig::arena_shuffle`].
    pub fn arena(mut self) -> Self
    where
        K: ArenaCodec,
        V: ArenaCodec,
        O: 'static,
    {
        self.arena = Some(crate::arena::execute_round_arena::<I, K, V, O>);
        self.arena_chunked = Some(crate::arena::execute_round_arena_chunked::<I, K, V, O>);
        self
    }

    /// True when the round has opted into the arena shuffle.
    pub fn has_arena(&self) -> bool {
        self.arena.is_some()
    }

    /// Overrides the per-record byte weigher used for
    /// [`JobMetrics::shuffle_bytes`].
    pub fn record_bytes(mut self, weigher: impl Fn(&K, &V) -> usize + Sync + 'a) -> Self {
        self.record_bytes = Box::new(weigher);
        self
    }

    /// The round's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True when a combiner is attached (it still only runs if
    /// [`EngineConfig::use_combiners`] is set).
    pub fn has_combiner(&self) -> bool {
        self.combiner.is_some()
    }
}

/// Measured metrics of one executed pipeline round.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundMetrics {
    /// The round's name (as given to [`Round::new`]).
    pub name: String,
    /// The round's measured cost metrics.
    pub metrics: JobMetrics,
}

/// Per-round metrics accumulated by [`Pipeline::run`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineReport {
    /// One entry per executed round, in execution order.
    pub rounds: Vec<RoundMetrics>,
}

impl PipelineReport {
    /// Number of rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The pipeline-wide totals: record counts, bytes, work and timings add
    /// across rounds, the skew indicator keeps the per-round maximum, and
    /// `outputs` is the *final* round's output count (intermediate outputs are
    /// inputs of the next round, not results).
    pub fn combined(&self) -> JobMetrics {
        let mut total = JobMetrics::default();
        for round in &self.rounds {
            total.absorb(&round.metrics);
        }
        if let Some(last) = self.rounds.last() {
            total.outputs = last.metrics.outputs;
        }
        total
    }

    /// Total key-value pairs shipped through all shuffles (post-combiner).
    pub fn total_shuffle_records(&self) -> usize {
        self.rounds.iter().map(|r| r.metrics.shuffle_records).sum()
    }

    /// Total shuffled payload bytes across all rounds.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.metrics.shuffle_bytes).sum()
    }
}

/// What flows into a pipeline stage: the caller's borrowed input slice (for
/// the first stage) or an owned intermediate produced by an earlier round.
/// This is what lets [`Pipeline::run`] borrow its inputs — the first round
/// maps straight off the caller's slice without cloning it.
enum StageInput<'s, I> {
    Borrowed(&'s [I]),
    Owned(Vec<I>),
    /// A streaming chunk source ([`Pipeline::run_chunked_with_sink`]): only
    /// the first stage ever sees this variant, and the round dispatcher
    /// consumes it without materializing unless the executor needs a slice.
    Chunked(Box<dyn Iterator<Item = InputChunk<'s, I>> + 's>),
}

impl<I> StageInput<'_, I> {
    fn as_slice(&self) -> &[I] {
        match self {
            StageInput::Borrowed(slice) => slice,
            StageInput::Owned(vec) => vec,
            StageInput::Chunked(_) => {
                unreachable!("chunked inputs are consumed by the round dispatcher")
            }
        }
    }
}

impl<I: Clone> StageInput<'_, I> {
    /// Materializes the stage input; clones only when the borrowed inputs
    /// pass through untouched (zero-round pipelines, leading `prepare`).
    fn into_vec(self) -> Vec<I> {
        match self {
            StageInput::Borrowed(slice) => slice.to_vec(),
            StageInput::Owned(vec) => vec,
            StageInput::Chunked(mut chunks) => materialize_chunks(&mut *chunks),
        }
    }
}

/// Collects a chunk stream into one resident `Vec` — the fallback for stages
/// that need the whole slice (classic executors, `prepare`, zero-round
/// pass-through). Clones only the borrowed slices; owned batches move.
fn materialize_chunks<'s, I: Clone>(chunks: &mut dyn Iterator<Item = InputChunk<'s, I>>) -> Vec<I> {
    let mut out = Vec::new();
    for chunk in chunks {
        match chunk {
            InputChunk::Slice(slice) => out.extend_from_slice(slice),
            InputChunk::Batch(mut batch) => out.append(&mut batch),
        }
    }
    out
}

/// Where a pipeline's final outputs go: back to the caller as a `Vec`
/// (legacy), or streamed into an [`OutputSink`] as the final round's reduce
/// workers produce them.
enum Destination<'d, T: Send + 'static> {
    /// Materialize the outputs (they feed a later stage or the caller).
    Materialize,
    /// Stream the final round straight into the sink.
    Stream(&'d mut dyn OutputSink<T>),
}

/// The composed stage chain of a [`Pipeline`]. Returns `Some(outputs)` when
/// asked to materialize (or when the last stage cannot stream — an empty
/// pipeline or a trailing `prepare`); `None` when the final round streamed
/// its outputs into the destination sink.
type Stages<'a, I, O> = Box<
    dyn for<'s, 'd> FnOnce(
            StageInput<'s, I>,
            &EngineConfig,
            &mut PipelineReport,
            Destination<'d, O>,
        ) -> Option<StageInput<'s, O>>
        + 'a,
>;

/// A chain of map-reduce rounds from inputs of type `I` to outputs of type
/// `O`. Build with [`Pipeline::new`], add stages with [`Pipeline::round`] and
/// [`Pipeline::prepare`], execute with [`Pipeline::run`] (collect) or
/// [`Pipeline::run_with_sink`] (stream the final round).
pub struct Pipeline<'a, I, O: Send + 'static> {
    stages: Stages<'a, I, O>,
    num_rounds: usize,
}

impl<'a, I: Send + 'static> Pipeline<'a, I, I> {
    /// The empty pipeline (zero rounds): inputs pass through unchanged.
    pub fn new() -> Self {
        Pipeline {
            stages: Box::new(|inputs, _, _, _| Some(inputs)),
            num_rounds: 0,
        }
    }
}

impl<'a, I: Send + 'static> Default for Pipeline<'a, I, I> {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl<'a, I: Send + 'static, T: Send + 'static> Pipeline<'a, I, T> {
    /// Appends a map-reduce round: the current stage outputs become the
    /// round's mapper inputs.
    pub fn round<K, V, O>(self, round: Round<'a, T, K, V, O>) -> Pipeline<'a, I, O>
    where
        T: Sync + Clone,
        K: Hash + Eq + Ord + Send + 'a,
        V: Send + 'a,
        O: Send + 'a + 'static,
    {
        let prev = self.stages;
        Pipeline {
            stages: Box::new(move |inputs, config, report, destination| {
                let intermediate = prev(inputs, config, report, Destination::Materialize)
                    .expect("a materialize destination always yields outputs");
                let name = round.name.clone();
                match destination {
                    Destination::Materialize => {
                        let (outputs, metrics) = match intermediate {
                            StageInput::Chunked(mut chunks) => {
                                let mut collected = CollectSink::new();
                                let metrics = execute_round_chunked_into(
                                    &mut *chunks,
                                    &round,
                                    config,
                                    &mut collected,
                                );
                                (collected.into_items(), metrics)
                            }
                            resident => execute_round(resident.as_slice(), &round, config),
                        };
                        report.rounds.push(RoundMetrics { name, metrics });
                        Some(StageInput::Owned(outputs))
                    }
                    Destination::Stream(sink) => {
                        // The final round: reduce workers feed the sink's
                        // shards directly; nothing is materialized here.
                        let metrics = match intermediate {
                            StageInput::Chunked(mut chunks) => {
                                execute_round_chunked_into(&mut *chunks, &round, config, sink)
                            }
                            resident => {
                                execute_round_into(resident.as_slice(), &round, config, sink)
                            }
                        };
                        report.rounds.push(RoundMetrics { name, metrics });
                        None
                    }
                }
            }),
            num_rounds: self.num_rounds + 1,
        }
    }

    /// Appends a free inter-round transformation (no shuffle, no metrics):
    /// reshape round *k*'s outputs into round *k + 1*'s inputs, e.g. to mix
    /// them with a side input the next round also needs.
    pub fn prepare<O>(self, f: impl FnOnce(Vec<T>) -> Vec<O> + 'a) -> Pipeline<'a, I, O>
    where
        T: Clone,
        O: Send + 'static,
    {
        let prev = self.stages;
        Pipeline {
            stages: Box::new(move |inputs, config, report, _destination| {
                let intermediate = prev(inputs, config, report, Destination::Materialize)
                    .expect("a materialize destination always yields outputs");
                Some(StageInput::Owned(f(intermediate.into_vec())))
            }),
            num_rounds: self.num_rounds,
        }
    }

    /// Number of map-reduce rounds added so far.
    pub fn num_rounds(&self) -> usize {
        self.num_rounds
    }

    /// Executes every round in order over the borrowed `inputs` and returns
    /// the final outputs together with the per-round metrics. The first round
    /// maps directly off the slice — callers pass `graph.edges()` (or any
    /// slice) without cloning it per run. This is now a thin wrapper over
    /// [`Pipeline::run_with_sink`] with a collecting destination.
    pub fn run(self, inputs: &[I], config: &EngineConfig) -> (Vec<T>, PipelineReport)
    where
        T: Clone,
    {
        let mut sink = CollectSink::new();
        let report = self.run_with_sink(inputs, config, &mut sink);
        (sink.into_items(), report)
    }

    /// Executes every round in order, streaming the *final* round's reducer
    /// outputs into `sink` instead of merging them into a `Vec`: each reduce
    /// worker fills a private [`SinkShard`] as its reducers emit, and the
    /// coordinator folds the shards back in worker order — so deterministic
    /// configs deliver the exact order [`Pipeline::run`] would have returned,
    /// and constant-memory sinks (e.g. [`crate::CountSink`]) make the output
    /// path O(1) in the result size.
    ///
    /// Intermediate rounds still materialize their outputs (they are the next
    /// round's mapper inputs); only the final round streams. Pipelines whose
    /// last stage is not a round (zero rounds, trailing
    /// [`Pipeline::prepare`]) fall back to pushing each record through
    /// [`OutputSink::accept`].
    pub fn run_with_sink(
        self,
        inputs: &[I],
        config: &EngineConfig,
        sink: &mut dyn OutputSink<T>,
    ) -> PipelineReport
    where
        T: Clone,
    {
        let mut report = PipelineReport::default();
        if let Some(leftover) = (self.stages)(
            StageInput::Borrowed(inputs),
            config,
            &mut report,
            Destination::Stream(sink),
        ) {
            for value in leftover.into_vec() {
                sink.accept(value);
            }
        }
        report
    }

    /// Like [`Pipeline::run_with_sink`], but the *first* round's map input
    /// streams from an [`InputChunk`] iterator instead of one resident slice:
    /// each yielded chunk becomes one logical map shard, and owned batches are
    /// dropped as soon as their map wave completes — so a source that reads
    /// fixed-size batches (or hands out mmap slices) never requires the full
    /// record set in memory. The streaming path engages when the first round
    /// runs the arena executor (worker pool + [`Round::arena`] opt-in, no
    /// active combiner); other executors need the whole slice anyway and
    /// materialize the chunks first.
    ///
    /// Outputs and counters are byte-identical to [`Pipeline::run_with_sink`]
    /// when the chunk boundaries match the slice path's map shards
    /// (`len.div_ceil(threads)` records per chunk) — see [`InputChunk`].
    pub fn run_chunked_with_sink<'s>(
        self,
        chunks: impl Iterator<Item = InputChunk<'s, I>> + 's,
        config: &EngineConfig,
        sink: &mut dyn OutputSink<T>,
    ) -> PipelineReport
    where
        I: Clone,
        T: Clone,
    {
        let mut report = PipelineReport::default();
        if let Some(leftover) = (self.stages)(
            StageInput::Chunked(Box::new(chunks)),
            config,
            &mut report,
            Destination::Stream(sink),
        ) {
            for value in leftover.into_vec() {
                sink.accept(value);
            }
        }
        report
    }
}

/// One per-reduce-worker bucket of a map worker's partitioned output: raw
/// pairs, or pairs grouped by key and pre-aggregated by the combiner. Every
/// record carries the key hash computed when it was partitioned, so
/// no later stage hashes the key again.
enum ShuffleBucket<K, V> {
    Flat(Vec<(u64, K, V)>),
    Combined(Vec<(u64, K, Vec<V>)>),
}

impl<K, V> ShuffleBucket<K, V> {
    /// Number of key entries in the bucket: distinct keys for a combined
    /// bucket, raw pairs (each key counted per occurrence) for a flat one.
    fn key_entries(&self) -> usize {
        match self {
            ShuffleBucket::Flat(pairs) => pairs.len(),
            ShuffleBucket::Combined(groups) => groups.len(),
        }
    }
}

/// Everything one map worker hands to the exchange.
struct MapOutcome<K, V> {
    /// One bucket per reduce worker, indexed by [`shard_for_hash`].
    buckets: Vec<ShuffleBucket<K, V>>,
    /// Pairs emitted by the worker's mapper calls (pre-combiner).
    emitted: usize,
    /// Pairs surviving the combiner (0 when no combiner ran).
    kept: usize,
    /// Payload bytes of the worker's shipped records.
    bytes: u64,
    /// Wall time the worker spent partitioning (and combining) its output.
    partition_time: Duration,
}

/// What one reduce worker hands back: its filled sink shard plus counters.
/// Shared with the arena executor ([`crate::arena`]), which produces the
/// same outcome per shard from its decoded buckets.
pub(crate) struct ReduceOutcome<O> {
    pub(crate) shard: Box<dyn SinkShard<O>>,
    pub(crate) emitted: usize,
    pub(crate) work: u64,
    pub(crate) groups: usize,
    pub(crate) max_input: usize,
}

/// Executes one round over `inputs`, collecting the reducer outputs into a
/// `Vec` — the materializing wrapper over [`execute_round_into`] used for
/// intermediate pipeline rounds (whose outputs feed the next round).
pub(crate) fn execute_round<I, K, V, O>(
    inputs: &[I],
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
) -> (Vec<O>, JobMetrics)
where
    I: Sync,
    K: Hash + Eq + Ord + Send,
    V: Send,
    O: Send + 'static,
{
    let mut collected = CollectSink::new();
    let metrics = execute_round_into(inputs, round, config, &mut collected);
    (collected.into_items(), metrics)
}

/// Executes one round over `inputs`, streaming the reducer outputs into
/// `sink`, and returns the measured [`JobMetrics`]. This is the engine behind
/// [`Pipeline::run`] and [`Pipeline::run_with_sink`].
///
/// The round is a two-phase parallel exchange. Each **map worker** maps its
/// chunk, hashes every emitted key exactly once (FxHash), and partitions
/// its own records into `threads` buckets keyed by [`shard_for_hash`] —
/// combining first when a combiner is attached, in which case the grouping
/// reuses the same per-key hash. The **coordinator** only transposes bucket
/// ownership (worker-major to reducer-major); it never touches a record. Each
/// **reduce worker** then groups the buckets destined for it — reusing the
/// precomputed hashes via [`Prehashed`] — sorts its keys when
/// [`EngineConfig::deterministic`] is set, and reduces **straight into a
/// private shard of `sink`** ([`OutputSink::new_shard`]); the coordinator
/// folds the shards back in worker order, so no stage ever merges the outputs
/// into an engine-owned `Vec`. Debug builds assert the hash-once invariant on
/// every worker (see [`crate::hash::debug_hash_count`]).
///
/// Two executors implement this dataflow: the persistent [`WorkerPool`]
/// (default — see [`execute_round_pooled`]) and the legacy per-round
/// `std::thread::scope` path ([`execute_round_scoped`], selected with
/// [`EngineConfig::scoped_threads`]). Their outputs and every metrics counter
/// are byte-identical by construction; the parity suites pin it.
pub(crate) fn execute_round_into<I, K, V, O>(
    inputs: &[I],
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
    sink: &mut dyn OutputSink<O>,
) -> JobMetrics
where
    I: Sync,
    K: Hash + Eq + Ord + Send,
    V: Send,
    O: Send + 'static,
{
    match config.pool() {
        Some(pool) => {
            // The arena path handles combiner-less rounds only: a combined
            // bucket carries `Vec<V>` groups the flat arena format does not
            // model, so combining rounds keep the classic representation.
            let combining = config.use_combiners && round.combiner.is_some();
            if config.use_arena && !combining {
                if let Some(arena) = round.arena {
                    return arena(inputs, round, config, sink, pool);
                }
            }
            execute_round_pooled(inputs, round, config, sink, pool)
        }
        None => execute_round_scoped(inputs, round, config, sink),
    }
}

/// The chunked-input sibling of [`execute_round_into`]: streams the chunk
/// iterator through the arena executor when the round qualifies for it (worker
/// pool, [`Round::arena`] opt-in, no active combiner — the same gate as the
/// slice dispatch), and otherwise materializes the chunks and falls back,
/// since the classic executors need the whole input slice resident anyway.
pub(crate) fn execute_round_chunked_into<'s, I, K, V, O>(
    chunks: &mut dyn Iterator<Item = InputChunk<'s, I>>,
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
    sink: &mut dyn OutputSink<O>,
) -> JobMetrics
where
    I: Sync + Clone,
    K: Hash + Eq + Ord + Send,
    V: Send,
    O: Send + 'static,
{
    if let Some(pool) = config.pool() {
        let combining = config.use_combiners && round.combiner.is_some();
        if config.use_arena && !combining {
            if let Some(arena_chunked) = round.arena_chunked {
                return arena_chunked(chunks, round, config, sink, pool);
            }
        }
    }
    let inputs = materialize_chunks(chunks);
    execute_round_into(&inputs, round, config, sink)
}

/// The pre-pool executor: one `std::thread::scope` spawn set per phase, one
/// fixed input chunk per map worker. Kept verbatim as the determinism
/// baseline the pooled path is pinned against, and for the
/// `reproduce shuffle` pool-vs-scoped comparison column.
fn execute_round_scoped<I, K, V, O>(
    inputs: &[I],
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
    sink: &mut dyn OutputSink<O>,
) -> JobMetrics
where
    I: Sync,
    K: Hash + Eq + Ord + Send,
    V: Send,
    O: Send + 'static,
{
    let threads = config.num_threads.max(1);
    let combine = config.use_combiners;
    let mut metrics = JobMetrics {
        input_records: inputs.len(),
        ..JobMetrics::default()
    };

    // ---- Map + partition (+ combine) phase --------------------------------
    let map_start = Instant::now();
    let chunk_size = inputs.len().div_ceil(threads).max(1);
    let mapper = &*round.mapper;
    let weigher = &*round.record_bytes;
    let combiner = if combine {
        round.combiner.as_deref()
    } else {
        None
    };
    let mapped: Vec<MapOutcome<K, V>> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    #[cfg(debug_assertions)]
                    let _ = crate::hash::debug_hash_count::take();
                    let mut ctx = MapContext::new();
                    for record in chunk {
                        mapper.map(record, &mut ctx);
                    }
                    let pairs = ctx.into_pairs();
                    let emitted = pairs.len();

                    // Partition this worker's emissions into one bucket per
                    // reduce worker, hashing each key exactly once and
                    // carrying the hash with the record.
                    let partition_start = Instant::now();
                    let mut bytes = 0u64;
                    let mut kept = 0usize;
                    let buckets: Vec<ShuffleBucket<K, V>> = match combiner {
                        None => {
                            let mut buckets: Vec<Vec<(u64, K, V)>> =
                                (0..threads).map(|_| Vec::new()).collect();
                            for (key, value) in pairs {
                                let hash = hash_for_shuffle(&key);
                                bytes += weigher(&key, &value) as u64;
                                buckets[shard_for_hash(hash, threads)].push((hash, key, value));
                            }
                            buckets.into_iter().map(ShuffleBucket::Flat).collect()
                        }
                        Some(combiner) => {
                            // Group this shard's pairs by key (per-key value
                            // order is emission order), combine each group,
                            // then route it with the hash computed while
                            // grouping.
                            let mut groups: PrehashedMap<K, Vec<V>> =
                                prehashed_map_with_capacity(pairs.len());
                            for (key, value) in pairs {
                                groups.entry(Prehashed::new(key)).or_default().push(value);
                            }
                            let mut buckets: Vec<Vec<(u64, K, Vec<V>)>> =
                                (0..threads).map(|_| Vec::new()).collect();
                            for (key, values) in groups {
                                let values = combiner.combine(key.key(), values);
                                kept += values.len();
                                for value in &values {
                                    bytes += weigher(key.key(), value) as u64;
                                }
                                let hash = key.hash();
                                buckets[shard_for_hash(hash, threads)].push((
                                    hash,
                                    key.into_key(),
                                    values,
                                ));
                            }
                            buckets.into_iter().map(ShuffleBucket::Combined).collect()
                        }
                    };
                    let partition_time = partition_start.elapsed();
                    #[cfg(debug_assertions)]
                    debug_assert_eq!(
                        crate::hash::debug_hash_count::take() as usize,
                        emitted,
                        "hash-once invariant: a map worker hashes each emitted key exactly once"
                    );
                    MapOutcome {
                        buckets,
                        emitted,
                        kept,
                        bytes,
                        partition_time,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("map worker panicked"))
            .collect()
    });
    metrics.map_time = map_start.elapsed();
    metrics.partition_time = mapped
        .iter()
        .map(|outcome| outcome.partition_time)
        .max()
        .unwrap_or_default();
    metrics.key_value_pairs = mapped.iter().map(|outcome| outcome.emitted).sum();
    metrics.shuffle_bytes = mapped.iter().map(|outcome| outcome.bytes).sum();
    if combiner.is_some() {
        metrics.combiner_input_records = metrics.key_value_pairs;
        metrics.combiner_output_records = mapped.iter().map(|outcome| outcome.kept).sum();
        metrics.shuffle_records = metrics.combiner_output_records;
    } else {
        metrics.shuffle_records = metrics.key_value_pairs;
    }

    // ---- Exchange phase ---------------------------------------------------
    // Transpose worker-major buckets into reducer-major inboxes. Pure
    // ownership moves: the coordinator handles `workers x threads` vectors,
    // never a record, so this stage is O(threads^2) regardless of data size.
    let shuffle_start = Instant::now();
    let workers = mapped.len();
    let mut inboxes: Vec<Vec<ShuffleBucket<K, V>>> =
        (0..threads).map(|_| Vec::with_capacity(workers)).collect();
    for outcome in mapped {
        for (target, bucket) in outcome.buckets.into_iter().enumerate() {
            inboxes[target].push(bucket);
        }
    }
    metrics.shuffle_time = shuffle_start.elapsed();

    // ---- Reduce phase (group + reduce per worker) -------------------------
    // Each reduce worker owns a disjoint set of keys (its shard). It groups
    // its inbox with the precomputed hashes, so per-key value order is
    // (map-worker order, within-worker order) and therefore deterministic.
    // Outputs stream into one private sink shard per worker, created here in
    // worker order so the fold below can preserve deterministic output order.
    let deterministic = config.deterministic;
    let reducer = &*round.reducer;
    let reduce_start = Instant::now();
    let sink_shards: Vec<Box<dyn SinkShard<O>>> =
        (0..inboxes.len()).map(|_| sink.new_shard()).collect();
    let reduced: Vec<ReduceOutcome<O>> = std::thread::scope(|scope| {
        let handles: Vec<_> = inboxes
            .into_iter()
            .zip(sink_shards)
            .map(|(inbox, sink_shard)| {
                scope.spawn(move || {
                    #[cfg(debug_assertions)]
                    let _ = crate::hash::debug_hash_count::take();
                    // Capacity heuristic: the largest inbound bucket (distinct
                    // keys when combined, one worker's pairs when flat) capped
                    // so a low-cardinality shard never pre-allocates a table
                    // sized to its record count; past the cap the map doubles
                    // a handful of times, which is cheap.
                    let capacity = inbox
                        .iter()
                        .map(|b| b.key_entries())
                        .max()
                        .unwrap_or(0)
                        .min(1 << 16);
                    let mut grouped: PrehashedMap<K, Vec<V>> =
                        prehashed_map_with_capacity(capacity);
                    for bucket in inbox {
                        match bucket {
                            ShuffleBucket::Flat(pairs) => {
                                for (hash, key, value) in pairs {
                                    grouped
                                        .entry(Prehashed::from_parts(hash, key))
                                        .or_default()
                                        .push(value);
                                }
                            }
                            ShuffleBucket::Combined(combined) => {
                                for (hash, key, mut values) in combined {
                                    grouped
                                        .entry(Prehashed::from_parts(hash, key))
                                        .or_default()
                                        .append(&mut values);
                                }
                            }
                        }
                    }
                    let mut groups: Vec<(K, Vec<V>)> = grouped
                        .into_iter()
                        .map(|(key, values)| (key.into_key(), values))
                        .collect();
                    if deterministic {
                        // Sort keys for deterministic per-shard iteration order.
                        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    }
                    let group_count = groups.len();
                    let max_input = groups.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
                    let mut ctx = ReduceContext::with_shard(sink_shard);
                    for (key, values) in &groups {
                        reducer.reduce(key, values, &mut ctx);
                    }
                    let (shard, work, emitted) = ctx.into_parts();
                    #[cfg(debug_assertions)]
                    debug_assert_eq!(
                        crate::hash::debug_hash_count::take(),
                        0,
                        "hash-once invariant: reduce-side grouping reuses precomputed hashes"
                    );
                    ReduceOutcome {
                        shard,
                        emitted,
                        work,
                        groups: group_count,
                        max_input,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reduce worker panicked"))
            .collect()
    });
    metrics.reduce_time = reduce_start.elapsed();
    metrics.reducers_used = reduced.iter().map(|outcome| outcome.groups).sum();
    metrics.max_reducer_input = reduced
        .iter()
        .map(|outcome| outcome.max_input)
        .max()
        .unwrap_or(0);

    // Fold the worker shards back into the sink, in worker order — for a
    // collecting sink this is the old reserve-and-append merge; for a
    // counting sink no record was ever buffered anywhere.
    let fold_start = Instant::now();
    for outcome in reduced {
        metrics.reducer_work += outcome.work;
        metrics.outputs += outcome.emitted;
        sink.fold(outcome.shard);
    }
    metrics.sink_fold_time = fold_start.elapsed();
    metrics
}

/// Sub-chunks smaller than this are not worth a work-stealing claim; tiny
/// inputs keep one task per logical shard instead.
const MIN_SUB_CHUNK: usize = 32;

/// A one-shot result slot a pool task fills for the coordinator.
pub(crate) type Slot<T> = Mutex<Option<T>>;

/// One reduce shard's work package: its shuffle inbox plus the sink shard
/// its outputs stream into.
type ReduceWork<K, V, O> = (Vec<ShuffleBucket<K, V>>, Box<dyn SinkShard<O>>);

/// The persistent-pool executor. Same dataflow and **byte-identical results**
/// as [`execute_round_scoped`], with three structural differences:
///
/// 1. **No thread spawns.** Map and reduce tasks run on `pool`'s long-lived
///    workers (plus the calling thread) via [`WorkerPool::run_indexed`].
/// 2. **Work-stealing map granularity.** The scoped path fixes one input
///    chunk per worker, so one skewed chunk straggles the whole phase. Here
///    the *logical* map shards — whose boundaries define combiner scope and
///    bucket contents, and therefore must match the scoped path exactly —
///    are split into smaller sub-chunks that any worker can claim. A
///    sub-chunk only *maps* (stage A, no hashing); a second per-shard task
///    (stage B) concatenates its shard's sub-chunk emissions **in order** and
///    partitions them exactly as the scoped worker would have: same pair
///    sequence, same grouping-map capacity, hence the same bucket contents in
///    the same order.
/// 3. **Buffer recycling.** Pair vectors and per-reduce-worker buckets are
///    drawn from and returned to the pool's [`crate::pool::BufferPool`], so
///    a long-lived engine stops paying per-round allocations for the
///    shuffle's scaffolding.
///
/// The reduce phase is sharded by prehash range ([`shard_for_hash`] over
/// `num_threads` shards) exactly as before — `num_threads` names the shard
/// count, while the pool decides how many OS threads serve those shards, so
/// reducer parallelism is decoupled from worker count.
fn execute_round_pooled<I, K, V, O>(
    inputs: &[I],
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
    sink: &mut dyn OutputSink<O>,
    pool: &WorkerPool,
) -> JobMetrics
where
    I: Sync,
    K: Hash + Eq + Ord + Send,
    V: Send,
    O: Send + 'static,
{
    let threads = config.num_threads.max(1);
    let combine = config.use_combiners;
    let buffers = pool.buffers();
    let mut metrics = JobMetrics {
        input_records: inputs.len(),
        ..JobMetrics::default()
    };

    // ---- Map + partition (+ combine) phase --------------------------------
    // Logical shard boundaries must mirror the scoped path bit for bit: the
    // combiner runs per logical shard and bucket push order follows shard
    // emission order, so both feed the determinism guarantee.
    let map_start = Instant::now();
    let chunk_size = inputs.len().div_ceil(threads).max(1);
    let shards: Vec<&[I]> = inputs.chunks(chunk_size).collect();
    let mapper = &*round.mapper;
    let weigher = &*round.record_bytes;
    let combiner = if combine {
        round.combiner.as_deref()
    } else {
        None
    };

    // Stage A: map sub-chunks under work stealing. Splitting is free for
    // parity — only the per-shard *concatenation order* of emissions matters,
    // and sub-chunks are reassembled in order by stage B. A single-threaded
    // round stays inline (splits = 1 ⇒ run_indexed's count-1 fast path).
    let contexts = pool.workers() + 1;
    let splits = if threads == 1 {
        1
    } else {
        (contexts * 4).div_ceil(shards.len().max(1)).max(1)
    };
    let sub_size = chunk_size.div_ceil(splits).max(MIN_SUB_CHUNK);
    let mut sub_tasks: Vec<&[I]> = Vec::new();
    let mut shard_subs: Vec<std::ops::Range<usize>> = Vec::with_capacity(shards.len());
    for shard in &shards {
        let start = sub_tasks.len();
        sub_tasks.extend(shard.chunks(sub_size));
        shard_subs.push(start..sub_tasks.len());
    }
    let pair_slots: Vec<Slot<Vec<(K, V)>>> =
        (0..sub_tasks.len()).map(|_| Mutex::new(None)).collect();
    pool.run_indexed(sub_tasks.len(), |task| {
        let mut ctx = MapContext::with_buffer(buffers.take());
        for record in sub_tasks[task] {
            mapper.map(record, &mut ctx);
        }
        *pair_slots[task].lock().expect("map slot poisoned") = Some(ctx.into_pairs());
    });

    // Stage B: one task per logical shard — partition (and combine) the
    // shard's emissions exactly as the scoped map worker does after mapping.
    let outcome_slots: Vec<Slot<MapOutcome<K, V>>> =
        (0..shards.len()).map(|_| Mutex::new(None)).collect();
    pool.run_indexed(shards.len(), |shard| {
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
        let mut parts: Vec<Vec<(K, V)>> = shard_subs[shard]
            .clone()
            .map(|task| {
                pair_slots[task]
                    .lock()
                    .expect("map slot poisoned")
                    .take()
                    .expect("stage A filled every slot")
            })
            .collect();
        let emitted: usize = parts.iter().map(Vec::len).sum();

        let partition_start = Instant::now();
        let mut bytes = 0u64;
        let mut kept = 0usize;
        let buckets: Vec<ShuffleBucket<K, V>> = match combiner {
            None => {
                let mut buckets: Vec<Vec<(u64, K, V)>> =
                    (0..threads).map(|_| buffers.take()).collect();
                for mut part in parts.drain(..) {
                    for (key, value) in part.drain(..) {
                        let hash = hash_for_shuffle(&key);
                        bytes += weigher(&key, &value) as u64;
                        buckets[shard_for_hash(hash, threads)].push((hash, key, value));
                    }
                    buffers.give(part);
                }
                buckets.into_iter().map(ShuffleBucket::Flat).collect()
            }
            Some(combiner) => {
                // Identical capacity to the scoped path (`emitted` is what
                // `pairs.len()` was there): grouping-map iteration order is a
                // function of hasher, capacity and insertion order, and all
                // three now match, so the combined buckets come out in the
                // scoped path's exact order.
                let mut groups: PrehashedMap<K, Vec<V>> = prehashed_map_with_capacity(emitted);
                for mut part in parts.drain(..) {
                    for (key, value) in part.drain(..) {
                        groups.entry(Prehashed::new(key)).or_default().push(value);
                    }
                    buffers.give(part);
                }
                let mut buckets: Vec<Vec<(u64, K, Vec<V>)>> =
                    (0..threads).map(|_| buffers.take()).collect();
                for (key, values) in groups {
                    let values = combiner.combine(key.key(), values);
                    kept += values.len();
                    for value in &values {
                        bytes += weigher(key.key(), value) as u64;
                    }
                    let hash = key.hash();
                    buckets[shard_for_hash(hash, threads)].push((hash, key.into_key(), values));
                }
                buckets.into_iter().map(ShuffleBucket::Combined).collect()
            }
        };
        let partition_time = partition_start.elapsed();
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            crate::hash::debug_hash_count::take() as usize,
            emitted,
            "hash-once invariant: a partition task hashes each emitted key exactly once"
        );
        *outcome_slots[shard].lock().expect("map outcome poisoned") = Some(MapOutcome {
            buckets,
            emitted,
            kept,
            bytes,
            partition_time,
        });
    });
    let mapped: Vec<MapOutcome<K, V>> = outcome_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("map outcome poisoned")
                .expect("stage B filled every outcome")
        })
        .collect();
    metrics.map_time = map_start.elapsed();
    metrics.partition_time = mapped
        .iter()
        .map(|outcome| outcome.partition_time)
        .max()
        .unwrap_or_default();
    metrics.key_value_pairs = mapped.iter().map(|outcome| outcome.emitted).sum();
    metrics.shuffle_bytes = mapped.iter().map(|outcome| outcome.bytes).sum();
    if combiner.is_some() {
        metrics.combiner_input_records = metrics.key_value_pairs;
        metrics.combiner_output_records = mapped.iter().map(|outcome| outcome.kept).sum();
        metrics.shuffle_records = metrics.combiner_output_records;
    } else {
        metrics.shuffle_records = metrics.key_value_pairs;
    }

    // ---- Exchange phase ---------------------------------------------------
    // Identical transpose to the scoped path: pure ownership moves in shard
    // order, never touching a record.
    let shuffle_start = Instant::now();
    let workers = mapped.len();
    let mut inboxes: Vec<Vec<ShuffleBucket<K, V>>> =
        (0..threads).map(|_| Vec::with_capacity(workers)).collect();
    for outcome in mapped {
        for (target, bucket) in outcome.buckets.into_iter().enumerate() {
            inboxes[target].push(bucket);
        }
    }
    metrics.shuffle_time = shuffle_start.elapsed();

    // ---- Reduce phase (group + reduce per shard) --------------------------
    // One pool task per prehash-range shard. Sink shards are created by the
    // coordinator in shard order and folded back in shard order — the same
    // fold sequence the scoped path produces, preserving deterministic
    // output order.
    let deterministic = config.deterministic;
    let reducer = &*round.reducer;
    let reduce_start = Instant::now();
    let reduce_slots: Vec<Slot<ReduceOutcome<O>>> =
        (0..inboxes.len()).map(|_| Mutex::new(None)).collect();
    let reduce_inputs: Vec<Slot<ReduceWork<K, V, O>>> = inboxes
        .into_iter()
        .map(|inbox| Mutex::new(Some((inbox, sink.new_shard()))))
        .collect();
    pool.run_indexed(reduce_inputs.len(), |shard| {
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
        let (inbox, sink_shard) = reduce_inputs[shard]
            .lock()
            .expect("reduce input poisoned")
            .take()
            .expect("each reduce shard is claimed once");
        // Same capacity heuristic as the scoped path (see there).
        let capacity = inbox
            .iter()
            .map(|b| b.key_entries())
            .max()
            .unwrap_or(0)
            .min(1 << 16);
        let mut grouped: PrehashedMap<K, Vec<V>> = prehashed_map_with_capacity(capacity);
        for bucket in inbox {
            match bucket {
                ShuffleBucket::Flat(mut pairs) => {
                    for (hash, key, value) in pairs.drain(..) {
                        grouped
                            .entry(Prehashed::from_parts(hash, key))
                            .or_default()
                            .push(value);
                    }
                    buffers.give(pairs);
                }
                ShuffleBucket::Combined(mut combined) => {
                    for (hash, key, mut values) in combined.drain(..) {
                        grouped
                            .entry(Prehashed::from_parts(hash, key))
                            .or_default()
                            .append(&mut values);
                    }
                    buffers.give(combined);
                }
            }
        }
        let mut groups: Vec<(K, Vec<V>)> = grouped
            .into_iter()
            .map(|(key, values)| (key.into_key(), values))
            .collect();
        if deterministic {
            groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        let group_count = groups.len();
        let max_input = groups.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        let mut ctx = ReduceContext::with_shard(sink_shard);
        for (key, values) in &groups {
            reducer.reduce(key, values, &mut ctx);
        }
        let (shard_out, work, emitted) = ctx.into_parts();
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            crate::hash::debug_hash_count::take(),
            0,
            "hash-once invariant: reduce-side grouping reuses precomputed hashes"
        );
        *reduce_slots[shard].lock().expect("reduce outcome poisoned") = Some(ReduceOutcome {
            shard: shard_out,
            emitted,
            work,
            groups: group_count,
            max_input,
        });
    });
    let reduced: Vec<ReduceOutcome<O>> = reduce_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("reduce outcome poisoned")
                .expect("every reduce shard completed")
        })
        .collect();
    metrics.reduce_time = reduce_start.elapsed();
    metrics.reducers_used = reduced.iter().map(|outcome| outcome.groups).sum();
    metrics.max_reducer_input = reduced
        .iter()
        .map(|outcome| outcome.max_input)
        .max()
        .unwrap_or(0);

    let fold_start = Instant::now();
    for outcome in reduced {
        metrics.reducer_work += outcome.work;
        metrics.outputs += outcome.emitted;
        sink.fold(outcome.shard);
    }
    metrics.sink_fold_time = fold_start.elapsed();
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_products_are_send_and_sync() {
        // A long-lived service shares the engine configuration and job
        // reports across worker threads; keep them thread-clean.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::EngineConfig>();
        assert_send_sync::<PipelineReport>();
        assert_send_sync::<RoundMetrics>();
        assert_send_sync::<crate::JobMetrics>();
        assert_send_sync::<crate::CountSink>();
        assert_send_sync::<crate::CollectSink<u64>>();
    }

    /// Word-count style single-round pipeline with a summing combiner.
    fn counting_round<'a>(combine: bool) -> Round<'a, u64, u64, u64, (u64, u64)> {
        let round = Round::new(
            "count",
            |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 10, 1),
            |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
                ctx.add_work(vs.len() as u64);
                ctx.emit((*k, vs.iter().sum()));
            },
        );
        if combine {
            round.combiner(|_k: &u64, vs: Vec<u64>| vec![vs.iter().sum()])
        } else {
            round
        }
    }

    #[test]
    fn combiner_reduces_shuffle_records_without_changing_outputs() {
        let inputs: Vec<u64> = (0..1000).collect();
        let config = EngineConfig::with_threads(4);
        let (mut with, report_with) = Pipeline::new()
            .round(counting_round(true))
            .run(&inputs, &config);
        let (mut without, report_without) = Pipeline::new()
            .round(counting_round(false))
            .run(&inputs, &config);
        with.sort_unstable();
        without.sort_unstable();
        assert_eq!(with, without);
        let m_with = &report_with.rounds[0].metrics;
        let m_without = &report_without.rounds[0].metrics;
        assert_eq!(m_with.key_value_pairs, 1000);
        assert_eq!(m_with.combiner_input_records, 1000);
        // 4 map shards x 10 keys: at most 40 combined records survive.
        assert!(m_with.combiner_output_records <= 40);
        assert_eq!(m_with.shuffle_records, m_with.combiner_output_records);
        assert!(m_with.shuffle_bytes < m_without.shuffle_bytes);
        assert_eq!(m_without.shuffle_records, 1000);
        assert_eq!(m_without.combiner_input_records, 0);
        assert_eq!(m_without.combiner_output_records, 0);
    }

    #[test]
    fn disabling_combiners_in_the_config_bypasses_the_combiner() {
        let inputs: Vec<u64> = (0..500).collect();
        let config = EngineConfig::with_threads(3).combiners(false);
        let (_, report) = Pipeline::new()
            .round(counting_round(true))
            .run(&inputs, &config);
        let metrics = &report.rounds[0].metrics;
        assert_eq!(metrics.combiner_input_records, 0);
        assert_eq!(metrics.shuffle_records, metrics.key_value_pairs);
    }

    #[test]
    fn two_round_pipeline_threads_outputs_into_the_next_round() {
        // Round 1 sums values per key modulo 7; round 2 counts how many keys
        // share each sum. Verified against a direct serial computation.
        let inputs: Vec<u64> = (0..200).map(|i| i * 3 % 91).collect();
        let sums_round = Round::new(
            "sum",
            |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 7, *x),
            |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
                ctx.emit((*k, vs.iter().sum()))
            },
        )
        .combiner(|_k: &u64, vs: Vec<u64>| vec![vs.iter().sum()]);
        let histogram_round = Round::new(
            "histogram",
            |&(_, sum): &(u64, u64), ctx: &mut MapContext<u64, u64>| ctx.emit(sum, 1),
            |sum: &u64, ones: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
                ctx.emit((*sum, ones.iter().sum()))
            },
        );
        let pipeline = Pipeline::new().round(sums_round).round(histogram_round);
        assert_eq!(pipeline.num_rounds(), 2);
        let (histogram, report) = pipeline.run(&inputs, &EngineConfig::with_threads(4));

        let mut expected_sums: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        for x in &inputs {
            *expected_sums.entry(x % 7).or_default() += x;
        }
        let mut expected_histogram: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        for sum in expected_sums.values() {
            *expected_histogram.entry(*sum).or_default() += 1;
        }
        let mut got = histogram.clone();
        got.sort_unstable();
        let mut expected: Vec<(u64, u64)> = expected_histogram.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(got, expected);

        assert_eq!(report.num_rounds(), 2);
        assert_eq!(report.rounds[0].name, "sum");
        assert_eq!(report.rounds[1].name, "histogram");
        let combined = report.combined();
        assert_eq!(
            combined.key_value_pairs,
            report.rounds[0].metrics.key_value_pairs + report.rounds[1].metrics.key_value_pairs
        );
        assert_eq!(combined.outputs, report.rounds[1].metrics.outputs);
        assert_eq!(report.total_shuffle_records(), combined.shuffle_records);
    }

    #[test]
    fn prepare_reshapes_between_rounds_without_metrics() {
        let inputs: Vec<u64> = (0..100).collect();
        let (outputs, report) = Pipeline::new()
            .round(counting_round(true))
            .prepare(|counts: Vec<(u64, u64)>| {
                // Keep only the even keys for the next round.
                counts.into_iter().filter(|(k, _)| k % 2 == 0).collect()
            })
            .round(Round::new(
                "echo",
                |&(k, c): &(u64, u64), ctx: &mut MapContext<u64, u64>| ctx.emit(k, c),
                |k: &u64, cs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| ctx.emit((*k, cs[0])),
            ))
            .run(&inputs, &EngineConfig::serial());
        assert_eq!(report.num_rounds(), 2);
        assert_eq!(outputs.len(), 5); // keys 0, 2, 4, 6, 8
        assert_eq!(report.rounds[1].metrics.input_records, 5);
    }

    #[test]
    fn deterministic_runs_repeat_exactly_with_and_without_combiners() {
        let inputs: Vec<u64> = (0..400).map(|i| i * 17 % 101).collect();
        for use_combiners in [true, false] {
            let config = EngineConfig {
                num_threads: 3,
                use_combiners,
                ..EngineConfig::default()
            };
            let run = || {
                Pipeline::new()
                    .round(counting_round(true))
                    .run(&inputs, &config)
                    .0
            };
            assert_eq!(run(), run(), "use_combiners={use_combiners}");
        }
    }

    #[test]
    fn default_record_weigher_prices_fixed_size_records() {
        let inputs: Vec<u64> = (0..50).collect();
        let (_, report) = Pipeline::new()
            .round(counting_round(false))
            .run(&inputs, &EngineConfig::serial());
        let metrics = &report.rounds[0].metrics;
        // Key and value are both u64: 16 bytes per shipped record.
        assert_eq!(metrics.shuffle_bytes, metrics.shuffle_records as u64 * 16);
    }

    #[test]
    fn custom_record_weigher_prices_heap_backed_keys() {
        let round = Round::new(
            "vec-keys",
            |x: &u64, ctx: &mut MapContext<Vec<u32>, u64>| {
                ctx.emit(vec![(x % 3) as u32, (x % 5) as u32], *x)
            },
            |k: &Vec<u32>, vs: &[u64], ctx: &mut ReduceContext<(Vec<u32>, usize)>| {
                ctx.emit((k.clone(), vs.len()))
            },
        )
        .record_bytes(|k: &Vec<u32>, _v: &u64| 4 * k.len() + 8);
        let inputs: Vec<u64> = (0..60).collect();
        let (_, report) = Pipeline::new()
            .round(round)
            .run(&inputs, &EngineConfig::serial());
        let metrics = &report.rounds[0].metrics;
        assert_eq!(metrics.shuffle_bytes, metrics.shuffle_records as u64 * 16);
    }

    #[test]
    fn empty_pipeline_passes_inputs_through() {
        let (outputs, report) = Pipeline::new().run(&[1u64, 2, 3], &EngineConfig::serial());
        assert_eq!(outputs, vec![1, 2, 3]);
        assert_eq!(report.num_rounds(), 0);
        assert_eq!(report.combined(), JobMetrics::default());
    }

    #[test]
    fn partition_time_is_measured_and_bounded_by_the_map_phase() {
        let inputs: Vec<u64> = (0..20_000).collect();
        let (_, report) = Pipeline::new()
            .round(counting_round(false))
            .run(&inputs, &EngineConfig::with_threads(4));
        let metrics = &report.rounds[0].metrics;
        // Partitioning happens inside the map workers, so its critical-path
        // time can never exceed the whole map phase.
        assert!(metrics.partition_time <= metrics.map_time);
    }

    /// Per-round metrics with wall-clock timings zeroed, so two runs can be
    /// compared counter for counter.
    fn counters_of(report: &PipelineReport) -> Vec<(String, JobMetrics)> {
        report
            .rounds
            .iter()
            .map(|round| (round.name.clone(), round.metrics.without_timings()))
            .collect()
    }

    #[test]
    fn run_with_sink_collect_matches_run_exactly() {
        // The legacy Vec path is a CollectSink wrapper, so outputs and every
        // metric must agree pair for pair, at every thread count.
        let inputs: Vec<u64> = (0..900).map(|i| i * 31 % 257).collect();
        for threads in [1usize, 2, 8] {
            for combine in [true, false] {
                let config = EngineConfig::with_threads(threads).combiners(combine);
                let (outputs, report) = Pipeline::new()
                    .round(counting_round(combine))
                    .run(&inputs, &config);
                let mut collected = crate::sink::CollectSink::new();
                let sink_report = Pipeline::new()
                    .round(counting_round(combine))
                    .run_with_sink(&inputs, &config, &mut collected);
                assert_eq!(
                    collected.into_items(),
                    outputs,
                    "threads={threads} combine={combine}"
                );
                assert_eq!(
                    counters_of(&sink_report),
                    counters_of(&report),
                    "threads={threads} combine={combine}"
                );
            }
        }
    }

    #[test]
    fn count_sink_counts_without_changing_any_metric() {
        let inputs: Vec<u64> = (0..1200).map(|i| i * 7 % 401).collect();
        for threads in [1usize, 3, 8] {
            let config = EngineConfig::with_threads(threads);
            let (outputs, report) = Pipeline::new()
                .round(counting_round(true))
                .run(&inputs, &config);
            let mut counter = crate::sink::CountSink::new();
            let count_report = Pipeline::new().round(counting_round(true)).run_with_sink(
                &inputs,
                &config,
                &mut counter,
            );
            assert_eq!(counter.count(), outputs.len(), "threads={threads}");
            // Byte-identical metrics: the output path never affects what the
            // mappers emit, the combiner merges, or the shuffle ships.
            assert_eq!(
                counters_of(&count_report),
                counters_of(&report),
                "threads={threads}"
            );
            assert_eq!(count_report.combined().outputs, outputs.len());
        }
    }

    #[test]
    fn only_the_final_round_streams_in_a_multi_round_pipeline() {
        let inputs: Vec<u64> = (0..300).collect();
        let build = || {
            Pipeline::new()
                .round(counting_round(true))
                .round(Round::new(
                    "echo",
                    |&(k, c): &(u64, u64), ctx: &mut MapContext<u64, u64>| ctx.emit(k, c),
                    |k: &u64, cs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
                        ctx.emit((*k, cs[0]))
                    },
                ))
        };
        let config = EngineConfig::with_threads(4);
        let (outputs, report) = build().run(&inputs, &config);
        let mut counter = crate::sink::CountSink::new();
        let sink_report = build().run_with_sink(&inputs, &config, &mut counter);
        assert_eq!(counter.count(), outputs.len());
        assert_eq!(sink_report.num_rounds(), 2);
        assert_eq!(counters_of(&sink_report), counters_of(&report));
    }

    #[test]
    fn sink_mode_handles_non_round_tails() {
        // A zero-round pipeline and a trailing prepare cannot stream from
        // reduce workers; the records fall back to OutputSink::accept.
        let mut collected = crate::sink::CollectSink::new();
        let report =
            Pipeline::new().run_with_sink(&[1u64, 2, 3], &EngineConfig::serial(), &mut collected);
        assert_eq!(collected.into_items(), vec![1, 2, 3]);
        assert_eq!(report.num_rounds(), 0);

        let inputs: Vec<u64> = (0..50).collect();
        let mut counter = crate::sink::CountSink::new();
        let report = Pipeline::new()
            .round(counting_round(true))
            .prepare(|counts: Vec<(u64, u64)>| {
                counts.into_iter().filter(|(k, _)| k % 2 == 0).collect()
            })
            .run_with_sink(&inputs, &EngineConfig::serial(), &mut counter);
        assert_eq!(counter.count(), 5);
        assert_eq!(report.num_rounds(), 1);
    }

    #[test]
    fn deterministic_sink_delivery_preserves_the_exact_output_order() {
        // FnSink callbacks see records in the same order the Vec path returns.
        let inputs: Vec<u64> = (0..500).map(|i| i * 13 % 149).collect();
        for threads in [2usize, 8] {
            let config = EngineConfig::with_threads(threads);
            let (outputs, _) = Pipeline::new()
                .round(counting_round(true))
                .run(&inputs, &config);
            let mut seen = Vec::new();
            let delivered = {
                let mut sink = crate::sink::FnSink::new(|pair: (u64, u64)| seen.push(pair));
                Pipeline::new()
                    .round(counting_round(true))
                    .run_with_sink(&inputs, &config, &mut sink);
                sink.count()
            };
            assert_eq!(delivered, outputs.len());
            assert_eq!(seen, outputs, "threads={threads}");
        }
    }

    /// An arena round with a sum reducer, over varint-codable u64 keys.
    fn arena_round<'a>(arena: bool) -> Round<'a, u64, u64, u64, (u64, u64)> {
        let round = Round::new(
            "arena-count",
            |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 37, *x),
            |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
                ctx.add_work(vs.len() as u64);
                ctx.emit((*k, vs.iter().sum()));
            },
        );
        if arena {
            round.arena()
        } else {
            round
        }
    }

    #[test]
    fn arena_shuffle_matches_classic_outputs_and_counters() {
        // The arena executor must be byte-identical to both classic executors
        // — outputs in order, and every non-timing metric — in deterministic
        // *and* relaxed mode (the grouping tables iterate identically).
        let inputs: Vec<u64> = (0..3000).map(|i| i * 29 % 613).collect();
        for threads in [1usize, 2, 8] {
            for deterministic in [true, false] {
                let config = EngineConfig {
                    num_threads: threads,
                    deterministic,
                    ..EngineConfig::default()
                };
                let (arena_out, arena_report) = Pipeline::new()
                    .round(arena_round(true))
                    .run(&inputs, &config);
                let classic_config = config.clone().arena_shuffle(false);
                let (classic_out, classic_report) = Pipeline::new()
                    .round(arena_round(true))
                    .run(&inputs, &classic_config);
                let scoped_config = config.clone().scoped_threads();
                let (scoped_out, scoped_report) = Pipeline::new()
                    .round(arena_round(true))
                    .run(&inputs, &scoped_config);
                assert_eq!(arena_out, classic_out, "threads={threads}");
                assert_eq!(arena_out, scoped_out, "threads={threads}");
                assert_eq!(counters_of(&arena_report), counters_of(&classic_report));
                assert_eq!(counters_of(&arena_report), counters_of(&scoped_report));
            }
        }
    }

    #[test]
    fn arena_rounds_with_combiners_fall_back_to_the_classic_path() {
        // A combiner and an arena opt-in can coexist on a round; the engine
        // runs the classic combined path (and its counters show it).
        let inputs: Vec<u64> = (0..800).collect();
        let round = counting_round(true).arena();
        assert!(round.has_arena());
        let config = EngineConfig::with_threads(4);
        let (mut outputs, report) = Pipeline::new().round(round).run(&inputs, &config);
        outputs.sort_unstable();
        let (mut plain, plain_report) = Pipeline::new()
            .round(counting_round(true))
            .run(&inputs, &config);
        plain.sort_unstable();
        assert_eq!(outputs, plain);
        assert!(report.rounds[0].metrics.combiner_input_records > 0);
        assert_eq!(counters_of(&report), counters_of(&plain_report));
    }

    /// Strips the spill counters so budgeted and unbudgeted runs can be
    /// compared on everything else — the cross-budget parity contract.
    fn without_spill_counters(counters: Vec<(String, JobMetrics)>) -> Vec<(String, JobMetrics)> {
        counters
            .into_iter()
            .map(|(name, mut metrics)| {
                metrics.spilled_bytes = 0;
                metrics.spill_runs = 0;
                (name, metrics)
            })
            .collect()
    }

    #[test]
    fn chunked_input_matches_the_slice_path_exactly() {
        // Feeding the slice path's own shard boundaries through the chunk
        // iterator — as borrowed slices or owned batches — must reproduce the
        // outputs and counters byte for byte, arena and fallback paths alike.
        let inputs: Vec<u64> = (0..4000).map(|i| i * 29 % 613).collect();
        for threads in [1usize, 2, 8] {
            for arena in [true, false] {
                let config = EngineConfig::with_threads(threads);
                let mut collected = crate::sink::CollectSink::new();
                let report = Pipeline::new().round(arena_round(arena)).run_with_sink(
                    &inputs,
                    &config,
                    &mut collected,
                );
                let outputs = collected.into_items();
                let chunk_size = inputs.len().div_ceil(threads).max(1);

                let mut sliced = crate::sink::CollectSink::new();
                let slice_report = Pipeline::new()
                    .round(arena_round(arena))
                    .run_chunked_with_sink(
                        inputs.chunks(chunk_size).map(InputChunk::Slice),
                        &config,
                        &mut sliced,
                    );
                assert_eq!(sliced.into_items(), outputs, "threads={threads}");
                assert_eq!(counters_of(&slice_report), counters_of(&report));

                let mut batched = crate::sink::CollectSink::new();
                let batch_report = Pipeline::new()
                    .round(arena_round(arena))
                    .run_chunked_with_sink(
                        inputs
                            .chunks(chunk_size)
                            .map(|chunk| InputChunk::Batch(chunk.to_vec())),
                        &config,
                        &mut batched,
                    );
                assert_eq!(batched.into_items(), outputs, "threads={threads}");
                assert_eq!(counters_of(&batch_report), counters_of(&report));
            }
        }
    }

    #[test]
    fn spill_counters_are_zero_without_a_budget() {
        let inputs: Vec<u64> = (0..5000).map(|i| i * 31 % 997).collect();
        let (_, report) = Pipeline::new()
            .round(arena_round(true))
            .run(&inputs, &EngineConfig::with_threads(4));
        let metrics = &report.rounds[0].metrics;
        assert_eq!(metrics.spilled_bytes, 0);
        assert_eq!(metrics.spill_runs, 0);
        assert_eq!(metrics.spill_read_secs, Duration::ZERO);
    }

    #[test]
    fn outputs_are_byte_identical_across_memory_budgets() {
        // ~100k records (~half a MiB of arena bytes) dwarf the forced 64 KiB
        // budget, so the smallest budget spills several epochs; the contract
        // is byte-identical outputs and counters (spill counters aside) at
        // every budget, in deterministic and relaxed mode.
        let inputs: Vec<u64> = (0..100_000).map(|i| i * 37 % 7919).collect();
        for threads in [2usize, 4] {
            for deterministic in [true, false] {
                let unbounded = EngineConfig {
                    num_threads: threads,
                    deterministic,
                    ..EngineConfig::default()
                };
                let (base_out, base_report) = Pipeline::new()
                    .round(arena_round(true))
                    .run(&inputs, &unbounded);
                assert_eq!(base_report.rounds[0].metrics.spilled_bytes, 0);
                for budget in [64 << 10, 1 << 20] {
                    let config = unbounded.clone().memory_budget(budget);
                    let (outputs, report) = Pipeline::new()
                        .round(arena_round(true))
                        .run(&inputs, &config);
                    assert_eq!(
                        outputs, base_out,
                        "threads={threads} deterministic={deterministic} budget={budget}"
                    );
                    assert_eq!(
                        without_spill_counters(counters_of(&report)),
                        without_spill_counters(counters_of(&base_report)),
                        "threads={threads} deterministic={deterministic} budget={budget}"
                    );
                    if budget == 64 << 10 {
                        let metrics = &report.rounds[0].metrics;
                        assert!(
                            metrics.spilled_bytes > 0,
                            "a 64 KiB budget under ~500 KiB of records must spill"
                        );
                        assert!(metrics.spill_runs > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_input_spills_under_a_budget_and_stays_identical() {
        // The streamed-input path composes with spilling: same outputs as the
        // unbudgeted slice path, with the spill counters lighting up.
        let inputs: Vec<u64> = (0..80_000).map(|i| i * 41 % 6007).collect();
        let threads = 4usize;
        let chunk_size = inputs.len().div_ceil(threads);
        let (base_out, _) = Pipeline::new()
            .round(arena_round(true))
            .run(&inputs, &EngineConfig::with_threads(threads));
        let config = EngineConfig::with_threads(threads).memory_budget(64 << 10);
        let mut collected = crate::sink::CollectSink::new();
        let report = Pipeline::new()
            .round(arena_round(true))
            .run_chunked_with_sink(
                inputs
                    .chunks(chunk_size)
                    .map(|chunk| InputChunk::Batch(chunk.to_vec())),
                &config,
                &mut collected,
            );
        assert_eq!(collected.into_items(), base_out);
        assert!(report.rounds[0].metrics.spilled_bytes > 0);
    }

    #[test]
    fn arena_flag_off_disables_the_arena_executor() {
        let inputs: Vec<u64> = (0..500).collect();
        let config = EngineConfig::with_threads(3).arena_shuffle(false);
        let (outputs, _) = Pipeline::new()
            .round(arena_round(true))
            .run(&inputs, &config);
        let (expected, _) = Pipeline::new()
            .round(arena_round(false))
            .run(&inputs, &config);
        assert_eq!(outputs, expected);
    }

    /// The hash-once invariant is asserted inside every map and reduce worker
    /// in debug builds; driving the engine through both shuffle paths (flat
    /// and combined) across thread counts exercises those assertions.
    #[test]
    fn hash_once_invariant_holds_on_both_shuffle_paths() {
        let inputs: Vec<u64> = (0..700).map(|i| i * 13 % 211).collect();
        for threads in [1usize, 2, 8] {
            for combine in [true, false] {
                let (outputs, report) = Pipeline::new()
                    .round(counting_round(combine))
                    .run(&inputs, &EngineConfig::with_threads(threads));
                assert!(!outputs.is_empty());
                assert_eq!(report.rounds[0].metrics.key_value_pairs, inputs.len());
            }
        }
    }
}
