//! The arena shuffle: flat byte buffers instead of `Vec<(K, V)>` records.
//!
//! The classic shuffle representation costs ~32 bytes per record for the
//! paper's triangle workloads (`(u64 hash, [u32; 3], Edge)` with padding)
//! *twice* — once in the map context's pair vector, once in the partitioned
//! buckets. The arena shuffle removes both: map workers serialize every
//! emission straight into one **byte arena per reduce shard** using the
//! [`ArenaCodec`] varint encoding (~10 bytes per triangle record), the
//! exchange transposes arena ownership without touching a record, and reduce
//! workers decode each arena chunk once while grouping — returning consumed
//! chunks to the [`BufferPool`] as they go, so resident memory *falls*
//! through the reduce phase instead of peaking.
//!
//! Under an [`EngineConfig::memory_budget`] the arena additionally spills:
//! when the round's resident chunk bytes cross the budget, the map worker
//! that crossed it seals its full chunks into run files (see [`crate::spill`])
//! and recycles the buffers, and the reduce phase streams each bucket's runs
//! back *before* its resident tail — run records are strictly older than
//! resident ones, so the merged order is exactly the in-memory order and the
//! merge is concatenation, not sort.
//!
//! Parity contract (pinned by `tests/pool_parity.rs` / `tests/sink_parity.rs`
//! and the acceptance sweep): outputs and every [`JobMetrics`] counter are
//! byte-identical to the classic executors — and, spill counters aside, the
//! same at every budget. The ingredients:
//!
//! * **Routing** uses the same emit-time FxHash + [`shard_for_hash`], so
//!   records land in the same reduce shard.
//! * **Grouping** uses the same `PrehashedMap` with the same capacity
//!   heuristic and the same insertion order (map-shard order, emission order
//!   within a shard — spilled runs then the resident tail preserve exactly
//!   that order), so even non-deterministic iteration order matches.
//! * **`shuffle_bytes`** is priced by the round's record weigher exactly once
//!   per record — on the reduce side, where each record is decoded —
//!   summing to the same total the classic map-side pricing produces.
//! * **Hash accounting** differs by design: the arena path hashes each key
//!   once at emit (routing) and once at decode (grouping) instead of carrying
//!   8 hash bytes per record through the exchange. The debug hash counters
//!   assert exactly that shape here.
//!
//! `partition_time` reports zero on this path: partitioning happens inside
//! the emit call, so its cost is already part of `map_time`. `spill_read_secs`
//! is likewise a slice of `reduce_time` (the critical-path run-file reads).

use crate::engine::{shard_for_hash, EngineConfig};
use crate::hash::{hash_for_shuffle, prehashed_map_with_capacity, Prehashed, PrehashedMap};
use crate::metrics::JobMetrics;
use crate::pipeline::{InputChunk, ReduceOutcome, Round, Slot};
use crate::pool::{BufferPool, WorkerPool};
use crate::sink::{OutputSink, SinkShard};
use crate::spill::{RunReader, SpillRound};
use crate::task::{MapContext, ReduceContext};
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use subgraph_codec::ArenaCodec;

/// Target byte size of one arena chunk on the unbudgeted path. Large enough
/// that glibc serves it with `mmap` (so freed chunks return to the OS
/// immediately) and that the per-chunk bookkeeping vanishes against ~100k
/// records per chunk; small enough that the reduce phase's progressive frees
/// are fine-grained and the [`BufferPool`] (4 MiB recycling cap) can bank
/// every chunk. Budgeted rounds scale this down
/// ([`SpillRound::chunk_target`]) so chunks seal — and can spill — well
/// before a small budget is exhausted.
pub(crate) const ARENA_CHUNK: usize = 1 << 20;

/// One reduce shard's byte arena on one map worker: sealed chunks of
/// back-to-back encoded `(key, value)` records, plus the run files earlier
/// sealed chunks were spilled into. A record never spans chunks.
pub(crate) struct ArenaBucket {
    chunks: Vec<Vec<u8>>,
    /// Spill run files holding this bucket's oldest chunks, in epoch (write)
    /// order. Empty on the unbudgeted path.
    runs: Vec<PathBuf>,
    records: usize,
}

impl ArenaBucket {
    fn new() -> Self {
        ArenaBucket {
            chunks: Vec::new(),
            runs: Vec::new(),
            records: 0,
        }
    }

    /// Appends one encoded record, opening a new chunk when the current one
    /// cannot hold it whole — or has already reached `chunk_target`, which is
    /// what *seals* a chunk (recycled pool buffers can be far larger than the
    /// target; without the target cap a budgeted round's chunks would never
    /// seal and nothing could spill). Returns the capacity newly reserved for
    /// the round (0 when the record fit in the open chunk) so a budgeted
    /// caller can account resident bytes.
    fn push(
        &mut self,
        record: &[u8],
        buffers: &BufferPool,
        chunk_target: usize,
        bounded: bool,
    ) -> usize {
        let fits = self.chunks.last().is_some_and(|chunk| {
            chunk.capacity() - chunk.len() >= record.len()
                && chunk.len() + record.len() <= chunk_target
        });
        let mut reserved = 0;
        if !fits {
            let want = chunk_target.max(record.len());
            let mut chunk: Vec<u8> = buffers.take();
            if chunk.capacity() < want {
                chunk.reserve_exact(want);
            } else if bounded && chunk.capacity() > want.saturating_mul(2) {
                // Under a budget the chunk's full capacity counts as
                // resident; a recycled buffer many times the target would
                // burn the budget while holding `want` bytes. Right-size it.
                chunk = Vec::with_capacity(want);
            }
            reserved = chunk.capacity();
            self.chunks.push(chunk);
        }
        let chunk = self.chunks.last_mut().expect("a chunk was just ensured");
        chunk.extend_from_slice(record);
        self.records += 1;
        reserved
    }

    /// Number of records in the bucket — the reduce side's capacity heuristic
    /// input, mirroring the classic path's `key_entries`. Spilling never
    /// decrements it: spilled records still arrive at the reducer, so the
    /// heuristic (and with it the grouping map's growth pattern) is identical
    /// at every budget.
    pub(crate) fn records(&self) -> usize {
        self.records
    }

    /// The spilled runs (epoch order) and resident chunks (write order).
    /// Decoding the runs first then the chunks replays the exact emission
    /// order.
    fn into_parts(self) -> (Vec<PathBuf>, Vec<Vec<u8>>) {
        (self.runs, self.chunks)
    }
}

/// The arena-mode emission state behind [`MapContext`]. The context type has
/// no `Hash`/[`ArenaCodec`] bounds (they would leak into every mapper
/// signature), so the two operations that need them — hashing a key and
/// encoding a record — are captured as monomorphized function pointers by
/// [`ArenaState::new`], which *is* bounded.
pub(crate) struct ArenaState<K, V> {
    buckets: Vec<ArenaBucket>,
    scratch: Vec<u8>,
    emitted: usize,
    buffers: Arc<BufferPool>,
    /// The round's shared spill state; `None` runs the pure in-memory path.
    spill: Option<Arc<SpillRound>>,
    /// This worker's logical map-shard index — names its run files.
    map_shard: usize,
    /// This worker's next spill epoch (bumped once per spill pass).
    epoch: usize,
    /// Chunk capacity to reserve: [`ARENA_CHUNK`], or the budget-scaled
    /// [`SpillRound::chunk_target`].
    chunk_target: usize,
    hash: fn(&K) -> u64,
    encode: fn(&K, &V, &mut Vec<u8>),
}

fn encode_record<K: ArenaCodec, V: ArenaCodec>(key: &K, value: &V, out: &mut Vec<u8>) {
    key.encode(out);
    value.encode(out);
}

impl<K, V> ArenaState<K, V>
where
    K: Hash + ArenaCodec,
    V: ArenaCodec,
{
    pub(crate) fn new(shards: usize, buffers: Arc<BufferPool>) -> Self {
        ArenaState {
            buckets: (0..shards).map(|_| ArenaBucket::new()).collect(),
            scratch: Vec::new(),
            emitted: 0,
            buffers,
            spill: None,
            map_shard: 0,
            epoch: 0,
            chunk_target: ARENA_CHUNK,
            hash: hash_for_shuffle::<K>,
            encode: encode_record::<K, V>,
        }
    }

    /// Attaches the round's spill state (no-op when `spill` is `None`) and
    /// records which map shard this worker is, for run-file naming.
    pub(crate) fn with_spill(mut self, spill: Option<Arc<SpillRound>>, map_shard: usize) -> Self {
        self.chunk_target = spill
            .as_ref()
            .map_or(ARENA_CHUNK, |round| round.chunk_target);
        self.spill = spill;
        self.map_shard = map_shard;
        self
    }
}

impl<K, V> ArenaState<K, V> {
    /// Routes and serializes one emission: hash the key (the counted,
    /// emit-side hash), pick the reduce shard, encode into that shard's
    /// arena. Under a budget, opening a chunk that pushes the round's
    /// resident bytes past the budget triggers a spill of this worker's
    /// sealed chunks.
    pub(crate) fn emit(&mut self, key: &K, value: &V) {
        let hash = (self.hash)(key);
        let shard = shard_for_hash(hash, self.buckets.len());
        self.scratch.clear();
        (self.encode)(key, value, &mut self.scratch);
        let reserved = self.buckets[shard].push(
            &self.scratch,
            &self.buffers,
            self.chunk_target,
            self.spill.is_some(),
        );
        self.emitted += 1;
        if reserved > 0 {
            // Budget check only on chunk open: the common emit path (record
            // fits) costs nothing extra.
            let over = match &self.spill {
                Some(spill) => {
                    spill.resident.fetch_add(reserved, Ordering::Relaxed) + reserved > spill.budget
                }
                None => false,
            };
            if over {
                self.spill_sealed();
            }
        }
    }

    /// Spills every *sealed* chunk (all but the open tail of each bucket) to
    /// one run file per non-trivial bucket, recycles the buffers, and credits
    /// the freed capacity back to the round's resident counter. Partial tails
    /// stay resident — spilling them would produce pathological one-record
    /// runs and would not change the decode order anyway.
    fn spill_sealed(&mut self) {
        let spill = Arc::clone(
            self.spill
                .as_ref()
                .expect("spill_sealed only runs under a budget"),
        );
        let mut freed = 0usize;
        let mut wrote = false;
        for (shard, bucket) in self.buckets.iter_mut().enumerate() {
            if bucket.chunks.len() < 2 {
                continue;
            }
            let tail = bucket.chunks.pop().expect("bucket has at least two chunks");
            let sealed = std::mem::take(&mut bucket.chunks);
            bucket.chunks.push(tail);
            let path = spill.write_run(self.map_shard, shard, self.epoch, &sealed);
            bucket.runs.push(path);
            for chunk in sealed {
                freed += chunk.capacity();
                self.buffers.give(chunk);
            }
            wrote = true;
        }
        if wrote {
            self.epoch += 1;
        }
        if freed > 0 {
            spill.resident.fetch_sub(freed, Ordering::Relaxed);
        }
    }

    pub(crate) fn emitted(&self) -> usize {
        self.emitted
    }

    pub(crate) fn into_parts(self) -> (Vec<ArenaBucket>, usize) {
        (self.buckets, self.emitted)
    }
}

/// What one arena map worker hands to the exchange.
struct ArenaMapOutcome {
    /// One arena per reduce shard, indexed by [`shard_for_hash`].
    buckets: Vec<ArenaBucket>,
    /// Records emitted by the worker's mapper calls.
    emitted: usize,
}

/// Maps a batch of logical shards on the pool, one task per shard, returning
/// the outcomes in shard order. `base_shard` offsets the global map-shard
/// index (and thus spill run-file names) so the chunked executor can feed
/// waves of shards through the same code path.
fn arena_map_shards<I, K, V, O>(
    shards: &[&[I]],
    base_shard: usize,
    reduce_shards: usize,
    round: &Round<'_, I, K, V, O>,
    buffers: &Arc<BufferPool>,
    spill: &Option<Arc<SpillRound>>,
    pool: &WorkerPool,
) -> Vec<ArenaMapOutcome>
where
    I: Sync,
    K: Hash + ArenaCodec,
    V: ArenaCodec,
{
    let mapper = &*round.mapper;
    let outcome_slots: Vec<Slot<ArenaMapOutcome>> =
        (0..shards.len()).map(|_| Mutex::new(None)).collect();
    pool.run_indexed(shards.len(), |shard| {
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
        let state = ArenaState::new(reduce_shards, Arc::clone(buffers))
            .with_spill(spill.clone(), base_shard + shard);
        let mut ctx = MapContext::with_arena(state);
        for record in shards[shard] {
            mapper.map(record, &mut ctx);
        }
        let (buckets, emitted) = ctx.into_arena();
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            crate::hash::debug_hash_count::take() as usize,
            emitted,
            "arena map side hashes each emitted key exactly once (routing)"
        );
        *outcome_slots[shard]
            .lock()
            .expect("arena map slot poisoned") = Some(ArenaMapOutcome { buckets, emitted });
    });
    outcome_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("arena map slot poisoned")
                .expect("every map shard completed")
        })
        .collect()
}

/// Decodes one chunk's records into the grouping map — shared by the
/// resident-chunk and spilled-run decode loops so both price, hash and group
/// identically.
fn drain_chunk<K, V, W>(
    chunk: &[u8],
    weigher: &W,
    grouped: &mut PrehashedMap<K, Vec<V>>,
    bytes: &mut u64,
    decoded: &mut usize,
) where
    K: Hash + Eq + ArenaCodec,
    V: ArenaCodec,
    W: Fn(&K, &V) -> usize + ?Sized,
{
    let mut pos = 0;
    while pos < chunk.len() {
        let key = K::decode(chunk, &mut pos);
        let value = V::decode(chunk, &mut pos);
        *bytes += weigher(&key, &value) as u64;
        let hash = hash_for_shuffle(&key);
        *decoded += 1;
        grouped
            .entry(Prehashed::from_parts(hash, key))
            .or_default()
            .push(value);
    }
}

/// The exchange + reduce back half shared by both arena executors: transpose
/// bucket ownership, then decode-while-grouping on the reduce workers —
/// spilled runs first (streamed back one frame at a time through a recycled
/// buffer), resident chunks after. Fills every reduce-side metric, including
/// the spill counters, and drops the spill round (removing its directory).
fn arena_exchange_reduce<I, K, V, O>(
    mapped: Vec<ArenaMapOutcome>,
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
    sink: &mut dyn OutputSink<O>,
    pool: &WorkerPool,
    spill: Option<Arc<SpillRound>>,
    metrics: &mut JobMetrics,
) where
    K: Hash + Eq + Ord + Send + ArenaCodec,
    V: Send + ArenaCodec,
    O: Send + 'static,
{
    let threads = config.num_threads.max(1);
    let buffers = pool.buffers();

    // ---- Exchange phase ---------------------------------------------------
    // The same transpose as the classic executors, except each moved value is
    // a byte arena (plus its run-file paths) rather than a record vector.
    let shuffle_start = Instant::now();
    let workers = mapped.len();
    let mut inboxes: Vec<Vec<ArenaBucket>> =
        (0..threads).map(|_| Vec::with_capacity(workers)).collect();
    for outcome in mapped {
        for (target, bucket) in outcome.buckets.into_iter().enumerate() {
            metrics.wire_bytes.0 += bucket.chunks.iter().map(|c| c.len() as u64).sum::<u64>();
            inboxes[target].push(bucket);
        }
    }
    metrics.shuffle_time = shuffle_start.elapsed();

    // ---- Reduce phase -----------------------------------------------------
    // Decode-while-grouping: each record is decoded exactly once, priced by
    // the round's weigher (same total as map-side pricing), hashed once for
    // the grouping lookup, and its chunk returned to the buffer pool the
    // moment it is drained. Spilled runs stream back through one recycled
    // frame buffer per worker, so re-reading a run keeps a single chunk
    // resident at a time.
    let deterministic = config.deterministic;
    let reducer = &*round.reducer;
    let weigher = &*round.record_bytes;
    let reduce_start = Instant::now();
    let reduce_slots: Vec<Slot<(ReduceOutcome<O>, u64, Duration)>> =
        (0..inboxes.len()).map(|_| Mutex::new(None)).collect();
    type ArenaReduceWork<O> = (Vec<ArenaBucket>, Box<dyn SinkShard<O>>);
    let reduce_inputs: Vec<Slot<ArenaReduceWork<O>>> = inboxes
        .into_iter()
        .map(|inbox| Mutex::new(Some((inbox, sink.new_shard()))))
        .collect();
    let spill_ref = &spill;
    pool.run_indexed(reduce_inputs.len(), |shard| {
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
        let (inbox, sink_shard) = reduce_inputs[shard]
            .lock()
            .expect("arena reduce input poisoned")
            .take()
            .expect("each reduce shard is claimed once");
        // Same capacity heuristic as the classic executors: records in the
        // largest inbound bucket, capped. With capacity, hasher and insertion
        // order all equal, the grouping map iterates in the classic order.
        let capacity = inbox
            .iter()
            .map(ArenaBucket::records)
            .max()
            .unwrap_or(0)
            .min(1 << 16);
        let mut grouped: PrehashedMap<K, Vec<V>> = prehashed_map_with_capacity(capacity);
        let mut bytes = 0u64;
        let mut decoded = 0usize;
        let mut read_secs = Duration::ZERO;
        for bucket in inbox {
            let (runs, chunks) = bucket.into_parts();
            if !runs.is_empty() {
                let spill = spill_ref
                    .as_ref()
                    .expect("run files only exist under a budget");
                let mut frame: Vec<u8> = buffers.take();
                for path in runs {
                    let mut reader = RunReader::open(path, spill.dir());
                    loop {
                        let read_start = Instant::now();
                        let more = reader.next_frame(&mut frame);
                        read_secs += read_start.elapsed();
                        if !more {
                            break;
                        }
                        drain_chunk(&frame, weigher, &mut grouped, &mut bytes, &mut decoded);
                    }
                }
                buffers.give(frame);
            }
            for chunk in chunks {
                drain_chunk(&chunk, weigher, &mut grouped, &mut bytes, &mut decoded);
                buffers.give(chunk);
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            crate::hash::debug_hash_count::take() as usize,
            decoded,
            "arena reduce side hashes each decoded key exactly once (grouping)"
        );
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
        *reduce_slots[shard]
            .lock()
            .expect("arena reduce outcome poisoned") = Some((
            ReduceOutcome {
                shard: shard_out,
                emitted,
                work,
                groups: group_count,
                max_input,
            },
            bytes,
            read_secs,
        ));
    });
    let reduced: Vec<(ReduceOutcome<O>, u64, Duration)> = reduce_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("arena reduce outcome poisoned")
                .expect("every reduce shard completed")
        })
        .collect();
    metrics.reduce_time = reduce_start.elapsed();
    metrics.reducers_used = reduced.iter().map(|(outcome, _, _)| outcome.groups).sum();
    metrics.max_reducer_input = reduced
        .iter()
        .map(|(outcome, _, _)| outcome.max_input)
        .max()
        .unwrap_or(0);
    // Critical-path read time, like partition_time: the longest any single
    // reduce worker stalled on run files (a slice of reduce_time, not a new
    // phase).
    metrics.spill_read_secs = reduced
        .iter()
        .map(|(_, _, read_secs)| *read_secs)
        .max()
        .unwrap_or(Duration::ZERO);

    let fold_start = Instant::now();
    for (outcome, bytes, _) in reduced {
        metrics.shuffle_bytes += bytes;
        metrics.reducer_work += outcome.work;
        metrics.outputs += outcome.emitted;
        sink.fold(outcome.shard);
    }
    metrics.sink_fold_time = fold_start.elapsed();
    if let Some(spill) = spill {
        metrics.spilled_bytes = spill.spilled_bytes.load(Ordering::Relaxed);
        metrics.wire_bytes.0 += metrics.spilled_bytes;
        metrics.spill_runs = spill.spill_runs.load(Ordering::Relaxed);
        // Last owner: dropping removes the spill directory.
        drop(spill);
    }
}

/// Creates the round's spill state when a budget is configured. `None` keeps
/// the pure in-memory path (and guarantees every spill counter stays zero).
fn spill_round_for(config: &EngineConfig, threads: usize) -> Option<Arc<SpillRound>> {
    (config.memory_budget > 0).then(|| {
        Arc::new(SpillRound::create(
            config.memory_budget,
            threads,
            config.spill_dir.as_deref(),
        ))
    })
}

/// The arena executor: same two-phase exchange as the classic executors
/// (see [`crate::pipeline`]), with serialized buckets. Selected per round via
/// [`Round::arena`] when the round has codec-capable key/value types, runs on
/// the worker pool, and is skipped when a combiner is active (combined rounds
/// keep the classic representation; their buckets hold `Vec<V>` groups the
/// arena format does not model).
pub(crate) fn execute_round_arena<I, K, V, O>(
    inputs: &[I],
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
    sink: &mut dyn OutputSink<O>,
    pool: &WorkerPool,
) -> JobMetrics
where
    I: Sync,
    K: Hash + Eq + Ord + Send + ArenaCodec,
    V: Send + ArenaCodec,
    O: Send + 'static,
{
    let threads = config.num_threads.max(1);
    let buffers = pool.buffers();
    let spill = spill_round_for(config, threads);
    let mut metrics = JobMetrics {
        input_records: inputs.len(),
        ..JobMetrics::default()
    };

    // ---- Map phase --------------------------------------------------------
    // One task per logical shard, like the scoped executor: emissions are
    // routed and serialized as they happen, so there is no separate partition
    // stage (and no pair vector to accumulate into).
    let map_start = Instant::now();
    let chunk_size = inputs.len().div_ceil(threads).max(1);
    let shards: Vec<&[I]> = inputs.chunks(chunk_size).collect();
    let mapped = arena_map_shards(&shards, 0, threads, round, buffers, &spill, pool);
    metrics.map_time = map_start.elapsed();
    metrics.key_value_pairs = mapped.iter().map(|outcome| outcome.emitted).sum();
    metrics.shuffle_records = metrics.key_value_pairs;

    arena_exchange_reduce(mapped, round, config, sink, pool, spill, &mut metrics);
    metrics
}

/// The streaming arena executor: consumes an [`InputChunk`] iterator in waves
/// of `threads` chunks, so owned batches (e.g. text-source reads) are dropped
/// as soon as their wave is mapped and no stage ever holds the full input
/// resident. Each yielded chunk is one logical map shard; feeding the same
/// shard boundaries as the slice path (`len.div_ceil(threads)`) yields
/// byte-identical outputs and counters.
pub(crate) fn execute_round_arena_chunked<'s, I, K, V, O>(
    chunks: &mut dyn Iterator<Item = InputChunk<'s, I>>,
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
    sink: &mut dyn OutputSink<O>,
    pool: &WorkerPool,
) -> JobMetrics
// No explicit `'s` bounds: the lifetime must stay late-bound so this fn item
// coerces to the `for<'s>` ArenaChunkExec pointer Round::arena captures.
where
    I: Sync,
    K: Hash + Eq + Ord + Send + ArenaCodec,
    V: Send + ArenaCodec,
    O: Send + 'static,
{
    let threads = config.num_threads.max(1);
    let buffers = pool.buffers();
    let spill = spill_round_for(config, threads);
    let mut metrics = JobMetrics::default();

    // ---- Map phase (wave loop) -------------------------------------------
    let map_start = Instant::now();
    let mut mapped: Vec<ArenaMapOutcome> = Vec::new();
    loop {
        let mut wave: Vec<InputChunk<'s, I>> = Vec::with_capacity(threads);
        while wave.len() < threads {
            match chunks.next() {
                Some(chunk) => wave.push(chunk),
                None => break,
            }
        }
        if wave.is_empty() {
            break;
        }
        let slices: Vec<&[I]> = wave.iter().map(InputChunk::as_slice).collect();
        metrics.input_records += slices.iter().map(|slice| slice.len()).sum::<usize>();
        let outcomes =
            arena_map_shards(&slices, mapped.len(), threads, round, buffers, &spill, pool);
        mapped.extend(outcomes);
        // `wave` drops here: owned batches are freed before the next wave
        // streams in.
    }
    metrics.map_time = map_start.elapsed();
    metrics.key_value_pairs = mapped.iter().map(|outcome| outcome.emitted).sum();
    metrics.shuffle_records = metrics.key_value_pairs;

    arena_exchange_reduce(mapped, round, config, sink, pool, spill, &mut metrics);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    #[test]
    fn bucket_seals_chunks_and_counts_records() {
        let pool = WorkerPool::new(0);
        let buffers = pool.buffers();
        let mut bucket = ArenaBucket::new();
        let record = vec![0xabu8; 600 * 1024]; // two won't share a 1 MiB chunk
        assert!(bucket.push(&record, buffers, ARENA_CHUNK, false) > 0);
        assert!(bucket.push(&record, buffers, ARENA_CHUNK, false) > 0);
        assert_eq!(bucket.records(), 2);
        let (runs, chunks) = bucket.into_parts();
        assert!(runs.is_empty());
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.len() == record.len()));
    }

    #[test]
    fn oversized_records_get_a_dedicated_chunk() {
        let pool = WorkerPool::new(0);
        let buffers = pool.buffers();
        let mut bucket = ArenaBucket::new();
        let huge = vec![1u8; ARENA_CHUNK + 17];
        bucket.push(&huge, buffers, ARENA_CHUNK, false);
        assert_eq!(
            bucket.push(&[2u8, 3], buffers, ARENA_CHUNK, false),
            ARENA_CHUNK
        );
        let (_, chunks) = bucket.into_parts();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), huge.len());
        assert_eq!(chunks[1], vec![2, 3]);
    }

    #[test]
    fn records_that_fit_reserve_nothing() {
        let pool = WorkerPool::new(0);
        let buffers = pool.buffers();
        let mut bucket = ArenaBucket::new();
        assert!(bucket.push(&[1u8; 16], buffers, 4096, true) > 0);
        assert_eq!(bucket.push(&[2u8; 16], buffers, 4096, true), 0);
    }

    #[test]
    fn arena_state_routes_by_key_hash() {
        let pool = WorkerPool::new(0);
        let shards = 4;
        let mut state: ArenaState<u32, u32> = ArenaState::new(shards, Arc::clone(pool.buffers()));
        for key in 0..1000u32 {
            state.emit(&key, &(key * 2));
        }
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
        assert_eq!(state.emitted(), 1000);
        let (buckets, emitted) = state.into_parts();
        assert_eq!(emitted, 1000);
        let total: usize = buckets.iter().map(ArenaBucket::records).sum();
        assert_eq!(total, 1000);
        // Decoding each bucket yields keys that route to that bucket.
        for (shard, bucket) in buckets.into_iter().enumerate() {
            let (runs, chunks) = bucket.into_parts();
            assert!(runs.is_empty(), "unbudgeted state never spills");
            for chunk in chunks {
                let mut pos = 0;
                while pos < chunk.len() {
                    let key = u32::decode(&chunk, &mut pos);
                    let value = u32::decode(&chunk, &mut pos);
                    assert_eq!(value, key * 2);
                    assert_eq!(shard_for_hash(crate::hash::hash_of(&key), shards), shard);
                }
            }
        }
    }

    #[test]
    fn budgeted_state_spills_sealed_chunks_and_replays_them_in_order() {
        let pool = WorkerPool::new(0);
        let shards = 2;
        // A budget a few 4 KiB chunks wide forces several spill epochs over
        // ~64 KiB of emissions.
        let spill = Arc::new(SpillRound::create(16 << 10, 1, None));
        let dir = spill.dir().to_path_buf();
        let mut state: ArenaState<u32, u32> = ArenaState::new(shards, Arc::clone(pool.buffers()))
            .with_spill(Some(Arc::clone(&spill)), 3);
        let total = 20_000u32;
        for key in 0..total {
            state.emit(&key, &(key ^ 0x5a5a));
        }
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
        assert!(
            spill.spill_runs.load(Ordering::Relaxed) > 0,
            "a 16 KiB budget over ~100 KiB of records must spill"
        );
        assert!(spill.spilled_bytes.load(Ordering::Relaxed) > 0);

        // Replaying runs-then-chunks per bucket yields every record exactly
        // once, in emission order per bucket.
        let (buckets, emitted) = state.into_parts();
        assert_eq!(emitted, total as usize);
        let mut seen = 0usize;
        for bucket in buckets {
            let records = bucket.records();
            let (runs, chunks) = bucket.into_parts();
            assert!(!runs.is_empty(), "both shards spilled under this budget");
            let mut keys: Vec<u32> = Vec::new();
            let mut frame = Vec::new();
            let decode_all = |data: &[u8], keys: &mut Vec<u32>| {
                let mut pos = 0;
                while pos < data.len() {
                    let key = u32::decode(data, &mut pos);
                    let value = u32::decode(data, &mut pos);
                    assert_eq!(value, key ^ 0x5a5a);
                    keys.push(key);
                }
            };
            for path in runs {
                let mut reader = RunReader::open(path, &dir);
                while reader.next_frame(&mut frame) {
                    decode_all(&frame, &mut keys);
                }
            }
            for chunk in chunks {
                decode_all(&chunk, &mut keys);
            }
            assert_eq!(keys.len(), records);
            assert!(
                keys.windows(2).all(|pair| pair[0] < pair[1]),
                "runs-then-tail replays the per-bucket emission order"
            );
            seen += keys.len();
        }
        assert_eq!(seen, total as usize);
        drop(spill);
        assert!(!dir.exists(), "dropping the round removes its spill dir");
    }
}
