//! The round executor: map into per-reduce-shard byte arenas, exchange arena
//! ownership, decode while grouping, reduce.
//!
//! Every [`Round`] runs here. A `Vec<(K, V)>` shuffle costs ~32 bytes per
//! record for the paper's triangle workloads (`(u64 hash, [u32; 3], Edge)`
//! with padding), held twice — once in a pair vector, once in the
//! partitioned buckets. The arena holds each record once, serialized with
//! the [`ArenaCodec`] varint encoding (~10 bytes per triangle record):
//!
//! 1. **Map.** One pool task per logical map shard (`len.div_ceil(threads)`
//!    records). Each emission is hashed, routed with [`shard_for_hash`] and
//!    encoded straight into that reduce shard's arena. A round whose combiner
//!    is active first maps the shard into a plain pair buffer, groups it by
//!    key in a `PrehashedMap`, combines each group and emits the kept values
//!    with the hash computed while grouping — so the combiner's scope is the
//!    map shard and `shuffle_records` counts what survives it.
//! 2. **Exchange.** The coordinator transposes arena ownership (map-shard
//!    major to reduce-shard major) without touching a record.
//! 3. **Reduce.** One pool task per reduce shard decodes each arena chunk
//!    once while grouping into a `PrehashedMap`, returning consumed chunks to
//!    the [`BufferPool`] as it goes, so resident memory *falls* through the
//!    reduce phase instead of peaking. Keys are sorted when
//!    [`EngineConfig::deterministic`] is set, and the reducer streams into a
//!    private shard of the output sink, folded back in shard order.
//!
//! Under an [`EngineConfig::memory_budget`] the arena additionally spills:
//! when the round's resident chunk bytes cross the budget, the map task that
//! crossed it seals its full chunks into run files (see [`crate::spill`]) and
//! recycles the buffers, and the reduce phase streams each bucket's runs
//! back *before* its resident tail — run records are strictly older than
//! resident ones, so the merged order is exactly the in-memory order and the
//! merge is concatenation, not sort. Outputs and every non-spill
//! [`JobMetrics`] counter are the same at every budget.
//!
//! Per-key value order is (map shard, emission order within the shard), so
//! a deterministic run is a pure function of the input, the thread count and
//! the combiner toggle. `shuffle_bytes` is priced by the round's record
//! weigher once per record at decode; `wire_bytes` is the encoded length of
//! the same records. Each key is hashed once on the map side (routing, or
//! grouping when combining) and once at decode (grouping); the debug hash
//! counters assert exactly that shape. `spill_read_secs` is a slice of
//! `reduce_time` (the critical-path run-file reads).

use crate::engine::{shard_for_hash, EngineConfig};
use crate::hash::{hash_for_shuffle, prehashed_map_with_capacity, Prehashed, PrehashedMap};
use crate::metrics::JobMetrics;
use crate::pipeline::Round;
use crate::pool::BufferPool;
use crate::sink::{OutputSink, SinkShard};
use crate::spill::{RunReader, SpillRound};
use crate::task::{Combiner, MapContext, ReduceContext};
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

/// One reduce shard's byte arena on one map task: sealed chunks of
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
            let mut chunk = buffers.take();
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

    /// Number of records in the bucket — the reduce side's grouping-map
    /// capacity heuristic. Spilling never decrements it: spilled records
    /// still arrive at the reducer, so the heuristic (and with it the
    /// grouping map's growth pattern) is identical at every budget.
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
    /// This task's logical map-shard index — names its run files.
    map_shard: usize,
    /// This task's next spill epoch (bumped once per spill pass).
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
    /// records which map shard this task is, for run-file naming.
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
    /// emit-side hash), then [`ArenaState::emit_hashed`].
    pub(crate) fn emit(&mut self, key: &K, value: &V) {
        let hash = (self.hash)(key);
        self.emit_hashed(hash, key, value);
    }

    /// Routes and serializes one emission whose key hash is already known:
    /// pick the reduce shard, encode into that shard's arena. Under a budget,
    /// opening a chunk that pushes the round's resident bytes past the budget
    /// triggers a spill of this task's sealed chunks.
    fn emit_hashed(&mut self, hash: u64, key: &K, value: &V) {
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

/// A one-shot result slot a pool task fills for the coordinator.
type Slot<T> = Mutex<Option<T>>;

/// Empties the slots a `run_indexed` batch filled, in index order.
fn take_slots<T>(slots: Vec<Slot<T>>) -> Vec<T> {
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("task slot poisoned")
                .expect("every task filled its slot")
        })
        .collect()
}

/// What one map task hands to the exchange.
struct MappedShard {
    /// One arena per reduce shard, indexed by [`shard_for_hash`].
    buckets: Vec<ArenaBucket>,
    /// Pairs the mapper emitted.
    emitted: usize,
    /// Records written to the arenas: the combiner's output when one ran,
    /// `emitted` otherwise.
    shipped: usize,
}

/// Maps one logical shard into fresh arenas (see the module docs for the
/// combining variant).
fn map_shard<I, K, V, O>(
    records: &[I],
    round: &Round<'_, I, K, V, O>,
    combiner: Option<&dyn Combiner<K, V>>,
    mut state: ArenaState<K, V>,
) -> MappedShard
where
    K: Hash + Eq,
{
    #[cfg(debug_assertions)]
    let _ = crate::hash::debug_hash_count::take();
    let mapper = &*round.mapper;
    let (buckets, emitted, shipped) = match combiner {
        None => {
            let mut ctx = MapContext::with_arena(state);
            for record in records {
                mapper.map(record, &mut ctx);
            }
            let (buckets, emitted) = ctx.into_arena();
            (buckets, emitted, emitted)
        }
        Some(combiner) => {
            let mut ctx = MapContext::new();
            for record in records {
                mapper.map(record, &mut ctx);
            }
            let pairs = ctx.into_pairs();
            let emitted = pairs.len();
            // Grouping-map iteration order is a function of hasher, capacity
            // and insertion order, so the combined records reach the arenas
            // in a deterministic order.
            let mut groups: PrehashedMap<K, Vec<V>> = prehashed_map_with_capacity(emitted);
            for (key, value) in pairs {
                groups.entry(Prehashed::new(key)).or_default().push(value);
            }
            for (key, values) in groups {
                for value in combiner.combine(key.key(), values) {
                    state.emit_hashed(key.hash(), key.key(), &value);
                }
            }
            let (buckets, shipped) = state.into_parts();
            (buckets, emitted, shipped)
        }
    };
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        crate::hash::debug_hash_count::take() as usize,
        emitted,
        "the map side hashes each emitted key exactly once"
    );
    MappedShard {
        buckets,
        emitted,
        shipped,
    }
}

/// What one reduce task hands back: its filled sink shard plus counters.
struct ReduceOutcome<O> {
    shard: Box<dyn SinkShard<O>>,
    emitted: usize,
    work: u64,
    groups: usize,
    max_input: usize,
    /// Weigher-priced bytes of the decoded records.
    bytes: u64,
    /// Time spent reading spilled runs back.
    read_secs: Duration,
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

/// Groups and reduces one reduce shard's inbox: spilled runs first (streamed
/// back one frame at a time through a recycled buffer), resident chunks
/// after, then the reducer over the (optionally sorted) groups.
fn reduce_shard<I, K, V, O>(
    inbox: Vec<ArenaBucket>,
    sink_shard: Box<dyn SinkShard<O>>,
    round: &Round<'_, I, K, V, O>,
    deterministic: bool,
    buffers: &BufferPool,
    spill: Option<&SpillRound>,
) -> ReduceOutcome<O>
where
    K: Hash + Eq + Ord + ArenaCodec,
    V: ArenaCodec,
{
    #[cfg(debug_assertions)]
    let _ = crate::hash::debug_hash_count::take();
    // Capacity heuristic: records in the largest inbound bucket, capped so a
    // low-cardinality shard never pre-allocates a table sized to its record
    // count; past the cap the map doubles a handful of times, which is cheap.
    let capacity = inbox
        .iter()
        .map(ArenaBucket::records)
        .max()
        .unwrap_or(0)
        .min(1 << 16);
    let weigher = &*round.record_bytes;
    let mut grouped: PrehashedMap<K, Vec<V>> = prehashed_map_with_capacity(capacity);
    let mut bytes = 0u64;
    let mut decoded = 0usize;
    let mut read_secs = Duration::ZERO;
    for bucket in inbox {
        let (runs, chunks) = bucket.into_parts();
        if !runs.is_empty() {
            let spill = spill.expect("run files only exist under a budget");
            let mut frame = buffers.take();
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
        "the reduce side hashes each decoded key exactly once (grouping)"
    );
    let mut groups: Vec<(K, Vec<V>)> = grouped
        .into_iter()
        .map(|(key, values)| (key.into_key(), values))
        .collect();
    if deterministic {
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    }
    let max_input = groups.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let reducer = &*round.reducer;
    let mut ctx = ReduceContext::with_shard(sink_shard);
    for (key, values) in &groups {
        reducer.reduce(key, values, &mut ctx);
    }
    let (shard, work, emitted) = ctx.into_parts();
    ReduceOutcome {
        shard,
        emitted,
        work,
        groups: groups.len(),
        max_input,
        bytes,
        read_secs,
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

/// Executes one round over `inputs` on the configured worker pool, streaming
/// the reducer outputs into `sink`, and returns the measured [`JobMetrics`].
/// `num_threads` names the number of map and reduce shards; the pool decides
/// how many OS threads serve them.
pub(crate) fn execute_round<I, K, V, O>(
    inputs: &[I],
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
    sink: &mut dyn OutputSink<O>,
) -> JobMetrics
where
    I: Sync,
    K: Hash + Eq + Ord + Send + ArenaCodec,
    V: Send + ArenaCodec,
    O: Send + 'static,
{
    let pool = config.pool();
    let buffers = pool.buffers();
    let threads = config.num_threads.max(1);
    let spill = spill_round_for(config, threads);
    let combiner = if config.use_combiners {
        round.combiner.as_deref()
    } else {
        None
    };
    let mut metrics = JobMetrics {
        input_records: inputs.len(),
        ..JobMetrics::default()
    };

    // ---- Map phase --------------------------------------------------------
    let map_start = Instant::now();
    let chunk_size = inputs.len().div_ceil(threads).max(1);
    let shards: Vec<&[I]> = inputs.chunks(chunk_size).collect();
    let map_slots: Vec<Slot<MappedShard>> = (0..shards.len()).map(|_| Mutex::new(None)).collect();
    pool.run_indexed(shards.len(), |shard| {
        let state = ArenaState::new(threads, Arc::clone(buffers)).with_spill(spill.clone(), shard);
        let mapped = map_shard(shards[shard], round, combiner, state);
        *map_slots[shard].lock().expect("map slot poisoned") = Some(mapped);
    });
    let mapped = take_slots(map_slots);
    metrics.map_time = map_start.elapsed();
    metrics.key_value_pairs = mapped.iter().map(|shard| shard.emitted).sum();
    metrics.shuffle_records = mapped.iter().map(|shard| shard.shipped).sum();
    if combiner.is_some() {
        metrics.combiner_input_records = metrics.key_value_pairs;
        metrics.combiner_output_records = metrics.shuffle_records;
    }

    // ---- Exchange phase ---------------------------------------------------
    // Pure ownership moves: the coordinator handles `shards x threads`
    // arenas, never a record.
    let shuffle_start = Instant::now();
    let mut inboxes: Vec<Vec<ArenaBucket>> = (0..threads)
        .map(|_| Vec::with_capacity(mapped.len()))
        .collect();
    for shard in mapped {
        for (target, bucket) in shard.buckets.into_iter().enumerate() {
            metrics.wire_bytes += bucket.chunks.iter().map(|c| c.len() as u64).sum::<u64>();
            inboxes[target].push(bucket);
        }
    }
    metrics.shuffle_time = shuffle_start.elapsed();

    // ---- Reduce phase -----------------------------------------------------
    // Sink shards are created in shard order and folded back in shard order,
    // which is what preserves deterministic output order.
    let reduce_start = Instant::now();
    type ReduceWork<O> = (Vec<ArenaBucket>, Box<dyn SinkShard<O>>);
    let reduce_inputs: Vec<Slot<ReduceWork<O>>> = inboxes
        .into_iter()
        .map(|inbox| Mutex::new(Some((inbox, sink.new_shard()))))
        .collect();
    let reduce_slots: Vec<Slot<ReduceOutcome<O>>> =
        (0..reduce_inputs.len()).map(|_| Mutex::new(None)).collect();
    pool.run_indexed(reduce_inputs.len(), |shard| {
        let (inbox, sink_shard) = reduce_inputs[shard]
            .lock()
            .expect("reduce input poisoned")
            .take()
            .expect("each reduce shard is claimed once");
        let outcome = reduce_shard(
            inbox,
            sink_shard,
            round,
            config.deterministic,
            buffers,
            spill.as_deref(),
        );
        *reduce_slots[shard].lock().expect("reduce slot poisoned") = Some(outcome);
    });
    let reduced = take_slots(reduce_slots);
    metrics.reduce_time = reduce_start.elapsed();
    metrics.reducers_used = reduced.iter().map(|outcome| outcome.groups).sum();
    metrics.max_reducer_input = reduced
        .iter()
        .map(|outcome| outcome.max_input)
        .max()
        .unwrap_or(0);
    // Critical-path read time: the longest any single reduce task stalled on
    // run files (a slice of reduce_time, not a new phase).
    metrics.spill_read_secs = reduced
        .iter()
        .map(|outcome| outcome.read_secs)
        .max()
        .unwrap_or(Duration::ZERO);

    let fold_start = Instant::now();
    for outcome in reduced {
        metrics.shuffle_bytes += outcome.bytes;
        metrics.reducer_work += outcome.work;
        metrics.outputs += outcome.emitted;
        sink.fold(outcome.shard);
    }
    metrics.sink_fold_time = fold_start.elapsed();
    if let Some(spill) = spill {
        metrics.spilled_bytes = spill.spilled_bytes.load(Ordering::Relaxed);
        metrics.wire_bytes += metrics.spilled_bytes;
        metrics.spill_runs = spill.spill_runs.load(Ordering::Relaxed);
        // Last owner: dropping removes the spill directory.
        drop(spill);
    }
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
