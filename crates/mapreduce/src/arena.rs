//! The round executor: map into per-partition byte arenas, exchange arena
//! ownership, then decode, group and reduce one partition at a time.
//!
//! Every [`Round`] runs here. A `Vec<(K, V)>` shuffle costs ~32 bytes per
//! record for the paper's triangle workloads (`(u64 hash, [u32; 3], Edge)`
//! with padding), held twice — once in a pair vector, once in the
//! partitioned buckets. The arena holds each record once, serialized with
//! the [`ArenaCodec`] varint encoding (~7 bytes per triangle record: a
//! one-byte reducer index and the varint edge):
//!
//! 1. **Map.** One pool task per logical map shard (`len.div_ceil(threads)`
//!    records). Each emission is hashed, routed with [`shard_for_hash`] to
//!    one of the round's `threads × passes` reduce buckets
//!    ([`EngineConfig::reduce_passes`]: 16 without a budget) and encoded
//!    straight into that bucket's open arena chunk when the chunk has room
//!    for the record types' [`ArenaCodec::MAX_ENCODED_LEN`]; a record with
//!    no bound, or one that may not fit, is encoded into a scratch buffer
//!    first and copied, which is what decides whether it opens a new chunk.
//!    Both ways leave the same bytes in the same chunks, and
//!    `shuffle_records` counts every emission.
//! 2. **Exchange.** The coordinator transposes arena ownership (map-shard
//!    major to bucket major) without touching a record. Bucket `b` holds
//!    the `16 / passes` consecutive partitions starting at
//!    `b · 16 / passes`, so bucket order is partition order.
//! 3. **Reduce.** `threads` pool tasks claim bucket indices in ascending
//!    order from one shared counter. Per bucket a task decodes the
//!    bucket's chunks once while grouping into one `PrehashedMap` per
//!    partition (below), returns the consumed chunks to the
//!    [`BufferPool`], reduces each partition's groups in key order into a
//!    fresh shard of the output sink, and recycles their value vectors
//!    before it claims the next bucket. So at most one bucket's decoded
//!    groups are resident per task, the arena *falls* through the reduce
//!    phase instead of peaking, and a task whose keys are heavy holds up
//!    nobody. A finished shard is parked; under the one lock around the
//!    sink, every parked shard at the head of the bucket order is folded
//!    at once ([`OutputSink::fold`]). Formatted output is thus held only for
//!    buckets finished ahead of the oldest unfinished one, and the folds
//!    overlap the reduce.
//!
//! Under an [`EngineConfig::memory_budget`] the arena additionally spills:
//! when the round's resident chunk bytes cross the budget, the map task that
//! crossed it seals its full chunks into one run file (see [`crate::spill`])
//! and recycles the buffers, and the reduce phase streams each bucket's
//! slices of the runs back *before* its resident tail — run records are
//! strictly older than resident ones, so the merged order is exactly the
//! in-memory order and the merge is concatenation, not sort. Outputs and
//! every non-spill [`JobMetrics`] counter are the same at every budget.
//!
//! Per-key value order is (map shard, emission order within the shard), and
//! the sink receives a run's outputs in (partition, key) order of their keys,
//! where a key's partition is `shard_for_hash(hash,`
//! [`EngineConfig::reduce_partitions`]`)` — a refinement of every bucket
//! layout, because the number of passes divides 16. So a run's output
//! is a pure function of the input and the thread count, at every budget.
//! `shuffle_bytes` is priced by the round's record weigher once per record
//! at decode; `wire_bytes` is the encoded length of the same records. Each
//! key is hashed once on the map side (routing) and once at decode
//! (grouping); the debug hash counters assert exactly that shape. `spill_read_secs` is a
//! slice of `reduce_time` (the critical-path run-file reads), and so are
//! the folds that run before the last bucket finishes; `sink_fold_time` is
//! the fold tail after it.

use crate::engine::{shard_for_hash, EngineConfig, PARTITIONS_PER_WORKER};
use crate::hash::{hash_for_shuffle, prehashed_map_with_capacity, Prehashed, PrehashedMap};
use crate::metrics::JobMetrics;
use crate::pool::BufferPool;
use crate::round::Round;
use crate::sink::{OutputSink, SinkShard};
use crate::spill::{RunReader, RunSlice, SpillRound};
use crate::task::{MapContext, ReduceContext};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use subgraph_codec::ArenaCodec;

/// Target byte size of one arena chunk on the unbudgeted path: glibc's
/// default `mmap` threshold, so a fresh chunk costs only the pages written
/// into it — which matters because every map task keeps one open tail per
/// reduce bucket (`threads × 16` of them) — while the per-chunk bookkeeping
/// still vanishes against ~18k records per chunk, the reduce phase's
/// progressive frees stay fine-grained and a recycled, fully written buffer
/// serving as an open tail wastes little. Budgeted rounds scale this down
/// ([`SpillRound::chunk_target`]) so chunks seal — and can spill — well
/// before a small budget is exhausted.
pub(crate) const ARENA_CHUNK: usize = 128 << 10;

/// One reduce bucket's byte arena on one map task: sealed chunks of
/// back-to-back encoded `(key, value)` records, plus the slices of the run
/// files earlier sealed chunks were spilled into. A record never spans
/// chunks.
pub(crate) struct ArenaBucket {
    chunks: Vec<Vec<u8>>,
    /// This bucket's slices of the spill runs holding its oldest chunks, in
    /// epoch (write) order. Empty on the unbudgeted path.
    runs: Vec<RunSlice>,
}

impl ArenaBucket {
    fn new() -> Self {
        ArenaBucket {
            chunks: Vec::new(),
            runs: Vec::new(),
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
        reserved
    }

    /// Encodes one record straight into the open chunk when that chunk has
    /// room for `bound` more bytes without growing or passing
    /// `chunk_target` — exactly where [`ArenaBucket::push`] would put any
    /// record of at most `bound` bytes — so the chunks come out byte for
    /// byte as pushing would leave them. Returns false, writing nothing,
    /// when there is no such room.
    fn push_in_place(
        &mut self,
        bound: usize,
        chunk_target: usize,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        let Some(chunk) = self.chunks.last_mut() else {
            return false;
        };
        if chunk.capacity() - chunk.len() < bound || chunk.len() + bound > chunk_target {
            return false;
        }
        let before = chunk.len();
        encode(chunk);
        debug_assert!(
            chunk.len() - before <= bound,
            "a record outgrew its type's MAX_ENCODED_LEN"
        );
        true
    }

    /// The spilled run slices (epoch order) and resident chunks (write
    /// order). Decoding the runs first then the chunks replays the exact
    /// emission order.
    fn into_parts(self) -> (Vec<RunSlice>, Vec<Vec<u8>>) {
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
    /// The most bytes one encoded record takes, when its types bound it.
    record_bound: Option<usize>,
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
            record_bound: <(K, V)>::MAX_ENCODED_LEN,
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
    /// emit-side hash), pick the reduce bucket, encode into that bucket's
    /// arena — in place when the open chunk has room for the record's bound,
    /// through `scratch` otherwise. Under a budget, opening a chunk that
    /// pushes the round's resident bytes past the budget triggers a spill of
    /// this task's sealed chunks.
    pub(crate) fn emit(&mut self, key: &K, value: &V) {
        let hash = (self.hash)(key);
        let shard = shard_for_hash(hash, self.buckets.len());
        let encode = self.encode;
        let in_place = self.record_bound.is_some_and(|bound| {
            self.buckets[shard]
                .push_in_place(bound, self.chunk_target, |chunk| encode(key, value, chunk))
        });
        let reserved = if in_place {
            0
        } else {
            self.scratch.clear();
            encode(key, value, &mut self.scratch);
            self.buckets[shard].push(
                &self.scratch,
                &self.buffers,
                self.chunk_target,
                self.spill.is_some(),
            )
        };
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

    /// Spills every *sealed* chunk (all but the open tail of each bucket)
    /// into one run file, each bucket's chunks back to back, recycles the
    /// buffers, and credits the freed capacity back to the round's resident
    /// counter. Partial tails stay resident — spilling them would produce
    /// pathological one-record slices and would not change the decode order
    /// anyway.
    fn spill_sealed(&mut self) {
        let spill = Arc::clone(
            self.spill
                .as_ref()
                .expect("spill_sealed only runs under a budget"),
        );
        let mut sealed: Vec<(usize, Vec<Vec<u8>>)> = Vec::new();
        for (index, bucket) in self.buckets.iter_mut().enumerate() {
            if bucket.chunks.len() < 2 {
                continue;
            }
            let tail = bucket.chunks.pop().expect("bucket has at least two chunks");
            sealed.push((index, std::mem::replace(&mut bucket.chunks, vec![tail])));
        }
        if sealed.is_empty() {
            return;
        }
        let slices = spill.write_run(
            self.map_shard,
            self.epoch,
            sealed.iter().map(|(_, chunks)| chunks.as_slice()),
        );
        self.epoch += 1;
        let mut freed = 0usize;
        for ((index, chunks), slice) in sealed.into_iter().zip(slices) {
            self.buckets[index].runs.push(slice);
            for chunk in chunks {
                freed += chunk.capacity();
                self.buffers.give(chunk);
            }
        }
        spill.resident.fetch_sub(freed, Ordering::Relaxed);
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
    /// One arena per reduce bucket, indexed by [`shard_for_hash`].
    buckets: Vec<ArenaBucket>,
    /// Records written to the arenas: every pair the mapper emitted.
    shipped: usize,
}

/// Maps one logical shard into fresh arenas.
fn map_shard<I, K, V, O>(
    records: &[I],
    round: &Round<'_, I, K, V, O>,
    state: ArenaState<K, V>,
) -> MappedShard {
    #[cfg(debug_assertions)]
    let _ = crate::hash::debug_hash_count::take();
    let mut ctx = MapContext::new(state);
    for record in records {
        round.mapper.map(record, &mut ctx);
    }
    let (buckets, shipped) = ctx.into_arena();
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        crate::hash::debug_hash_count::take() as usize,
        shipped,
        "the map side hashes each emitted key exactly once"
    );
    MappedShard { buckets, shipped }
}

/// What one reduce task hands back: its counters, summed over the buckets it
/// claimed.
#[derive(Default)]
struct ReduceOutcome {
    emitted: usize,
    work: u64,
    groups: usize,
    max_input: usize,
    /// Weigher-priced bytes of the decoded records.
    bytes: u64,
    /// Time spent reading spilled runs back.
    read_secs: Duration,
}

/// The round's sink and the finished bucket shards still waiting for an
/// older bucket, behind the one lock every fold takes.
struct FoldQueue<'s, O> {
    sink: &'s mut dyn OutputSink<O>,
    /// Finished shards by bucket: `Some` from the moment a bucket is reduced
    /// until it is folded.
    parked: Vec<Option<Box<dyn SinkShard<O>>>>,
    /// The oldest bucket not folded yet.
    next: usize,
    /// Buckets reduced so far.
    finished: usize,
    /// When the last bucket finished reducing: the start of the fold tail.
    tail_start: Option<Instant>,
}

impl<O: Send + 'static> FoldQueue<'_, O> {
    /// Parks `bucket`'s finished shard, then folds every parked shard at the
    /// head of the bucket order.
    fn park(&mut self, bucket: usize, shard: Box<dyn SinkShard<O>>) {
        self.parked[bucket] = Some(shard);
        self.finished += 1;
        if self.finished == self.parked.len() {
            self.tail_start = Some(Instant::now());
        }
        while let Some(shard) = self.parked.get_mut(self.next).and_then(Option::take) {
            self.sink.fold(shard);
            self.next += 1;
        }
    }
}

/// One reduce task's grouping state: a map per partition of the current
/// bucket, the value vectors the last partition's groups left behind, and the
/// decode counters.
struct PassGroups<K, V> {
    /// The bucket's maps, in partition order. A bucket's partitions are an
    /// aligned run of `maps.len()` (a power of two), so a key's map is its
    /// partition's low bits.
    maps: Vec<PrehashedMap<K, Vec<V>>>,
    /// [`EngineConfig::reduce_partitions`] of the round.
    partitions: usize,
    /// The capacity every map starts a partition with.
    capacity: usize,
    /// What `capacity()` reads on a map created with `capacity`; a map that
    /// reads more grew, and is replaced.
    fresh_capacity: usize,
    /// Cleared value vectors of reduced groups. A new group takes one, so a
    /// task grows its value vectors once, not once per partition.
    spare: Vec<Vec<V>>,
    /// Weigher-priced bytes of the decoded records.
    bytes: u64,
    decoded: usize,
}

impl<K: Hash + Eq + Ord + ArenaCodec, V: ArenaCodec> PassGroups<K, V> {
    fn new(per_pass: usize, partitions: usize, capacity: usize) -> Self {
        debug_assert!(per_pass.is_power_of_two());
        let maps: Vec<PrehashedMap<K, Vec<V>>> = (0..per_pass)
            .map(|_| prehashed_map_with_capacity(capacity))
            .collect();
        PassGroups {
            fresh_capacity: maps[0].capacity(),
            maps,
            partitions,
            capacity,
            spare: Vec::new(),
            bytes: 0,
            decoded: 0,
        }
    }

    /// Decodes one chunk's records into the maps — shared by the
    /// resident-chunk and spilled-run decode loops so both price, hash and
    /// group identically.
    fn decode<W: Fn(&K, &V) -> usize + ?Sized>(&mut self, chunk: &[u8], weigher: &W) {
        let mask = self.maps.len() - 1;
        let mut pos = 0;
        while pos < chunk.len() {
            let key = K::decode(chunk, &mut pos);
            let value = V::decode(chunk, &mut pos);
            self.bytes += weigher(&key, &value) as u64;
            let hash = hash_for_shuffle(&key);
            self.decoded += 1;
            self.maps[shard_for_hash(hash, self.partitions) & mask]
                .entry(Prehashed::from_parts(hash, key))
                .or_insert_with(|| self.spare.pop().unwrap_or_default())
                .push(value);
        }
    }

    /// Moves the pass's `index`-th partition's groups into `groups`, sorted
    /// by key, and leaves its map as a fresh one would be: a map that grew
    /// is replaced, so one hot partition's table is not carried into every
    /// later pass.
    fn take_partition(&mut self, index: usize, groups: &mut Vec<(K, Vec<V>)>) {
        let map = &mut self.maps[index];
        groups.extend(map.drain().map(|(key, values)| (key.into_key(), values)));
        if map.capacity() > self.fresh_capacity {
            *map = prehashed_map_with_capacity(self.capacity);
        }
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    }
}

/// What every reduce task of a round shares: the buckets' arenas (one per
/// map shard, in map-shard order), the counter tasks claim bucket indices
/// from, and the fold queue.
struct ReducePhase<'r, 's, O> {
    inboxes: Vec<Slot<Vec<ArenaBucket>>>,
    claim: AtomicUsize,
    folds: Mutex<FoldQueue<'s, O>>,
    buffers: &'r BufferPool,
    spill: Option<&'r SpillRound>,
}

/// One reduce task: claims bucket indices in ascending order until none is
/// left. Per bucket it decodes the arenas — spilled runs first, streamed back
/// one frame at a time through a recycled buffer, resident chunks after —
/// into one grouping map per partition, reduces the partitions in order, each
/// over its groups sorted by key, into a fresh sink shard, clears their
/// values, and parks the shard in the fold queue. Delivery order is a
/// function of the partitions alone, never of how many share a bucket or
/// which task reduced it.
fn reduce_task<I, K, V, O>(
    phase: &ReducePhase<'_, '_, O>,
    round: &Round<'_, I, K, V, O>,
    mut grouped: PassGroups<K, V>,
) -> ReduceOutcome
where
    K: Hash + Eq + Ord + ArenaCodec,
    V: ArenaCodec,
    O: Send + 'static,
{
    #[cfg(debug_assertions)]
    let _ = crate::hash::debug_hash_count::take();
    let weigher = &*round.record_bytes;
    let reducer = &*round.reducer;
    let per_bucket = grouped.maps.len();
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    let mut outcome = ReduceOutcome::default();
    loop {
        // Relaxed: the index publishes nothing; each inbox has its own lock.
        let bucket = phase.claim.fetch_add(1, Ordering::Relaxed);
        let Some(inbox) = phase.inboxes.get(bucket) else {
            break;
        };
        let arenas = inbox
            .lock()
            .expect("reduce inbox poisoned")
            .take()
            .expect("each bucket is claimed once");
        let shard = phase
            .folds
            .lock()
            .expect("fold queue poisoned")
            .sink
            .new_shard();
        let mut ctx = ReduceContext::with_shard(shard);
        for arena in arenas {
            let (runs, chunks) = arena.into_parts();
            if !runs.is_empty() {
                let spill = phase.spill.expect("run files only exist under a budget");
                let mut frame = phase.buffers.take();
                for slice in &runs {
                    let mut reader = RunReader::open(slice, spill.dir());
                    loop {
                        let read_start = Instant::now();
                        let more = reader.next_frame(&mut frame);
                        outcome.read_secs += read_start.elapsed();
                        if !more {
                            break;
                        }
                        grouped.decode(&frame, weigher);
                    }
                }
                phase.buffers.give(frame);
            }
            for chunk in chunks {
                grouped.decode(&chunk, weigher);
                phase.buffers.give(chunk);
            }
        }
        for index in 0..per_bucket {
            grouped.take_partition(index, &mut groups);
            outcome.groups += groups.len();
            for (key, mut values) in groups.drain(..) {
                outcome.max_input = outcome.max_input.max(values.len());
                reducer.reduce(&key, &values, &mut ctx);
                values.clear();
                grouped.spare.push(values);
            }
        }
        let (shard, work, emitted) = ctx.into_parts();
        outcome.work += work;
        outcome.emitted += emitted;
        phase
            .folds
            .lock()
            .expect("fold queue poisoned")
            .park(bucket, shard);
    }
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        crate::hash::debug_hash_count::take() as usize,
        grouped.decoded,
        "the reduce side hashes each decoded key exactly once (grouping)"
    );
    outcome.bytes = grouped.bytes;
    outcome
}

/// Creates the round's spill state when a budget is configured. `None` keeps
/// the pure in-memory path (and guarantees every spill counter stays zero).
fn spill_round_for(
    config: &EngineConfig,
    threads: usize,
    buckets: usize,
) -> Option<Arc<SpillRound>> {
    (config.memory_budget > 0).then(|| {
        Arc::new(SpillRound::create(
            config.memory_budget,
            threads,
            buckets,
            config.spill_dir.as_deref(),
        ))
    })
}

/// Executes one round over `inputs` on the configured worker pool, streaming
/// the reducer outputs into `sink`, and returns the measured [`JobMetrics`].
/// `num_threads` names the number of map shards and reduce workers; the
/// pool decides how many OS threads serve them.
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
    let partitions = config.reduce_partitions();
    let passes = config.reduce_passes();
    let buckets = threads * passes;
    let spill = spill_round_for(config, threads, buckets);
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
        let state = ArenaState::new(buckets, Arc::clone(buffers)).with_spill(spill.clone(), shard);
        let mapped = map_shard(shards[shard], round, state);
        *map_slots[shard].lock().expect("map slot poisoned") = Some(mapped);
    });
    let mapped = take_slots(map_slots);
    metrics.map_time = map_start.elapsed();
    metrics.shuffle_records = mapped.iter().map(|shard| shard.shipped).sum();

    // ---- Exchange phase ---------------------------------------------------
    // Pure ownership moves: the coordinator handles `shards x buckets`
    // arenas, never a record.
    let shuffle_start = Instant::now();
    // Grouping-map capacity: the records an average reduce worker gets from
    // the map shard that sent the most, spread over its partitions, capped
    // so a low-cardinality partition never pre-allocates a table sized to
    // its record count; past the cap a map doubles a handful of times, which
    // is cheap.
    let capacity =
        (mapped.iter().map(|shard| shard.shipped).max().unwrap_or(0) / partitions).min(1 << 16);
    let mut by_bucket: Vec<Vec<ArenaBucket>> = (0..buckets)
        .map(|_| Vec::with_capacity(mapped.len()))
        .collect();
    for shard in mapped {
        for (bucket, arena) in shard.buckets.into_iter().enumerate() {
            metrics.wire_bytes += arena.chunks.iter().map(|c| c.len() as u64).sum::<u64>();
            by_bucket[bucket].push(arena);
        }
    }
    metrics.shuffle_time = shuffle_start.elapsed();

    // ---- Reduce phase -----------------------------------------------------
    // Tasks claim buckets in ascending order and the fold queue folds the
    // shards in that order, which is what makes the output order repeat.
    let reduce_start = Instant::now();
    let phase = ReducePhase {
        inboxes: by_bucket
            .into_iter()
            .map(|arenas| Mutex::new(Some(arenas)))
            .collect(),
        claim: AtomicUsize::new(0),
        folds: Mutex::new(FoldQueue {
            sink,
            parked: (0..buckets).map(|_| None).collect(),
            next: 0,
            finished: 0,
            tail_start: None,
        }),
        buffers,
        spill: spill.as_deref(),
    };
    let reduce_slots: Vec<Slot<ReduceOutcome>> = (0..threads).map(|_| Mutex::new(None)).collect();
    pool.run_indexed(threads, |task| {
        let grouped = PassGroups::new(PARTITIONS_PER_WORKER / passes, partitions, capacity);
        let outcome = reduce_task(&phase, round, grouped);
        *reduce_slots[task].lock().expect("reduce slot poisoned") = Some(outcome);
    });
    let folds = phase.folds.into_inner().expect("fold queue poisoned");
    debug_assert_eq!(folds.next, buckets, "every bucket was folded");
    // Folds that ran while buckets were still reducing are reduce time; the
    // tail after the last bucket finished is the sink's own phase.
    let tail_start = folds.tail_start.unwrap_or_else(Instant::now);
    metrics.reduce_time = tail_start.saturating_duration_since(reduce_start);
    metrics.sink_fold_time = tail_start.elapsed();
    let reduced = take_slots(reduce_slots);
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
    for outcome in reduced {
        metrics.shuffle_bytes += outcome.bytes;
        metrics.reducer_work += outcome.work;
        metrics.outputs += outcome.emitted;
    }
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
        let record = vec![0xabu8; ARENA_CHUNK / 2 + 1]; // two won't share a chunk
        assert!(bucket.push(&record, buffers, ARENA_CHUNK, false) > 0);
        assert!(bucket.push(&record, buffers, ARENA_CHUNK, false) > 0);
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
    fn in_place_pushes_need_room_for_the_bound_below_the_target() {
        let pool = WorkerPool::new(0);
        let buffers = pool.buffers();
        let mut bucket = ArenaBucket::new();
        let write = |chunk: &mut Vec<u8>| chunk.push(7);
        assert!(!bucket.push_in_place(4, 64, write), "no open chunk yet");
        bucket.push(&[1u8; 56], buffers, 64, false);
        assert!(
            bucket.push_in_place(8, 64, write),
            "56 + 8 reaches the target"
        );
        assert!(!bucket.push_in_place(8, 64, write), "57 + 8 passes it");
        assert!(bucket.push_in_place(7, 64, write));
        let (_, chunks) = bucket.into_parts();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len(), 58);
    }

    /// The chunks `records` leave in each of `shards` buckets when emitted
    /// through an [`ArenaState`] with `chunk_target`-byte chunks.
    fn emitted_chunks<K, V>(
        records: &[(K, V)],
        shards: usize,
        chunk_target: usize,
    ) -> Vec<Vec<Vec<u8>>>
    where
        K: Hash + ArenaCodec,
        V: ArenaCodec,
    {
        let pool = WorkerPool::new(0);
        let mut state: ArenaState<K, V> = ArenaState::new(shards, Arc::clone(pool.buffers()));
        state.chunk_target = chunk_target;
        for (key, value) in records {
            state.emit(key, value);
        }
        let (buckets, _) = state.into_parts();
        buckets.into_iter().map(|b| b.into_parts().1).collect()
    }

    /// The same chunks built the scratch way: every record encoded on its
    /// own, then pushed.
    fn pushed_chunks<K, V>(
        records: &[(K, V)],
        shards: usize,
        chunk_target: usize,
    ) -> Vec<Vec<Vec<u8>>>
    where
        K: Hash + ArenaCodec,
        V: ArenaCodec,
    {
        let pool = WorkerPool::new(0);
        let mut buckets: Vec<ArenaBucket> = (0..shards).map(|_| ArenaBucket::new()).collect();
        let mut record = Vec::new();
        for (key, value) in records {
            record.clear();
            encode_record(key, value, &mut record);
            let shard = shard_for_hash(hash_for_shuffle(key), shards);
            buckets[shard].push(&record, pool.buffers(), chunk_target, false);
        }
        buckets.into_iter().map(|b| b.into_parts().1).collect()
    }

    #[test]
    fn in_place_and_scratch_emission_leave_the_same_chunks() {
        // Records of 2 to 15 bytes into 64-byte chunks: the open chunk is
        // often short of the 15-byte bound while it still has room for the
        // record, which then goes the scratch way into the same chunk.
        let bounded: Vec<(u32, (u32, u32))> = (0..3_000u32)
            .map(|i| match i % 4 {
                0 => (i, (i, i * 7)),
                1 => (u32::MAX - i, (u32::MAX, 0)),
                2 => (i % 5, (1 << 14, u32::MAX - i)),
                _ => (i * 65_537, (i % 128, 1 << 21)),
            })
            .collect();
        assert_eq!(<(u32, (u32, u32))>::MAX_ENCODED_LEN, Some(15));
        // No bound: every record goes the scratch way.
        let unbounded: Vec<(u32, Vec<u32>)> = (0..500u32)
            .map(|i| (i % 17, (0..i % 9).map(|j| j * i * 977).collect()))
            .collect();
        for target in [64, 4096, ARENA_CHUNK] {
            let emitted = emitted_chunks(&bounded, 3, target);
            assert_eq!(emitted, pushed_chunks(&bounded, 3, target), "{target}");
            if target == 64 {
                assert!(emitted.iter().all(|chunks| chunks.len() > 1));
            }
            let emitted = emitted_chunks(&unbounded, 3, target);
            assert_eq!(emitted, pushed_chunks(&unbounded, 3, target), "{target}");
        }
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
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
        // Decoding each bucket yields keys that route to that bucket.
        let mut total = 0;
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
                    total += 1;
                }
            }
        }
        assert_eq!(total, 1000);
    }

    #[test]
    fn budgeted_state_spills_sealed_chunks_and_replays_them_in_order() {
        let pool = WorkerPool::new(0);
        let shards = 2;
        // A budget a few 4 KiB chunks wide forces several spill epochs over
        // ~64 KiB of emissions.
        let spill = Arc::new(SpillRound::create(16 << 10, 1, shards, None));
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
            for slice in &runs {
                let mut reader = RunReader::open(slice, &dir);
                while reader.next_frame(&mut frame) {
                    decode_all(&frame, &mut keys);
                }
            }
            for chunk in chunks {
                decode_all(&chunk, &mut keys);
            }
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
